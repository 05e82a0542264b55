"""Synthetic inference-cluster utilization trace.

Substitutes the proprietary trace behind Fig. 1: one sample per five
minutes of the fraction of inference GPUs serving at least one request.
The published shape: a clear diurnal pattern with ~4-hour night peaks,
troughs before dawn, utilization spanning 42 %–95 % with mean ≈65 % and a
peak-to-trough ratio ≈2.2, plus short traffic bursts (the median 5-minute
burst is ~2 % of cluster capacity, which motivates the 2 % loaning
headroom, §7.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

#: Seconds between consecutive utilization samples (paper: 5 minutes).
SAMPLE_INTERVAL = 300.0
DAY = 86400.0
#: Inference capacity the inference scheduler never lends (§7.1: 2 %).
HEADROOM = 0.02


@dataclass
class InferenceTrace:
    """A utilization time series for the inference cluster.

    Attributes:
        utilization: Samples in [0, 1], one per :data:`SAMPLE_INTERVAL`.
            This is the Fig. 1 metric — the fraction of GPUs *serving at
            least one request* — not raw GPU busy time.
        num_servers: Inference cluster size the trace describes.
        gpu_busy_fraction: Average GPU busy time of an occupied inference
            GPU.  Inference GPUs serving requests still idle between
            requests, which is why the paper's combined-usage numbers
            (Table 5: Baseline 0.52 overall with ~65 % of inference GPUs
            occupied) sit well below the occupancy series.
    """

    utilization: np.ndarray
    num_servers: int
    gpu_busy_fraction: float = 0.55

    def __post_init__(self) -> None:
        self.utilization = np.asarray(self.utilization, dtype=float)
        if self.utilization.ndim != 1 or len(self.utilization) == 0:
            raise ValueError("utilization must be a non-empty 1-D series")
        if np.any(self.utilization < 0) or np.any(self.utilization > 1):
            raise ValueError("utilization samples must lie in [0, 1]")
        if self.num_servers < 1:
            raise ValueError(f"num_servers must be >= 1, got {self.num_servers}")

    def utilization_at(self, t: float) -> float:
        """Utilization sample covering time ``t`` (clamped to the trace)."""
        idx = int(t // SAMPLE_INTERVAL)
        idx = min(max(idx, 0), len(self.utilization) - 1)
        return float(self.utilization[idx])

    def busy_servers_at(self, t: float) -> int:
        """Servers the inference workload itself occupies at ``t``."""
        return math.ceil(self.utilization_at(t) * self.num_servers)

    def loanable_at(self, t: float, headroom: float = HEADROOM) -> int:
        """Servers the inference scheduler can lend at time ``t``.

        The scheduler keeps ``headroom`` of the cluster (never loaned,
        §7.1) on top of the servers its own traffic occupies.
        """
        if not 0 <= headroom < 1:
            raise ValueError(f"headroom must be in [0, 1), got {headroom}")
        reserved = self.busy_servers_at(t) + math.ceil(headroom * self.num_servers)
        return max(0, self.num_servers - reserved)

    def peak_to_trough(self) -> float:
        trough = float(np.min(self.utilization))
        return float(np.max(self.utilization)) / trough if trough > 0 else math.inf

    def with_spikes(
        self, spikes: "list[tuple[float, float, float]]"
    ) -> "InferenceTrace":
        """A copy of this trace with flash-crowd overlays applied.

        Each spike is ``(at, duration, magnitude)``: utilization rises
        by ``magnitude`` (clipped to [0, 1]) for every sample covering
        ``[at, at + duration)``.  The original trace is untouched — the
        fault injector swaps the overlaid copy into the simulation, so
        the orchestrator sees the reclaim storm while the spec of the
        spike stays declarative.
        """
        series = self.utilization.copy()
        for at, duration, magnitude in spikes:
            lo = max(0, int(at // SAMPLE_INTERVAL))
            hi = min(
                len(series),
                int(math.ceil((at + duration) / SAMPLE_INTERVAL)),
            )
            if hi > lo:
                series[lo:hi] = np.clip(series[lo:hi] + magnitude, 0.0, 1.0)
        return InferenceTrace(
            utilization=series,
            num_servers=self.num_servers,
            gpu_busy_fraction=self.gpu_busy_fraction,
        )


def generate_inference_trace(
    days: float = 7.0,
    num_servers: int = 520,
    seed: int = 0,
    mean_utilization: float = 0.65,
    trough: float = 0.42,
    peak: float = 0.95,
    burst_scale: float = 0.02,
    peak_hour: float = 22.0,
) -> InferenceTrace:
    """Generate a diurnal utilization trace matching the Fig. 1 statistics.

    The base curve is an asymmetric diurnal wave — a sharpened cosine
    whose positive lobe produces the ~4-hour night peak — rescaled to hit
    the requested trough/peak and nudged toward the requested mean, with
    AR(1) burst noise of ~``burst_scale`` median magnitude per sample.

    Args:
        days: Trace length in days.
        num_servers: Inference cluster size (paper: ~4,000 GPUs / 8).
        seed: RNG seed for reproducibility.
        mean_utilization: Target mean of the series.
        trough: Target minimum utilization.
        peak: Target maximum utilization.
        burst_scale: Typical per-sample burst amplitude.
        peak_hour: Local hour of the diurnal peak.  Inference clusters
            in different time zones shift this (a market's lenders peak
            at different wall-clock times, which is what makes
            cross-region loaning profitable).
    """
    if days <= 0:
        raise ValueError(f"days must be positive, got {days}")
    rng = np.random.default_rng(seed)
    n = int(days * DAY / SAMPLE_INTERVAL)
    t = np.arange(n) * SAMPLE_INTERVAL

    # Peak at ``peak_hour`` (22:00 by default); sharpening the positive
    # lobe narrows the peak to a few hours while widening the trough.
    phase = 2 * math.pi * (t / DAY - peak_hour / 24.0)
    wave = np.cos(phase)
    sharpened = np.sign(wave) * np.abs(wave) ** 0.6

    # Mild weekly modulation (weekend traffic is a little lower).
    weekly = 1.0 - 0.05 * (np.floor(t / DAY).astype(int) % 7 >= 5)

    base = (sharpened + 1.0) / 2.0  # -> [0, 1]
    series = trough + (peak - trough) * base
    series *= weekly

    # AR(1) bursts: short-lived positive excursions.
    noise = np.zeros(n)
    shocks = rng.exponential(burst_scale, size=n) * (rng.random(n) < 0.5)
    for i in range(1, n):
        noise[i] = 0.55 * noise[i - 1] + shocks[i]
    series = series + noise - np.mean(noise)

    # Nudge the mean without disturbing the extremes much.
    series = series + (mean_utilization - float(np.mean(series))) * 0.5
    series = np.clip(series, 0.0, 1.0)
    return InferenceTrace(utilization=series, num_servers=num_servers)
