"""Synthetic training-job trace generator.

Substitutes the paper's proprietary 15-day trace (50,390 jobs, 3,544
training GPUs).  The generator is calibrated to every workload statistic
the paper reports:

* job running times range from minutes to days (log-normal body);
* ~5 % of jobs are *elastic* — large jobs from the ResNet/VGG/BERT/GNMT
  families — and together account for ~36 % of training resources with an
  average running time around 14.2 hours (§2.2);
* 21 % of all jobs are *fungible* (can run on a different GPU type in a
  different run, §2.1);
* the offered load is high enough that a FIFO scheduler sees multi-
  thousand-second average queuing at ~82 % utilization (§2.1), controlled
  here by ``target_load``.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cluster.job import JobSpec
from repro.traces.models import ELASTIC_FAMILIES

DAY = 86400.0

#: Total-GPU demand distribution for ordinary (non-elastic) jobs:
#: dominated by small jobs, with a heavy-ish multi-server tail.
_REGULAR_GPUS = np.array([1, 2, 4, 8, 16, 32, 64])
_REGULAR_PROBS = np.array([0.46, 0.16, 0.13, 0.14, 0.07, 0.03, 0.01])


@dataclass(frozen=True)
class TraceConfig:
    """Knobs of the synthetic trace generator.

    Attributes:
        num_jobs: Jobs to generate.
        days: Trace span in days.
        cluster_gpus: Training-cluster size the load is calibrated to.
        seed: RNG seed.
        target_load: Offered work divided by cluster capacity over the
            span; ~0.95 reproduces the paper's congested regime.
        fungible_fraction: Overall fraction of fungible jobs (§2.1).
        elastic_job_fraction: Fraction of jobs that are elastic (§2.2).
        elastic_resource_share: Target share of total GPU-time held by
            elastic jobs; the generator sizes elastic jobs to approach
            it.
        elastic_mean_hours: Mean elastic-job running time (paper: 14.2 h).
    """

    num_jobs: int = 2000
    days: float = 15.0
    cluster_gpus: int = 3544
    seed: int = 0
    target_load: float = 0.95
    fungible_fraction: float = 0.21
    elastic_job_fraction: float = 0.05
    elastic_resource_share: float = 0.36
    elastic_mean_hours: float = 14.2

    def __post_init__(self) -> None:
        if self.num_jobs < 1:
            raise ValueError(f"num_jobs must be >= 1, got {self.num_jobs}")
        if self.days <= 0:
            raise ValueError(f"days must be positive, got {self.days}")
        for name in (
            "fungible_fraction",
            "elastic_job_fraction",
            "elastic_resource_share",
        ):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass
class Workload:
    """A generated trace plus bookkeeping helpers."""

    specs: List[JobSpec]
    config: TraceConfig

    @property
    def span(self) -> float:
        return self.config.days * DAY

    def total_work(self) -> float:
        return sum(spec.total_work for spec in self.specs)

    def offered_load(self) -> float:
        """Offered work relative to cluster capacity over the span."""
        return self.total_work() / (self.config.cluster_gpus * self.span)

    def elastic_share(self) -> float:
        """Fraction of total GPU-time belonging to elastic jobs."""
        total = self.total_work()
        if total == 0:
            return 0.0
        elastic = sum(s.total_work for s in self.specs if s.elastic)
        return elastic / total

    def fungible_fraction(self) -> float:
        return sum(1 for s in self.specs if s.fungible) / len(self.specs)


def _left_sum(values: np.ndarray) -> float:
    """``(v0 + v1) + v2 + ...``: one rounding per addition, left to
    right — the last entry of the running sum.  ``sum`` rounded exactly
    so before CPython 3.12; since then it compensates, and ``np.sum``
    adds pairwise, either of which moves a total's last bits."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


def _diurnal_arrivals(
    rng: np.random.Generator, n: int, span: float
) -> np.ndarray:
    """Arrival times with mild diurnal intensity and noise, sorted."""
    hours = max(1, int(span / 3600.0))
    hour_starts = np.arange(hours) * 3600.0
    tod = (hour_starts % DAY) / DAY
    intensity = 1.0 + 0.3 * np.sin(2 * math.pi * (tod - 0.25))
    intensity *= rng.lognormal(0.0, 0.35, size=hours)
    probs = intensity / intensity.sum()
    counts = rng.multinomial(n, probs)
    times = np.concatenate(
        [
            start + rng.random(count) * 3600.0
            for start, count in zip(hour_starts, counts)
            if count > 0
        ]
    )
    times = np.clip(times, 0.0, span - 1.0)
    times.sort()
    return times


def generate_workload(config: TraceConfig = TraceConfig()) -> Workload:
    """Generate a seeded synthetic trace per ``config``.

    The routine first draws job shapes and durations, then rescales all
    durations by a single factor so the offered load matches
    ``config.target_load`` exactly — the property the scheduling results
    are sensitive to.

    Calibration works on per-job columns, in draw order (ordinary jobs,
    then elastic ones), and each ``JobSpec`` is built once, at the end,
    in permuted order.  The trace is exactly the one a spec-at-a-time
    calibration gives, which holds only while these rules do:

    * the RNG calls keep their arguments and their order;
    * a job's work is ``duration * max_workers * gpus_per_worker``
      evaluated left to right, as ``JobSpec.total_work`` does (numpy's
      element-wise product rounds the same);
    * every total is :func:`_left_sum`, a left-to-right sum over the
      jobs in draw order — not ``np.sum`` (pairwise), ``math.fsum`` nor
      ``sum``, which CPython 3.12 made compensated;
    * a calibrated duration is ``min(cap, max(60.0, d * load_factor))``.

    ``tests/test_traces.py`` pins the output of five configurations,
    the paper-shaped trace among them.
    """
    rng = np.random.default_rng(config.seed)
    n = config.num_jobs
    span = config.days * DAY
    num_elastic = int(round(n * config.elastic_job_fraction))
    num_regular = n - num_elastic

    # --- ordinary jobs -------------------------------------------------
    gpus = rng.choice(_REGULAR_GPUS, size=num_regular, p=_REGULAR_PROBS)
    # Median ~25 minutes, heavy tail to days.  The tail is clipped
    # relative to the span so a handful of giants cannot dominate a
    # short trace the way they could not dominate the 15-day original.
    regular_cap = min(3 * DAY, span / 4.0)
    durations = np.clip(
        rng.lognormal(math.log(1500.0), 1.7, num_regular), 120, regular_cap
    )
    # Worker containers use at most 2 GPUs (the paper's testbed
    # containers are 2-GPU, Fig. 3); multi-GPU jobs run more workers.
    # Small containers are also what lets fungible jobs re-shard onto
    # 16 GB inference GPUs (§2.1).
    gpus_per_worker = np.where(gpus == 1, 1, 2)
    max_workers = np.maximum(1, gpus // gpus_per_worker)
    min_workers = max_workers
    families = ["generic"] * num_regular

    # --- elastic jobs ---------------------------------------------------
    # Large, long jobs from the four well-scaling families; base demand
    # r workers, scaling range up to 2r (the paper's Ideal-scenario rule,
    # reused as the default limited-elasticity range).
    elastic_cap = min(5 * DAY, span / 2.0)
    if num_elastic:
        picked = rng.choice(len(ELASTIC_FAMILIES), size=num_elastic)
        base_workers = rng.choice([2, 4, 8, 12, 16], size=num_elastic,
                                  p=[0.30, 0.30, 0.20, 0.10, 0.10])
        elastic_durations = np.clip(
            rng.lognormal(
                math.log(config.elastic_mean_hours * 3600.0) - 0.5 * 0.8**2,
                0.8,
                num_elastic,
            ),
            1800,
            elastic_cap,
        )
        # ``duration`` is the minimum running time at max demand 2r;
        # at base demand r the job runs twice as long (linear).
        durations = np.concatenate([durations, elastic_durations / 2.0])
        max_workers = np.concatenate([max_workers, 2 * base_workers])
        min_workers = np.concatenate([min_workers, base_workers])
        gpus_per_worker = np.concatenate([
            gpus_per_worker,
            [ELASTIC_FAMILIES[f].gpus_per_worker for f in picked.tolist()],
        ])
        families += [ELASTIC_FAMILIES[f].name for f in picked.tolist()]
    elastic = np.arange(n) >= num_regular

    def _work() -> np.ndarray:
        return durations * max_workers * gpus_per_worker

    # --- calibrate the elastic resource share ---------------------------
    work = _work()
    total = _left_sum(work)
    elastic_work = _left_sum(work[num_regular:])
    if 0 < elastic_work < total and 0 < config.elastic_resource_share < 1:
        share = config.elastic_resource_share
        # Scale elastic durations so elastic_work / total == share.
        factor = share / (1 - share) * (total - elastic_work) / elastic_work
        durations[num_regular:] *= factor

    # --- calibrate offered load -----------------------------------------
    # Scale-then-clip, iterated: clipping giants back under the span-
    # relative caps changes the total, so a couple of rounds are needed
    # to land near the target load without re-growing monster jobs.
    caps = np.where(elastic, elastic_cap, regular_cap)
    for _ in range(3):
        total = _left_sum(_work())
        load_factor = config.target_load * config.cluster_gpus * span / total
        durations = np.minimum(caps, np.maximum(60.0, durations * load_factor))

    # --- arrivals and fungibility ---------------------------------------
    arrivals = _diurnal_arrivals(rng, n, span)
    order = rng.permutation(n)

    # Fungibility is drawn uniformly over all jobs: that makes the
    # fungible share of the *job count* and of the *load* both match the
    # configured fraction in expectation, as the paper reports (21 % of
    # jobs in §2.1 and 21 % of training load in §7.1).
    want_fungible = int(round(config.fungible_fraction * n))
    fungible_ids = set(
        rng.choice(n, size=want_fungible, replace=False).tolist()
    )

    columns = zip(
        arrivals.tolist(), durations[order].tolist(), max_workers[order].tolist(),
        min_workers[order].tolist(), gpus_per_worker[order].tolist(),
        elastic[order].tolist(), [families[i] for i in order.tolist()],
    )
    specs = [
        JobSpec(job_id=idx, submit_time=submit, duration=duration,
                max_workers=most, min_workers=least, gpus_per_worker=gpw,
                elastic=is_elastic, fungible=idx in fungible_ids,
                model_family=family)
        for idx, (submit, duration, most, least, gpw, is_elastic, family)
        in enumerate(columns)
    ]
    return Workload(specs=specs, config=config)
