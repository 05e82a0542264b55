"""Simulation metrics: the quantities every table and figure reports.

Queuing time is the delay between submission and the first dispatch (§2.1);
JCT is submission to completion; GPU usage is tracked both for the training
whitelist (whose size changes under loaning) and for the combined clusters;
preemption ratio is total preemptions over total submissions (Table 5
note 2); collateral damage is the fraction of GPUs vacated in excess of the
reclaiming demand (§7.3).

:class:`SimulationMetrics` is a reporting facade over a
:class:`~repro.obs.metrics.MetricsRegistry`: scalar counts live in
registry counters and the per-op samples in registry histograms, so any
component holding the registry can record without new fields being
plumbed through.  Its attributes (``metrics.preemptions += 1``,
``metrics.loan_ops.append(...)``) are properties over those instruments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, ValuesView

import numpy as np

from repro.cluster.job import Job
from repro.obs.metrics import MetricsRegistry, percentile


@dataclass
class DistributionSummary:
    """Mean/median/percentiles of a sample, as the tables report them."""

    mean: float
    median: float
    p75: float
    p95: float
    p99: float
    count: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistributionSummary":
        if not values:
            nan = math.nan
            return cls(nan, nan, nan, nan, nan, 0)
        sample = [float(v) for v in values]
        return cls(
            mean=float(np.mean(sample)),
            median=percentile(sample, 50),
            p75=percentile(sample, 75),
            p95=percentile(sample, 95),
            p99=percentile(sample, 99),
            count=len(sample),
        )


@dataclass
class TimeSeries:
    """A sampled time series (5-minute cadence by default)."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    @classmethod
    def from_samples(
        cls, values: Sequence[float], interval: float, start: float = 0.0
    ) -> "TimeSeries":
        """Wrap evenly spaced samples (e.g. a raw utilization array)."""
        times = [start + i * interval for i in range(len(values))]
        return cls(times=times, values=[float(v) for v in values])

    def append(self, time: float, value: float) -> None:
        self.times.append(time)
        self.values.append(value)

    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else math.nan

    # ------------------------------------------------------------------
    # bucketing (Figs. 2, 7 and 9 aggregate by hour or day)
    # ------------------------------------------------------------------
    def buckets(self, width: float = 3600.0) -> Dict[int, List[float]]:
        """Samples grouped by ``int(t // width)``, insertion-ordered
        within each bucket."""
        out: Dict[int, List[float]] = {}
        for t, v in zip(self.times, self.values):
            out.setdefault(int(t // width), []).append(v)
        return out

    def bucket_means(self, width: float = 3600.0) -> List[float]:
        buckets = self.buckets(width)
        return [float(np.mean(buckets[h])) for h in sorted(buckets)]

    def bucket_max(self, width: float = 3600.0) -> List[float]:
        buckets = self.buckets(width)
        return [float(np.max(buckets[h])) for h in sorted(buckets)]

    def hourly_means(self) -> List[float]:
        """Average per simulated hour (for Figs. 2 and 7)."""
        return self.bucket_means(3600.0)

    def hourly_max(self) -> List[float]:
        """Maximum per simulated hour (peak-tracking curves)."""
        return self.bucket_max(3600.0)


def _counter_property(metric_name: str):
    def getter(self: "SimulationMetrics") -> int:
        return self.registry.counter(metric_name).value

    def setter(self: "SimulationMetrics", value: int) -> None:
        self.registry.counter(metric_name).set(value)

    return property(getter, setter)


def _histogram_property(metric_name: str):
    def getter(self: "SimulationMetrics") -> List[float]:
        # The raw observation list: append() keeps the histogram and the
        # legacy list attribute in sync because it *is* the histogram.
        return self.registry.histogram(metric_name).observations

    def setter(self: "SimulationMetrics", values: Sequence[float]) -> None:
        obs = self.registry.histogram(metric_name).observations
        obs[:] = list(values)

    return property(getter, setter)


class SimulationMetrics:
    """Everything a finished simulation exposes for reporting.

    Attribute surface:

    * ``jobs`` — the job table it was handed, in insertion order (the
      population all distributions cover)
    * ``submissions`` / ``preemptions`` / ``scale_ops`` /
      ``node_failures`` — scalar counts (registry counters)
    * ``loan_ops`` / ``reclaim_ops`` — per-op server counts
    * ``collateral`` / ``flex_satisfied`` — per-reclaim fractions (§7.3)
    * ``training_usage`` / ``overall_usage`` / ``onloan_usage`` /
      ``onloan_busy`` — sampled usage time series
    * ``hourly_queuing_ratio`` — Fig. 2's per-hour queued fraction
    """

    #: scalar counts, stored as registry counters
    submissions = _counter_property("sim.submissions")
    preemptions = _counter_property("sim.preemptions")
    scale_ops = _counter_property("sim.scale_ops")
    node_failures = _counter_property("sim.node_failures")
    #: per-op samples, stored as registry histograms
    loan_ops = _histogram_property("orchestrator.loan_servers")
    reclaim_ops = _histogram_property("orchestrator.reclaim_servers")
    collateral = _histogram_property("orchestrator.collateral")
    flex_satisfied = _histogram_property("orchestrator.flex_satisfied")

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        jobs: Optional[Dict[int, Job]] = None,
    ):
        # constructed bare, the facade self-hosts a private registry
        self.registry = registry if registry is not None else MetricsRegistry()
        #: the owner's live ``{job_id: Job}`` table, read and never copied
        self._job_table: Dict[int, Job] = jobs if jobs is not None else {}
        # registers the four counters, so a run that never bumps one
        # still reports it as 0
        self.submissions = 0
        self.preemptions = 0
        self.scale_ops = 0
        self.node_failures = 0
        self.training_usage = TimeSeries()
        self.overall_usage = TimeSeries()
        self.onloan_usage = TimeSeries()
        self.onloan_busy = TimeSeries()
        self.hourly_queuing_ratio: List[float] = []

    @property
    def jobs(self) -> ValuesView[Job]:
        return self._job_table.values()

    def __repr__(self) -> str:
        return (
            f"SimulationMetrics(jobs={len(self.jobs)}, "
            f"submissions={self.submissions}, "
            f"preemptions={self.preemptions}, "
            f"scale_ops={self.scale_ops}, "
            f"loan_ops={len(self.loan_ops)}, "
            f"reclaim_ops={len(self.reclaim_ops)})"
        )

    # ------------------------------------------------------------------
    # distributions
    # ------------------------------------------------------------------
    def _finished(self) -> List[Job]:
        return [j for j in self.jobs if j.jct is not None]

    def queuing_times(self, queued_only: bool = False) -> List[float]:
        values = [
            j.queuing_time for j in self.jobs if j.queuing_time is not None
        ]
        if queued_only:
            values = [v for v in values if v > 0]
        return values

    def jcts(self) -> List[float]:
        return [j.jct for j in self._finished()]

    def queuing_summary(self) -> DistributionSummary:
        return DistributionSummary.from_values(self.queuing_times())

    def jct_summary(self) -> DistributionSummary:
        return DistributionSummary.from_values(self.jcts())

    def onloan_job_ids(self, min_fraction: float = 0.5) -> List[int]:
        """Jobs that did at least ``min_fraction`` of their work on loan."""
        out = []
        for job in self._finished():
            if job.spec.total_work <= 0:
                continue
            if job.onloan_work / job.spec.total_work >= min_fraction:
                out.append(job.job_id)
        return out

    def summary_for(self, job_ids: Iterable[int]) -> Dict[str, DistributionSummary]:
        wanted = set(job_ids)
        members = [j for j in self._finished() if j.job_id in wanted]
        return {
            "queuing": DistributionSummary.from_values(
                [j.queuing_time for j in members if j.queuing_time is not None]
            ),
            "jct": DistributionSummary.from_values([j.jct for j in members]),
        }

    # ------------------------------------------------------------------
    # scalars
    # ------------------------------------------------------------------
    @property
    def preemption_ratio(self) -> float:
        return self.preemptions / self.submissions if self.submissions else 0.0

    def mean_collateral(self) -> float:
        return float(np.mean(self.collateral)) if self.collateral else 0.0

    def mean_flex_satisfied(self) -> float:
        return float(np.mean(self.flex_satisfied)) if self.flex_satisfied else 0.0

    def completion_ratio(self) -> float:
        return len(self._finished()) / len(self.jobs) if self.jobs else 0.0


def reduction(baseline: float, ours: float) -> float:
    """The paper's improvement metric: baseline duration / Lyra duration;
    ``nan`` when neither waits (an idle cluster shows no reduction),
    ``inf`` when only the baseline does."""
    if ours <= 0:
        return math.nan if baseline <= 0 else math.inf
    return baseline / ours


def ratio_text(value: float, unit: str = "") -> str:
    """A reduction to two places, or ``n/a`` when it is undefined."""
    return "n/a" if math.isnan(value) else f"{value:.2f}{unit}"
