"""Metrics registry: counters, gauges and histograms with labels.

Components record into a shared :class:`MetricsRegistry` instead of
plumbing new fields through result dataclasses —
:class:`~repro.simulator.metrics.SimulationMetrics` is a reporting
facade over one of these.  The design follows the Prometheus client
model (a metric family keyed by name, instruments keyed by label set)
scaled down to a single-process simulator: histograms keep their raw
observations, which is cheap at simulation scale and lets reports
compute exact percentiles.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def percentile(values: Sequence[float], pct: float) -> float:
    """The shared percentile: linear interpolation on the sorted sample.

    This is the one percentile definition every reporting surface uses
    (registry histograms, ``DistributionSummary``, the Table 8 bench) —
    equivalent to ``numpy.percentile(..., method="linear")``.

    Edge cases are explicit: an empty sample returns NaN, a single
    sample returns that sample for every ``pct``, ``pct=0``/``pct=100``
    return the exact min/max, and an out-of-range or NaN ``pct``
    raises :class:`ValueError` instead of silently indexing wrong.
    """
    if math.isnan(pct) or not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct!r}")
    n = len(values)
    if n == 0:
        return math.nan
    ordered = sorted(values)
    if n == 1:
        return float(ordered[0])
    if pct == 0.0:
        return float(ordered[0])
    if pct == 100.0:
        return float(ordered[-1])
    rank = (pct / 100.0) * (n - 1)
    lo = int(math.floor(rank))
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * frac)


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count (resettable via :meth:`set`)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount

    def set(self, value: int) -> None:
        """Direct assignment, for facades that expose counters as
        plain attributes (e.g. ``metrics.preemptions = 5`` in tests)."""
        self.value = value


class Gauge:
    """A value that can go up and down (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = math.nan

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value = (0.0 if math.isnan(self.value) else self.value) + amount


class Histogram:
    """A distribution; keeps raw observations for exact summaries.

    The ``observations`` list is the source of truth — callers that
    mutate it directly (the :class:`SimulationMetrics` compatibility
    facade exposes it as a plain list) stay consistent because every
    derived statistic is computed on demand.
    """

    __slots__ = ("observations",)

    def __init__(self) -> None:
        self.observations: List[float] = []

    def observe(self, value: float) -> None:
        self.observations.append(value)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def sum(self) -> float:
        return float(sum(self.observations))

    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def percentile(self, pct: float) -> float:
        return percentile(self.observations, pct)


class MetricsRegistry:
    """Get-or-create store of named, labelled instruments."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter()
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge()
        return inst

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram()
        return inst

    # ------------------------------------------------------------------
    def counter_items(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Counter]]:
        """All counters of one family as ``(labels, instrument)`` pairs,
        sorted by label set (e.g. every ``sim.preemptions_by_cause``)."""
        return [
            (dict(key), counter)
            for (n, key), counter in sorted(self._counters.items())
            if n == name
        ]

    def histogram_items(
        self, name: str
    ) -> List[Tuple[Dict[str, str], Histogram]]:
        """All histograms of one family as ``(labels, instrument)`` pairs."""
        return [
            (dict(key), hist)
            for (n, key), hist in sorted(self._histograms.items())
            if n == name
        ]

    # ------------------------------------------------------------------
    @staticmethod
    def _fullname(name: str, key: LabelKey) -> str:
        if not key:
            return name
        labels = ",".join(f"{k}={v}" for k, v in key)
        return f"{name}{{{labels}}}"

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-friendly dump of every instrument's current state."""
        out: Dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, key), counter in sorted(self._counters.items()):
            out["counters"][self._fullname(name, key)] = counter.value
        for (name, key), gauge in sorted(self._gauges.items()):
            if not math.isnan(gauge.value):
                out["gauges"][self._fullname(name, key)] = gauge.value
        for (name, key), hist in sorted(self._histograms.items()):
            if hist.count:
                out["histograms"][self._fullname(name, key)] = {
                    "count": hist.count,
                    "sum": hist.sum,
                    "mean": hist.mean(),
                    "min": hist.percentile(0),
                    "p25": hist.percentile(25),
                    "p50": hist.percentile(50),
                    "p75": hist.percentile(75),
                    "p95": hist.percentile(95),
                    "p99": hist.percentile(99),
                    "max": hist.percentile(100),
                }
        return out
