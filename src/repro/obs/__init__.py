"""Observability: structured tracing, metrics and profiling hooks.

The three pillars (§"make the simulator a glass box"):

* :class:`~repro.obs.tracer.Tracer` — typed simulator events with JSONL
  and Chrome ``trace_event`` export;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms with labels, the substrate under
  :class:`~repro.simulator.metrics.SimulationMetrics`;
* :class:`~repro.obs.profiling.PhaseProfiler` — wall-clock timers
  around the scheduler/orchestrator hot paths.

An :class:`Observability` bundles all three; pass one to
:class:`~repro.simulator.simulation.Simulation` (or
:func:`repro.scenarios.run_scheme`) to light the instrumentation up.
The default is a shared disabled bundle whose hooks cost one attribute
check per call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.obs.inspect import (
    TraceDiff,
    TraceFormatError,
    TraceSummary,
    diff_traces,
    inspect_trace,
    load_trace,
    render_diff,
    render_summary,
    summarize,
)
from repro.obs.log import configure_logging, get_logger, reset_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)
from repro.obs.profiling import NULL_PROFILER, PhaseProfiler, PhaseStat
from repro.obs.provenance import (
    PROVENANCE_EVENT,
    Provenance,
    Trigger,
)
from repro.obs.report import build_report
from repro.obs.timeline import TimelineStore, render_why
from repro.obs.tracer import (
    CAT_SPAN,
    NULL_TRACER,
    SPAN_EVENT,
    SUMMARY_EVENT,
    TraceEvent,
    Tracer,
    to_chrome,
)


@dataclass
class Observability:
    """The tracer + registry + profiler bundle a simulation carries."""

    tracer: Tracer = field(default_factory=Tracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    phases: PhaseProfiler = field(default_factory=PhaseProfiler)

    @classmethod
    def enabled(cls) -> "Observability":
        return cls()

    @classmethod
    def disabled(cls) -> "Observability":
        """A bundle whose tracer and profiler are off.

        The registry stays live — it is the storage layer of
        :class:`~repro.simulator.metrics.SimulationMetrics` and costs
        the same as the plain dataclass fields it replaced.
        """
        return cls(tracer=Tracer.disabled(), phases=PhaseProfiler.disabled())

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """The aggregate record appended to exported traces."""
        return {
            "phases": self.phases.to_dict(),
            "metrics": self.registry.snapshot(),
        }

    def export_trace(self, path: str, format: str = "jsonl") -> int:
        """Export the trace plus the aggregate summary; returns the
        record count written."""
        return self.tracer.export(path, format=format, summary=self.summary())


__all__ = [
    "CAT_SPAN",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_TRACER",
    "Observability",
    "PROVENANCE_EVENT",
    "PhaseProfiler",
    "PhaseStat",
    "Provenance",
    "SPAN_EVENT",
    "SUMMARY_EVENT",
    "TimelineStore",
    "TraceDiff",
    "TraceEvent",
    "TraceFormatError",
    "TraceSummary",
    "Tracer",
    "Trigger",
    "build_report",
    "configure_logging",
    "diff_traces",
    "get_logger",
    "inspect_trace",
    "load_trace",
    "percentile",
    "render_diff",
    "render_summary",
    "render_why",
    "reset_logging",
    "summarize",
    "to_chrome",
]
