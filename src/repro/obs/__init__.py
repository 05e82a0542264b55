"""Observability: structured tracing and metrics.

The three pillars (§"make the simulator a glass box"):

* :class:`~repro.obs.tracer.Tracer` — typed simulator events with JSONL
  and Chrome ``trace_event`` export;
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  histograms with labels, the substrate under
  :class:`~repro.simulator.metrics.SimulationMetrics`;
* per-phase wall-clock time around the scheduler/orchestrator hot paths,
  which is not in this bundle: the kernel's phase clock
  (:meth:`~repro.core.kernel.SchedulerKernel.phase`) is always on, and
  a traced run also gets each phase as an ``obs.span`` event.

An :class:`Observability` bundles the tracer and the registry; pass one
to :class:`~repro.simulator.simulation.Simulation` (or
:func:`repro.scenarios.run_scheme`) to turn tracing on.  The default
bundle's tracer is off and costs one attribute check per call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@dataclass
class Observability:
    """The tracer + registry bundle a simulation carries."""

    tracer: Tracer = field(default_factory=Tracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)

    @classmethod
    def enabled(cls) -> "Observability":
        return cls()

    @classmethod
    def disabled(cls) -> "Observability":
        """A bundle whose tracer is off.

        The registry stays live — it is the storage layer of
        :class:`~repro.simulator.metrics.SimulationMetrics` and costs
        the same as the plain dataclass fields it replaced.
        """
        return cls(tracer=Tracer.disabled())
