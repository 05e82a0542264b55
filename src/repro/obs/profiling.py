"""Wall-clock profiling hooks for the scheduler hot paths.

A :class:`PhaseProfiler` hands out context managers that accumulate
wall-clock time per named phase (scheduler tick, MCKP DP solve, reclaim
planning, placement bin-packing).  Like the tracer, it is built to cost
nothing when disabled: ``phase()`` then returns a shared no-op context
manager, so instrumented code needs no conditionals.

When a tracer is bound via :meth:`PhaseProfiler.bind`, every phase
additionally becomes a **span**: entering a phase pushes a fresh
deterministic span id onto a stack, and exiting emits an ``obs.span``
trace event (category ``span``) carrying the span id, its parent span
id, the phase name, the simulated time at entry, and the wall-clock
duration.  Span ids are sequential per run, so seeded runs produce
identical span *structure* — only the ``dur_ms`` field is wall-clock.
Plans link back to the span that produced them through
``EpochPlan.span_id``, captured from the phase context manager.
"""

from __future__ import annotations

import time
from typing import Dict, List, NamedTuple, Optional

from repro.obs.tracer import CAT_SPAN, SPAN_EVENT, Tracer


class PhaseStat(NamedTuple):
    """Aggregated wall-clock numbers for one phase."""

    name: str
    calls: int
    total_s: float
    mean_ms: float
    max_ms: float


class _NullPhase:
    """Shared do-nothing context manager for disabled profilers."""

    __slots__ = ()

    #: Matches :class:`_Phase`'s attribute so plan builders can read
    #: ``cm.span_id`` unconditionally.
    span_id = None

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_PHASE = _NullPhase()


class _Phase:
    __slots__ = ("_profiler", "_name", "_start", "_ts", "_parent", "span_id")

    def __init__(self, profiler: "PhaseProfiler", name: str):
        self._profiler = profiler
        self._name = name
        self.span_id: Optional[int] = None
        self._parent: Optional[int] = None

    def __enter__(self) -> "_Phase":
        prof = self._profiler
        if prof.tracer is not None:
            prof._span_seq += 1
            self.span_id = prof._span_seq
            self._parent = prof._stack[-1] if prof._stack else None
            prof._stack.append(self.span_id)
            self._ts = prof.clock.now
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._start
        prof = self._profiler
        prof._record(self._name, elapsed)
        if self.span_id is not None:
            prof._stack.pop()
            prof.tracer.emit(
                SPAN_EVENT,
                ts=self._ts,
                cat=CAT_SPAN,
                span=self._name,
                span_id=self.span_id,
                parent_id=self._parent,
                dur_ms=round(elapsed * 1e3, 6),
            )


class PhaseProfiler:
    """Accumulates per-phase wall-clock totals (and spans when bound)."""

    __slots__ = (
        "enabled", "totals", "counts", "maxima",
        "tracer", "clock", "_stack", "_span_seq",
    )

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.totals: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.maxima: Dict[str, float] = {}
        #: Span sink; ``None`` keeps phases span-free (pure timing).
        self.tracer: Optional[Tracer] = None
        #: Whoever keeps the *simulated* time (anything with a ``now``:
        #: the engine, a driver) — an object, not a closure over one, so
        #: a snapshot carries the binding.
        self.clock = None
        self._stack: List[int] = []
        self._span_seq = 0

    @classmethod
    def disabled(cls) -> "PhaseProfiler":
        return cls(enabled=False)

    def bind(self, tracer: Tracer, clock) -> None:
        """Promote phases to spans emitted into ``tracer``, stamped
        with ``clock.now``.

        No-op when either side is disabled, preserving the zero-cost
        guarantee of untraced runs.
        """
        if self.enabled and tracer.enabled:
            self.tracer = tracer
            self.clock = clock

    def phase(self, name: str):
        """Context manager timing one occurrence of ``name``."""
        if not self.enabled:
            return _NULL_PHASE
        return _Phase(self, name)

    def _record(self, name: str, elapsed: float) -> None:
        self.totals[name] = self.totals.get(name, 0.0) + elapsed
        self.counts[name] = self.counts.get(name, 0) + 1
        if elapsed > self.maxima.get(name, 0.0):
            self.maxima[name] = elapsed

    # ------------------------------------------------------------------
    def stats(self) -> List[PhaseStat]:
        """Per-phase aggregates, most expensive first."""
        out = []
        for name in sorted(self.totals, key=self.totals.get, reverse=True):
            calls = self.counts[name]
            total = self.totals[name]
            out.append(PhaseStat(
                name=name,
                calls=calls,
                total_s=total,
                mean_ms=1e3 * total / calls,
                max_ms=1e3 * self.maxima[name],
            ))
        return out

    def to_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            s.name: {
                "calls": s.calls, "total_s": s.total_s,
                "mean_ms": s.mean_ms, "max_ms": s.max_ms,
            }
            for s in self.stats()
        }

    def render_table(self) -> str:
        """The per-phase time breakdown as an aligned text table."""
        rows = self.stats()
        header = (f"{'phase':<28}{'calls':>8}{'total s':>10}"
                  f"{'mean ms':>10}{'max ms':>10}")
        lines = [header, "-" * len(header)]
        if not rows:
            lines.append("(no phases recorded)")
        for s in rows:
            lines.append(
                f"{s.name:<28}{s.calls:>8}{s.total_s:>10.3f}"
                f"{s.mean_ms:>10.3f}{s.max_ms:>10.3f}"
            )
        return "\n".join(lines)


#: A process-wide always-off profiler for unwired code paths.
NULL_PROFILER = PhaseProfiler.disabled()

#: Canonical phase names used by the wired-in hooks.
PHASE_SCHEDULER_TICK = "scheduler.tick"
PHASE_DECIDE = "scheduler.decide"
PHASE_MCKP_SOLVE = "scheduler.mckp_solve"
PHASE_ALLOCATION = "scheduler.allocation"
PHASE_PLACEMENT = "scheduler.placement"
PHASE_RECLAIM_PLAN = "orchestrator.reclaim_plan"
PHASE_ORCH_TICK = "orchestrator.tick"
PHASE_PLAN_VALIDATE = "plan.validate"
PHASE_PLAN_COMMIT = "plan.commit"
