"""Full-run state capture and restore.

The simulation object graph is pickled *whole* — jobs, clusters, loans,
view, executor, metrics, activities, fault-injector RNG streams, and
the engine heap, which is plain ``(when, seq, tag)`` data fired through
the kernel's ``dispatch`` (see :mod:`repro.simulator.engine`) — so
every cross-reference survives by construction.  Two things cannot be
pickled and are handled explicitly:

* closure-valued hooks (fault launch gate, predictor fault wrappers,
  the profiler's clock) → stripped before pickling and re-installed by
  :func:`restore_payload` / :meth:`FaultInjector.rewire`, reading their
  restored RNG streams so draws continue exactly;
* the module-level container-id counter → captured by value.

Capture happens only *between* engine events, when no plan transaction
is open — asserted, not assumed.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict

from repro.recovery.codec import PICKLE_PROTOCOL, SnapshotError
from repro.rm.containers import container_id_state, set_container_id_state
from repro.simulator.simulation import Simulation

#: payload schema keys, documented in docs/ROBUSTNESS.md
PAYLOAD_KEYS = ("sim", "container_seq")


def capture_payload(sim, **stamp) -> bytes:
    """Pickle a quiescent kernel into codec-ready payload bytes.

    The bytes are the ``{"sim", "container_seq", **stamp}`` dict,
    serialized once (``stamp``: the daemon's request sequence).  The
    live kernel is left exactly as it was: stripped hooks are re-attached
    (closure hooks are pure functions of plan + RNG state, so re-created
    ones behave identically) before returning.
    """
    if sim.rm.journal is not None:
        raise SnapshotError(
            "cannot snapshot with an open plan transaction; snapshots "
            "happen between engine events only"
        )
    if sim.executor.in_flight:
        raise SnapshotError("cannot snapshot mid plan-commit")
    injector = sim.fault_injector
    if injector is None and sim.rm.launch_gate is not None:
        raise SnapshotError(
            "a custom launch_gate closure is installed; only fault-plan "
            "launch gates can be serialized (they are re-derived from the "
            "plan on restore)"
        )

    saved = []

    def detach(obj, attr, value=None):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    # durable-state machinery never snapshots itself
    detach(sim, "recovery")
    detach(sim.executor, "wal")
    detach(sim.executor, "crash_probe")
    # live event feeds (the serving daemon's subscriber fan-out) are
    # process-local closures, re-attached by the daemon on restore
    detach(sim, "activity_sink")
    # the profiler clock is a closure over the engine; re-bound on restore
    detach(sim.obs.phases, "clock")
    # conformance probes are harness-side observers, not run state
    if getattr(sim.policy, "conformance_probe", None) is not None:
        detach(sim.policy, "conformance_probe")
    if injector is not None:
        injector.strip_for_snapshot()
    try:
        # the bytes are detached from the live objects by construction
        # (the caller may keep mutating the kernel)
        return pickle.dumps(
            {"sim": sim, "container_seq": container_id_state(), **stamp},
            protocol=PICKLE_PROTOCOL,
        )
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)
        if injector is not None:
            injector.rewire()


def restore_payload(payload: Dict[str, Any]):
    """Bring a decoded payload back to life; returns the kernel.

    Rewires everything :func:`capture_payload` stripped — the profiler
    clock, the fault injector's closure hooks — then the timers, by
    driver: a :class:`Simulation`'s engine heap came back as it was, so
    it is only handed the kernel's ``dispatch`` and checked (a heap
    naming a timer nobody handles is refused here, not when it fires);
    a wall-clock kernel's timers died with the old process, so its
    pending tick is cleared and the daemon re-arms completions.  The
    caller re-attaches the durable-state machinery before resuming.
    """
    for key in PAYLOAD_KEYS:
        if key not in payload:
            raise SnapshotError(f"snapshot payload missing {key!r}")
    kernel = payload["sim"]
    set_container_id_state(payload["container_seq"])
    phases = kernel.obs.phases
    if phases.tracer is not None:
        phases.clock = lambda: kernel.now
    if kernel.fault_injector is not None:
        kernel.fault_injector.rewire()
    if isinstance(kernel, Simulation):
        for _when, _seq, tag in kernel.engine.snapshot_events():
            if not kernel.handles(tag):
                raise SnapshotError(f"unknown event tag {tag!r}")
        kernel.engine.dispatch = kernel.dispatch
    else:
        kernel._tick_pending = False
    return kernel
