"""Full-run state capture and restore.

A snapshot is the kernel's object graph and nothing else.  The graph is
pickled *whole* and *as it stands* — jobs, clusters, loans, view,
executor, metrics, activities, the fault injector with its RNG streams
and the hooks it installed (bound methods, which pickle by reference to
their owner), the resource manager over the same job table, and the
armed timers, which are plain tag data in both drivers (the engine's
heap, the wall-clock driver's armed set) — so every cross-reference
survives by construction and restoring re-derives nothing.  What
belongs to the process rather than to the run (the recovery manager,
the WAL, crash and conformance probes, the live event feed) is left out
by its owner's ``__getstate__`` and attached again by whoever restores.

Capture happens only *between* engine events, when no plan transaction
is open — asserted, not assumed — and never writes to the kernel it
saves.
"""

from __future__ import annotations

import pickle
import types
from typing import Any, Dict

from repro.recovery.codec import PICKLE_PROTOCOL, SnapshotError
from repro.simulator.simulation import Simulation

#: payload schema keys, documented in docs/ROBUSTNESS.md
PAYLOAD_KEYS = ("sim",)


def capture_payload(sim, **stamp) -> bytes:
    """Pickle a quiescent kernel into codec-ready payload bytes.

    The bytes are the ``{"sim", **stamp}`` dict, serialized once
    (``stamp``: the daemon's request sequence) and detached from the
    live objects by construction: the caller may keep mutating the
    kernel.
    """
    if sim.rm.journal is not None:
        raise SnapshotError(
            "cannot snapshot with an open plan transaction; snapshots "
            "happen between engine events only"
        )
    if sim.executor.in_flight:
        raise SnapshotError("cannot snapshot mid plan-commit")
    try:
        return pickle.dumps({"sim": sim, **stamp}, protocol=PICKLE_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise SnapshotError(
            f"cannot snapshot: {_unpicklable_attribute(sim)} is not "
            f"picklable ({exc}); a hook is a bound method of an object in "
            f"the graph, or its owner's __getstate__ leaves it out"
        ) from exc


def _unpicklable_attribute(kernel) -> str:
    """Dotted path of the first attribute in the pickled graph holding
    a lambda or a closure: pickle's own message names the function, not
    who holds it."""
    seen, todo = {id(kernel)}, [("sim", kernel)]
    for path, obj in todo:  # grows as the walk goes
        # what pickle would save of it (object.__getstate__ is 3.11+)
        state = obj.__getstate__() if hasattr(obj, "__getstate__") else vars(obj)
        for name, value in state.items() if isinstance(state, dict) else ():
            if isinstance(value, types.FunctionType):
                if "<" in value.__qualname__:  # <lambda>, f.<locals>.g
                    return f"{path}.{name}"
            elif (
                hasattr(value, "__dict__")
                and not isinstance(value, type)
                and id(value) not in seen
            ):
                seen.add(id(value))
                todo.append((f"{path}.{name}", value))
    return "the kernel"


def restore_payload(payload: Dict[str, Any]):
    """Check a decoded payload and return its kernel.

    The graph came back wired — hooks, timers, counters — so there is
    nothing to re-derive; what is checked is that every armed timer of
    a :class:`Simulation` names a handler (a heap naming a timer nobody
    handles is refused here, not when it fires).  The caller attaches
    its own durable-state machinery before resuming.
    """
    for key in PAYLOAD_KEYS:
        if key not in payload:
            raise SnapshotError(f"snapshot payload missing {key!r}")
    kernel = payload["sim"]
    if isinstance(kernel, Simulation):
        for _when, _seq, tag in kernel.engine.snapshot_events():
            if not kernel.handles(tag):
                raise SnapshotError(f"unknown event tag {tag!r}")
    return kernel
