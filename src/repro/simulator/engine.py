"""Discrete-event simulation engine.

A minimal event loop: timers are armed at absolute simulated times and
fired in (time, insertion) order.  Everything else — jobs, clusters,
schedulers — lives above this layer.

The engine holds data, not code.  An armed timer is its *tag*: a small,
JSON/pickle-friendly tuple (``("completion", job_id, epoch)``,
``("heartbeat",)``, ...) that the engine hands, when due, to the one
``dispatch`` function its owner supplied — the same function in a live
run and in one restored from a snapshot.  The heap is therefore plain
``(when, seq, tag)`` triples and pickles as it is.  Ad-hoc harnesses may
still arm a bare callable, which fires as itself — it simply makes the
engine unsnapshotable.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple, Union

#: What a timer holds: a serializable tag, or an ad-hoc harness callable.
Event = Union[tuple, Callable[[], None]]


class UnsnapshotableEvent(RuntimeError):
    """The heap holds a bare callable, so it cannot be serialized."""


class Engine:
    """A priority-queue driven simulation clock."""

    def __init__(
        self,
        start_time: float = 0.0,
        dispatch: Optional[Callable[[tuple], None]] = None,
    ):
        #: fires a due tag; a bound method of whoever arms tags, so it
        #: pickles by reference with its owner
        self.dispatch = dispatch
        self.now = start_time
        self._heap: List[Tuple[float, int, Event]] = []
        self._next_seq = 0
        self._stopped = False

    def schedule(self, when: float, event: Event) -> None:
        """Fire ``event`` at absolute time ``when`` (>= now)."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule in the past: {when} < now {self.now}"
            )
        seq = self._next_seq
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (when, seq, event))

    def schedule_after(self, delay: float, event: Event) -> None:
        """Fire ``event`` ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self.schedule(self.now + delay, event)

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def peek_next_time(self) -> Optional[float]:
        """Absolute time of the earliest scheduled event, or None.

        Lets periodic wake-ups (the simulator heartbeat) skip ahead past
        known-idle stretches instead of firing on every grid point.
        """
        return self._heap[0][0] if self._heap else None

    def stop(self) -> None:
        """Abort the run loop after the current event returns."""
        self._stopped = True

    def run(
        self,
        until: Optional[float] = None,
        between: Optional[Callable[[], None]] = None,
    ) -> float:
        """Process events until the heap drains or ``until`` is reached.

        Returns the final simulation time.  Events scheduled exactly at
        ``until`` are still executed.  ``between`` — the recovery
        layer's checkpoint and crash barrier — is called once before
        every event and once after the last, with the clock still at
        the last event fired; it never changes which events run or in
        what (time, seq) order.
        """
        self._stopped = False
        heap, dispatch = self._heap, self.dispatch
        while True:
            if between is not None:
                between()
            if not heap or self._stopped:
                break
            when = heap[0][0]
            if until is not None and when > until:
                break
            self.now = when
            event = heapq.heappop(heap)[2]
            if callable(event):
                event()
            else:
                dispatch(event)
        if until is not None and self.now < until:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # serialization: the heap is already data
    # ------------------------------------------------------------------
    def snapshot_events(self) -> List[Tuple[float, int, tuple]]:
        """The heap as ``(when, seq, tag)`` triples, heap-order sorted.

        Raises :class:`UnsnapshotableEvent` if any event is a callable.
        """
        for when, seq, event in self._heap:
            if callable(event):
                raise UnsnapshotableEvent(
                    f"event at t={when} (seq {seq}) is a bare callable; "
                    f"only tags can be serialized"
                )
        return sorted(self._heap)

    def __getstate__(self) -> dict:
        return {
            "dispatch": self.dispatch,
            "now": self.now,
            "next_seq": self._next_seq,
            "stopped": self._stopped,
            "events": self.snapshot_events(),
        }

    def __setstate__(self, state: dict) -> None:
        self.dispatch = state["dispatch"]
        self.now = state["now"]
        self._next_seq = state["next_seq"]
        self._stopped = state["stopped"]
        self._heap = state["events"]  # sorted, hence a valid heap
