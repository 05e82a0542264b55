"""Process-crash injection: kill a run at a chosen recovery barrier.

The other fault families perturb the *simulated* cluster; this one kills
the simulator itself.  A :class:`CrashInjector` is armed with a schedule
of :class:`CrashPoint`\\ s and wired into the two places a real process
dies in interesting ways:

* the checkpointed run loop, *between* engine events
  (``between_events``);
* the plan-commit path, either right after the WAL append made the plan
  durable but before anything else happened (``post_wal``) or after the
  first action of a plan has already mutated state (``mid_epoch``).

Firing raises :class:`SimulatedCrash` — a ``BaseException`` so no
library code accidentally swallows it.  In-process harnesses (tests,
``repro run --faults`` with a plan that carries kills) catch it, discard
the dead simulation, and recover from the checkpoint directory; a
``run --crash-at`` kill terminates the process so CI can kill and
recover across real process boundaries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: The recovery-barrier taxonomy, in increasing order of nastiness.
BARRIER_BETWEEN_EVENTS = "between_events"
BARRIER_MID_EPOCH = "mid_epoch"
BARRIER_POST_WAL = "post_wal"
BARRIERS = (BARRIER_BETWEEN_EVENTS, BARRIER_MID_EPOCH, BARRIER_POST_WAL)


class SimulatedCrash(BaseException):
    """The injected process death.

    Deliberately not an :class:`Exception`: nothing between the kill
    point and the harness should be able to catch and survive it, just
    as nothing survives ``SIGKILL``.
    """

    def __init__(self, barrier: str, at: float):
        super().__init__(f"simulated crash at t={at:.0f} ({barrier})")
        self.barrier = barrier
        self.at = at


@dataclass(frozen=True)
class CrashPoint:
    """Kill the process at the first ``barrier`` occurrence at/after
    simulated time ``at``."""

    at: float
    barrier: str = BARRIER_BETWEEN_EVENTS

    def __post_init__(self) -> None:
        if self.barrier not in BARRIERS:
            raise ValueError(
                f"unknown crash barrier {self.barrier!r}; use {BARRIERS}"
            )
        if self.at < 0:
            raise ValueError(f"crash time must be >= 0, got {self.at}")

    def to_dict(self) -> dict:
        return {"at": self.at, "barrier": self.barrier}

    @classmethod
    def from_dict(cls, record: dict) -> "CrashPoint":
        return cls(
            at=float(record["at"]),
            barrier=str(record.get("barrier", BARRIER_BETWEEN_EVENTS)),
        )


def seeded_crash_schedule(
    seed: int,
    count: int = 3,
    horizon: float = 86400.0,
    barriers: Sequence[str] = BARRIERS,
) -> Tuple[CrashPoint, ...]:
    """A reproducible randomized kill schedule (the ``process-crash``
    chaos family): ``count`` kill points with times uniform over the
    horizon and barriers cycled through the requested classes by a
    dedicated seeded stream."""
    rng = random.Random(f"{seed}:crash")
    points = [
        CrashPoint(
            at=round(rng.uniform(0.0, horizon), 3),
            barrier=rng.choice(tuple(barriers)),
        )
        for _ in range(count)
    ]
    points.sort(key=lambda p: (p.at, p.barrier))
    return tuple(points)


class CrashInjector:
    """Arms a crash schedule against a running simulation.

    One injector serves one *process lifetime*: each firing consumes its
    crash point, so after recovery the harness re-arms a fresh injector
    with the surviving suffix of the schedule (a real crashed process
    does not remember which kill it already performed — the schedule
    does, via :meth:`remaining`).
    """

    def __init__(self, schedule: Sequence[CrashPoint]):
        self._schedule: List[CrashPoint] = sorted(
            schedule, key=lambda p: (p.at, p.barrier)
        )
        self.fired: List[CrashPoint] = []

    def remaining(self) -> Tuple[CrashPoint, ...]:
        """Crash points not yet fired (the re-arm schedule)."""
        return tuple(self._schedule)

    def maybe_fire(self, barrier: str, now: float) -> None:
        """Raise :class:`SimulatedCrash` if a kill is due at this barrier."""
        for i, point in enumerate(self._schedule):
            if point.barrier == barrier and now >= point.at:
                del self._schedule[i]
                self.fired.append(point)
                raise SimulatedCrash(barrier, now)
            if point.at > now:
                break
