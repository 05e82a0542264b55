"""Typed activity log for simulations.

The paper calibrates its simulator against the testbed by comparing "the
timestamp and decision of each activity (e.g. job launching, start and end
of training, scheduling decision)" (§7.2).  We keep the same audit trail:
every simulation appends :class:`Activity` records that tests and the
golden-log suite replay and diff.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional


class EventKind(enum.Enum):
    """Every activity kind a simulation can log."""

    SUBMIT = "submit"
    START = "start"
    FINISH = "finish"
    PREEMPT = "preempt"
    SCALE_OUT = "scale_out"
    SCALE_IN = "scale_in"
    LOAN = "loan"
    RECLAIM = "reclaim"
    SCHEDULE_EPOCH = "schedule_epoch"


@dataclass(frozen=True)
class Activity:
    """One timestamped simulator activity.

    Attributes:
        time: Simulation timestamp in seconds.
        kind: What happened.
        job_id: Affected job, when applicable.
        detail: Free-form payload (server ids, worker deltas, counts).
    """

    time: float
    kind: EventKind
    job_id: Optional[int] = None
    detail: Any = None
