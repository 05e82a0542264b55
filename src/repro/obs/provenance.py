"""Decision provenance: why a plan was made, attached to the plan.

Every committed :class:`~repro.core.actions.EpochPlan` can carry a
:class:`Provenance` record answering the question a flat event stream
cannot: *what caused this decision epoch, and what did the policy see
when it decided?*  The record has three parts:

* **triggers** — the events that scheduled the epoch (job arrival,
  completion, preemption, fault injection, loan/reclaim, predictor
  forecast crossing, or the plain orchestrator interval), collected by
  the simulation between epochs and consumed by the next plan;
* **inputs** — the decision-relevant state the policy saw, noted by the
  policy itself (e.g. Lyra's MCKP admitted/value, the orchestrator's
  supply/target/current server counts);
* **pricing** — the dry-run price of the plan (preemptions, lost
  GPU-hours, servers moved), stamped by the executor at commit.

The executor emits the whole record as a single ``plan.provenance``
trace event (category ``plan``) right after the plan commits, with a
``plan_id`` shared with the ``scheduler.plan`` event and a ``span_id``
linking back to the ``obs.span`` that produced the plan.  Everything is
built only when the tracer is enabled — untraced runs never allocate a
:class:`Provenance` or a trigger dict.

JSON schema of the emitted event's ``args``::

    {
      "plan_id": 23,                  # 1-based commit ordinal
      "policy": "orchestrator:lyra",
      "span_id": 412,                 # obs.span id of the deciding phase
      "triggers": [                   # what scheduled this epoch
        {"kind": "arrival", "ts": 40100.0, "job_id": 17},
        {"kind": "fault", "ts": 40200.0, "fault": "flash_crowd"}
      ],
      "inputs": {"supply": 5, "target": 5, "current": 7},
      "pricing": {"preemptions": 1, "lost_gpu_hours": 1.2, ...},
      "actions": [                    # compact per-action digest
        {"kind": "preempt", "job_id": 9, "cause": "reclaim"},
        {"kind": "reclaim_servers", "servers": ["infer-0002"]}
      ]
    }
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: Event name of the per-plan provenance record in traces.
PROVENANCE_EVENT = "plan.provenance"

#: Trigger kinds the simulation records (the vocabulary `repro why`
#: narrates).  Kept as constants so the timeline reader and the
#: simulation cannot drift apart.
TRIGGER_ARRIVAL = "arrival"
TRIGGER_COMPLETION = "completion"
TRIGGER_PREEMPT = "preempt"
TRIGGER_LOAN = "loan"
TRIGGER_RECLAIM = "reclaim"
TRIGGER_NODE_FAILURE = "node_failure"
TRIGGER_NODE_RECOVERY = "node_recovery"
TRIGGER_FAULT = "fault"
TRIGGER_INTERVAL = "orchestrator_interval"
TRIGGER_FORECAST = "predictor_forecast"
TRIGGER_HEARTBEAT = "heartbeat"

#: Triggers kept per epoch before coalescing into a ``dropped`` count;
#: bounds the payload under pathological epochs (mass node failure).
MAX_TRIGGERS = 32


@dataclass(frozen=True)
class Trigger:
    """One event that caused (or contributed to) a scheduling epoch."""

    kind: str
    ts: float
    detail: Tuple[Tuple[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "ts": self.ts}
        out.update(self.detail)
        return out


@dataclass
class Provenance:
    """The causal record one committed plan carries."""

    policy: str
    ts: float
    triggers: Tuple[Trigger, ...] = ()
    inputs: Dict[str, Any] = field(default_factory=dict)
    span_id: Optional[int] = None
    dropped_triggers: int = 0

    def to_payload(self) -> Dict[str, Any]:
        """The ``args`` payload of the ``plan.provenance`` event
        (minus the executor-stamped ``plan_id``/``pricing``)."""
        out: Dict[str, Any] = {
            "policy": self.policy,
            "triggers": [t.to_dict() for t in self.triggers],
        }
        if self.inputs:
            out["inputs"] = self.inputs
        if self.span_id is not None:
            out["span_id"] = self.span_id
        if self.dropped_triggers:
            out["dropped_triggers"] = self.dropped_triggers
        return out


def action_digest(action: Any) -> Dict[str, Any]:
    """A compact, JSON-stable digest of one plan action.

    Keeps just enough to tie a lifecycle transition back to the plan
    that caused it: the action kind, the affected job, the servers
    moved, and the preemption cause.
    """
    out: Dict[str, Any] = {"kind": action.kind}
    job_id = getattr(action, "job_id", None)
    if job_id is not None:
        out["job_id"] = job_id
    server_ids = getattr(action, "server_ids", None)
    if server_ids:
        out["servers"] = list(server_ids)
    cause = getattr(action, "cause", None)
    if cause is not None:
        out["cause"] = cause
    preempted = getattr(action, "preempted", None)
    if preempted:
        out["preempted"] = list(preempted)
    workers = getattr(action, "workers", None)
    if workers is not None:
        out["workers"] = workers
    return out
