"""Decision provenance: why a plan was made, and at what cost.

A committed :class:`~repro.core.actions.EpochPlan` has one record, the
``plan.provenance`` trace event (category ``plan``), answering the
question a flat event stream cannot: *what caused this decision epoch,
what did the policy see when it decided, and what did it cost?*  Its
payload is the plan in the write-ahead journal's format
(:meth:`~repro.core.actions.EpochPlan.to_dict`: ``now``, ``policy``,
``by_kind`` and every action in full) plus:

* **plan_id** — the plan's 1-based commit ordinal, the key the plan WAL
  journals it under;
* **pricing** — the price of the plan (preemptions, lost GPU-hours,
  servers moved), stamped by the executor at commit;
* **triggers** — the events that scheduled the epoch (job arrival,
  completion, preemption, fault injection, loan/reclaim, or the plain
  orchestrator interval), collected by the kernel between epochs and
  set on the plan it builds next;
* **inputs** — the decision-relevant state the policy saw, noted by the
  policy itself (e.g. Lyra's MCKP admitted/value, the orchestrator's
  supply/target/current server counts), when there is any;
* **span_id** — the ``obs.span`` of the phase that produced the plan
  (the policy's ``scheduler.decide``, the orchestrator's
  ``orchestrator.tick``), in any traced run, simulated or served;
* **dropped_triggers** — triggers beyond :data:`MAX_TRIGGERS`, when
  there were any.

The executor emits the record right after the plan commits, and only
when the tracer is enabled: an untraced run builds no trigger dict and
serializes no plan for the ledger.  ``repro run --explain`` traces in
memory and prints these records.

JSON schema of the emitted event's ``args``::

    {
      "now": 40200.0,
      "policy": "orchestrator:lyra",
      "by_kind": {"preempt": 1, "reclaim_servers": 1},
      "actions": [                    # EpochPlan.to_dict() records
        {"kind": "preempt", "job_id": 9, "cause": "reclaim"},
        {"kind": "reclaim_servers", "server_ids": ["infer-0002"],
         "demand": 1, "preempted": [9], "costs": [["infer-0002", 2.25]],
         ...}
      ],
      "plan_id": 23,                  # 1-based commit ordinal
      "pricing": {"preemptions": 1, "lost_gpu_hours": 1.2, ...},
      "triggers": [                   # what scheduled this epoch
        {"kind": "orchestrator_interval", "ts": 40200.0,
         "interval_s": 300.0}
      ],
      "inputs": {"supply": 5, "target": 5, "current": 7, ...},
      "span_id": 412                  # obs.span id of the deciding phase
    }
"""

from __future__ import annotations

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
TRIGGER_HEARTBEAT = "heartbeat"

#: Triggers kept per epoch before coalescing into a ``dropped`` count;
#: bounds the payload under pathological epochs (mass node failure).
MAX_TRIGGERS = 32
