"""Composable fault injection and resilience for the Lyra simulator.

The package splits chaos into three layers:

* :mod:`repro.faults.plan` — declarative, seeded :class:`FaultPlan`
  specs (Python, YAML or JSON) describing *what* to inject;
* :mod:`repro.faults.injector` — the runtime that schedules a plan's
  events into a live simulation, paired with the recovery policies in
  :mod:`repro.faults.recovery` and the continuous invariant audit in
  :mod:`repro.faults.audit`;
* :mod:`repro.faults.metrics` — the resilience snapshot (goodput, lost
  GPU-hours by cause, time-to-recover) a chaos run reports.

Fault-free simulations never import this package: ``Simulation.run``
loads it lazily, only when a non-empty plan is configured.
"""

from repro.faults.audit import (
    InvariantViolation,
    audit_simulation,
    verify_scheduler_invariants,
)
from repro.faults.injector import FaultInjector
from repro.faults.metrics import resilience_snapshot
from repro.faults.plan import (
    BUILTIN_PLANS,
    FaultPlan,
    FlashCrowd,
    LaunchFailures,
    NodeFailureProcess,
    NodeOutage,
    PredictorBias,
    PredictorOutage,
    Straggler,
    resolve_plan,
)
from repro.faults.recovery import DegradedLoaning, RetryPolicy

__all__ = [
    "BUILTIN_PLANS",
    "DegradedLoaning",
    "FaultInjector",
    "FaultPlan",
    "FlashCrowd",
    "InvariantViolation",
    "LaunchFailures",
    "NodeFailureProcess",
    "NodeOutage",
    "PredictorBias",
    "PredictorOutage",
    "RetryPolicy",
    "Straggler",
    "audit_simulation",
    "resilience_snapshot",
    "resolve_plan",
    "verify_scheduler_invariants",
]
