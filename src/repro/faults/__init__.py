"""Composable fault injection and resilience for the Lyra simulator.

The package splits chaos into three layers:

* :mod:`repro.faults.plan` — declarative, seeded
  :class:`~repro.faults.plan.FaultPlan` specs (Python, YAML or JSON)
  describing *what* to inject;
* :mod:`repro.faults.injector` — the runtime that schedules a plan's
  events into a live simulation, paired with the recovery policies in
  :mod:`repro.faults.recovery` and the continuous invariant audit in
  :mod:`repro.faults.audit`;
* :mod:`repro.faults.metrics` — the resilience snapshot (goodput, lost
  GPU-hours by cause, time-to-recover) a chaos run reports.

Fault-free simulations never import this package: ``Simulation.run``
loads it lazily, only when a non-empty plan is configured.
"""
