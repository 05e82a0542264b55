"""Continuous invariant audit run after every injected fault event.

Faults are exactly the moments bookkeeping bugs surface — a server dies
mid-reclaim, a straggler window closes on a job that was just scaled in.
:func:`audit_simulation` re-checks the resource-manager ledger
(:meth:`ResourceManager.verify_books`) plus scheduler-level invariants
after each fault lands, so a divergence is caught at the event that
caused it rather than thousands of simulated seconds later.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.job import JobStatus

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


class InvariantViolation(RuntimeError):
    """A scheduler/ledger invariant failed during a fault audit."""


def verify_scheduler_invariants(sim: "Simulation") -> None:
    """Cross-check the simulation's job and whitelist state.

    Raises :class:`InvariantViolation` on the first inconsistency.
    """
    if sim.executor.in_flight:
        raise InvariantViolation(
            "audit ran inside a PlanExecutor commit; plans must apply "
            "atomically between audits")
    if sim.rm.journal is not None:
        raise InvariantViolation(
            "audit ran with a plan transaction still open on the RM; "
            "policies must seal or abort before control returns")

    running_ids = set(sim.running)
    pending_ids = {job.job_id for job in sim.pending}
    overlap = running_ids & pending_ids
    if overlap:
        raise InvariantViolation(
            f"jobs both running and pending: {sorted(overlap)}")

    for job in sim.running.values():
        if job.status is not JobStatus.RUNNING:
            raise InvariantViolation(
                f"job {job.job_id} in running set with status "
                f"{job.status.value}")
        if job.total_workers < job.spec.min_workers:
            raise InvariantViolation(
                f"running job {job.job_id} holds {job.total_workers} "
                f"workers < base demand {job.spec.min_workers}")
        for server_id in job.servers:
            if server_id not in sim.pair.training:
                raise InvariantViolation(
                    f"running job {job.job_id} placed on {server_id!r}, "
                    f"which is not in the training whitelist")

    for job in sim.pending:
        if job.status is not JobStatus.PENDING:
            raise InvariantViolation(
                f"job {job.job_id} in queue with status {job.status.value}")
        if job.servers:
            raise InvariantViolation(
                f"pending job {job.job_id} still holds placement on "
                f"{sorted(job.servers)}")

    for server in sim.pair.training.servers:
        if server.used_gpus > server.num_gpus:
            raise InvariantViolation(
                f"server {server.server_id} oversubscribed: "
                f"{server.used_gpus}/{server.num_gpus}")
    for server in sim.pair.inference.servers:
        if server.on_loan:
            raise InvariantViolation(
                f"server {server.server_id} marked on-loan inside the "
                f"inference whitelist")
        if server.allocations:
            raise InvariantViolation(
                f"inference server {server.server_id} holds training "
                f"allocations {sorted(server.allocations)}")


def audit_simulation(sim: "Simulation", cause: str) -> None:
    """One full audit pass: RM books plus scheduler invariants.

    Records the pass in the ``resilience.audits`` counter (labelled by
    the fault family that triggered it) so chaos runs prove the audit
    actually executed.
    """
    sim.rm.verify_books()
    verify_scheduler_invariants(sim)
    sim.metrics.registry.counter("resilience.audits", cause=cause).inc()
