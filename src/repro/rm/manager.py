"""A YARN-style resource manager for the training cluster.

Lyra "runs on top of a cluster resource manager such as YARN and
Kubernetes to execute its decisions" (§3): launching and tearing down
workers, moving servers across cluster boundaries through the whitelist
API (§6), and monitoring server/worker status.  This module is that
execution layer, and the only writer of placement:

* a worker is a count on two books — ``Server.allocations[job] = gpus``
  and the ``Job``'s ``{server: workers}`` placement maps.  Every
  scheduling decision reads one or the other; :meth:`launch`,
  :meth:`scale_in`, :meth:`release_job` and :meth:`fail_node` edit both
  together, and :meth:`verify_books` asserts they agree, server by
  server and job by job, and that each side's occupancy counters
  (``Server.used_gpus``, the ``Job`` worker and flexible-GPU counts) equal
  a recount of its book;
* node failures are first-class: :meth:`fail_node` marks a server
  unhealthy, takes its workers off both books, and reports which jobs
  lost base workers (must be rescheduled) versus only flexible workers
  (they shrink and continue) — the hook the simulator's failure
  injection uses;
* an open plan transaction is handed each GPU delta as it lands on a
  server's book; :meth:`rebook` applies one back for its rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.cluster.cluster import ClusterPair
from repro.cluster.job import Job, counters, recount
from repro.cluster.server import Server


class TransientLaunchError(RuntimeError):
    """A worker launch failed transiently and exhausted its retries.

    Raised by the launch gate (fault injection) before any books are
    mutated; the placement engine reacts by trying the next candidate
    server, so the failure costs a placement opportunity, not book
    consistency.
    """


@dataclass
class NodeFailureReport:
    """What a node failure cost.

    Attributes:
        server_id: The failed server.
        jobs_lost_base: Jobs that lost base workers — gang semantics
            mean the whole job must be rescheduled (§6).
        jobs_lost_flex: ``{job_id: workers}`` jobs that only lost
            flexible workers and continue, already shrunk.
    """

    server_id: str
    jobs_lost_base: Set[int] = field(default_factory=set)
    jobs_lost_flex: Dict[int, int] = field(default_factory=dict)


class ResourceManager:
    """Worker lifecycle + whitelist execution over a cluster pair.

    ``jobs`` is the owner's live job table (``{job_id: Job}``, the one
    the scheduling view reads): the manager looks jobs up in it by the
    ids on a server's book and never writes to it.
    """

    #: the owner's check of its derived state, run last by verify_books
    derived_check: Optional[Callable[[], None]] = None

    def __init__(self, pair: ClusterPair, jobs: Dict[int, Job]):
        self.pair = pair
        self.jobs = jobs
        self._unhealthy: Set[str] = set()
        #: fault-injection hook: called after validation but before any
        #: mutation on each launch; may raise :class:`TransientLaunchError`
        self.launch_gate: Optional[Callable[[Job, Server, int], None]] = None
        #: open plan transaction (:class:`repro.core.actions.PlanTransaction`)
        #: journaling book mutations for rollback; None outside an epoch
        #: being planned
        self.journal = None

    def __getstate__(self) -> dict:  # the owner's restore re-attaches it
        return {k: v for k, v in self.__dict__.items() if k != "derived_check"}

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_healthy(self, server_id: str) -> bool:
        return server_id not in self._unhealthy

    def unhealthy_ids(self) -> Set[str]:
        """The unhealthy-server set (read-only; usually empty).

        The view's candidate selection masks these out wholesale
        instead of calling :meth:`is_healthy` per server.
        """
        return self._unhealthy

    def _server(self, server_id: str) -> Optional[Server]:
        for cluster in self.pair.clusters():
            if server_id in cluster:
                return cluster.get(server_id)
        return None

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def launch(
        self,
        job: Job,
        server: Server,
        workers: int,
        gpus_per_worker: int,
        flexible: bool,
    ) -> None:
        """Launch ``workers`` workers of ``job`` on ``server``.

        Reserves the GPUs and records the placement on the job; raises
        ``ValueError`` (and launches nothing) if capacity is missing or
        the node is unhealthy, and :class:`TransientLaunchError` (also
        launching nothing) when the fault-injection launch gate exhausts
        its retries.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not self.is_healthy(server.server_id):
            raise ValueError(f"server {server.server_id!r} is unhealthy")
        total = workers * gpus_per_worker
        if total > server.free_gpus:
            raise ValueError(
                f"server {server.server_id}: need {total} GPUs, "
                f"{server.free_gpus} free"
            )
        if self.launch_gate is not None:
            self.launch_gate(job, server, workers)
        if self.journal is not None:
            self.journal.note_job(job)
        self.rebook(server, job.job_id, total)
        job.record_placement(
            server.server_id,
            workers,
            flexible=flexible,
            gpu_cost=gpus_per_worker,
            on_loan=server.on_loan,
        )

    def rebook(self, server: Server, job_id: int, gpus: int) -> None:
        """Move one server's book by a signed GPU delta for ``job_id``.

        The server-side half of every mutation above, journaled when a
        plan transaction is open; the transaction's rollback calls it
        with each delta negated (after detaching, so undoing is not
        itself journaled).  Never the launch gate: a fault plan's RNG
        behind it is not drawn a second time.
        """
        if gpus > 0:
            server.allocate(job_id, gpus)
        else:
            server.release(job_id, -gpus)
        if self.journal is not None:
            self.journal.record_book(server, job_id, gpus)

    def _stop(self, job: Job, server_id: str, workers: int) -> None:
        """Take ``workers`` of ``job`` off ``server_id``'s book (the
        caller edits the job's side, *after*: the cost is read here)."""
        self.rebook(
            self._server(server_id),
            job.job_id,
            -workers * job.gpu_cost_on(server_id),
        )

    def release_job(self, job: Job) -> int:
        """Tear down every worker of a job (completion/preemption)."""
        if self.journal is not None:
            self.journal.note_job(job)
        released = 0
        for placement in (job.base_placement, job.flex_placement):
            for server_id, workers in placement.items():
                self._stop(job, server_id, workers)
                released += workers
        job.clear_placement()
        return released

    def scale_in(self, job: Job, server_id: str, workers: int) -> int:
        """Release up to ``workers`` flexible workers on one server."""
        if self.journal is not None:
            self.journal.note_job(job)
        have = job.flex_placement.get(server_id, 0)
        take = min(workers, have)
        if take < 1:
            return 0
        self._stop(job, server_id, take)
        return job.remove_flex_on(server_id, take)

    # ------------------------------------------------------------------
    # whitelist API (§6)
    # ------------------------------------------------------------------
    def loan_eligible(self, server: Server) -> bool:
        """The one loan-eligibility predicate, shared by plan and commit.

        :meth:`peek_loanable` picks the ids a plan names and
        :meth:`~repro.cluster.cluster.ClusterPair.loan_ids` moves exactly
        those at commit, so this is the only place eligibility is decided.
        Today: never loan a server that is known-unhealthy (e.g. it
        failed while on loan and was routed back before its repair
        finished).
        """
        return self.is_healthy(server.server_id)

    def peek_loanable(
        self,
        count: int,
        lender: Optional[str] = None,
        exclude: Optional[set] = None,
    ) -> List[str]:
        """Up to ``count`` server ids a loan would move right now.

        Pure read used when *planning* a loan: the commit later moves
        exactly these ids via
        :meth:`~repro.cluster.cluster.ClusterPair.loan_ids`, so the plan is
        deterministic (insertion-ordered idle inference servers,
        eligible only).
        ``lender`` restricts the scan to servers homed in one member
        cluster; ``exclude`` skips ids already claimed by an earlier
        action of the same plan (the orchestrator may plan several loans
        per interval against one unchanged whitelist snapshot).
        """
        ids: List[str] = []
        for server in self.pair.loanable_servers():
            if len(ids) >= count:
                break
            if lender is not None and server.home_cluster != lender:
                continue
            if exclude is not None and server.server_id in exclude:
                continue
            if self.loan_eligible(server):
                ids.append(server.server_id)
        return ids

    def return_server(self, server_id: str, now: float = 0.0) -> Server:
        server = self.pair.training.get(server_id)
        if server.allocations:
            raise RuntimeError(
                f"server {server_id!r} still books GPUs for jobs "
                f"{sorted(server.allocations)}; the scheduler must confirm "
                f"it is vacated before whitelist removal (§6)"
            )
        return self.pair.return_server(server_id, now=now)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_node(self, server_id: str) -> NodeFailureReport:
        """A server dies: its workers leave both books, the node is
        unhealthy until :meth:`recover_node`.

        The caller banks the losers' progress first (a job's throughput
        is read off its placement) and reschedules every job in
        ``jobs_lost_base`` — gang semantics; what such a job also lost
        in flexible workers is subsumed by that.
        """
        report = NodeFailureReport(server_id=server_id)
        server = self._server(server_id)
        for job_id in list(server.allocations):
            job = self.jobs[job_id]
            if server_id in job.base_placement:
                report.jobs_lost_base.add(job_id)
            else:
                report.jobs_lost_flex[job_id] = job.flex_placement[server_id]
            server.release(job_id)
            job.remove_placement(server_id)
        self._unhealthy.add(server_id)
        return report

    def recover_node(self, server_id: str) -> None:
        self._unhealthy.discard(server_id)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify_books(self) -> None:
        """Assert the two placement books agree — every server's GPU
        book against the job table, and every job's placement against
        the servers — and that loans conserve servers: each server is in
        exactly one whitelist, and the open contracts are exactly the
        on-loan servers, lender by lender.

        Raises ``RuntimeError`` on the first divergence; cheap enough to
        run inside tests after every mutation batch.
        """
        booked: Dict[str, Dict[int, int]] = {}
        for cluster in self.pair.clusters():
            for server in cluster.servers:
                server_id = server.server_id
                if server_id in booked:
                    raise RuntimeError(
                        f"server {server_id} is in two whitelists "
                        f"(again in {cluster.name!r})"
                    )
                booked[server_id] = server.allocations
                if server.used_gpus != sum(server.allocations.values()):
                    raise RuntimeError(
                        f"server {server_id} counts {server.used_gpus} GPUs in "
                        f"use, its book sums to "
                        f"{sum(server.allocations.values())}"
                    )
                for job_id, gpus in server.allocations.items():
                    job = self.jobs.get(job_id)
                    placed = job.gpus_on(server_id) if job is not None else 0
                    if placed != gpus:
                        raise RuntimeError(
                            f"book mismatch on {server_id} job {job_id}: "
                            f"the job's placement says {placed}, the "
                            f"server says {gpus}"
                        )
        for job in self.jobs.values():
            for placement in (job.base_placement, job.flex_placement):
                for server_id in placement:
                    if job.job_id not in booked.get(server_id, ()):
                        raise RuntimeError(
                            f"book mismatch on {server_id} job "
                            f"{job.job_id}: the job places "
                            f"{job.workers_on(server_id)} workers there, "
                            f"the server books nothing for it"
                        )
            if counters(job) != recount(job):
                raise RuntimeError(
                    f"job {job.job_id} counts (base, flex, flex training "
                    f"GPUs, flex on-loan GPUs) {counters(job)}, its "
                    f"placement gives {recount(job)}"
                )
        contracts = self.pair.contracts
        on_loan = {s.server_id: s for s in self.pair.training.on_loan_servers}
        if contracts.keys() != on_loan.keys():
            raise RuntimeError(
                f"contracts without a loan: "
                f"{sorted(contracts.keys() - on_loan.keys())}; loans "
                f"without a contract: "
                f"{sorted(on_loan.keys() - contracts.keys())}"
            )
        for server_id, server in on_loan.items():
            lender = contracts[server_id].lender
            if lender != server.home_cluster:
                raise RuntimeError(
                    f"contract for {server_id} names lender {lender!r}, "
                    f"the server is homed in {server.home_cluster!r}"
                )
        if self.derived_check is not None:
            self.derived_check()
