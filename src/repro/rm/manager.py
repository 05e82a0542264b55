"""A YARN-style resource manager for the training cluster.

Lyra "runs on top of a cluster resource manager such as YARN and
Kubernetes to execute its decisions" (§3): launching and tearing down
worker containers, moving servers across cluster boundaries through the
whitelist API (§6), and monitoring server/worker status.  This module is
that execution layer:

* every worker the placement engine schedules becomes a tracked
  :class:`~repro.rm.containers.Container`;
* server GPU books are mutated only through container launch/stop, so
  the container ledger and the server ledger can never drift (asserted
  by :meth:`ResourceManager.verify_books`);
* the ledger is *live-only*: a container leaves it the moment it stops
  (release, scale-in, node failure), so nothing here grows with uptime.
  What happened is on record elsewhere: the kernel's Activity log, the
  tracer's events and the plan WAL (docs/ARCHITECTURE.md);
* node failures are first-class: :meth:`fail_node` marks a server
  unhealthy, declares its containers lost, and reports which jobs lost
  base workers (must be rescheduled) versus only flexible workers (a
  scale-in suffices) — the hook the simulator's failure injection uses;
* :meth:`unlaunch` / :meth:`revive` invert a launch / a stop for the
  plan journal's rollback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.cluster.cluster import ClusterPair
from repro.cluster.job import Job
from repro.cluster.server import Server
from repro.rm.containers import Container, ContainerState


class TransientLaunchError(RuntimeError):
    """A container launch failed transiently and exhausted its retries.

    Raised by the launch gate (fault injection) before any books are
    mutated; the placement engine reacts by trying the next candidate
    server, so the failure costs a placement opportunity, not ledger
    consistency.
    """


@dataclass
class NodeFailureReport:
    """What a node failure cost.

    Attributes:
        server_id: The failed server.
        lost_containers: Containers declared lost (already out of the
            ledger; these objects are their only record).
        jobs_lost_base: Jobs that lost base workers — gang semantics
            mean the whole job must be rescheduled (§6).
        jobs_lost_flex: ``{job_id: workers}`` jobs that only lost
            flexible workers and can continue after a scale-in.
    """

    server_id: str
    lost_containers: List[Container] = field(default_factory=list)
    jobs_lost_base: Set[int] = field(default_factory=set)
    jobs_lost_flex: Dict[int, int] = field(default_factory=dict)


class ResourceManager:
    """Container lifecycle + whitelist execution over a cluster pair."""

    def __init__(self, pair: ClusterPair):
        self.pair = pair
        self._containers: Dict[int, Container] = {}
        self._by_job: Dict[int, List[int]] = {}
        self._by_server: Dict[str, List[int]] = {}
        #: the id the next launched container gets
        self._next_container_id = 1
        self._unhealthy: Set[str] = set()
        #: fault-injection hook: called after validation but before any
        #: mutation on each launch; may raise :class:`TransientLaunchError`
        self.launch_gate: Optional[Callable[[Job, Server, int], None]] = None
        #: open plan transaction (:class:`repro.core.actions.PlanTransaction`)
        #: journaling container/book mutations for rollback; None outside
        #: an epoch being planned
        self.journal = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def containers_of(self, job_id: int) -> List[Container]:
        return [self._containers[c] for c in self._by_job.get(job_id, ())]

    def containers_on(self, server_id: str) -> List[Container]:
        return [self._containers[c] for c in self._by_server.get(server_id, ())]

    def running_containers(self) -> List[Container]:
        return list(self._containers.values())

    def is_healthy(self, server_id: str) -> bool:
        return server_id not in self._unhealthy

    def unhealthy_ids(self) -> Set[str]:
        """The unhealthy-server set (read-only; usually empty).

        The view's candidate selection masks these out wholesale
        instead of calling :meth:`is_healthy` per server.
        """
        return self._unhealthy

    # -- the live ledger: the one place that knows the index layout ------
    def _track(self, container: Container) -> None:
        cid = container.container_id
        self._containers[cid] = container
        self._by_job.setdefault(container.job_id, []).append(cid)
        self._by_server.setdefault(container.server_id, []).append(cid)

    def _forget(self, container: Container) -> None:
        cid = container.container_id
        del self._containers[cid]
        for index, key in (
            (self._by_job, container.job_id),
            (self._by_server, container.server_id),
        ):
            ids = index[key]
            ids.remove(cid)
            if not ids:
                del index[key]

    # ------------------------------------------------------------------
    # container lifecycle
    # ------------------------------------------------------------------
    def launch(
        self,
        job: Job,
        server: Server,
        workers: int,
        gpus_per_worker: int,
        flexible: bool,
        now: float = 0.0,
    ) -> List[Container]:
        """Launch one container per worker on ``server``.

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
        server.allocate(job.job_id, total)
        job.record_placement(
            server.server_id,
            workers,
            flexible=flexible,
            gpu_cost=gpus_per_worker,
            on_loan=server.on_loan,
        )
        launched = []
        for _ in range(workers):
            container = Container(
                job_id=job.job_id,
                server_id=server.server_id,
                gpus=gpus_per_worker,
                flexible=flexible,
                start_time=now,
                container_id=self._next_container_id,
            )
            self._next_container_id += 1
            self._track(container)
            launched.append(container)
        if self.journal is not None:
            self.journal.record_launch(job, server, launched)
        return launched

    def _server(self, server_id: str) -> Optional[Server]:
        for cluster in self.pair.clusters():
            if server_id in cluster:
                return cluster.get(server_id)
        return None

    def release_job(self, job: Job, now: float = 0.0) -> int:
        """Tear down every container of a job (completion/preemption)."""
        if self.journal is not None:
            self.journal.note_job(job)
        released = 0
        stopped = []
        for container in self.containers_of(job.job_id):
            container.stop(now)
            self._forget(container)
            server = self._server(container.server_id)
            if server is not None:
                server.release(job.job_id, container.gpus)
            stopped.append((server, container))
            released += 1
        job.clear_placement()
        if stopped and self.journal is not None:
            self.journal.record_stopped(job.job_id, stopped)
        return released

    def scale_in(
        self, job: Job, server_id: str, workers: int, now: float = 0.0
    ) -> int:
        """Release up to ``workers`` flexible containers on one server."""
        if self.journal is not None:
            self.journal.note_job(job)
        stopped = 0
        stopped_pairs = []
        for container in self.containers_on(server_id):
            if stopped >= workers:
                break
            if container.job_id != job.job_id or not container.flexible:
                continue
            container.stop(now)
            self._forget(container)
            server = self._server(server_id)
            if server is not None:
                server.release(job.job_id, container.gpus)
            stopped_pairs.append((server, container))
            stopped += 1
        if stopped:
            have = job.flex_placement.get(server_id, 0)
            take = min(stopped, have)
            if take:
                job.flex_placement[server_id] = have - take
                if job.flex_placement[server_id] == 0:
                    job.remove_flex_on(server_id)
            if self.journal is not None:
                self.journal.record_stopped(job.job_id, stopped_pairs)
        return stopped

    # -- inverses, for the plan journal's rollback (which restores job
    # -- placement itself, from its pre-images) --------------------------
    def unlaunch(self, job: Job, server: Server, containers: List[Container]) -> None:
        """Undo one :meth:`launch` batch: out of the ledger, GPUs un-booked."""
        for container in containers:
            self._forget(container)
        server.release(job.job_id, sum(c.gpus for c in containers))

    def revive(self, job_id: int, stopped: List[tuple]) -> None:
        """Undo one stop batch (the ``(server_or_None, container)`` pairs
        the journal was handed).  Not a :meth:`launch`: the launch gate,
        and a fault plan's RNG behind it, is not drawn a second time."""
        for server, container in stopped:
            container.state = ContainerState.RUNNING
            container.end_time = None
            self._track(container)
            if server is not None:
                server.allocate(job_id, container.gpus)

    # ------------------------------------------------------------------
    # whitelist API (§6)
    # ------------------------------------------------------------------
    def loan_eligible(self, server: Server) -> bool:
        """The one loan-eligibility predicate, shared by plan and commit.

        :meth:`peek_loanable` picks the ids a plan names and
        :meth:`loan_selected` moves exactly those at commit, so this is
        the only place eligibility is decided.
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
        exactly these ids via :meth:`loan_selected`, so the plan is
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

    def loan_selected(
        self, server_ids, now: float = 0.0, borrower: Optional[str] = None
    ) -> List[Server]:
        """Whitelist-move the named idle inference servers to training.

        ``borrower`` names the training region the loan is matched to
        (the contracts open against it, at ``now``).
        """
        return self.pair.loan_ids(server_ids, borrower=borrower, now=now)

    def migrate_job(self, job: Job, source_id: str, target: Server) -> int:
        """Move every worker of ``job`` off ``source_id`` onto ``target``.

        Containers are re-homed (not stopped and relaunched — the
        production mechanic is a checkpoint/restore onto the new server,
        which keeps the container identity for the books).  Returns the
        number of workers moved.
        """
        moved = [
            c for c in self.containers_of(job.job_id)
            if c.server_id == source_id
        ]
        if not moved:
            raise ValueError(
                f"job {job.job_id} has no running containers on {source_id!r}"
            )
        if not self.is_healthy(target.server_id):
            raise ValueError(f"server {target.server_id!r} is unhealthy")
        total = sum(c.gpus for c in moved)
        if total > target.free_gpus:
            raise ValueError(
                f"server {target.server_id}: need {total} GPUs, "
                f"{target.free_gpus} free"
            )
        source = self._server(source_id)
        base = job.base_placement.get(source_id, 0)
        flex = job.flex_placement.get(source_id, 0)
        gpu_cost = job._server_cost.get(source_id, job.spec.gpus_per_worker)
        target.allocate(job.job_id, total)
        if source is not None:
            source.release(job.job_id, total)
        for container in moved:
            self._forget(container)
            container.server_id = target.server_id
            self._track(container)
        job.remove_placement(source_id)
        if base:
            job.record_placement(
                target.server_id, base, flexible=False,
                gpu_cost=gpu_cost, on_loan=target.on_loan,
            )
        if flex:
            job.record_placement(
                target.server_id, flex, flexible=True,
                gpu_cost=gpu_cost, on_loan=target.on_loan,
            )
        return len(moved)

    def return_server(self, server_id: str, now: float = 0.0) -> Server:
        if self.containers_on(server_id):
            raise RuntimeError(
                f"server {server_id!r} still runs containers; the scheduler "
                f"must confirm it is vacated before whitelist removal (§6)"
            )
        return self.pair.return_server(server_id, now=now)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def fail_node(self, server_id: str, now: float = 0.0) -> NodeFailureReport:
        """A server dies: containers are lost, GPUs freed, node marked
        unhealthy until :meth:`recover_node`."""
        report = NodeFailureReport(server_id=server_id)
        server = self._server(server_id)
        for container in self.containers_on(server_id):
            container.stop(now, lost=True)
            self._forget(container)
            report.lost_containers.append(container)
            if container.flexible:
                report.jobs_lost_flex[container.job_id] = (
                    report.jobs_lost_flex.get(container.job_id, 0) + 1
                )
            else:
                report.jobs_lost_base.add(container.job_id)
        if server is not None:
            for job_id in list(server.allocations):
                server.release(job_id)
        # jobs that lost base workers lose everything (gang semantics);
        # their flex losses are subsumed by the full reschedule
        for job_id in report.jobs_lost_base:
            report.jobs_lost_flex.pop(job_id, None)
        self._unhealthy.add(server_id)
        return report

    def recover_node(self, server_id: str) -> None:
        self._unhealthy.discard(server_id)

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def verify_books(self) -> None:
        """Assert the container ledger matches every server's GPU book,
        and that loans conserve servers: each server is in exactly one
        whitelist, and the open contracts are exactly the on-loan
        servers, lender by lender.

        Raises ``RuntimeError`` on the first divergence; cheap enough to
        run inside tests after every mutation batch.
        """
        expected: Dict[Tuple[str, int], int] = {}
        for container in self.running_containers():
            key = (container.server_id, container.job_id)
            expected[key] = expected.get(key, 0) + container.gpus
        seen: Set[str] = set()
        for cluster in self.pair.clusters():
            for server in cluster.servers:
                if server.server_id in seen:
                    raise RuntimeError(
                        f"server {server.server_id} is in two whitelists "
                        f"(again in {cluster.name!r})"
                    )
                seen.add(server.server_id)
                for job_id, gpus in server.allocations.items():
                    booked = expected.pop((server.server_id, job_id), 0)
                    if booked != gpus:
                        raise RuntimeError(
                            f"book mismatch on {server.server_id} job "
                            f"{job_id}: containers say {booked}, server "
                            f"says {gpus}"
                        )
        if expected:
            raise RuntimeError(
                f"containers without server bookings: {sorted(expected)}"
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
