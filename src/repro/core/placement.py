"""Worker placement via best-fit-decreasing bin packing (§5.3).

Given per-job worker counts from the allocator, placement decides which
server hosts each worker.  Goals and rules:

* **Fragmentation**: jobs are packed best-fit in decreasing order of
  per-worker GPU demand (GPUs are the bottleneck resource).
* **Domain preference**: inelastic jobs prefer dedicated training servers;
  elastic jobs prefer on-loan inference servers, so that reclaiming can be
  satisfied by scaling elastic jobs in rather than preempting.
* **Server groups**: an elastic job's base and flexible workers land on
  *separate* groups of on-loan servers (BASE_GROUP / FLEX_GROUP); during
  reclaiming Lyra vacates the flexible group first without preemption.
* **Type homogeneity**: a non-heterogeneous job must keep all its workers
  on one GPU type within a run (fungible jobs may pick either type per
  run); heterogeneous jobs may straddle types, paying a throughput
  penalty, with base demand preferring training and flexible demand
  preferring inference hardware (§6).

The Table 6 ablation — BFD without the elastic-aware preferences — is the
``special_elastic_grouping=False`` configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.cluster.job import Job
from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server
from repro.core.view import ClusterView
from repro.rm.manager import ResourceManager, TransientLaunchError


@dataclass
class PlacementRequest:
    """Workers to place for one job this epoch.

    ``base_workers`` of zero means the job is already running and only
    scale-out flexible workers need placing.
    """

    job: Job
    base_workers: int = 0
    flex_workers: int = 0

    def __post_init__(self) -> None:
        if self.base_workers < 0 or self.flex_workers < 0:
            raise ValueError(f"negative worker counts in {self}")


@dataclass
class PlacementResult:
    """What placement achieved.

    Attributes:
        placed_base: Jobs whose base demand was fully placed.
        failed_base: Jobs whose base demand could not be placed; their
            partial placements were rolled back and they stay queued.
        flex_shortfall: Flexible workers per job that found no server
            (tolerated — flexible demand is best-effort).
    """

    placed_base: List[Job] = field(default_factory=list)
    failed_base: List[Job] = field(default_factory=list)
    flex_shortfall: Dict[int, int] = field(default_factory=dict)


class PlacementEngine:
    """Best-fit-decreasing placement over a training cluster's view,
    executed through its resource manager."""

    def __init__(
        self,
        view: ClusterView,
        rm: ResourceManager,
        special_elastic_grouping: bool = True,
        opportunistic: bool = False,
        region_of=None,
    ):
        #: the scheduling view candidates are ranked from
        self.view = view
        self.cluster = view.cluster
        self.special_elastic_grouping = special_elastic_grouping
        #: row-6 Opportunistic Scheduling (§7.1): fungible jobs are queued
        #: to the inference cluster only, never to training servers.
        self.opportunistic = opportunistic
        #: the one writer of placement: every worker is launched (and a
        #: failed base demand released) through it, and its unhealthy
        #: nodes are avoided
        self.rm = rm
        #: optional locality oracle (multi-cluster markets): maps a
        #: server to the region its capacity currently serves; a job then
        #: prefers to grow in the region hosting most of its workers,
        #: among equally-packed candidates
        self.region_of = region_of

    # ------------------------------------------------------------------
    # candidate ordering
    # ------------------------------------------------------------------
    def _gpu_type_lock(self, job: Job) -> Optional[str]:
        """GPU type this job is pinned to by its existing workers."""
        if job.spec.heterogeneous:
            return None
        for server_id in job.servers:
            if server_id in self.cluster:
                return self.cluster.get(server_id).gpu_type.name
        return None

    def _domain_eligible(self, job: Job, on_loan: bool) -> bool:
        """Eligibility is a *domain* property: it depends only on whether
        the server is on loan, never on the individual machine — which is
        what lets the view mask a whole domain at once."""
        if self.opportunistic and job.spec.fungible:
            return on_loan
        if not on_loan:
            return True
        # On-loan (inference-type) servers take only fungible or
        # heterogeneous jobs.
        return job.spec.fungible or job.spec.heterogeneous

    @staticmethod
    def worker_cost(job: Job, server: Server) -> int:
        """Physical GPUs one worker of ``job`` occupies on ``server``.

        Implements the §5.2 capacity normalization: on weaker GPUs the
        worker count is raised (smaller local batches at constant global
        batch, §2.1), so a nominal demand of ``g`` training GPUs costs
        ``ceil(g / relative_compute)`` physical GPUs here while running
        at undiminished speed.
        """
        return math.ceil(
            job.spec.gpus_per_worker / server.gpu_type.relative_compute
        )

    def _region_workers(self, job: Job) -> Dict[str, int]:
        """This job's workers per region, over its servers in the cluster."""
        counts: Dict[str, int] = {}
        for placement in (job.base_placement, job.flex_placement):
            for server_id, workers in placement.items():
                if server_id not in self.cluster:
                    continue
                region = self.region_of(self.cluster.get(server_id))
                if region is None:
                    continue
                counts[region] = counts.get(region, 0) + workers
        return counts

    @staticmethod
    def _plurality(counts: Dict[str, int]) -> Optional[str]:
        """The region hosting the plurality of a job's workers.

        Ties break to the lexicographically smaller region name so the
        answer — and therefore placement — is deterministic.  ``None``
        (no placed workers, or no region information) disables the
        locality rank for this job: any region is as good as any other
        for its first worker.
        """
        if not counts:
            return None
        return min(counts, key=lambda r: (-counts[r], r))

    # ------------------------------------------------------------------
    # placement of one worker batch
    # ------------------------------------------------------------------
    def _place_workers(self, job: Job, workers: int, flexible: bool) -> int:
        """Place up to ``workers`` workers; returns how many were placed.

        Each round asks the view for the single best candidate, places
        as many workers there as fit, then re-ranks.  A server whose
        launch failed transiently is excluded for the rest of the round
        and the next-best candidate tried — the ranking key is a total
        order, so this visits the servers a sorted list walk would, in
        the same order, without building or sorting a list per round.

        The type lock and the job's region are derived once and then
        carried forward: a launch is the only thing here that moves
        them — the first placed worker type-locks a non-heterogeneous
        job, and each launch adds its workers to one region's tally.

        A base demand whose first pick cannot hold the whole gang is
        first checked against the gang's room (:meth:`_refuse_short_gang`);
        a short gang is refused before anything is launched.
        """
        view = self.view
        train_ok = self._domain_eligible(job, False)
        loan_ok = self._domain_eligible(job, True)
        unhealthy = self.rm.unhealthy_ids()
        lock = self._gpu_type_lock(job)
        regions = (
            self._region_workers(job) if self.region_of is not None else {}
        )
        job_region = self._plurality(regions)
        # a gang may be refused up front only while its walk is a pure
        # function of the books: nothing placed yet, no launch gate
        refusable = (
            not flexible
            and self.rm.launch_gate is None
            and not job.base_placement
            and not job.flex_placement
        )
        remaining = workers
        while remaining > 0:
            placed_this_round = 0
            failed_ids: Optional[set] = None
            while True:
                server = view.select_best(
                    job.spec.gpus_per_worker,
                    train_ok,
                    loan_ok,
                    lock,
                    flexible,
                    job.spec.heterogeneous,
                    job.elastic,
                    self.special_elastic_grouping,
                    unhealthy_ids=unhealthy,
                    exclude_ids=failed_ids,
                    job_region=job_region,
                    region_of=self.region_of,
                )
                if server is None:
                    break
                cost = self.worker_cost(job, server)
                fit = min(remaining, server.free_gpus // cost)
                if refusable:
                    refusable = False
                    if fit < remaining and self._refuse_short_gang(
                        job, server, remaining, train_ok, loan_ok, unhealthy
                    ):
                        return 0
                try:
                    self.rm.launch(job, server, fit, cost, flexible=flexible)
                except TransientLaunchError:
                    # retries exhausted here; books untouched — try
                    # the next-best candidate
                    if failed_ids is None:
                        failed_ids = set()
                    failed_ids.add(server.server_id)
                    continue
                if (
                    self.special_elastic_grouping
                    and server.on_loan
                    and server.group is None
                    and job.elastic
                    and not job.spec.heterogeneous
                ):
                    if self.rm.journal is not None:
                        # group assignment is outside the RM's books; give
                        # the plan journal its pre-image for rollback
                        self.rm.journal.record_group(server)
                    server.group = FLEX_GROUP if flexible else BASE_GROUP
                    view.note_group_change(server)
                remaining -= fit
                placed_this_round += fit
                if lock is None and not job.spec.heterogeneous:
                    lock = server.gpu_type.name
                if self.region_of is not None:
                    region = self.region_of(server)
                    if region is not None:
                        regions[region] = regions.get(region, 0) + fit
                        job_region = self._plurality(regions)
                break  # re-rank (ask for a fresh best) after a placement
            if placed_this_round == 0:
                break
        return workers - remaining

    def _refuse_short_gang(
        self,
        job: Job,
        first: Server,
        workers: int,
        train_ok: bool,
        loan_ok: bool,
        unhealthy: Set[str],
    ) -> bool:
        """Refuse a gang its candidates cannot hold, launching nothing.

        Called with the first pick of a base demand that holds no
        workers, when no launch gate is set and the pick cannot take the
        whole gang.  The refusal is exact — it decides what the walk
        decides and leaves the state the walk plus ``release_job``
        leaves:

        * Without a gate no launch fails, and each round puts
          ``min(remaining, free // cost)`` workers on the best
          candidate; a candidate that did not take the rest cannot host
          one more worker after its launch.  A short gang's walk
          therefore visits every candidate exactly once and places
          their whole room: the ranking decides only the order.
        * The candidates are fixed by the first pick: it sets the type
          lock (none for a heterogeneous job), and a job with no
          workers has no region, so that pick has no region tie-break.
          Group tags and later region tie-breaks move only the order.
        * So the walk fails exactly when the room — ``free // cost``
          summed over the eligible, healthy slots of the first pick's
          type with ``free >= cost`` — is below ``workers``.  What it
          leaves behind is its ``BASE_GROUP`` tags on the on-loan,
          ungrouped candidates (elastic, non-heterogeneous jobs under
          special grouping), which the release does not undo, and a
          moved view version.  Both are set here; the tags are
          journaled like the walk's.

        With a launch gate (fault plans) every launch draws the plan's
        RNG, so the walk runs unchanged; the caller checks that.
        """
        view = self.view
        lock = None if job.spec.heterogeneous else first.gpu_type.name
        query = (job.spec.gpus_per_worker, train_ok, loan_ok, lock, unhealthy)
        if view.gang_fits(workers, *query):
            return False
        if (
            self.special_elastic_grouping
            and job.elastic
            and not job.spec.heterogeneous
        ):
            journal = self.rm.journal
            for server in view.ungrouped_loans(*query):
                if journal is not None:
                    journal.record_group(server)
                server.group = BASE_GROUP
                view.note_group_change(server)
        view.bump()
        return True

    def _needs_mixed(
        self, request: PlacementRequest, capacity: Dict[int, int]
    ) -> bool:
        """Whether this job's workers can only fit by spanning GPU types.

        ``capacity`` memoizes the larger domain's whole-worker capacity
        per GPUs-per-worker for one :meth:`place` call; the view does not
        change while the requests are being ordered.
        """
        job = request.job
        if not job.spec.heterogeneous:
            return False
        gpus = job.spec.gpus_per_worker
        largest = capacity.get(gpus)
        if largest is None:
            largest = capacity[gpus] = max(
                self.view.domain_capacity(on_loan, gpus)
                for on_loan in (False, True)
            )
        return largest < request.base_workers + request.flex_workers

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def place(self, requests: Sequence[PlacementRequest]) -> PlacementResult:
        """Place all requests, largest per-worker demand first (BFD)."""
        result = PlacementResult()
        ordered = sorted(
            requests,
            key=lambda r: (-r.job.spec.gpus_per_worker, r.job.job_id),
        )
        # Jobs that will actually straddle GPU types (their demand fits
        # neither domain alone) go last, with the lowest priority on the
        # remaining servers (§6).  Heterogeneous-*capable* jobs that fit
        # a single domain are placed like everyone else.
        capacity: Dict[int, int] = {}
        ordered.sort(key=lambda r: self._needs_mixed(r, capacity))
        for request in ordered:
            job = request.job
            if request.base_workers > 0:
                placed = self._place_workers(
                    job, request.base_workers, flexible=False
                )
                if placed < request.base_workers:
                    # a failed base demand keeps nothing (gang semantics);
                    # a refused one launched nothing to release
                    if job.base_placement or job.flex_placement:
                        self.rm.release_job(job)
                    result.failed_base.append(job)
                    continue
                result.placed_base.append(job)
            if request.flex_workers > 0:
                placed = self._place_workers(
                    job, request.flex_workers, flexible=True
                )
                if placed < request.flex_workers:
                    result.flex_shortfall[job.job_id] = (
                        request.flex_workers - placed
                    )
        return result
