"""Server reclaiming: which on-loan servers to return (§4).

Reclaiming a server preempts every job whose *base* (inelastic) workers run
on it — an expensive event, since jobs without checkpointing lose all
progress.  Selecting the cheapest set of servers is a knapsack problem with
*dependent* item values (preempting a job zeroes its contribution to every
other server it spans), which is NP-hard.  Lyra's heuristic:

1. Vacate servers that host no base workers at all — idle servers and
   servers carrying only elastic *flexible* workers (the FLEX server group
   from placement, §5.3) — by scaling elastic jobs in.  No preemption.
2. Define each remaining server's **preemption cost** as the sum over its
   base-hosting jobs of that job's *server fraction*: ``1 / (number of
   servers hosting the job's base workers)`` (Table 1, third column).
3. Greedily pick the lowest-cost server, preempt its jobs everywhere,
   update costs (tie-breaking on collateral damage), and repeat until
   enough servers are vacated — counting servers that became idle as a
   cascade of the preemptions.

Random and smallest-job-count-first (SCF) baselines and an exhaustive
optimal search (used in §7.3's comparison) live here too.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster.job import Job
from repro.cluster.server import Server


class CostModel(enum.Enum):
    """Server preemption-cost definitions compared in Table 1."""

    JOB_COUNT = "job_count"
    GPU_FRACTION = "gpu_fraction"
    SERVER_FRACTION = "server_fraction"


@dataclass
class ReclaimPlan:
    """Outcome of a reclaim decision.

    Attributes:
        servers: Ids of the servers to return, in selection order.
        preempted_jobs: Ids of jobs that must be fully preempted.
        scaled_in: ``{job_id: {server_id: workers}}`` flexible workers to
            remove without preempting the job.
        collateral_gpus: GPUs vacated on servers *not* being returned, as
            a side effect of preemptions (the §7.3 collateral-damage
            numerator).
    """

    servers: List[str] = field(default_factory=list)
    preempted_jobs: Set[int] = field(default_factory=set)
    scaled_in: Dict[int, Dict[str, int]] = field(default_factory=dict)
    collateral_gpus: int = 0
    #: servers vacated without any preemption (idle or flex-only, §5.3)
    free_servers: int = 0

    @property
    def num_preemptions(self) -> int:
        return len(self.preempted_jobs)


# ----------------------------------------------------------------------
# cost computation
# ----------------------------------------------------------------------
def _base_jobs_on(server: Server, jobs: Mapping[int, Job]) -> List[Job]:
    """Jobs whose base workers occupy ``server`` (these would be preempted)."""
    found = []
    for job_id in server.allocations:
        job = jobs[job_id]
        if server.server_id in job.base_placement:
            found.append(job)
    return found


def job_preemption_cost(
    job: Job,
    server_id: str,
    model: CostModel = CostModel.SERVER_FRACTION,
    base_span: Optional[Set[str]] = None,
    full_span: Optional[Set[str]] = None,
) -> float:
    """Cost contribution of one base-hosting job to vacating ``server_id``.

    The single source of truth for Table 1's three cost definitions,
    shared by the cached :func:`preemption_cost_index` and the greedy
    planner's live loop.  The greedy passes its working ``base_span`` /
    ``full_span`` placement copies so costs track simulated preemptions
    and scale-ins; index callers omit them and get the live placement.
    Historically the two paths computed GPU_FRACTION differently — GPUs
    over ``job.servers`` in the index vs workers over the working span
    in the loop — so the cached index could silently disagree with the
    costs the greedy actually paid; both now route through here (pinned
    equal by tests/test_reclaim.py and the repro.oracle conformance
    checks).
    """
    if model is CostModel.JOB_COUNT:
        return 1.0
    if model is CostModel.GPU_FRACTION:
        span = job.servers if full_span is None else full_span
        total = sum(job.gpus_on(sid) for sid in span)
        return job.gpus_on(server_id) / total if total else 0.0
    span = job.base_placement if base_span is None else base_span
    return 1.0 / max(1, len(span))


def server_preemption_cost(
    server: Server,
    jobs: Mapping[int, Job],
    model: CostModel = CostModel.SERVER_FRACTION,
) -> float:
    """Preemption cost of returning ``server`` under a cost model.

    The SERVER_FRACTION model (Lyra's choice) charges ``1/span`` per
    base-hosting job, so a server fully owning one big job costs 1.0
    while a server hosting slivers of many multi-server jobs costs more —
    matching the worked example of Fig. 5 / Table 1.
    """
    return sum(
        job_preemption_cost(job, server.server_id, model)
        for job in _base_jobs_on(server, jobs)
    )


def preemption_cost_index(
    servers: Sequence[Server],
    jobs: Mapping[int, Job],
    model: CostModel = CostModel.SERVER_FRACTION,
) -> Dict[str, float]:
    """Preemption cost of each server, as one batch.

    The ClusterView caches this index keyed by its delta version, so the
    orchestrator's reclaim tracing reads costs without rescanning job
    placements between capacity changes.

    Batched: the per-job quantities each cost model needs — the base
    span reciprocal (SERVER_FRACTION) or the placement-wide GPU total
    (GPU_FRACTION) — are computed once per job and shared across every
    server the job touches, instead of being rederived per (server, job)
    pair as :func:`server_preemption_cost` does.  The per-server *sum*
    stays a left-to-right scan in allocation order: accumulating through
    a numpy reduction would round differently (pairwise summation) and
    break bit-equality with the scalar path, which tests pin.
    """
    if model is CostModel.GPU_FRACTION:
        shared: Dict[int, float] = {}

        def term(job: Job, server_id: str) -> float:
            total = shared.get(job.job_id)
            if total is None:
                total = sum(job.gpus_on(sid) for sid in job.servers)
                shared[job.job_id] = total
            return job.gpus_on(server_id) / total if total else 0.0

    elif model is CostModel.SERVER_FRACTION:
        shared = {}

        def term(job: Job, server_id: str) -> float:
            value = shared.get(job.job_id)
            if value is None:
                value = 1.0 / max(1, len(job.base_placement))
                shared[job.job_id] = value
            return value

    else:  # JOB_COUNT

        def term(job: Job, server_id: str) -> float:
            return 1.0

    index: Dict[str, float] = {}
    for server in servers:
        sid = server.server_id
        total = 0
        for job_id in server.allocations:
            job = jobs[job_id]
            if sid in job.base_placement:
                total = total + term(job, sid)
        # NB: an empty sum stays the int 0, exactly like the historical
        # ``sum(...)`` — downstream reprs (plan cost details) see the
        # same token stream either way.
        index[sid] = total
    return index


def initial_greedy_costs(
    candidates: Sequence[Server],
    jobs: Mapping[int, Job],
    model: CostModel = CostModel.SERVER_FRACTION,
) -> Dict[str, float]:
    """Per-server cost exactly as the greedy loop's *first* iteration sees it.

    Builds the same working placement copies as :func:`plan_reclaim_lyra`
    and prices every candidate before any simulated preemption.  On a
    consistent cluster this must equal :func:`preemption_cost_index` for
    every cost model — the drift between the two GPU_FRACTION code paths
    was exactly the bug this pin exists to catch (tests/test_reclaim.py
    and the repro.oracle conformance runner both enforce it).
    """
    base_map: Dict[int, Set[str]] = {}
    flex_map: Dict[int, Dict[str, int]] = {}
    for server in candidates:
        for job_id in server.allocations:
            job = jobs[job_id]
            base_map.setdefault(job.job_id, set(job.base_placement))
            flex_map.setdefault(job.job_id, dict(job.flex_placement))
    costs: Dict[str, float] = {}
    for server in candidates:
        sid = server.server_id
        costs[sid] = sum(
            job_preemption_cost(
                jobs[j],
                sid,
                model,
                base_span=base_map[j],
                full_span=base_map[j] | set(flex_map.get(j, {})),
            )
            for j, sids in base_map.items()
            if sid in sids
        )
    return costs


# ----------------------------------------------------------------------
# Lyra's greedy heuristic
# ----------------------------------------------------------------------
def plan_reclaim_lyra(
    candidates: Sequence[Server],
    jobs: Mapping[int, Job],
    count: int,
    cost_model: CostModel = CostModel.SERVER_FRACTION,
    scale_in_first: bool = True,
) -> ReclaimPlan:
    """Choose ``count`` on-loan servers to return, minimizing preemptions.

    Args:
        candidates: On-loan servers eligible for return.
        jobs: All jobs keyed by id (used to resolve placements).
        count: Number of servers the inference scheduler asked back.
        cost_model: Preemption-cost definition (ablation knob).
        scale_in_first: Release flexible-only servers via elastic
            scale-in before resorting to preemption (§5.3 interplay).

    Returns:
        A :class:`ReclaimPlan`.  If fewer than ``count`` candidates
        exist, everything available is returned.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    plan = ReclaimPlan()
    if count == 0:
        return plan
    remaining: Dict[str, Server] = {s.server_id: s for s in candidates}
    # Working copies of placement state so we can simulate preemptions.
    base_map: Dict[int, Set[str]] = {}
    flex_map: Dict[int, Dict[str, int]] = {}
    for server in candidates:
        for job_id in server.allocations:
            job = jobs[job_id]
            base_map.setdefault(job.job_id, set(job.base_placement))
            flex_map.setdefault(job.job_id, dict(job.flex_placement))

    def hosts_base(sid: str) -> List[int]:
        return [j for j, sids in base_map.items() if sid in sids]

    def hosts_flex(sid: str) -> List[int]:
        return [j for j, sids in flex_map.items() if sid in sids]

    def take(sid: str) -> None:
        """Mark a server as selected, scaling in its flexible workers."""
        for job_id in hosts_flex(sid):
            workers = flex_map[job_id].pop(sid)
            plan.scaled_in.setdefault(job_id, {})[sid] = workers
        plan.servers.append(sid)
        del remaining[sid]

    # Phase 0: servers already free of base workers (idle or flex-only).
    if scale_in_first:
        free_now = sorted(
            (sid for sid in remaining if not hosts_base(sid)),
            key=lambda sid: (len(hosts_flex(sid)), sid),
        )
        for sid in free_now:
            if len(plan.servers) >= count:
                break
            take(sid)
            plan.free_servers += 1
    if len(plan.servers) >= count:
        return plan

    def cost_of(sid: str) -> float:
        return sum(
            job_preemption_cost(
                jobs[j],
                sid,
                cost_model,
                base_span=base_map[j],
                full_span=base_map[j] | set(flex_map.get(j, {})),
            )
            for j in hosts_base(sid)
        )

    def tie_break(sid: str):
        """Cascade benefit vs collateral damage of preempting ``sid``.

        Preempting this server's jobs may fully vacate *other candidate*
        servers — those count toward the reclaim demand (good), while
        GPUs freed on servers that stay occupied or are not candidates
        are collateral damage (bad).  Returns ``(-cascade, collateral)``
        so that min() prefers big cascades, then small damage.
        """
        victims = set(hosts_base(sid))
        cascade = 0
        collateral = 0
        for other, server in remaining.items():
            if other == sid:
                continue
            other_base = set(hosts_base(other))
            freed = sum(
                jobs[j].gpus_on(other) for j in other_base & victims
            )
            if other_base and other_base <= victims:
                cascade += 1
            elif freed:
                collateral += freed
        for job_id in victims:
            for other in base_map[job_id] | set(flex_map.get(job_id, {})):
                if other != sid and other not in remaining:
                    collateral += jobs[job_id].gpus_on(other)
        return (-cascade, collateral)

    # Greedy phase: repeatedly take the cheapest server.
    while len(plan.servers) < count and remaining:
        sid = min(remaining, key=lambda s: (cost_of(s), *tie_break(s), s))
        for job_id in hosts_base(sid):
            plan.preempted_jobs.add(job_id)
            # Preemption removes the job from *every* server it touches.
            base_map[job_id] = set()
            flex_map[job_id] = {}
        take(sid)
        # Cascade: preemptions may have idled other candidates; take the
        # now-free ones before paying for another preemption.
        if scale_in_first:
            for other in sorted(list(remaining)):
                if len(plan.servers) >= count:
                    break
                if not hosts_base(other):
                    take(other)
    # Collateral damage: GPUs the preempted jobs vacate on servers that
    # are *not* being returned (§7.3 definition).
    returned = set(plan.servers)
    for job_id in plan.preempted_jobs:
        job = jobs[job_id]
        plan.scaled_in.pop(job_id, None)
        for sid in job.servers:
            if sid not in returned:
                plan.collateral_gpus += job.gpus_on(sid)
    return plan


# ----------------------------------------------------------------------
# baselines (§7.3)
# ----------------------------------------------------------------------
def plan_reclaim_random(
    candidates: Sequence[Server],
    jobs: Mapping[int, Job],
    count: int,
    rng: Optional[random.Random] = None,
) -> ReclaimPlan:
    """Return ``count`` on-loan servers chosen uniformly at random."""
    rng = rng or random.Random()
    order = list(candidates)
    rng.shuffle(order)
    return _plan_from_order(order, jobs, count)


def plan_reclaim_scf(
    candidates: Sequence[Server], jobs: Mapping[int, Job], count: int
) -> ReclaimPlan:
    """Smallest (job) Count First: fewest running jobs per server."""
    order = sorted(candidates, key=lambda s: (s.job_count, s.server_id))
    return _plan_from_order(order, jobs, count)


def _plan_from_order(
    order: Sequence[Server], jobs: Mapping[int, Job], count: int
) -> ReclaimPlan:
    """Build a plan that takes servers in the given fixed order."""
    plan = ReclaimPlan()
    selected: List[Server] = list(order[:count])
    selected_ids = {s.server_id for s in selected}
    for server in selected:
        plan.servers.append(server.server_id)
        if not any(
            server.server_id in jobs[j].base_placement for j in server.allocations
        ):
            plan.free_servers += 1
        for job_id in list(server.allocations):
            job = jobs[job_id]
            if server.server_id in job.base_placement:
                if job_id not in plan.preempted_jobs:
                    plan.preempted_jobs.add(job_id)
                    for other in job.servers:
                        if other not in selected_ids:
                            plan.collateral_gpus += job.gpus_on(other)
            elif server.server_id in job.flex_placement:
                plan.scaled_in.setdefault(job_id, {})[server.server_id] = (
                    job.flex_placement[server.server_id]
                )
    # A preempted job's flexible workers die with it; drop redundant entries.
    for job_id in plan.preempted_jobs:
        plan.scaled_in.pop(job_id, None)
    return plan


# ----------------------------------------------------------------------
# exhaustive optimal (§7.3 comparison)
# ----------------------------------------------------------------------
def plan_reclaim_optimal(
    candidates: Sequence[Server],
    jobs: Mapping[int, Job],
    count: int,
    max_candidates: int = 24,
) -> ReclaimPlan:
    """Exhaustively find a preemption-minimal reclaim plan.

    Searches subsets of servers to preempt-clear, allowing servers idled
    as a cascade to count toward the demand — the same accounting the
    greedy heuristic uses.  Exponential: guarded by ``max_candidates``.
    """
    if len(candidates) > max_candidates:
        raise ValueError(
            f"{len(candidates)} candidates exceeds exhaustive-search limit "
            f"{max_candidates}"
        )
    count = min(count, len(candidates))

    def evaluate(subset: Tuple[Server, ...]) -> Optional[ReclaimPlan]:
        plan = _plan_from_order(list(subset), jobs, len(subset))
        # Cascade: candidates left with no base workers once the
        # preempted jobs are gone can be vacated for free.
        vacated = set(plan.servers)
        for server in candidates:
            if server.server_id in vacated:
                continue
            base_jobs = [
                j.job_id
                for j in _base_jobs_on(server, jobs)
                if j.job_id not in plan.preempted_jobs
            ]
            if not base_jobs:
                vacated.add(server.server_id)
                plan.servers.append(server.server_id)
                for job_id in server.allocations:
                    if (
                        job_id not in plan.preempted_jobs
                        and server.server_id in jobs[job_id].flex_placement
                    ):
                        plan.scaled_in.setdefault(job_id, {})[
                            server.server_id
                        ] = jobs[job_id].flex_placement[server.server_id]
            if len(plan.servers) >= count:
                break
        if len(plan.servers) < count:
            return None
        plan.servers = plan.servers[:count]
        # _plan_from_order charged collateral against the subset alone;
        # recompute it against the final selection so GPUs on cascade-
        # vacated servers that ARE being returned no longer count as
        # damage (§7.3 definition: GPUs freed on unreturned servers).
        returned = set(plan.servers)
        plan.collateral_gpus = 0
        for job_id in plan.preempted_jobs:
            job = jobs[job_id]
            for sid in job.servers:
                if sid not in returned:
                    plan.collateral_gpus += job.gpus_on(sid)
        return plan

    best: Optional[ReclaimPlan] = None
    for size in range(0, count + 1):
        for subset in itertools.combinations(candidates, size):
            plan = evaluate(subset)
            if plan is None:
                continue
            if best is None or plan.num_preemptions < best.num_preemptions:
                best = plan
        if best is not None and best.num_preemptions <= size:
            # Sound to stop (proof, pinned by the repro.oracle brute
            # force over *job* subsets): any subset achieving k
            # preemptions is dominated by a subset of size <= k.  Shrink
            # its preempted job set to a minimal P still vacating
            # >= count candidates, call them V.  Minimality puts a base
            # host in V for every job of P (dropping a job with no such
            # host would leave V vacated).  Pick one host per job of P:
            # that subset S' has |S'| <= |P| <= k, its servers' base
            # jobs are exactly P (servers in V are base-free once P is
            # gone, so they host nothing outside P), and preempting P
            # re-vacates all of V — so evaluate(S') already achieved
            # <= k preemptions at size |S'|.  Hence a plan beating
            # `best` (< best <= size) would have been found at a
            # strictly smaller size, and searching larger subsets
            # cannot help — multi-server-job cascades included.
            break
    if best is None:
        # Not enough vacatable capacity even preempting everything.
        best = _plan_from_order(list(candidates), jobs, count)
    return best
