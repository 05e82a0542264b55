"""Slow, obviously-correct reference implementations of the core decisions.

Differential testing only works when the reference is credibly simpler
than the production path, so everything here trades efficiency and
incrementality for first-principles transparency:

* :func:`plan_reclaim_bruteforce` searches *job* subsets exhaustively —
  the §7.3 optimum the greedy reclaimer is certified and measured
  against, sharing none of the greedy's server-selection code;
* :func:`allocate_reference` restates the §5.2 two-phase rules in
  straight-line code over raw pool numbers and solves phase two with
  the brute-force MCKP enumerator;
* :func:`solve_mckp_scalar` is the MCKP dynamic program as plain Python
  loops — the reference the vectorized production kernel must match
  bit for bit, choices included.

None of this is wired into any scheduler: production code must never
import this module (the conformance runner and tests do).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster.job import Job
from repro.cluster.server import Server
from repro.core.allocation import (
    MIXED,
    ONLOAN,
    TRAINING,
    Pools,
    jct_reduction_values,
)
from repro.core.mckp import Item, solve_mckp_bruteforce


# ----------------------------------------------------------------------
# reclaiming: exhaustive search over job subsets
# ----------------------------------------------------------------------
@dataclass
class OracleReclaim:
    """A provably preemption-minimal reclaim decision."""

    servers: List[str] = field(default_factory=list)
    preempted_jobs: Set[int] = field(default_factory=set)

    @property
    def num_preemptions(self) -> int:
        return len(self.preempted_jobs)


def plan_reclaim_bruteforce(
    candidates: Sequence[Server],
    jobs: Mapping[int, Job],
    count: int,
    max_jobs: int = 18,
) -> OracleReclaim:
    """Minimum-preemption reclaim by exhaustive search over job subsets.

    Enumerates candidate preemption sets in increasing size and returns
    the first one that vacates at least ``count`` candidate servers — a
    server is vacated exactly when every one of its base-hosting jobs is
    preempted (flexible workers always scale in for free, §4).  Because
    sizes are tried in order, the returned preemption count is the true
    optimum over *every* possible reclaim plan; the enumeration order of
    :func:`itertools.combinations` makes the winner deterministic.
    """
    count = min(count, len(candidates))
    base_jobs = sorted(
        {
            job_id
            for server in candidates
            for job_id in server.allocations
            if server.server_id in jobs[job_id].base_placement
        }
    )
    if len(base_jobs) > max_jobs:
        raise ValueError(
            f"{len(base_jobs)} base-hosting jobs exceeds exhaustive-search "
            f"limit {max_jobs}"
        )

    def vacated_by(preempted: Set[int]) -> List[str]:
        vacated = []
        for server in candidates:
            blocked = any(
                job_id not in preempted
                and server.server_id in jobs[job_id].base_placement
                for job_id in server.allocations
            )
            if not blocked:
                vacated.append(server.server_id)
        return vacated

    for size in range(len(base_jobs) + 1):
        for combo in itertools.combinations(base_jobs, size):
            vacated = vacated_by(set(combo))
            if len(vacated) >= count:
                return OracleReclaim(
                    servers=vacated[:count], preempted_jobs=set(combo)
                )
    raise AssertionError(
        "unreachable: preempting every base job vacates every candidate"
    )


# ----------------------------------------------------------------------
# allocation: first-principles two-phase on raw pool numbers
# ----------------------------------------------------------------------
@dataclass
class ReferenceAllocation:
    """What the §5.2 rules, applied literally, decide for one epoch."""

    #: ``(job_id, domain)`` admissions in decision order
    scheduled: List[Tuple[int, str]] = field(default_factory=list)
    skipped: List[int] = field(default_factory=list)
    flex: Dict[int, int] = field(default_factory=dict)
    mckp_value: float = 0.0


def _fits_reference(job: Job, gpus: int, pools: Pools) -> str:
    """Where the base demand lands, per §5.2/§5.3, stated literally.

    Fungible elastic jobs prefer on-loan capacity (keeping reclaims
    preemption-free); everything else prefers dedicated training GPUs.
    Non-fungible jobs can never use on-loan hardware; heterogeneous jobs
    may straddle both pools as a last resort.  Returns '' when the job
    does not fit anywhere.
    """
    prefers_onloan = job.spec.fungible and job.elastic
    for domain in (ONLOAN, TRAINING) if prefers_onloan else (TRAINING, ONLOAN):
        if domain == ONLOAN:
            if job.spec.fungible and gpus * pools.onloan_cost <= pools.onloan:
                return ONLOAN
        elif gpus <= pools.training:
            return TRAINING
    if job.spec.heterogeneous and gpus <= pools.total:
        return MIXED
    return ""


def _charge_reference(pools: Pools, domain: str, gpus: int) -> None:
    """Charge an admitted base demand to the pools (§5.2 normalization)."""
    if domain == TRAINING:
        pools.training -= gpus
    elif domain == ONLOAN:
        pools.onloan -= int(round(gpus * pools.onloan_cost))
    else:  # MIXED drains training first, remainder from on-loan
        from_training = min(gpus, pools.training)
        pools.training -= from_training
        pools.onloan -= int(round((gpus - from_training) * pools.onloan_cost))


def allocate_reference(
    pending: Sequence[Job],
    running_elastic: Sequence[Job],
    pools: Pools,
    value_fn=jct_reduction_values,
) -> ReferenceAllocation:
    """First-principles §5.2 two-phase allocation on raw cluster state.

    Phase one admits base demands shortest-job-first (scan continues past
    jobs that do not fit, so small jobs backfill); phase two builds the
    Fig. 6 MCKP groups for the scheduled-plus-running elastic jobs and
    solves them by exhaustive enumeration.  Deliberately shares no code
    with ``repro.core.allocation`` beyond the ``Pools``/``Item`` data
    types and the item value function under test's control.
    """
    pools = pools.copy()
    ref = ReferenceAllocation()
    scheduled_jobs: List[Job] = []
    order = sorted(
        pending,
        key=lambda j: (j.estimated_duration(), j.spec.submit_time, j.job_id),
    )
    for job in order:
        gpus = job.spec.base_gpus
        domain = _fits_reference(job, gpus, pools)
        if not domain:
            ref.skipped.append(job.job_id)
            continue
        _charge_reference(pools, domain, gpus)
        ref.scheduled.append((job.job_id, domain))
        scheduled_jobs.append(job)

    elastic_jobs = [job for job in scheduled_jobs if job.elastic]
    elastic_jobs.extend(running_elastic)
    if elastic_jobs and pools.total > 0:
        capacity = pools.total
        groups: List[List[Item]] = []
        for job in elastic_jobs:
            span = job.spec.max_workers - job.spec.min_workers
            extras = [
                extra for extra in range(1, span + 1)
                if extra * job.spec.gpus_per_worker <= capacity
            ]
            groups.append([
                Item(weight=extra * job.spec.gpus_per_worker, value=value,
                     payload=(job, extra))
                for extra, value in zip(extras, value_fn(job, extras))
            ])
        value, choices = solve_mckp_bruteforce(groups, capacity)
        ref.mckp_value = value
        for job, choice in zip(elastic_jobs, choices):
            extra = choice.payload[1] if choice is not None else 0
            ref.flex[job.job_id] = extra
    else:
        for job in elastic_jobs:
            ref.flex[job.job_id] = 0
    return ref


# ----------------------------------------------------------------------
# MCKP: the dynamic program in plain loops
# ----------------------------------------------------------------------
def solve_mckp_scalar(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[float, List[Optional[Item]]]:
    """:func:`repro.core.mckp.solve_mckp` one float at a time.

    Same recurrence, same item order, same tie rules (an item replaces
    the incumbent only when strictly better; the smallest capacity
    achieving the optimum wins) — so value *and* choices must equal the
    vectorized kernel's exactly, not approximately.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    dp = [0.0] * (capacity + 1)
    choice: List[List[int]] = []
    for group in groups:
        new_dp = dp[:]  # taking nothing from this group is always valid
        taken = [-1] * (capacity + 1)
        for idx, item in enumerate(group):
            weight, value = item[0], item[1]
            if weight > capacity or value <= 0:
                continue
            for cap in range(weight, capacity + 1):
                candidate = dp[cap - weight] + value
                if candidate > new_dp[cap]:
                    new_dp[cap] = candidate
                    taken[cap] = idx
        dp = new_dp
        choice.append(taken)
    cap = max(range(capacity + 1), key=lambda c: dp[c])
    best_value = dp[cap]
    choices: List[Optional[Item]] = [None] * len(groups)
    for g in range(len(groups) - 1, -1, -1):
        idx = choice[g][cap]
        if idx >= 0:
            choices[g] = groups[g][idx]
            cap -= groups[g][idx][0]
    return best_value, choices
