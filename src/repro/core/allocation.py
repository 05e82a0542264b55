"""Two-phase resource allocation (§5.2).

Lyra's key insight: an elastic job's *base demand* (its minimum worker
count) is inelastic in nature — not granting it stalls the job — while its
*flexible demand* merely shortens running time.  Allocation therefore runs
in two phases:

* **Phase one** treats all inelastic demand (inelastic jobs plus elastic
  jobs' base demands) with shortest-job-first, launching as many jobs as
  possible to cut queuing time and avoid starvation.
* **Phase two** hands the leftover GPUs to elastic jobs' flexible demand by
  solving a multiple-choice knapsack (one group per elastic job, one item
  per possible extra-worker count, item value = JCT reduction) with dynamic
  programming.

Capacity is tracked as two pools — dedicated training GPUs and on-loan
inference GPUs — because only *fungible* jobs may run on loaned hardware
and a single (non-heterogeneous) job cannot straddle GPU types in one run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.job import Job
from repro.core.mckp import Item, solve_mckp
from repro.obs.profiling import NULL_PROFILER, PHASE_MCKP_SOLVE

#: Placement domains an allocation can draw from.
TRAINING = "training"
ONLOAN = "onloan"
MIXED = "mixed"


@dataclass
class Pools:
    """Free capacity split by hardware domain.

    ``onloan`` is expressed in *physical* on-loan GPUs.  Per the §5.2
    normalization, on-loan inference GPUs are weaker than training GPUs:
    a worker placed there occupies ``onloan_cost`` times its nominal GPU
    demand (§7.5: three loaned T4 servers are equivalent to one training
    server, so the default cost factor is 3).  The ``total`` property is
    therefore in *training-GPU equivalents*.
    """

    training: int
    onloan: int = 0
    onloan_cost: float = 3.0

    def __post_init__(self) -> None:
        if self.training < 0 or self.onloan < 0:
            raise ValueError(f"pools must be non-negative, got {self}")
        if self.onloan_cost < 1.0:
            raise ValueError(
                f"onloan_cost must be >= 1, got {self.onloan_cost}"
            )

    @property
    def onloan_normalized(self) -> int:
        """On-loan capacity in training-GPU equivalents."""
        return int(self.onloan / self.onloan_cost)

    @property
    def total(self) -> int:
        """Capacity in training-GPU equivalents (the §5.2 normalization)."""
        return self.training + self.onloan_normalized

    def onloan_fits(self, gpus: int) -> bool:
        """Whether ``gpus`` normalized GPUs fit in the on-loan pool."""
        return gpus * self.onloan_cost <= self.onloan

    def copy(self) -> "Pools":
        return Pools(self.training, self.onloan, self.onloan_cost)


@dataclass
class AllocationDecision:
    """Result of one allocation epoch.

    Attributes:
        scheduled: Newly admitted jobs with their base demand, as
            ``(job, domain)`` — domain says which pool the base workers
            should be placed in.
        flex: Extra (flexible) workers per elastic job id, covering both
            newly scheduled and already-running elastic jobs.  A running
            job's entry is its *new* flexible worker count (may be lower
            than current: a scale-in).
        skipped: Jobs whose base demand did not fit this epoch.
        mckp_value: Total JCT-reduction value realized by phase two.
        leftover: Capacity remaining after both phases.
        mckp_groups: The exact MCKP groups phase two solved (None when
            phase two did not run).  Kept for conformance probes: the
            repro.oracle runner re-solves captured instances by brute
            force to certify the DP's optimality in situ.
        mckp_capacity: The knapsack capacity handed to the solver.
    """

    scheduled: List[Tuple[Job, str]] = field(default_factory=list)
    flex: Dict[int, int] = field(default_factory=dict)
    skipped: List[Job] = field(default_factory=list)
    mckp_value: float = 0.0
    leftover: Pools = field(default_factory=lambda: Pools(0, 0))
    mckp_groups: Optional[List[List[Item]]] = None
    mckp_capacity: int = 0


def preferred_domain(job: Job) -> str:
    """Pool a job's base workers should prefer (§5.3).

    Elastic (and fungible) jobs go to on-loan servers to maximize the
    chance reclaiming can be satisfied by scale-in; inelastic jobs stay
    on dedicated training servers.
    """
    if job.spec.fungible and job.elastic:
        return ONLOAN
    return TRAINING


def _fits(job: Job, gpus: int, pools: Pools) -> Optional[str]:
    """Pick the domain where ``gpus`` GPUs of ``job`` fit, or None.

    Honors fungibility (non-fungible jobs only run on training GPUs) and
    heterogeneous capability (may straddle both pools).
    """
    prefer = preferred_domain(job)
    order = [TRAINING, ONLOAN] if prefer == TRAINING else [ONLOAN, TRAINING]
    for domain in order:
        if domain == ONLOAN:
            if not job.spec.fungible:
                continue
            if pools.onloan_fits(gpus):
                return domain
        elif gpus <= pools.training:
            return domain
    if job.spec.heterogeneous and gpus <= pools.total:
        return MIXED
    return None


def _deduct(pools: Pools, domain: str, gpus: int) -> None:
    """Charge ``gpus`` normalized GPUs to a pool.

    On-loan charges are scaled up by the cost factor, since a worker
    there occupies proportionally more physical GPUs.
    """
    if domain == TRAINING:
        pools.training -= gpus
    elif domain == ONLOAN:
        pools.onloan -= int(round(gpus * pools.onloan_cost))
    else:  # MIXED: drain training first, remainder from on-loan
        from_training = min(gpus, pools.training)
        pools.training -= from_training
        pools.onloan -= int(
            round((gpus - from_training) * pools.onloan_cost)
        )
    if pools.training < 0 or pools.onloan < 0:
        raise RuntimeError(f"pool underflow deducting {gpus} from {domain}")


def sjf_phase(
    pending: Sequence[Job],
    pools: Pools,
    order_key=None,
    presorted: bool = False,
) -> Tuple[List[Tuple[Job, str]], List[Job]]:
    """Phase one: admit base demands shortest-job-first.

    Jobs are ordered by their (scheduler-visible) running-time estimate
    unless ``order_key`` overrides the ordering (the information-agnostic
    variant orders by attained service instead); a job that does not fit
    is skipped and the scan continues, so small jobs can backfill around
    a large blocked one.  ``presorted`` promises ``pending`` is already
    in ``order_key`` order (e.g. the ClusterView's cached queue) and
    skips the sort.

    Returns ``(scheduled, skipped)``; mutates ``pools`` in place.
    """
    if order_key is None:
        order_key = lambda j: (  # noqa: E731 - local default
            j.estimated_duration(), j.spec.submit_time, j.job_id,
        )
    scheduled: List[Tuple[Job, str]] = []
    skipped: List[Job] = []
    by_runtime = list(pending) if presorted else sorted(pending, key=order_key)
    for job in by_runtime:
        domain = _fits(job, job.spec.base_gpus, pools)
        if domain is None:
            skipped.append(job)
            continue
        _deduct(pools, domain, job.spec.base_gpus)
        scheduled.append((job, domain))
    return scheduled, skipped


def jct_reduction_values(job: Job, extras: Sequence[int]) -> List[float]:
    """Lyra's item values: estimated JCT reduction of each extra count.

    The ``value_fn(job, extras)`` contract is one value per entry of
    ``extras``, so the time at base demand is evaluated once per job.
    """
    base = job.spec.min_workers
    base_time = job.remaining_time_at(base) * job.estimate_error
    return [
        base_time - job.remaining_time_at(base + extra) * job.estimate_error
        for extra in extras
    ]


def build_flex_groups(
    elastic_jobs: Sequence[Job],
    max_weight: int,
    value_fn=jct_reduction_values,
) -> List[List[Item]]:
    """Build MCKP groups for phase two (the Fig. 6 transformation).

    For elastic job *j* with range ``[w_min, w_max]``, item *k* grants
    ``k`` extra workers; its weight is ``k * gpus_per_worker`` and its
    value ``value_fn(job, extras)[k - 1]`` — by default the reduction in
    estimated remaining time versus running at base demand.  Items wider
    than ``max_weight`` can never fit and are pruned up front.
    """
    groups: List[List[Item]] = []
    for job in elastic_jobs:
        gpus = job.spec.gpus_per_worker
        extras = range(1, 1 + min(
            job.spec.max_workers - job.spec.min_workers, max_weight // gpus
        ))
        groups.append([
            Item(weight=extra * gpus, value=value, payload=(job, extra))
            for extra, value in zip(extras, value_fn(job, extras))
        ])
    return groups


def allocate_two_phase(
    pending: Sequence[Job],
    running_elastic: Sequence[Job],
    pools: Pools,
    order_key=None,
    value_fn=jct_reduction_values,
    phases=None,
    presorted: bool = False,
) -> AllocationDecision:
    """Run both allocation phases for one scheduling epoch.

    Args:
        pending: Queued jobs (inelastic and elastic) awaiting admission.
        running_elastic: Elastic jobs currently running whose flexible
            workers are up for re-decision; callers must have already
            credited those workers' GPUs back into ``pools`` (§5.2: the
            available resources include GPUs used by flexible workers).
        pools: Free capacity; consumed in place.
        phases: Optional :class:`~repro.obs.profiling.PhaseProfiler`
            that times the MCKP DP solve.

    Returns:
        The combined :class:`AllocationDecision`.
    """
    if phases is None:
        phases = NULL_PROFILER
    decision = AllocationDecision()
    decision.scheduled, decision.skipped = sjf_phase(
        pending, pools, order_key=order_key, presorted=presorted
    )

    # Phase two: flexible demand of scheduled + running elastic jobs.
    elastic_jobs = [job for job, _ in decision.scheduled if job.elastic]
    elastic_jobs.extend(running_elastic)
    if elastic_jobs and pools.total > 0:
        groups = build_flex_groups(
            elastic_jobs, max_weight=pools.total, value_fn=value_fn
        )
        decision.mckp_groups = groups
        decision.mckp_capacity = pools.total
        with phases.phase(PHASE_MCKP_SOLVE):
            value, choices = solve_mckp(groups, pools.total)
        decision.mckp_value = value
        for job, choice in zip(elastic_jobs, choices):
            extra = choice.payload[1] if choice is not None else 0
            decision.flex[job.job_id] = extra
            if extra:
                _deduct_flex(pools, job, extra * job.spec.gpus_per_worker)
    else:
        for job in elastic_jobs:
            decision.flex[job.job_id] = 0
    decision.leftover = pools.copy()
    return decision


def _deduct_flex(pools: Pools, job: Job, gpus: int) -> None:
    """Charge flexible GPUs to the pools, respecting fungibility.

    Flexible workers prefer on-loan capacity (§5.3); non-fungible jobs
    may only draw from training.  MCKP solves over the *combined*
    normalized pool, so a non-fungible job's grant can exceed what the
    training pool holds; the excess is clamped — never charged to
    on-loan hardware the job cannot run on — and placement clamps the
    physically infeasible remainder of the grant itself.
    """
    if not job.spec.fungible:
        pools.training -= min(gpus, pools.training)
        return
    taken = min(gpus, pools.onloan_normalized)
    pools.onloan -= int(round(taken * pools.onloan_cost))
    pools.training -= gpus - taken
    if pools.training < 0 or pools.onloan < 0:
        # Fungible spill across the pool split; clamp at zero —
        # placement enforces physical feasibility.
        pools.training = max(0, pools.training)
        pools.onloan = max(0, pools.onloan)
