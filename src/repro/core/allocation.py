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

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.job import Job
from repro.core.mckp import solve_mckp
from repro.obs.tracer import PHASE_MCKP_SOLVE

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
        mckp_groups: The exact MCKP groups phase two solved, as
            ``(weight, value)`` pairs (None when phase two did not run).
            Kept for conformance probes: the repro.oracle runner
            re-solves captured instances by brute force to certify the
            solver's optimality in situ.
        mckp_capacity: The knapsack capacity handed to the solver.
    """

    scheduled: List[Tuple[Job, str]] = field(default_factory=list)
    flex: Dict[int, int] = field(default_factory=dict)
    skipped: List[Job] = field(default_factory=list)
    mckp_value: float = 0.0
    mckp_groups: Optional[List[List[Tuple[int, float]]]] = None
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


def sjf_key(job: Job) -> tuple:
    """Shortest (scheduler-visible) running time first, then arrival."""
    return (job.estimated_duration(), job.spec.submit_time, job.job_id)


def sjf_phase(
    pending: Sequence[Job],
    pools: Pools,
    order_key=sjf_key,
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


def price_flex(job: Job, value_fn) -> List[Tuple[int, float]]:
    """The job's items over its whole flexible span, one value_fn call."""
    gpus = job.spec.gpus_per_worker
    extras = range(1, 1 + job.spec.max_workers - job.spec.min_workers)
    return [(k * gpus, value) for k, value in zip(extras, value_fn(job, extras))]


def build_flex_groups(
    elastic_jobs: Sequence[Job],
    max_weight: int,
    value_fn=jct_reduction_values,
) -> List[List[Tuple[int, float]]]:
    """Build MCKP groups for phase two (the Fig. 6 transformation).

    For elastic job *j* with range ``[w_min, w_max]``, item *k* grants
    ``k`` extra workers and is the pair ``(k * gpus_per_worker,
    value_fn(job, extras)[k - 1])`` — by default the value is the
    reduction in estimated remaining time versus running at base demand.
    The extra count is positional (item *k* sits at index ``k - 1``, and
    its weight divided by ``gpus_per_worker`` is ``k``).  Items wider
    than ``max_weight`` can never fit and are pruned up front.

    ``value_fn`` is a pure function of the spec and the inputs
    ``Job.flex_key`` lists, one value per extra, independent of the
    others; so a job's full-span items are cached under that key, only a
    job whose inputs moved is repriced, and a group is a cached prefix.
    """
    groups: List[List[Tuple[int, float]]] = []
    for job in elastic_jobs:
        key = job.flex_key(value_fn)
        cached = job.flex_items
        if cached is None or cached[0] != key:
            cached = job.flex_items = (key, price_flex(job, value_fn))
        groups.append(cached[1][:max_weight // job.spec.gpus_per_worker])
    return groups


def allocate_two_phase(
    pending: Sequence[Job],
    running_elastic: Sequence[Job],
    pools: Pools,
    order_key=sjf_key,
    value_fn=jct_reduction_values,
    phase=nullcontext,
    presorted: bool = False,
) -> AllocationDecision:
    """Run both allocation phases for one scheduling epoch.

    Args:
        pending: Queued jobs (inelastic and elastic) awaiting admission.
        running_elastic: Elastic jobs currently running whose flexible
            workers are up for re-decision; callers must have already
            credited those workers' GPUs back into ``pools`` (§5.2: the
            available resources include GPUs used by flexible workers).
        pools: Free capacity; phase one consumes it in place, and phase
            two solves over what is left.
        phase: The caller's phase timer
            (:meth:`~repro.core.kernel.SchedulerKernel.phase`), entered
            around the MCKP solve; untimed by default.

    Returns:
        The combined :class:`AllocationDecision`.
    """
    decision = AllocationDecision()
    decision.scheduled, decision.skipped = sjf_phase(
        pending, pools, order_key=order_key, presorted=presorted
    )

    # Phase two: flexible demand of scheduled + running elastic jobs.
    elastic_jobs = [job for job, _ in decision.scheduled if job.elastic]
    elastic_jobs.extend(running_elastic)
    capacity = pools.total
    if elastic_jobs and capacity > 0:
        groups = build_flex_groups(
            elastic_jobs, max_weight=capacity, value_fn=value_fn
        )
        decision.mckp_groups = groups
        decision.mckp_capacity = capacity
        with phase(PHASE_MCKP_SOLVE):
            value, choices = solve_mckp(groups, capacity)
        decision.mckp_value = value
        for job, choice in zip(elastic_jobs, choices):
            gpus = choice[0] if choice is not None else 0
            decision.flex[job.job_id] = gpus // job.spec.gpus_per_worker
    else:
        for job in elastic_jobs:
            decision.flex[job.job_id] = 0
    return decision

