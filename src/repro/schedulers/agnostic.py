"""Information-agnostic Lyra (the §10 future-work direction).

Lyra's allocator relies on running-time predictions: SJF ordering in
phase one and JCT-reduction values in phase two.  The paper closes by
planning to "investigate information-agnostic scheduling without knowing
jobs' running time a priori" — this module builds that variant:

* **Phase one** orders jobs by *least attained service* (Tiresias-style):
  a job's attained service is the work it has already received, so fresh
  jobs and preemption victims go first, approximating SJF without any
  runtime oracle (short jobs, by definition, finish before accumulating
  much service).
* **Phase two** values an extra worker by its *marginal throughput gain
  per attained-service* — jobs that scale well and have received little
  service win leftover GPUs.  No duration estimate is consulted anywhere.

The agnostic variant trades some JCT optimality for independence from the
profiler; the ablation bench quantifies the gap against full Lyra and the
Baseline.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.cluster.job import Job
from repro.schedulers.lyra import LyraScheduler


def attained_service(job: Job) -> float:
    """Work the job has received so far, in training-GPU seconds."""
    return job.spec.total_work - job.remaining_work


def las_order_key(job: Job):
    """Least-attained-service, then smallest-demand, ordering.

    Fresh submissions all have zero attained service, so the secondary
    smallest-job-first key (base GPUs) does the short-job favouritism
    that SJF gets from runtime estimates — job size is known at submit
    time, running time is not.
    """
    return (
        attained_service(job),
        job.spec.base_gpus,
        job.spec.submit_time,
        job.job_id,
    )


def throughput_gain_values(job: Job, extras: Sequence[int]) -> List[float]:
    """Runtime-oblivious item values for the phase-two knapsack.

    Marginal effective throughput of each extra-worker count (in
    training-GPU units), discounted by the job's attained service so
    that young jobs are favoured — the same bias LAS applies in phase
    one.  Normalizing by ``1 + attained/total`` needs no runtime
    prediction: both terms are observable counters.
    """
    base = job.spec.min_workers
    effective = job.scaling_model.effective_workers
    base_workers = effective(base)
    age_discount = 1.0 + attained_service(job) / max(1.0, job.spec.total_work)
    return [
        (effective(base + extra) - base_workers) * job.spec.gpus_per_worker
        / age_discount
        for extra in extras
    ]


class LyraAgnosticScheduler(LyraScheduler):
    """Lyra's two-phase structure without running-time knowledge."""

    name = "lyra_agnostic"

    #: hooks consumed by :meth:`LyraScheduler.decide`
    order_key = staticmethod(las_order_key)
    value_fn = staticmethod(throughput_gain_values)
    #: attained service grows with the clock — the pending order is
    #: time-varying and must be re-sorted every epoch, never cached
    dynamic_order = True
    #: explicit (not inherited): the LAS order drifts with attained
    #: service even when the cluster and queue are unchanged
    epoch_idempotent = False
