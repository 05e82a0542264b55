"""Lyra's job scheduler: two-phase allocation + BFD placement (§5).

Each epoch:

1. Credit the flexible workers of running elastic jobs back into the free
   pools — they are resizable resources (§5.2).
2. Run the two-phase allocator: SJF over inelastic demand, then the
   multiple-choice knapsack over elastic flexible demand.
3. Diff the flexible allocation against the current one, scale jobs in
   (freeing GPUs) before placing new base demands and scale-outs via
   best-fit-decreasing placement (§5.3).
"""

from __future__ import annotations

from typing import Dict, List

from repro.cluster.job import Job
from repro.core.allocation import allocate_two_phase, jct_reduction_values, sjf_key
from repro.core.placement import PlacementRequest
from repro.obs.tracer import PHASE_ALLOCATION, PHASE_PLACEMENT
from repro.schedulers.base import SchedulerPolicy


class LyraScheduler(SchedulerPolicy):
    """The paper's scheduler (elastic-aware two-phase allocation).

    Subclasses may override ``order_key`` (phase-one ordering) and
    ``value_fn`` (phase-two item values) — the information-agnostic
    variant (§10 future work) swaps both for runtime-oblivious rules.
    """

    name = "lyra"
    #: phase-one ordering (default: shortest estimated runtime first)
    order_key = staticmethod(sjf_key)
    #: phase-two MCKP item values depend on *remaining* time — they drift
    #: with the clock, so epochs are never skippable (epoch_idempotent
    #: stays False).  It must be pure in the spec and ``Job.flex_key``,
    #: one value per extra, independent of the others (it is cached)
    value_fn = staticmethod(jct_reduction_values)
    #: True when order_key is time-varying (least-attained-service) and
    #: the cached pending order must not be reused across epochs
    dynamic_order = False
    #: explicit (not inherited): MCKP item values depend on remaining
    #: runtime, so an unchanged-state epoch can still decide differently
    epoch_idempotent = False

    def decide(self, ctx: "PlanTransaction") -> None:
        elastic_on = ctx.config.elastic
        running_elastic = ctx.running_elastic if elastic_on else []
        current_flex: Dict[int, int] = {
            job.job_id: job.flex_workers for job in running_elastic
        }

        pools = ctx.view.pools()
        self.credit_flex(ctx, pools, running_elastic)

        pending = self.sorted_pending(
            ctx, self.order_key, self.name + ":p1", dynamic=self.dynamic_order
        )
        if not elastic_on:
            # Elastic scaling disabled: treat every job as inelastic at
            # its base demand; phase two never runs.
            self.admit_inelastically(ctx, pending)
            return

        # allocate_two_phase consumes ``pools``: keep what it was offered
        offered = pools.copy() if ctx.tracer.enabled else None
        with ctx.phase(PHASE_ALLOCATION):
            decision = allocate_two_phase(
                pending,
                running_elastic,
                pools,
                order_key=self.order_key,
                value_fn=self.value_fn,
                phase=ctx.phase,
                presorted=True,
            )
        self.emit_decision("allocation", decision=decision)
        if ctx.tracer.enabled:
            ctx.trace(
                "scheduler.mckp",
                admitted=len(decision.scheduled),
                skipped=len(decision.skipped),
                groups=len(decision.flex),
                flex_workers=sum(decision.flex.values()),
                value_s=round(decision.mckp_value, 3),
            )
            ctx.note_provenance(
                mckp_admitted=len(decision.scheduled),
                mckp_skipped=len(decision.skipped),
                mckp_groups=len(decision.flex),
                mckp_flex_workers=sum(decision.flex.values()),
                mckp_value_s=round(decision.mckp_value, 3),
                pending=len(pending),
                running_elastic=len(running_elastic),
                pool_training=round(offered.training, 3),
                pool_total=round(offered.total, 3),
                mckp_capacity=decision.mckp_capacity,
            )

        # Scale-ins first: free the GPUs that admissions will consume.
        for job in running_elastic:
            new_flex = decision.flex.get(job.job_id, current_flex[job.job_id])
            delta = new_flex - current_flex[job.job_id]
            if delta < 0:
                removals = self.choose_flex_removals(ctx, job, -delta)
                ctx.scale_in_worker_counts(job, removals)

        # Place admissions (base + their flexible surplus) and scale-outs.
        engine = ctx.placement_engine()
        requests: List[PlacementRequest] = []
        for job, _domain in decision.scheduled:
            flex = decision.flex.get(job.job_id, 0) if job.elastic else 0
            requests.append(
                PlacementRequest(
                    job, base_workers=job.spec.min_workers, flex_workers=flex
                )
            )
        scale_out_jobs: List[Job] = []
        for job in running_elastic:
            delta = decision.flex.get(job.job_id, current_flex[job.job_id]) - (
                current_flex[job.job_id]
            )
            if delta > 0:
                requests.append(PlacementRequest(job, flex_workers=delta))
                scale_out_jobs.append(job)

        with ctx.phase(PHASE_PLACEMENT):
            result = engine.place(requests)
        for job in result.placed_base:
            self.update_hetero_penalty(ctx, job)
            ctx.activate(job)
        for job in scale_out_jobs:
            shortfall = result.flex_shortfall.get(job.job_id, 0)
            placed = True if shortfall == 0 else job.flex_workers > current_flex[job.job_id]
            if placed:
                self.update_hetero_penalty(ctx, job)
                ctx.rescale(job, scaled_out=True)
