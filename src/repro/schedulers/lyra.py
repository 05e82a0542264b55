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

from typing import List, Tuple

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

        pools = ctx.view.pools()
        self.credit_flex(pools, running_elastic)

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

        # One pass over the running elastic jobs: scale-ins now, freeing
        # the GPUs that admissions will consume; scale-outs are placed
        # after the admissions, with each job's flexible count before.
        flex = decision.flex
        scale_outs: List[Tuple[Job, int]] = []
        for job in running_elastic:
            have = job.flex_workers
            want = flex.get(job.job_id, have)
            if want < have:
                removals = self.choose_flex_removals(ctx, job, have - want)
                ctx.scale_in_worker_counts(job, removals)
            elif want > have:
                scale_outs.append((job, have))

        # Place admissions (base + their flexible surplus) and scale-outs.
        engine = ctx.placement_engine()
        requests: List[PlacementRequest] = [
            PlacementRequest(
                job,
                base_workers=job.spec.min_workers,
                flex_workers=flex.get(job.job_id, 0) if job.elastic else 0,
            )
            for job, _domain in decision.scheduled
        ]
        requests.extend(
            PlacementRequest(job, flex_workers=flex[job.job_id] - have)
            for job, have in scale_outs
        )

        with ctx.phase(PHASE_PLACEMENT):
            result = engine.place(requests)
        for job in result.placed_base:
            self.update_hetero_penalty(ctx, job)
            ctx.activate(job)
        for job, have in scale_outs:
            shortfall = result.flex_shortfall.get(job.job_id, 0)
            placed = True if shortfall == 0 else job.flex_workers > have
            if placed:
                self.update_hetero_penalty(ctx, job)
                ctx.rescale(job, scaled_out=True)
