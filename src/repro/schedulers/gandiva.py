"""Gandiva-style opportunistic elastic scaling (§7.1 scheme).

Gandiva "adopts an opportunistic approach to grow or shrink the number of
GPUs used by a job without considering cluster-wide efficiency" (§2.3).
The paper's adaptation: "It exploits elasticity by scaling out jobs to
utilize the remaining resources on servers whenever they are
under-utilized.  We consider under-utilization to be the period when there
are available resources but no pending jobs" (§7.1).

Crucially there is no coordinated scale-in to admit waiting jobs — grown
workers are only returned when their job completes — which is why Gandiva
barely improves queuing over the FIFO baseline (Table 5 row 10).
"""

from __future__ import annotations

from repro.core.placement import PlacementRequest
from repro.schedulers.base import SchedulerPolicy, fifo_key


class GandivaScheduler(SchedulerPolicy):
    """Opportunistic grow-only elastic scheduling."""

    name = "gandiva"
    #: admission and the grow loop both run to a fixpoint each epoch —
    #: with no deltas since, re-running repeats the same failed attempts
    epoch_idempotent = True
    order_key = staticmethod(fifo_key)

    def decide(self, ctx: "PlanTransaction") -> None:
        # Admission: FIFO with backfill at base demand.
        ordered = self.sorted_pending(
            ctx, self.order_key, self.name + ":order"
        )
        self.admit_inelastically(ctx, ordered)

        # Grow phase: only when nothing is pending (under-utilization).
        if ctx.pending or not ctx.config.elastic:
            return
        engine = ctx.placement_engine()
        grew = True
        while grew:
            grew = False
            for job in ctx.running_elastic:
                if job.total_workers >= job.spec.max_workers:
                    continue
                result = engine.place(
                    [PlacementRequest(job, flex_workers=1)]
                )
                if result.flex_shortfall.get(job.job_id, 0) == 0:
                    ctx.rescale(job, scaled_out=True)
                    grew = True
