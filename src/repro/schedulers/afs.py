"""AFS-style elastic scheduling (§7.1 scheme).

AFS (Apathetic Future Share / Elastic Resource Sharing, NSDI '21) greedily
prioritizes the job with the highest *marginal throughput gain per GPU*.
Per the paper's adaptation: base demand is allocated to each job first,
then one more worker at a time goes to the job with the largest throughput
gain per GPU.  AFS "assumes unbounded elasticity" (§7.4), so jobs may grow
past their nominal scaling range — with increasingly poor marginal returns
(modelled as an extra 30 % efficiency haircut per worker beyond the
range), which reproduces its high usage but mediocre JCT.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.job import Job
from repro.core.placement import PlacementRequest
from repro.schedulers.base import SchedulerPolicy, fifo_key

#: Growth cap relative to the declared maximum demand.
_UNBOUNDED_FACTOR = 2


class AFSScheduler(SchedulerPolicy):
    """Greedy marginal-throughput-per-GPU elastic scheduler."""

    name = "afs"
    #: marginal gains depend only on current worker counts; with no
    #: deltas the greedy loop re-derives the same (failed) last step
    epoch_idempotent = True
    order_key = staticmethod(fifo_key)

    def _marginal_gain(self, job: Job) -> float:
        """Throughput gain per GPU of granting one more worker now."""
        w = job.total_workers
        gain = job.effective_workers(w + 1) - job.effective_workers(w)
        return gain / job.spec.gpus_per_worker

    def _growth_limit(self, job: Job) -> int:
        return job.spec.max_workers * _UNBOUNDED_FACTOR

    def decide(self, ctx: "PlanTransaction") -> None:
        # Base admission: arrival order with backfill (AFS admits each
        # job's minimum demand first, like Lyra - §7.4).
        ordered = self.sorted_pending(
            ctx, self.order_key, self.name + ":order"
        )
        self.admit_inelastically(ctx, ordered)

        if not ctx.config.elastic:
            return
        engine = ctx.placement_engine()
        # Greedy marginal allocation, one worker at a time.
        while True:
            best: Optional[Job] = None
            best_gain = 0.0
            for job in ctx.running_elastic:
                if job.total_workers >= self._growth_limit(job):
                    continue
                gain = self._marginal_gain(job)
                if gain > best_gain:
                    best_gain = gain
                    best = job
            if best is None:
                return
            result = engine.place([PlacementRequest(best, flex_workers=1)])
            if result.flex_shortfall.get(best.job_id, 0):
                return  # no server can host another worker
            ctx.rescale(best, scaled_out=True)
