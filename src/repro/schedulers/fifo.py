"""Simple queue-order policies: FIFO (the Baseline) and SJF.

The paper's Baseline is "a FIFO cluster scheduler with no capacity loaning
or elastic scaling" (§7.1).  Jobs are scanned in arrival order and started
whenever their (fixed) demand fits; blocked jobs are skipped so smaller
jobs can backfill — without backfill a head-of-line blocker would idle the
entire cluster, which no production FIFO scheduler does.

``OpportunisticScheduling`` reproduces Table 5 row 6: capacity loaning is
off, and the 21 % fungible jobs are queued to the *inference* cluster with
low priority, opportunistically using idle servers there (and getting
evicted when inference traffic returns).
"""

from __future__ import annotations

from repro.core.allocation import sjf_key
from repro.schedulers.base import SchedulerPolicy, fifo_key


class FIFOScheduler(SchedulerPolicy):
    """First-in-first-out with backfill; every job runs at base demand."""

    name = "fifo"
    #: arrival order and runtime estimates never change between deltas,
    #: and a failed admission attempt leaves no state behind — re-running
    #: the epoch on unchanged state is a no-op
    epoch_idempotent = True
    order_key = staticmethod(fifo_key)

    def decide(self, ctx: "PlanTransaction") -> None:
        ordered = self.sorted_pending(
            ctx, self.order_key, self.name + ":order"
        )
        self.admit_inelastically(ctx, ordered)


class SJFScheduler(FIFOScheduler):
    """Shortest-job-first over the scheduler-visible runtime estimates."""

    name = "sjf"
    #: same argument as FIFO: the estimate-ordered scan is stateless
    epoch_idempotent = True
    order_key = staticmethod(sjf_key)


class OpportunisticScheduling(FIFOScheduler):
    """Table 5 row 6: fungible jobs opportunistically use inference servers.

    Runs FIFO for the regular training workload, but fungible jobs are
    restricted to on-loan (inference) hardware — they wait for idle
    inference servers instead of competing for training GPUs, and suffer
    the weaker GPUs' efficiency once there.
    """

    name = "opportunistic"
    #: the same stateless backfill scan as FIFO, over a different budget
    epoch_idempotent = True

    def decide(self, ctx: "PlanTransaction") -> None:
        ordered = self.sorted_pending(
            ctx, self.order_key, self.name + ":order"
        )
        self.admit_inelastically(ctx, ordered, opportunistic=True)
