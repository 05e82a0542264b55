"""Scheduler policy interface and shared machinery.

A policy's :meth:`SchedulerPolicy.decide` is invoked at every scheduling
epoch with a :class:`~repro.core.actions.PlanTransaction` — the declared
context of the epoch (``ctx``): the instant ``now``, the config, the
training cluster and its view, the placement engine, the pending queue
and running set, and the observability hooks.  The policy places workers
through ``ctx.placement_engine()`` and reports starts/scales back
through the context's ``activate``/``rescale`` calls, which stage them
as actions.  :meth:`SchedulerPolicy.plan` wraps an epoch's decisions
into an :class:`~repro.core.actions.EpochPlan` the simulation applies
through its :class:`~repro.core.actions.PlanExecutor` — the single commit
point between policy and cluster.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Set, Tuple

from repro.cluster.job import Job
from repro.core.actions import EpochPlan, PlanTransaction
from repro.core.allocation import Pools
from repro.core.placement import PlacementRequest
from repro.obs.tracer import PHASE_DECIDE, PHASE_PLACEMENT


def fifo_key(job: Job) -> tuple:
    """Arrival order."""
    return (job.spec.submit_time, job.job_id)


class SchedulerPolicy(abc.ABC):
    """Base class for all job-scheduling policies."""

    #: human-readable scheme name (matches the paper's tables)
    name: str = "abstract"

    #: True when re-running :meth:`decide` against unchanged cluster and
    #: queue state provably repeats the previous epoch's (non-)decisions,
    #: letting the simulator skip the epoch outright when the ClusterView
    #: reports no deltas.  Policies whose decisions depend on wall-clock
    #: time, attained service, or internal RNG state must declare False.
    #: Every registered policy declares this explicitly (tested).
    epoch_idempotent: bool = False

    #: Conformance hook: when the repro.oracle runner (or a test) attaches
    #: a callable here, :meth:`emit_decision` feeds it every decision
    #: record a policy chooses to publish — e.g. the exact MCKP instance
    #: an allocation epoch solved — so an external oracle can re-derive
    #: and certify decisions in situ.  None (the default) costs one
    #: attribute read per epoch; policies never depend on a probe's
    #: presence or behaviour.
    conformance_probe = None

    def __getstate__(self) -> dict:
        # a probe observes the run from the harness; it is not run state
        state = dict(self.__dict__)
        state.pop("conformance_probe", None)
        return state

    def emit_decision(self, kind: str, **payload) -> None:
        """Publish one decision record to an attached conformance probe.

        ``kind`` names the decision family (``"allocation"``, ...);
        ``payload`` carries the live decision objects.  Probes must
        treat the payload as read-only — it is the policy's working
        state, not a copy.
        """
        probe = self.conformance_probe
        if probe is not None:
            probe(self.name, kind, payload)

    def plan(self, sim: "Simulation") -> EpochPlan:
        """Run one epoch's decisions and return them as an EpochPlan.

        Opens a :class:`PlanTransaction` over the simulation, runs
        :meth:`decide` against it, and seals the staged decisions into a
        plan.  Nothing lifecycle-visible has happened yet: the caller
        commits (or prices) the plan through a
        :class:`~repro.core.actions.PlanExecutor`.  If ``decide`` raises,
        every staged resource mutation is rolled back before re-raising.
        """
        txn = PlanTransaction(sim, policy=self.name)
        decide_span = sim.phase(PHASE_DECIDE)
        try:
            with decide_span:
                self.decide(txn)
        except BaseException:
            txn.abort()
            raise
        plan = txn.seal()
        plan.span_id = decide_span.span_id
        return plan

    @abc.abstractmethod
    def decide(self, ctx: "PlanTransaction") -> None:
        """Make one epoch's decisions against the epoch's context."""

    # ------------------------------------------------------------------
    # shared helpers: ``ctx`` is the epoch's PlanTransaction
    # ------------------------------------------------------------------
    @staticmethod
    def credit_flex(pools: Pools, jobs: Sequence[Job]) -> None:
        """Add running jobs' flexible-worker GPUs back into the pools.

        §5.2: the resources available at an epoch include GPUs being used
        by flexible workers, because those can be resized away.  Each
        job keeps those GPUs per domain as two integers (``Job``'s
        occupancy counters), so the credit visits no server.  Every
        server a running job's flexible workers sit on is in the
        training whitelist at decide time, with the on-loan flag its job
        recorded at launch: a reclaim vacates a server before
        ``return_server`` takes it out (which refuses a booked server),
        ``fail_node`` strips a failed server's placements, and a
        dedicated server never goes on loan.
        ``SchedulerKernel.verify_derived`` asserts both.
        """
        for job in jobs:
            pools.training += job.flex_training_gpus
            pools.onloan += job.flex_onloan_gpus

    def sorted_pending(
        self, ctx: "PlanTransaction", key_fn, cache_key: str, dynamic: bool = False
    ) -> Sequence[Job]:
        """The pending queue in ``key_fn`` order, cached on the view.

        ``dynamic`` marks time-varying orderings (least-attained-service)
        that must be recomputed every epoch.  All our ordering keys end
        in ``job_id`` — total orders — so the cached result is identical
        to a fresh ``sorted`` regardless of queue insertion order.  The
        returned sequence is read-only.
        """
        if dynamic:
            return sorted(ctx.pending, key=key_fn)
        return ctx.view.ordered_pending(cache_key, key_fn, ctx.pending)

    @staticmethod
    def update_hetero_penalty(ctx: "PlanTransaction", job: Job) -> None:
        """Apply the <=70 % mixed-GPU throughput penalty (§7.1 Advanced).

        A heterogeneous job spanning more than one GPU type pays the
        penalty; on a homogeneous placement it runs at full speed.  The
        Ideal scenario models perfect heterogeneous training and keeps
        the multiplier at 1.0 via ``hetero_ideal``.
        """
        if not job.spec.heterogeneous or ctx.hetero_ideal:
            return
        types = {
            ctx.cluster.get(sid).gpu_type.name
            for sid in job.servers
            if sid in ctx.cluster
        }
        job.hetero_penalty = 0.7 if len(types) > 1 else 1.0

    def admit_inelastically(
        self,
        ctx: "PlanTransaction",
        ordered_pending: Sequence[Job],
        opportunistic: bool = False,
    ) -> List[Job]:
        """Admit jobs in a fixed order at their base demand.

        The workhorse of the FIFO/SJF baselines: scan ``ordered_pending``,
        place each job's base workers, skip jobs that do not fit and keep
        scanning (backfill).  Returns the jobs started.

        A fungible or heterogeneous job may draw on every free GPU, any
        other job on the training pool only.  ``opportunistic`` is Table
        5 row 6 instead: through the opportunistic engine a fungible job
        draws on the on-loan pool only, and every other job on the
        training pool.

        One pass in queue order.  A job is skipped when its budget
        class's free GPUs cannot hold its base demand, or when placement
        already failed a job of its shape this epoch; the pools are
        re-read after each start.  Skipping for good is exact: budgets
        only shrink during the pass (placements consume GPUs, and the
        on-loan cost factor is fixed while membership is) and the
        failed-shape set only grows, so a job skipped at its turn could
        not be admitted later.  Every demand is at least one GPU, so
        once both budgets are empty nothing further can start.
        """
        if not ordered_pending:
            return []
        engine = ctx.placement_engine(opportunistic=opportunistic)
        pools = None  # re-read after each start
        failed: Set[Tuple] = set()
        started: List[Job] = []
        for job in ordered_pending:
            if pools is None:
                pools = ctx.view.pools()
                training = pools.training
                shared = pools.onloan if opportunistic else pools.total
                if not (training or shared):
                    break
            spec = job.spec
            if spec.fungible or (spec.heterogeneous and not opportunistic):
                budget = shared  # may use on-loan GPUs
            else:
                budget = training
            if spec.min_workers * spec.gpus_per_worker > budget:
                continue
            shape = (spec.gpus_per_worker, spec.min_workers, spec.fungible)
            if shape in failed:
                continue
            with ctx.phase(PHASE_PLACEMENT):
                result = engine.place(
                    [PlacementRequest(job, base_workers=spec.min_workers)]
                )
            if result.failed_base:
                failed.add(shape)
                continue
            pools = None
            self.update_hetero_penalty(ctx, job)
            ctx.activate(job)
            started.append(job)
        return started

    # ------------------------------------------------------------------
    # scale-in helper
    # ------------------------------------------------------------------
    @staticmethod
    def choose_flex_removals(
        ctx: "PlanTransaction", job: Job, workers: int
    ) -> Dict[str, int]:
        """Pick which flexible workers to drop when scaling ``job`` in.

        Prefers vacating dedicated training servers first (keeping the
        on-loan FLEX group intact preserves reclaim-without-preemption),
        then the emptiest on-loan servers.  Only ``ctx.cluster`` is read,
        so the daemon's ``scale`` op passes its kernel instead.
        """

        def rank(server_id: str) -> Tuple:
            if server_id not in ctx.cluster:
                return (0, 0, server_id)
            server = ctx.cluster.get(server_id)
            return (server.on_loan, -server.free_gpus, server_id)

        removals: Dict[str, int] = {}
        remaining = workers
        for server_id in sorted(job.flex_placement, key=rank):
            if remaining <= 0:
                break
            take = min(job.flex_placement[server_id], remaining)
            removals[server_id] = take
            remaining -= take
        return removals
