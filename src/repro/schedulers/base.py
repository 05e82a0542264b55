"""Scheduler policy interface and shared machinery.

A policy's :meth:`SchedulerPolicy.decide` is invoked at every scheduling
epoch with a :class:`~repro.core.actions.PlanTransaction` — a façade over
the live :class:`~repro.simulator.simulation.Simulation`; it reads the
pending queue and cluster state, places workers through the
:class:`~repro.core.placement.PlacementEngine`, and reports starts/scales
back through the transaction's ``activate``/``rescale`` API, which stages
them as actions.  :meth:`SchedulerPolicy.plan` wraps an epoch's decisions
into an :class:`~repro.core.actions.EpochPlan` the simulation applies
through its :class:`~repro.core.actions.PlanExecutor` — the single commit
point between policy and cluster.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cluster.job import Job
from repro.core.actions import EpochPlan, PlanTransaction
from repro.core.allocation import Pools
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.obs.profiling import PHASE_DECIDE, PHASE_PLACEMENT


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
        """Make one epoch's decisions against the transaction façade."""

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    @staticmethod
    def free_pools(sim: "Simulation") -> Pools:
        """Current idle capacity split into training / on-loan pools.

        Served O(1) from the view's cached totals.  The on-loan cost
        factor (physical GPUs per normalized GPU, §5.2) is derived
        deterministically from the loaned hardware's relative compute:
        the *weakest* loaned type sets the cost, so heterogeneous loans
        can never overcommit the physical on-loan pool.
        """
        pools = sim.view.pools()
        if pools.onloan_cost < 1.0:
            raise ValueError(
                f"view produced on-loan cost {pools.onloan_cost!r} < 1.0; "
                f"the §5.2 weakest-type normalization guarantees at "
                f"least one physical GPU per normalized GPU — the "
                f"view's GPU-type census is corrupt"
            )
        return pools

    @staticmethod
    def credit_flex(sim: "Simulation", pools: Pools, jobs: Sequence[Job]) -> None:
        """Add running jobs' flexible-worker GPUs back into the pools.

        §5.2: the resources available at an epoch include GPUs being used
        by flexible workers, because those can be resized away.
        """
        for job in jobs:
            for server_id, workers in job.flex_placement.items():
                if server_id not in sim.cluster:
                    continue
                gpus = workers * job.gpu_cost_on(server_id)
                if sim.cluster.get(server_id).on_loan:
                    pools.onloan += gpus
                else:
                    pools.training += gpus

    @staticmethod
    def make_engine(sim: "Simulation") -> PlacementEngine:
        """The kernel's persistent, view-fed placement engine."""
        return sim.placement_engine()

    def sorted_pending(
        self, sim: "Simulation", key_fn, cache_key: str, dynamic: bool = False
    ) -> Sequence[Job]:
        """The pending queue in ``key_fn`` order, cached on the view.

        ``dynamic`` marks time-varying orderings (least-attained-service)
        that must be recomputed every epoch.  All our ordering keys end
        in ``job_id`` — total orders — so the cached result is identical
        to a fresh ``sorted`` regardless of queue insertion order.  The
        returned sequence is read-only.
        """
        if dynamic:
            return sorted(sim.pending, key=key_fn)
        return sim.view.ordered_pending(cache_key, key_fn, sim.pending)

    @staticmethod
    def update_hetero_penalty(sim: "Simulation", job: Job) -> None:
        """Apply the <=70 % mixed-GPU throughput penalty (§7.1 Advanced).

        A heterogeneous job spanning more than one GPU type pays the
        penalty; on a homogeneous placement it runs at full speed.  The
        Ideal scenario models perfect heterogeneous training and keeps
        the multiplier at 1.0 via ``hetero_ideal``.
        """
        if not job.spec.heterogeneous or sim.hetero_ideal:
            return
        types = {
            sim.cluster.get(sid).gpu_type.name
            for sid in job.servers
            if sid in sim.cluster
        }
        job.hetero_penalty = 0.7 if len(types) > 1 else 1.0

    def admit_inelastically(
        self,
        sim: "Simulation",
        ordered_pending: Sequence[Job],
        workers_for=None,
    ) -> List[Job]:
        """Admit jobs in a fixed order at a fixed worker count.

        The workhorse of the FIFO/SJF baselines: scan ``ordered_pending``,
        place each job's workers (``workers_for(job)``, defaulting to
        the base demand), skip jobs that do not fit and keep scanning
        (backfill).  Returns the jobs started.

        With 200k queued jobs a per-job Python scan *is* the epoch, so
        each job's demand, budget class and shape id are computed once
        and the next admissible job is found with one vectorized mask.
        That is the same single pass: per-class budgets only shrink
        during the scan (placements consume GPUs, the on-loan cost
        factor is fixed while membership is) and the failed-shape set
        only grows, so a job skipped at its turn could never have been
        admitted later.
        """
        jobs = list(ordered_pending)
        if not jobs:
            return []
        engine = self.make_engine(sim)
        pools = self.free_pools(sim)
        worker_counts: List[int] = []
        demand: List[int] = []
        budget_class: List[int] = []
        shape_of: List[int] = []
        shape_codes: Dict[Tuple, int] = {}
        for job in jobs:
            spec = job.spec
            workers = workers_for(job) if workers_for else spec.min_workers
            worker_counts.append(workers)
            demand.append(workers * spec.gpus_per_worker)
            if spec.fungible or spec.heterogeneous:
                budget_class.append(0)  # may also use on-loan GPUs
            else:
                budget_class.append(1)
            shape = (spec.gpus_per_worker, workers, spec.fungible)
            shape_of.append(shape_codes.setdefault(shape, len(shape_codes)))
        gpus = np.array(demand, dtype=np.int64)
        cls = np.array(budget_class, dtype=np.intp)
        shape_ids = np.array(shape_of, dtype=np.intp)
        failed = np.zeros(len(shape_codes), dtype=bool)
        started: List[Job] = []
        start = 0  # everything before it was scanned and skipped for good
        while start < len(jobs):
            budgets = np.array([pools.total, pools.training], dtype=np.int64)
            ok = (gpus[start:] <= budgets[cls[start:]]) & ~failed[
                shape_ids[start:]
            ]
            i = start + int(ok.argmax())  # first admissible job, if any
            if not ok[i - start]:
                break
            start = i + 1
            job = jobs[i]
            with sim.phase(PHASE_PLACEMENT):
                result = engine.place(
                    [PlacementRequest(job, base_workers=worker_counts[i])]
                )
            if result.failed_base:
                failed[shape_ids[i]] = True
                continue
            pools = self.free_pools(sim)
            self.update_hetero_penalty(sim, job)
            sim.activate(job)
            started.append(job)
        return started

    # ------------------------------------------------------------------
    # scale-in helper
    # ------------------------------------------------------------------
    @staticmethod
    def choose_flex_removals(
        sim: "Simulation", job: Job, workers: int
    ) -> Dict[str, int]:
        """Pick which flexible workers to drop when scaling ``job`` in.

        Prefers vacating dedicated training servers first (keeping the
        on-loan FLEX group intact preserves reclaim-without-preemption),
        then the emptiest on-loan servers.
        """

        def rank(server_id: str) -> Tuple:
            if server_id not in sim.cluster:
                return (0, 0, server_id)
            server = sim.cluster.get(server_id)
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
