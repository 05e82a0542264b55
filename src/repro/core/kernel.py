"""The driver-agnostic scheduling kernel.

Lyra ran as a *live* scheduler serving a production cluster; the batch
simulator and a long-running daemon are two clocks around the same
decision pipeline.  This module is that pipeline, carved out of the
simulator so both can share it byte-for-byte:

* :class:`SchedulerKernel` owns the scheduling state (job table, pending
  queue, running set, the :class:`~repro.core.view.ClusterView`, the
  :class:`~repro.core.actions.PlanExecutor`) and the epoch pipeline —
  collect arrivals/completions as triggers, let the policy decide
  against a :class:`~repro.core.actions.PlanTransaction`, validate and
  commit the resulting :class:`~repro.core.actions.EpochPlan` through
  the executor, with provenance, metrics, audits and recovery hooks
  along the way.  The kernel never reads a clock or arms a timer
  itself: *when* is always delegated to its driver.  (Its phase clock,
  :meth:`SchedulerKernel.phase`, measures the wall-clock cost of each
  pipeline phase in every run; nothing reads it to decide.)
* :class:`Driver` is the protocol a clock source implements to host the
  kernel: a ``now`` property plus ``schedule``/``schedule_after`` timer
  primitives and an ``epoch_finished`` notification.  A timer is armed
  as a *tag* — data, never a closure — and a driver fires a due tag by
  handing it to :meth:`SchedulerKernel.dispatch`.  The simulator
  (:class:`~repro.simulator.simulation.Simulation`) implements it over
  the discrete-event :class:`~repro.simulator.engine.Engine`; the
  serving daemon (:mod:`repro.serve`) implements it over an asyncio
  event loop mapped to wall-clock time.

Because drivers only decide *when* hooks run — never *what* they do —
two drivers replaying the same external events in the same order make
identical decisions; the golden equivalence suite pins the simulated
driver against the pre-split behaviour byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster, ClusterPair
from repro.cluster.job import PREEMPTION_OVERHEAD, Job, JobSpec, JobStatus
from repro.core.actions import PlanExecutor
from repro.core.allocation import price_flex
from repro.core.placement import PlacementEngine
from repro.core.view import ClusterView
from repro.elastic.throughput import get_scaling_model
from repro.obs import Observability
from repro.obs.log import get_logger
from repro.obs.provenance import (
    MAX_TRIGGERS,
    TRIGGER_ARRIVAL,
    TRIGGER_COMPLETION,
    TRIGGER_NODE_FAILURE,
    TRIGGER_NODE_RECOVERY,
    TRIGGER_PREEMPT,
)
from repro.obs.tracer import (
    CAT_JOB,
    CAT_ORCHESTRATOR,
    CAT_SCHEDULER,
    CAT_SPAN,
    PHASE_SCHEDULER_TICK,
    SPAN_EVENT,
)
from repro.profiler.profiler import JobProfiler
from repro.rm.manager import ResourceManager
from repro.simulator.events import Activity, EventKind
from repro.simulator.metrics import SimulationMetrics

DAY = 86400.0

logger = get_logger("kernel")

#: Structured-trace (name, category) for each activity kind.
_TRACE_NAMES = {
    EventKind.SUBMIT: ("job.submit", CAT_JOB),
    EventKind.START: ("job.start", CAT_JOB),
    EventKind.FINISH: ("job.finish", CAT_JOB),
    EventKind.PREEMPT: ("job.preempt", CAT_JOB),
    EventKind.SCALE_OUT: ("job.scale_out", CAT_JOB),
    EventKind.SCALE_IN: ("job.scale_in", CAT_JOB),
    EventKind.LOAN: ("orchestrator.loan", CAT_ORCHESTRATOR),
    EventKind.RECLAIM: ("orchestrator.reclaim", CAT_ORCHESTRATOR),
    EventKind.SCHEDULE_EPOCH: ("scheduler.epoch", CAT_SCHEDULER),
}

#: Relative tolerance for "the job is done" at a completion event.
_WORK_EPS = 1e-6

#: Throughput bonus hyperparameter tuning yields above base demand (§7.4).
_TUNING_BONUS = 1.08


class _Phase:
    """One timed occurrence of a phase: :meth:`SchedulerKernel.phase`.

    Exiting adds the wall-clock time to the kernel's ``phase_stats``.
    While the tracer is enabled the phase is also a span: entering takes
    the next span id (sequential per run, so seeded runs share their
    span structure) under the innermost open span, and exiting emits an
    ``obs.span`` event stamped with the kernel time at entry.  Plans
    link back to the span that produced them through ``span_id``, which
    stays None in an untraced run.
    """

    __slots__ = ("kernel", "name", "span_id", "parent_id", "ts", "start")

    def __init__(self, kernel: "SchedulerKernel", name: str):
        self.kernel = kernel
        self.name = name
        self.span_id: Optional[int] = None

    def __enter__(self) -> "_Phase":
        kernel = self.kernel
        if kernel.tracer.enabled:
            self.parent_id = kernel._open_span
            kernel._span_seq += 1
            self.span_id = kernel._open_span = kernel._span_seq
            self.ts = kernel.now
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = perf_counter() - self.start
        kernel = self.kernel
        stat = kernel.phase_stats.get(self.name)
        if stat is None:
            kernel.phase_stats[self.name] = [1, elapsed, elapsed]
        else:
            stat[0] += 1
            stat[1] += elapsed
            if elapsed > stat[2]:
                stat[2] = elapsed
        if self.span_id is not None:
            kernel._open_span = self.parent_id
            kernel.tracer.emit(
                SPAN_EVENT,
                ts=self.ts,
                cat=CAT_SPAN,
                span=self.name,
                span_id=self.span_id,
                parent_id=self.parent_id,
                dur_ms=round(elapsed * 1e3, 6),
            )


@dataclass
class SimulationConfig:
    """Kernel- and simulation-wide knobs.

    Attributes:
        scheduler_interval: Minimum seconds between scheduling epochs;
            epochs are additionally triggered by job/capacity events.
        orchestrator_interval: Seconds between orchestrator ticks (§7.1:
            five minutes).
        sample_interval: Seconds between usage samples.
        elastic: Master switch for elastic scaling.
        drain_limit: Extra simulated seconds allowed after the last
            arrival for the queue to drain before the run is cut off.
        scaling_model: Throughput scaling model name applied to elastic
            jobs ("linear" or "sublinear20", §7.2).
        tuned_jobs: Lyra+TunedJobs mode — hyperparameter tuning recovers
            scaling losses and adds a small throughput bonus whenever a
            job runs above its base demand (§7.4).
    """

    scheduler_interval: float = 30.0
    orchestrator_interval: float = 300.0
    sample_interval: float = 300.0
    elastic: bool = True
    drain_limit: float = 30 * DAY
    scaling_model: str = "linear"
    tuned_jobs: bool = False
    special_elastic_grouping: bool = True
    record_activities: bool = False
    #: use the §3 job profiler for runtime estimates instead of oracle
    #: durations: estimates are learned online from completed jobs
    use_profiler: bool = False
    #: what to inject (:class:`repro.faults.plan.FaultPlan`: node
    #: failures, outages, stragglers, ... and their seed); None injects
    #: nothing.  Typed loosely so fault-free simulations never import
    #: :mod:`repro.faults`.
    fault_plan: Optional[object] = None

    def __post_init__(self) -> None:
        if self.scheduler_interval <= 0:
            raise ValueError("scheduler_interval must be positive")
        if self.orchestrator_interval <= 0:
            raise ValueError("orchestrator_interval must be positive")


class Driver:
    """The protocol a clock source implements to host a kernel.

    The kernel calls exactly four hooks; everything else about pacing —
    heartbeats, samplers, batching arrivals, drain detection — belongs
    to the driver:

    * ``now`` — the current kernel time, in seconds.  Monotone
      non-decreasing; the unit is whatever the driver's clock measures
      (simulated seconds for the engine driver, scaled wall-clock
      seconds for the serving driver).
    * ``schedule(when, tag)`` — at absolute kernel time ``when``, hand
      ``tag`` to the kernel's :meth:`~SchedulerKernel.dispatch`.  A tag
      is a small pickle-friendly tuple, ``(head, *arguments)``; it is
      all a driver holds of an armed timer, so a durable driver's timers
      are data (see :mod:`repro.simulator.engine`).
    * ``schedule_after(delay, tag)`` — relative form.
    * ``epoch_finished()`` — called at the end of every scheduling
      epoch, after the plan committed and bookkeeping ran; drivers use
      it to stop a drained run (simulator) or wake drain/latency
      waiters (daemon).

    This is a structural protocol: any object with these four members
    works (:class:`~repro.simulator.simulation.Simulation` *is* its own
    driver; :class:`repro.serve.driver.WallClockDriver` is a standalone
    one).  The class body raises so accidental direct use fails loudly.
    """

    @property
    def now(self) -> float:
        raise NotImplementedError

    def schedule(self, when: float, tag: tuple) -> None:
        raise NotImplementedError

    def schedule_after(self, delay: float, tag: tuple) -> None:
        raise NotImplementedError

    def epoch_finished(self) -> None:
        raise NotImplementedError


class SchedulerKernel:
    """The clock-agnostic epoch pipeline over one training cluster pair.

    Holds every piece of scheduling state that is *not* about time —
    jobs, queues, the view, the executor, metrics, provenance — and
    exposes the transitions the paper's scheduler performs: job
    admission (:meth:`admit_job`), scheduling epochs
    (:meth:`_schedule_tick`, armed by :meth:`trigger_schedule`),
    orchestrator epochs (:meth:`run_orchestrator_epoch`), preemption,
    node failure and recovery, straggler degradation, and cancellation.

    The kernel is driven: a :class:`Driver` supplies ``now`` and timers,
    and decides when to call the pipeline.  Constructing a kernel with
    ``driver=None`` (the :class:`~repro.simulator.simulation.Simulation`
    subclass does this) makes the instance its own driver — it must then
    implement the protocol itself.
    """

    #: every timer this class arms: tag head -> the method fired with
    #: the rest of the tag as arguments
    TIMERS = {
        "tick": "_schedule_tick",
        "completion": "_on_completion",
        "node_recovery": "_node_recovery",
    }

    #: the Ideal scenario (§7.1) models perfect heterogeneous training:
    #: True keeps a mixed-GPU job's throughput multiplier at 1.0
    hetero_ideal = False

    def __init__(
        self,
        specs: Sequence[JobSpec],
        pair: ClusterPair,
        policy: "SchedulerPolicy",
        inference_trace=None,
        orchestrator: Optional["ResourceOrchestrator"] = None,
        config: SimulationConfig = SimulationConfig(),
        obs: Optional[Observability] = None,
        driver: Optional[Driver] = None,
    ):
        self.driver: Driver = driver if driver is not None else self
        self.pair = pair
        self.cluster: Cluster = pair.training
        self.profiler = JobProfiler() if config.use_profiler else None
        self.policy = policy
        self.inference_trace = inference_trace
        self.orchestrator = orchestrator
        self.config = config
        self.obs = obs if obs is not None else Observability.disabled()
        self.tracer = self.obs.tracer
        #: the phase clock, always on: ``{phase: [calls, total_s, max_s]}``
        #: of wall-clock time, kept by :meth:`phase`
        self.phase_stats: Dict[str, list] = {}
        #: span ids handed out so far, and the innermost open span
        self._span_seq = 0
        self._open_span: Optional[int] = None
        self.jobs: Dict[int, Job] = {}
        self.metrics = SimulationMetrics(self.obs.registry, self.jobs)
        self.activities: List[Activity] = []
        #: optional live event sink: called with every Activity the
        #: kernel logs (the serving daemon's streaming feed); None — the
        #: default — costs one attribute check per logged event
        self.activity_sink = None
        #: epoch triggers (ledger dicts) awaiting the next scheduling
        #: plan; only ever populated while the tracer is enabled
        self._pending_triggers: List[dict] = []
        self._dropped_triggers = 0

        #: the only writer of placement, over the live job table
        self.rm = ResourceManager(pair, self.jobs)
        self.rm.derived_check = self.verify_derived
        self.pending: List[Job] = []
        self.running: Dict[int, Job] = {}
        #: derived, never pickled: the elastic jobs of ``running``, in order
        self.running_elastic: Dict[int, Job] = {}
        #: straggling servers: ``{server_id: throughput factor}``; empty
        #: in fault-free runs, in which case every guard below is inert
        self.degraded_servers: Dict[str, float] = {}
        #: the installed :class:`~repro.faults.injector.FaultInjector`,
        #: when a fault plan is active
        self.fault_injector = None
        self._fail_times: Dict[str, float] = {}
        self._tick_pending = False
        self._last_tick = -math.inf
        self._last_arrival = 0.0
        #: jobs admitted since the previous epoch ended, awaiting their
        #: first scheduling attempt (Fig. 2 queuing ratio)
        self._arrivals: List[Job] = []
        self._hour_submissions: Dict[int, int] = {}
        self._hour_queued: Dict[int, int] = {}

        self._scaling = get_scaling_model(config.scaling_model)
        for spec in specs:
            self.add_job_spec(spec)
        self.metrics.submissions = len(self.jobs)

        #: the scheduling view: delta-maintained columns over the
        #: training whitelist, attached to its change hooks
        self.view = ClusterView(pair.training)
        #: the single commit point for decision plans: every epoch's
        #: :class:`~repro.core.actions.EpochPlan` is applied through it
        self.executor = PlanExecutor(self)
        #: persistent placement engines, keyed by opportunistic flag
        self._engines: Dict[bool, PlacementEngine] = {}
        #: scheduling epochs skipped because no deltas arrived
        self._epochs_skipped = 0
        self._last_epoch_version: Optional[int] = None
        #: attached :class:`~repro.recovery.manager.RecoveryManager`;
        #: None (the default) keeps the run loop on the exact pre-recovery
        #: code path — no checkpoints, no WAL, no recovery allocations
        self.recovery = None

    def __getstate__(self) -> dict:
        # The recovery manager and the live event feed belong to the
        # process, not to the run: a snapshot leaves them out and
        # whoever restores the kernel attaches its own.  The job table
        # goes first: every job refers to the same few dozen attribute
        # names and classes, and pickle refers to its first 256
        # memoized objects in 2 bytes but to later ones in 5, so a
        # table pickled after the servers makes the payload 20-27 %
        # larger.
        state = {"jobs": self.jobs, **self.__dict__}
        state["recovery"] = state["activity_sink"] = None
        del state["running_elastic"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        running = self.running.items()
        self.running_elastic = {i: job for i, job in running if job.elastic}
        self.rm.derived_check = self.verify_derived

    def verify_derived(self) -> None:
        """Check what snapshots drop against a recomputation: the index,
        each flex-item cache whose key matches its job's inputs, and the
        flex credit's premise — every running job's flexible workers sit
        in the training whitelist, on servers whose on-loan flag is the
        one the job recorded (its flexible-GPU counters' domains)."""
        elastic = [job for job in self.running.values() if job.elastic]
        if list(self.running_elastic.values()) != elastic:
            raise RuntimeError("running-elastic index drifted from running")
        for job in self.running.values():
            for server_id in job.flex_placement:
                if server_id not in self.cluster:
                    raise RuntimeError(
                        f"job {job.job_id} holds flexible workers on "
                        f"{server_id}, which is not in the training whitelist"
                    )
                if self.cluster.get(server_id).on_loan != (
                    server_id in job._onloan_servers
                ):
                    raise RuntimeError(
                        f"job {job.job_id} credits its flexible GPUs on "
                        f"{server_id} to the wrong domain"
                    )
        for job in self.jobs.values():
            key, items = job.flex_items or (None, None)
            if key and key == job.flex_key(key[0]):
                if items != price_flex(job, key[0]):
                    raise RuntimeError(f"job {job.job_id}: stale flex items")

    # ------------------------------------------------------------------
    # setup helpers
    # ------------------------------------------------------------------
    def add_job_spec(self, spec: JobSpec) -> Job:
        """Register one job in the table (not yet pending).

        Demands are clamped to the cluster, the scaling model installed;
        the returned job enters the queue when :meth:`admit_job` runs at
        its arrival time.
        """
        job = Job(self._clamp_spec(spec))
        if job.elastic and not self.config.tuned_jobs:
            job.scaling_model = self._scaling
        self.jobs[job.job_id] = job
        self._last_arrival = max(self._last_arrival, spec.submit_time)
        return job

    def register_job(self, spec: JobSpec) -> Job:
        """Register a job *after* construction (the daemon's submit path).

        :meth:`add_job_spec` covers trace replay, where submissions
        are counted once in ``__init__``; this keeps the count in step
        for jobs arriving at runtime.
        """
        job = self.add_job_spec(spec)
        self.metrics.submissions += 1
        return job

    def _clamp_spec(self, spec: JobSpec) -> JobSpec:
        """Cap demands at the dedicated cluster size (a real cluster
        rejects jobs larger than itself), preserving total workload."""
        capacity = self.pair.training.total_gpus
        max_fit = max(1, capacity // spec.gpus_per_worker)
        if spec.max_workers <= max_fit:
            return spec
        total_work = spec.total_work
        new_max = max_fit
        new_min = min(spec.min_workers, new_max)
        duration = total_work / (new_max * spec.gpus_per_worker)
        return replace(
            spec,
            max_workers=new_max,
            min_workers=new_min,
            duration=duration,
            elastic=spec.elastic and new_min < new_max,
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def log(self, kind: EventKind, job_id: Optional[int] = None, detail=None,
            **trace_args):
        """Record one activity: calibration log plus structured trace.

        ``detail`` feeds the legacy :class:`Activity` audit trail;
        ``trace_args`` become the structured event's payload (falling
        back to ``detail`` when no richer payload is given).
        """
        if self.config.record_activities:
            self.activities.append(
                Activity(self.now, kind, job_id, detail)
            )
        if self.activity_sink is not None:
            self.activity_sink(
                Activity(self.now, kind, job_id, detail), trace_args
            )
        if self.tracer.enabled:
            name, cat = _TRACE_NAMES[kind]
            if detail is not None and "detail" not in trace_args:
                trace_args["detail"] = detail
            self.tracer.emit(
                name, ts=self.now, cat=cat, job_id=job_id,
                **trace_args,
            )

    def trace(self, name: str, job_id: Optional[int] = None, **args) -> None:
        """Emit a structured event outside the :class:`EventKind` set."""
        if self.tracer.enabled:
            self.tracer.emit(name, ts=self.now, job_id=job_id, **args)

    def phase(self, name: str) -> _Phase:
        """Context manager timing one occurrence of phase ``name``."""
        return _Phase(self, name)

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        """The phase clock's totals, most expensive first."""
        ordered = sorted(self.phase_stats.items(), key=lambda kv: kv[1][1],
                         reverse=True)
        return {
            name: {"calls": calls, "total_s": total,
                   "mean_ms": 1e3 * total / calls, "max_ms": 1e3 * peak}
            for name, (calls, total, peak) in ordered
        }

    def export_trace(self, path: str, format: str = "jsonl") -> int:
        """Export the trace plus its summary record (phase totals and
        metrics, what ``repro report`` reads); returns the record count
        written."""
        summary = {"phases": self.phase_summary(),
                   "metrics": self.obs.registry.snapshot()}
        return self.tracer.export(path, format=format, summary=summary)

    def note_trigger(self, kind: str, **detail) -> None:
        """Record one cause of the next scheduling epoch (provenance).

        Call sites pair this with :meth:`trigger_schedule`; the pending
        list becomes the ``triggers`` of the next scheduling plan.  A
        no-op (no dict, no allocation) when the run is untraced.
        """
        if not self.tracer.enabled:
            return
        if len(self._pending_triggers) >= MAX_TRIGGERS:
            self._dropped_triggers += 1
            return
        trigger = {"kind": kind, "ts": self.now}
        trigger.update(sorted(detail.items()))
        self._pending_triggers.append(trigger)

    # ------------------------------------------------------------------
    # the epoch pipeline
    # ------------------------------------------------------------------
    def dispatch(self, tag: tuple) -> None:
        """Fire an armed timer: the one place a tag becomes a call.

        Drivers call this with every due tag — live or restored from a
        snapshot, it is the same lookup — so ``("completion", 7, 2)``
        runs ``_on_completion(7, 2)``.  Handlers take the tag's fields,
        never captured objects: a timer that outlived what it names
        (a cancelled job's completion) finds nothing and does nothing.
        """
        getattr(self, self.TIMERS[tag[0]])(*tag[1:])

    def admit_job(self, job: Job) -> None:
        """A job arrives: enqueue it and request a scheduling epoch.

        Drivers call this at the job's arrival time (the simulator from
        a trace-driven event, the daemon when a submit request lands).
        """
        if self.profiler is not None:
            # the scheduler sees the profiler's estimate, not the
            # oracle duration (§3: profiling happens at enqueue)
            job.estimate_error = self.profiler.estimate_error(job.spec)
        self.pending.append(job)
        self._arrivals.append(job)
        self.view.note_queue_change()
        hour = job.arrival_hour = int(self.now // 3600)
        self._hour_submissions[hour] = self._hour_submissions.get(hour, 0) + 1
        self.log(
            EventKind.SUBMIT, job.job_id,
            min_workers=job.spec.min_workers,
            max_workers=job.spec.max_workers,
            gpus_per_worker=job.spec.gpus_per_worker,
            elastic=job.spec.elastic,
        )
        self.note_trigger(TRIGGER_ARRIVAL, job_id=job.job_id)
        self.trigger_schedule()

    def trigger_schedule(self) -> None:
        """Request a scheduling epoch, coalescing rapid-fire triggers.

        This is where request batching happens in every driver: all
        triggers landing before the armed tick share one epoch, and
        epochs are never closer than ``config.scheduler_interval``.
        """
        if self._tick_pending:
            return
        self._tick_pending = True
        when = max(self.driver.now,
                   self._last_tick + self.config.scheduler_interval)
        self.driver.schedule(when, ("tick",))

    def _schedule_tick(self) -> None:
        """One scheduling epoch: the decide → validate → commit pipeline."""
        self._tick_pending = False
        self._last_tick = self.now
        self.log(EventKind.SCHEDULE_EPOCH, detail=len(self.pending))
        with self.phase(PHASE_SCHEDULER_TICK):
            if self._can_skip_epoch():
                # No deltas since the last epoch and the policy is
                # epoch-idempotent: re-running would provably repeat the
                # same (non-)decisions.  The epoch is still logged and
                # the bookkeeping below still runs, so activity logs and
                # metrics are identical to the non-skipping path.
                self._epochs_skipped += 1
                self.metrics.registry.counter("sim.epochs_skipped").inc()
            else:
                plan = self.policy.plan(self)
                if self.tracer.enabled:
                    plan.triggers = self._pending_triggers
                    plan.dropped_triggers = self._dropped_triggers
                    self._pending_triggers = []
                    self._dropped_triggers = 0
                self.executor.apply(plan)
                self._last_epoch_version = self.view.version
        # First-attempt bookkeeping for the Fig. 2 queuing ratio: an
        # arrival still pending after the first epoch it saw was queued.
        for job in self._arrivals:
            if job.status is JobStatus.PENDING:
                hour = job.arrival_hour
                self._hour_queued[hour] = self._hour_queued.get(hour, 0) + 1
        self._arrivals.clear()
        self.driver.epoch_finished()

    def _can_skip_epoch(self) -> bool:
        """Whether this epoch is provably a no-op.

        Requires an epoch-idempotent policy, an unchanged ClusterView
        version since the last executed epoch, and no active fault
        machinery (transient launch gates could make a retry succeed
        where the last epoch failed)."""
        return (
            self.policy.epoch_idempotent
            and self._last_epoch_version is not None
            and self._last_epoch_version == self.view.version
            and self.fault_injector is None
            and not self.degraded_servers
        )

    def run_orchestrator_epoch(self) -> None:
        """One orchestrator epoch: loan/reclaim planning and commit.

        Drivers call this on their orchestrator cadence
        (``config.orchestrator_interval``); the kernel plans through the
        orchestrator and commits through the executor exactly as a
        scheduling epoch does.
        """
        assert self.orchestrator is not None
        self.executor.apply(self.orchestrator.plan_tick(self))

    def placement_engine(self, opportunistic: bool = False) -> PlacementEngine:
        """The persistent, view-fed placement engine for this kernel.

        One engine per opportunistic flag lives for the whole run (the
        engine is stateless apart from configuration, so persistence is
        safe).
        """
        engine = self._engines.get(opportunistic)
        if engine is None:
            # With several regions placement turns locality-aware.  A
            # 1×1 topology has one region and nothing to prefer, and the
            # oracle costs a walk over the job's servers per placement
            # round, so it is left off there.
            region_of = (
                self.pair.region_of if self.pair.market_active else None
            )
            engine = PlacementEngine(
                self.view,
                self.rm,
                special_elastic_grouping=self.config.special_elastic_grouping,
                opportunistic=opportunistic,
                region_of=region_of,
            )
            self._engines[opportunistic] = engine
        return engine

    # ------------------------------------------------------------------
    # policy-facing API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.driver.now

    @property
    def drained(self) -> bool:
        """True once no work remains and no more arrivals are due."""
        return (
            not self.pending
            and not self.running
            and self.now >= self._last_arrival
        )

    def _start_trace_extras(self, job: Job) -> Dict[str, object]:
        """Placement/loan context attached to traced ``job.start`` events
        (powers the per-job timeline); empty — and allocation-free — in
        untraced runs."""
        if not self.tracer.enabled:
            return {}
        gpu_types = set()
        for sid in job.servers:
            server = self.rm._server(sid)
            if server is not None:
                gpu_types.add(server.gpu_type.name)
        return {
            "servers": sorted(job.servers),
            "onloan": sorted(job._onloan_servers),
            "gpu_types": sorted(gpu_types),
        }

    # -- lifecycle primitives: one per effect, called by PlanExecutor
    # -- (and, for a fault's flex shrink, by apply_node_failure) --------
    def _commit_start(
        self, job: Job, workers: int, queued_s: float, eta: float
    ) -> None:
        """Commit a staged :class:`~repro.core.actions.Launch`.

        The job's resource-side start (placement, mark_started, retune)
        already happened inside the plan transaction; this performs the
        deferred lifecycle half — queue membership, metrics, the START
        log, the completion timer — with the payloads snapshotted at
        decision time.
        """
        self.pending.remove(job)
        self.view.note_queue_change()
        if job.preempted_at is not None:
            # time-to-recover: how long a preempted job waited to run again
            self.metrics.registry.histogram(
                "resilience.time_to_restart_s"
            ).observe(self.now - job.preempted_at)
            job.preempted_at = None
        self.running[job.job_id] = job
        if job.elastic:
            self.running_elastic[job.job_id] = job
        if job.preemptions == 0:
            # first dispatch: only a preemption puts a job back in the queue
            self.metrics.registry.histogram("sim.queue_wait_s").observe(
                queued_s
            )
        self.log(
            EventKind.START, job.job_id, detail=workers,
            workers=workers, queued_s=queued_s,
            **self._start_trace_extras(job),
        )
        self._schedule_completion_at(job, eta)

    def _commit_rescale(
        self, job: Job, scaled_out: bool, workers: int, eta: float
    ) -> None:
        """The lifecycle half of a scale operation: count it, log it and
        re-arm the completion timer at ``eta``.  The worker change itself
        (and :meth:`_retune`) already happened — staged by the plan
        transaction, or just before the call for a declarative
        :class:`~repro.core.actions.ScaleIn` and a node failure."""
        self.metrics.scale_ops += 1
        kind = EventKind.SCALE_OUT if scaled_out else EventKind.SCALE_IN
        self.log(kind, job.job_id, detail=workers, workers=workers)
        self._schedule_completion_at(job, eta)

    def _retune(self, job: Job) -> None:
        """Re-derive a job's throughput factors after an allocation change.

        Lyra+TunedJobs retunes batch size/LR: tuning restores
        near-perfect scaling and yields a small goodput bonus whenever
        the job runs above base demand (§7.4).  Under straggler faults
        the job also paces at its slowest host."""
        if self.config.tuned_jobs and job.elastic:
            if job.total_workers > job.spec.min_workers:
                job.tuning_bonus = _TUNING_BONUS
            else:
                job.tuning_bonus = 1.0
        if self.degraded_servers:
            job.straggler_penalty = self._straggler_penalty_for(job)

    def _schedule_completion_at(self, job: Job, eta: float) -> None:
        """(Re-)arm the job's completion at ``now + eta``.

        ``eta`` may be a plan-time snapshot: every staged action arms
        its own recorded eta in plan order, including ones superseded
        later in the same epoch (heap identity drives heartbeat
        skip-ahead timing, so the sequence of insertions is pinned by
        the golden logs).
        """
        job.completion_epoch = epoch = job.completion_epoch + 1
        if math.isinf(eta):
            return
        self.driver.schedule(self.now + eta, ("completion", job.job_id, epoch))

    def _on_completion(self, job_id: int, epoch: int) -> None:
        job = self.jobs.get(job_id)
        if job is None:
            return  # the job was cancelled while this timer was armed
        if job.completion_epoch != epoch:
            return  # stale event from a superseded allocation
        if job.status is not JobStatus.RUNNING:
            return
        job.advance(self.now)
        if job.remaining_work > _WORK_EPS * job.spec.total_work:
            self._schedule_completion_at(job, job.eta())
            return
        self.rm.release_job(job)
        job.mark_finished(self.now)
        del self.running[job.job_id]
        self.running_elastic.pop(job.job_id, None)
        if self.profiler is not None:
            self.profiler.observe(job.spec, job.spec.duration)
        self.metrics.registry.histogram("sim.jct_s").observe(job.jct)
        self.log(EventKind.FINISH, job.job_id, jct_s=job.jct)
        logger.debug("job %d finished at %.0f (jct %.0f s)",
                     job.job_id, self.now, job.jct)
        self.note_trigger(TRIGGER_COMPLETION, job_id=job.job_id)
        self.trigger_schedule()

    def preempt(self, job: Job, cause: str = "scheduler") -> None:
        """Preempt a running job (reclaiming made it inevitable, §4)."""
        if job.job_id not in self.running:
            raise RuntimeError(f"job {job.job_id} is not running")
        job.advance(self.now)  # bank progress before containers die
        workers = job.total_workers
        # resilience accounting: GPU-seconds this preemption destroys
        lost_work = job.preemption_loss(PREEMPTION_OVERHEAD)
        self.metrics.registry.histogram(
            "resilience.lost_gpu_hours", cause=cause
        ).observe(lost_work / 3600.0)
        self.metrics.registry.counter(
            "sim.preemptions_by_cause", cause=cause
        ).inc()
        job.preempted_at = self.now
        self.rm.release_job(job)
        job.mark_preempted(self.now, overhead=PREEMPTION_OVERHEAD)
        del self.running[job.job_id]
        self.running_elastic.pop(job.job_id, None)
        job.completion_epoch += 1
        self.pending.append(job)
        self.view.note_queue_change()
        self.metrics.preemptions += 1
        self.log(EventKind.PREEMPT, job.job_id, cause=cause, workers=workers)
        logger.debug("job %d preempted at %.0f (cause=%s)",
                     job.job_id, self.now, cause)
        self.note_trigger(TRIGGER_PREEMPT, job_id=job.job_id, cause=cause)
        self.trigger_schedule()

    def cancel_job(self, job_id: int, cause: str = "user") -> bool:
        """Cancel a job on user request (the daemon's ``cancel`` op).

        A pending job silently leaves the queue; a running job is
        released first (its containers stop, progress is discarded).
        Returns False when the job is unknown or already finished —
        cancellation is idempotent, never an error.  A cancelled job
        leaves the job table (the metrics roster reads it) and, because
        its bookkeeping lives on the :class:`Job`, everything else: only the
        records (activity log, trace, WAL, request journal) and the
        submission/cancellation counters remember it.
        """
        job = self.jobs.get(job_id)
        if job is None or job.status is JobStatus.FINISHED:
            return False
        cancelled = False
        if job_id in self.running:
            job.advance(self.now)
            self.rm.release_job(job)
            del self.running[job_id]
            self.running_elastic.pop(job_id, None)
            job.completion_epoch += 1
            job.status = JobStatus.PENDING
            cancelled = True
        if job in self.pending:
            self.pending.remove(job)
            cancelled = True
        if not cancelled:
            return False
        if job in self._arrivals:
            self._arrivals.remove(job)
        self.view.note_queue_change()
        del self.jobs[job_id]
        self.metrics.registry.counter(
            "sim.cancellations", cause=cause
        ).inc()
        self.trace("job.cancel", job_id=job_id, cause=cause)
        self.trigger_schedule()
        return True

    # ------------------------------------------------------------------
    # failure injection (driven by repro.faults.injector.FaultInjector)
    # ------------------------------------------------------------------
    def record_failure_noop(
        self, reason: str, server_id: Optional[str] = None
    ) -> None:
        """A fault event landed on nothing; record it, never skip it
        silently (an outage of an empty rack is still an outage)."""
        self.metrics.registry.counter(
            "resilience.node_failure_noop", reason=reason
        ).inc()
        self.trace(
            "fault.node_failure_noop", reason=reason, server_id=server_id
        )
        logger.debug("node failure no-op at %.0f (%s, server=%s)",
                     self.now, reason, server_id)

    def apply_node_failure(
        self,
        server_id: str,
        repair_time: Optional[float] = None,
        cause: str = "node_failure",
    ) -> bool:
        """One server dies (§6 monitors server status; the paper's
        clusters see real node failures).

        Jobs that lost base workers restart from the queue (gang
        semantics); jobs that only lost flexible workers shrink and
        continue.  Returns True when the failure landed; a failure
        targeting an unknown or already-unhealthy server is a recorded
        no-op returning False.  ``repair_time`` schedules the matching
        recovery (None leaves the node down for the rest of the run).
        """
        if server_id not in self.cluster and server_id not in self.pair.inference:
            self.record_failure_noop("unknown_server", server_id)
            return False
        if not self.rm.is_healthy(server_id):
            self.record_failure_noop("already_unhealthy", server_id)
            return False
        # bank progress up to the failure instant before the workers go
        for job_id in self.rm._server(server_id).allocations:
            if job_id in self.running:
                self.jobs[job_id].advance(self.now)
        report = self.rm.fail_node(server_id)
        # node health lives in the RM, not the GPU books — force
        # consumers (placement health filter) to revisit
        self.view.bump()
        self.metrics.node_failures += 1
        self._fail_times[server_id] = self.now
        self.trace(
            "cluster.node_failure", server_id=server_id,
            jobs_lost_base=sorted(report.jobs_lost_base),
            jobs_lost_flex=sorted(report.jobs_lost_flex),
        )
        logger.info("node %s failed at %.0f (%d base jobs lost)",
                    server_id, self.now, len(report.jobs_lost_base))
        # jobs that lost base workers restart from the queue
        for job_id in sorted(report.jobs_lost_base):
            if job_id in self.running:
                self.preempt(self.jobs[job_id], cause=cause)
        # jobs that only lost flexible workers have shrunk and continue
        for job_id in sorted(report.jobs_lost_flex):
            job = self.jobs[job_id]
            if job_id not in self.running:
                continue
            self._retune(job)
            self._commit_rescale(job, False, job.total_workers, job.eta())
        if repair_time is not None:
            self.driver.schedule_after(
                repair_time, ("node_recovery", server_id)
            )
        self.note_trigger(
            TRIGGER_NODE_FAILURE, server_id=server_id, cause=cause
        )
        self.trigger_schedule()
        return True

    def _node_recovery(self, server_id: str) -> None:
        self.rm.recover_node(server_id)
        self.view.bump()
        failed_at = self._fail_times.pop(server_id, None)
        if failed_at is not None:
            self.metrics.registry.histogram(
                "resilience.node_downtime_s"
            ).observe(self.now - failed_at)
        self.trace("cluster.node_recovery", server_id=server_id)
        self.note_trigger(TRIGGER_NODE_RECOVERY, server_id=server_id)
        self.trigger_schedule()

    # ------------------------------------------------------------------
    # straggler degradation (driven by the fault injector)
    # ------------------------------------------------------------------
    def set_server_degradation(
        self, server_id: str, factor: Optional[float] = None
    ) -> None:
        """Mark a server as straggling at ``factor`` of nominal
        throughput (None restores full speed) and re-time every running
        job it hosts."""
        server = self.rm._server(server_id)
        if factor is None:
            self.degraded_servers.pop(server_id, None)
            if server is not None:
                server.perf_factor = 1.0
        else:
            self.degraded_servers[server_id] = factor
            if server is not None:
                server.perf_factor = factor
        # perf_factor feeds the placement sort order: the view refreshes
        # its column from the updated server
        if server is not None:
            self.view.note_server_attrs(server)
        else:
            self.view.bump()
        for job in list(self.running.values()):
            if server_id in job.servers:
                job.advance(self.now)
                job.straggler_penalty = self._straggler_penalty_for(job)
                self._schedule_completion_at(job, job.eta())

    def _straggler_penalty_for(self, job: Job) -> float:
        """Synchronous training paces at its slowest worker: the penalty
        is the worst factor among the job's host servers."""
        if not self.degraded_servers:
            return 1.0
        return min(
            (self.degraded_servers.get(sid, 1.0) for sid in job.servers),
            default=1.0,
        )

    # ------------------------------------------------------------------
    # reporting helpers
    # ------------------------------------------------------------------
    def _finalize_hourly_ratio(self) -> None:
        ratios = []
        for hour in sorted(self._hour_submissions):
            submitted = self._hour_submissions[hour]
            queued = self._hour_queued.get(hour, 0)
            ratios.append(queued / submitted if submitted else 0.0)
        self.metrics.hourly_queuing_ratio = ratios

    # ------------------------------------------------------------------
    # Driver default: a bare kernel with no driver is an error loudly
    # ------------------------------------------------------------------
    def epoch_finished(self) -> None:  # pragma: no cover - overridden
        """Driver hook: called after every epoch.  Subclass drivers
        override (the simulator stops a drained run here; the daemon
        wakes waiters).  A composed kernel's driver receives the call
        instead."""
        pass
