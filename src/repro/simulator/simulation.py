"""High-fidelity cluster simulation (§7.1's simulator, rebuilt).

The simulation replays a job trace against a training cluster (optionally
paired with an inference cluster for capacity loaning), delegating all
policy decisions to a pluggable :class:`~repro.schedulers.base.SchedulerPolicy`
and, when loaning is enabled, to a
:class:`~repro.core.orchestrator.ResourceOrchestrator`.

Since the kernel/driver split, :class:`Simulation` is the *simulated-time
driver* for the clock-agnostic
:class:`~repro.core.kernel.SchedulerKernel`: the epoch pipeline, job
lifecycle, failure handling and all scheduling state live in the kernel
base class; this module adds only what is specific to replaying a finite
trace on the discrete-event :class:`~repro.simulator.engine.Engine` —
the run loop, trace-driven arrivals, the heartbeat, the usage sampler,
the orchestrator cadence, and the drain cutoff.  The wall-clock serving
driver (:mod:`repro.serve`) hosts the same kernel against real time.

Simulated mechanics (matching §7.1–7.2):

* job events — arrival, start, completion, scaling, preemption — are all
  discrete events; job running time derives from remaining work divided by
  the allocation-dependent throughput, so elastic running time is
  inversely proportional to resources in the linear regime;
* a preempted job pays a fixed overhead (the 63 s measured on the
  testbed, §7.5) and, without checkpointing, loses all progress;
* the orchestrator ticks every five minutes; the job scheduler runs at a
  much smaller interval and additionally after every arrival, completion
  and capacity change (§3);
* GPU usage of the (dynamically sized) training whitelist, of both
  clusters combined, and of on-loan servers is sampled every five minutes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster.cluster import ClusterPair
from repro.cluster.job import JobSpec
from repro.core.kernel import SchedulerKernel, SimulationConfig
from repro.obs import Observability
from repro.obs.log import get_logger
from repro.obs.provenance import TRIGGER_HEARTBEAT
from repro.simulator.engine import Engine
from repro.simulator.metrics import SimulationMetrics

logger = get_logger("simulator")


class Simulation(SchedulerKernel):
    """One end-to-end replay of a trace under a scheduling policy.

    A :class:`~repro.core.kernel.SchedulerKernel` that is its own
    :class:`~repro.core.kernel.Driver`: time and timers come from the
    discrete-event engine, and the kernel's epoch pipeline runs
    unchanged on top.
    """

    #: the kernel's timers plus the trace-replay cadences armed here;
    #: ``("fault", family, ...)`` tags belong to the fault injector
    TIMERS = {
        **SchedulerKernel.TIMERS,
        "arrival": "_on_arrival",
        "heartbeat": "_on_heartbeat",
        "sampler": "_on_sampler",
        "orch": "_on_orch",
        "fault": "_on_fault",
    }

    def __init__(
        self,
        specs: Sequence[JobSpec],
        pair: ClusterPair,
        policy: "SchedulerPolicy",
        inference_trace=None,
        orchestrator: Optional["ResourceOrchestrator"] = None,
        config: SimulationConfig = SimulationConfig(),
        obs: Optional[Observability] = None,
    ):
        self.engine = Engine(dispatch=self.dispatch)
        super().__init__(
            specs,
            pair,
            policy,
            inference_trace=inference_trace,
            orchestrator=orchestrator,
            config=config,
            obs=obs,
        )
        #: heartbeat firings (drops when wake-up skipping is active)
        self._heartbeats = 0
        #: the run deadline, kept so a restored run can resume to it
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # the Driver protocol, implemented over the discrete-event engine
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.engine.now

    def schedule(self, when: float, tag: tuple) -> None:
        self.engine.schedule(when, tag)

    def schedule_after(self, delay: float, tag: tuple) -> None:
        self.engine.schedule_after(delay, tag)

    def handles(self, tag: tuple) -> bool:
        """Whether :meth:`dispatch` can fire ``tag``: snapshot loading
        refuses a heap naming a timer nobody handles."""
        if tag[0] == "fault":
            injector = self.fault_injector
            return injector is not None and tag[1] in injector.TIMERS
        return tag[0] in self.TIMERS

    def epoch_finished(self) -> None:
        if self.drained:
            # Nothing left to do: cut the run short (samplers would
            # otherwise keep the heap alive forever).
            self.engine.stop()

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> SimulationMetrics:
        """Replay the trace; ``until`` optionally cuts the run short at a
        simulated timestamp (the ``repro whatif`` probe point)."""
        for job in self.jobs.values():
            self.engine.schedule(job.spec.submit_time, ("arrival", job.job_id))
        self.engine.schedule(0.0, ("sampler",))
        self.engine.schedule(0.0, ("heartbeat",))
        if self.orchestrator is not None:
            self.engine.schedule(0.0, ("orch",))
        # None (not an empty plan) when nothing is injected, so the
        # zero-cost path skips the injector entirely
        plan = self.config.fault_plan
        if plan is not None and plan.is_empty():
            plan = None
        if self.tracer.enabled:
            self.tracer.emit(
                "run.config", ts=0.0,
                fault_plan=plan.to_dict() if plan is not None else None,
                scheduler_interval=self.config.scheduler_interval,
                orchestrator_interval=self.config.orchestrator_interval,
                elastic=self.config.elastic,
                scaling_model=self.config.scaling_model,
            )
        if plan is not None:
            # lazy import: fault-free runs never load repro.faults
            from repro.faults.injector import FaultInjector

            self.fault_injector = FaultInjector(plan, self)
            self.fault_injector.install()
        deadline = self._last_arrival + self.config.drain_limit
        if until is not None:
            deadline = min(deadline, until)
        self._deadline = deadline
        self._run_loop(deadline)
        self._finalize_hourly_ratio()
        return self.metrics

    def _run_loop(self, deadline: float) -> None:
        """Drive the engine to ``deadline``; an attached recovery
        manager checkpoints (and honors crash barriers) *between*
        events, which leaves event order as it is."""
        recovery = self.recovery
        self.engine.run(
            until=deadline,
            between=recovery.loop_hook() if recovery else None,
        )

    def resume(self) -> SimulationMetrics:
        """Continue a restored run to its original deadline.

        The counterpart of :meth:`run` for simulations loaded from a
        snapshot: all setup (initial events, fault installation) already
        happened in the original process and lives in the restored
        state, so only the loop and the final bookkeeping remain.
        """
        if self._deadline is None:
            raise RuntimeError("resume() requires a run() to have started")
        self._run_loop(self._deadline)
        self._finalize_hourly_ratio()
        return self.metrics

    def _on_heartbeat(self) -> None:
        """Periodic scheduling epochs (§3: the job scheduler runs
        periodically, on top of the event-driven triggers)."""
        self._heartbeats += 1
        if self.pending:
            self.note_trigger(TRIGGER_HEARTBEAT, pending=len(self.pending))
            self.trigger_schedule()
        if self.pending or self.running or self.engine.now < self._last_arrival:
            delay = max(60.0, self.config.scheduler_interval)
            when = self.engine.now + delay
            # Skip redundant wake-ups: heartbeat firings strictly before
            # the next heap event see unchanged state and do nothing
            # (any pending job implies a coalesced tick in the heap no
            # later than now + delay), so jump straight to the first
            # grid point not before that event.  The grid is walked by
            # repeated addition because that is the exact float sequence
            # chained schedule_after calls produce — a closed form would
            # drift by ULPs and shift every later timestamp.
            nxt = self.engine.peek_next_time()
            if nxt is not None:
                while when < nxt:
                    when = when + delay
            self.engine.schedule(when, ("heartbeat",))

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, job_id: int) -> None:
        self.admit_job(self.jobs[job_id])

    def _on_fault(self, *tag) -> None:
        self.fault_injector.dispatch(tag)

    def _on_sampler(self) -> None:
        now = self.engine.now
        if now > self._last_arrival:
            # Usage statistics cover the trace window only (the paper's
            # clusters run continuously; our finite replay has a drain
            # tail that would otherwise dilute every mean).
            return
        training = self.cluster
        # Training usage per Table 5: GPU-time delivered to training,
        # normalized and measured against the *dedicated* cluster size —
        # capacity loaning therefore pushes it up (Baseline 0.72 ->
        # Basic 0.86 in the paper), rather than diluting the denominator.
        dedicated_total = used = 0.0
        for server in training.servers:
            if server.on_loan:
                used += server.used_gpus * server.gpu_type.relative_compute
            else:
                used += server.used_gpus
                dedicated_total += server.num_gpus
        if dedicated_total:
            ratio = min(1.0, used / dedicated_total)
            self.metrics.training_usage.append(now, ratio)
            self.obs.registry.gauge("usage.training").set(ratio)

        total_gpus = self.pair.training.total_gpus + self.pair.inference.total_gpus
        inference_busy = 0.0
        if self.inference_trace is not None and self.pair.inference.total_gpus:
            gpus_per_server = (
                self.pair.inference.servers[0].num_gpus
                if self.pair.inference.servers
                else 8
            )
            busy_servers = min(
                self.inference_trace.busy_servers_at(now),
                len(self.pair.inference.servers),
            )
            inference_busy = (
                busy_servers
                * gpus_per_server
                * self.inference_trace.gpu_busy_fraction
            )
        overall = (training.used_gpus + inference_busy) / total_gpus if total_gpus else 0.0
        self.metrics.overall_usage.append(now, overall)
        self.obs.registry.gauge("usage.overall").set(overall)

        onloan = training.on_loan_servers
        onloan_usage = None
        if onloan:
            used = sum(s.used_gpus for s in onloan)
            total = sum(s.num_gpus for s in onloan)
            onloan_usage = used / total
            self.metrics.onloan_usage.append(now, onloan_usage)
            busy = sum(1 for s in onloan if not s.idle)
            self.metrics.onloan_busy.append(now, busy / len(onloan))

        if self.tracer.enabled:
            # Periodic utilization snapshot: the `repro report`
            # utilization timeline reads these back from the trace.
            self.trace(
                "cluster.usage",
                training=round(
                    self.metrics.training_usage.values[-1], 6
                ) if self.metrics.training_usage.values else None,
                overall=round(overall, 6),
                loaned=self.pair.loaned_count,
                onloan_usage=(
                    round(onloan_usage, 6)
                    if onloan_usage is not None else None
                ),
                running=len(self.running),
                pending=len(self.pending),
            )

        self.engine.schedule_after(self.config.sample_interval, ("sampler",))

    def _on_orch(self) -> None:
        self.run_orchestrator_epoch()
        if self.pending or self.running or self.engine.now < self._last_arrival:
            self.engine.schedule_after(
                self.config.orchestrator_interval, ("orch",)
            )
