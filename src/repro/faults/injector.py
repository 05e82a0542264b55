"""Executes a :class:`~repro.faults.plan.FaultPlan` against a simulation.

The injector is installed by :meth:`Simulation.run` right before the
event loop starts — and only when the plan actually injects something,
so fault-free runs never touch this module.  Everything stochastic draws
from sub-RNGs derived from the plan seed (one stream per fault family),
which keeps a seeded chaos run bit-reproducible and keeps fault draws
from perturbing each other.

After every fault event the injector runs a full invariant audit
(:mod:`repro.faults.audit`): ledger bugs should be caught at the event
that introduced them.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.audit import audit_simulation
from repro.faults.plan import FaultPlan
from repro.obs.provenance import TRIGGER_FAULT
from repro.rm.manager import TransientLaunchError

if TYPE_CHECKING:  # pragma: no cover
    from repro.simulator.simulation import Simulation


class FaultInjector:
    """Schedules a plan's fault events into a simulation's engine."""

    #: every timer armed here, as ``("fault", family, *arguments)``:
    #: family -> the method fired with the arguments
    TIMERS = {
        "flash": "_flash_crowd_marker",
        "outage": "_outage",
        "straggler": "_straggler_start",
        "straggler_end": "_straggler_end",
        "process": "_process_fire",
    }

    def __init__(self, plan: FaultPlan, sim: "Simulation"):
        self.plan = plan
        self.sim = sim
        # one RNG stream per fault family: adding faults of one kind
        # never perturbs the draws of another
        self._rng_process = random.Random(f"{plan.seed}:process")
        self._rng_target = random.Random(f"{plan.seed}:target")
        self._rng_launch = random.Random(f"{plan.seed}:launch")
        self.audits = 0
        #: the orchestrator's own predictor, which :meth:`_biased_forecast`
        #: wraps while a plan carries predictor biases
        self._predictor_orig = None

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wire every fault family of the plan into the simulation."""
        sim, plan = self.sim, self.plan
        if plan.flash_crowds and sim.inference_trace is not None:
            # pure overlay: the usage sampler and the orchestrator read
            # spiked traces for the whole run — the aggregate, and every
            # lender's own series where the orchestrator holds them
            spikes = [(f.at, f.duration, f.magnitude) for f in plan.flash_crowds]
            sim.inference_trace = sim.inference_trace.with_spikes(spikes)
            if sim.orchestrator is not None:
                traces = sim.orchestrator.lender_traces
                for name in traces:
                    traces[name] = traces[name].with_spikes(spikes)
            for i, crowd in enumerate(plan.flash_crowds):
                sim.engine.schedule(crowd.at, ("fault", "flash", i))
        if plan.process is not None:
            self._arm_process()
        for i, outage in enumerate(plan.outages):
            sim.engine.schedule(outage.at, ("fault", "outage", i))
        for i, straggler in enumerate(plan.stragglers):
            sim.engine.schedule(straggler.at, ("fault", "straggler", i))
        # The hooks are bound methods of this injector, reading the plan
        # and the per-family RNGs: state like any other, so a snapshot
        # carries them installed and nothing re-installs them on restore.
        orch = sim.orchestrator
        if orch is not None and plan.predictor_outages:
            orch.predictor_down = self._predictor_down
            orch.degraded_headroom = plan.degraded.headroom
            orch.freeze_loans_when_degraded = plan.degraded.freeze_loans
        if orch is not None and plan.predictor_biases and orch.predictor is not None:
            self._predictor_orig = orch.predictor
            orch.predictor = self._biased_forecast
        if plan.launch_failures is not None:
            sim.rm.launch_gate = self._launch_gate

    def dispatch(self, tag: tuple) -> None:
        """Fire one of this injector's timers, ``(family, *arguments)``.

        The simulation routes every due ``("fault", ...)`` tag here, in
        a live run and a restored one alike: handlers read the plan and
        the per-family RNGs, which are part of the simulation state, so
        a restored timer continues exactly where the armed one would.
        """
        getattr(self, self.TIMERS[tag[0]])(*tag[1:])

    # ------------------------------------------------------------------
    # node failures
    # ------------------------------------------------------------------
    def _healthy_server_ids(self, region: Optional[str] = None) -> List[str]:
        if region is None:
            return [
                s.server_id
                for s in self.sim.cluster.servers
                if self.sim.rm.is_healthy(s.server_id)
            ]
        # Regional blast radius: every server *homed* in the region,
        # wherever its whitelist entry currently lives — a loaned server
        # still burns down with its home region's power feed.  Scan the
        # training whitelist first, then the inference side, so block
        # adjacency stays whitelist-ordered.
        ids = []
        for cluster in (self.sim.cluster, self.sim.pair.inference):
            for s in cluster.servers:
                if s.home_cluster != region:
                    continue
                if not self.sim.rm.is_healthy(s.server_id):
                    continue
                if s.server_id not in ids:
                    ids.append(s.server_id)
        return ids

    def _choose_block(self, k: int, region: Optional[str] = None) -> List[str]:
        """A contiguous block of ``k`` healthy servers in whitelist order.

        Whitelist order is insertion order, so adjacency approximates
        rack co-location; correlated failures take down neighbours.
        """
        healthy = self._healthy_server_ids(region)
        if not healthy:
            return []
        if len(healthy) <= k:
            return healthy
        anchor = self._rng_target.randrange(len(healthy))
        start = min(anchor, len(healthy) - k)
        return healthy[start:start + k]

    def _fail_block(
        self, count: int, repair_time: float, kind: str,
        region: Optional[str] = None,
    ) -> None:
        block = self._choose_block(count, region=region)
        if not block:
            # nothing healthy left to kill (or the region names no
            # servers in this topology): recorded, never silent
            self.sim.record_failure_noop("no_healthy_servers")
        for server_id in block:
            self.sim.apply_node_failure(server_id, repair_time)
        self._audit(kind)

    def _process_fire(self) -> None:
        process = self.plan.process
        self._fail_block(process.correlated, process.repair_time, "process")
        self._arm_process()

    def _arm_process(self) -> None:
        sim = self.sim
        if sim.drained:
            return
        delay = self._rng_process.expovariate(1.0 / self.plan.process.mtbf)
        sim.engine.schedule_after(delay, ("fault", "process"))

    def _outage(self, index: int) -> None:
        outage = self.plan.outages[index]
        region = outage.region
        extra = {"region": region} if region is not None else {}
        self.sim.trace(
            "fault.outage", servers=outage.servers,
            repair_time=outage.repair_time, **extra,
        )
        # provenance: tag the next epoch with the fault-plan cause
        self.sim.note_trigger(
            TRIGGER_FAULT, fault="outage", servers=outage.servers, **extra,
        )
        self._fail_block(
            outage.servers, outage.repair_time, "outage", region=region
        )

    # ------------------------------------------------------------------
    # stragglers
    # ------------------------------------------------------------------
    def _straggler_start(self, index: int) -> None:
        straggler = self.plan.stragglers[index]
        block = self._choose_block(straggler.servers)
        if not block:
            self.sim.record_failure_noop("no_healthy_servers")
            return
        for server_id in block:
            self.sim.set_server_degradation(server_id, straggler.factor)
        self.sim.trace(
            "fault.straggler_start", servers=block, factor=straggler.factor,
            duration=straggler.duration,
        )
        self.sim.note_trigger(
            TRIGGER_FAULT, fault="straggler", servers=len(block),
            factor=straggler.factor,
        )
        self.sim.metrics.registry.counter("resilience.stragglers").inc(
            len(block)
        )
        self.sim.engine.schedule_after(
            straggler.duration, ("fault", "straggler_end", tuple(block))
        )
        self._audit("straggler")

    def _straggler_end(self, block: Tuple[str, ...]) -> None:
        for server_id in block:
            self.sim.set_server_degradation(server_id, None)
        self.sim.trace("fault.straggler_end", servers=list(block))
        self._audit("straggler")

    # ------------------------------------------------------------------
    # flash crowds
    # ------------------------------------------------------------------
    def _flash_crowd_marker(self, index: int) -> None:
        """The overlay is baked into the trace; this event just marks the
        spike's onset in the event trace and audits the reclaim storm."""
        crowd = self.plan.flash_crowds[index]
        self.sim.trace(
            "fault.flash_crowd", magnitude=crowd.magnitude,
            duration=crowd.duration,
        )
        self.sim.note_trigger(
            TRIGGER_FAULT, fault="flash_crowd", magnitude=crowd.magnitude,
            duration=crowd.duration,
        )
        self.sim.metrics.registry.counter("resilience.flash_crowds").inc()

    # ------------------------------------------------------------------
    # predictor faults
    # ------------------------------------------------------------------
    def _predictor_down(self, now: float) -> bool:
        """The orchestrator's ``predictor_down`` hook: inside an outage
        window of the plan."""
        return any(
            o.at <= now < o.at + o.duration
            for o in self.plan.predictor_outages
        )

    def _biased_forecast(self, history) -> float:
        """The orchestrator's ``predictor`` while the plan biases it:
        the real forecast, scaled inside a bias window."""
        value = float(self._predictor_orig(history))
        now = self.sim.now
        for bias in self.plan.predictor_biases:
            if bias.at <= now < bias.at + bias.duration:
                self.sim.metrics.registry.counter(
                    "resilience.predictor_biased_ticks"
                ).inc()
                return value * bias.factor
        return value

    # ------------------------------------------------------------------
    # transient launch failures
    # ------------------------------------------------------------------
    def _launch_gate(self, job, server, workers) -> None:
        """The resource manager's ``launch_gate``: fail a launch with
        the plan's probability, retrying with the plan's backoff."""
        sim = self.sim
        failures = self.plan.launch_failures
        retry = self.plan.retry
        rng = self._rng_launch
        registry = sim.metrics.registry
        if failures.until is not None and sim.now >= failures.until:
            return
        for attempt in range(retry.max_attempts):
            if rng.random() >= failures.probability:
                if attempt:
                    backoff = sum(
                        retry.delay(i, rng) for i in range(attempt)
                    )
                    registry.counter("resilience.launch_retries").inc(
                        attempt
                    )
                    registry.histogram(
                        "resilience.launch_backoff_s"
                    ).observe(backoff)
                    sim.trace(
                        "recovery.launch_retried", job_id=job.job_id,
                        server_id=server.server_id,
                        attempts=attempt + 1,
                        backoff_s=round(backoff, 3),
                    )
                return
        registry.counter("resilience.launch_failures").inc()
        sim.trace(
            "fault.launch_failed", job_id=job.job_id,
            server_id=server.server_id, attempts=retry.max_attempts,
        )
        raise TransientLaunchError(
            f"launch of job {job.job_id} on {server.server_id} failed "
            f"{retry.max_attempts} attempts"
        )

    # ------------------------------------------------------------------
    def _audit(self, cause: str) -> None:
        audit_simulation(self.sim, cause)
        self.audits += 1
