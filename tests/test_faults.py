"""Tests for the repro.faults fault-injection subsystem."""

import json
import subprocess
import sys

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.faults import (
    BUILTIN_PLANS,
    DegradedLoaning,
    FaultPlan,
    FlashCrowd,
    InvariantViolation,
    LaunchFailures,
    NodeFailureProcess,
    NodeOutage,
    PredictorOutage,
    RetryPolicy,
    Straggler,
    resilience_snapshot,
    resolve_plan,
    verify_scheduler_invariants,
)
from repro.scenarios import default_setup, run_scheme
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.traces.inference import InferenceTrace


def pair(training=3, inference=2):
    return ClusterPair(
        make_training_cluster(training), make_inference_cluster(inference)
    )


def spec(job_id=0, submit=0.0, duration=1000.0, workers=2, **kw):
    return JobSpec(
        job_id=job_id, submit_time=submit, duration=duration,
        max_workers=workers, **kw,
    )


def run(specs, plan, p=None, **kw):
    sim = Simulation(
        specs, p or pair(), LyraScheduler(),
        config=SimulationConfig(fault_plan=plan), **kw,
    )
    metrics = sim.run()
    return sim, metrics


def small_setup(seed=0):
    return default_setup(
        num_jobs=50, days=0.5, training_servers=6, inference_servers=8,
        seed=seed,
    )


# ----------------------------------------------------------------------
# plan spec
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trip_every_builtin(self):
        for name in ("none", "node-churn", "rack-outage", "flash-crowd",
                     "stragglers", "chaos"):
            plan = resolve_plan(name)
            assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"name": "x", "mtbf": 100.0})

    def test_field_validation(self):
        with pytest.raises(ValueError, match="mtbf"):
            NodeFailureProcess(mtbf=-1.0)
        with pytest.raises(ValueError, match="correlated"):
            NodeFailureProcess(mtbf=100.0, correlated=0)
        with pytest.raises(ValueError, match="factor"):
            Straggler(at=0.0, duration=10.0, factor=1.5)
        with pytest.raises(ValueError, match="magnitude"):
            FlashCrowd(at=0.0, duration=10.0, magnitude=0.0)
        with pytest.raises(ValueError, match="probability"):
            LaunchFailures(probability=2.0)

    def test_is_empty(self):
        assert resolve_plan("none").is_empty()
        assert not resolve_plan("chaos").is_empty()
        # retry/degraded policies alone do not make a plan non-empty
        assert FaultPlan(retry=RetryPolicy(max_attempts=9),
                         degraded=DegradedLoaning(headroom=0.5)).is_empty()

    def test_from_file_json(self, tmp_path):
        plan = resolve_plan("rack-outage")
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_dict()))
        assert FaultPlan.from_file(str(path)) == plan

    def test_from_file_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        plan = resolve_plan("stragglers")
        path = tmp_path / "plan.yaml"
        path.write_text(yaml.safe_dump(plan.to_dict()))
        assert FaultPlan.from_file(str(path)) == plan

    def test_resolve_plan(self, tmp_path):
        assert resolve_plan("chaos") is BUILTIN_PLANS["chaos"]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(resolve_plan("none").to_dict()))
        assert resolve_plan(str(path)) == resolve_plan("none")
        with pytest.raises(ValueError, match="neither"):
            resolve_plan("not-a-plan")

    def test_with_seed_and_legacy(self):
        """``with_seed`` copies; a bare failure process (all the CLI's
        ``--node-mtbf`` builds) is a non-empty plan."""
        plan = resolve_plan("chaos").with_seed(42)
        assert plan.seed == 42
        assert resolve_plan("chaos").seed == 0  # original untouched
        mtbf_only = FaultPlan(
            name="node-mtbf", seed=3,
            process=NodeFailureProcess(mtbf=7200.0, repair_time=600.0),
        )
        assert not mtbf_only.is_empty()


class TestRetryPolicy:
    def test_delays_grow_exponentially_and_cap(self):
        policy = RetryPolicy(base_delay=5.0, factor=2.0, max_delay=15.0,
                             jitter=0.0)

        class FixedRng:
            @staticmethod
            def random():
                return 0.5

        assert policy.delay(0, FixedRng) == 5.0
        assert policy.delay(1, FixedRng) == 10.0
        assert policy.delay(2, FixedRng) == 15.0  # capped
        assert policy.delay(5, FixedRng) == 15.0

    def test_jitter_bounded(self):
        import random

        policy = RetryPolicy(base_delay=10.0, factor=1.0, max_delay=10.0,
                             jitter=0.1)
        rng = random.Random(0)
        for attempt in range(50):
            delay = policy.delay(0, rng)
            assert 9.0 <= delay <= 11.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# zero-cost-when-off
# ----------------------------------------------------------------------
class TestZeroCost:
    def test_empty_plan_is_bit_identical_to_no_plan(self):
        specs = [spec(job_id=i, submit=i * 100.0) for i in range(6)]
        sim_a, m_a = run(specs, resolve_plan("none"))
        sim_b = Simulation(
            [spec(job_id=i, submit=i * 100.0) for i in range(6)],
            pair(), LyraScheduler(), config=SimulationConfig(),
        )
        m_b = sim_b.run()
        assert [(j.job_id, j.jct) for j in m_a.jobs] == [
            (j.job_id, j.jct) for j in m_b.jobs
        ]
        assert json.dumps(m_a.registry.snapshot(), sort_keys=True) == (
            json.dumps(m_b.registry.snapshot(), sort_keys=True)
        )

    def test_fault_free_run_never_imports_faults(self):
        code = (
            "import sys\n"
            "from repro.scenarios import default_setup, run_scheme\n"
            "setup = default_setup(num_jobs=10, days=0.2,"
            " training_servers=4, inference_servers=4, seed=0)\n"
            "run_scheme(setup, 'lyra')\n"
            "loaded = [m for m in sys.modules"
            " if m.startswith('repro.faults')]\n"
            "assert not loaded, loaded\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True)


# ----------------------------------------------------------------------
# injector behavior
# ----------------------------------------------------------------------
class TestInjector:
    def test_outage_kills_exactly_the_block(self):
        plan = FaultPlan(
            name="t", outages=(NodeOutage(at=200.0, servers=2,
                                          repair_time=300.0),),
        )
        specs = [spec(job_id=i, submit=0.0, duration=2000.0, workers=4)
                 for i in range(3)]
        sim, metrics = run(specs, plan, p=pair(training=4))
        assert metrics.node_failures == 2
        sim.rm.verify_books()
        assert all(j.status is JobStatus.FINISHED for j in sim.jobs.values())

    def test_straggler_stretches_the_job(self):
        # One server, one job, straggler window covering the whole run
        # at factor 0.5: the job takes ~2x its ideal duration.
        plan = FaultPlan(
            name="t",
            stragglers=(Straggler(at=0.0, duration=10000.0, factor=0.5),),
        )
        sim, _ = run([spec(duration=1000.0)], plan, p=pair(training=1))
        job = sim.jobs[0]
        assert job.status is JobStatus.FINISHED
        assert job.jct == pytest.approx(2000.0, rel=0.05)

    def test_straggler_window_end_restores_full_speed(self):
        # Window covers the first 500 s at factor 0.5: 250 s of work done
        # slow, 750 s at full speed -> ~1250 s total.
        plan = FaultPlan(
            name="t",
            stragglers=(Straggler(at=0.0, duration=500.0, factor=0.5),),
        )
        sim, _ = run([spec(duration=1000.0)], plan, p=pair(training=1))
        assert sim.jobs[0].jct == pytest.approx(1250.0, rel=0.05)

    def test_with_spikes_overlay(self):
        trace = InferenceTrace(utilization=[0.5] * 12, num_servers=10)
        spiked = trace.with_spikes([(600.0, 900.0, 0.3)])
        # samples 2..4 cover [600, 1500)
        assert list(spiked.utilization[:2]) == [0.5, 0.5]
        assert list(spiked.utilization[2:5]) == pytest.approx([0.8] * 3)
        assert list(spiked.utilization[5:]) == [0.5] * 7
        # original untouched; clipping respected
        assert list(trace.utilization) == [0.5] * 12
        clipped = trace.with_spikes([(0.0, 3600.0, 0.9)])
        assert max(clipped.utilization) == 1.0

    def test_flash_crowd_forces_reclaims(self):
        setup = small_setup()
        base = run_scheme(setup, "lyra")
        plan = FaultPlan(
            name="t",
            flash_crowds=(FlashCrowd(at=4 * 3600.0, duration=3600.0,
                                     magnitude=0.9),),
        )
        crowd = run_scheme(setup, "lyra", sim_overrides={"fault_plan": plan})
        assert (
            crowd.registry.counter("resilience.flash_crowds").value == 1
        )
        # the spike shrinks loanable capacity: more reclaim pressure
        # (or at minimum, no more loaned capacity than the calm run)
        assert len(crowd.reclaim_ops) >= len(base.reclaim_ops)

    def test_predictor_outage_degrades_loaning(self):
        plan = FaultPlan(
            name="t",
            predictor_outages=(
                PredictorOutage(at=0.0, duration=12 * 3600.0),
            ),
        )
        metrics = run_scheme(
            small_setup(), "lyra", sim_overrides={"fault_plan": plan}
        )
        assert metrics.registry.counter("resilience.degraded_ticks").value > 0

    def test_launch_failures_retry_and_jobs_finish(self):
        plan = FaultPlan(
            name="t", launch_failures=LaunchFailures(probability=0.5),
        )
        specs = [spec(job_id=i, submit=i * 50.0, duration=800.0)
                 for i in range(8)]
        sim, metrics = run(specs, plan)
        assert all(j.status is JobStatus.FINISHED for j in sim.jobs.values())
        assert metrics.registry.counter("resilience.launch_retries").value > 0
        sim.rm.verify_books()

    def test_double_failure_is_recorded_noop(self):
        sim = Simulation(
            [spec(duration=5000.0)], pair(), LyraScheduler(),
            config=SimulationConfig(),
        )
        server_id = sim.cluster.servers[0].server_id

        def fail_twice():
            assert sim.apply_node_failure(server_id, repair_time=None)
            assert not sim.apply_node_failure(server_id, repair_time=None)
            assert not sim.apply_node_failure("no-such-server")

        sim.engine.schedule(100.0, fail_twice)
        metrics = sim.run()
        assert metrics.node_failures == 1
        noop = metrics.registry.counter(
            "resilience.node_failure_noop", reason="already_unhealthy"
        )
        assert noop.value == 1
        unknown = metrics.registry.counter(
            "resilience.node_failure_noop", reason="unknown_server"
        )
        assert unknown.value == 1

    def test_chaos_runs_audit_after_fault_events(self):
        metrics = run_scheme(
            small_setup(), "lyra",
            sim_overrides={"fault_plan": resolve_plan("node-churn")},
        )
        snap = resilience_snapshot(metrics)
        assert snap["audits"] > 0
        assert snap["node_failures"] > 0


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_chaos_snapshot_is_byte_identical(self):
        setup = small_setup()
        plan = resolve_plan("chaos")
        snaps = []
        for _ in range(2):
            metrics = run_scheme(
                setup, "lyra", sim_overrides={"fault_plan": plan}
            )
            snaps.append(json.dumps(
                resilience_snapshot(metrics, plan=plan), sort_keys=True
            ))
        assert snaps[0] == snaps[1]

    def test_different_seeds_differ(self):
        setup = small_setup()
        runs = {}
        for seed in (0, 1):
            plan = resolve_plan("node-churn").with_seed(seed)
            metrics = run_scheme(
                setup, "lyra", sim_overrides={"fault_plan": plan}
            )
            runs[seed] = json.dumps(
                resilience_snapshot(metrics), sort_keys=True
            )
        assert runs[0] != runs[1]

    def test_legacy_mtbf_path_is_deterministic(self):
        def go():
            specs = [spec(job_id=i, submit=i * 50.0, duration=1500.0)
                     for i in range(6)]
            sim = Simulation(
                specs, pair(), LyraScheduler(),
                config=SimulationConfig(fault_plan=FaultPlan(
                    name="node-mtbf", seed=3,
                    process=NodeFailureProcess(mtbf=1000.0,
                                               repair_time=600.0),
                )),
            )
            m = sim.run()
            return (m.node_failures, m.jct_summary().mean)

        assert go() == go()


# ----------------------------------------------------------------------
# invariant audit
# ----------------------------------------------------------------------
class TestAudit:
    def test_clean_simulation_passes(self):
        sim, _ = run([spec()], resolve_plan("none"))
        verify_scheduler_invariants(sim)

    def test_detects_running_pending_overlap(self):
        sim = Simulation(
            [spec(duration=5000.0)], pair(), LyraScheduler(),
            config=SimulationConfig(),
        )

        def corrupt():
            job = next(iter(sim.running.values()))
            sim.pending.append(job)
            with pytest.raises(InvariantViolation, match="both running"):
                verify_scheduler_invariants(sim)
            sim.pending.remove(job)

        sim.engine.schedule(100.0, corrupt)
        sim.run()

    def test_detects_pending_with_placement(self):
        sim = Simulation(
            [spec(duration=5000.0)], pair(), LyraScheduler(),
            config=SimulationConfig(),
        )

        def corrupt():
            job = next(iter(sim.running.values()))
            saved_status = job.status
            job.status = JobStatus.PENDING
            del sim.running[job.job_id]
            sim.pending.append(job)
            with pytest.raises(InvariantViolation, match="holds placement"):
                verify_scheduler_invariants(sim)
            sim.pending.remove(job)
            sim.running[job.job_id] = job
            job.status = saved_status

        sim.engine.schedule(100.0, corrupt)
        sim.run()
