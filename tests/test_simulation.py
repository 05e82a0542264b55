"""Behavioral tests for the discrete-event simulation."""

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.core.actions import PlanTransaction
from repro.scenarios import build_sim, default_setup
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.events import EventKind
from repro.simulator.simulation import Simulation, SimulationConfig


def pair(training=2, inference=2):
    return ClusterPair(
        make_training_cluster(training), make_inference_cluster(inference)
    )


def spec(job_id=0, submit=0.0, duration=100.0, workers=2, **kw):
    return JobSpec(
        job_id=job_id, submit_time=submit, duration=duration,
        max_workers=workers, **kw,
    )


def run(specs, policy=None, p=None, config=None, **kw):
    sim = Simulation(
        specs,
        p or pair(),
        policy or FIFOScheduler(),
        config=config or SimulationConfig(record_activities=True),
        **kw,
    )
    metrics = sim.run()
    return sim, metrics


class TestSingleJob:
    def test_runs_exactly_its_duration(self):
        sim, metrics = run([spec(duration=500.0)])
        job = sim.jobs[0]
        assert job.status is JobStatus.FINISHED
        assert job.jct == pytest.approx(500.0, abs=1.0)
        assert job.queuing_time == pytest.approx(0.0, abs=1.0)

    def test_cluster_empty_after_finish(self):
        sim, _ = run([spec()])
        assert sim.cluster.used_gpus == 0

    def test_activity_log_records_lifecycle(self):
        sim, _ = run([spec()])
        kinds = [a.kind for a in sim.activities if a.job_id == 0]
        assert kinds[0] is EventKind.SUBMIT
        assert EventKind.START in kinds
        assert kinds[-1] is EventKind.FINISH

    def test_submit_before_start_ordering(self):
        sim, _ = run([spec(submit=100.0)])
        job = sim.jobs[0]
        assert job.first_start_time >= 100.0


class TestQueueing:
    def test_second_job_waits_for_capacity(self):
        # Two 16-GPU jobs on a 16-GPU cluster: strictly serial.
        specs = [
            spec(job_id=0, duration=300.0, workers=16),
            spec(job_id=1, submit=1.0, duration=300.0, workers=16),
        ]
        sim, metrics = run(specs)
        first, second = sim.jobs[0], sim.jobs[1]
        assert first.queuing_time == pytest.approx(0.0, abs=1.0)
        assert second.queuing_time >= 290.0
        assert second.first_start_time >= first.finish_time

    def test_backfill_lets_small_job_pass(self):
        # Job 0 holds 15 of 16 GPUs; job 1 (16 GPUs) is blocked but the
        # 1-GPU job 2 backfills into the remaining slot immediately.
        specs = [
            spec(job_id=0, duration=300.0, workers=15),
            spec(job_id=1, submit=1.0, duration=300.0, workers=16),
            spec(job_id=2, submit=2.0, duration=50.0, workers=1),
        ]
        sim, _ = run(specs)
        assert sim.jobs[2].first_start_time < sim.jobs[1].first_start_time
        assert sim.jobs[2].queuing_time < 60.0

    def test_hourly_queuing_ratio(self):
        specs = [
            spec(job_id=0, duration=5000.0, workers=16),
            spec(job_id=1, submit=10.0, duration=100.0, workers=16),
        ]
        _, metrics = run(specs)
        # both submitted in hour 0; job 1 queued -> ratio 0.5
        assert metrics.hourly_queuing_ratio[0] == pytest.approx(0.5)

    #: per hour, (arrivals still queued after their first epoch,
    #: arrivals), as the per-epoch scan of the whole queue and running
    #: set produced them before it became a walk over the arrivals
    PINNED_HOURLY = {
        "lyra": (
            dict(num_jobs=60, days=0.5, training_servers=6,
                 inference_servers=8, seed=0),
            0,
            [(1, 4), (0, 5), (0, 3), (0, 3), (0, 3), (0, 7), (0, 2), (0, 3),
             (0, 7), (1, 3), (6, 10), (2, 10)],
        ),
        # reclaims preempt here: a preempted job is back in the queue
        # but is not a first attempt, and must not be counted again
        "opportunistic": (
            dict(num_jobs=90, days=1.0, training_servers=6,
                 inference_servers=8, seed=0, target_load=3.0),
            9,
            [(1, 2), (1, 5), (0, 1), (0, 2), (1, 2), (2, 4), (1, 4), (2, 5),
             (2, 7), (2, 2), (2, 6), (6, 9), (6, 8), (2, 2), (3, 5), (0, 1),
             (6, 6), (1, 4), (1, 4), (1, 1), (1, 4), (0, 1), (2, 5)],
        ),
    }

    @pytest.mark.parametrize("scheme", sorted(PINNED_HOURLY))
    def test_hourly_queuing_ratio_pinned_on_seeded_runs(self, scheme):
        setup_kw, preemptions, hourly = self.PINNED_HOURLY[scheme]
        metrics = build_sim(default_setup(**setup_kw), scheme).run()
        assert metrics.preemptions == preemptions
        assert metrics.hourly_queuing_ratio == [q / n for q, n in hourly]

    def test_oversized_job_clamped_to_cluster(self):
        # 100 workers x 1 GPU on a 16-GPU cluster: clamped, same work.
        big = spec(job_id=0, duration=10.0, workers=100)
        sim, _ = run([big])
        job = sim.jobs[0]
        assert job.spec.max_workers == 16
        assert job.spec.total_work == pytest.approx(1000.0)
        assert job.status is JobStatus.FINISHED


class TestElasticLifecycle:
    def elastic_spec(self, job_id=0, submit=0.0, duration=100.0):
        return JobSpec(
            job_id=job_id, submit_time=submit, duration=duration,
            max_workers=8, min_workers=4, elastic=True, gpus_per_worker=1,
        )

    def test_elastic_job_scaled_to_max_when_alone(self):
        sim, metrics = run([self.elastic_spec()], policy=LyraScheduler())
        job = sim.jobs[0]
        # alone in the cluster, the MCKP grants full flexible demand
        assert job.jct == pytest.approx(100.0, abs=2.0)
        assert metrics.scale_ops == 0 or job.preemptions == 0

    def test_elastic_disabled_runs_at_base(self):
        config = SimulationConfig(elastic=False)
        sim, _ = run([self.elastic_spec()], policy=LyraScheduler(),
                     config=config)
        job = sim.jobs[0]
        # at base demand (4 of 8 workers) the job takes twice as long
        assert job.jct == pytest.approx(200.0, abs=2.0)

    def test_scale_in_frees_capacity_for_inelastic(self):
        # elastic job holds the whole 8-GPU cluster; an inelastic
        # arrival forces it back toward base demand.
        specs = [
            self.elastic_spec(job_id=0, duration=2000.0),
            spec(job_id=1, submit=100.0, duration=100.0, workers=4),
        ]
        sim, metrics = run(specs, policy=LyraScheduler(),
                           p=pair(training=1))
        inelastic = sim.jobs[1]
        assert inelastic.status is JobStatus.FINISHED
        # it did not wait for the elastic job to finish
        assert inelastic.first_start_time < 1000.0
        assert metrics.scale_ops >= 1

    def test_sublinear_scaling_slows_elastic_job(self):
        config = SimulationConfig(scaling_model="sublinear20")
        sim, _ = run([self.elastic_spec()], policy=LyraScheduler(),
                     config=config)
        linear_sim, _ = run([self.elastic_spec()], policy=LyraScheduler())
        assert sim.jobs[0].jct > linear_sim.jobs[0].jct


class TestPreemption:
    def test_preempt_requeues_and_restarts(self):
        sim = Simulation(
            [spec(duration=400.0)], pair(), FIFOScheduler(),
            config=SimulationConfig(),
        )
        preempted = {}

        def preempt_at_100():
            job = sim.jobs[0]
            preempted["workers"] = job.total_workers
            sim.preempt(job)

        sim.engine.schedule(100.0, preempt_at_100)
        sim.run()
        job = sim.jobs[0]
        assert job.preemptions == 1
        assert job.status is JobStatus.FINISHED
        # restart from scratch + 63 s overhead
        assert job.jct == pytest.approx(100.0 + 400.0 + 63.0, abs=2.0)

    def test_preempt_with_checkpoint_resumes(self):
        sim = Simulation(
            [spec(duration=400.0, checkpointing=True)], pair(),
            FIFOScheduler(), config=SimulationConfig(),
        )
        sim.engine.schedule(100.0, lambda: sim.preempt(sim.jobs[0]))
        sim.run()
        job = sim.jobs[0]
        assert job.jct == pytest.approx(400.0 + 63.0, abs=2.0)

    def test_preempting_not_running_raises(self):
        sim = Simulation([spec(submit=50.0)], pair(), FIFOScheduler())
        with pytest.raises(RuntimeError):
            sim.preempt(sim.jobs[0])


class TestUsageSampling:
    def test_training_usage_sampled(self):
        # A second late arrival keeps the sampling window open (samples
        # cover the trace window, i.e. up to the last arrival).
        specs = [
            spec(job_id=0, duration=2000.0, workers=8),
            spec(job_id=1, submit=1500.0, duration=10.0, workers=1),
        ]
        _, metrics = run(specs)
        assert metrics.training_usage.values
        assert max(metrics.training_usage.values) >= 0.5

    def test_stale_completion_events_ignored(self):
        # Rescheduling a job's completion must not fire the old event.
        sim = Simulation(
            [JobSpec(job_id=0, submit_time=0, duration=100, max_workers=8,
                     min_workers=4, elastic=True)],
            pair(), LyraScheduler(), config=SimulationConfig(),
        )
        sim.run()
        job = sim.jobs[0]
        assert job.status is JobStatus.FINISHED
        assert job.remaining_work <= 1e-3


class TestActivateGuards:
    def test_activate_below_base_demand_raises(self):
        sim = Simulation([spec(workers=4)], pair(), FIFOScheduler())
        job = sim.jobs[0]
        sim.pending.append(job)
        job.record_placement("train-0000", 2, flexible=False)
        txn = PlanTransaction(sim, "test")
        with pytest.raises(RuntimeError, match="base demand"):
            txn.activate(job)
        txn.abort()
        assert sim.rm.journal is None
