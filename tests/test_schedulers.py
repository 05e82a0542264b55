"""Tests for the scheduling policies and their distinguishing behaviors."""

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.fifo import (
    FIFOScheduler,
    OpportunisticScheduling,
    SJFScheduler,
)
from repro.schedulers.gandiva import GandivaScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.schedulers.pollux import PolluxScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import ProbedSimulation, loan


def run_policy(policy, specs, training=2, inference=2, **cfg):
    pair = ClusterPair(
        make_training_cluster(training), make_inference_cluster(inference)
    )
    sim = Simulation(specs, pair, policy, config=SimulationConfig(**cfg))
    metrics = sim.run()
    return sim, metrics


def inelastic(job_id, submit=0.0, duration=100.0, workers=2, **kw):
    return JobSpec(job_id=job_id, submit_time=submit, duration=duration,
                   max_workers=workers, **kw)


def elastic(job_id, submit=0.0, duration=100.0, wmin=2, wmax=4, **kw):
    return JobSpec(job_id=job_id, submit_time=submit, duration=duration,
                   max_workers=wmax, min_workers=wmin, elastic=True, **kw)


class TestFIFO:
    def test_serves_in_arrival_order_under_contention(self):
        specs = [
            inelastic(0, submit=0.0, duration=1000.0, workers=16),
            inelastic(1, submit=10.0, duration=5.0, workers=16),
            inelastic(2, submit=5.0, duration=5.0, workers=16),
        ]
        sim, _ = run_policy(FIFOScheduler(), specs)
        # job 2 arrived before job 1 and must start first
        assert sim.jobs[2].first_start_time < sim.jobs[1].first_start_time

    def test_all_jobs_finish(self):
        specs = [inelastic(i, submit=i * 1.0) for i in range(10)]
        sim, metrics = run_policy(FIFOScheduler(), specs)
        assert metrics.completion_ratio() == 1.0


class TestSJF:
    def test_shortest_job_jumps_queue(self):
        specs = [
            inelastic(0, submit=0.0, duration=1000.0, workers=16),
            inelastic(1, submit=5.0, duration=500.0, workers=16),
            inelastic(2, submit=10.0, duration=5.0, workers=16),
        ]
        sim, _ = run_policy(SJFScheduler(), specs)
        assert sim.jobs[2].first_start_time < sim.jobs[1].first_start_time


class TestLyra:
    def test_elastic_job_gets_flexible_workers(self):
        sim, _ = run_policy(LyraScheduler(), [elastic(0, wmin=2, wmax=8)])
        # finished at max speed: duration is defined at wmax
        assert sim.jobs[0].jct == pytest.approx(100.0, abs=2.0)

    def test_mckp_prefers_higher_value_job(self):
        """Two elastic jobs compete for 4 leftover GPUs; the one with
        the bigger JCT reduction per GPU must win them."""
        heavy = elastic(0, duration=1000.0, wmin=2, wmax=6)   # big value
        light = elastic(1, duration=10.0, wmin=2, wmax=6)     # small value
        sim, _ = run_policy(LyraScheduler(), [heavy, light], training=1)
        # 8 GPUs: base 2+2, leftover 4 -> heavy should take all 4
        assert sim.jobs[0].total_workers == 0  # finished by now
        # verify outcome via completion times: heavy ran near max speed
        assert sim.jobs[0].jct < 1000.0 * 6 / 4

    def test_scale_ops_counted(self):
        specs = [
            elastic(0, duration=2000.0, wmin=4, wmax=8),
            inelastic(1, submit=100.0, duration=50.0, workers=4),
        ]
        sim, metrics = run_policy(LyraScheduler(), specs, training=1)
        assert metrics.scale_ops >= 1

    def test_elastic_off_treats_all_as_inelastic(self):
        sim, metrics = run_policy(
            LyraScheduler(), [elastic(0, wmin=2, wmax=8)], elastic=False
        )
        assert metrics.scale_ops == 0
        assert sim.jobs[0].jct == pytest.approx(400.0, abs=5.0)

    @pytest.mark.parametrize("loaned, factor", [(1, 0.7 * 1.08), (0, 1.08)])
    def test_tuning_bonus_multiplies_the_mixed_gpu_penalty(
        self, loaned, factor
    ):
        """Lyra+TunedJobs on a heterogeneous job grown past its base
        demand: the §7.4 bonus and the <=70 % mixed-GPU penalty are two
        factors, so spanning V100 + T4 runs at 0.7 x 1.08 and one GPU
        type at 1.08 — the bonus never overwrites the penalty."""
        pair = ClusterPair(
            make_training_cluster(2 - loaned), make_inference_cluster(2)
        )
        specs = [
            # holds 4 of the first server's 8 GPUs, so with one server on
            # loan the elastic job's 5 base workers straddle both types
            inelastic(0, duration=10_000.0, workers=4),
            elastic(1, submit=10.0, duration=10_000.0, wmin=5, wmax=6,
                    heterogeneous=True),
        ]
        sim = ProbedSimulation(
            specs, pair, LyraScheduler(),
            config=SimulationConfig(tuned_jobs=True),
        )
        loan(sim.rm, loaned)
        seen = {}

        def probe():
            job = sim.jobs[1]
            seen["types"] = {
                sim.cluster.get(sid).gpu_type.name for sid in job.servers
            }
            seen["per_gpu"] = job.throughput() / job.total_workers

        sim.probe(100.0, probe)
        sim.run()
        assert len(seen["types"]) == 1 + loaned
        assert seen["per_gpu"] == pytest.approx(factor)


class TestGandiva:
    def test_grows_only_when_queue_empty(self):
        specs = [
            elastic(0, duration=3000.0, wmin=2, wmax=16),
            inelastic(1, submit=50.0, duration=6000.0, workers=14),
        ]
        sim, _ = run_policy(GandivaScheduler(), specs)
        # with job 1 pending/running, job 0 was grown only while alone;
        # once grown workers are held they are not proactively released.
        assert sim.jobs[0].status is JobStatus.FINISHED

    def test_no_shrink_for_pending_jobs(self):
        # elastic job grows to fill the cluster; a later inelastic job
        # must wait (Gandiva does not scale in to admit).
        specs = [
            elastic(0, duration=2000.0, wmin=2, wmax=16),
            inelastic(1, submit=500.0, duration=50.0, workers=16),
        ]
        sim, metrics = run_policy(GandivaScheduler(), specs)
        job1 = sim.jobs[1]
        job0 = sim.jobs[0]
        assert job1.first_start_time >= job0.finish_time


class TestAFS:
    def test_marginal_allocation_grows_jobs(self):
        sim, metrics = run_policy(AFSScheduler(), [elastic(0, wmin=2, wmax=8)])
        assert sim.jobs[0].jct <= 210.0  # grew beyond base demand

    def test_grows_beyond_declared_range(self):
        # AFS assumes unbounded elasticity (§7.4); alone in a big
        # cluster the job exceeds w_max.
        specs = [elastic(0, duration=5000.0, wmin=2, wmax=4)]
        sim, _ = run_policy(AFSScheduler(), specs)
        job = sim.jobs[0]
        # it cannot have taken the full 5000 * (4/2) seconds at base
        assert job.jct < 5000.0

    def test_smaller_workers_prioritized_per_gpu(self):
        a = AFSScheduler()
        from tests.conftest import make_job
        cheap = make_job(job_id=1, max_workers=4, min_workers=1,
                         gpus_per_worker=1, elastic=True)
        costly = make_job(job_id=2, max_workers=4, min_workers=1,
                          gpus_per_worker=4, elastic=True)
        cheap.record_placement("s", 1, flexible=False)
        costly.record_placement("s", 1, flexible=False)
        assert a._marginal_gain(cheap) > a._marginal_gain(costly)


class TestPollux:
    def make(self, **kw):
        return PolluxScheduler(generations=10, population=8, seed=1, **kw)

    def test_goodput_diminishing_in_surplus(self):
        from tests.conftest import make_job
        job = make_job(max_workers=8, min_workers=2, elastic=True)
        g = [PolluxScheduler.goodput(job, w) for w in range(2, 9)]
        marginal = [b - a for a, b in zip(g, g[1:])]
        assert all(m2 <= m1 + 1e-9 for m1, m2 in zip(marginal, marginal[1:]))

    def test_goodput_decays_with_progress(self):
        from tests.conftest import make_job
        job = make_job(max_workers=4, min_workers=2, elastic=True)
        fresh = PolluxScheduler.goodput(job, 4)
        job.remaining_work = 0.1 * job.spec.total_work
        assert PolluxScheduler.goodput(job, 4) < fresh

    def test_schedules_and_finishes(self):
        specs = [elastic(i, submit=i * 10.0) for i in range(4)]
        sim, metrics = run_policy(self.make(), specs, tuned_jobs=True)
        assert metrics.completion_ratio() == 1.0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PolluxScheduler(generations=0)
        with pytest.raises(ValueError):
            PolluxScheduler(population=1)

    def test_repair_respects_capacity(self):
        pollux = self.make()
        from tests.conftest import make_job
        jobs = [
            make_job(job_id=i, max_workers=8, min_workers=2, elastic=True)
            for i in range(3)
        ]
        pollux._running_ids = set()
        genome = [8, 8, 8]
        pollux._repair(genome, jobs, capacity=10)
        used = sum(w * j.spec.gpus_per_worker for j, w in zip(jobs, genome))
        assert used <= 10


class TestOpportunistic:
    def test_fungible_jobs_wait_for_loaned_servers(self):
        # without any loaned servers, fungible jobs starve while
        # non-fungible ones run on training hardware.
        specs = [
            inelastic(0, duration=50.0, workers=2, fungible=True),
            inelastic(1, duration=50.0, workers=2),
        ]
        pair = ClusterPair(
            make_training_cluster(2), make_inference_cluster(2)
        )
        sim = Simulation(
            specs, pair, OpportunisticScheduling(),
            config=SimulationConfig(drain_limit=3600.0),
        )
        sim.run()
        assert sim.jobs[1].status is JobStatus.FINISHED
        assert sim.jobs[0].status is JobStatus.PENDING
