"""Edge-case tests for scheduler helpers, pools, and simulator limits."""

import json

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.core.allocation import MIXED, Pools, _deduct
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig

from tests.conftest import loan, make_job


def make_sim(specs=(), training=2, inference=2, **cfg):
    pair = ClusterPair(
        make_training_cluster(training), make_inference_cluster(inference)
    )
    return Simulation(
        list(specs), pair, LyraScheduler(), config=SimulationConfig(**cfg)
    )


class TestPoolsDeduct:
    def test_mixed_drains_training_first(self):
        pools = Pools(training=4, onloan=30, onloan_cost=3.0)
        _deduct(pools, MIXED, 6)
        assert pools.training == 0
        assert pools.onloan == 24  # 2 normalized GPUs -> 6 physical

    def test_underflow_raises(self):
        pools = Pools(training=1, onloan=0)
        with pytest.raises(RuntimeError, match="underflow"):
            _deduct(pools, "training", 5)


class TestBaseHelpers:
    def test_free_pools_derives_onloan_cost(self):
        sim = make_sim()
        loan(sim.rm, 1)
        pools = SchedulerPolicy.free_pools(sim)
        assert pools.onloan == 8
        assert pools.onloan_cost == pytest.approx(3.0)

    def test_free_pools_without_loans(self):
        sim = make_sim()
        pools = SchedulerPolicy.free_pools(sim)
        assert pools.onloan == 0
        assert pools.training == 16

    def test_credit_flex_splits_by_domain(self):
        sim = make_sim()
        loan(sim.rm, 1)
        loaned = sim.pair.training.on_loan_servers[0]
        job = make_job(max_workers=8, min_workers=2, elastic=True,
                       fungible=True)
        job.record_placement("train-0000", 1, flexible=True, gpu_cost=1)
        job.record_placement(loaned.server_id, 1, flexible=True,
                             gpu_cost=3, on_loan=True)
        pools = Pools(training=0, onloan=0, onloan_cost=3.0)
        SchedulerPolicy.credit_flex(sim, pools, [job])
        assert pools.training == 1
        assert pools.onloan == 3

    def test_choose_flex_removals_prefers_training(self):
        sim = make_sim()
        loan(sim.rm, 1)
        loaned = sim.pair.training.on_loan_servers[0]
        job = make_job(max_workers=8, min_workers=2, elastic=True,
                       fungible=True)
        job.record_placement("train-0000", 2, flexible=True, gpu_cost=1)
        job.record_placement(loaned.server_id, 2, flexible=True,
                             gpu_cost=3, on_loan=True)
        removals = SchedulerPolicy.choose_flex_removals(sim, job, 2)
        assert removals == {"train-0000": 2}

    def test_choose_flex_removals_spills_to_loaned(self):
        sim = make_sim()
        loan(sim.rm, 1)
        loaned = sim.pair.training.on_loan_servers[0]
        job = make_job(max_workers=8, min_workers=2, elastic=True,
                       fungible=True)
        job.record_placement("train-0000", 1, flexible=True, gpu_cost=1)
        job.record_placement(loaned.server_id, 2, flexible=True,
                             gpu_cost=3, on_loan=True)
        removals = SchedulerPolicy.choose_flex_removals(sim, job, 3)
        assert removals["train-0000"] == 1
        assert removals[loaned.server_id] == 2


class TestSimulatorLimits:
    def test_drain_limit_cuts_off_unfinishable_work(self):
        # a job that can never run (needs loans that never come) must not
        # hang the run: the drain limit bounds it.
        spec = JobSpec(job_id=0, submit_time=0.0, duration=100.0,
                       max_workers=2, fungible=True)
        pair = ClusterPair(make_training_cluster(0),
                           make_inference_cluster(2))
        sim = Simulation(
            [spec], pair, FIFOScheduler(),
            config=SimulationConfig(drain_limit=1800.0),
        )
        metrics = sim.run()
        assert sim.now <= 1800.0 + 1e-6
        assert metrics.completion_ratio() == 0.0

    def test_invalid_intervals_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(scheduler_interval=0)
        with pytest.raises(ValueError):
            SimulationConfig(orchestrator_interval=-5)

    def test_trigger_coalescing(self):
        sim = make_sim()
        sim.trigger_schedule()
        before = sim.engine.pending_events
        sim.trigger_schedule()
        sim.trigger_schedule()
        assert sim.engine.pending_events == before  # coalesced

    def test_empty_trace_runs_cleanly(self):
        metrics = make_sim([]).run()
        assert metrics.submissions == 0
        assert metrics.jct_summary().count == 0

    def test_simultaneous_arrivals_all_served(self):
        specs = [
            JobSpec(job_id=i, submit_time=0.0, duration=50.0, max_workers=1)
            for i in range(16)
        ]
        sim = make_sim(specs)
        sim.run()
        assert all(
            j.status is JobStatus.FINISHED for j in sim.jobs.values()
        )

    def test_rescale_requires_progress_bank(self):
        # rescale() advances before retiming: a job scaled twice in one
        # instant must not double-count progress.
        spec = JobSpec(job_id=0, submit_time=0.0, duration=400.0,
                       max_workers=8, min_workers=2, elastic=True)
        sim = make_sim([spec], training=1)
        sim.run()
        job = sim.jobs[0]
        assert job.remaining_work <= 1e-3 * job.spec.total_work


class TestBenchUtilScale:
    def test_unknown_scale_rejected(self, monkeypatch):
        from benchmarks import bench_util

        monkeypatch.setenv("REPRO_SCALE", "galactic")
        with pytest.raises(ValueError, match="REPRO_SCALE"):
            bench_util.scale_name()

    def test_default_scale_small(self, monkeypatch):
        from benchmarks import bench_util

        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_util.scale_name() == "small"


class TestBenchScaleBaseline:
    def test_changed_activity_log_fails_the_baseline(self, tmp_path):
        """The scale bench's baseline pins behaviour as well as latency:
        a cell whose activity log moved fails even when it got faster."""
        from benchmarks.bench_scale import check_baseline

        cell = {"servers": 48, "jobs": 500, "scheme": "fifo",
                "mean_ms": 0.1, "sha256": "a" * 64}
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"cells": [cell]}))
        assert check_baseline([dict(cell, mean_ms=0.05)], str(path)) == []
        moved = check_baseline(
            [dict(cell, mean_ms=0.05, sha256="b" * 64)], str(path)
        )
        assert len(moved) == 1 and "sha256" in moved[0]
        assert check_baseline([dict(cell, mean_ms=0.3)], str(path))
