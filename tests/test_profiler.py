"""Tests for the §3 job profiler and its simulator integration."""

import math

import pytest

from repro.cluster.job import JobSpec
from repro.profiler.profiler import JobProfiler
from repro.scenarios import default_setup, run_scheme
from repro.traces.workload import TraceConfig, generate_workload


def spec(job_id=0, duration=1000.0, workers=4, family="generic", **kw):
    return JobSpec(
        job_id=job_id, submit_time=0.0, duration=duration,
        max_workers=workers, model_family=family, **kw,
    )


class TestProfilerLearning:
    def test_cold_start_falls_back_to_prior(self):
        profiler = JobProfiler()
        estimate = profiler.predict(spec())
        assert 60.0 < estimate < 86400.0  # the prior, not garbage

    def test_learns_family_mean(self):
        profiler = JobProfiler()
        for i in range(30):
            profiler.observe(spec(job_id=i, duration=600.0), 600.0)
        assert profiler.predict(spec(duration=600.0)) == pytest.approx(
            600.0, rel=0.35
        )

    def test_distinguishes_families(self):
        profiler = JobProfiler()
        for i in range(40):
            profiler.observe(
                spec(job_id=i, duration=300.0, family="generic"), 300.0
            )
            profiler.observe(
                spec(job_id=i, duration=30000.0, family="resnet",
                     workers=8, min_workers=4, elastic=True,
                     gpus_per_worker=2),
                30000.0,
            )
        short = profiler.predict(spec(family="generic", duration=300.0))
        long = profiler.predict(
            spec(family="resnet", duration=30000.0, workers=8,
                 min_workers=4, elastic=True, gpus_per_worker=2)
        )
        assert long > short * 5

    def test_regression_uses_job_shape(self):
        # Within one family, duration scales with worker count; the
        # ridge term should pick the trend up.
        profiler = JobProfiler(refit_every=8)
        for i in range(64):
            workers = 1 + (i % 8)
            profiler.observe(
                spec(job_id=i, duration=200.0 * workers, workers=workers),
                200.0 * workers,
            )
        small = profiler.predict(spec(workers=1, duration=200.0))
        big = profiler.predict(spec(workers=8, duration=1600.0))
        assert big > small

    def test_estimate_error_definition(self):
        profiler = JobProfiler()
        for i in range(20):
            profiler.observe(spec(job_id=i, duration=1000.0), 1000.0)
        target = spec(duration=500.0)
        assert profiler.estimate_error(target) == pytest.approx(
            profiler.predict(target) / 500.0
        )

    def test_error_improves_with_data(self):
        config = TraceConfig(num_jobs=400, days=2.0, cluster_gpus=256,
                             seed=31)
        specs = generate_workload(config).specs
        profiler = JobProfiler()

        def mean_abs_log_error():
            return sum(
                abs(math.log(profiler.estimate_error(s))) for s in specs[200:]
            ) / len(specs[200:])

        cold = mean_abs_log_error()
        for s in specs[:200]:
            profiler.observe(s, s.duration)
        assert mean_abs_log_error() < cold

    def test_validation(self):
        with pytest.raises(ValueError):
            JobProfiler(ridge=0.0)
        with pytest.raises(ValueError):
            JobProfiler(refit_every=0)
        with pytest.raises(ValueError):
            JobProfiler().observe(spec(), 0.0)


class TestSimulatorIntegration:
    def test_profiled_run_completes_and_stays_competitive(self):
        setup = default_setup(num_jobs=250, days=1.0, training_servers=12,
                              inference_servers=14, seed=29,
                              target_load=1.0)
        oracle = run_scheme(setup, "lyra_scaling")
        profiled = run_scheme(
            setup, "lyra_scaling",
            sim_overrides={"use_profiler": True},
        )
        baseline = run_scheme(setup, "baseline")
        assert profiled.completion_ratio() == 1.0
        # Table 9's robustness story, organically: profiler-driven
        # estimates keep most of the oracle's gain over the Baseline.
        assert (
            profiled.queuing_summary().mean
            < baseline.queuing_summary().mean
        )
        assert (
            profiled.jct_summary().mean
            <= oracle.jct_summary().mean * 1.25
        )

    def test_estimates_visible_to_scheduler(self):
        from repro.cluster.cluster import (
            ClusterPair, make_inference_cluster, make_training_cluster,
        )
        from repro.schedulers.lyra import LyraScheduler
        from repro.simulator.simulation import Simulation, SimulationConfig

        specs = [
            JobSpec(job_id=i, submit_time=i * 100.0, duration=500.0,
                    max_workers=2)
            for i in range(10)
        ]
        pair = ClusterPair(make_training_cluster(2),
                           make_inference_cluster(2))
        sim = Simulation(
            specs, pair, LyraScheduler(),
            config=SimulationConfig(use_profiler=True),
        )
        sim.run()
        assert sim.profiler is not None
        assert sim.profiler.observations == 10
        # later arrivals carried non-oracle estimates
        errors = [sim.jobs[i].estimate_error for i in range(10)]
        assert any(not math.isclose(e, 1.0) for e in errors)
