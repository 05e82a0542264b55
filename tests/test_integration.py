"""End-to-end integration tests: cross-module invariants and headline
paper claims on seeded synthetic workloads."""

import pytest

from repro.cluster.job import JobStatus
from repro.scenarios import default_setup, run_scheme
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import ProbedSimulation


@pytest.fixture(scope="module")
def setup():
    return default_setup(
        num_jobs=400, days=1.5, training_servers=16, inference_servers=20,
        seed=42, target_load=1.0,
    )


@pytest.fixture(scope="module")
def baseline(setup):
    return run_scheme(setup, "baseline")


@pytest.fixture(scope="module")
def lyra(setup):
    return run_scheme(setup, "lyra")


class TestHeadlineClaims:
    """Directional reproduction of §7's highlights on a small trace."""

    def test_lyra_reduces_mean_queuing(self, baseline, lyra):
        assert lyra.queuing_summary().mean < baseline.queuing_summary().mean

    def test_lyra_reduces_mean_jct(self, baseline, lyra):
        assert lyra.jct_summary().mean < baseline.jct_summary().mean

    def test_lyra_improves_overall_usage(self, baseline, lyra):
        assert lyra.overall_usage.mean() > baseline.overall_usage.mean()

    def test_loaning_alone_reduces_queuing(self, setup, baseline):
        loaning = run_scheme(setup, "lyra_loaning")
        assert (
            loaning.queuing_summary().mean < baseline.queuing_summary().mean
        )

    def test_scaling_alone_reduces_jct(self, setup, baseline):
        scaling = run_scheme(setup, "lyra_scaling")
        assert scaling.jct_summary().mean < baseline.jct_summary().mean

    def test_lyra_reclaimer_beats_random_on_preemptions(self, setup):
        ours = run_scheme(setup, "lyra_loaning", seed=1)
        rand = run_scheme(setup, "random_loaning", seed=1)
        assert ours.preemption_ratio <= rand.preemption_ratio

    def test_elastic_scaling_reduces_preemptions_vs_loaning_only(self, setup):
        # §7.2 "how scaling helps capacity loaning": flexible server
        # groups absorb reclaim demand.
        full = run_scheme(setup, "lyra", seed=1)
        loaning_only = run_scheme(setup, "lyra_loaning", seed=1)
        assert full.preemption_ratio <= loaning_only.preemption_ratio

    def test_checkpointing_reduces_jct_under_preemption(self, setup):
        from repro.scenarios import apply_scenario, with_checkpointing_fraction

        base_specs = apply_scenario(setup.workload.specs, "basic")
        ckpt_specs = with_checkpointing_fraction(base_specs, 1.0, seed=0)
        without = run_scheme(setup, "lyra_loaning", specs=base_specs, seed=2)
        with_ckpt = run_scheme(setup, "lyra_loaning", specs=ckpt_specs, seed=2)
        if without.preemptions:
            assert (
                with_ckpt.jct_summary().mean <= without.jct_summary().mean
            )


class TestConservationInvariants:
    def test_all_jobs_complete_and_cluster_drains(self, setup):
        pair = setup.make_pair()
        sim = Simulation(
            setup.workload.specs, pair, LyraScheduler(),
            inference_trace=setup.inference_trace,
            config=SimulationConfig(),
        )
        sim.run()
        assert all(
            j.status is JobStatus.FINISHED for j in sim.jobs.values()
        )
        assert pair.training.used_gpus == 0
        assert pair.loaned_count == 0

    def test_no_server_overallocated_at_end(self, setup):
        pair = setup.make_pair()
        sim = Simulation(
            setup.workload.specs, pair, LyraScheduler(),
            inference_trace=setup.inference_trace,
            config=SimulationConfig(),
        )
        sim.run()
        for server in pair.training.servers + pair.inference.servers:
            assert 0 <= server.used_gpus <= server.num_gpus

    def test_jct_at_least_minimum_running_time(self, lyra):
        for job in lyra.jobs:
            if job.jct is not None and job.preemptions == 0:
                assert job.jct >= job.spec.duration * 0.99

    def test_queuing_never_negative(self, lyra):
        for job in lyra.jobs:
            if job.queuing_time is not None:
                assert job.queuing_time >= -1e-6

    def test_jct_bounds_queuing(self, lyra):
        for job in lyra.jobs:
            if job.jct is not None and job.queuing_time is not None:
                assert job.jct >= job.queuing_time

    def test_elastic_jobs_within_worker_range_lyra(self, setup):
        """Spot-check during the run: Lyra never exceeds w_max."""
        pair = setup.make_pair()
        sim = ProbedSimulation(
            setup.workload.specs, pair, LyraScheduler(),
            inference_trace=setup.inference_trace,
            config=SimulationConfig(),
        )
        violations = []

        def check():
            for job in sim.running.values():
                if job.total_workers > job.spec.max_workers:
                    violations.append(job.job_id)
            if sim.pending or sim.running:
                sim.probe(sim.now + 1800.0, check)

        sim.probe(0.0, check)
        sim.run()
        assert not violations

    def test_base_demand_always_met_while_running(self, setup):
        pair = setup.make_pair()
        sim = ProbedSimulation(
            setup.workload.specs, pair, LyraScheduler(),
            inference_trace=setup.inference_trace,
            config=SimulationConfig(),
        )
        violations = []

        def check():
            for job in sim.running.values():
                if job.base_workers < job.spec.min_workers:
                    violations.append(job.job_id)
            if sim.pending or sim.running:
                sim.probe(sim.now + 1800.0, check)

        sim.probe(0.0, check)
        sim.run()
        assert not violations

    def test_server_accounting_matches_job_placements(self, setup):
        """Mid-run consistency: each server's allocation for a job must
        equal the job's recorded footprint on it."""
        pair = setup.make_pair()
        sim = ProbedSimulation(
            setup.workload.specs, pair, LyraScheduler(),
            inference_trace=setup.inference_trace,
            config=SimulationConfig(),
        )
        mismatches = []

        def check():
            for server in pair.training.servers:
                for job_id, gpus in server.allocations.items():
                    job = sim.jobs[job_id]
                    if job.gpus_on(server.server_id) != gpus:
                        mismatches.append((server.server_id, job_id))
            if sim.pending or sim.running:
                sim.probe(sim.now + 3600.0, check)

        sim.probe(0.0, check)
        sim.run()
        assert not mismatches
