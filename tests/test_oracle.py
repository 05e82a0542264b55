"""Tests for the correctness-oracle subsystem (repro.oracle).

Three layers: the oracles themselves must be right on known instances
(Fig. 5), the production paths must conform on seeded sweeps, and —
the part that justifies the subsystem's existence — deliberately
re-introducing each historical bug must produce a pointed divergence.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.mckp as mckp_mod
import repro.core.reclaim as reclaim_mod
from repro.core.reclaim import CostModel, plan_reclaim_lyra
from repro.oracle.conformance import (
    allocation_divergence,
    mckp_divergence,
    metamorphic_divergence,
    reclaim_divergence,
    run_check,
)
from repro.oracle.instances import (
    AllocationInstance,
    MCKPInstance,
    ReclaimInstance,
    gen_allocation_instance,
    gen_mckp_instance,
    gen_reclaim_instance,
    minimize,
)
from repro.oracle.metamorphic import (
    check_capacity_monotonic,
    check_dry_run_pricing,
    check_mckp_permutation,
    check_permutation_invariance,
)
from repro.oracle.reference import plan_reclaim_bruteforce
from tests.test_reclaim import fig5_instance


class TestReclaimOracle:
    def test_fig5_optimum_is_one_preemption(self):
        servers, jobs = fig5_instance()
        oracle = plan_reclaim_bruteforce(servers, jobs, count=2)
        assert oracle.num_preemptions == 1
        assert oracle.preempted_jobs == {1}
        assert set(oracle.servers) == {"s1", "s2"}

    def test_idle_capacity_is_free(self):
        servers, jobs = fig5_instance()
        oracle = plan_reclaim_bruteforce(servers, jobs, count=0)
        assert oracle.num_preemptions == 0

    def test_guard_on_large_instances(self):
        servers, jobs = fig5_instance()
        with pytest.raises(ValueError):
            plan_reclaim_bruteforce(servers, jobs, 2, max_jobs=2)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_production_planners_vs_oracle(self, seed):
        """Greedy never beats the true optimum, under any cost model."""
        servers, jobs = gen_reclaim_instance(seed).build()
        count = gen_reclaim_instance(seed).count
        oracle = plan_reclaim_bruteforce(servers, jobs, count)
        for model in CostModel:
            greedy = plan_reclaim_lyra(servers, jobs, count, cost_model=model)
            assert greedy.num_preemptions >= oracle.num_preemptions


class TestDifferentialSweeps:
    @pytest.mark.parametrize(
        "gen,check",
        [
            (gen_reclaim_instance, reclaim_divergence),
            (gen_mckp_instance, mckp_divergence),
            (gen_allocation_instance, allocation_divergence),
        ],
        ids=["reclaim", "mckp", "allocation"],
    )
    def test_production_conforms(self, gen, check):
        for seed in range(40):
            assert check(gen(seed)) is None, f"seed {seed}"

    def test_metamorphic_properties_hold(self):
        for seed in range(40):
            assert metamorphic_divergence(seed) is None, f"seed {seed}"

    def test_capacity_monotonic_on_fig5_shape(self):
        instance = gen_reclaim_instance(3)
        assert check_capacity_monotonic(instance) is None
        assert check_permutation_invariance(instance) is None
        assert check_mckp_permutation(gen_mckp_instance(3)) is None

    def test_dry_run_pricing_probe_is_not_vacuous(self):
        # Seed 0's mini-scenario has a server on loan at the probe
        # point (pinned so the check keeps exercising real pricing).
        from repro.scenarios import build_sim, default_setup

        setup = default_setup(
            num_jobs=40, days=0.5, training_servers=3, inference_servers=5,
            seed=0, target_load=3.0,
        )
        sim = build_sim(setup, "lyra", seed=0)
        sim.run(until=41_000.0)
        assert sim.pair.loaned_count > 0
        assert check_dry_run_pricing(0) is None


class TestMinimizer:
    def test_shrinks_to_fixpoint(self):
        instance = gen_reclaim_instance(11)

        def diverges(inst):
            # Pretend the bug reproduces whenever job 0 appears at all.
            return (
                "job 0 present"
                if any(p[0] == 0 for p in inst.placements)
                else None
            )

        small = minimize(instance, diverges)
        assert diverges(small)
        assert all(diverges(s) is None for s in small.shrinks()
                   if _builds(s))
        assert len(small.placements) <= len(instance.placements)

    def test_repr_round_trips(self):
        for instance, cls in (
            (gen_reclaim_instance(5), ReclaimInstance),
            (gen_mckp_instance(5), MCKPInstance),
            (gen_allocation_instance(5), AllocationInstance),
        ):
            rebuilt = eval(repr(instance), {cls.__name__: cls})
            assert rebuilt == instance

    def test_script_names_the_failing_check(self):
        script = gen_reclaim_instance(5).to_script("reclaim_divergence")
        assert "from repro.oracle.conformance import reclaim_divergence" in script
        assert "ReclaimInstance(" in script


def _builds(instance) -> bool:
    try:
        instance.build()
    except Exception:
        return False
    return True


class TestRunCheck:
    def test_smoke_clean_report(self):
        report = run_check(policies=["lyra"], n=4)
        assert report.ok
        assert report.checks["reclaim"] == 4
        assert report.checks["replay"] == 1
        assert "no divergence" in report.summary()

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_check(policies=["not-a-scheme"], n=1)

    def test_report_serializes(self):
        report = run_check(policies=["lyra"], n=2, replay=False)
        data = report.to_dict()
        assert data["ok"] is True
        assert data["divergences"] == []


def _plant_gpu_fraction_drift(monkeypatch) -> None:
    """Put the old greedy-loop GPU_FRACTION cost back: workers over the
    working span instead of GPUs over the placement."""
    real = reclaim_mod.job_preemption_cost

    def buggy_cost(job, server_id, model=CostModel.SERVER_FRACTION,
                   base_span=None, full_span=None):
        if model is CostModel.GPU_FRACTION and full_span is not None:
            total = sum(job.workers_on(sid) for sid in full_span)
            return job.workers_on(server_id) / total if total else 0.0
        return real(job, server_id, model,
                    base_span=base_span, full_span=full_span)

    monkeypatch.setattr(reclaim_mod, "job_preemption_cost", buggy_cost)


# ----------------------------------------------------------------------
# the acceptance criterion: re-introduced bugs must be caught, pointedly
# ----------------------------------------------------------------------
class TestBugReintroduction:
    """Each historical bug, put back, must yield a pointed divergence."""

    def test_gpu_fraction_drift_is_caught(self, monkeypatch):
        _plant_gpu_fraction_drift(monkeypatch)
        # One job paying double GPU cost on one of its two hosts: worker
        # fractions are 1/2 each, GPU fractions 1/3 vs 2/3.
        instance = ReclaimInstance(
            num_servers=3,
            placements=((0, "r0", 2, False, 1), (0, "r1", 2, False, 2),
                        (1, "r2", 2, False, 1)),
            count=1,
        )
        msg = reclaim_divergence(instance)
        assert msg is not None
        assert "cost-model drift under gpu_fraction" in msg

    def test_run_check_surfaces_the_divergence_with_a_repro(
        self, monkeypatch
    ):
        _plant_gpu_fraction_drift(monkeypatch)
        # Seed 0's stream hits the drift within the first instances (the
        # generator gives jobs a different per-worker GPU cost on each
        # host on purpose); the report must carry a runnable repro.
        report = run_check(policies=["lyra"], n=50, replay=False)
        assert not report.ok
        div = report.divergences[0]
        assert div.check == "reclaim"
        assert div.repro is not None
        assert "ReclaimInstance(" in div.repro
        assert "reclaim_divergence" in div.repro
        assert div.render().startswith("[reclaim")

    def test_uncertified_arg_max_is_caught(self, monkeypatch):
        # With no rounding allowance the fast path answers whenever no
        # group has an exact tie — including where the DP's running sum
        # rounds a group's value differences away.
        monkeypatch.setattr(mckp_mod, "_ROUNDOFF", 0.0)
        instance = MCKPInstance(
            groups=(((1, 1e16),), ((1, 0.5), (2, 0.75))), capacity=3
        )
        msg = mckp_divergence(instance)
        assert msg is not None
        assert "the scalar DP" in msg
        report = run_check(policies=["lyra"], n=50, replay=False)
        assert [d.check for d in report.divergences] == ["mckp"]
        assert "MCKPInstance(" in report.divergences[0].repro

    def test_random_reclaimer_noise_does_not_false_positive(self):
        # Sanity guard against over-tight oracles: a valid-but-greedy
        # random plan must still satisfy the *inequality* direction.
        servers, jobs = gen_reclaim_instance(17).build()
        count = gen_reclaim_instance(17).count
        oracle = plan_reclaim_bruteforce(servers, jobs, count)
        from repro.core.reclaim import plan_reclaim_random

        plan = plan_reclaim_random(servers, jobs, count,
                                   rng=random.Random(3))
        assert plan.num_preemptions >= oracle.num_preemptions
