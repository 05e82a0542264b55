"""Tests for two-phase allocation (§5.2), incl. the Table 2/4 examples."""

import random

import pytest

from repro.core.allocation import (
    MIXED,
    ONLOAN,
    TRAINING,
    Pools,
    allocate_two_phase,
    build_flex_groups,
    preferred_domain,
    sjf_phase,
)

from repro.core.mckp import Item
from repro.elastic.throughput import SUBLINEAR_20
from repro.schedulers.agnostic import throughput_gain_values

from tests.conftest import make_job


class TestPools:
    def test_total_is_normalized(self):
        pools = Pools(training=10, onloan=9, onloan_cost=3.0)
        assert pools.onloan_normalized == 3
        assert pools.total == 13

    def test_onloan_fits_uses_cost(self):
        pools = Pools(training=0, onloan=9, onloan_cost=3.0)
        assert pools.onloan_fits(3)
        assert not pools.onloan_fits(4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Pools(training=-1)

    def test_cost_below_one_rejected(self):
        with pytest.raises(ValueError):
            Pools(training=1, onloan=1, onloan_cost=0.5)

    def test_copy_is_independent(self):
        pools = Pools(training=4, onloan=6)
        other = pools.copy()
        other.training = 0
        assert pools.training == 4


class TestPreferredDomain:
    def test_elastic_fungible_prefers_onloan(self):
        job = make_job(max_workers=4, min_workers=2, elastic=True,
                       fungible=True)
        assert preferred_domain(job) == ONLOAN

    def test_inelastic_prefers_training(self):
        assert preferred_domain(make_job(fungible=True)) == TRAINING

    def test_elastic_nonfungible_prefers_training(self):
        job = make_job(max_workers=4, min_workers=2, elastic=True)
        assert preferred_domain(job) == TRAINING


class TestSJFPhase:
    def test_shortest_first(self):
        long_job = make_job(job_id=1, duration=100, max_workers=4)
        short_job = make_job(job_id=2, duration=10, max_workers=4)
        pools = Pools(training=4)
        scheduled, skipped = sjf_phase([long_job, short_job], pools)
        assert [j.job_id for j, _ in scheduled] == [2]
        assert [j.job_id for j in skipped] == [1]
        assert pools.training == 0

    def test_backfill_continues_past_blocked_job(self):
        # A big job that does not fit must not block smaller ones.
        big = make_job(job_id=1, duration=10, max_workers=8)
        small = make_job(job_id=2, duration=20, max_workers=2)
        pools = Pools(training=4)
        scheduled, skipped = sjf_phase([big, small], pools)
        assert [j.job_id for j, _ in scheduled] == [2]

    def test_nonfungible_cannot_use_onloan(self):
        job = make_job(max_workers=4)
        pools = Pools(training=0, onloan=12)
        scheduled, skipped = sjf_phase([job], pools)
        assert scheduled == []
        assert skipped == [job]

    def test_fungible_falls_back_to_onloan_with_cost(self):
        job = make_job(max_workers=2, fungible=True)
        pools = Pools(training=0, onloan=6, onloan_cost=3.0)
        scheduled, _ = sjf_phase([job], pools)
        assert [d for _, d in scheduled] == [ONLOAN]
        assert pools.onloan == 0

    def test_heterogeneous_can_straddle(self):
        job = make_job(max_workers=4, heterogeneous=True)
        pools = Pools(training=2, onloan=6, onloan_cost=3.0)
        scheduled, _ = sjf_phase([job], pools)
        assert [d for _, d in scheduled] == [MIXED]
        assert pools.training == 0
        assert pools.onloan == 0

    def test_estimate_error_changes_order(self):
        a = make_job(job_id=1, duration=10, max_workers=4)
        b = make_job(job_id=2, duration=12, max_workers=4)
        a.estimate_error = 2.0  # a now *looks* longer
        pools = Pools(training=4)
        scheduled, _ = sjf_phase([a, b], pools)
        assert [j.job_id for j, _ in scheduled] == [2]


class TestFlexGroups:
    def test_table4_job_values(self):
        """Fig. 6's transformation of Table 4: job B (w in [2, 6], min
        runtime 20 at 6 workers, 1 GPU/worker) yields items valued
        20/30/36/40 for 1..4 extra workers."""
        job_b = make_job(duration=20, max_workers=6, min_workers=2,
                         gpus_per_worker=1, elastic=True)
        groups = build_flex_groups([job_b], max_weight=10)
        values = [item.value for item in groups[0]]
        assert values == pytest.approx([20.0, 30.0, 36.0, 40.0])
        assert [item.weight for item in groups[0]] == [1, 2, 3, 4]

    def test_table4_job_a_values(self):
        """Job A (w in [2, 3], min runtime 100, 2 GPUs/worker): one item
        of weight 2 and value 50."""
        job_a = make_job(duration=100, max_workers=3, min_workers=2,
                         gpus_per_worker=2, elastic=True)
        groups = build_flex_groups([job_a], max_weight=10)
        assert len(groups[0]) == 1
        assert groups[0][0].weight == 2
        assert groups[0][0].value == pytest.approx(50.0)

    def test_items_pruned_at_max_weight(self):
        job = make_job(duration=20, max_workers=6, min_workers=2,
                       elastic=True)
        groups = build_flex_groups([job], max_weight=2)
        assert len(groups[0]) == 2

    def test_partial_progress_shrinks_values(self):
        job = make_job(duration=20, max_workers=6, min_workers=2,
                       elastic=True)
        job.remaining_work = job.spec.total_work / 2
        groups = build_flex_groups([job], max_weight=10)
        assert groups[0][0].value == pytest.approx(10.0)

    def test_values_bit_identical_to_per_item_expression(self):
        """The base time is hoisted out of the per-item loop; every
        ``Item`` must still be what the one-item-at-a-time builder made:
        ``t(min) * err - t(min + k) * err``, same operands, same order."""
        rng = random.Random(21)
        for job_id in range(300):
            min_w = rng.randint(1, 4)
            job = make_job(
                job_id=job_id, duration=rng.uniform(30.0, 90_000.0),
                min_workers=min_w, max_workers=min_w + rng.randint(1, 12),
                gpus_per_worker=rng.choice((1, 2, 4)), elastic=True,
            )
            job.remaining_work *= rng.uniform(0.05, 1.0)
            job.estimate_error = rng.uniform(0.4, 2.5)
            job.straggler_penalty = rng.choice((1.0, rng.uniform(0.3, 1.0)))
            job.hetero_penalty = rng.choice((1.0, 0.7))
            job.tuning_bonus = rng.choice((1.0, rng.uniform(1.0, 1.2)))
            if rng.random() < 0.3:
                job.scaling_model = SUBLINEAR_20
            max_weight = rng.randint(0, 40)

            expected = []
            for extra in range(1, job.spec.max_workers - min_w + 1):
                weight = extra * job.spec.gpus_per_worker
                if weight > max_weight:
                    break
                base_time = job.remaining_time_at(min_w) * job.estimate_error
                scaled_time = (
                    job.remaining_time_at(min_w + extra) * job.estimate_error
                )
                expected.append(Item(weight, base_time - scaled_time,
                                     (job, extra)))
            (group,) = build_flex_groups([job], max_weight=max_weight)
            assert group == expected  # float ==, not approx

    def test_value_fn_is_called_once_per_job(self):
        calls = []

        def value_fn(job, extras):
            calls.append((job.job_id, list(extras)))
            return [float(extra) for extra in extras]

        jobs = [make_job(job_id=k, min_workers=1, max_workers=4,
                         gpus_per_worker=2, elastic=True) for k in range(3)]
        groups = build_flex_groups(jobs, max_weight=5, value_fn=value_fn)
        assert calls == [(0, [1, 2]), (1, [1, 2]), (2, [1, 2])]
        assert [[(i.weight, i.value) for i in g] for g in groups] == (
            [[(2, 1.0), (4, 2.0)]] * 3
        )

    def test_agnostic_values_bit_identical_to_per_item_expression(self):
        rng = random.Random(22)
        for job_id in range(100):
            job = make_job(job_id=job_id, duration=rng.uniform(30.0, 9e4),
                           min_workers=2, max_workers=2 + rng.randint(1, 9),
                           gpus_per_worker=rng.choice((1, 2)), elastic=True)
            job.remaining_work *= rng.uniform(0.05, 1.0)
            if rng.random() < 0.5:
                job.scaling_model = SUBLINEAR_20
            effective = job.scaling_model.effective_workers
            attained = job.spec.total_work - job.remaining_work
            extras = range(1, job.spec.max_workers - 1)
            assert throughput_gain_values(job, extras) == [
                (effective(2 + extra) - effective(2))
                * job.spec.gpus_per_worker
                / (1.0 + attained / max(1.0, job.spec.total_work))
                for extra in extras
            ]


class TestTwoPhase:
    def test_table4_counter_example(self):
        """The paper's counter-example to SJF (Table 4): with 8 GPUs,
        favouring job A (longer min runtime but bigger workload) gives
        better average JCT.  The MCKP phase must find that allocation:
        A gets its 1 extra worker, B gets the rest."""
        job_a = make_job(job_id=1, duration=100, max_workers=3,
                         min_workers=2, gpus_per_worker=2, elastic=True)
        job_b = make_job(job_id=2, duration=20, max_workers=6,
                         min_workers=2, gpus_per_worker=1, elastic=True)
        pools = Pools(training=8)
        decision = allocate_two_phase([job_a, job_b], [], pools)
        assert len(decision.scheduled) == 2
        # base demands: 4 (A) + 2 (B) = 6, leaving 2 GPUs for phase two.
        # Best use of 2 GPUs: A's item (weight 2, value 50) beats B's
        # (weight 2, value 30).
        assert decision.flex[1] == 1
        assert decision.flex[2] == 0
        assert decision.mckp_value == pytest.approx(50.0)

    def test_running_elastic_jobs_join_phase_two(self):
        running = make_job(job_id=5, duration=20, max_workers=6,
                           min_workers=2, elastic=True)
        running.record_placement("s1", 2, flexible=False)
        pools = Pools(training=4)
        decision = allocate_two_phase([], [running], pools)
        assert decision.flex[5] == 4
        assert decision.leftover.training == 0

    def test_phase_one_starves_phase_two_under_pressure(self):
        # Inelastic demand soaks the pool; elastic jobs get base only.
        inelastic = [
            make_job(job_id=i, duration=10, max_workers=2) for i in range(3)
        ]
        elastic = make_job(job_id=10, duration=10, max_workers=4,
                           min_workers=2, elastic=True)
        pools = Pools(training=8)
        decision = allocate_two_phase(inelastic + [elastic], [], pools)
        assert len(decision.scheduled) == 4
        assert decision.flex[10] == 0

    def test_skipped_jobs_reported(self):
        jobs = [make_job(job_id=i, max_workers=4) for i in range(3)]
        pools = Pools(training=8)
        decision = allocate_two_phase(jobs, [], pools)
        assert len(decision.scheduled) == 2
        assert len(decision.skipped) == 1

    def test_no_elastic_no_mckp(self):
        decision = allocate_two_phase(
            [make_job(max_workers=2)], [], Pools(training=8)
        )
        assert decision.flex == {}
        assert decision.mckp_value == 0.0
        assert decision.mckp_groups is None

    def test_decision_captures_mckp_instance(self):
        # Conformance probes re-solve the captured instance by brute
        # force, so the decision must carry exactly what the DP saw.
        job = make_job(job_id=1, duration=20, max_workers=6, min_workers=2,
                       elastic=True)
        decision = allocate_two_phase([job], [], Pools(training=8))
        assert decision.mckp_capacity == 6  # 8 minus the base demand of 2
        assert decision.mckp_groups is not None
        assert [i.weight for i in decision.mckp_groups[0]] == [1, 2, 3, 4]


class TestDeductFlex:
    """Regression: the fungibility rule for flexible-worker charges.

    The MCKP solves over the *combined* normalized pool, so a grant can
    exceed one pool's remainder; how the spill is charged must respect
    fungibility.  ``_deduct_flex`` historically charged a non-fungible
    job's spill to ``pools.onloan`` — hardware the job can never run
    on — under-reporting loanable leftover capacity.
    """

    def test_nonfungible_flex_never_charges_onloan(self):
        job = make_job(job_id=1, duration=20, max_workers=8, min_workers=1,
                       elastic=True, fungible=False)
        pools = Pools(training=2, onloan=9, onloan_cost=3.0)
        decision = allocate_two_phase([job], [], pools)
        # Base takes 1 training GPU; phase two sees capacity 1 + 9/3 = 4
        # and grants more flex than the training pool holds.
        assert decision.flex[1] >= 2
        # The spill must be clamped against training, never billed to
        # the on-loan pool.
        assert decision.leftover.onloan == 9
        assert decision.leftover.training == 0

    def test_fungible_flex_drains_onloan_first(self):
        job = make_job(job_id=1, duration=20, max_workers=4, min_workers=1,
                       elastic=True, fungible=True)
        pools = Pools(training=5, onloan=6, onloan_cost=3.0)
        decision = allocate_two_phase([job], [], pools)
        # Base prefers on-loan (1 GPU -> 3 physical); flex 3 draws the
        # remaining normalized on-loan GPU first, then training.
        assert decision.flex[1] == 3
        assert decision.leftover.onloan == 0
        assert decision.leftover.training == 3
