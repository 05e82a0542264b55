"""Tests for the multiple-choice knapsack solver (§5.2 phase two)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.bench_mckp_solver import (
    make_pair_instance,
    make_wide_instance,
    solver_path,
)
from repro.core.allocation import build_flex_groups
from repro.core.mckp import (
    Item,
    solution_cost,
    solve_mckp,
    solve_mckp_bruteforce,
    solve_ladder,
    solve_whole,
    table_shape,
)
from repro.oracle.instances import gen_allocation_instance, gen_mckp_instance
from repro.oracle.reference import solve_mckp_scalar


class TestBasics:
    def test_empty_groups(self):
        value, choices = solve_mckp([], 10)
        assert value == 0.0
        assert choices == []

    def test_zero_capacity_picks_nothing_with_weight(self):
        groups = [[Item(weight=1, value=5.0)]]
        value, choices = solve_mckp(groups, 0)
        assert value == 0.0
        assert choices == [None]

    def test_negative_capacity_raises(self):
        with pytest.raises(ValueError):
            solve_mckp([], -1)

    def test_negative_weight_raises(self):
        for value in (1.0, 0.0, -1.0):  # live or not
            with pytest.raises(ValueError, match="weight must be >= 0"):
                solve_mckp([[(2, 1.0)], [(-1, value)]], 10)

    def test_single_item_fits(self):
        groups = [[Item(weight=2, value=3.0, payload="a")]]
        value, choices = solve_mckp(groups, 2)
        assert value == 3.0
        assert choices[0].payload == "a"

    def test_at_most_one_item_per_group(self):
        groups = [[Item(weight=1, value=1.0), Item(weight=1, value=2.0)]]
        value, choices = solve_mckp(groups, 10)
        assert value == 2.0  # not 3.0

    def test_worthless_items_skipped(self):
        groups = [[Item(weight=1, value=0.0)], [Item(weight=1, value=-4.0)]]
        value, choices = solve_mckp(groups, 10)
        assert value == 0.0
        assert choices == [None, None]

    def test_fig6_example(self):
        """The paper's Fig. 6 instance: jobs A and B from Table 4.

        Job A: one item (weight 2 GPUs, value 50); job B: items of
        weight 1..4 with values 20/30/36/40.  With 4 free GPUs the best
        pick is A's item plus B's 2-GPU item (value 80).
        """
        group_a = [Item(weight=2, value=50.0, payload=("A", 1))]
        group_b = [
            Item(weight=1, value=20.0, payload=("B", 1)),
            Item(weight=2, value=30.0, payload=("B", 2)),
            Item(weight=3, value=36.0, payload=("B", 3)),
            Item(weight=4, value=40.0, payload=("B", 4)),
        ]
        value, choices = solve_mckp([group_a, group_b], 4)
        assert value == 80.0
        assert choices[0].payload == ("A", 1)
        assert choices[1].payload == ("B", 2)

    def test_reconstruction_weight_within_capacity(self):
        groups = [
            [Item(weight=3, value=5.0), Item(weight=5, value=9.0)],
            [Item(weight=4, value=7.0)],
            [Item(weight=2, value=2.0)],
        ]
        value, choices = solve_mckp(groups, 7)
        taken = [c for c in choices if c is not None]
        assert sum(item.weight for item in taken) <= 7
        assert sum(item.value for item in taken) == pytest.approx(value)


item_strategy = st.builds(
    Item,
    weight=st.integers(min_value=0, max_value=6),
    value=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    payload=st.none(),
)
groups_strategy = st.lists(
    st.lists(item_strategy, max_size=4), max_size=4
)


class TestAgainstBruteForce:
    @given(groups=groups_strategy, capacity=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_dp_matches_bruteforce_value(self, groups, capacity):
        dp_value, dp_choices = solve_mckp(groups, capacity)
        bf_value, _ = solve_mckp_bruteforce(groups, capacity)
        assert dp_value == pytest.approx(bf_value)
        # The DP's own reconstruction must be feasible and consistent.
        taken = [c for c in dp_choices if c is not None]
        assert sum(i.weight for i in taken) <= capacity
        assert sum(i.value for i in taken) == pytest.approx(dp_value)

    @given(groups=groups_strategy, capacity=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_choices_come_from_their_groups(self, groups, capacity):
        _, choices = solve_mckp(groups, capacity)
        assert len(choices) == len(groups)
        for group, choice in zip(groups, choices):
            assert choice is None or choice in group

    @given(groups=groups_strategy)
    @settings(max_examples=50, deadline=None)
    def test_value_monotone_in_capacity(self, groups):
        v_small, _ = solve_mckp(groups, 3)
        v_large, _ = solve_mckp(groups, 9)
        assert v_large >= v_small


# Adversarial inputs the production path can produce at its edges:
# zero-weight items (a flex grant the job absorbs for free), negative
# values (an extra worker that *lengthens* the estimated JCT under a
# sublinear scaling model), and empty groups (an elastic job whose every
# item was pruned at the capacity bound).
signed_item_strategy = st.builds(
    Item,
    weight=st.integers(min_value=0, max_value=6),
    value=st.floats(min_value=-50.0, max_value=100.0, allow_nan=False),
    payload=st.none(),
)
signed_groups_strategy = st.lists(
    st.lists(signed_item_strategy, max_size=4), max_size=4
)


class TestAdversarialInputs:
    @given(groups=signed_groups_strategy, capacity=st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_dp_matches_bruteforce_with_signed_values(self, groups, capacity):
        dp_value, dp_choices = solve_mckp(groups, capacity)
        bf_value, bf_choices = solve_mckp_bruteforce(groups, capacity)
        assert dp_value == pytest.approx(bf_value)
        for choices, reported in ((dp_choices, dp_value),
                                  (bf_choices, bf_value)):
            value, weight = solution_cost(choices)
            assert weight <= capacity
            assert value == pytest.approx(reported)

    @given(groups=signed_groups_strategy, capacity=st.integers(0, 12))
    @settings(max_examples=100, deadline=None)
    def test_never_worse_than_empty_solution(self, groups, capacity):
        # Taking nothing is always allowed, so negative-value items must
        # never drag the optimum below zero.
        dp_value, _ = solve_mckp(groups, capacity)
        assert dp_value >= 0.0

    def test_zero_weight_positive_item_always_taken(self):
        groups = [[Item(weight=0, value=7.0)]]
        value, choices = solve_mckp(groups, 0)
        assert value == pytest.approx(7.0)
        assert choices[0] is not None

    def test_all_empty_groups(self):
        value, choices = solve_mckp([[], [], []], 5)
        assert value == 0.0
        assert choices == [None, None, None]
        assert solution_cost(choices) == (0.0, 0)


# ----------------------------------------------------------------------
# the clamped table (reach, unit) against the full-width scalar reference
# ----------------------------------------------------------------------
def assert_same_solution(groups, capacity):
    """``solve_mckp`` and the full-width plain-loop DP agree bit for bit:
    the same float and the very same ``Item`` object group by group."""
    value, choices = solve_mckp(groups, capacity)
    ref_value, ref_choices = solve_mckp_scalar(groups, capacity)
    assert value == ref_value  # ==, not approx
    assert len(choices) == len(ref_choices) == len(groups)
    for got, want in zip(choices, ref_choices):
        assert got is want
    assert solution_cost(choices)[1] <= capacity


def raw_reach(groups):
    return sum(
        max((i.weight for i in group if i.value > 0), default=0)
        for group in groups
    )


clamp_values = st.one_of(
    st.floats(min_value=-5.0, max_value=100.0, allow_nan=False),
    st.integers(-1, 8).map(float),  # ties and exact zeros
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
)


@st.composite
def clamp_instances(draw):
    """Instances aimed at each edge the clamp introduces: a unit > 1 with
    capacity off the unit grid, capacity below / at / far above the
    reach, zero weights (alone: unit 1), dead values, items heavier than
    capacity, empty groups, one odd weight among even ones (gcd 1)."""
    unit = draw(st.sampled_from([1, 2, 2, 3, 4, 6]))
    steps = st.integers(0, 5) if draw(st.booleans()) else st.just(0)
    groups = [
        [Item(weight=unit * draw(steps), value=draw(clamp_values))
         for _ in range(draw(st.integers(0, 4)))]
        for _ in range(draw(st.integers(0, 5)))
    ]
    if groups and draw(st.booleans()):  # the odd one out
        groups[draw(st.integers(0, len(groups) - 1))].append(
            Item(weight=unit * draw(st.integers(0, 5)) + 1,
                 value=draw(clamp_values))
        )
    reach = raw_reach(groups)
    capacity = draw(st.one_of(
        st.sampled_from([0, 1, max(0, reach - 1), reach, reach + 1,
                         reach // 2, 10 * reach + 7]),
        st.integers(0, reach + 3),
    ))
    return groups, capacity


class TestClampedTable:
    @given(inst=clamp_instances())
    @settings(max_examples=500, deadline=None)
    def test_equals_full_width_scalar_reference(self, inst):
        assert_same_solution(*inst)

    @given(inst=clamp_instances())
    @settings(max_examples=200, deadline=None)
    def test_shape_bounds_every_selection(self, inst):
        groups, capacity = inst
        width, unit = table_shape(groups, capacity)
        assert unit >= 1 and 0 <= width * unit <= capacity
        live = [i.weight for g in groups for i in g
                if i.weight <= capacity and i.value > 0]
        assert all(w % unit == 0 for w in live)
        _, weight = solution_cost(solve_mckp(groups, capacity)[1])
        assert weight % unit == 0 and weight // unit <= width

    def test_oracle_mckp_generator(self):
        paths = set()
        for seed in range(300):
            groups, capacity = gen_mckp_instance(seed).build()
            assert_same_solution(groups, capacity)
            paths.add(solver_path(groups, capacity))
        assert paths == {"whole", "ladder", "table"}

    def test_oracle_allocation_generator(self):
        for seed in range(150):
            pending, running, pools = gen_allocation_instance(seed).build()
            elastic = [j for j in pending + running if j.elastic]
            groups = build_flex_groups(elastic, max_weight=pools.total)
            assert_same_solution(groups, pools.total)

    def test_lyra_wide_shape_is_clamped(self):
        # the e2e lyra_wide mean instance: the free cluster offers 2,515
        # columns, the flexible demand on offer can reach 184 of them
        groups, capacity = make_wide_instance()
        assert (len(groups), sum(map(len, groups))) == (31, 183)
        assert capacity == 2514 and raw_reach(groups) == 366
        assert table_shape(groups, capacity) == (183, 2)
        assert solve_whole(groups, capacity) is not None  # fits whole
        assert_same_solution(groups, capacity)
        # tighter than the reach: capacity binds, off the unit grid
        assert table_shape(groups, 101) == (50, 2)
        assert solve_whole(groups, 101) is None
        assert_same_solution(groups, 101)


# ----------------------------------------------------------------------
# the fits-whole arg-max against the full-width scalar reference
# ----------------------------------------------------------------------
whole_values = st.one_of(
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=1e10, max_value=1e17),  # absorbs small values
    st.floats(min_value=1e-300, max_value=1e300),  # far apart
    st.integers(1, 8).map(float),  # exact ties
)


@st.composite
def whole_instances(draw):
    """Demand that fits whole — capacity at or above the reach, values
    positive — with exact ties, 1-ulp near-ties and magnitudes far
    apart, so both sides of ``solve_whole``'s certificate are drawn."""
    groups = []
    for _ in range(draw(st.integers(0, 6))):
        group = []
        for _ in range(draw(st.integers(1, 5))):
            kind = draw(st.sampled_from(["fresh"] * 4 + ["tie", "ulp"]))
            if group and kind != "fresh":
                value = draw(st.sampled_from(group))[1]
                if kind == "ulp":
                    value = math.nextafter(
                        value, draw(st.sampled_from([math.inf, 0.0]))
                    )
            else:
                value = draw(whole_values)
            group.append(Item(weight=draw(st.integers(0, 8)), value=value))
        groups.append(group)
    return groups, raw_reach(groups) + draw(st.integers(0, 5))


class TestFitsWhole:
    @given(inst=whole_instances())
    @settings(max_examples=500, deadline=None)
    def test_equals_full_width_scalar_reference(self, inst):
        assert_same_solution(*inst)

    def test_rounding_absorbed_runner_up_refuses_the_arg_max(self):
        # 1e16 + 0.5 and 1e16 + 0.75 both round to 1e16, a tie with
        # taking nothing: the DP keeps nothing from group 2, while the
        # bare per-group arg-max would take (2, 0.75).
        groups = [[(1, 1e16)], [(1, 0.5), (2, 0.75)]]
        assert solve_whole(groups, 3) is None
        assert solve_mckp(groups, 3) == (1e16, [(1, 1e16), None])
        assert_same_solution(groups, 3)

    def test_ties_and_no_live_items(self):
        tie = [[(1, 2.0), (2, 2.0)]]
        assert solve_whole(tie, 5) is None  # margin 0
        assert_same_solution(tie, 5)
        dead = [[(1, 0.0), (2, -1.0), (3, math.nan)], []]
        assert solve_whole(dead, 5) == (0.0, [None, None])
        assert_same_solution(dead, 5)

    def test_items_too_heavy_are_not_picked(self):
        groups = [[(1, 1.0), (9, 50.0)], [(2, 3.0)]]
        assert solve_whole(groups, 4) == (4.0, [(1, 1.0), (2, 3.0)])
        assert_same_solution(groups, 4)


# ----------------------------------------------------------------------
# the certified ladder against the full-width scalar reference
# ----------------------------------------------------------------------
@st.composite
def ladder_instances(draw):
    """Every group a ladder of one step — the k-th item weighs k steps,
    integral increments that never grow, scaled by a power of two so
    every increment is exact — with capacity below the reach.  Copies of
    an earlier group, as is or with its top rung 1 ulp apart, put exact
    ties and near-ties at the cut; a 2**54 scale puts a group far above
    the rest, where the DP's running sum rounds their increments away."""
    step = draw(st.sampled_from([1, 2, 3]))
    groups = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["fresh"] * 3 + ["tie", "ulp"]))
        if groups and kind != "fresh":
            values = [item.value for item in draw(st.sampled_from(groups))]
            if kind == "ulp":
                values[-1] = math.nextafter(
                    values[-1], draw(st.sampled_from([math.inf, 0.0]))
                )
        else:
            scale = draw(st.sampled_from([1.0, 1.0, 0.5, 2.0 ** 54]))
            gains = draw(st.lists(st.integers(1, 12), min_size=1,
                                  max_size=5))
            values = list(itertools.accumulate(
                scale * gain for gain in sorted(gains, reverse=True)
            ))
        groups.append([Item(step * k, v) for k, v in enumerate(values, 1)])
    reach = raw_reach(groups)
    return groups, draw(st.integers(reach // 3, reach - 1))


#: a ladder the certificate passes: increments 10, 6, 3 and 8, 4 at
#: step 2, the top three of them (10, 8, 6) fitting in 6 GPUs
LADDER = [[(2, 10.0), (4, 16.0), (6, 19.0)], [(2, 8.0), (4, 12.0)]]


class TestLadder:
    @given(inst=ladder_instances())
    @settings(max_examples=100, deadline=None)
    def test_equals_full_width_scalar_reference(self, inst):
        assert_same_solution(*inst)

    def test_takes_the_largest_increments(self):
        assert solve_whole(LADDER, 6) is None  # reach 10 > 6
        assert solve_ladder(LADDER, 6) == (24.0, [(4, 16.0), (2, 8.0)])
        assert_same_solution(LADDER, 6)
        # capacity off the step grid floors to the same cut
        assert solve_ladder(LADDER, 7) == solve_ladder(LADDER, 6)

    @pytest.mark.parametrize("groups, capacity", [
        # exact tie at the cut: the third and fourth increments are both 6
        ([LADDER[0], [(2, 8.0), (4, 14.0)]], 6),
        # a 1-ulp near-tie: 6 + 2**-49 against 6.  The picks' exact sum
        # 24 + 2**-49 rounds to 24, the DP keeps the first 24 it meets
        # and a ladder without the margin test would take the other
        ([LADDER[0], [(2, 8.0), (4, math.nextafter(14.0, math.inf))]], 6),
        # a group 1e16 times the others: added to it, the DP's running
        # sum rounds the small groups' increments away
        ([[(2, 1e17), (4, 1.6e17)], LADDER[1], [(2, 7.0), (4, 10.0)]], 8),
        # two weight steps, 2 and 1 GPUs per worker
        ([LADDER[0], [(1, 8.0), (2, 12.0)]], 6),
        # a convex group: increments 4, 2, 5, so the third rung is worth
        # more than the second and the cut would stop below it
        ([[(2, 4.0), (4, 6.0), (6, 11.0)], [(2, 3.0)]], 6),
        # items out of positional order: the 2-GPU item comes second
        ([LADDER[1], [(4, 10.0), (2, 16.0), (6, 19.0)]], 6),
        # non-positive increments 0 and -1 before the cut at 0: the cut
        # would take the second 10.0, the DP keeps the first
        ([[(2, 10.0), (4, 10.0), (6, 9.0)], [(2, 5.0), (4, 3.0)]], 6),
        # falling values, increments 10, -1, -2: the cut at -1 would
        # take 9.0 over 10.0
        ([[(2, 10.0), (4, 9.0), (6, 7.0)], [(2, 5.0), (4, 3.0)]], 6),
    ], ids=["tie", "ulp", "1e16", "two-steps", "convex", "order",
            "flat", "falling"])
    def test_refuses_and_the_table_answers(self, groups, capacity):
        assert solve_whole(groups, capacity) is None
        assert solve_ladder(groups, capacity) is None
        assert_same_solution(groups, capacity)

    def test_lyra_pair_shape_takes_the_ladder(self):
        # the e2e lyra_pair mean instance that does not fit whole
        groups, capacity = make_pair_instance()
        assert solver_path(groups, capacity) == "ladder"
        assert_same_solution(groups, capacity)


class TestTableShape:
    def test_empty(self):
        assert table_shape([], 10) == (0, 1)
        assert table_shape([[], []], 10) == (0, 1)
        assert table_shape([[Item(3, 1.0)]], 0) == (0, 1)

    def test_reach_is_sum_of_heaviest_live_items(self):
        groups = [[Item(1, 1.0), Item(3, 2.0)], [Item(2, 1.0)]]
        assert table_shape(groups, 100) == (5, 1)
        assert table_shape(groups, 4) == (4, 1)  # capacity binds

    def test_dead_items_do_not_count(self):
        groups = [[Item(2, 1.0), Item(7, 0.0), Item(9, -1.0),
                   Item(11, math.nan), Item(50, 5.0)]]
        # 50 does not fit; 7, 9, 11 can never be taken
        assert table_shape(groups, 20) == (1, 2)

    def test_unit_is_gcd_and_capacity_floors(self):
        groups = [[Item(4, 1.0), Item(8, 2.0)], [Item(6, 1.0)]]
        assert table_shape(groups, 100) == (7, 2)  # reach 14
        assert table_shape(groups, 13) == (6, 2)  # 13 // 2, not ceil
        assert table_shape(groups + [[Item(3, 1.0)]], 100) == (17, 1)

    def test_zero_weights(self):
        assert table_shape([[Item(0, 1.0)], [Item(0, 2.0)]], 9) == (0, 1)
        assert table_shape([[Item(0, 1.0)], [Item(6, 2.0)]], 9) == (1, 6)
