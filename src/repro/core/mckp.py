"""Multiple-choice knapsack solver (§5.2, phase two).

Lyra casts the distribution of leftover GPUs to elastic jobs' flexible
demand as a multiple-choice knapsack problem (MCKP): every elastic job is a
*group*; each possible flexible allocation of that job is an *item* whose
weight is its GPU count and whose value is the resulting JCT reduction
(Fig. 6).  At most one item per group may be chosen.  MCKP is NP-hard but
pseudo-polynomial dynamic programming solves production-sized instances in
milliseconds (the paper reports 0.02 s for 354 items / 245 GPUs).

This module is deliberately generic — an item is any ``(weight, value,
...)`` tuple and comes back as the caller's own object — so it is
reusable and property-testable against brute force.
"""

from __future__ import annotations

import itertools
from math import gcd, inf
from typing import Any, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: unit roundoff of an IEEE-754 double under round-to-nearest
_ROUNDOFF = 2.0 ** -53


class Item(NamedTuple):
    """One candidate allocation inside a group.

    The solvers read an item by position — ``item[0]`` its weight,
    ``item[1]`` its value — so a plain ``(weight, value)`` pair is an
    item too (phase two passes those); ``Item`` names the fields and
    carries a payload.

    Attributes:
        weight: Integral resource cost (GPUs), ``>= 0``.
        value: Benefit of picking this item (seconds of JCT reduction).
        payload: Opaque caller data carried through to the solution.
    """

    weight: int
    value: float
    payload: Any = None


def table_shape(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[int, int]:
    """``(width, unit)`` of the DP table: its last column, GPUs per column.

    Only *live* items matter (they fit and have ``value > 0``; a ``nan``
    wins no comparison).  No selection outweighs the *reach* — each
    group's heaviest live weight, summed — and every selection weighs a
    multiple of the gcd of the live weights, so the table is sized by
    the flexible demand on offer, not by the free cluster.
    """
    reach = unit = 0
    for group in groups:
        heaviest = 0
        for item in group:
            w = item[0]
            if w <= capacity and item[1] > 0:
                unit = gcd(unit, w)
                if w > heaviest:
                    heaviest = w
        reach += heaviest
    unit = unit or 1  # no live item, or every live weight is 0
    return min(capacity, reach) // unit, unit


def solve_whole(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Optional[Tuple[float, List[Optional[Item]]]]:
    """The DP's answer without the table, when the demand fits whole.

    Per group, pick the first live item with the largest value and sum
    the picks' values left to right from ``0.0``.  That is exactly what
    :func:`solve_mckp`'s DP returns — the same float, the same items —
    when both of these hold, and None is returned otherwise:

    * the picks fit: the reach (:func:`table_shape`) is ``<= capacity``;
    * every group with a live item has a *margin* — its best value minus
      the runner-up, the largest *other* live value or 0 for taking
      nothing (an exact tie is margin 0) — above ``4 * (G + 1) * 2**-53
      * total``, for ``G`` groups and ``total`` the summed value.

    Proof.  ``fl(x + v)`` is monotone in ``x``, so each DP cell holds
    the largest *computed* sum over the selections that fit in it.  A
    left-to-right sum of at most ``G`` positive values is within
    ``G * 2**-53`` (relative, to first order) of its exact sum.  A
    selection that differs from the picks in some group is below them,
    exactly, by at least that group's margin, and a margin above
    ``2 * G * 2**-53 * total`` keeps it below them once both are
    rounded (the factor 4 also covers the rounding of the margin and of
    the bound).  So the picks are the only selection holding the
    maximum computed sum, at every prefix of the groups: the DP's
    first-column ``argmax`` lands on the picks' weight, each back-walk
    step finds its group's pick as the one candidate reaching the
    cell's value, and the value is the same left-to-right sum.
    docs/ARCHITECTURE.md, *Bit-exactness rules*, has the details.

    Raises:
        ValueError: An item has a negative weight.
    """
    reach = 0
    total = 0.0
    margin = inf
    picks: List[Optional[Item]] = []
    for group in groups:
        heaviest = 0
        best = runner = 0.0  # a runner-up of 0.0 is "take nothing"
        pick = None
        for item in group:
            w, v = item[0], item[1]
            if w < 0:
                raise ValueError(f"weight must be >= 0, got {w}")
            if w > capacity or not v > 0:
                continue
            if w > heaviest:
                heaviest = w
            if v > best:
                best, runner, pick = v, best, item
            elif v > runner:
                runner = v
        reach += heaviest
        picks.append(pick)
        if pick is not None:
            total += best
            margin = min(margin, best - runner)
    if reach > capacity or not _certified(margin, len(groups), total):
        return None
    return total, picks


def solve_ladder(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Optional[Tuple[float, List[Optional[Item]]]]:
    """The DP's answer without the table, when every group is a ladder.

    A group is a *ladder* of step ``s`` when its ``k``-th live item
    (live as in :func:`table_shape`) weighs exactly ``k * s``, ``v_1 >
    0``, and each later value climbs ``v_{k-1} < v_k <= 2 * v_{k-1}``
    by an increment ``v_k - v_{k-1}`` no larger than the one before.
    Sterbenz's lemma makes every increment exact.  When every group is a
    ladder of one shared step and the reach exceeds the capacity, the
    ``m = capacity // s`` largest increments are the exact optimum:
    each group's pick is its item at its count of them, and the picks'
    values are summed left to right from ``0.0``.  That is exactly what
    :func:`solve_mckp`'s DP returns — the same float, the same items —
    when the *margin*, the ``m``-th largest increment minus the
    ``m + 1``-th, is above :func:`solve_whole`'s ``4 * (G + 1) * 2**-53
    * total``; None is returned otherwise.

    Proof.  A selection of groups ``1..g`` that fits the picks' weight
    there takes at most as many increments as the picks do, each
    group's increments from its lowest rung up.  Trading the picks'
    increments (each at least the ``m``-th largest) for others (each at
    most the ``m + 1``-th) costs at least the margin per trade, and
    taking fewer costs at least the ``m``-th itself, so any other such
    selection is below the picks' prefix, exactly, by at least the
    margin.  From there :func:`solve_whole`'s argument carries over:
    the picks are the only selection holding the maximum computed sum
    at every prefix of the groups, the DP's first-column ``argmax`` is
    their weight, and the back-walk finds each group's pick.
    docs/ARCHITECTURE.md, *Bit-exactness rules*, has the details.
    """
    step = 0
    ladders: List[Tuple[List[Item], List[float]]] = []  # live, increments
    gains: List[float] = []  # every group's increments
    for group in groups:
        live: List[Item] = []
        ups: List[float] = []
        last, up = 0.0, inf
        for item in group:
            w, v = item[0], item[1]
            if w > capacity or not v > 0:
                continue
            if not step:
                if w <= 0:
                    return None
                step = w
            if w != step * (len(live) + 1) or (
                live and not last < v <= 2 * last
            ):
                return None
            gain = v - last
            if gain > up:
                return None
            live.append(item)
            ups.append(gain)
            last, up = v, gain
        ladders.append((live, ups))
        gains.extend(ups)
    m = capacity // step if step else len(gains)
    if len(gains) <= m:
        return None  # nothing live, or it fits whole: solve_whole's case
    gains.sort(reverse=True)
    cut, below = gains[m - 1], gains[m]
    total = 0.0
    picks: List[Optional[Item]] = []
    for live, ups in ladders:
        n = 0
        for gain in ups:
            if gain < cut:
                break
            n += 1
        if n:
            picks.append(live[n - 1])
            total += live[n - 1][1]
        else:
            picks.append(None)
    if not _certified(cut - below, len(groups), total):
        return None
    return total, picks


def _certified(margin: float, num_groups: int, total: float) -> bool:
    """Whether ``margin`` exceeds the rounding a left-to-right sum of
    ``num_groups`` positive values up to ``total`` can hide."""
    return margin > 4 * (num_groups + 1) * _ROUNDOFF * total


def _dp_rows(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[np.ndarray, List[np.ndarray], int]:
    """The DP table: per-item shifted-row updates over numpy rows.

    Bit-exact with the plain-loop, full-width reference
    (:func:`repro.oracle.reference.solve_mckp_scalar`, property-pinned
    in the tests): items are still visited in order and each update
    computes ``dp[c - w] + v`` — the identical IEEE-754 double operation
    the scalar inner loop performs, just over the whole row at once.

    Per-*group* batching would be exact too: stack the group's
    candidate rows ``dp[c - w] + v`` (the same additions) under the
    take-nothing row, padded with ``-inf``, and reduce over the item
    axis.  A maximum returns one of its inputs, so no reduction order
    can round it, and ``argmax`` returns the first maximum — the item
    the strict ``>`` update below keeps, with taking nothing (row 0)
    winning ties.  Only a *summation* tree rounds differently from a
    left-to-right scan, and no sum is reduced here.  It is not done
    because it does not pay: on the tables the e2e ``lyra_pair`` and
    ``lyra_market`` workloads built (median 25 cells, ~70 live items)
    stacking ran 1.34x and 0.87x as fast, and nearly all of those
    instances are ladders :func:`solve_ladder` answers without a table.

    The row is :func:`table_shape` wide and column ``j`` is the full
    table's column ``j * unit``, same additions in the same order: a
    cell reads only cells to its left, at multiples of ``unit``, and
    every full-table cell past the reach equals the one at it — so the
    first column holding the optimum is kept (docs/ARCHITECTURE.md,
    *Bit-exactness rules*).  Returns ``(dp, choice, unit)``.
    """
    width, unit = table_shape(groups, capacity)
    cells = width + 1
    dp = np.zeros(cells, dtype=np.float64)
    choice: List[np.ndarray] = []
    for group in groups:
        new_dp = dp.copy()  # taking nothing is always valid
        taken = np.full(cells, -1, dtype=np.int64)
        for idx, item in enumerate(group):
            weight, value = item[0], item[1]
            if weight > capacity or not value > 0:
                continue
            w = weight // unit
            candidate = dp[: cells - w] + value
            target = new_dp[w:]
            better = candidate > target
            np.putmask(target, better, candidate)
            np.putmask(taken[w:], better, idx)
        dp = new_dp
        choice.append(taken)
    return dp, choice, unit


def solve_mckp(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[float, List[Optional[Item]]]:
    """Solve MCKP exactly: by :func:`solve_whole` or :func:`solve_ladder`
    when one certifies its answer, else by dynamic programming.

    Args:
        groups: One sequence of candidate items per group; picking zero
            items from a group is always allowed.
        capacity: Knapsack capacity (non-negative integer).

    Returns:
        ``(total_value, choices)`` where ``choices[i]`` is the item chosen
        from ``groups[i]`` or None — bit-for-bit the DP's answer on every
        path.  The DP takes ``O(items × min(capacity, reach) / unit)``
        time, ``groups`` for ``items`` in space (:func:`table_shape`).

    Raises:
        ValueError: Negative capacity, or an item of negative weight.
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    fast = solve_whole(groups, capacity) or solve_ladder(groups, capacity)
    if fast is not None:
        return fast

    num_groups = len(groups)
    dp, choice, unit = _dp_rows(groups, capacity)
    # the first (smallest) capacity achieving the max
    cap = int(np.argmax(dp))

    # Reconstruct the chosen item per group by walking groups backwards.
    choices: List[Optional[Item]] = [None] * num_groups
    best_value = float(dp[cap])
    for g in range(num_groups - 1, -1, -1):
        idx = int(choice[g][cap])
        if idx >= 0:
            item = groups[g][idx]
            choices[g] = item
            cap -= item[0] // unit
    return best_value, choices


def solution_cost(
    choices: Sequence[Optional[Item]],
) -> Tuple[float, int]:
    """``(total_value, total_weight)`` of a choice vector.

    The one shared accounting both solvers' outputs are scored with —
    property tests and the repro.oracle conformance checks use it to
    certify that a reported optimum is consistent with (and feasible
    for) the items actually chosen.
    """
    value = sum(item[1] for item in choices if item is not None)
    weight = sum(item[0] for item in choices if item is not None)
    return value, weight


def solve_mckp_bruteforce(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[float, List[Optional[Item]]]:
    """Exhaustive MCKP solver for testing (exponential; keep inputs tiny)."""
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    best_value = 0.0
    best_choice: List[Optional[Item]] = [None] * len(groups)
    options = [[None] + list(group) for group in groups]
    for combo in itertools.product(*options):
        weight = sum(item[0] for item in combo if item is not None)
        if weight > capacity:
            continue
        value = sum(item[1] for item in combo if item is not None)
        if value > best_value:
            best_value = value
            best_choice = list(combo)
    return best_value, best_choice
