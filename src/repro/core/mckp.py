"""Multiple-choice knapsack solver (§5.2, phase two).

Lyra casts the distribution of leftover GPUs to elastic jobs' flexible
demand as a multiple-choice knapsack problem (MCKP): every elastic job is a
*group*; each possible flexible allocation of that job is an *item* whose
weight is its GPU count and whose value is the resulting JCT reduction
(Fig. 6).  At most one item per group may be chosen.  MCKP is NP-hard but
pseudo-polynomial dynamic programming solves production-sized instances in
milliseconds (the paper reports 0.02 s for 354 items / 245 GPUs).

This module is deliberately generic — items carry an opaque payload — so it
is reusable and property-testable against brute force.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Item:
    """One candidate allocation inside a group.

    Attributes:
        weight: Integral resource cost (GPUs).
        value: Benefit of picking this item (seconds of JCT reduction).
        payload: Opaque caller data carried through to the solution.
    """

    weight: int
    value: float
    payload: Any = None

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"weight must be >= 0, got {self.weight}")


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
            w = item.weight
            if w <= capacity and item.value > 0:
                unit = gcd(unit, w)
                if w > heaviest:
                    heaviest = w
        reach += heaviest
    unit = unit or 1  # no live item, or every live weight is 0
    return min(capacity, reach) // unit, unit


def _dp_rows(
    groups: Sequence[Sequence[Item]], capacity: int
) -> Tuple[np.ndarray, List[np.ndarray], int]:
    """The DP table: per-item shifted-row updates over numpy rows.

    Bit-exact with the plain-loop, full-width reference
    (:func:`repro.oracle.reference.solve_mckp_scalar`, property-pinned
    in the tests): items are still visited in order and each update
    computes ``dp[c - w] + v`` — the identical IEEE-754 double operation
    the scalar inner loop performs, just over the whole row at once.
    (Per-*group* batching via reductions is NOT used: numpy's pairwise
    summation/maximum trees can round differently from a left-to-right
    scan, which would break the golden-log pin.)

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
            if item.weight > capacity or not item.value > 0:
                continue
            w = item.weight // unit
            candidate = dp[: cells - w] + item.value
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
    """Solve MCKP by dynamic programming.

    Args:
        groups: One sequence of candidate items per group; picking zero
            items from a group is always allowed.
        capacity: Knapsack capacity (non-negative integer).

    Returns:
        ``(total_value, choices)`` where ``choices[i]`` is the item chosen
        from ``groups[i]`` or None.  ``O(items × min(capacity, reach) /
        unit)`` time, ``groups`` for ``items`` in space (:func:`table_shape`).
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")

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
            cap -= item.weight // unit
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
    value = sum(item.value for item in choices if item is not None)
    weight = sum(item.weight for item in choices if item is not None)
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
        weight = sum(item.weight for item in combo if item is not None)
        if weight > capacity:
            continue
        value = sum(item.value for item in combo if item is not None)
        if value > best_value:
            best_value = value
            best_choice = list(combo)
    return best_value, best_choice
