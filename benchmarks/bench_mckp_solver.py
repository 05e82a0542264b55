"""§5.2 — MCKP solver runtime at production problem sizes.

The paper reports that its worst-case phase-two instance — 354 items over
245 free GPUs — solves in 0.02 s via dynamic programming.  This bench
times exactly that instance shape, a 4x larger one, and the shapes the
e2e ``lyra_wide`` (183 items, 2,514 free GPUs, a reach of 366) and
``lyra_pair`` (71 items, 52 free GPUs, a reach of 142) workloads solve
across the solvers — ``solve_mckp`` (the certified per-group arg-max
when the demand fits whole, the certified ladder when every group climbs
one weight step with concave values, else the vectorized numpy DP over a
table clamped to what the instance can reach), the full-width scalar
reference DP from ``repro.oracle``, and brute force on a tiny instance —
checks they agree exactly, records the comparison, each instance's full
vs clamped table size and which path answers it (``path``: ``whole``,
``ladder`` or ``table``) in ``benchmarks/results/BENCH_mckp.json``, and
fails if the wide instance solves slower than the paper's (fewer items
must not cost more because the cluster around them is bigger) or if an
instance leaves its path: the wide one must fit whole, the pair one
take the ladder, and the paper's — two weight steps, 1 and 2 GPUs per
worker — the table (so the e2e ``mckp.paper354_solve_ms`` keeps timing
the DP).

Runs under pytest-benchmark (``pytest benchmarks/bench_mckp_solver.py``)
or standalone::

    python benchmarks/bench_mckp_solver.py
"""

import json
import os
import random
import sys
import time

if __package__ in (None, ""):  # standalone: make repro + benchmarks importable
    sys.path.insert(
        0, os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir))

from benchmarks.bench_util import emit  # noqa: E402
from repro.core.mckp import (  # noqa: E402
    Item,
    solve_ladder,
    solve_mckp,
    solve_mckp_bruteforce,
    solve_whole,
    table_shape,
)
from repro.ioutil import atomic_write  # noqa: E402
from repro.oracle.reference import solve_mckp_scalar  # noqa: E402

RESULTS = os.path.join(os.path.dirname(__file__), "results")


def make_instance(num_items: int, capacity: int, seed: int = 0):
    """Groups shaped like Fig. 6: consecutive weights, concave values."""
    rng = random.Random(seed)
    groups = []
    items = 0
    while items < num_items:
        size = min(rng.randint(1, 8), num_items - items)
        gpw = rng.choice([1, 2])
        base_value = rng.uniform(50, 5000)
        group = []
        for k in range(1, size + 1):
            # diminishing JCT reductions, exactly like elastic jobs
            group.append(
                Item(weight=k * gpw, value=base_value * k / (k + 1))
            )
        groups.append(group)
        items += size
    return groups, capacity


#: group sizes of the ``lyra_wide`` shape: 31 groups, 183 items
WIDE_GROUP_SIZES = [16] * 3 + [12] * 2 + [8] * 5 + [7] + [4] * 12 + [2] * 8


def make_wide_instance():
    """The mean phase-two instance of the e2e ``lyra_wide`` workload.

    Measured there over 491 solves: 31 groups, 183 items, every job at 2
    GPUs per worker (all weights even), the heaviest items summing to
    ~365 GPUs — against a free capacity of 2,514.  The table the answer
    can depend on is 184 columns; the free cluster offers 2,515.
    """
    rng = random.Random(0)
    sizes = list(WIDE_GROUP_SIZES)
    rng.shuffle(sizes)
    groups = []
    for size in sizes:
        base_time = rng.uniform(2000, 9000)
        groups.append([
            Item(weight=2 * k, value=base_time * k / (k + size / 2))
            for k in range(1, size + 1)
        ])
    return groups, 2514


#: group sizes of the ``lyra_pair`` shape: 11 groups, 71 items
PAIR_GROUP_SIZES = [16] * 2 + [12] + [8] + [4] * 3 + [2] * 3 + [1]


def make_pair_instance():
    """The mean phase-two instance of the e2e ``lyra_pair`` workload
    among the 786 of its 1,453 solves (seed 0, first trace) that do not
    fit whole: 10.5 groups, 71 items, every job at 2 GPUs per worker,
    52.5 free GPUs, a reach of 142.  The DP table answered them all
    before the ladder, which now answers 783."""
    rng = random.Random(0)
    sizes = list(PAIR_GROUP_SIZES)
    rng.shuffle(sizes)
    groups = []
    for size in sizes:
        base_time = rng.uniform(200, 900)
        groups.append([
            Item(weight=2 * k, value=base_time * k / (k + size / 2))
            for k in range(1, size + 1)
        ])
    return groups, 52


def solver_path(groups, capacity) -> str:
    """Which of ``solve_mckp``'s paths answers the instance."""
    if solve_whole(groups, capacity) is not None:
        return "whole"
    if solve_ladder(groups, capacity) is not None:
        return "ladder"
    return "table"


def _time(fn, repeats: int = 5) -> float:
    """Best-of-N wall time in seconds (min damps scheduler noise)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return min(samples)


def solver_comparison() -> dict:
    """Vectorized vs scalar vs brute-force timings, with exactness checks."""
    instances = {
        "paper_354x245": make_instance(354, 245),
        "4x_1400x980": make_instance(1400, 980, seed=1),
        "wide_183x2514": make_wide_instance(),
        "pair_71x52": make_pair_instance(),
    }
    out = {"instances": {}, "bruteforce": {}}
    for name, (groups, capacity) in instances.items():
        v_np, c_np = solve_mckp(groups, capacity)
        v_py, c_py = solve_mckp_scalar(groups, capacity)
        assert v_np == v_py and c_np == c_py, (
            f"{name}: vectorized and scalar DP disagree"
        )
        t_np = _time(lambda: solve_mckp(groups, capacity), repeats=25)
        t_py = _time(lambda: solve_mckp_scalar(groups, capacity))
        width, unit = table_shape(groups, capacity)
        out["instances"][name] = {
            "items": sum(len(g) for g in groups),
            "groups": len(groups),
            "capacity": capacity,
            "unit": unit,
            "table_cells_full": len(groups) * (capacity + 1),
            "table_cells_clamped": len(groups) * (width + 1),
            "path": solver_path(groups, capacity),
            "value": v_np,
            "vectorized_s": round(t_np, 6),
            "scalar_s": round(t_py, 6),
            "speedup": round(t_py / t_np, 3) if t_np else None,
        }
    # brute force only on a tiny instance (exponential)
    groups, capacity = make_instance(9, 8, seed=2)
    v_np, _ = solve_mckp(groups, capacity)
    v_bf, _ = solve_mckp_bruteforce(groups, capacity)
    assert abs(v_np - v_bf) < 1e-9, "DP missed the brute-force optimum"
    out["bruteforce"] = {
        "items": sum(len(g) for g in groups),
        "capacity": capacity,
        "value": v_bf,
        "bruteforce_s": round(_time(
            lambda: solve_mckp_bruteforce(groups, capacity), repeats=3
        ), 6),
        "vectorized_s": round(_time(
            lambda: solve_mckp(groups, capacity)
        ), 6),
    }
    out["paper_reference_s"] = 0.02
    paths = {name: row["path"] for name, row in out["instances"].items()}
    want = {"wide_183x2514": "whole", "pair_71x52": "ladder",
            "paper_354x245": "table"}
    assert all(paths[name] == path for name, path in want.items()), (
        f"paths {paths}: the lyra_wide shape must fit whole, the "
        f"lyra_pair shape take the ladder and the paper's instance the DP"
    )
    wide = out["instances"]["wide_183x2514"]["vectorized_s"]
    paper = out["instances"]["paper_354x245"]["vectorized_s"]
    assert wide <= paper, (
        f"wide_183x2514 solves in {wide * 1e3:.2f} ms, slower than "
        f"paper_354x245 ({paper * 1e3:.2f} ms): the table is following "
        f"the free cluster again, not the flexible demand on offer"
    )
    return out


def write_report(comparison: dict) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    path = os.path.join(RESULTS, "BENCH_mckp.json")
    with atomic_write(path) as fh:
        json.dump(comparison, fh, indent=2)
        fh.write("\n")
    return path


def bench_mckp_paper_instance(benchmark):
    groups, capacity = make_instance(354, 245)

    def solve():
        return solve_mckp(groups, capacity)

    value, choices = benchmark(solve)
    taken = [c for c in choices if c is not None]
    weight = sum(item.weight for item in taken)

    comparison = solver_comparison()
    paper = comparison["instances"]["paper_354x245"]
    big = comparison["instances"]["4x_1400x980"]
    wide = comparison["instances"]["wide_183x2514"]
    pair = comparison["instances"]["pair_71x52"]
    write_report(comparison)

    emit(
        "mckp", "§5.2: MCKP dynamic-programming runtime",
        ["metric", "value"],
        [
            ["items / capacity", "354 / 245 (paper's worst case)"],
            ["vectorized DP time (s)", paper["vectorized_s"]],
            ["scalar DP time (s)", paper["scalar_s"]],
            ["vectorized speedup", paper["speedup"]],
            ["paper time (s)", 0.02],
            ["solution value", value],
            ["solution weight", weight],
            ["4x instance vectorized (s)", big["vectorized_s"]],
            ["4x instance scalar (s)", big["scalar_s"]],
            ["lyra_wide-shaped 183 x 2,514 solve_mckp (s)",
             wide["vectorized_s"]],
            ["its path", wide["path"]],
            ["its table cells, full -> clamped",
             f"{wide['table_cells_full']} -> {wide['table_cells_clamped']}"],
            ["lyra_pair-shaped 71 x 52 solve_mckp (s)", pair["vectorized_s"]],
            ["its path", pair["path"]],
        ],
    )
    assert weight <= capacity
    assert value > 0
    # Interactive even with slack for slow machines.
    assert paper["vectorized_s"] < 0.5


def main() -> int:
    comparison = solver_comparison()
    path = write_report(comparison)
    for name, row in comparison["instances"].items():
        print(
            f"{name:16s} vectorized {row['vectorized_s']*1e3:8.2f} ms  "
            f"scalar {row['scalar_s']*1e3:8.2f} ms  "
            f"speedup {row['speedup']:.2f}x  "
            f"cells {row['table_cells_full']} -> {row['table_cells_clamped']}"
            f"  {row['path']}"
        )
    bf = comparison["bruteforce"]
    print(
        f"{'bruteforce(tiny)':16s} bruteforce {bf['bruteforce_s']*1e3:8.2f} "
        f"ms  vectorized {bf['vectorized_s']*1e3:8.2f} ms"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
