"""Table 5 — simulation results in different scenarios using different
schemes (the paper's main table).

Rows 1-5: Baseline FIFO and full Lyra under Basic / Advanced /
Heterogeneous / Ideal.  Rows 6-9: capacity loaning only (Opportunistic,
Random, SCF, Lyra).  Rows 10-14: elastic scaling only (Gandiva, AFS,
Pollux, Lyra, Lyra+TunedJobs).

Shape assertions (not absolute numbers): Lyra reduces mean queuing and
JCT versus Baseline; Ideal is the upper bound among scenarios; the Lyra
reclaimer preempts no more than Random; Lyra+TunedJobs beats plain Lyra
scaling on JCT.
"""

from benchmarks.bench_util import (
    SCHEME_HEADERS,
    emit,
    get_setup,
    reductions_vs,
    run_cached,
    scheme_row,
)
from repro.paper import HEADLINES, TABLE5


def build_table():
    setup = get_setup()
    rows = []
    cells = {}

    def add(label, scheme, scenario="basic", **kw):
        metrics = run_cached(setup, scheme, scenario=scenario, **kw)
        cells[label] = metrics
        rows.append(scheme_row(label, metrics))
        return metrics

    add("Baseline", "baseline")
    add("Basic/Lyra", "lyra")
    add("Advanced/Lyra", "lyra", scenario="advanced")
    add("Heterogeneous/Lyra", "lyra", scenario="heterogeneous")
    add("Ideal/Lyra", "lyra", scenario="ideal")
    add("CL/Opportunistic", "opportunistic")
    add("CL/Random", "random_loaning")
    add("CL/SCF", "scf_loaning")
    add("CL/Lyra", "lyra_loaning")
    add("ES/Gandiva", "gandiva")
    add("ES/AFS", "afs")
    add("ES/Pollux", "pollux")
    add("ES/Lyra", "lyra_scaling")
    add("ES/Lyra+TunedJobs", "lyra_tuned")
    return rows, cells


def bench_table5_main_results(benchmark):
    rows, cells = benchmark.pedantic(build_table, rounds=1, iterations=1)

    baseline = cells["Baseline"]
    q_red, jct_red = reductions_vs(baseline, cells["Basic/Lyra"])
    notes = (
        f"Lyra vs Baseline (Basic): queuing reduction {q_red:.2f}x "
        f"(paper {HEADLINES['queuing_reduction_basic']:.2f}x), JCT reduction "
        f"{jct_red:.2f}x (paper {HEADLINES['jct_reduction_basic']:.2f}x)\n"
        f"Overall usage: {baseline.overall_usage.mean():.2f} -> "
        f"{cells['Basic/Lyra'].overall_usage.mean():.2f} "
        f"(paper {TABLE5['baseline'].usage_overall:.2f} -> "
        f"{TABLE5['basic'].usage_overall:.2f})"
    )
    emit("table5", "Table 5: main simulation results", SCHEME_HEADERS, rows,
         notes)

    # --- shape assertions -------------------------------------------------
    basic = cells["Basic/Lyra"]
    ideal = cells["Ideal/Lyra"]
    assert basic.queuing_summary().mean < baseline.queuing_summary().mean
    assert basic.jct_summary().mean < baseline.jct_summary().mean
    assert basic.overall_usage.mean() > baseline.overall_usage.mean()
    # Ideal is the performance upper bound (row 5).
    assert ideal.jct_summary().mean <= basic.jct_summary().mean * 1.05
    # Loaning-only group: Lyra's reclaimer preempts the least (row 7-9).
    assert (
        cells["CL/Lyra"].preemption_ratio
        <= cells["CL/Random"].preemption_ratio
    )
    # Scaling-only group: tuning adds JCT gains (rows 13-14).
    assert (
        cells["ES/Lyra+TunedJobs"].jct_summary().mean
        <= cells["ES/Lyra"].jct_summary().mean * 1.05
    )
    # Scaling helps loaning (§7.2): with elastic scaling on, part of
    # every reclaim demand is satisfied by the flex group preemption-free.
    assert basic.mean_flex_satisfied() >= cells["CL/Lyra"].mean_flex_satisfied() - 0.05
