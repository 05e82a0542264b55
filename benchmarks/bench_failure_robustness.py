"""Robustness under node failures (extension).

The production clusters the paper draws from lose nodes routinely; the
resource-manager substrate injects exponential node failures and repairs.
This bench measures how gracefully Baseline and Lyra degrade: Lyra must
keep its advantage, and elastic jobs should convert some base-worker
losses into scale-ins instead of restarts.
"""

from benchmarks.bench_util import emit, get_setup, run_cached
from repro.faults.plan import FaultPlan, NodeFailureProcess


def build():
    setup = get_setup()
    rows = []
    cells = {}
    for mtbf, label in ((None, "no failures"), (21600.0, "MTBF 6 h"),
                        (7200.0, "MTBF 2 h")):
        for scheme in ("baseline", "lyra"):
            overrides = {"fault_plan": FaultPlan(
                name="node-mtbf", process=NodeFailureProcess(mtbf=mtbf)
            )} if mtbf else {}
            metrics = run_cached(
                setup, scheme,
                sim_overrides=overrides,
                cache_key=f"fail-{label}",
            )
            cells[(label, scheme)] = metrics
            rows.append(
                [
                    label,
                    scheme,
                    metrics.node_failures,
                    metrics.preemptions,
                    metrics.queuing_summary().mean,
                    metrics.jct_summary().mean,
                    metrics.completion_ratio(),
                ]
            )
    return rows, cells


def bench_failure_robustness(benchmark):
    rows, cells = benchmark.pedantic(build, rounds=1, iterations=1)
    emit(
        "failures", "Extension: degradation under injected node failures",
        ["failures", "scheme", "nodes lost", "preemptions", "queue mean",
         "jct mean", "completed"],
        rows,
    )
    # Failures actually happened at the aggressive setting...
    assert cells[("MTBF 2 h", "lyra")].node_failures > 0
    # ...everything still completes...
    for metrics in cells.values():
        assert metrics.completion_ratio() >= 0.99
    # ...and Lyra keeps beating Baseline on JCT at every failure rate.
    for label in ("no failures", "MTBF 6 h", "MTBF 2 h"):
        assert (
            cells[(label, "lyra")].jct_summary().mean
            < cells[(label, "baseline")].jct_summary().mean
        )
