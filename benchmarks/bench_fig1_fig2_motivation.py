"""Figures 1 and 2 — the motivation measurements.

Fig. 1: inference-cluster GPU utilization over one week (diurnal, 42-95 %,
mean ~65 %, peak/trough ~2.2).  Fig. 2: the hourly fraction of
newly-submitted training jobs that queue under the status-quo scheduler,
at ~82 % training-cluster utilization with >3,000 s mean queuing.
"""

import numpy as np

from benchmarks.bench_util import emit, get_setup, run_cached
from repro.paper import FIG1, TABLE5, WORKLOAD_STATS
from repro.simulator.metrics import TimeSeries


def build_fig1():
    trace = get_setup().inference_trace
    util = np.asarray(trace.utilization)
    # 5-min samples bucketed into hours by the TimeSeries helpers.
    series = TimeSeries.from_samples(trace.utilization, interval=300.0)
    hours = series.hourly_means()
    return trace, util, series, hours


def bench_fig1_inference_utilization(benchmark):
    trace, util, series, hours = benchmark.pedantic(
        build_fig1, rounds=1, iterations=1
    )
    rows = [
        ["mean", float(np.mean(util)), FIG1["mean"]],
        ["min (trough)", float(np.min(util)), FIG1["trough"]],
        ["max (peak)", float(max(series.hourly_max())), FIG1["peak"]],
        ["peak/trough", trace.peak_to_trough(), FIG1["peak_to_trough"]],
    ]
    sparkline = "".join(
        " .:-=+*#%@"[min(9, int(v * 10))] for v in hours[: 48]
    )
    emit(
        "fig1", "Fig. 1: inference cluster GPU utilization",
        ["statistic", "measured", "paper"], rows,
        notes=f"first 48 hourly samples: [{sparkline}]",
    )
    assert 0.55 <= float(np.mean(util)) <= 0.75
    assert trace.peak_to_trough() > 1.6  # strongly diurnal


def bench_fig2_queuing_ratio(benchmark):
    setup = get_setup()
    metrics = benchmark.pedantic(
        lambda: run_cached(setup, "baseline"), rounds=1, iterations=1
    )
    ratios = metrics.hourly_queuing_ratio
    rows = [
        ["mean hourly queuing ratio", float(np.mean(ratios)), "high"],
        ["max hourly queuing ratio", float(np.max(ratios)), 1.0],
        ["hours with ratio > 0.5", sum(r > 0.5 for r in ratios), "-"],
        ["mean queuing time (s)", metrics.queuing_summary().mean,
         TABLE5["baseline"].queuing_mean],
        ["training utilization", metrics.training_usage.mean(),
         WORKLOAD_STATS["training_utilization"]],
    ]
    emit("fig2", "Fig. 2: hourly queuing-job ratio under the baseline",
         ["statistic", "measured", "paper"], rows)
    # The congestion regime: some hours see most submissions queue, and
    # the cluster still runs hot.
    assert float(np.max(ratios)) >= 0.8
    assert metrics.training_usage.mean() >= 0.7
    assert metrics.queuing_summary().mean > 1000.0
