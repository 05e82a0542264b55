"""The benchmark's metric tables and the per-layer arithmetic.

``BENCHMARK.json`` at the repo root is the one place that names the
workloads and the driver-gated metrics (name, unit, better, bound);
:data:`WORKLOADS`, :data:`END_TO_END` and :data:`PER_LAYER` are read
from it.  :data:`EXTENDED` holds the end-to-end metrics that exist for
one kind of workload only (a simulator run has no ack latency, a daemon
has no simulated JCT); they are printed, written to the result file and
judged by ``compare``, but ``BENCHMARK.json`` has a single metric list
that every workload must report, so they cannot live there.
"""

from __future__ import annotations

import json
from pathlib import Path

_SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

#: name -> one-line reason the workload exists
WORKLOADS = {w["name"]: w["why"] for w in _SPEC["workloads"]}

SERVE_WORKLOAD = "serve_durable"

#: the window one run is sized for, in seconds
RUN_SECONDS = _SPEC["run_seconds"]

#: driver-gated, reported by every workload: (name, unit, better, bound)
END_TO_END = tuple(
    (m["name"], m["unit"], m["better"], m["bound"])
    for m in _SPEC["end_to_end"]
)

#: traced run: (name, unit, better)
PER_LAYER = tuple(
    (m["name"], m["unit"], m["better"]) for m in _SPEC["per_layer"]
)

#: kind-specific end-to-end metrics: (name, unit, better, bound).
#: bound None = must repeat exactly (deterministic simulated output);
#: "step" = may drop by one ladder step.
EXTENDED = {
    "sim": (
        ("run_wall_s", "s", "lower", 0.25),
        ("jct_mean_s", "s", "lower", None),
        ("queue_mean_s", "s", "lower", None),
        ("preemption_ratio", "share", "lower", None),
        ("failed_share", "share", "lower", None),
    ),
    "serve": (
        ("ack_p50_ms", "ms", "lower", 0.25),
        # 25 requests lie beyond this percentile, all of them caught
        # behind a snapshot: same-commit runs differ by ±25 %
        ("ack_p95_ms", "ms", "lower", 0.50),
        ("submit_to_start_p50_ms", "ms", "lower", 0.25),
        ("submit_to_start_p95_ms", "ms", "lower", 0.25),
        ("max_rate_ok_rps", "1/s", "higher", "step"),
        ("restart_s", "s", "lower", 0.25),
        ("failed_share", "share", "lower", None),
    ),
}


def kind_of(workload: str) -> str:
    return "serve" if workload == SERVE_WORKLOAD else "sim"


def unit_of(name: str) -> str:
    for table in (END_TO_END, PER_LAYER, *EXTENDED.values()):
        for row in table:
            if row[0] == name:
                return row[1]
    raise KeyError(name)


def layer_metrics(summary: dict) -> dict:
    """Per-layer metric values from one :func:`e2e_spans.summarise`.

    Everything the spans and boundary counters can give; the metrics
    that need the harness (``mckp.paper354_solve_ms``, market books,
    ``recovery.restart_replayed``, generator lateness, trace overhead)
    are filled in by the caller.  A layer that did not run reads 0.
    """
    from e2e_spans import percentile

    by, counters = summary["by_name"], summary["counters"]

    def span(name: str, field: str):
        return by.get(name, {}).get(field, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    epochs = summary["epoch_s"]
    wal = summary["durations_s"].get("recovery.wal", [])
    mckp_calls = span("mckp", "calls")
    return {
        "traces.generate_s": span("traces", "total_s"),
        "simulator.self_s": span("simulator", "self_s"),
        "simulator.events": counters.get("simulator.events", 0),
        "kernel.epochs": len(epochs),
        "kernel.epoch_mean_ms": 1e3 * ratio(sum(epochs), len(epochs)),
        "kernel.epoch_p99_ms": 1e3 * percentile(epochs, 99),
        "schedulers.plan_self_s": span("schedulers", "self_s"),
        "allocation.calls": span("allocation", "calls"),
        "allocation.self_s": span("allocation", "self_s"),
        "allocation.admitted": counters.get("allocation.admitted", 0),
        "allocation.skipped": counters.get("allocation.skipped", 0),
        "mckp.calls": mckp_calls,
        "mckp.total_s": span("mckp", "total_s"),
        "mckp.items_mean": ratio(counters.get("mckp.items", 0), mckp_calls),
        "mckp.capacity_mean": ratio(
            counters.get("mckp.capacity", 0), mckp_calls
        ),
        "placement.calls": span("placement", "calls"),
        "placement.total_s": span("placement", "total_s"),
        "placement.requests": counters.get("placement.requests", 0),
        "placement.placed_share": ratio(
            counters.get("placement.base_placed", 0),
            counters.get("placement.base_attempted", 0),
        ),
        "view.delta_calls": span("view.delta", "calls"),
        "view.delta_total_s": span("view.delta", "total_s"),
        "view.query_total_s": span("view.query", "total_s"),
        "orchestrator.ticks": span("orchestrator", "calls"),
        "orchestrator.self_s": span("orchestrator", "self_s"),
        "reclaim.calls": span("reclaim", "calls"),
        "reclaim.total_s": span("reclaim", "total_s"),
        "reclaim.servers_reclaimed": counters.get(
            "reclaim.servers_reclaimed", 0
        ),
        "reclaim.preemptions": counters.get("reclaim.preemptions", 0),
        "market.clear_total_s": span("market", "total_s"),
        "actions.apply_calls": span("actions", "calls"),
        "actions.apply_total_s": span("actions", "total_s"),
        "actions.committed": counters.get("actions.committed", 0),
        "actions.rejected": counters.get("actions.rejected", 0),
        "recovery.wal_appends": span("recovery.wal", "calls"),
        "recovery.wal_append_total_s": span("recovery.wal", "total_s"),
        "recovery.wal_append_p95_ms": 1e3 * percentile(wal, 95),
        "recovery.snapshots": span("recovery.snapshot", "calls"),
        "recovery.snapshot_total_s": span("recovery.snapshot", "total_s"),
        "serve.requests": span("serve.dispatch", "calls"),
        "serve.dispatch_total_s": span("serve.dispatch", "total_s"),
        "serve.journal_appends": span("serve.journal", "calls"),
        "serve.journal_append_total_s": span("serve.journal", "total_s"),
        "serve.epoch_batch_mean": ratio(
            counters.get("serve.submits", 0), len(epochs)
        ),
        "serve.rejected": counters.get("serve.rejected", 0),
    }
