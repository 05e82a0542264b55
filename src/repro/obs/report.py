"""`repro report`: the markdown run report, the one summary of a trace.

The report renders a :class:`~repro.obs.timeline.TimelineStore`: JCT
and queue-wait percentiles from the metrics registry snapshot embedded
in the trace, utilization from the periodic ``cluster.usage`` samples,
the event census, loan/reclaim and preemption summaries from lifecycle
events, the decision ledger from ``plan.provenance``, the phase call
counts and the recorded counters and gauges — simulated-time data all.
The one wall-clock section, the per-phase timing table, comes last
under :data:`WALL_CLOCK_HEADING`: everything above that heading is
byte-identical across two same-seed runs and across the JSONL and
Chrome exports of one run, which CI asserts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import percentile
from repro.obs.tracer import SPAN_EVENT

#: percentiles shown in the latency tables
_PCTS = (25, 50, 75, 95, 99)

#: how many of the most-preempted jobs the report names
TOP_PREEMPTED = 5

#: the heading of the report's last section, its only wall-clock content
WALL_CLOCK_HEADING = "## Phase timing (wall clock)"


def _fmt(value: Optional[float], digits: int = 1) -> str:
    if value is None or value != value:  # None or NaN
        return "-"
    return f"{value:.{digits}f}"


def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:.2f}h"


def _hist_row(label: str, hist: Optional[Dict[str, Any]],
              values: List[float]) -> str:
    """One row of a latency table: prefer the registry snapshot, fall
    back to event-derived values (e.g. a trace without a summary)."""
    if hist:
        cells = [str(int(hist.get("count", 0))),
                 _fmt(hist.get("mean"))]
        cells += [_fmt(hist.get(f"p{p}")) for p in _PCTS]
        cells += [_fmt(hist.get("min")), _fmt(hist.get("max"))]
    elif values:
        cells = [str(len(values)),
                 _fmt(sum(values) / len(values))]
        cells += [_fmt(percentile(values, p)) for p in _PCTS]
        cells += [_fmt(min(values)), _fmt(max(values))]
    else:
        cells = ["0"] + ["-"] * (len(_PCTS) + 3)
    return "| " + label + " | " + " | ".join(cells) + " |"


def build_report(store) -> str:
    """Render a :class:`~repro.obs.timeline.TimelineStore` as the markdown
    run report."""
    histograms = store.metrics.get("histograms") or {}

    lines: List[str] = ["# Run report", ""]
    if store.skipped_lines:
        lines.append(f"> warning: skipped {store.skipped_lines} corrupt "
                     f"line{'s' if store.skipped_lines != 1 else ''} "
                     "while loading")
        lines.append("")

    # -- run configuration ---------------------------------------------
    if store.config:
        lines.append("## Run configuration")
        lines.append("")
        for key in sorted(store.config):
            value = store.config[key]
            if key == "fault_plan":
                value = "yes" if value else "none"
            lines.append(f"- {key}: {value}")
        lines.append("")

    # -- job funnel -----------------------------------------------------
    lines.append("## Job funnel")
    lines.append("")
    lines.append(f"- submitted: {store.submissions}")
    lines.append(f"- dispatches: {store.starts}")
    lines.append(f"- finished: {store.finishes}")
    lines.append(f"- preemptions: {store.preemptions}")
    lines.append(f"- trace span: {_hours(store.span)} simulated")
    lines.append("")

    # -- event census (phase spans excluded: a Chrome export carries
    # them as duration slices, not instants; the phase breakdown below
    # counts them) ------------------------------------------------------
    census = {name: count for name, count in store.counts.items()
              if name != SPAN_EVENT}
    lines += ["## Event census", ""]
    lines.append(f"- events: {sum(census.values())}")
    for name in sorted(census, key=lambda n: (-census[n], n)):
        lines.append(f"  - {name}: {census[name]}")
    if store.unknown_events:
        unknown = ", ".join(f"{name} ×{count}" for name, count
                            in sorted(store.unknown_events.items()))
        lines.append(f"- warning: unrecognized event types: {unknown}")
    lines.append("")

    # -- latency percentiles -------------------------------------------
    lines.append("## Completion and queueing (seconds)")
    lines.append("")
    header = ["count", "mean"] + [f"p{p}" for p in _PCTS] + ["min", "max"]
    lines.append("| metric | " + " | ".join(header) + " |")
    lines.append("|" + "---|" * (len(header) + 1))
    lines.append(_hist_row("JCT", histograms.get("sim.jct_s"),
                           sorted(store.jcts)))
    lines.append(_hist_row("queue wait", histograms.get("sim.queue_wait_s"),
                           sorted(store.first_waits.values())))
    lines.append("")

    # -- utilization ----------------------------------------------------
    lines.append("## Utilization")
    lines.append("")
    if store.usage:
        def series(key):
            return [float(u[key]) for u in store.usage
                    if u.get(key) is not None]
        for label, key in (("training", "training"),
                           ("overall", "overall"),
                           ("on-loan", "onloan_usage")):
            vals = series(key)
            if vals:
                lines.append(
                    f"- {label}: mean {sum(vals) / len(vals):.3f}, "
                    f"min {min(vals):.3f}, max {max(vals):.3f} "
                    f"({len(vals)} samples)"
                )
        loaned = series("loaned")
        if loaned:
            lines.append(f"- servers on loan: mean "
                         f"{sum(loaned) / len(loaned):.2f}, "
                         f"max {int(max(loaned))}")
    else:
        lines.append("- no utilization samples in this trace")
    lines.append("")

    # -- loan / reclaim timeline ---------------------------------------
    lines.append("## Loan / reclaim timeline")
    lines.append("")
    if not store.loans and not store.reclaims:
        lines.append("- no capacity movement recorded")
    else:
        moved = sum(len(op.get("servers") or []) for op in store.loans)
        returned = sum(len(op.get("servers") or [])
                       for op in store.reclaims)
        lines.append(f"- {len(store.loans)} loan op(s) moved {moved} "
                     f"server(s) to training")
        lines.append(f"- {len(store.reclaims)} reclaim op(s) returned "
                     f"{returned} server(s) to inference")
        if store.reclaims:
            lines.append("")
            lines.append("| sim time | demand | returned | preempted | "
                         "collateral |")
            lines.append("|---|---|---|---|---|")
            for op in store.reclaims:
                servers = op.get("servers") or []
                lines.append(
                    f"| {_hours(op.get('ts', 0.0))} "
                    f"| {op.get('demand', len(servers))} "
                    f"| {len(servers)} "
                    f"| {len(op.get('preempted') or [])} "
                    f"| {_fmt(op.get('collateral'), 3)} |"
                )
    lines.append("")

    # -- preemptions ----------------------------------------------------
    lines.append("## Preemptions")
    lines.append("")
    if not store.preemptions:
        lines.append("- none recorded")
    else:
        for cause in sorted(store.preempt_causes,
                            key=lambda c: (-store.preempt_causes[c], c)):
            count = store.preempt_causes[cause]
            lines.append(f"- cause {cause}: {count} "
                         f"({count / store.preemptions:.1%})")
        worst = sorted(store.preempt_victims.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:TOP_PREEMPTED]
        if worst:
            lines.append("- most-preempted jobs: "
                         + ", ".join(f"job {j} ×{n}" for j, n in worst))
    lines.append("")

    # -- decision ledger ------------------------------------------------
    lines.append("## Decision ledger")
    lines.append("")
    if not store.plans:
        lines.append("- no provenance records in this trace "
                     "(untraced or pre-provenance run)")
    else:
        by_policy: Dict[str, int] = {}
        trigger_census: Dict[str, int] = {}
        for plan in store.plans:
            by_policy[plan.policy] = by_policy.get(plan.policy, 0) + 1
            for trigger in plan.triggers:
                kind = trigger.get("kind", "?")
                trigger_census[kind] = trigger_census.get(kind, 0) + 1
        lines.append(f"- {len(store.plans)} committed plan(s)")
        for policy in sorted(by_policy):
            lines.append(f"  - {policy}: {by_policy[policy]}")
        if trigger_census:
            lines.append("- epoch triggers:")
            for kind in sorted(trigger_census,
                               key=lambda k: (-trigger_census[k], k)):
                lines.append(f"  - {kind}: {trigger_census[kind]}")
    lines.append("")

    # -- phase breakdown (call counts only: the wall-clock totals are the
    # last section's) ---------------------------------------------------
    lines.append("## Phase breakdown")
    lines.append("")
    if not store.phases:
        lines.append("- no profiling data in this trace")
    else:
        lines.append("| phase | calls |")
        lines.append("|---|---|")
        ordered = sorted(
            store.phases.items(),
            key=lambda kv: (-int(kv[1].get("calls", 0)), kv[0]),
        )
        for name, stats in ordered:
            lines.append(f"| {name} | {int(stats.get('calls', 0))} |")
    lines.append("")

    # -- resilience (only when faults ran) ------------------------------
    fault_census: Dict[str, int] = {}
    for fault in store.faults:
        fault_census[fault["name"]] = fault_census.get(fault["name"], 0) + 1
    if fault_census or store.node_failures:
        lines.append("## Resilience")
        lines.append("")
        for name in sorted(fault_census):
            lines.append(f"- {name}: {fault_census[name]}")
        if store.node_failures:
            lines.append(f"- node failures: {len(store.node_failures)}")
        downtime = histograms.get("resilience.node_downtime_s")
        if downtime:
            lines.append(
                f"- node downtime: count {int(downtime.get('count', 0))}, "
                f"mean {_fmt(downtime.get('mean'))}s, "
                f"p95 {_fmt(downtime.get('p95'))}s"
            )
        restart = histograms.get("resilience.time_to_restart_s")
        if restart:
            lines.append(
                f"- time to restart: count {int(restart.get('count', 0))}, "
                f"mean {_fmt(restart.get('mean'))}s, "
                f"p95 {_fmt(restart.get('p95'))}s"
            )
        lines.append("")

    # -- every counter and gauge the run recorded -----------------------
    lines += ["## Recorded metrics", ""]
    recorded = [item for kind in ("counters", "gauges")
                for item in sorted((store.metrics.get(kind) or {}).items())]
    for key, value in recorded:
        lines.append(f"- {key}: {value:.4f}" if isinstance(value, float)
                     else f"- {key}: {value}")
    if not recorded:
        lines.append("- no metrics recorded in this trace")
    lines.append("")

    # -- phase timing: wall clock, so it is the last section, and a byte
    # comparison of two reports cuts at its heading ---------------------
    lines += [WALL_CLOCK_HEADING, ""]
    if not store.phases:
        lines.append("- no profiling data in this trace")
    else:
        lines.append("| phase | calls | total s | mean ms | max ms |")
        lines.append("|---|---|---|---|---|")
        ordered = sorted(store.phases.items(),
                         key=lambda kv: (-kv[1].get("total_s", 0.0), kv[0]))
        for name, stats in ordered:
            cells = [str(int(stats.get("calls", 0)))] + [
                f"{stats.get(key, 0.0):.3f}"
                for key in ("total_s", "mean_ms", "max_ms")]
            lines.append(f"| {name} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"
