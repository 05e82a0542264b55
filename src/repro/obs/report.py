"""`repro report`: a deterministic markdown run report from one trace.

The report renders a :class:`~repro.obs.timeline.TimelineStore` from
simulated-time data only — JCT and queue-wait percentiles from the
metrics registry snapshot embedded in the trace, utilization from the
periodic ``cluster.usage`` samples, loan/reclaim and preemption
summaries from lifecycle events, the decision ledger from
``plan.provenance``, and the phase table reduced to call counts
(wall-clock totals are intentionally excluded).  Two same-seed runs
therefore produce byte-identical reports, which CI asserts.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.metrics import percentile

#: percentiles shown in the latency tables
_PCTS = (25, 50, 75, 95, 99)


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
    counters = store.metrics.get("counters") or {}

    lines: List[str] = ["# Run report", ""]
    if store.skipped_lines:
        lines.append(f"> warning: {store.skipped_lines} corrupt trace "
                     f"line(s) skipped while loading")
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
            lines.append(f"- {cause}: {count} "
                         f"({count / store.preemptions:.1%})")
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

    # -- phase breakdown (call counts only: wall clock is not
    # deterministic and never appears in this report) -------------------
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
        resilience = {
            key: value for key, value in sorted(counters.items())
            if key.startswith("resilience.")
        }
        for key, value in resilience.items():
            lines.append(f"- {key}: {value}")
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

    return "\n".join(lines).rstrip() + "\n"
