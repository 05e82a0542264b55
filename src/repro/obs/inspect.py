"""Trace inspection: load, render and compare event traces.

``repro inspect <trace>`` loads a JSONL (or Chrome-format) trace,
indexes it in a :class:`~repro.obs.timeline.TimelineStore` and prints
what you would otherwise grep for by hand: the event census, a job
funnel, the preemption breakdown by cause (and its worst victims), the
reclaim timeline with per-op collateral damage, and the per-phase
wall-clock table recorded by the kernel's phase clock.

``repro inspect --diff A B`` compares two traces: it reports the first
event where the streams diverge (spans excluded — their durations are
wall clock) and the per-metric deltas between the recorded summaries.

Loading is lenient: truncated or corrupt JSONL lines — the normal
aftermath of a killed run — are skipped and *counted*, not fatal.  A
file with no parseable record at all is still rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import CAT_SPAN, SPAN_EVENT, SUMMARY_EVENT


class TraceFormatError(ValueError):
    """The file is neither a JSONL trace nor a Chrome trace document."""


def load_trace(path: str) -> Dict[str, Any]:
    """Load a trace file into
    ``{"events": [...], "summary": {...}, "skipped_lines": n}``.

    Auto-detects the format: a JSON document with ``traceEvents`` is
    treated as a Chrome export, anything else as JSONL.  Corrupt JSONL
    lines are skipped and counted in ``skipped_lines``; only a file
    with no parseable record at all raises :class:`TraceFormatError`.
    """
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if not stripped:
        raise TraceFormatError(f"{path}: empty trace file")
    if stripped.startswith("{") and '"traceEvents"' in stripped[:200]:
        doc = json.loads(text)
        events = [
            {
                "ts": e.get("ts", 0) / 1e6,
                "name": e.get("name", "?"),
                "cat": e.get("cat", "?"),
                "job_id": e.get("tid") if e.get("pid") == 1 else None,
                "args": e.get("args", {}),
            }
            for e in doc.get("traceEvents", [])
            if e.get("ph") == "i"
        ]
        summary = doc.get("otherData", {}).get("summary") or {}
        return {"events": events, "summary": summary, "skipped_lines": 0}
    events: List[Dict[str, Any]] = []
    summary: Dict[str, Any] = {}
    skipped = 0
    for line in text.splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(record, dict):
            skipped += 1
            continue
        if record.get("name") == SUMMARY_EVENT:
            summary = record.get("args", {})
        else:
            events.append(record)
    if not events and not summary:
        raise TraceFormatError(
            f"{path}: no parseable trace records "
            f"({skipped} corrupt line{'s' if skipped != 1 else ''})"
        )
    return {"events": events, "summary": summary, "skipped_lines": skipped}


def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:8.2f}h"


def render_summary(store, top: int = 5) -> str:
    """Format a :class:`~repro.obs.timeline.TimelineStore` as the CLI
    report."""
    lines: List[str] = []
    lines.append("== trace overview ==")
    lines.append(f"  events: {store.total_events}   "
                 f"span: {store.span / 3600.0:.2f} simulated hours")
    lines.append(f"  jobs: {store.submissions} submitted, "
                 f"{store.starts} dispatches, "
                 f"{store.finishes} finished, "
                 f"{store.preemptions} preemptions")
    if store.skipped_lines:
        lines.append(f"  warning: skipped {store.skipped_lines} "
                     f"corrupt line"
                     f"{'s' if store.skipped_lines != 1 else ''}")
    lines.append("")
    lines.append("== event census ==")
    for name in sorted(store.counts, key=store.counts.get, reverse=True):
        lines.append(f"  {name:<26}{store.counts[name]:>8}")
    if store.unknown_events:
        unknown = ", ".join(
            f"{name} ×{count}"
            for name, count in sorted(store.unknown_events.items())
        )
        lines.append(f"  warning: unrecognized event types: {unknown}")

    lines.append("")
    lines.append("== preemption summary ==")
    if not store.preemptions:
        lines.append("  no preemptions recorded")
    else:
        for cause in sorted(store.preempt_causes,
                            key=store.preempt_causes.get, reverse=True):
            count = store.preempt_causes[cause]
            share = count / store.preemptions
            lines.append(f"  cause {cause:<16}{count:>6}  ({share:5.1%})")
        worst = sorted(store.preempt_victims.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:top]
        if worst:
            lines.append(f"  most-preempted jobs (top {len(worst)}): "
                         + ", ".join(f"job {j} ×{n}" for j, n in worst))

    lines.append("")
    lines.append("== reclaim timeline ==")
    if not store.reclaims:
        lines.append("  no reclaim ops recorded")
    else:
        header = (f"  {'sim time':>9}  {'demand':>6}  {'returned':>8}  "
                  f"{'preempted':>9}  {'collateral':>10}")
        lines.append(header)
        for op in store.reclaims:
            servers = op.get("servers") or []
            preempted = op.get("preempted") or []
            collateral = op.get("collateral")
            lines.append(
                f"  {_hours(op.get('ts', 0.0))}  "
                f"{op.get('demand', len(servers)):>6}  "
                f"{len(servers):>8}  {len(preempted):>9}  "
                + (f"{collateral:>10.3f}" if collateral is not None
                   else f"{'-':>10}")
            )
    if store.loans:
        moved = sum(len(op.get("servers") or []) for op in store.loans)
        lines.append(f"  loans: {len(store.loans)} ops moved "
                     f"{moved} servers to training")

    lines.append("")
    lines.append("== phase timing (wall clock) ==")
    if not store.phases:
        lines.append("  no profiling data in this trace")
    else:
        header = (f"  {'phase':<28}{'calls':>8}{'total s':>10}"
                  f"{'mean ms':>10}{'max ms':>10}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        ordered = sorted(store.phases.items(),
                         key=lambda kv: -kv[1].get("total_s", 0.0))
        for name, stats in ordered:
            lines.append(
                f"  {name:<28}{int(stats.get('calls', 0)):>8}"
                f"{stats.get('total_s', 0.0):>10.3f}"
                f"{stats.get('mean_ms', 0.0):>10.3f}"
                f"{stats.get('max_ms', 0.0):>10.3f}"
            )
    if store.metrics:
        lines.append("")
        lines.append("== recorded metrics ==")
        for kind in ("counters", "gauges"):
            for key, value in sorted(
                (store.metrics.get(kind) or {}).items()
            ):
                formatted = (f"{value:.4f}" if isinstance(value, float)
                             else str(value))
                lines.append(f"  {key:<34}{formatted:>12}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# trace comparison (`repro inspect --diff A B`)
# ----------------------------------------------------------------------

def _canonical_events(
    trace: Dict[str, Any]
) -> List[Tuple[float, str, Any, str]]:
    """The deterministic view of a trace's event stream.

    Span events are excluded because their ``dur_ms`` is wall clock;
    everything else in a seeded run is simulated-time deterministic,
    which is exactly what makes first-divergence comparison meaningful.
    """
    out = []
    for event in trace["events"]:
        if event.get("name") == SPAN_EVENT or event.get("cat") == CAT_SPAN:
            continue
        out.append((
            event.get("ts", 0.0),
            event.get("name", "?"),
            event.get("job_id"),
            json.dumps(event.get("args") or {}, sort_keys=True, default=str),
        ))
    return out


@dataclass
class TraceDiff:
    """What ``diff_traces`` found between two traces."""

    events_a: int
    events_b: int
    #: index of the first differing canonical event, or ``None`` when
    #: the streams are identical (lengths included)
    divergence_index: Optional[int]
    divergence_a: Optional[Tuple[float, str, Any, str]]
    divergence_b: Optional[Tuple[float, str, Any, str]]
    #: metric name -> (value in A, value in B), differing entries only
    metric_deltas: Dict[str, Tuple[Any, Any]]

    @property
    def identical(self) -> bool:
        return self.divergence_index is None and not self.metric_deltas


def diff_traces(trace_a: Dict[str, Any],
                trace_b: Dict[str, Any]) -> TraceDiff:
    """Compare two loaded traces: first event-stream divergence plus
    the deltas between their recorded summary metrics."""
    a, b = _canonical_events(trace_a), _canonical_events(trace_b)
    index: Optional[int] = None
    for i, (ea, eb) in enumerate(zip(a, b)):
        if ea != eb:
            index = i
            break
    if index is None and len(a) != len(b):
        index = min(len(a), len(b))

    deltas: Dict[str, Tuple[Any, Any]] = {}
    for kind in ("counters", "gauges"):
        ma = (trace_a.get("summary") or {}).get("metrics", {}).get(kind) or {}
        mb = (trace_b.get("summary") or {}).get("metrics", {}).get(kind) or {}
        for key in sorted(set(ma) | set(mb)):
            if ma.get(key) != mb.get(key):
                deltas[key] = (ma.get(key), mb.get(key))

    return TraceDiff(
        events_a=len(a), events_b=len(b),
        divergence_index=index,
        divergence_a=a[index] if index is not None and index < len(a)
        else None,
        divergence_b=b[index] if index is not None and index < len(b)
        else None,
        metric_deltas=deltas,
    )


def _format_event(event: Optional[Tuple[float, str, Any, str]]) -> str:
    if event is None:
        return "<end of trace>"
    ts, name, job_id, args = event
    job = f" job={job_id}" if job_id is not None else ""
    return f"t={ts:.1f}s {name}{job} {args}"


def render_diff(diff: TraceDiff, label_a: str = "A",
                label_b: str = "B") -> str:
    """Format a :class:`TraceDiff` as the CLI report."""
    lines = ["== trace diff =="]
    lines.append(f"  A: {label_a} ({diff.events_a} events)")
    lines.append(f"  B: {label_b} ({diff.events_b} events)")
    if diff.divergence_index is None:
        lines.append("  event streams identical (spans excluded)")
    else:
        lines.append(f"  first divergence at event "
                     f"#{diff.divergence_index}:")
        lines.append(f"    A: {_format_event(diff.divergence_a)}")
        lines.append(f"    B: {_format_event(diff.divergence_b)}")
    lines.append("")
    lines.append("== metric deltas ==")
    if not diff.metric_deltas:
        lines.append("  recorded metrics identical")
    else:
        for key, (va, vb) in diff.metric_deltas.items():
            lines.append(f"  {key:<34}{va!s:>12} -> {vb!s:<12}")
    return "\n".join(lines)
