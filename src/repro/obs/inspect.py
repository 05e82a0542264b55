"""Trace inspection: summarize, compare and sanity-check event traces.

``repro inspect <trace>`` loads a JSONL (or Chrome-format) trace and
prints what you would otherwise grep for by hand: the event census, a
job funnel, the preemption breakdown by cause (and its worst victims),
the reclaim timeline with per-op collateral damage, and the per-phase
wall-clock table recorded by the profiling hooks.

``repro inspect --diff A B`` compares two traces: it reports the first
event where the streams diverge (spans excluded — their durations are
wall clock) and the per-metric deltas between the recorded summaries.

Loading is lenient: truncated or corrupt JSONL lines — the normal
aftermath of a killed run — are skipped and *counted*, not fatal.  A
file with no parseable record at all is still rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.tracer import CAT_SPAN, SPAN_EVENT, SUMMARY_EVENT

#: Event-name prefixes the toolchain emits today.  ``summarize`` counts
#: every event either way, but names outside this vocabulary are
#: surfaced explicitly so a producer/consumer drift (or a hand-edited
#: trace) is visible instead of silently folded into the census.
KNOWN_EVENT_PREFIXES = (
    "job.", "scheduler.", "orchestrator.", "cluster.", "fault.",
    "recovery.", "plan.", "obs.", "run.", "trace.",
)


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


@dataclass
class TraceSummary:
    """Everything ``repro inspect`` reports about one trace."""

    total_events: int = 0
    span: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    submissions: int = 0
    starts: int = 0
    finishes: int = 0
    preemptions: int = 0
    preempt_causes: Dict[str, int] = field(default_factory=dict)
    preempt_victims: Dict[int, int] = field(default_factory=dict)
    reclaims: List[Dict[str, Any]] = field(default_factory=list)
    loans: List[Dict[str, Any]] = field(default_factory=list)
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    skipped_lines: int = 0
    unknown_events: Dict[str, int] = field(default_factory=dict)


def summarize(trace: Dict[str, Any]) -> TraceSummary:
    """Aggregate a loaded trace into a :class:`TraceSummary`."""
    out = TraceSummary()
    events = trace["events"]
    out.total_events = len(events)
    out.skipped_lines = int(trace.get("skipped_lines", 0))
    if events:
        times = [e.get("ts", 0.0) for e in events]
        out.span = max(times) - min(times)
    for event in events:
        name = event.get("name", "?")
        out.counts[name] = out.counts.get(name, 0) + 1
        if not name.startswith(KNOWN_EVENT_PREFIXES):
            out.unknown_events[name] = out.unknown_events.get(name, 0) + 1
        args = event.get("args") or {}
        if name == "job.submit":
            out.submissions += 1
        elif name == "job.start":
            out.starts += 1
        elif name == "job.finish":
            out.finishes += 1
        elif name == "job.preempt":
            out.preemptions += 1
            cause = args.get("cause", "unknown")
            out.preempt_causes[cause] = out.preempt_causes.get(cause, 0) + 1
            job = event.get("job_id")
            if job is not None:
                out.preempt_victims[job] = out.preempt_victims.get(job, 0) + 1
        elif name == "orchestrator.reclaim":
            out.reclaims.append({"ts": event.get("ts", 0.0), **args})
        elif name == "orchestrator.loan":
            out.loans.append({"ts": event.get("ts", 0.0), **args})
    summary = trace.get("summary") or {}
    out.phases = summary.get("phases", {})
    out.metrics = summary.get("metrics", {})
    return out


def _hours(seconds: float) -> str:
    return f"{seconds / 3600.0:8.2f}h"


def render_summary(summary: TraceSummary, top: int = 5) -> str:
    """Format a :class:`TraceSummary` as the CLI report."""
    lines: List[str] = []
    lines.append("== trace overview ==")
    lines.append(f"  events: {summary.total_events}   "
                 f"span: {summary.span / 3600.0:.2f} simulated hours")
    lines.append(f"  jobs: {summary.submissions} submitted, "
                 f"{summary.starts} dispatches, "
                 f"{summary.finishes} finished, "
                 f"{summary.preemptions} preemptions")
    if summary.skipped_lines:
        lines.append(f"  warning: skipped {summary.skipped_lines} "
                     f"corrupt line"
                     f"{'s' if summary.skipped_lines != 1 else ''}")
    lines.append("")
    lines.append("== event census ==")
    for name in sorted(summary.counts, key=summary.counts.get, reverse=True):
        lines.append(f"  {name:<26}{summary.counts[name]:>8}")
    if summary.unknown_events:
        unknown = ", ".join(
            f"{name} ×{count}"
            for name, count in sorted(summary.unknown_events.items())
        )
        lines.append(f"  warning: unrecognized event types: {unknown}")

    lines.append("")
    lines.append("== preemption summary ==")
    if not summary.preemptions:
        lines.append("  no preemptions recorded")
    else:
        for cause in sorted(summary.preempt_causes,
                            key=summary.preempt_causes.get, reverse=True):
            count = summary.preempt_causes[cause]
            share = count / summary.preemptions
            lines.append(f"  cause {cause:<16}{count:>6}  ({share:5.1%})")
        worst = sorted(summary.preempt_victims.items(),
                       key=lambda kv: (-kv[1], kv[0]))[:top]
        if worst:
            lines.append(f"  most-preempted jobs (top {len(worst)}): "
                         + ", ".join(f"job {j} ×{n}" for j, n in worst))

    lines.append("")
    lines.append("== reclaim timeline ==")
    if not summary.reclaims:
        lines.append("  no reclaim ops recorded")
    else:
        header = (f"  {'sim time':>9}  {'demand':>6}  {'returned':>8}  "
                  f"{'preempted':>9}  {'collateral':>10}")
        lines.append(header)
        for op in summary.reclaims:
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
    if summary.loans:
        moved = sum(len(op.get("servers") or []) for op in summary.loans)
        lines.append(f"  loans: {len(summary.loans)} ops moved "
                     f"{moved} servers to training")

    lines.append("")
    lines.append("== phase timing (wall clock) ==")
    if not summary.phases:
        lines.append("  no profiling data in this trace")
    else:
        header = (f"  {'phase':<28}{'calls':>8}{'total s':>10}"
                  f"{'mean ms':>10}{'max ms':>10}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        ordered = sorted(summary.phases.items(),
                         key=lambda kv: -kv[1].get("total_s", 0.0))
        for name, stats in ordered:
            lines.append(
                f"  {name:<28}{int(stats.get('calls', 0)):>8}"
                f"{stats.get('total_s', 0.0):>10.3f}"
                f"{stats.get('mean_ms', 0.0):>10.3f}"
                f"{stats.get('max_ms', 0.0):>10.3f}"
            )
    if summary.metrics:
        lines.append("")
        lines.append("== recorded metrics ==")
        for kind in ("counters", "gauges"):
            for key, value in sorted(
                (summary.metrics.get(kind) or {}).items()
            ):
                formatted = (f"{value:.4f}" if isinstance(value, float)
                             else str(value))
                lines.append(f"  {key:<34}{formatted:>12}")
    return "\n".join(lines)


def inspect_trace(path: str, top: int = 5) -> str:
    """One-call helper: load, summarize and render ``path``."""
    return render_summary(summarize(load_trace(path)), top=top)


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
