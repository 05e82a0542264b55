"""Trace loading and comparison.

:func:`load_trace` reads a JSONL or Chrome-format trace for
:class:`~repro.obs.timeline.TimelineStore`, which ``repro report`` and
``repro why`` render.  ``repro inspect A B`` compares two traces: it
reports the first event where the streams diverge (spans excluded —
their durations are wall clock) and the per-metric deltas between the
recorded summaries.  A Chrome export stores whole microseconds, so when
either side is one, timestamps compare at microseconds.

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
    """Load a trace file into ``{"events": [...], "summary": {...},
    "skipped_lines": n, "format": "jsonl" | "chrome"}``.

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
        return {"events": events, "summary": summary, "skipped_lines": 0,
                "format": "chrome"}
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
    return {"events": events, "summary": summary, "skipped_lines": skipped,
            "format": "jsonl"}


# ----------------------------------------------------------------------
# trace comparison (`repro inspect A B`)
# ----------------------------------------------------------------------

def _canonical_events(
    trace: Dict[str, Any], at_us: bool
) -> List[Tuple[float, str, Any, str]]:
    """The deterministic view of a trace's event stream.

    Span events are excluded because their ``dur_ms`` is wall clock;
    everything else in a seeded run is simulated-time deterministic,
    which is exactly what makes first-divergence comparison meaningful.
    ``at_us`` rounds each timestamp to the microsecond a Chrome export
    stores.
    """
    out = []
    for event in trace["events"]:
        if event.get("name") == SPAN_EVENT or event.get("cat") == CAT_SPAN:
            continue
        ts = event.get("ts", 0.0)
        out.append((
            round(ts * 1e6) / 1e6 if at_us else ts,
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
    at_us = "chrome" in (trace_a.get("format"), trace_b.get("format"))
    a, b = (_canonical_events(t, at_us) for t in (trace_a, trace_b))
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
    return f"t={ts:.6f}s {name}{job} {args}"


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
