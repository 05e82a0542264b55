"""Structured event tracing for simulations.

Every interesting decision a simulation makes — job lifecycle
transitions, loan/reclaim plans, MCKP allocations, scheduling epochs —
is emitted into a :class:`Tracer` as a typed :class:`TraceEvent` keyed
on *simulated* time.  The tracer is designed to disappear when disabled:
``Tracer.disabled()`` short-circuits on the very first instruction of
:meth:`Tracer.emit` and never allocates an event, so hot paths can call
it unconditionally.

Export formats:

* **JSONL** — one JSON object per line, in (sim-time, seq) order, plus a
  final ``trace.summary`` record carrying aggregated metrics and phase
  timings (what ``repro inspect`` reads back).
* **Chrome trace_event** — a ``{"traceEvents": [...]}`` JSON document
  loadable in ``about://tracing`` or https://ui.perfetto.dev: job
  lifetimes become duration (``"X"``) slices on one track per job,
  everything else becomes instant events, and running/pending job counts
  become counter tracks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, IO, Iterable, List, Optional, Union

from repro.ioutil import atomic_write

#: Event-name prefixes, used as Chrome trace categories.
CAT_JOB = "job"
CAT_SCHEDULER = "scheduler"
CAT_ORCHESTRATOR = "orchestrator"
CAT_META = "meta"
CAT_PLAN = "plan"
CAT_SPAN = "span"

#: The reserved name of the trailing aggregate record in JSONL exports.
SUMMARY_EVENT = "trace.summary"

#: The event name nested profiler spans are emitted under.
SPAN_EVENT = "obs.span"


@dataclass(frozen=True)
class TraceEvent:
    """One structured simulator event.

    Attributes:
        ts: Simulated time in seconds.
        seq: Emission sequence number; ``(ts, seq)`` totally orders a
            trace even when many events share a timestamp.
        name: Dotted event name, e.g. ``"job.preempt"``.
        cat: Category (the name's first component, by convention).
        job_id: Affected job, when applicable.
        args: Free-form JSON-serializable payload.
    """

    ts: float
    seq: int
    name: str
    cat: str
    job_id: Optional[int] = None
    args: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "ts": self.ts, "seq": self.seq,
            "name": self.name, "cat": self.cat,
        }
        if self.job_id is not None:
            out["job_id"] = self.job_id
        if self.args:
            out["args"] = self.args
        return out


class Tracer:
    """Collects :class:`TraceEvent` records in emission order.

    Args:
        enabled: When False, :meth:`emit` is a no-op (the instance stays
            permanently empty).
    """

    __slots__ = ("enabled", "events", "_seq")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._seq = 0

    @classmethod
    def disabled(cls) -> "Tracer":
        return cls(enabled=False)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    def emit(
        self,
        name: str,
        ts: float,
        cat: Optional[str] = None,
        job_id: Optional[int] = None,
        **args: Any,
    ) -> None:
        """Record one event (no-op when the tracer is disabled)."""
        if not self.enabled:
            return
        self.events.append(
            TraceEvent(
                ts=ts,
                seq=self._seq,
                name=name,
                cat=cat if cat is not None else name.split(".", 1)[0],
                job_id=job_id,
                args=args,
            )
        )
        self._seq += 1

    def sorted_events(self) -> List[TraceEvent]:
        """Events in (sim-time, seq) order.

        Emission is already time-ordered for anything driven by the
        simulation engine; sorting here additionally covers an emitter
        handed a stale timestamp.
        """
        return sorted(self.events, key=lambda e: (e.ts, e.seq))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def export_jsonl(
        self,
        dest: Union[str, IO[str]],
        summary: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write the trace as JSON lines; returns the line count.

        ``summary`` (aggregated counters/phase timings) is appended as a
        final :data:`SUMMARY_EVENT` record when provided.
        """
        events = self.sorted_events()

        def _write(fh: IO[str]) -> int:
            lines = 0
            for event in events:
                fh.write(json.dumps(event.to_dict(), default=str) + "\n")
                lines += 1
            if summary is not None:
                record = {
                    "ts": events[-1].ts if events else 0.0,
                    "seq": self._seq,
                    "name": SUMMARY_EVENT,
                    "cat": CAT_META,
                    "args": summary,
                }
                fh.write(json.dumps(record, default=str) + "\n")
                lines += 1
            return lines

        if isinstance(dest, str):
            with atomic_write(dest) as fh:
                return _write(fh)
        return _write(dest)

    def export_chrome(
        self,
        dest: Union[str, IO[str]],
        summary: Optional[Dict[str, Any]] = None,
    ) -> int:
        """Write a Chrome ``trace_event`` JSON document.

        Returns the number of ``traceEvents`` written.  Timestamps are
        simulated seconds converted to microseconds, so the trace-viewer
        timeline reads in simulated time, not wall-clock.
        """
        doc = to_chrome(self.sorted_events(), summary=summary)
        if isinstance(dest, str):
            with atomic_write(dest) as fh:
                json.dump(doc, fh, default=str)
        else:
            json.dump(doc, dest, default=str)
        return len(doc["traceEvents"])

    def export(
        self,
        dest: str,
        format: str = "jsonl",
        summary: Optional[Dict[str, Any]] = None,
    ) -> int:
        if format == "jsonl":
            return self.export_jsonl(dest, summary=summary)
        if format == "chrome":
            return self.export_chrome(dest, summary=summary)
        raise ValueError(f"unknown trace format {format!r}; use jsonl|chrome")


#: A process-wide always-off tracer for code paths with no obs wiring.
NULL_TRACER = Tracer.disabled()


# ----------------------------------------------------------------------
# Chrome trace_event conversion
# ----------------------------------------------------------------------
def _us(ts: float) -> int:
    return int(round(ts * 1e6))


def to_chrome(
    events: Iterable[TraceEvent],
    summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Convert an ordered event stream to a Chrome trace document.

    Layout: process 1 holds one thread per job (its run intervals as
    ``"X"`` duration slices, other job events as instants); process 0
    holds scheduler/orchestrator/cluster instants and the running/pending
    counter tracks; process 2 renders profiler spans (:data:`SPAN_EVENT`
    records) as duration slices, one thread per nesting depth, placed at
    their simulated entry time with their wall-clock duration.
    """
    trace: List[Dict[str, Any]] = [
        {"ph": "M", "pid": 0, "name": "process_name",
         "args": {"name": "control plane"}},
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": "jobs"}},
        {"ph": "M", "pid": 2, "name": "process_name",
         "args": {"name": "spans (wall-clock dur)"}},
    ]
    open_spans: Dict[int, float] = {}
    named_jobs: set = set()
    span_depth: Dict[int, int] = {}
    running = pending = 0

    def counter(ts: float) -> Dict[str, Any]:
        return {
            "ph": "C", "pid": 0, "tid": 0, "ts": _us(ts), "name": "jobs",
            "args": {"running": running, "pending": pending},
        }

    for event in events:
        if event.name == SPAN_EVENT:
            args = event.args
            parent = args.get("parent_id")
            depth = span_depth.get(parent, -1) + 1 if parent else 0
            sid = args.get("span_id")
            if sid is not None:
                span_depth[sid] = depth
            trace.append({
                "ph": "X", "pid": 2, "tid": depth, "ts": _us(event.ts),
                "dur": max(1, int(round(args.get("dur_ms", 0.0) * 1e3))),
                "cat": CAT_SPAN, "name": args.get("span", "span"),
                "args": {"span_id": sid, "parent_id": parent},
            })
            continue
        job = event.job_id
        if job is not None and job not in named_jobs:
            named_jobs.add(job)
            trace.append({
                "ph": "M", "pid": 1, "tid": job, "name": "thread_name",
                "args": {"name": f"job {job}"},
            })
        if event.name == "job.start" and job is not None:
            open_spans[job] = event.ts
            running += 1
            pending = max(0, pending - 1)
            trace.append(counter(event.ts))
        if event.name in ("job.finish", "job.preempt") and job is not None:
            start = open_spans.pop(job, event.ts)
            trace.append({
                "ph": "X", "pid": 1, "tid": job, "ts": _us(start),
                "dur": max(0, _us(event.ts) - _us(start)),
                "cat": CAT_JOB, "name": f"run job {job}",
                "args": event.args or {},
            })
            running = max(0, running - 1)
            if event.name == "job.preempt":
                pending += 1
            trace.append(counter(event.ts))
        if event.name == "job.submit":
            pending += 1
            trace.append(counter(event.ts))
        pid, tid = (1, job) if job is not None else (0, 1)
        trace.append({
            "ph": "i", "pid": pid, "tid": tid if tid is not None else 1,
            "ts": _us(event.ts), "cat": event.cat, "name": event.name,
            "s": "t", "args": event.args or {},
        })
    doc: Dict[str, Any] = {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated seconds ×1e6"},
    }
    if summary is not None:
        doc["otherData"]["summary"] = summary
    return doc
