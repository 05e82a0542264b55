"""Timeline reconstruction: the one index of a loaded trace, plus the
causal narration behind ``repro why``.

A flat event trace answers *what happened*; this module rebuilds *to
whom* and *because of what*.  :class:`TimelineStore` walks a loaded
trace once and is the one place that decides what an event means;
``repro report`` and ``repro why`` both read it:

* per-job lifecycles — queued → running → preempted/scaled →
  completed, each transition carrying the servers, GPU types and loan
  status recorded at dispatch;
* the decision ledger — every ``plan.provenance`` event, keyed by
  commit time, with its triggers, inputs and pricing;
* the event census, job funnel, preemptions, loans and reclaims, fault
  records, utilization samples, run configuration, waits and JCTs, and
  the trace's recorded summary.

:meth:`TimelineStore.why` walks a job's transitions and attaches a
causal chain to each: the plan that committed it, the triggers that
scheduled that plan's epoch, and — where a trigger or cause points at a
fault — the fault-plan event behind it.  Everything but the phase table
is simulated-time data, so it is deterministic for seeded runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: job.* event name -> timeline state
_JOB_STATES = {
    "job.submit": "queued",
    "job.start": "running",
    "job.preempt": "preempted",
    "job.finish": "completed",
    "job.scale_out": "scaled_out",
    "job.scale_in": "scaled_in",
}

#: plan-action kinds that put (or keep) a job on servers
_DISPATCH_KINDS = ("launch", "scale_out", "scale_in")

#: Event-name prefixes the toolchain emits today.  The census counts
#: every event either way, but names outside this vocabulary are kept
#: apart so a producer/consumer drift (or a hand-edited trace) is
#: visible instead of silently folded into the census.
KNOWN_EVENT_PREFIXES = (
    "job.", "scheduler.", "orchestrator.", "cluster.", "fault.",
    "recovery.", "plan.", "obs.", "run.", "trace.",
)


@dataclass(frozen=True)
class Transition:
    """One state change of a job."""

    ts: float
    state: str
    detail: Dict[str, Any] = field(default_factory=dict)


@dataclass
class JobTimeline:
    job_id: int
    transitions: List[Transition] = field(default_factory=list)

    def state_at(self, at: float) -> Optional[Transition]:
        """The last transition at or before ``at`` (None if the job
        had not been submitted yet)."""
        last = None
        for tr in self.transitions:
            if tr.ts > at:
                break
            last = tr
        return last


@dataclass
class PlanRecord:
    """One ``plan.provenance`` event: a committed plan's causal record."""

    ts: float
    plan_id: int
    policy: str
    triggers: List[Dict[str, Any]] = field(default_factory=list)
    inputs: Dict[str, Any] = field(default_factory=dict)
    pricing: Dict[str, Any] = field(default_factory=dict)
    actions: List[Dict[str, Any]] = field(default_factory=list)
    span_id: Optional[int] = None
    dropped_triggers: int = 0

    def touches_job(self, job_id: int, kinds=None) -> bool:
        for action in self.actions:
            if kinds is not None and action.get("kind") not in kinds:
                continue
            if action.get("job_id") == job_id:
                return True
            if job_id in (action.get("preempted") or ()):
                return True
        return False


@dataclass
class CausalStep:
    """One line of a causal chain: an event and its narration."""

    ts: float
    text: str


@dataclass
class Explanation:
    """A transition plus the causal chain that led to it."""

    transition: Transition
    chain: List[CausalStep] = field(default_factory=list)


class TimelineStore:
    """Every view the offline tools read of one trace, built in one pass."""

    def __init__(self) -> None:
        self.jobs: Dict[int, JobTimeline] = {}
        self.plans: List[PlanRecord] = []
        self.faults: List[Dict[str, Any]] = []
        self.node_failures: List[Dict[str, Any]] = []
        #: event name -> count, and the names outside the vocabulary
        self.counts: Dict[str, int] = {}
        self.unknown_events: Dict[str, int] = {}
        self.span = 0.0  # simulated seconds, first event to last
        self.preempt_causes: Dict[str, int] = {}
        self.preempt_victims: Dict[int, int] = {}
        #: orchestrator operations as ``{"ts": ..., **args}``
        self.loans: List[Dict[str, Any]] = []
        self.reclaims: List[Dict[str, Any]] = []
        self.usage: List[Dict[str, Any]] = []  # cluster.usage args
        self.config: Optional[Dict[str, Any]] = None  # first run.config
        #: job -> queue wait at its first dispatch; JCT per finish
        self.first_waits: Dict[Any, float] = {}
        self.jcts: List[float] = []
        #: the trace's recorded summary, and the corrupt lines skipped
        self.phases: Dict[str, Dict[str, float]] = {}
        self.metrics: Dict[str, Any] = {}
        self.skipped_lines = 0

    # the job funnel, read off the census
    @property
    def submissions(self) -> int:
        return self.counts.get("job.submit", 0)

    @property
    def starts(self) -> int:
        return self.counts.get("job.start", 0)

    @property
    def finishes(self) -> int:
        return self.counts.get("job.finish", 0)

    @property
    def preemptions(self) -> int:
        return self.counts.get("job.preempt", 0)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_trace(cls, trace: Dict[str, Any]) -> "TimelineStore":
        """Index a trace as :func:`repro.obs.inspect.load_trace` loads it."""
        store = cls()
        events = sorted(trace["events"], key=lambda e: e.get("ts", 0.0))
        for event in events:
            store._ingest(event)
        if events:
            store.span = (events[-1].get("ts", 0.0)
                          - events[0].get("ts", 0.0))
        summary = trace.get("summary") or {}
        store.phases = summary.get("phases") or {}
        store.metrics = summary.get("metrics") or {}
        store.skipped_lines = int(trace.get("skipped_lines", 0))
        return store

    def _job(self, job_id: int) -> JobTimeline:
        if job_id not in self.jobs:
            self.jobs[job_id] = JobTimeline(job_id)
        return self.jobs[job_id]

    def _ingest(self, event: Dict[str, Any]) -> None:
        name = event.get("name", "?")
        ts = float(event.get("ts", 0.0))
        args = event.get("args") or {}
        job_id = event.get("job_id")
        self.counts[name] = self.counts.get(name, 0) + 1
        if not name.startswith(KNOWN_EVENT_PREFIXES):
            self.unknown_events[name] = self.unknown_events.get(name, 0) + 1
        if name in _JOB_STATES:
            if job_id is not None:
                self._job(job_id).transitions.append(
                    Transition(ts=ts, state=_JOB_STATES[name], detail=args)
                )
            if name == "job.start" and job_id not in self.first_waits:
                self.first_waits[job_id] = float(args.get("queued_s", 0.0))
            elif name == "job.finish":
                self.jcts.append(float(args.get("jct_s", 0.0)))
            elif name == "job.preempt":
                cause = args.get("cause", "unknown")
                self.preempt_causes[cause] = (
                    self.preempt_causes.get(cause, 0) + 1
                )
                if job_id is not None:
                    self.preempt_victims[job_id] = (
                        self.preempt_victims.get(job_id, 0) + 1
                    )
            return
        if name == "plan.provenance":
            self.plans.append(PlanRecord(
                ts=ts,
                plan_id=int(args.get("plan_id", 0)),
                policy=str(args.get("policy", "?")),
                triggers=list(args.get("triggers") or []),
                inputs=dict(args.get("inputs") or {}),
                pricing=dict(args.get("pricing") or {}),
                actions=list(args.get("actions") or []),
                span_id=args.get("span_id"),
                dropped_triggers=int(args.get("dropped_triggers", 0)),
            ))
        elif name == "orchestrator.loan":
            self.loans.append({"ts": ts, **args})
        elif name == "orchestrator.reclaim":
            self.reclaims.append({"ts": ts, **args})
        elif name == "cluster.usage":
            self.usage.append(args)
        elif name == "run.config" and self.config is None:
            self.config = args
        elif name == "cluster.node_failure":
            self.node_failures.append({"ts": ts, **args})
        # a straggler's end is not a fault of its own: the census counts
        # its start
        elif name.startswith("fault.") and name != "fault.straggler_end":
            self.faults.append({"ts": ts, "name": name, **args})

    # ------------------------------------------------------------------
    # lookup helpers
    # ------------------------------------------------------------------
    def plan_at(self, ts: float, job_id: Optional[int] = None,
                kinds=None) -> Optional[PlanRecord]:
        """The plan committed at simulated time ``ts`` whose actions
        touch ``job_id`` (commit events share the plan's timestamp)."""
        for plan in self.plans:
            if plan.ts != ts:
                continue
            if job_id is None or plan.touches_job(job_id, kinds=kinds):
                return plan
        return None

    def last_fault_before(self, ts: float,
                          name: Optional[str] = None
                          ) -> Optional[Dict[str, Any]]:
        last = None
        for fault in self.faults:
            if fault["ts"] > ts:
                break
            if name is None or fault["name"] == name:
                last = fault
        return last

    def node_failure_for(self, job_id: int,
                         ts: float) -> Optional[Dict[str, Any]]:
        """The node-failure event at ``ts`` that took this job down."""
        for record in self.node_failures:
            if record["ts"] != ts:
                continue
            if job_id in (record.get("jobs_lost_base") or []) \
                    or job_id in (record.get("jobs_lost_flex") or {}):
                return record
        return None

    # ------------------------------------------------------------------
    # causal narration (`repro why`)
    # ------------------------------------------------------------------
    def why(self, job_id: int,
            at: Optional[float] = None) -> List[Explanation]:
        """Causal chains for a job's transitions.

        With ``at`` set, only the transition in effect at that time is
        explained; otherwise the whole lifecycle is.  Raises
        ``KeyError`` for a job the trace never mentions.
        """
        timeline = self.jobs[job_id]
        if at is not None:
            current = timeline.state_at(at)
            transitions = [current] if current is not None else []
        else:
            transitions = timeline.transitions
        return [self._explain(job_id, tr) for tr in transitions]

    def _explain(self, job_id: int, tr: Transition) -> Explanation:
        out = Explanation(transition=tr)
        chain = out.chain
        if tr.state == "queued":
            spec = ", ".join(
                f"{k}={tr.detail[k]}"
                for k in ("min_workers", "max_workers", "elastic")
                if k in tr.detail
            )
            chain.append(CausalStep(tr.ts, f"job submitted ({spec})"
                                    if spec else "job submitted"))
            return out
        if tr.state == "completed":
            jct = tr.detail.get("jct_s")
            chain.append(CausalStep(
                tr.ts,
                "ran to completion"
                + (f" (jct {float(jct):.0f}s)" if jct is not None else ""),
            ))
            return out
        if tr.state == "preempted":
            self._explain_preemption(job_id, tr, chain)
            return out
        # running / scaled: a plan committed it
        plan = self.plan_at(tr.ts, job_id, kinds=_DISPATCH_KINDS)
        verb = "dispatched" if tr.state == "running" else "rescaled"
        if plan is not None:
            chain.append(CausalStep(
                plan.ts,
                f"{verb} by plan #{plan.plan_id} (policy {plan.policy})",
            ))
            self._narrate_triggers(plan, chain)
        else:
            chain.append(CausalStep(tr.ts, f"{verb} by the scheduler"))
        if tr.state == "running":
            placement = []
            if tr.detail.get("servers"):
                placement.append(
                    "servers " + ",".join(tr.detail["servers"])
                )
            if tr.detail.get("gpu_types"):
                placement.append(
                    "gpu " + "/".join(tr.detail["gpu_types"])
                )
            if tr.detail.get("onloan"):
                placement.append(
                    f"{len(tr.detail['onloan'])} on-loan server(s)"
                )
            if placement:
                chain.append(CausalStep(
                    tr.ts, "placed on " + ", ".join(placement)
                ))
        return out

    def _explain_preemption(self, job_id: int, tr: Transition,
                            chain: List[CausalStep]) -> None:
        cause = tr.detail.get("cause", "unknown")
        plan = self.plan_at(tr.ts, job_id, kinds=("preempt",
                                                  "reclaim_servers"))
        if plan is not None:
            chain.append(CausalStep(
                plan.ts,
                f"preempted (cause={cause}) by plan #{plan.plan_id} "
                f"(policy {plan.policy})",
            ))
            reclaim = next(
                (a for a in plan.actions
                 if a.get("kind") == "reclaim_servers"), None
            )
            if reclaim is not None and reclaim.get("server_ids"):
                chain.append(CausalStep(
                    plan.ts,
                    f"reclaim returned {len(reclaim['server_ids'])} "
                    f"server(s): " + ",".join(reclaim["server_ids"]),
                ))
            self._narrate_triggers(plan, chain)
            return
        failure = self.node_failure_for(job_id, tr.ts)
        if failure is not None:
            chain.append(CausalStep(
                failure["ts"],
                f"server {failure.get('server_id')} failed and took the "
                f"job's workers down",
            ))
            outage = self.last_fault_before(failure["ts"], "fault.outage")
            if outage is not None and outage["ts"] == failure["ts"]:
                chain.append(CausalStep(
                    outage["ts"],
                    f"fault injection: outage of "
                    f"{outage.get('servers')} server(s)",
                ))
            else:
                chain.append(CausalStep(
                    failure["ts"],
                    "stochastic node failure (cluster MTBF model)",
                ))
            return
        chain.append(CausalStep(
            tr.ts, f"preempted by the scheduler (cause={cause})"
        ))

    def _narrate_triggers(self, plan: PlanRecord,
                          chain: List[CausalStep]) -> None:
        for trigger in plan.triggers:
            kind = trigger.get("kind", "?")
            ts = float(trigger.get("ts", plan.ts))
            detail = {k: v for k, v in trigger.items()
                      if k not in ("kind", "ts")}
            if kind == "fault":
                fault = detail.pop("fault", "?")
                rest = ", ".join(f"{k}={v}" for k, v in sorted(
                    detail.items()
                ))
                text = f"trigger: fault injection '{fault}'" \
                    + (f" ({rest})" if rest else "")
            else:
                rest = ", ".join(f"{k}={v}" for k, v in sorted(
                    detail.items()
                ))
                text = f"trigger: {kind}" + (f" ({rest})" if rest else "")
            chain.append(CausalStep(ts, text))
        if plan.dropped_triggers:
            chain.append(CausalStep(
                plan.ts,
                f"(+{plan.dropped_triggers} more triggers dropped)",
            ))
        if plan.inputs:
            pairs = ", ".join(
                f"{k}={plan.inputs[k]}" for k in sorted(plan.inputs)
            )
            chain.append(CausalStep(plan.ts, f"decision inputs: {pairs}"))


# ----------------------------------------------------------------------
# rendering (`repro why` CLI)
# ----------------------------------------------------------------------

def _fmt_ts(ts: float) -> str:
    return f"t={ts:10.1f}s"


def render_why(job_id: int, explanations: List[Explanation]) -> str:
    """Format :meth:`TimelineStore.why` output for the CLI."""
    lines = [f"== why: job {job_id} =="]
    if not explanations:
        lines.append("  no recorded transitions")
        return "\n".join(lines)
    for item in explanations:
        tr = item.transition
        extras = ""
        if tr.state == "running" and tr.detail.get("workers") is not None:
            extras = f" (workers={tr.detail['workers']})"
        elif tr.state == "preempted" and tr.detail.get("cause"):
            extras = f" (cause={tr.detail['cause']})"
        lines.append(f"  {_fmt_ts(tr.ts)}  {tr.state}{extras}")
        for step in item.chain:
            lines.append(f"      - {step.text}")
    return "\n".join(lines)
