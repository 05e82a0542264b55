"""Decision plans: declarative scheduling actions and their executor.

Splits *deciding* from *doing* at the policy→cluster boundary.  Every
decision — a policy's epoch, an orchestrator tick, a daemon operator's
``scale`` request — is an :class:`EpochPlan`: an ordered list of
immutable action records (:class:`Launch`, :class:`Preempt`,
:class:`ScaleOut`, :class:`ScaleIn`, :class:`LoanServers`,
:class:`ReclaimServers`) applied through a single commit point, the
:class:`PlanExecutor`.  Nothing else starts, scales, shrinks or loans
(a node failure is a fault, not a decision, and is the one other
mutation).  That is the interface decision-driven schedulers
(DL2, Aryl) put between policy and cluster, and it is what Lyra's own
evaluation needs to cost and compare decisions across policies (§7): a
plan can be inspected, priced (``dry_run=True``), rejected atomically,
journaled or replayed, none of which an imperative scheduler allows.

Two families of actions coexist:

* **Staged** actions come out of a :class:`PlanTransaction` — the
  declared context a policy's ``decide()`` runs against.  Placement is
  capacity-shaped (which worker fits where depends on every earlier
  placement in the epoch), so resource/book mutations happen eagerly at
  plan time, journaled for exact inversion; the *lifecycle* effects
  (queue membership, activity log, metrics, completion events) are
  recorded as actions and deferred to commit.  Rolling back the journal
  restores the pre-plan cluster state — server books, groups, job
  placement — which is what makes ``dry_run`` and all-or-nothing
  rejection possible.  The journal records one signed GPU delta per
  mutation of a server's book (undone by handing the resource manager
  its negation) and one pre-image per job touched (restored absolutely).
* **Declarative** actions (:class:`LoanServers`, :class:`ReclaimServers`,
  :class:`Preempt` and ``ScaleIn(staged=False)``)
  describe an effect computed purely — by the orchestrator, or from an
  operator's request; nothing is staged and the executor performs the
  whole effect at commit.

The executor validates every action against the live cluster/view state
before committing anything (the activity log cannot be unwritten, so
atomicity means validate-all-then-commit), emits the per-action
lifecycle events through ``repro.obs`` plus one ``plan.provenance``
record per committed plan, and feeds deltas to the
:class:`~repro.core.view.ClusterView` through the same ``Server`` change
hooks the staged mutations fire.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.job import PREEMPTION_OVERHEAD, Job
from repro.obs.log import get_logger
from repro.obs.tracer import PHASE_PLAN_COMMIT, PHASE_PLAN_VALIDATE
from repro.obs.provenance import PROVENANCE_EVENT, TRIGGER_LOAN, TRIGGER_RECLAIM
from repro.obs.tracer import CAT_PLAN
from repro.simulator.events import EventKind

logger = get_logger("actions")


class PlanError(RuntimeError):
    """A decision plan was malformed or misused (e.g. applied twice)."""


class PlanRejected(PlanError):
    """Validation against the live cluster state failed; nothing was
    committed and any staged effects were rolled back."""


#: every attribute of a job, in ``Job.__slots__`` order
_job_state = operator.attrgetter(*Job.__slots__)

#: the container types a job's attributes hold (placement maps, per-server
#: costs, the on-loan set); a rollback refills them in place
_CONTAINERS = frozenset((dict, set))


def _check_scale_floor(job: Job, workers: int) -> None:
    """§5.2: a running job never shrinks below its gang-scheduled base
    demand — that would stall it."""
    if workers < job.spec.min_workers:
        raise PlanRejected(
            f"job {job.job_id}: scaling in to {workers} workers would drop "
            f"below base demand {job.spec.min_workers}; preempt the job instead"
        )


# ----------------------------------------------------------------------
# action records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Launch:
    """Start a pending job on the workers staged for it at plan time.

    ``eta`` and ``queued_s`` are snapshots taken when the decision was
    made; commit replays them verbatim, so completion-event timing (and
    therefore the activity log) does not depend on when the plan commits.
    """

    job_id: int
    workers: int
    gpus: int
    queued_s: float
    eta: float

    kind = "launch"


@dataclass(frozen=True)
class ScaleOut:
    """Grow a running elastic job to ``workers`` (staged at plan time)."""

    job_id: int
    workers: int
    delta: int
    eta: float

    kind = "scale_out"


@dataclass(frozen=True)
class ScaleIn:
    """Shrink an elastic job.

    ``staged=True`` records a shrink the transaction already applied to
    the books (scheduler-driven); ``staged=False`` is declarative — the
    executor removes ``removals`` (``(server_id, workers)`` pairs) at
    commit, as reclaim plans (§4/§5.3) and the daemon's ``scale`` op
    demand; ``workers``/``delta``/``eta`` then stay at their defaults
    (the commit reads them live) and validation checks the removals
    instead.
    """

    job_id: int
    removals: Tuple[Tuple[str, int], ...]
    workers: int = 0
    delta: int = 0
    eta: float = 0.0
    staged: bool = True

    kind = "scale_in"


@dataclass(frozen=True)
class Preempt:
    """Stop a running job and return it to the queue (§4)."""

    job_id: int
    cause: str = "scheduler"

    kind = "preempt"


@dataclass(frozen=True)
class LoanServers:
    """Move the named idle inference servers into the training whitelist
    (§6).  Ids are pre-picked so the commit is deterministic.

    ``lender`` names the member cluster the servers come from and
    ``borrower`` the training region the loan is matched to (contracts
    open against it; None means the first region).  The orchestrator
    sets both on every topology — a pair's are its two cluster names.
    """

    server_ids: Tuple[str, ...]
    requested: int
    lender: Optional[str] = None
    borrower: Optional[str] = None

    kind = "loan_servers"


@dataclass(frozen=True)
class ReclaimServers:
    """Return on-loan servers to the inference whitelist (§4).

    ``route_around=True`` marks the fault-recovery fast path: the listed
    servers are vacant but unhealthy/straggling and are returned without
    a reclaim plan (``health`` carries ``(server_id, unhealthy,
    straggling)`` per server).  Otherwise the fields snapshot the reclaim
    planner's outcome — demand, per-server preemption ``costs`` (Table 1
    metric), collateral GPUs, free servers — for the metrics and the
    RECLAIM log written at commit.
    """

    server_ids: Tuple[str, ...]
    demand: int
    route_around: bool = False
    health: Tuple[Tuple[str, bool, bool], ...] = ()
    preempted: Tuple[int, ...] = ()
    scaled_in: Tuple[int, ...] = ()
    free_servers: int = 0
    collateral_gpus: int = 0
    costs: Tuple[Tuple[str, float], ...] = ()
    record_metrics: bool = True
    #: member cluster being repaid (the orchestrator recalls per
    #: lender); None for a what-if reclaim, which takes from any
    lender: Optional[str] = None

    kind = "reclaim_servers"


Action = Any  # union of the dataclasses above; kept loose for py39


def _jsonable(value: Any) -> Any:
    if isinstance(value, float) and math.isinf(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


@dataclass
class EpochPlan:
    """One epoch's decisions, in commit order.

    Single-use: applying (or dry-running) a plan consumes it, because a
    staged plan's journal can only be rolled back or committed once.
    """

    now: float
    policy: str
    actions: Tuple[Action, ...] = ()
    consumed: bool = field(default=False, compare=False)
    txn: Optional["PlanTransaction"] = field(default=None, repr=False, compare=False)
    #: id of the ``obs.span`` that produced this plan (traced runs only)
    span_id: Optional[int] = field(default=None, compare=False)
    #: decision inputs noted by the policy via ``txn.note_provenance()``
    decision_inputs: Optional[Dict[str, Any]] = field(
        default=None, repr=False, compare=False
    )
    #: the events that scheduled this plan's epoch, as the dicts the
    #: ledger prints; set by whoever builds the plan (traced runs only)
    triggers: Sequence[Dict[str, Any]] = field(default=(), repr=False, compare=False)
    #: triggers beyond ``MAX_TRIGGERS`` that the epoch coalesced away
    dropped_triggers: int = field(default=0, repr=False, compare=False)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for action in self.actions:
            counts[action.kind] = counts.get(action.kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe view of the plan (the ``--explain`` schema)."""
        return {
            "now": self.now,
            "policy": self.policy,
            "by_kind": self.by_kind(),
            "actions": [
                dict(kind=a.kind, **_jsonable(dataclasses.asdict(a)))
                for a in self.actions
            ],
        }


# ----------------------------------------------------------------------
# plan transaction: the context policies decide against
# ----------------------------------------------------------------------
class PlanTransaction:
    """The declared context one epoch's decisions are staged against.

    A policy may read exactly what is bound here when the transaction
    opens — ``now`` (fixed for the whole epoch), ``config``, ``cluster``,
    ``view``, ``placement_engine``, ``phase``, ``trace``, ``tracer``,
    ``obs`` and ``hetero_ideal`` — plus the queue/running overlays a
    mid-epoch policy expects (a job launched earlier in the epoch is no
    longer pending and is already running).  Any other read raises
    ``AttributeError``.  The three mutation entry points —
    :meth:`activate`, :meth:`rescale`, :meth:`scale_in_worker_counts` —
    apply the resource-side effects at once (so later placement
    decisions see the true capacity) while journaling inverse operations
    and recording the lifecycle effect as an action for commit.

    The transaction also installs itself as the resource manager's
    ``journal`` so launches/stops made by the placement engine are
    captured, including job-placement pre-images.
    """

    def __init__(self, sim, policy: str):
        rm = sim.rm
        if rm.journal is not None:
            raise PlanError(
                "a plan transaction is already open on this simulation; "
                "seal or abort it before starting another"
            )
        # the context: read once, so one epoch decides at one instant
        self.now = sim.now
        self.config = sim.config
        self.cluster = sim.cluster
        self.view = sim.view
        self.placement_engine = sim.placement_engine
        self.phase = sim.phase
        self.trace = sim.trace
        self.tracer = sim.tracer
        self.obs = sim.obs
        self.hetero_ideal = sim.hetero_ideal
        self._sim = sim
        self._policy = policy
        self._actions: List[Action] = []
        self._launched: List[Job] = []
        self._launched_ids: Set[int] = set()
        #: journal of invertible resource mutations, in application order
        self._entries: List[tuple] = []
        #: per-job pre-images, captured on first touch: ``(job, its
        #: attribute values in slot order, (container, copy) pairs)``
        self._job_pre: Dict[int, tuple] = {}
        #: worker totals as of the job's last recorded action (for deltas)
        self._last_total: Dict[int, int] = {}
        #: decision inputs for the provenance ledger (traced runs only)
        self._prov_inputs: Optional[Dict[str, Any]] = None
        self._open = True
        rm.journal = self

    # -- overlays --------------------------------------------------------
    @property
    def pending(self) -> List[Job]:
        if not self._launched_ids:
            return self._sim.pending
        return [j for j in self._sim.pending if j.job_id not in self._launched_ids]

    @property
    def running(self) -> Dict[int, Job]:
        if not self._launched:
            return self._sim.running
        merged = dict(self._sim.running)
        for job in self._launched:
            merged[job.job_id] = job
        return merged

    @property
    def running_elastic(self) -> List[Job]:
        # the kernel's index, then this epoch's elastic launches
        elastic = list(self._sim.running_elastic.values())
        elastic.extend(job for job in self._launched if job.elastic)
        return elastic

    # -- journal hooks (called by ResourceManager / PlacementEngine) -----
    def note_job(self, job: Job) -> None:
        """Capture the job's pre-image before its first mutation."""
        jid = job.job_id
        if jid in self._job_pre:
            return
        # every attribute, and a copy of each container the job holds,
        # so rollback can refill the very objects other code refers to
        values = _job_state(job)
        contents = [(v, v.copy()) for v in values if type(v) in _CONTAINERS]
        self._job_pre[jid] = (job, values, contents)
        self._last_total.setdefault(jid, job.total_workers)

    def record_book(self, server, job_id: int, gpus: int) -> None:
        """Journal a signed GPU delta just applied to a server's book."""
        self._entries.append(("book", server, job_id, gpus))

    def record_group(self, server) -> None:
        """Journal a server's group before placement reassigns it."""
        self._entries.append(("group", server, server.group))

    # -- staged mutations (the policy-facing API) ------------------------
    def activate(self, job: Job) -> None:
        """Stage the start of a job whose workers were just placed."""
        if job.total_workers < job.spec.min_workers:
            raise RuntimeError(
                f"job {job.job_id} activated with {job.total_workers} workers "
                f"< base demand {job.spec.min_workers}"
            )
        self.note_job(job)
        job.mark_started(self.now)
        self._sim._retune(job)
        self._launched.append(job)
        self._launched_ids.add(job.job_id)
        self._last_total[job.job_id] = job.total_workers
        self._actions.append(
            Launch(
                job_id=job.job_id,
                workers=job.total_workers,
                gpus=sum(job.gpus_on(sid) for sid in job.servers),
                queued_s=self.now - job.spec.submit_time,
                eta=job.eta(),
            )
        )

    def rescale(self, job: Job, scaled_out: bool) -> None:
        """Stage a scale operation on a (possibly just-launched) job."""
        self.note_job(job)
        job.advance(self.now)
        self._record_rescale(job, scaled_out)

    def scale_in_worker_counts(self, job: Job, server_workers: Dict[str, int]) -> None:
        """Stage the removal of specific flexible workers."""
        self.note_job(job)
        job.advance(self.now)
        for server_id, workers in server_workers.items():
            self._sim.rm.scale_in(job, server_id, workers)
        self._record_rescale(
            job,
            scaled_out=False,
            removals=tuple(server_workers.items()),
        )

    def _record_rescale(
        self,
        job: Job,
        scaled_out: bool,
        removals: Tuple[Tuple[str, int], ...] = (),
    ) -> None:
        self._sim._retune(job)
        total = job.total_workers
        prev = self._last_total.get(job.job_id, total)
        self._last_total[job.job_id] = total
        eta = job.eta()
        if scaled_out:
            self._actions.append(
                ScaleOut(job_id=job.job_id, workers=total, delta=total - prev, eta=eta)
            )
        else:
            self._actions.append(
                ScaleIn(job_id=job.job_id, removals=removals, workers=total,
                        delta=prev - total, eta=eta, staged=True)
            )

    def note_provenance(self, **inputs: Any) -> None:
        """Record the decision-relevant state the policy saw this epoch
        (MCKP admitted/value, pool sizes, ...) for the provenance ledger.

        Policies should guard the call with ``ctx.tracer.enabled`` so
        untraced runs never build the dict; noting twice merges.
        """
        if self._prov_inputs is None:
            self._prov_inputs = {}
        self._prov_inputs.update(inputs)

    # -- lifecycle -------------------------------------------------------
    def seal(self) -> EpochPlan:
        """Detach from the RM and package the staged epoch as a plan."""
        self._detach()
        plan = EpochPlan(
            now=self.now,
            policy=self._policy,
            actions=tuple(self._actions),
        )
        plan.txn = self
        plan.decision_inputs = self._prov_inputs
        return plan

    def abort(self) -> None:
        """Roll back everything staged so far (used on decide() errors)."""
        if self._open:
            self.rollback()

    def close(self) -> None:
        """Discard the journal after a successful commit."""
        self._detach()
        self._open = False
        self._entries.clear()
        self._job_pre.clear()

    def _detach(self) -> None:
        if self._sim.rm.journal is self:
            self._sim.rm.journal = None

    def rollback(self) -> None:
        """Undo every staged resource mutation, newest first.

        Each book delta is handed back to the resource manager negated
        — never through ``rm.launch`` — so the fault-injection launch
        gate (and its RNG stream) is not consumed twice.  Job pre-images
        are restored last, absolutely.  The scheduling view stays
        consistent because the inverse book operations fire the same
        ``Server`` change hooks as the forward ones.
        """
        if not self._open:
            raise PlanError("transaction already closed")
        self._detach()
        self._open = False
        rm = self._sim.rm
        for entry in reversed(self._entries):
            if entry[0] == "book":
                _, server, job_id, gpus = entry
                rm.rebook(server, job_id, -gpus)
            else:
                _, server, previous = entry
                server.group = previous
                # the view mirrors group state in a column
                self.view.note_group_change(server)
        for job, values, contents in self._job_pre.values():
            for name, value in zip(Job.__slots__, values):
                setattr(job, name, value)
            for live, saved in contents:
                live.clear()
                live.update(saved)
        self._entries.clear()
        self._job_pre.clear()


# ----------------------------------------------------------------------
# executor
# ----------------------------------------------------------------------
@dataclass
class PlanReceipt:
    """Outcome of :meth:`PlanExecutor.apply`."""

    applied: bool
    actions: int
    pricing: Optional[Dict[str, Any]] = None


class PlanExecutor:
    """Validates and atomically applies :class:`EpochPlan`\\ s.

    The single commit point between decisions and the cluster: all
    lifecycle mutations (queue membership, activity/trace events,
    metrics, completion scheduling, whitelist moves) happen here, in
    plan-action order.  ``dry_run=True`` prices a plan — preemption
    cost, GPUs moved, jobs affected — and rolls back any staged effects
    instead of committing, leaving the simulation untouched.
    """

    def __init__(self, sim):
        self.sim = sim
        self.plans_applied = 0
        self.plans_rejected = 0
        self.actions_applied = 0
        #: True only while a commit is mid-flight; fault audits assert
        #: this is never observable from an event handler
        self.in_flight = False
        #: write-ahead plan journal (:class:`repro.recovery.wal.PlanWAL`);
        #: None — the default — skips all journaling at one attribute
        #: check per applied plan
        self.wal = None
        #: crash-barrier probe (:class:`repro.faults.crash.CrashInjector`),
        #: asked at the commit-path kill points whether to die there
        self.crash_probe = None

    def __getstate__(self) -> dict:
        # the WAL and the crash probe are the recovery manager's (or the
        # daemon's) and are re-attached with it, never snapshotted
        state = dict(self.__dict__)
        state["wal"] = state["crash_probe"] = None
        return state

    # -- entry point -----------------------------------------------------
    def apply(self, plan: EpochPlan, dry_run: bool = False) -> PlanReceipt:
        if plan.consumed:
            raise PlanError(
                "plan already consumed; plans are single-use — build a "
                "fresh one via policy.plan(sim)"
            )
        plan.consumed = True
        txn = plan.txn
        sim = self.sim
        want_pricing = dry_run or sim.tracer.enabled
        pricing = self.price(plan) if want_pricing else None
        if dry_run:
            if txn is not None:
                txn.rollback()
            return PlanReceipt(applied=False, actions=len(plan.actions), pricing=pricing)
        try:
            with sim.phase(PHASE_PLAN_VALIDATE):
                self._validate(plan)
        except PlanError:
            self.plans_rejected += 1
            if txn is not None:
                txn.rollback()
            raise
        # Write-ahead journaling: the plan is durable *before* any of its
        # effects land, so a crash between here and the next snapshot is
        # recoverable (and the resumed run's re-derived plan is verified
        # against this entry instead of being double-committed).
        if self.wal is not None and plan.actions:
            self.wal.append(self.plans_applied + 1, plan)
            if self.crash_probe is not None:
                self.crash_probe.maybe_fire("post_wal", sim.now)
        self.in_flight = True
        try:
            with sim.phase(PHASE_PLAN_COMMIT):
                for i, action in enumerate(plan.actions):
                    self._commit(action)
                    self.actions_applied += 1
                    if i == 0 and self.crash_probe is not None:
                        # the harshest kill point: one action of a
                        # multi-action plan has already mutated state
                        self.crash_probe.maybe_fire("mid_epoch", sim.now)
        finally:
            self.in_flight = False
        if txn is not None:
            txn.close()
        self.plans_applied += 1
        if plan.actions and sim.tracer.enabled:
            self._emit_provenance(plan, pricing)
        return PlanReceipt(applied=True, actions=len(plan.actions), pricing=pricing)

    def _emit_provenance(self, plan: EpochPlan, pricing: Dict[str, Any]) -> None:
        """Emit the plan's one ledger record (the ``plan.provenance``
        event): the plan as the WAL journals it, plus its commit
        ordinal, pricing, triggers and whatever provenance it carries.
        """
        record = plan.to_dict()
        record["plan_id"] = self.plans_applied
        record["pricing"] = pricing
        record["triggers"] = list(plan.triggers)
        if plan.decision_inputs:
            record["inputs"] = plan.decision_inputs
        if plan.span_id is not None:
            record["span_id"] = plan.span_id
        if plan.dropped_triggers:
            record["dropped_triggers"] = plan.dropped_triggers
        self.sim.tracer.emit(PROVENANCE_EVENT, ts=self.sim.now, cat=CAT_PLAN, **record)

    # -- pricing ---------------------------------------------------------
    def price(self, plan: EpochPlan) -> Dict[str, Any]:
        """What applying the plan would move/destroy (the what-if view)."""
        sim = self.sim
        jobs_affected: Set[int] = set()
        gpus_moved = 0
        preemptions = 0
        preemption_cost = 0.0
        lost_gpu_s = 0.0
        servers_loaned = 0
        servers_reclaimed = 0
        for action in plan.actions:
            kind = action.kind
            if kind == "launch":
                jobs_affected.add(action.job_id)
                gpus_moved += action.gpus
            elif kind in ("scale_out", "scale_in"):
                jobs_affected.add(action.job_id)
                job = sim.jobs.get(action.job_id)
                per_worker = job.spec.gpus_per_worker if job else 1
                if kind == "scale_in" and not action.staged:
                    delta = sum(w for _, w in action.removals)
                else:
                    delta = abs(action.delta)
                gpus_moved += delta * per_worker
            elif kind == "preempt":
                jobs_affected.add(action.job_id)
                preemptions += 1
                job = sim.jobs.get(action.job_id)
                if job is not None:
                    lost_gpu_s += job.preemption_loss(PREEMPTION_OVERHEAD)
                    gpus_moved += sum(job.gpus_on(sid) for sid in job.servers)
            elif kind == "loan_servers":
                servers_loaned += len(action.server_ids)
            elif kind == "reclaim_servers":
                servers_reclaimed += len(action.server_ids)
                preemption_cost += sum(c for _, c in action.costs)
        return {
            "actions": len(plan.actions),
            "by_kind": plan.by_kind(),
            "jobs_affected": len(jobs_affected),
            "preemptions": preemptions,
            "preemption_cost": round(preemption_cost, 4),
            "lost_gpu_hours": round(lost_gpu_s / 3600.0, 4),
            "gpus_moved": gpus_moved,
            "servers_loaned": servers_loaned,
            "servers_reclaimed": servers_reclaimed,
        }

    # -- validation ------------------------------------------------------
    def _validate(self, plan: EpochPlan) -> None:
        """Check every action against live state before committing any.

        The activity log cannot be unwritten, so atomicity is
        validate-all-then-commit: a single bad action rejects the whole
        plan (rolling back its staged effects) and nothing is logged.
        """
        sim = self.sim
        pending_ids = {j.job_id for j in sim.pending}
        will_run: Set[int] = set(sim.running)
        #: ``{job_id: {server_id: flexible workers}}`` the plan's
        #: declarative ScaleIns remove, cumulative
        removed: Dict[int, Dict[str, int]] = {}
        for action in plan.actions:
            kind = action.kind
            if kind == "launch":
                job = sim.jobs.get(action.job_id)
                if job is None:
                    raise PlanRejected(f"launch of unknown job {action.job_id}")
                if action.job_id in sim.running:
                    raise PlanRejected(f"launch of job {action.job_id}, which already runs")
                if action.job_id not in pending_ids:
                    raise PlanRejected(f"launch of job {action.job_id}, which is not queued")
                if job.total_workers < job.spec.min_workers:
                    raise PlanRejected(
                        f"launch of job {action.job_id} with "
                        f"{job.total_workers} < {job.spec.min_workers} "
                        f"workers staged (gang semantics, §6)"
                    )
                will_run.add(action.job_id)
            elif kind in ("scale_out", "scale_in"):
                job = sim.jobs.get(action.job_id)
                if job is None:
                    raise PlanRejected(f"{kind} of unknown job {action.job_id}")
                if action.job_id not in will_run:
                    raise PlanRejected(
                        f"{kind} of job {action.job_id}, which is not "
                        f"running in this plan"
                    )
                if kind == "scale_in":
                    if action.staged:
                        _check_scale_floor(job, action.workers)
                    else:
                        self._validate_removals(job, action, removed)
            elif kind == "preempt":
                if action.job_id not in sim.jobs:
                    raise PlanRejected(f"preempt of unknown job {action.job_id}")
            elif kind == "loan_servers":
                for server_id in action.server_ids:
                    if server_id not in sim.pair.inference:
                        raise PlanRejected(
                            f"loan of {server_id!r}, which is not in the "
                            f"inference whitelist"
                        )
                    server = sim.pair.inference.get(server_id)
                    if not server.idle:
                        raise PlanRejected(f"loan of busy server {server_id!r}")
                    if not sim.rm.is_healthy(server_id):
                        raise PlanRejected(f"loan of unhealthy server {server_id!r}")
            elif kind == "reclaim_servers":
                if action.route_around:
                    for server_id in action.server_ids:
                        if server_id not in sim.pair.training:
                            raise PlanRejected(
                                f"route-around return of {server_id!r}, "
                                f"which is not in the training whitelist"
                            )
                        if sim.pair.training.get(server_id).allocations:
                            raise PlanRejected(
                                f"route-around return of {server_id!r}, "
                                f"which still hosts workers"
                            )
                elif action.demand <= 0:
                    raise PlanRejected(f"reclaim with non-positive demand {action.demand}")
            else:
                raise PlanRejected(f"unknown action kind {kind!r}")

    @staticmethod
    def _validate_removals(
        job: Job, action: ScaleIn, removed: Dict[int, Dict[str, int]]
    ) -> None:
        """Check a declarative ScaleIn against the job's books: it may
        not shrink the job below its base demand, and each removal must
        name flexible workers the job holds on that server.

        Nothing is staged, so the books are as they were when the plan
        was built; ``removed`` carries what earlier actions of the same
        plan already take (one tick may recall for several lenders).
        """
        taken = removed.setdefault(job.job_id, {})
        for server_id, workers in action.removals:
            if workers < 1:
                raise PlanRejected(
                    f"scale_in of job {job.job_id} removes {workers} "
                    f"workers from {server_id!r}"
                )
            taken[server_id] = taken.get(server_id, 0) + workers
        _check_scale_floor(job, job.total_workers - sum(taken.values()))
        for server_id, _ in action.removals:
            held = job.flex_placement.get(server_id, 0)
            if taken[server_id] > held:
                raise PlanRejected(
                    f"scale_in of job {job.job_id} removes "
                    f"{taken[server_id]} flexible workers from "
                    f"{server_id!r}, where it holds {held}"
                )

    # -- commit ----------------------------------------------------------
    def _commit(self, action: Action) -> None:
        sim = self.sim
        kind = action.kind
        if kind == "launch":
            sim._commit_start(
                sim.jobs[action.job_id],
                action.workers,
                action.queued_s,
                action.eta,
            )
        elif kind == "scale_out":
            sim._commit_rescale(sim.jobs[action.job_id], True, action.workers, action.eta)
        elif kind == "scale_in":
            if action.staged:
                sim._commit_rescale(sim.jobs[action.job_id], False, action.workers, action.eta)
            elif action.job_id in sim.running:
                self._commit_scale_in(sim.jobs[action.job_id], action.removals)
        elif kind == "preempt":
            if action.job_id in sim.running:
                sim.preempt(sim.jobs[action.job_id], cause=action.cause)
        elif kind == "loan_servers":
            self._commit_loan(action)
        elif kind == "reclaim_servers":
            if action.route_around:
                self._commit_route_around(action)
            else:
                self._commit_reclaim(action)

    def _commit_scale_in(
        self, job: Job, removals: Tuple[Tuple[str, int], ...]
    ) -> None:
        """The whole effect of a declarative ScaleIn: bank progress, stop
        the named flexible workers, retune, then log and re-time."""
        sim = self.sim
        job.advance(sim.now)
        for server_id, workers in removals:
            sim.rm.scale_in(job, server_id, workers)
        sim._retune(job)
        sim._commit_rescale(job, False, job.total_workers, job.eta())

    def _commit_loan(self, action: LoanServers) -> None:
        sim = self.sim
        moved = sim.pair.loan_ids(
            action.server_ids, borrower=action.borrower, now=sim.now
        )
        if moved:
            server_ids = [s.server_id for s in moved]
            sim.metrics.loan_ops.append(len(moved))
            sim.log(
                EventKind.LOAN,
                detail=server_ids,
                servers=server_ids,
                requested=action.requested,
                lender=action.lender,
                borrower=action.borrower,
            )
            logger.debug("loaned %d servers at %.0f", len(moved), sim.now)
            sim.note_trigger(TRIGGER_LOAN, servers=len(moved))
            sim.trigger_schedule()

    def _commit_route_around(self, action: ReclaimServers) -> None:
        sim = self.sim
        returned = 0
        for server_id, unhealthy, straggling in action.health:
            sim.rm.return_server(server_id, now=sim.now)
            returned += 1
            sim.trace(
                "recovery.reclaim_route_around",
                server_id=server_id,
                unhealthy=unhealthy,
                straggling=straggling,
            )
        if returned:
            if action.record_metrics:
                sim.metrics.reclaim_ops.append(returned)
            sim.note_trigger(
                TRIGGER_RECLAIM, servers=returned, route_around=True
            )
            sim.trigger_schedule()

    def _commit_reclaim(self, action: ReclaimServers) -> None:
        """Execute a reclaim plan's server returns (§4).

        The plan's scale-ins and preemptions precede this action in the
        plan, so by now the listed servers should be vacant; a job still
        running there is preempted, and anything else left on the book
        is drift ``rm.return_server`` refuses, naming server and jobs.
        """
        sim = self.sim
        preempted: Set[int] = set(action.preempted)
        servers_list = list(action.server_ids)
        returned = 0
        gpus_per_server = 0
        for server_id in servers_list:
            if server_id not in sim.pair.training:
                continue
            server = sim.pair.training.get(server_id)
            for job_id in list(server.allocations):
                if job_id in sim.running:
                    sim.preempt(sim.jobs[job_id], cause="reclaim")
                    preempted.add(job_id)
            gpus_per_server = server.num_gpus
            sim.rm.return_server(server_id, now=sim.now)
            returned += 1
        collateral_frac = None
        if gpus_per_server:
            collateral_frac = action.collateral_gpus / (action.demand * gpus_per_server)
        if returned and action.record_metrics:
            sim.metrics.reclaim_ops.append(returned)
            sim.metrics.flex_satisfied.append(min(1.0, action.free_servers / action.demand))
            if collateral_frac is not None:
                sim.metrics.collateral.append(collateral_frac)
        if returned:
            sim.log(
                EventKind.RECLAIM,
                detail={
                    "servers": servers_list,
                    "preempted": sorted(preempted),
                },
                demand=action.demand,
                servers=list(servers_list),
                preempted=sorted(preempted),
                scaled_in=list(action.scaled_in),
                free_servers=action.free_servers,
                collateral=collateral_frac,
                preemption_costs=dict(action.costs),
                inference_driven=action.record_metrics,
                lender=action.lender,
            )
            logger.info(
                "reclaimed %d/%d servers at %.0f (%d preemptions, " "%d scale-ins)",
                returned,
                action.demand,
                sim.now,
                len(preempted),
                len(action.scaled_in),
            )
            sim.note_trigger(
                TRIGGER_RECLAIM, servers=returned, demand=action.demand
            )
            sim.trigger_schedule()
