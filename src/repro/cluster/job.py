"""Training-job model.

A job is described statically by a :class:`JobSpec` (what a trace records:
arrival, demand, duration, capability flags) and dynamically by a
:class:`Job` (what the scheduler and simulator mutate: status, placement,
remaining work).

Work accounting
---------------
Work is measured in *training-GPU seconds*: a job's total workload is
``duration * max_workers * gpus_per_worker`` — the paper's "minimum running
time" is achieved at maximum demand on training GPUs (Table 2).  A running
job consumes work at a throughput equal to the sum over its workers of
``gpus_per_worker * host_relative_compute``, scaled by the job's
:class:`~repro.elastic.throughput.ScalingModel` efficiency at its current
worker count.  Running time is therefore inversely proportional to the
allocation in the linear regime, exactly as §5 assumes.
"""

from __future__ import annotations

import contextlib
import enum
import math
import operator
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, Mapping, Optional, get_type_hints

from repro.elastic.throughput import LINEAR, ScalingModel


class JobStatus(enum.Enum):
    """Lifecycle states of a training job."""

    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"


#: Marginal efficiency of workers *beyond* a job's declared scaling range.
#: Schedulers assuming unbounded elasticity (AFS, §7.4) may grow jobs past
#: ``max_workers``; physically those models scale poorly out of range.
BEYOND_RANGE_EFFICIENCY = 0.7

#: Seconds of extra work a preemption charges at the job's full rate:
#: checkpoint save/load and container churn, measured on the testbed (§7.5).
PREEMPTION_OVERHEAD = 63.0


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of a training job as recorded in a trace.

    Attributes:
        job_id: Unique identifier within a trace.
        submit_time: Submission timestamp in seconds from trace start.
        duration: Running time in seconds when the job holds its maximum
            demand on training GPUs (the paper's *minimum running time*).
        max_workers: Requested worker count; for inelastic jobs this is
            the fixed demand.
        min_workers: Minimum workers an elastic job can make progress
            with (its *base demand*); equals ``max_workers`` when
            inelastic.
        gpus_per_worker: GPUs consumed by each worker container.
        elastic: Whether the job supports on-the-fly worker scaling
            within ``[min_workers, max_workers]`` (§2.2).
        fungible: Whether the job can run on a different GPU type in a
            different execution run, making it eligible for on-loan
            inference servers (§2.1; 21 % of production jobs).
        heterogeneous: Whether the job can span GPU types at runtime
            (experimental; ≤70 % of ideal throughput in Advanced, §7.1).
        checkpointing: Whether preemption preserves training progress
            (§7.3); the paper's conservative default is ``False``.
        model_family: Model family label, e.g. ``"resnet"``.
        scaling: Read by nothing: every elastic job gets the kernel's
            ``SimulationConfig.scaling_model``.  Kept so a request
            journal an earlier daemon wrote (its submits could set it)
            still replays; a submit can no longer set it.
    """

    job_id: int
    submit_time: float
    duration: float
    max_workers: int
    min_workers: int = 0
    gpus_per_worker: int = 1
    elastic: bool = False
    fungible: bool = False
    heterogeneous: bool = False
    checkpointing: bool = False
    model_family: str = "generic"
    scaling: str = "linear"

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"submit_time must be >= 0, got {self.submit_time}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {self.max_workers}")
        if self.gpus_per_worker < 1:
            raise ValueError(
                f"gpus_per_worker must be >= 1, got {self.gpus_per_worker}"
            )
        if self.min_workers == 0:
            object.__setattr__(self, "min_workers", self.max_workers)
        if not 1 <= self.min_workers <= self.max_workers:
            raise ValueError(
                f"need 1 <= min_workers <= max_workers, got "
                f"{self.min_workers}..{self.max_workers}"
            )
        if not self.elastic and self.min_workers != self.max_workers:
            raise ValueError("inelastic jobs must have min_workers == max_workers")

    @property
    def base_gpus(self) -> int:
        """GPUs needed by the inelastic base demand (§5.2 phase one)."""
        return self.min_workers * self.gpus_per_worker

    @property
    def max_gpus(self) -> int:
        """GPUs consumed at maximum demand."""
        return self.max_workers * self.gpus_per_worker

    @property
    def total_work(self) -> float:
        """Total workload in training-GPU seconds (demand x min runtime)."""
        return self.duration * self.max_workers * self.gpus_per_worker


#: every JobSpec field and its type, in declaration order: the one schema
#: trace files, the serve wire and the request journal share
SPEC_FIELDS: Dict[str, type] = get_type_hints(JobSpec)
#: what a record carries: every field but the unread ``scaling``, which
#: the reader still takes (a journal an earlier build wrote has it)
RECORD_FIELDS = [name for name in SPEC_FIELDS if name != "scaling"]
_REQUIRED = [f.name for f in fields(JobSpec) if f.default is MISSING]
_FLAG_WORDS = {"true": True, "false": False}
_TAKES = {int: "an integral number", float: "a finite number",
          bool: "true or false", str: "a string"}


def spec_record(spec: JobSpec) -> dict:
    """``spec`` as a flat record of JSON- and CSV-ready values."""
    return {name: getattr(spec, name) for name in RECORD_FIELDS}


def _field_value(name: str, value: Any) -> Any:
    kind = SPEC_FIELDS[name]
    if isinstance(value, str) and kind is not str:
        # a CSV cell: read the text as the field's type
        with contextlib.suppress(KeyError, ValueError):
            value = _FLAG_WORDS[value.strip().lower()] if kind is bool else kind(value)
    if kind in (bool, str):
        if isinstance(value, kind):
            return value
    elif isinstance(value, (int, float)) and not isinstance(value, bool) \
            and math.isfinite(value) and (kind is float or value == int(value)):
        return kind(value)
    raise ValueError(f"field {name!r} takes {_TAKES[kind]}, got {value!r}")


def spec_from_record(record: Mapping[str, Any]) -> JobSpec:
    """Read a spec record (a trace row, a journal entry, a submit): text
    is read as its field's type; a wrong type (a bool for a number, 1.5
    for an int, NaN), an unknown field or a missing required one is a
    ValueError naming the field.  JobSpec checks the numeric invariants."""
    unknown = sorted(set(record) - SPEC_FIELDS.keys(), key=repr)
    if unknown:
        raise ValueError(f"unknown field {unknown[0]!r}")
    for name in _REQUIRED:
        if name not in record:
            raise ValueError(f"missing field {name!r}, which a JobSpec requires")
    return JobSpec(**{name: _field_value(name, v) for name, v in record.items()})


class Job:
    """Mutable runtime state of a job inside the scheduler/simulator.

    Placement is tracked as two ``{server_id: worker_count}`` maps — base
    workers (the inelastic minimum) and flexible workers (the elastic
    surplus) — because Lyra's placement policy deliberately segregates
    them onto different server groups (§5.3) and its reclaiming policy
    kills flexible workers first (§4).
    """

    #: every attribute a job has: a plan transaction's rollback restores
    #: all of them, and a slot (unlike an instance dict, which CPython
    #: 3.11 keeps off the fast attribute path once anything reads it
    #: whole) keeps each read as fast as an inline attribute
    __slots__ = (
        "spec", "status", "remaining_work", "base_placement",
        "flex_placement", "_server_cost", "_onloan_servers", "scaling_model",
        "first_start_time", "finish_time", "last_progress_time",
        "preemptions", "hetero_penalty", "tuning_bonus", "straggler_penalty",
        "onloan_work", "estimate_error", "arrival_hour", "completion_epoch",
        "preempted_at", "flex_items",
    )

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self.status = JobStatus.PENDING
        self.remaining_work = spec.total_work
        #: base workers per server id
        self.base_placement: Dict[str, int] = {}
        #: flexible (elastic surplus) workers per server id
        self.flex_placement: Dict[str, int] = {}
        #: physical GPUs charged per worker on each host server (on-loan
        #: inference servers charge more per the capacity normalization)
        self._server_cost: Dict[str, int] = {}
        #: host servers that are on loan from the inference cluster
        self._onloan_servers: set = set()
        self.scaling_model: ScalingModel = LINEAR
        self.first_start_time: Optional[float] = None
        self.finish_time: Optional[float] = None
        self.last_progress_time: Optional[float] = None
        self.preemptions = 0
        #: <=70 % throughput penalty while spanning mixed GPU types (§7.1)
        self.hetero_penalty: float = 1.0
        #: goodput bonus from hyperparameter tuning (Lyra+TunedJobs, §7.4)
        self.tuning_bonus: float = 1.0
        #: synchronous training runs at the pace of its slowest worker:
        #: fault injection lowers this while any host server straggles
        self.straggler_penalty: float = 1.0
        #: GPU-seconds delivered by on-loan servers, for Table 7 accounting
        self.onloan_work: float = 0.0
        #: running-time estimate error injected for the Table 9 study
        self.estimate_error: float = 1.0
        #: kernel bookkeeping, gone with the job: admission hour (Fig. 2),
        #: generation of the armed completion timer (older ones are
        #: stale), last preemption until it runs again (time-to-restart)
        self.arrival_hour = 0
        self.completion_epoch = 0
        self.preempted_at: Optional[float] = None
        #: derived, never pickled: ``(flex_key(value_fn), items)``
        self.flex_items: Optional[tuple] = None

    def __reduce__(self) -> tuple:
        # a snapshot carries the other slots' values, in slot order
        return _restore_job, (_snapshot_state(self),)

    # ------------------------------------------------------------------
    # identity / convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def elastic(self) -> bool:
        return self.spec.elastic

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job(id={self.job_id}, status={self.status.value}, "
            f"workers={self.total_workers}/{self.spec.max_workers})"
        )

    # ------------------------------------------------------------------
    # placement accounting
    # ------------------------------------------------------------------
    @property
    def total_workers(self) -> int:
        """Workers currently placed (base + flexible)."""
        return sum(self.base_placement.values()) + sum(self.flex_placement.values())

    @property
    def base_workers(self) -> int:
        return sum(self.base_placement.values())

    @property
    def flex_workers(self) -> int:
        return sum(self.flex_placement.values())

    @property
    def servers(self) -> set:
        """Ids of all servers hosting at least one of this job's workers."""
        return set(self.base_placement) | set(self.flex_placement)

    def workers_on(self, server_id: str) -> int:
        return self.base_placement.get(server_id, 0) + self.flex_placement.get(
            server_id, 0
        )

    def record_placement(
        self,
        server_id: str,
        workers: int,
        flexible: bool,
        gpu_cost: Optional[int] = None,
        on_loan: bool = False,
    ) -> None:
        """Register ``workers`` new workers of this job on a server.

        Args:
            server_id: Host server.
            workers: Number of workers added (must be positive).
            flexible: True if these are elastic-surplus workers.
            gpu_cost: Physical GPUs each worker occupies on this host
                (defaults to ``gpus_per_worker``; larger on weaker
                on-loan GPUs per the §5.2 capacity normalization).
            on_loan: True when the host is a loaned inference server.
        """
        if workers <= 0:
            raise ValueError(f"workers must be positive, got {workers}")
        placement = self.flex_placement if flexible else self.base_placement
        placement[server_id] = placement.get(server_id, 0) + workers
        self._server_cost[server_id] = (
            gpu_cost if gpu_cost is not None else self.spec.gpus_per_worker
        )
        if on_loan:
            self._onloan_servers.add(server_id)

    def remove_placement(self, server_id: str) -> int:
        """Remove all of this job's workers from ``server_id``.

        Returns the number of workers removed.
        """
        removed = self.base_placement.pop(server_id, 0)
        removed += self.flex_placement.pop(server_id, 0)
        if server_id not in self.servers:
            self._server_cost.pop(server_id, None)
            self._onloan_servers.discard(server_id)
        return removed

    def remove_flex_on(self, server_id: str) -> int:
        """Scale in: drop only the flexible workers on ``server_id``."""
        removed = self.flex_placement.pop(server_id, 0)
        if server_id not in self.servers:
            self._server_cost.pop(server_id, None)
            self._onloan_servers.discard(server_id)
        return removed

    def clear_placement(self) -> None:
        self.base_placement.clear()
        self.flex_placement.clear()
        self._server_cost.clear()
        self._onloan_servers.clear()

    def gpu_cost_on(self, server_id: str) -> int:
        """Physical GPUs each of this job's workers occupies on a host."""
        return self._server_cost.get(server_id, self.spec.gpus_per_worker)

    def gpus_on(self, server_id: str) -> int:
        """Physical GPUs this job occupies on ``server_id``."""
        return self.workers_on(server_id) * self.gpu_cost_on(server_id)

    # ------------------------------------------------------------------
    # progress accounting
    # ------------------------------------------------------------------
    def effective_workers(self, workers: int) -> float:
        """Perfectly-scaling workers ``workers`` workers are worth.

        Inside the scaling range the job's scaling model applies; every
        worker beyond ``max_workers`` contributes only
        :data:`BEYOND_RANGE_EFFICIENCY` of a worker.  Divided by
        ``workers`` it is the average per-worker efficiency.
        """
        wmax = self.spec.max_workers
        inside = min(workers, wmax)
        effective = self.scaling_model.effective_workers(inside)
        if workers > wmax:
            effective += (workers - wmax) * BEYOND_RANGE_EFFICIENCY
        return effective

    def _rate(self, workers: int) -> float:
        """Work rate, in training-GPU seconds per second, at ``workers``.

        A worker delivers its full ``gpus_per_worker`` of training-GPU
        throughput wherever it runs: the §5.2 capacity normalization
        charges weaker on-loan GPUs a larger *footprint* instead (more
        physical GPUs per worker), so speed is placement-independent.
        The job-level parallel efficiency, heterogeneous-training
        penalty, tuning bonus and straggler pace still apply.
        """
        if workers <= 0:
            return 0.0
        return (
            workers
            * self.spec.gpus_per_worker
            * (self.effective_workers(workers) / workers)
            * self.hetero_penalty
            * self.tuning_bonus
            * self.straggler_penalty
        )

    def throughput(self) -> float:
        """Current work rate in training-GPU seconds per second."""
        return self._rate(self.total_workers)

    def onloan_throughput_fraction(self) -> float:
        """Fraction of current throughput delivered by on-loan servers."""
        workers = self.total_workers
        if workers == 0:
            return 0.0
        onloan = sum(
            self.workers_on(sid) for sid in self._onloan_servers
        )
        return onloan / workers

    def advance(self, now: float) -> None:
        """Integrate progress from ``last_progress_time`` up to ``now``."""
        if self.last_progress_time is None:
            self.last_progress_time = now
            return
        dt = now - self.last_progress_time
        if dt < 0:
            raise ValueError(
                f"time went backwards: {self.last_progress_time} -> {now}"
            )
        if self.status is JobStatus.RUNNING and dt > 0:
            done = dt * self.throughput()
            self.remaining_work = max(0.0, self.remaining_work - done)
            self.onloan_work += done * self.onloan_throughput_fraction()
        self.last_progress_time = now

    def eta(self) -> float:
        """Seconds until completion at the current throughput."""
        rate = self.throughput()
        if rate <= 0:
            return math.inf
        return self.remaining_work / rate

    def remaining_time_at(self, workers: int) -> float:
        """Projected remaining running time with ``workers`` workers.

        Used by the allocator to evaluate candidate allocations; like
        :meth:`throughput`, it reads :meth:`_rate`.
        """
        rate = self._rate(workers)
        return self.remaining_work / rate if rate > 0 else math.inf

    def flex_key(self, value_fn) -> tuple:
        """Every input a phase-two ``value_fn`` reads beside the spec."""
        return (value_fn, self.remaining_work, self.estimate_error,
                self.hetero_penalty, self.tuning_bonus,
                self.straggler_penalty, self.scaling_model)

    def estimated_duration(self) -> float:
        """The scheduler-visible running-time estimate (Table 9 study)."""
        return self.spec.duration * self.estimate_error

    # ------------------------------------------------------------------
    # lifecycle transitions
    # ------------------------------------------------------------------
    def mark_started(self, now: float) -> None:
        if self.status is JobStatus.FINISHED:
            raise RuntimeError(f"job {self.job_id} already finished")
        self.status = JobStatus.RUNNING
        self.last_progress_time = now
        if self.first_start_time is None:
            self.first_start_time = now

    def preemption_loss(self, overhead: float) -> float:
        """GPU-seconds a preemption at the current progress destroys.

        The ``overhead`` seconds of checkpoint save/load and container
        churn (§7.5) at the job's full rate, plus — without
        checkpointing — every bit of banked progress.
        """
        lost = overhead * self.spec.max_gpus
        if not self.spec.checkpointing:
            lost += self.spec.total_work - self.remaining_work
        return lost

    def mark_preempted(self, now: float, overhead: float = 0.0) -> None:
        """Kick the job back to the queue after a reclaim preemption (§4).

        Without checkpointing the entire progress is lost and training
        restarts from scratch; with checkpointing progress is kept.  Both
        variants pay ``overhead`` extra work at the job's full rate,
        modelling checkpoint save/load and container churn (§7.5).
        """
        self.advance(now)
        self.status = JobStatus.PENDING
        self.clear_placement()
        # the next placement lands on different servers; any straggler
        # drag from the old hosts ends here
        self.straggler_penalty = 1.0
        self.preemptions += 1
        if not self.spec.checkpointing:
            self.remaining_work = self.spec.total_work
        # with the lost progress already gone, the loss still owed is the
        # overhead alone: its progress term is total - total = +0.0, and
        # adding +0.0 leaves the overhead bit for bit
        self.remaining_work += self.preemption_loss(overhead)
        self.last_progress_time = now

    def mark_finished(self, now: float) -> None:
        self.status = JobStatus.FINISHED
        self.finish_time = now
        self.clear_placement()
        self.flex_items = None

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    @property
    def queuing_time(self) -> Optional[float]:
        """Seconds between submission and first dispatch; None if never ran."""
        if self.first_start_time is None:
            return None
        return self.first_start_time - self.spec.submit_time

    @property
    def jct(self) -> Optional[float]:
        """Job completion time; None if unfinished."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.spec.submit_time


_SNAPSHOT_SLOTS = Job.__slots__[:-1]  # all but the flex-item cache
_snapshot_state = operator.attrgetter(*_SNAPSHOT_SLOTS)


def _restore_job(state: tuple) -> Job:
    job = Job.__new__(Job)
    for name, value in zip(_SNAPSHOT_SLOTS, state):
        setattr(job, name, value)
    job.flex_items = None
    return job
