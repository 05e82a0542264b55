"""Declarative fault plans: what chaos to inject, when, and how hard.

A :class:`FaultPlan` is a pure data description of every fault a
simulation run should suffer — it contains no runtime state and can be
round-tripped through JSON (and YAML when available), so chaos
experiments are reviewable artifacts rather than code.  The runtime
counterpart that executes a plan against a live simulation is
:class:`repro.faults.injector.FaultInjector`.

Fault families (each optional, all composable):

* **NodeFailureProcess** — a Poisson process of node crashes across the
  training whitelist, optionally *correlated* (each event takes down a
  block of co-located servers, modelling rack/PDU failures).
* **NodeOutage** — a deterministic crash of ``servers`` co-located
  machines at an exact simulated time.
* **Straggler** — ``servers`` machines run at ``factor`` of their normal
  throughput for ``duration`` seconds; the degradation propagates to
  affected jobs through the elastic throughput model.
* **FlashCrowd** — an inference traffic spike overlaid on the
  utilization trace, forcing a reclaim storm on the loaning loop.
* **PredictorOutage** — the loaning signal is unavailable; the
  orchestrator holds the degraded headroom of
  :class:`repro.faults.recovery.DegradedLoaning` meanwhile.
* **LaunchFailures** — each container launch transiently fails with
  probability ``probability``; the resource manager retries with
  exponential backoff per :class:`repro.faults.recovery.RetryPolicy`.

Everything stochastic derives from ``FaultPlan.seed``, so a seeded plan
replays bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.faults.crash import CrashPoint, seeded_crash_schedule
from repro.faults.recovery import DegradedLoaning, RetryPolicy

HOUR = 3600.0


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class NodeFailureProcess:
    """Stochastic node crashes: exponential inter-arrival times.

    Attributes:
        mtbf: Mean time between failure *events* in seconds.
        repair_time: Seconds a failed node stays unhealthy.
        correlated: Servers taken down per event (1 = independent
            crashes; >1 models rack-level blast radius).
    """

    mtbf: float
    repair_time: float = HOUR
    correlated: int = 1

    def __post_init__(self) -> None:
        _require(self.mtbf > 0, f"mtbf must be positive, got {self.mtbf}")
        _require(self.repair_time >= 0,
                 f"repair_time must be >= 0, got {self.repair_time}")
        _require(self.correlated >= 1,
                 f"correlated must be >= 1, got {self.correlated}")


@dataclass(frozen=True)
class NodeOutage:
    """A deterministic outage of ``servers`` co-located machines.

    ``region`` restricts the blast radius to servers homed in one
    cluster/region (multi-cluster markets: a regional outage).  ``None``
    keeps the classic behavior — any co-located block of the training
    whitelist.
    """

    at: float
    servers: int = 1
    repair_time: float = HOUR
    region: Optional[str] = None

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"at must be >= 0, got {self.at}")
        _require(self.servers >= 1, f"servers must be >= 1, got {self.servers}")
        _require(self.repair_time >= 0,
                 f"repair_time must be >= 0, got {self.repair_time}")
        _require(self.region is None or bool(self.region),
                 "region must be None or a non-empty cluster name")


@dataclass(frozen=True)
class Straggler:
    """``servers`` machines run at ``factor`` throughput for a while."""

    at: float
    duration: float
    factor: float = 0.5
    servers: int = 1

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"at must be >= 0, got {self.at}")
        _require(self.duration > 0,
                 f"duration must be positive, got {self.duration}")
        _require(0.0 < self.factor < 1.0,
                 f"factor must be in (0, 1), got {self.factor}")
        _require(self.servers >= 1, f"servers must be >= 1, got {self.servers}")


@dataclass(frozen=True)
class FlashCrowd:
    """An inference traffic spike: +``magnitude`` utilization for
    ``duration`` seconds starting at ``at`` (clipped to [0, 1])."""

    at: float
    duration: float
    magnitude: float = 0.25

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"at must be >= 0, got {self.at}")
        _require(self.duration > 0,
                 f"duration must be positive, got {self.duration}")
        _require(0.0 < self.magnitude <= 1.0,
                 f"magnitude must be in (0, 1], got {self.magnitude}")


@dataclass(frozen=True)
class PredictorOutage:
    """The loaning signal is unavailable during [at, at + duration)."""

    at: float
    duration: float

    def __post_init__(self) -> None:
        _require(self.at >= 0, f"at must be >= 0, got {self.at}")
        _require(self.duration > 0,
                 f"duration must be positive, got {self.duration}")


@dataclass(frozen=True)
class LaunchFailures:
    """Transient container-launch failures.

    Attributes:
        probability: Chance one launch attempt fails transiently.
        until: Injection stops at this simulated time (None = forever).
    """

    probability: float
    until: Optional[float] = None

    def __post_init__(self) -> None:
        _require(0.0 < self.probability <= 1.0,
                 f"probability must be in (0, 1], got {self.probability}")
        _require(self.until is None or self.until > 0,
                 f"until must be positive or None, got {self.until}")


#: field name -> element type for the tuple-of-events plan fields.
_EVENT_FIELDS = {
    "outages": NodeOutage,
    "stragglers": Straggler,
    "flash_crowds": FlashCrowd,
    "predictor_outages": PredictorOutage,
}


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded chaos specification for one run."""

    name: str = "custom"
    seed: int = 0
    process: Optional[NodeFailureProcess] = None
    outages: Tuple[NodeOutage, ...] = ()
    stragglers: Tuple[Straggler, ...] = ()
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    predictor_outages: Tuple[PredictorOutage, ...] = ()
    launch_failures: Optional[LaunchFailures] = None
    crashes: Tuple[CrashPoint, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    degraded: DegradedLoaning = field(default_factory=DegradedLoaning)

    def __post_init__(self) -> None:
        for fname in _EVENT_FIELDS:
            value = getattr(self, fname)
            if not isinstance(value, tuple):
                object.__setattr__(self, fname, tuple(value))
        if not isinstance(self.crashes, tuple):
            object.__setattr__(self, "crashes", tuple(self.crashes))

    def is_empty(self) -> bool:
        """True when the plan injects nothing *into the simulation*.

        ``crashes`` deliberately do not count: process kills are executed
        by the recovery harness around the simulator, not by the in-sim
        :class:`~repro.faults.injector.FaultInjector`, so a crash-only
        plan must not disable the injector-free fast paths.
        """
        return (
            self.process is None
            and self.launch_failures is None
            and not any(getattr(self, f) for f in _EVENT_FIELDS)
        )

    # ------------------------------------------------------------------
    # (de)serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"name": self.name, "seed": self.seed}
        if self.process is not None:
            out["process"] = dataclasses.asdict(self.process)
        for fname in _EVENT_FIELDS:
            events = getattr(self, fname)
            if events:
                out[fname] = [dataclasses.asdict(e) for e in events]
        if self.launch_failures is not None:
            out["launch_failures"] = dataclasses.asdict(self.launch_failures)
        if self.crashes:
            out["crashes"] = [c.to_dict() for c in self.crashes]
        out["retry"] = dataclasses.asdict(self.retry)
        out["degraded"] = dataclasses.asdict(self.degraded)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        if not isinstance(data, dict):
            raise ValueError(f"fault plan must be a mapping, got {type(data)}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault-plan keys {sorted(unknown)}; known: "
                f"{sorted(known)}"
            )
        kwargs: Dict[str, Any] = {
            "name": data.get("name", "custom"),
            "seed": int(data.get("seed", 0)),
        }
        if data.get("process") is not None:
            kwargs["process"] = NodeFailureProcess(**data["process"])
        for fname, etype in _EVENT_FIELDS.items():
            if data.get(fname):
                kwargs[fname] = tuple(etype(**e) for e in data[fname])
        if data.get("launch_failures") is not None:
            kwargs["launch_failures"] = LaunchFailures(**data["launch_failures"])
        if data.get("crashes"):
            kwargs["crashes"] = tuple(
                CrashPoint.from_dict(c) for c in data["crashes"]
            )
        if data.get("retry") is not None:
            kwargs["retry"] = RetryPolicy(**data["retry"])
        if data.get("degraded") is not None:
            kwargs["degraded"] = DegradedLoaning(**data["degraded"])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON or YAML file (extension-sniffed)."""
        with open(path) as fh:
            text = fh.read()
        if path.endswith((".yaml", ".yml")):
            try:
                import yaml
            except ImportError as exc:  # pragma: no cover - env-dependent
                raise RuntimeError(
                    f"cannot load {path}: PyYAML is not installed; "
                    f"use a JSON plan instead"
                ) from exc
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
        return cls.from_dict(data)

    def with_seed(self, seed: int) -> "FaultPlan":
        updates: Dict[str, Any] = {"seed": seed}
        # a seed-derived kill schedule follows the new seed; an explicit
        # hand-written schedule is data and stays put
        if self.crashes and self.crashes == seeded_crash_schedule(
            self.seed, count=len(self.crashes)
        ):
            updates["crashes"] = seeded_crash_schedule(
                seed, count=len(self.crashes)
            )
        return dataclasses.replace(self, **updates)


# ----------------------------------------------------------------------
# builtin plans (the names `repro run --faults` takes; docs/ROBUSTNESS.md
# tables them)
# ----------------------------------------------------------------------
def _builtin_plans() -> Dict[str, FaultPlan]:
    return {
        # nothing injected: the zero-cost control plan
        "none": FaultPlan(name="none"),
        # routine uncorrelated node churn
        "node-churn": FaultPlan(
            name="node-churn",
            process=NodeFailureProcess(mtbf=6 * HOUR, repair_time=HOUR),
        ),
        # a rack dies mid-trace on top of mild churn
        "rack-outage": FaultPlan(
            name="rack-outage",
            process=NodeFailureProcess(mtbf=12 * HOUR, repair_time=HOUR),
            outages=(NodeOutage(at=6 * HOUR, servers=3, repair_time=2 * HOUR),),
        ),
        # a whole region browns out (multi-cluster markets: servers homed
        # in one member cluster fail together, wherever they are loaned)
        "regional-outage": FaultPlan(
            name="regional-outage",
            outages=(
                NodeOutage(at=4 * HOUR, servers=3, repair_time=2 * HOUR,
                           region="infer-r0"),
            ),
        ),
        # inference traffic spikes force reclaim storms
        "flash-crowd": FaultPlan(
            name="flash-crowd",
            flash_crowds=(
                FlashCrowd(at=4 * HOUR, duration=HOUR, magnitude=0.3),
                FlashCrowd(at=12 * HOUR, duration=2 * HOUR, magnitude=0.25),
            ),
        ),
        # slow servers drag elastic jobs down
        "stragglers": FaultPlan(
            name="stragglers",
            stragglers=(
                Straggler(at=2 * HOUR, duration=4 * HOUR, factor=0.4,
                          servers=2),
                Straggler(at=10 * HOUR, duration=2 * HOUR, factor=0.6,
                          servers=1),
            ),
        ),
        # the simulator process itself dies (and must recover): a seeded
        # kill schedule over the recovery-barrier taxonomy, executed by
        # `repro run`'s kill/recover loop via repro.recovery, with mild
        # node churn so recovery happens under real scheduling pressure
        "process-crash": FaultPlan(
            name="process-crash",
            process=NodeFailureProcess(mtbf=12 * HOUR, repair_time=HOUR),
            crashes=seeded_crash_schedule(seed=0, count=3),
        ),
        # everything at once: the full resilience gauntlet
        "chaos": FaultPlan(
            name="chaos",
            process=NodeFailureProcess(mtbf=4 * HOUR, repair_time=HOUR,
                                       correlated=2),
            outages=(NodeOutage(at=8 * HOUR, servers=2),),
            stragglers=(
                Straggler(at=3 * HOUR, duration=3 * HOUR, factor=0.5,
                          servers=2),
            ),
            flash_crowds=(
                FlashCrowd(at=5 * HOUR, duration=HOUR, magnitude=0.3),
            ),
            predictor_outages=(
                PredictorOutage(at=6 * HOUR, duration=3 * HOUR),
            ),
            launch_failures=LaunchFailures(probability=0.10),
        ),
    }


BUILTIN_PLANS: Dict[str, FaultPlan] = _builtin_plans()


def resolve_plan(spec: str) -> FaultPlan:
    """Resolve a CLI ``--faults`` value: builtin name or file path."""
    if spec in BUILTIN_PLANS:
        return BUILTIN_PLANS[spec]
    if spec.endswith((".json", ".yaml", ".yml")):
        return FaultPlan.from_file(spec)
    raise ValueError(
        f"{spec!r} is neither a builtin plan ({sorted(BUILTIN_PLANS)}) nor "
        f"a .json/.yaml plan file"
    )
