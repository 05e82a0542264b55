"""Span tracer the benchmark installs around the program's layer boundaries.

The program is not edited: :func:`install` replaces, for the duration of
one traced run, the public entry points of each layer (a class
attribute, or a module-level function in its defining module *and* in
every ``repro.*`` module that imported it by name) with a wrapper that
records one span — name, start, end, parent — into in-memory columns,
and :func:`Installed.restore` puts the originals back.  Wrappers must be
installed before the simulation or daemon is built, because bound
methods captured at construction time (``Server._on_change`` →
``view.server_changed``) are resolved from the class then.

Every target is feature-detected: a module, class or function that a
later refactor removes or renames is skipped (and listed in
``Installed.missing``), so the benchmark keeps running and the affected
per-layer metrics read zero instead of the run failing.

A layer's *self time* is its spans' duration minus the part their child
spans cover, so the self times of all spans under one root add up to
the root's duration exactly.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

_MISSING = object()

#: view entry points, split into the delta feed and the policy queries
VIEW_DELTAS = (
    "server_changed", "server_added", "server_removed", "note_queue_change",
    "bump", "note_group_change", "note_server_attrs",
)
VIEW_QUERIES = (
    "select_best", "candidates", "domain_capacity", "pools",
    "ordered_pending", "reclaim_cost_index", "reclaim_cost",
)


class SpanRecorder:
    """Columnar in-memory span store plus boundary counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}

    def span_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def __len__(self) -> int:
        return len(self.name_id)


def _span_wrapper(rec: SpanRecorder, fn, name: str, observe) -> Callable:
    sid = rec.span_id(name)
    name_id, parent, start, end = rec.name_id, rec.parent, rec.start, rec.end
    stack = rec.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = len(name_id)
        name_id.append(sid)
        parent.append(stack[-1] if stack else -1)
        end.append(0.0)
        stack.append(idx)
        start.append(clock())
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(rec, args, kwargs, None, exc)
            raise
        end[idx] = clock()
        stack.pop()
        if observe is not None:
            observe(rec, args, kwargs, result, None)
        return result

    return wrapper


def _count_wrapper(rec: SpanRecorder, fn, key: str) -> Callable:
    counters = rec.counters
    counters.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counters[key] += 1
        return fn(*args, **kwargs)

    return wrapper


# ----------------------------------------------------------------------
# boundary counters: read from the arguments and results the layer's
# public function already exposes, so ratios are measured where the
# work happens
# ----------------------------------------------------------------------
def _observe_allocation(rec, args, kwargs, decision, exc) -> None:
    if decision is not None:
        rec.count("allocation.admitted", len(decision.scheduled))
        rec.count("allocation.skipped", len(decision.skipped))


def _observe_mckp(rec, args, kwargs, result, exc) -> None:
    groups = args[0] if args else kwargs.get("groups", ())
    capacity = args[1] if len(args) > 1 else kwargs.get("capacity", 0)
    rec.count("mckp.items", sum(len(g) for g in groups))
    rec.count("mckp.capacity", capacity)


def _observe_placement(rec, args, kwargs, result, exc) -> None:
    requests = args[1] if len(args) > 1 else kwargs.get("requests", ())
    rec.count("placement.requests", len(requests))
    base = sum(1 for r in requests if r.base_workers > 0)
    rec.count("placement.base_attempted", base)
    if result is not None:
        rec.count("placement.base_placed", len(result.placed_base))


def _observe_reclaim(rec, args, kwargs, plan, exc) -> None:
    if plan is not None:
        rec.count("reclaim.servers_reclaimed", len(plan.servers))
        rec.count("reclaim.preemptions", len(plan.preempted_jobs))


def _observe_apply(rec, args, kwargs, receipt, exc) -> None:
    if exc is not None:
        rec.count("actions.rejected")
    elif receipt.applied:
        rec.count("actions.committed", receipt.actions)


def _observe_dispatch(rec, args, kwargs, response, exc) -> None:
    op = args[1] if len(args) > 1 else kwargs.get("op")
    if op == "submit":
        rec.count("serve.submits")
    if response is not None and not response.get("ok"):
        rec.count("serve.rejected")


#: (span name, module, class or None, attribute names, observer, flags)
#: flags: "subclasses" also wraps overrides in loaded subclasses;
#: "inherited" wraps the attribute on a class that only inherits it
_SPAN_TARGETS = (
    ("traces", "repro.traces.workload", None, ("generate_workload",), None, ()),
    ("traces", "repro.traces.inference", None,
     ("generate_inference_trace",), None, ()),
    ("simulator", "repro.simulator.simulation", "Simulation", ("run",),
     None, ()),
    ("schedulers", "repro.schedulers.base", "SchedulerPolicy", ("plan",),
     None, ("subclasses",)),
    ("allocation", "repro.core.allocation", None, ("allocate_two_phase",),
     _observe_allocation, ()),
    ("mckp", "repro.core.mckp", None, ("solve_mckp",), _observe_mckp, ()),
    ("placement", "repro.core.placement", "PlacementEngine", ("place",),
     _observe_placement, ()),
    ("view.delta", "repro.core.view", "ClusterView", VIEW_DELTAS, None,
     ("subclasses",)),
    ("view.query", "repro.core.view", "ClusterView", VIEW_QUERIES, None,
     ("subclasses",)),
    ("orchestrator", "repro.core.orchestrator", "ResourceOrchestrator",
     ("plan_tick",), None, ()),
    # the broker inherits plan_tick: its span wraps the orchestrator's,
    # so a market tick shows as market > orchestrator > reclaim
    ("market", "repro.market.broker", "CapacityBroker", ("plan_tick",),
     None, ("inherited",)),
    ("reclaim", "repro.core.reclaim", None,
     ("plan_reclaim_lyra", "plan_reclaim_random", "plan_reclaim_scf"),
     _observe_reclaim, ()),
    ("actions", "repro.core.actions", "PlanExecutor", ("apply",),
     _observe_apply, ()),
    ("recovery.wal", "repro.recovery.wal", "PlanWAL", ("append",), None, ()),
    ("recovery.snapshot", "repro.serve.state", "ServeState", ("snapshot",),
     None, ()),
    ("serve.journal", "repro.serve.state", "RequestJournal", ("append",),
     None, ()),
    # the daemon has no public per-request entry point; the dispatcher
    # is the narrowest one, and is skipped if a refactor renames it
    ("serve.dispatch", "repro.serve.service", "SchedulerService",
     ("_dispatch",), _observe_dispatch, ()),
)

#: counted, not timed: one call per simulated event scheduled
_COUNT_TARGETS = (
    ("simulator.events", "repro.simulator.engine", "Engine", ("schedule",)),
)

#: loaded first so every importer of a wrapped function is patched and
#: every view subclass is registered
_PRELOAD = (
    "repro.scenarios", "repro.core.arrays", "repro.market",
    "repro.serve.service", "repro.cli",
)


class Installed:
    """Handle over one installation; restores the program on exit."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []
        self._undo: List[tuple] = []

    def _set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def restore(self) -> None:
        for obj, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)
        self._undo.clear()


def _all_subclasses(cls) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out


def _patch_function(inst: Installed, module, attr: str, make) -> bool:
    original = vars(module).get(attr)
    if not inspect.isfunction(original):
        return False
    wrapper = make(original)
    for other in list(sys.modules.values()):
        if other is None or not getattr(other, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(other).items()):
            if value is original:
                inst._set(other, key, wrapper)
    return True


def _patch_method(inst: Installed, cls, attr: str, make, flags) -> bool:
    classes = [cls]
    if "subclasses" in flags:
        classes.extend(_all_subclasses(cls))
    done = False
    for klass in classes:
        original = vars(klass).get(attr)
        if original is None and "inherited" in flags:
            original = getattr(klass, attr, None)
        if not inspect.isfunction(original):
            continue  # absent, or a property/static/class method
        inst._set(klass, attr, make(original))
        done = True
    return done


def install(recorder: Optional[SpanRecorder] = None) -> Installed:
    """Wrap every layer entry point that exists; returns the handle."""
    rec = recorder if recorder is not None else SpanRecorder()
    inst = Installed(rec)
    for name in _PRELOAD:
        try:
            importlib.import_module(name)
        except ImportError:
            inst.missing.append(name)

    def resolve(module_name, class_name):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None, None
        if class_name is None:
            return module, None
        return module, getattr(module, class_name, None)

    for span, module_name, class_name, attrs, observe, flags in _SPAN_TARGETS:
        module, cls = resolve(module_name, class_name)
        for attr in attrs:
            def make(fn, span=span, observe=observe):
                return _span_wrapper(rec, fn, span, observe)

            if module is None or (class_name is not None and cls is None):
                ok = False
            elif cls is None:
                ok = _patch_function(inst, module, attr, make)
            else:
                ok = _patch_method(inst, cls, attr, make, flags)
            if not ok:
                inst.missing.append(
                    f"{module_name}:{class_name + '.' if class_name else ''}{attr}"
                )
    for key, module_name, class_name, attrs in _COUNT_TARGETS:
        module, cls = resolve(module_name, class_name)
        for attr in attrs:
            def make(fn, key=key):
                return _count_wrapper(rec, fn, key)

            if cls is None or not _patch_method(inst, cls, attr, make, ()):
                inst.missing.append(f"{module_name}:{class_name}.{attr}")
    return inst


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q,
                               method="higher"))


def summarise(rec: SpanRecorder) -> dict:
    """Per-span-name calls / total / self seconds, plus epoch samples.

    ``calls`` and ``total_s`` count only *entries* into a name (a span
    whose parent has another name), so a subclass method that calls
    ``super()`` is one call; ``self_s`` sums every span's self time.
    An epoch is one ``schedulers`` span (``policy.plan``) plus the next
    ``actions`` span (``executor.apply``) under the same parent.
    """
    n = len(rec)
    out = {
        "spans": n,
        "by_name": {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            for name in rec.names
        },
        "counters": dict(rec.counters),
        "epoch_s": [],
        "durations_s": {},
    }
    if n == 0:
        return out
    name_id = np.frombuffer(rec.name_id, dtype=np.int16)
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    start = np.frombuffer(rec.start, dtype=float)
    end = np.frombuffer(rec.end, dtype=float)
    # a span still open (a dump taken mid-call) counts as empty
    dur = np.where(end > 0.0, end - start, 0.0)
    child = parent >= 0
    self_s = dur.copy()
    np.subtract.at(self_s, parent[child], dur[child])
    entry = np.ones(n, dtype=bool)
    entry[child] = name_id[parent[child]] != name_id[child]
    k = len(rec.names)
    calls = np.bincount(name_id[entry], minlength=k)
    total = np.bincount(name_id[entry], weights=dur[entry], minlength=k)
    selfs = np.bincount(name_id, weights=self_s, minlength=k)
    for i, name in enumerate(rec.names):
        out["by_name"][name] = {
            "calls": int(calls[i]),
            "total_s": float(total[i]),
            "self_s": float(selfs[i]),
        }
        if name in ("recovery.wal", "recovery.snapshot"):
            out["durations_s"][name] = dur[entry & (name_id == i)].tolist()

    plan_id = rec._ids.get("schedulers")
    apply_id = rec._ids.get("actions")
    if plan_id is not None and apply_id is not None:
        open_plan: Dict[int, float] = {}  # parent -> plan duration
        for i in np.flatnonzero(
            entry & ((name_id == plan_id) | (name_id == apply_id))
        ):
            p = int(parent[i])
            if name_id[i] == plan_id:
                open_plan[p] = float(dur[i])
            elif p in open_plan:
                out["epoch_s"].append(open_plan.pop(p) + float(dur[i]))
    return out
