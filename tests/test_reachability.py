"""``src/`` is what a run reaches.

Every top-level ``def`` / ``class`` of ``src/repro``, and every method of
a top-level class, must be reached from an entry point: module-level
code (``python -m repro``, the ``TIMERS`` tables, the scheme table),
``benchmarks/`` and ``examples/``.
Reaching is by name and transitive — a definition mentioned only inside
the body of an unreached definition is unreached too.  Imports,
``__all__`` lists and docstrings are not mentions, so a re-export keeps
nothing alive, and ``tests/`` is not an entry point: what only a test
calls is either deleted with the test or named in :data:`ALLOWLIST` with
the reason the test needs it.

What module-level code does not reach and only ``benchmarks/`` or
``examples/`` do is named in :data:`BENCH_ONLY`, each with why it stays
in ``src/``: a definition that outlives the benchmark or example using
it must go with it, not linger as reached-by-nothing.
"""

from __future__ import annotations

import ast
import functools
import re
import shutil
from pathlib import Path
from typing import Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ENTRY_POINTS = (ROOT / "benchmarks", ROOT / "examples")

#: definitions only ``tests/`` reaches, each with why it stays
ALLOWLIST: Dict[str, str] = {
    "reset_logging": "test isolation: undoes configure_logging between "
    "the logging tests of tests/test_obs.py",
    "pending_events": "harness probe: tests count armed timers (tick "
    "coalescing, a run cut short) without reading _heap",
}

#: definitions no module-level code reaches, only ``benchmarks/`` or
#: ``examples/`` — a key is a label or a module/class prefix of labels —
#: each with why it stays in ``src/``
BENCH_ONLY: Dict[str, str] = {
    "repro.scenarios.run_scheme": "the library's two-line happy path "
    "(build_sim + run); every benchmark and example runs a cell with it",
    "repro.scenarios.with_checkpointing_fraction": "Fig. 13 workload "
    "transform (bench_fig13_checkpointing, bench_resilience)",
    "repro.scenarios.with_elastic_fraction": "Figs. 8/14-16 workload "
    "transform (the elastic sweeps and elastic_scaling_comparison)",
    "repro.serve.client": "the daemon's asyncio client: bench_serve "
    "drives `repro serve` through it, the daemon never calls itself",
    "repro.simulator.metrics.TimeSeries": "hourly/bucketed views of a "
    "usage series for the Figs. 1, 2, 7 and 9 benches",
    "repro.simulator.metrics.SimulationMetrics.onloan_job_ids": "Table 7 "
    "on-loan job split (bench_table7_onloan_jobs)",
    "repro.simulator.metrics.SimulationMetrics.summary_for": "Table 7 "
    "per-subset summaries (bench_table7_onloan_jobs)",
    "repro.simulator.metrics.SimulationMetrics.mean_collateral": "Fig. 10 "
    "collateral damage column (bench_fig10, bench_table10, "
    "capacity_loaning_demo)",
    "repro.simulator.metrics.SimulationMetrics.mean_flex_satisfied": "Table "
    "5/6 flexible-demand column (bench_table5, bench_table6, bench_fig10)",
    "repro.traces.bootstrap": "Fig. 12 bootstrap resampling of traces "
    "(bench_fig12_bootstrap)",
    "repro.traces.models.fig3_series": "Fig. 3 throughput curves "
    "(bench_fig3_throughput_scaling)",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _docstring(node: ast.AST):
    body = getattr(node, "body", None)
    if (
        isinstance(node, (ast.Module,) + _DEFS)
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[0]
    return None


def _mentions(nodes: Iterable[ast.AST], cut: Tuple[ast.AST, ...] = ()) -> Set[str]:
    """Identifiers the code under ``nodes`` mentions, not descending into
    the definitions in ``cut`` (they are their own regions).

    Strings that are identifiers count — timers and schemes are
    dispatched by name (``getattr(self, TIMERS[head])``) — docstrings,
    ``__all__`` and plain imports do not.
    """
    found: Set[str] = set()
    stack: List[ast.AST] = list(nodes)
    while stack:
        node = stack.pop()
        if any(node is c for c in cut):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # `from m import f as g`: g is what the code mentions
            found.update(a.name for a in node.names if a.asname)
            continue
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        doc = _docstring(node)
        stack.extend(c for c in ast.iter_child_nodes(node) if c is not doc)
    return found


@functools.lru_cache(maxsize=None)
def _regions(src: Path):
    """``(roots, regions)``: the names module-level code mentions, and one
    region per definition — ``(label, name, owner, mentions)`` where
    ``owner`` is the enclosing top-level class label (or ``None``)."""
    roots: Set[str] = set()
    regions: List[Tuple[str, str, object, Set[str]]] = []
    for path in sorted(src.rglob("*.py")):
        module = ".".join(path.relative_to(src.parent).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))
        top = tuple(n for n in tree.body if isinstance(n, _DEFS))
        roots |= _mentions([tree], cut=top)
        for node in top:
            label = f"{module}.{node.name}"
            methods: Tuple[ast.AST, ...] = ()
            if isinstance(node, ast.ClassDef):
                methods = tuple(
                    m
                    for m in node.body
                    if isinstance(m, _DEFS[:2]) and not _is_dunder(m.name)
                )
            regions.append((label, node.name, None, _mentions([node], cut=methods)))
            for m in methods:
                regions.append((f"{label}.{m.name}", m.name, label, _mentions([m])))
    return roots, regions


@functools.lru_cache(maxsize=None)
def _entry_mentions(entries: Tuple[Path, ...]) -> Set[str]:
    found: Set[str] = set()
    for entry in entries:
        for path in sorted(entry.rglob("*.py")):
            found.update(_IDENT.findall(path.read_text()))
    return found


def unreached(
    src: Path = SRC,
    extra_roots: Iterable[str] = (),
    entries: Tuple[Path, ...] = ENTRY_POINTS,
) -> List[str]:
    """Labels of the definitions under ``src`` that neither module-level
    code nor the files under ``entries`` reach."""
    roots, regions = _regions(src)
    live_names = roots | _entry_mentions(entries) | set(extra_roots)
    live: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for label, name, owner, mentions in regions:
            if label in live or name not in live_names:
                continue
            if owner is not None and owner not in live:
                continue
            live.add(label)
            live_names |= mentions
            grew = True
    return [label for label, _, _, _ in regions if label not in live]


def test_every_definition_is_reached_or_allowlisted():
    assert len(ALLOWLIST) <= 12
    dead = unreached(extra_roots=ALLOWLIST)
    assert dead == [], "defined in src/ and reached by no entry point: " + ", ".join(dead)


def test_every_allowlisted_name_still_needs_its_entry():
    """An allowlist entry that the code reaches anyway (or that names
    nothing) is stale: delete it."""
    everything = {name for _, name, _, _ in _regions(SRC)[1]}
    for name in ALLOWLIST:
        assert name in everything, f"{name} names nothing in src/"
        others = set(ALLOWLIST) - {name}
        assert any(
            label.rsplit(".", 1)[-1] == name for label in unreached(extra_roots=others)
        ), f"{name} is reached without its allowlist entry"


def test_a_planted_unused_definition_is_caught(tmp_path):
    """Plant-and-catch: the same scan over a copy of ``src/repro`` with
    one unused function appended to every module names each of them."""
    planted = tmp_path / "repro"
    shutil.copytree(SRC, planted)
    modules = sorted(planted.rglob("*.py"))
    for i, path in enumerate(modules):
        with open(path, "a") as fh:
            fh.write(f"\n\ndef planted_unused_{i}():\n    return {i}\n")
    dead = unreached(planted, extra_roots=ALLOWLIST)
    assert [d.rsplit(".", 1)[-1] for d in dead] == [
        f"planted_unused_{i}" for i in range(len(modules))
    ]


def unnamed_bench_only(src: Path = SRC, entries: Tuple[Path, ...] = ENTRY_POINTS) -> List[str]:
    """Labels under ``src`` that ``entries`` reach and module-level code
    (with :data:`ALLOWLIST`) does not, not named by :data:`BENCH_ONLY`."""
    reached = set(unreached(src, ALLOWLIST, entries))
    return [
        label
        for label in unreached(src, ALLOWLIST, entries=())
        if label not in reached and not _named(label, BENCH_ONLY)
    ]


def _named(label: str, keys: Iterable[str]) -> bool:
    return any(label == key or label.startswith(key + ".") for key in keys)


def test_what_only_benchmarks_or_examples_reach_is_named():
    assert unnamed_bench_only() == [], "reached only by benchmarks/ or examples/"
    only = unreached(extra_roots=ALLOWLIST, entries=())
    for key in BENCH_ONLY:
        assert any(_named(label, [key]) for label in only), (
            f"{key} is reached by module-level code, or names nothing: "
            f"delete its BENCH_ONLY entry"
        )


def test_a_planted_bench_only_definition_is_caught(tmp_path):
    """Plant-and-catch: a function appended to a copy of ``src/repro``
    and called only from a planted benchmark is reached, yet named as
    bench-only."""
    planted = tmp_path / "repro"
    shutil.copytree(SRC, planted)
    with open(planted / "scenarios.py", "a") as fh:
        fh.write("\n\ndef planted_bench_only():\n    return 0\n")
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    (bench / "bench_planted.py").write_text("planted_bench_only()\n")
    entries = ENTRY_POINTS + (bench,)
    assert unreached(planted, ALLOWLIST, entries) == []
    assert unnamed_bench_only(planted, entries) == ["repro.scenarios.planted_bench_only"]
