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
def _entry_mentions() -> Set[str]:
    found: Set[str] = set()
    for entry in ENTRY_POINTS:
        for path in sorted(entry.rglob("*.py")):
            found.update(_IDENT.findall(path.read_text()))
    return found


def unreached(src: Path = SRC, extra_roots: Iterable[str] = ()) -> List[str]:
    """Labels of the definitions under ``src`` no entry point reaches."""
    roots, regions = _regions(src)
    live_names = roots | _entry_mentions() | set(extra_roots)
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
