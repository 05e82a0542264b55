"""A package import loads only what it names.

Package ``__init__`` modules re-export nothing: every import site names
the module that defines the name, so importing ``repro.core.mckp`` runs
``repro``, ``repro.core`` and ``repro.core.mckp`` and nothing else, and
the module-level import graph of ``src/repro`` has no cycle.

The graph is what importing a module executes: for each import statement
that runs at import time (not inside a function, not under ``if
TYPE_CHECKING:``), the imported module and every package above it,
except the importing module's own packages (already running by then).
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules(src: Path) -> Dict[str, Path]:
    """Dotted name -> file, for every module under ``src/repro``; a
    package is named by its ``__init__.py``."""
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        parts = path.relative_to(src).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        found[".".join(parts)] = path
    return found


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _import_time_imports(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """The import statements that run when the module is imported."""
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            yield from _import_time_imports(node.orelse)
        else:
            for field in ("body", "orelse", "finalbody", "handlers"):
                for child in getattr(node, field, ()):
                    yield from _import_time_imports(
                        child.body if isinstance(child, ast.ExceptHandler) else [child]
                    )


def import_graph(src: Path = SRC) -> Dict[str, Set[str]]:
    """Module -> the ``repro`` modules importing it executes."""
    modules = _modules(src)
    graph: Dict[str, Set[str]] = {}
    for name, path in modules.items():
        own = {".".join(name.split(".")[:i]) for i in range(1, name.count(".") + 2)}
        targets: Set[str] = set()
        for node in _import_time_imports(ast.parse(path.read_text()).body):
            if isinstance(node, ast.Import):
                targets.update(a.name for a in node.names)
                continue
            assert not node.level, f"{name} uses a relative import"
            targets.add(node.module)
            targets.update(f"{node.module}.{a.name}" for a in node.names)
        executed = set()
        for target in targets:
            parts = target.split(".")
            executed.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        graph[name] = {m for m in executed if m in modules and m not in own}
    return graph


def find_cycle(graph: Dict[str, Set[str]]) -> Optional[List[str]]:
    """One cycle of ``graph`` as ``[a, b, ..., a]``, or None."""
    done: Set[str] = set()
    for root in sorted(graph):
        if root in done:
            continue
        path, children = [root], [iter(sorted(graph[root]))]
        while children:
            child = next(children[-1], None)
            if child is None:
                children.pop()
                done.add(path.pop())
            elif child in path:
                return path[path.index(child) :] + [child]
            elif child not in done:
                path.append(child)
                children.append(iter(sorted(graph[child])))
    return None


def test_no_all_and_no_init_imports_a_name_it_does_not_use():
    for name, path in _modules(SRC).items():
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            targets = getattr(node, "targets", None) or [getattr(node, "target", None)]
            assert not any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ), f"{name} defines __all__"
        if path.name != "__init__.py":
            continue
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and (
                getattr(node, "module", None) != "__future__"
            ):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    assert bound in used, f"{name} imports {bound} and never uses it"


def test_the_module_graph_has_no_cycle():
    cycle = find_cycle(import_graph())
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_a_planted_cycle_is_caught(tmp_path):
    """The same scan over a copy of ``src/repro`` in which a leaf module
    imports a module that imports it back."""
    shutil.copytree(SRC / "repro", tmp_path / "repro")
    with open(tmp_path / "repro" / "core" / "mckp.py", "a") as fh:
        fh.write("\nfrom repro.core.allocation import allocate_two_phase\n")
    cycle = find_cycle(import_graph(tmp_path))
    assert cycle is not None and {"repro.core.mckp", "repro.core.allocation"} <= set(cycle)


def test_a_leaf_import_loads_only_its_own_packages():
    code = (
        "import sys\n"
        "import repro.core.mckp\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True, env=env
    ).stdout
    assert out.split() == ["repro", "repro.core", "repro.core.mckp"]
