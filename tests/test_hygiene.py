"""Guards on the package's names, checked with ast and importlib: the public
names resolve, the benchmark's traced mode finds every name it rebinds, no
module keeps an import it does not use, every private function or class
is used somewhere in the package, counting evaluates f over a box in one
walk only, and one function alone makes a thread pool."""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import visiblepoints

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "visiblepoints"


def test_public_names_resolve_once():
    names = visiblepoints.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(visiblepoints, n)] == []


def test_traced_benchmark_rebinds_existing_names(monkeypatch):
    # the traced mode of perfbench/run.py rebinds these names on the
    # library's modules; a missing one would fail every traced child
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # for its dataclasses
    spec.loader.exec_module(tracing)
    missing = [
        (mod, attr)
        for mod, attr, _ in tracing.REBINDINGS
        if not hasattr(importlib.import_module(f"visiblepoints.{mod}"), attr)
    ]
    assert missing == []


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 1
    assert [u for path in modules for u in _unused_imports(path)] == []


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, defs) and node.name.startswith("_") and not node.name.startswith("__")
    ]
    assert len(private) > 10
    assert [d for d in private if not used[d.rsplit(" ", 1)[1]]] == []


def test_counting_evaluates_boxes_only_through_the_sweep():
    # every box is evaluated through the evaluate argument of _sweep; the one
    # other caller of an evaluate method is the separable histogram, for its
    # two axis tables
    tree = ast.parse((PACKAGE / "counting.py").read_text())
    callers = [
        getattr(top, "name", f"line {top.lineno}")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "evaluate"
    ]
    assert callers == ["_separable_histogram"] * 2


def test_one_function_names_the_thread_pool():
    # the grid histogram is the one walk that spreads its tiles over
    # threads; every other walk runs in the calling thread
    namers = {
        f"{path.stem}.{getattr(top, 'name', f'line {top.lineno}')}"
        for path in PACKAGE.glob("*.py")
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if "ThreadPoolExecutor" in (getattr(node, "id", None), getattr(node, "attr", None),
                                    getattr(node, "name", None))
    }
    assert namers == {"counting._grid_histogram"}
