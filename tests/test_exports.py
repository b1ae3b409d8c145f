"""Every exported name resolves, both for the package's users and for the
benchmark's tracer, which wraps each module's ``__all__`` plus the ``PolyST``
and ``TruncSeries`` methods it names: a stale entry would crash a traced run.
And every imported name is used, and every private name that one module of
the package imports from another is named in ``CROSSING`` with its reason."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
MODULES = ["", ".numerics", ".eulerian", ".ward", ".stirlingperm", ".trees", ".series", ".verify", ".cli"]

# "module._name": why another module of the package may import it
CROSSING = {
    "numerics._require_int": "the one integer check at every module's boundary",
    "numerics._Record": "the value base of the records other modules define",
    "numerics._Kronecker": "the packing the triangle engine runs poly mode on",
    "stirlingperm._labels_partition_range": "the partition check of a word tuple, in cli and verify",
    "stirlingperm._enumeration_params": "the word model's argument check, shared by the marked forests",
    "stirlingperm._factor": "the one pass that checks a word and builds its tree",
    "stirlingperm._insertions": "the insertion walk the marked forests share",
}


@pytest.mark.parametrize("name", MODULES, ids=[name or "eulerward" for name in MODULES])
def test_every_exported_name_resolves(name):
    mod = importlib.import_module("eulerward" + name)
    for attr in mod.__all__:
        getattr(mod, attr)


def test_the_tracer_finds_every_callable_it_wraps(monkeypatch):
    # the tracer imports its sibling modules by bare name; write no bytecode into bench/
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    for bench_module in ("tracer", "workloads"):
        monkeypatch.delitem(sys.modules, bench_module, raising=False)
    tracer = importlib.import_module("tracer")
    found = {qual for _, qual, _ in tracer._public_callables()}
    assert "trees.perm_to_tree" in found and "verify.run_suite" in found


def _unused_imports(path):
    """Names a module imports and never reads; names in its __all__ count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted("%s:%d %s" % (path.relative_to(ROOT), line, name) for name, line in imported.items() if name not in read)


def test_every_import_is_used():
    paths = sorted((ROOT / "src" / "eulerward").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(paths) > 20
    assert [found for path in paths for found in _unused_imports(path)] == []


def _private_imports(path):
    """'module._name' for each private name a package module imports from a sibling."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return {
        "%s.%s" % (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name.startswith("_")
    }


def test_every_private_import_is_named():
    found = set().union(*map(_private_imports, (ROOT / "src" / "eulerward").glob("*.py")))
    assert sorted(found - set(CROSSING)) == [], "a private name crosses modules unnamed"
    assert sorted(set(CROSSING) - found) == [], "a named private name crosses no module any more"
