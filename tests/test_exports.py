"""Every exported name resolves, both for the package's users and for the
benchmark's tracer, which wraps each module's ``__all__`` plus the ``PolyST``
and ``TruncSeries`` methods it names: a stale entry would crash a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = ["", ".numerics", ".eulerian", ".ward", ".stirlingperm", ".trees", ".series", ".verify", ".cli"]


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
