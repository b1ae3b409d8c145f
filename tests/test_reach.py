"""Every function in ``src/`` has a caller outside the tests.

The command line and the library calls the benchmark makes run under
``sys.setprofile``; every function and method that ``eulerward`` defines
and that none of them ran must be named in ``UNREACHED`` with its reason.
So a function only the tests call fails here until it moves into its tests
or gains a caller, and an entry whose function is gone or now runs fails
too, so the list stays exact.
"""

import importlib
import io
import sys
import types
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from eulerward import cli
from eulerward.eulerian import Params, eulerian_table
from eulerward.series import egf_eulerian_coeffs, egf_ward_coeffs, t_nu_series
from eulerward.ward import euler_to_ward, general_inverse_transform, ward_table, ward_to_euler

MODULES = ["numerics", "eulerian", "ward", "stirlingperm", "trees", "series", "verify", "cli"]

# Dunders are exempt: Python calls them for operators, equality, hashing and
# printing, so they belong to a value's protocol whether or not a command
# needs them.
UNREACHED = {
    "numerics._Record._values": "only the dunders __eq__ and __hash__ call it",
    "trees.TreeNode._preorder": "only the dunder __eq__ calls it",
    "series.TruncSeries.zero": "only x(0) and a power whose lowest term falls past the order call it",
    "verify._shown": "it prints a failure witness, and a passing run has none",
    "series.TruncSeries.inverse": "a test oracle that bench/tracer.py wraps by name (CLASS_METHODS)",
    "series.TruncSeries.log": "a test oracle that bench/tracer.py wraps by name (CLASS_METHODS)",
    "series.TruncSeries.reversion": "a test oracle that bench/tracer.py wraps by name (CLASS_METHODS)",
}


def traffic():
    """What the command line and the benchmark ask of the package."""
    tables = [
        ["table", kind, "--nu", "2", "--s", "2", "--t", "1", "--nmax", "6", "--mode", mode, "--format", fmt]
        for kind in ("eulerian", "ward")
        for mode in ("int", "poly")
        for fmt in ("csv", "json")
    ]
    enumerations = [
        ["enumerate", "--nu", "2", "--n", "2", "--format", "jsonl"],
        ["enumerate", "--nu", "2", "--n", "2", "--format", "json"],
        ["enumerate", "--nu", "1", "--tvec", "1,0", "--n", "2"],
    ]
    bijection = ["bijection", "2 3 3 3 2 2 0 0", "555111", "0444", "", "--nu", "3"]
    with redirect_stdout(io.StringIO()):
        for argv in [["verify", "--suite", "all"], *tables, *enumerations, bijection]:
            assert cli.main(argv) == 0, argv
    p = Params(2, 1, 1)
    euler, ward = eulerian_table(Params(3, 1, 1), 8), ward_table(p, 8)
    euler_to_ward(list(euler.row(8)), 8)
    ward_to_euler(list(ward.row(8)), 8)
    for direction in ("forward", "backward"):
        general_inverse_transform(list(euler.row(4)), 4, Fraction(2, 3), direction)
    for v in eulerian_table(p, 4, "poly").row(4):
        v.evaluate(2, 1)
    t_nu_series(2, 6)
    egf_eulerian_coeffs(2, 1, 1, Fraction(1, 3), 5)
    egf_ward_coeffs(2, 1, 1, Fraction(1, 3), 5)


def _function(obj):
    """The plain function behind a def, a method, a property or a cache."""
    obj = getattr(obj, "fget", obj)  # property
    obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
    obj = getattr(obj, "__wrapped__", obj)  # lru_cache
    return obj if isinstance(obj, types.FunctionType) else None


def defined(dunders=False):
    """{"module.qualname": function} for every function and method the
    package's modules define, dunders left out unless asked for."""
    found = {}
    for name in MODULES:
        mod = importlib.import_module("eulerward." + name)
        members = list(vars(mod).values())
        for cls in members:
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                members += vars(cls).values()
        for fn in filter(None, map(_function, members)):
            if fn.__module__ == mod.__name__ and (dunders or not fn.__name__[:2] == fn.__name__[-2:] == "__"):
                found["%s.%s" % (name, fn.__qualname__)] = fn
    return found


def codes_run_by(run):
    """The code objects that run() enters, from cold caches."""
    for name in MODULES:
        for obj in vars(importlib.import_module("eulerward." + name)).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return codes


@pytest.fixture(scope="module")
def reached():
    """The code objects that ran under the traffic, from cold caches."""
    parser, cli._parser = cli._parser, None  # so the run builds it
    try:
        return codes_run_by(traffic)
    finally:
        cli._parser = parser


def unreached(codes):
    return sorted(name for name, fn in defined().items() if fn.__code__ not in codes)


def test_every_function_runs_or_has_a_reason(reached):
    assert unreached(reached) == sorted(UNREACHED)


def test_a_function_no_traffic_calls_is_listed(reached, monkeypatch):
    def planted():
        pass

    planted.__module__, planted.__qualname__ = "eulerward.trees", "planted"
    monkeypatch.setattr(sys.modules["eulerward.trees"], "planted", planted, raising=False)
    assert unreached(reached) == sorted([*UNREACHED, "trees.planted"])


@pytest.mark.parametrize("name", sorted(UNREACHED))
def test_every_listed_function_exists(name):
    module, *path = name.split(".")
    obj = importlib.import_module("eulerward." + module)
    for attr in path:
        obj = getattr(obj, attr)
    assert _function(obj) is not None
