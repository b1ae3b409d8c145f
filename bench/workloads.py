"""The benchmark's workloads: seeded operation lists, how to run each
operation against the library, and how to check what it returned.

An operation is an ``Op(kind, args)`` of plain data, so ``run.py`` can build
the same list as the worker without importing ``eulerward``.

verify-suites
    The six verify suites at ``default`` size through
    ``cli.main(["verify", "--suite", name])``; the seed shuffles their order.
    The ROADMAP's headline end-to-end run: enumeration, marked forests and
    small series dominate it.
tables-int
    Integer triangles, nu 1-3, mixed s and t.  Half the operations are
    ``cli.main(["table", ...])`` in csv or json, where rendering big ints
    dominates; the other half build a table through the library and pipe
    rows through ``euler_to_ward``, ``ward_to_euler`` and
    ``general_inverse_transform``.  Enumeration, trees, series and PolyST do
    no work here, so it is the control for changes to those layers.
symbolic
    ``--mode poly`` tables (the table builders in poly mode), ``t_nu_series``
    and the two egf coefficient routes: PolyST and TruncSeries dominate.

Sizes are chosen for run length on a shared 2-core machine, so that a pass
takes about 3 s and a 30 s run holds several: CLI tables stop at nmax 220
(a nu=3 json table of 400 rows takes about 1 s to render), library tables
at 320, poly tables at 30 and ``t_nu_series`` at K = 22 (these grow like
n^4 and K^5).  No size comes near the 4300-digit int-to-str limit of
Python 3.11 (see NOTES.md).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import namedtuple
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import chain
from pathlib import Path

import oracle

Op = namedtuple("Op", "kind args")

WORKLOADS = ("verify-suites", "tables-int", "symbolic")

PINNED_VERIFY = json.loads((Path(__file__).parent / "verify_params.json").read_text())

TABLE_KINDS = ("eulerian", "ward")
CLI_TABLE_SIZES = (50, 62, 77, 94, 117, 145, 178, 220)
LIB_TABLE_SIZES = (50, 72, 105, 152, 221, 320)
RATIOS = ("1", "-1", "2/3")
LIBRARY_OPS = ("euler-to-ward", "ward-to-euler", "inverse-transform")
POLY_SIZES = (15, 19, 24, 30)
T_NU_CASES = ((2, 12), (3, 13), (4, 15), (2, 17), (3, 19), (4, 22))
EGF_ORDERS = (12, 13, 15, 16, 18, 20, 22, 24)
EGF_X0 = {
    "egf-eulerian": ("1/4", "1/3", "1/2", "2/3", "3/4"),
    "egf-ward": ("1/2", "2/3", "1", "3/2", "2"),
}


def _mixed_st(rng):
    """s in 0..3 and t in -1..3, skipping s + t <= 0 (rows collapse to zero)."""
    while True:
        s, t = rng.randint(0, 3), rng.randint(-1, 3)
        if s + t >= 1:
            return s, t


def build(workload, seed):
    """The operation list of one pass; the same seed gives the same list.

    What sets an operation's cost (kind, nu, size, format, ratio) sits on a
    fixed grid; the seed draws s, t, x0 and evaluation points and shuffles
    the order.
    """
    rng = random.Random(seed)
    ops = []
    if workload == "verify-suites":
        ops = [Op("verify", [name]) for name in PINNED_VERIFY]
    elif workload == "tables-int":
        for nu in (1, 2, 3):
            for f, fmt in enumerate(("csv", "json")):
                for i, nmax in enumerate(CLI_TABLE_SIZES):
                    kind = TABLE_KINDS[(i + f) % 2]
                    ops.append(Op("table", [kind, nu, *_mixed_st(rng), nmax, fmt]))
            for kind in ("euler-to-ward", "ward-to-euler"):
                ops += [Op(kind, [nu, *_mixed_st(rng), nmax]) for nmax in LIB_TABLE_SIZES]
            for i, nmax in enumerate(LIB_TABLE_SIZES):
                r = RATIOS[(i + nu) % len(RATIOS)]
                ops.append(Op("inverse-transform", [nu, *_mixed_st(rng), nmax, r]))
    elif workload == "symbolic":
        for k, kind in enumerate(TABLE_KINDS):
            for i, nmax in enumerate(POLY_SIZES):
                point = [rng.randint(-3, 3), rng.randint(-3, 3)]
                ops.append(Op("poly-table", [kind, 1 + (i + k) % 3, nmax, *point]))
        ops += [Op("t-nu-series", [nu, K]) for nu, K in T_NU_CASES]
        for kind, x0s in EGF_X0.items():
            for i, N in enumerate(EGF_ORDERS):
                s, t = rng.randint(1, 3), rng.randint(0, 2)
                ops.append(Op(kind, [1 + i % 3, s, t, rng.choice(x0s), N]))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(ops)
    return ops


def expected_outputs(ops):
    """Oracle digests of the integer-table outputs, keyed by operation index.

    Computing them costs about as much as the calls they check, so
    ``run.py`` computes them once per run and hands them to every pass.
    """
    out = {}
    for i, op in enumerate(ops):
        if op.kind == "table":
            try:
                out[str(i)] = oracle.text_digest(oracle.table_text(*op.args))
            except ValueError:  # an entry past the int-to-str limit: see NOTES.md
                out[str(i)] = None
        elif op.kind in LIBRARY_OPS:
            out[str(i)] = oracle.values_digest(_library_rows(op.kind, op.args))
    return out


# ------------------------------------------------------------------ sink


class Sink:
    """Write-only text stream that counts and hashes what it is given.

    It keeps at most ``KEEP`` characters, enough for a verify report, so a
    40 MB table never sits in a buffer and the benchmark's own memory stays
    out of the worker's peak RSS.  Output is ASCII, so characters are bytes.
    """

    KEEP = 1 << 16
    SLICE = 1 << 20

    def __init__(self):
        self.size = 0
        self._hash = hashlib.sha256()
        self._head = []

    def write(self, text):
        for i in range(0, len(text), self.SLICE):
            self._hash.update(text[i : i + self.SLICE].encode())
        if self.size < self.KEEP:
            self._head.append(text[: self.KEEP - self.size])
        self.size += len(text)
        return len(text)

    def flush(self):
        pass

    def digest(self):
        return [self.size, self._hash.hexdigest()]

    def text(self):
        """Everything written, or None once more than KEEP was written."""
        return "".join(self._head) if self.size <= self.KEEP else None


def _cli(ew, argv):
    """Run the CLI with stdout in a Sink; returns (exit code, sink)."""
    out, err = Sink(), Sink()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ew.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out


# --------------------------------------------- run and check, by op kind
#
# run(ew, *args) is the timed call; check(result, args, expected) runs
# afterwards, outside the timed region, and returns True when the output
# matches the oracle.


def run_verify(ew, suite):
    return _cli(ew, ["verify", "--suite", suite])


def _covers(got, pinned):
    """True when a check's params are no smaller than the pinned ones."""
    if isinstance(pinned, bool):
        return got is pinned
    if isinstance(pinned, int):
        return isinstance(got, int) and got >= pinned
    if isinstance(pinned, list):
        return isinstance(got, list) and all(p in got for p in pinned)
    if isinstance(pinned, dict):
        return isinstance(got, dict) and all(
            k in got and _covers(got[k], v) for k, v in pinned.items()
        )
    return got == pinned


def check_verify(result, args, expected):
    code, sink = result
    text = sink.text()
    if code != 0 or text is None:
        return False
    report = json.loads(text)
    checks = {c["id"]: c for c in report["checks"]}
    return (
        report["suite"] == args[0]
        and report["size_level"] == "default"
        and report["passed"] is True
        and all(c["passed"] is True for c in report["checks"])
        and all(
            cid in checks and _covers(checks[cid]["params"], params)
            for cid, params in PINNED_VERIFY[args[0]].items()
        )
    )


def run_table(ew, kind, nu, s, t, nmax, fmt):
    argv = ["table", kind, "--nu", str(nu), "--s=%d" % s, "--t=%d" % t]
    return _cli(ew, argv + ["--nmax", str(nmax), "--format", fmt])


def check_table(result, args, expected):
    code, sink = result
    return code == 0 and sink.digest() == expected


def run_euler_to_ward(ew, nu, s, t, nmax):
    """Order-(nu+1) Eulerian table, its middle row moved to the Ward side.

    The middle row, not the last, because the transform costs n^2 binomials
    of big ints and would otherwise swamp the table build.
    """
    tri = ew.eulerian_table(ew.Params(nu + 1, s, t), nmax)
    m = nmax // 2
    return tri, ew.euler_to_ward(list(tri.row(m)), m)


def run_ward_to_euler(ew, nu, s, t, nmax):
    tri = ew.ward_table(ew.Params(nu, s, t), nmax)
    m = nmax // 2
    return tri, ew.ward_to_euler(list(tri.row(m)), m)


def run_inverse_transform(ew, nu, s, t, nmax, r):
    """Ratio-r transform of row nmax // 4 there and back.

    r = 1 maps an order-(nu+1) Eulerian row onto the order-nu Ward row and
    r = -1 maps the Ward row back; other ratios only round-trip.  The row is
    a quarter of the table because the transform runs over Fractions.
    """
    if r == "-1":
        tri = ew.ward_table(ew.Params(nu, s, t), nmax)
    else:
        tri = ew.eulerian_table(ew.Params(nu + 1, s, t), nmax)
    m = nmax // 4
    fwd = ew.general_inverse_transform(list(tri.row(m)), m, Fraction(r), "forward")
    back = ew.general_inverse_transform(fwd, m, Fraction(r), "backward")
    # the oracle knows the forward image only for r = +-1
    return (tri, fwd, back) if r in ("1", "-1") else (tri, back)


def _last(rows):
    for row in rows:
        pass
    return row


def _library_rows(kind, args):
    """The oracle's rows for what a library operation returns, in order:
    the whole table, then each transformed row."""
    nu, s, t, nmax = args[:4]
    euler = lambda n: oracle.checked_eulerian_rows(nu + 1, s, t, n)
    ward = lambda n: oracle.ward_rows(nu, s, t, n)
    if kind == "euler-to-ward":
        return chain(euler(nmax), [_last(ward(nmax // 2))])
    if kind == "ward-to-euler":
        return chain(ward(nmax), [_last(euler(nmax // 2))])
    m, r = nmax // 4, args[4]
    if r == "-1":
        return chain(ward(nmax), [_last(euler(m)), _last(ward(m))])
    table = list(euler(nmax))
    image = [_last(ward(m))] if r == "1" else []
    return chain(table, image, [table[m]])


def check_library(result, args, expected):
    tri, *rows = result
    return oracle.values_digest(chain(tri.rows, rows)) == expected


def run_poly_table(ew, kind, nu, nmax, s0, t0):
    build = ew.eulerian_table if kind == "eulerian" else ew.ward_table
    return build(ew.Params(nu, 0, 0), nmax, "poly")


def check_poly_table(tri, args, expected):
    kind, nu, nmax, s0, t0 = args
    values = [[v.evaluate(s0, t0) for v in row] for row in tri.rows]
    return len(values) == nmax + 1 and all(
        got == want for got, want in zip(values, oracle.rows_of(kind, nu, s0, t0, nmax))
    )


def run_t_nu_series(ew, nu, K):
    return ew.t_nu_series(nu, K)


def check_t_nu_series(series, args, expected):
    nu, K = args
    return len(series.coeffs) == K + 1 and oracle.is_t_nu(nu, series.coeffs)


def run_egf_eulerian(ew, nu, s, t, x0, N):
    return ew.egf_eulerian_coeffs(nu, s, t, Fraction(x0), N)


def run_egf_ward(ew, nu, s, t, x0, N):
    return ew.egf_ward_coeffs(nu, s, t, Fraction(x0), N)


def _check_egf(rows):
    def check(values, args, expected):
        nu, s, t, x0, N = args
        want = [oracle.row_value(row, Fraction(x0)) for row in rows(nu, s, t, N)]
        return list(values) == want

    return check


RUNNERS = {
    "verify": (run_verify, check_verify),
    "table": (run_table, check_table),
    "euler-to-ward": (run_euler_to_ward, check_library),
    "ward-to-euler": (run_ward_to_euler, check_library),
    "inverse-transform": (run_inverse_transform, check_library),
    "poly-table": (run_poly_table, check_poly_table),
    "t-nu-series": (run_t_nu_series, check_t_nu_series),
    "egf-eulerian": (run_egf_eulerian, _check_egf(oracle.checked_eulerian_rows)),
    "egf-ward": (run_egf_ward, _check_egf(oracle.ward_rows)),
}
