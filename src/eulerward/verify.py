"""Cross-verification suites with machine-readable reports.

Every suite pits at least two independent routes to the same numbers against
each other: recurrence vs exhaustive enumeration, recurrence vs closed form,
triangle vs binomial transform of the companion triangle, recurrence vs
marked-forest counting, table rows vs generating function coefficients.  All
comparisons are exact; there are no tolerances anywhere.

Each check is a generator over the grid it is handed: it yields its cases,
(instance, (name_a, a), (name_b, b)), in ascending order.  One harness,
``run_check(id)``, hands a check its declared grid and feeds its cases to
``_first_mismatch``, which stops at the first (smallest) case whose two
routes disagree and reports the instance plus both routes' values as the
witness.  Anything that raises inside a check, its set-up lines included,
fails it the same way, with the case's number and the exception as the
witness, so the report is still written.  An identity enters as one
more case: its ``*_sides`` function returns both sides, compared like any two
routes.  ``run_suite(name)`` returns the suite's report, the JSON object
``verify --suite <name>`` prints, and ``run_all`` collects the six.  Reports
carry no timestamps and all set-like data is sorted, so a report is
byte-for-byte reproducible.

``_CHECKS`` at the foot of this module is the one place a check is
declared: its suite, its case generator, its grid (every value the
generator reads, which the report prints as its ``params``) and its case
families, each with its routes and the paper claim it covers.  To add a
check, write a ``check_*(grid)`` generator that reads every value from the
grid it is handed, and add the entry; the tests audit the declared routes,
shrink each grid dimension and pin the case count.  Both report shapes
carry the constant key ``"size_level": "default"``, which the pinned report
digests and the benchmark's report check read.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .eulerian import (
    Params,
    classic_eulerian,
    classic_second_order,
    closed_form_order1,
    closed_form_order2,
    eulerian_table,
    row_sum_product,
)
from .numerics import _Record, assoc_stirling_subset
from .series import (
    TruncSeries,
    binomial_unit_sums_sides,
    egf_eulerian_coeffs,
    egf_order1_direct,
    egf_transform_sides,
    egf_ward_coeffs,
    eulerian_ratio_expansion_sides,
    second_order_ratio_expansion_sides,
    t_nu_derivative_sides,
    t_nu_series,
    tree_power_sides,
)
from .stirlingperm import (
    _labels_partition_range,
    ascent_histograms_up_to,
    ascent_positions,
    count_sequences,
    seq_ascent_count,
    validate_word,
    word_from_text,
)
from .trees import (
    distinguished_set,
    forest_distinguished_set,
    leftmost_internal_set,
    perm_to_tree,
    seq_to_forest,
    tree_to_perm,
    validate_tree,
    ward_marked_rows_up_to,
)
from .ward import (
    euler_to_ward,
    general_inverse_transform,
    riordan_orthogonality_sides,
    smiley_identities_sides,
    ward_table,
    ward_to_euler,
)

__all__ = [
    "CheckResult",
    "SUITE_NAMES",
    "run_check",
    "run_suite",
    "run_all",
]


class CheckResult(_Record):
    _fields = ("check_id", "params", "passed", "witness", "cases")

    def __init__(self, check_id: str, params: dict, passed: bool, witness: dict | None = None, cases: int = 0):
        # cases counts the cases compared; the report leaves it out
        super().__init__(check_id, params, passed, witness, cases)

    def to_json(self) -> dict:
        return {"id": self.check_id, "params": self.params, "passed": self.passed, "witness": self.witness}


def _shown(value):
    """Witness values as decimal strings; keeps JSON safe for huge ints."""
    if isinstance(value, (list, tuple)):
        return [_shown(v) for v in value]
    return str(value)


def _first_mismatch(check_id: str, params: dict, cases) -> CheckResult:
    """Run the cases in order and stop at the first whose routes disagree.

    The witness is the case's instance dict plus both routes' values under
    their names.  ``cases`` is consumed lazily, so nothing past the first
    mismatch is computed.  The result counts the cases compared.  A route
    that raises fails the check as well: the witness then holds the
    case's number, counted from 1, and ``"raised": "<type>: <message>"``.
    """
    params = dict(params)  # the result's own copy, so a caller's edit cannot reach a grid
    count = 0  # cases that passed; the current one is count + 1
    try:
        for instance, (name_a, a), (name_b, b) in cases:
            if a != b:
                witness = {**instance, name_a: _shown(a), name_b: _shown(b)}
                return CheckResult(check_id, params, False, witness, count + 1)
            count += 1
    except Exception as exc:  # the report must still be written, with this check failed
        raised = "%s: %s" % (type(exc).__name__, exc)
        return CheckResult(check_id, params, False, {"case": count + 1, "raised": raised}, count + 1)
    return CheckResult(check_id, params, True, cases=count)


def _box(params: dict):
    """Params over 1 <= nu <= nu_max, 1 <= s <= s_max, 0 <= t <= t_max, nu outermost."""
    for nu in range(1, params["nu_max"] + 1):
        for s in range(1, params["s_max"] + 1):
            for t in range(params["t_max"] + 1):
                yield Params(nu, s, t)


def _sides(instance: dict, sides):
    """The case of an identity whose ``*_sides`` function returned (lhs, rhs)."""
    lhs, rhs = sides
    return instance, ("lhs", lhs), ("rhs", rhs)


# ------------------------------------------------------- golden examples


# hand-checked worked examples: word, nu, ascents, E set, D set
_GOLDEN_WORDS = (
    ("333222111", 3, (), (2, 3), (1, 2, 3)),
    ("00112221", 3, (2, 4), (), ()),
    ("11222100", 3, (2,), (1,), (1,)),
    ("133322211", 3, (1,), (3,), (1, 3)),
)


def check_golden_examples(grid):
    ok = ("expected", True)
    # the worked words, then the forest example as the last case
    for text, nu, asc, eset, dset in _GOLDEN_WORDS[: grid["cases"] - 1]:
        w = word_from_text(text)
        # each word alone must use exactly the labels 1..n
        valid = validate_word(w, nu) and _labels_partition_range((w,))
        yield {"word": text, "failed": "validate"}, ("valid", valid), ok
        yield {"word": text, "failed": "ascents"}, ("got", sorted(ascent_positions(w))), ("expected", list(asc))
        tree = perm_to_tree(w, nu)
        yield {"word": text, "failed": "tree-structure"}, ("valid", validate_tree(tree, nu)), ok
        yield {"word": text, "failed": "roundtrip"}, ("got", list(tree_to_perm(tree))), ("expected", list(w))
        got = sorted(leftmost_internal_set(tree))
        yield {"word": text, "failed": "leftmost-set"}, ("got", got), ("expected", list(eset))
        got = sorted(distinguished_set(tree))
        yield {"word": text, "failed": "distinguished-set"}, ("got", got), ("expected", list(dset))
    # the four-entry sequence example: n, ascents, D sets, tree validity
    seq = tuple(map(word_from_text, ("23332200", "555111", "0444", "")))
    forest = seq_to_forest(seq, 3)
    got = [
        len(set().union(*seq) - {0}),
        seq_ascent_count(seq),
        sorted(forest_distinguished_set(forest)),
        [sorted(distinguished_set(tr)) for tr in forest],
        all(validate_tree(tr, 3) for tr in forest),
    ]
    expected = [5, 2, [1, 2, 5], [[2], [1, 5], [], []], True]
    yield {"word": "forest", "failed": "forest-statistics"}, ("got", got), ("expected", expected)


# ------------------------------------------------- recurrence vs counting


def check_recurrence_vs_enumeration(grid):
    for p in _box(grid):
        n_top = grid["n_max"]
        while n_top > 0 and count_sequences(p, n_top) > grid["object_cap"]:
            n_top -= 1
        hists = ascent_histograms_up_to(p, n_top)
        table = eulerian_table(p, n_top)
        # orders 0 and 1 tally from order 0 too and drop the spare rows, which n_top >= 2 never does
        for nmax in (0, 1):
            rows = [list(table.row(n)) for n in range(nmax + 1)]
            instance = {"nu": p.nu, "s": p.s, "t": p.t, "nmax": nmax}
            yield instance, ("recurrence", rows), ("enumeration", ascent_histograms_up_to(p, nmax))
        for n in range(n_top + 1):
            yield (
                {"nu": p.nu, "s": p.s, "t": p.t, "n": n},
                ("recurrence", list(table.row(n))),
                ("enumeration", hists[n]),
            )
    # histogram independence from the composition of t
    size = grid["composition_n_max"]
    for nu in grid["composition_nu_values"]:
        for base, comp in [((2, 0), (1, 1)), ((0, 2), (1, 1))]:
            yield (
                {"nu": nu, "s": 2, "t": 2, "failed": "composition-independence", "tvec": list(comp)},
                ("histograms", ascent_histograms_up_to(Params(nu, 2, 2, comp), size)),
                ("base_histograms", ascent_histograms_up_to(Params(nu, 2, 2, base), size)),
            )


def check_row_sums(grid):
    for p in _box(grid):
        table = eulerian_table(p, grid["n_max"])
        for n in range(grid["n_max"] + 1):
            yield (
                {"nu": p.nu, "s": p.s, "t": p.t, "n": n},
                ("sum", sum(table.row(n))),
                ("product", row_sum_product(p, n)),
            )


# ------------------------------------------------------------ closed forms


def check_closed_forms(grid):
    closed_forms = {1: closed_form_order1, 2: closed_form_order2}
    for s, t in grid["st_pairs"]:
        forms = [
            (order, closed_forms[order], eulerian_table(Params(order, s, t), grid["n_max"]))
            for order in grid["orders"]
        ]
        for n in range(grid["n_max"] + 1):
            rows = [(order, closed_form(n, s, t), table.row(n)) for order, closed_form, table in forms]
            for k in range(n + 1):
                for order, closed, recurrence in rows:
                    yield (
                        {"order": order, "s": s, "t": t, "n": n, "k": k},
                        ("closed", closed[k]),
                        ("recurrence", recurrence[k]),
                    )


def check_special_cases(grid):
    nmax, smax = grid["shift_n_max"], grid["s_minus_s_n_max"]
    # the classic triangles are the (1,0) and (0,1) instances
    classics = [
        (failed, classic, indexing, eulerian_table(p, nmax))
        for failed, classic, indexing, p in (
            ("classic-standard", classic_eulerian, "standard", Params(1, 1, 0)),
            ("classic-traditional", classic_eulerian, "traditional", Params(1, 0, 1)),
            ("second-order-standard", classic_second_order, "standard", Params(2, 1, 0)),
            ("second-order-traditional", classic_second_order, "traditional", Params(2, 0, 1)),
        )
    ]
    for n in range(nmax + 1):
        for k in range(n + 1):
            for failed, classic, indexing, table in classics:
                yield (
                    {"failed": failed, "n": n, "k": k},
                    ("classic", classic(n, k, indexing)),
                    ("recurrence", table.entry(n, k)),
                )
    # the shift between the two indexings, on its domain n >= 1, 1 <= k <= n
    shifts = (("order1-shift", classic_eulerian), ("order2-shift", classic_second_order))
    for n in range(1, nmax + 1):
        for k in range(1, n + 1):
            for failed, classic in shifts:
                yield (
                    {"failed": failed, "n": n, "k": k},
                    ("traditional", classic(n, k, "traditional")),
                    ("standard", classic(n, k - 1, "standard")),
                )
    # the degenerate t = -s triangles: the closed forms at t = -s against the recurrence
    closed_forms = {1: closed_form_order1, 2: closed_form_order2}
    for nu in grid["s_minus_s_nu_values"]:
        for s in grid["s_minus_s_s_values"]:
            table = eulerian_table(Params(nu, s, -s), smax)
            for n in range(smax + 1):
                closed = closed_forms[nu](n, s, -s)
                for k in range(n + 1):
                    yield (
                        {"failed": "s-minus-s", "nu": nu, "s": s, "n": n, "k": k},
                        ("closed", closed[k]),
                        ("recurrence", table.entry(n, k)),
                    )


# ----------------------------------------------------------- inverse pairs


def check_inverse_pairs(grid):
    nmax = grid["n_max"]
    for nu in range(1, grid["nu_max"] + 1):
        for s, t in ((s, t) for s in grid["s_values"] for t in grid["t_values"]):
            e = eulerian_table(Params(nu + 1, s, t), nmax)
            w = ward_table(Params(nu, s, t), nmax)
            for n in range(nmax + 1):
                at = {"nu": nu, "s": s, "t": t, "n": n}
                yield (
                    {"failed": "euler-to-ward", **at},
                    ("transform", euler_to_ward(list(e.row(n)), n)),
                    ("ward", list(w.row(n))),
                )
                yield (
                    {"failed": "ward-to-euler", **at},
                    ("transform", ward_to_euler(list(w.row(n)), n)),
                    ("eulerian", list(e.row(n))),
                )
    for n in range(nmax + 1):
        yield _sides({"failed": "orthogonality", "n": n}, riordan_orthogonality_sides(n))
    # ratio roundtrips over deterministic pseudorandom integer rows
    rng = random.Random(grid["roundtrip_seed"])
    for r in map(Fraction, grid["ratios"]):
        for n in range(grid["roundtrip_n_max"] + 1):
            row = [rng.randrange(-50, 50) for _ in range(n + 1)]
            fwd = general_inverse_transform(row, n, r, "forward")
            yield (
                {"failed": "ratio-roundtrip", "r": str(r), "n": n},
                ("roundtrip", general_inverse_transform(fwd, n, r, "backward")),
                ("row", row),
            )


def check_classic_ward(grid):
    top, smiley_n = grid["n_plus_k_max"], grid["smiley_n_max"]
    w = ward_table(Params(1, 0, 1), top)
    for n in range(top + 1):
        for k in range(min(n, top - n) + 1):
            yield (
                {"n": n, "k": k},
                ("ward", w.entry(n, k)),
                ("assoc_stirling", assoc_stirling_subset(n + k, k)),
            )
    for n in range(1, smiley_n + 1):
        yield _sides({"failed": "smiley-identities", "n": n}, smiley_identities_sides(n))


# ----------------------------------------------------- ward interpretation


def _compositions_for(s: int, t: int) -> list[tuple[int, ...]]:
    """A few distinct compositions of t into s parts, deterministic order."""
    cands = [(t,) + (0,) * (s - 1), (0,) * (s - 1) + (t,)]
    if s >= 2 and t >= 2:
        cands.append((1, t - 1) + (0,) * (s - 2))
    return list(dict.fromkeys(cands))


def check_ward_interpretation(grid):
    nmax = grid["n_max"]
    for nu in grid["nu_values"]:
        for s in grid["s_values"]:
            for t in range(grid["t_max"] + 1):
                table = ward_table(Params(nu, s, t), nmax)
                for comp in _compositions_for(s, t):
                    marked = ward_marked_rows_up_to(Params(nu, s, t, comp), nmax)
                    for n in range(nmax + 1):
                        yield (
                            {"nu": nu, "s": s, "t": t, "tvec": list(comp), "n": n},
                            ("marked", marked[n]),
                            ("recurrence", list(table.row(n))),
                        )


# ----------------------------------------------------------------- series


def _cayley(n: int) -> Fraction:
    """n^(n-1) / n!: Cayley's count of rooted labelled trees on n nodes, over n!."""
    return Fraction(n ** (n - 1), math.factorial(n))


def check_series_tree_function(grid):
    K = grid["order"]
    x = TruncSeries.x(K)
    for nu in range(1, grid["nu_max"] + 1):
        T = t_nu_series(nu, K)
        q = [Fraction(0)] * (K + 1)
        for k in range(1, nu):
            q[k] = Fraction(math.comb(nu - 1, k) * (-1) ** k, k)
        f = x * TruncSeries(q).exp()
        at = {"failed": "reversion-contract", "nu": nu}
        yield at, ("f_of_T", f.compose(T).coeffs), ("x", x.coeffs)
        yield at, ("T_of_f", T.compose(f).coeffs), ("x", x.coeffs)
        yield _sides({"failed": "derivative-identity", "nu": nu}, t_nu_derivative_sides(nu, K))
    T2 = t_nu_series(2, K)
    for n in range(1, K + 1):
        yield (
            {"failed": "tree-coefficients", "n": n},
            ("series", T2.coefficient(n)),
            ("closed", _cayley(n)),
        )
    for s in grid["tree_power_s_values"]:
        yield _sides({"failed": "tree-powers", "s": s}, tree_power_sides(s, K))


def _poly_value(row, x0: Fraction) -> Fraction:
    """sum_k row[k] x0^k by Horner's rule in the integers, one Fraction per row."""
    a, b = x0.numerator, x0.denominator
    num, den = 0, 1  # den = b^(number of entries read)
    for c in reversed(row):
        num = num * a + c * den
        den *= b
    return Fraction(num * b, den)


def check_egf(grid):
    nmax = grid["n_max"]
    for nu in grid["nu_eulerian"]:
        for s, t in grid["st_pairs"]:
            table = eulerian_table(Params(nu, s, t), nmax)
            for x0 in map(Fraction, grid["x0_eulerian"]):
                at = {"nu": nu, "s": s, "t": t, "x0": str(x0)}
                want = [_poly_value(table.row(n), x0) for n in range(nmax + 1)]
                yield (
                    {"failed": "eulerian", **at},
                    ("egf", egf_eulerian_coeffs(nu, s, t, x0, nmax)),
                    ("table", want),
                )
                if nu == 1:
                    yield (
                        {"failed": "order1-direct", **at},
                        ("direct", egf_order1_direct(s, t, x0, nmax)),
                        ("table", want),
                    )
    for nu in grid["nu_ward"]:
        for s, t in grid["st_pairs"]:
            table = ward_table(Params(nu, s, t), nmax)
            for x0 in map(Fraction, grid["x0_ward"]):
                at = {"nu": nu, "s": s, "t": t, "x0": str(x0)}
                want = [_poly_value(table.row(n), x0) for n in range(nmax + 1)]
                # the transform's left side is egf_ward_coeffs itself
                sides = egf_transform_sides(nu, s, t, x0, nmax)
                yield {"failed": "ward", **at}, ("egf", sides[0]), ("table", want)
                yield _sides({"failed": "transform", **at}, sides)


def check_series_identities(grid):
    nmax, K = grid["n_max"], grid["order"]
    for s, t in grid["order1_st_pairs"]:
        for n in range(nmax + 1):
            yield _sides(
                {"failed": "order1-ratio", "n": n, "s": s, "t": t},
                eulerian_ratio_expansion_sides(n, s, t, K),
            )
    for s, t in grid["order2_st_pairs"]:
        for n in range(nmax + 1):
            yield _sides(
                {"failed": "order2-ratio", "n": n, "s": s, "t": t},
                second_order_ratio_expansion_sides(n, s, t, K),
            )
    for n in range(1, grid["unit_sums_n_max"] + 1):
        yield _sides({"failed": "unit-sums", "n": n}, binomial_unit_sums_sides(n))


# ------------------------------------------------------------- the table


class _Check(_Record):
    _fields = ("suite", "cases", "grid", "families")


_SIDES = "one function returns both sides"
_EULERIAN = ("recurrence", eulerian_table)

# Every check, declared once, in report order: its suite, its case generator,
# its grid (every value the generator reads, handed to it by run_check and
# printed as the report's params) and its case families.  A family is (failed tag or None, paper claim, a, b): a
# cross-check names its two routes a and b, each (name, callable); an
# identity gives in a the reason it is one, and in b its ``*_sides``
# function, or None where there is no such function to run.
_CHECKS = {
    "golden-examples": _Check("recurrence-vs-enumeration", check_golden_examples, {"cases": 5}, [
        (tag, "worked-examples", "set against values worked out by hand", None)
        for tag in ("validate", "ascents", "tree-structure", "roundtrip", "leftmost-set",
                    "distinguished-set", "forest-statistics")
    ]),
    "recurrence-vs-enumeration": _Check("recurrence-vs-enumeration", check_recurrence_vs_enumeration, {
        "nu_max": 3, "s_max": 3, "t_max": 2, "n_max": 5, "object_cap": 100_000,
        "composition_n_max": 4, "composition_nu_values": (1, 2),
    }, [
        (None, "stirling-ascents", _EULERIAN, ("enumeration", ascent_histograms_up_to)),
        ("composition-independence", "composition-independence", "one route at two compositions of t", None),
    ]),
    "row-sums": _Check("recurrence-vs-enumeration", check_row_sums, {
        "nu_max": 3, "s_max": 3, "t_max": 2, "n_max": 14,
    }, [(None, "row-sums", ("sum", eulerian_table), ("product", row_sum_product))]),
    "closed-forms": _Check("closed-forms", check_closed_forms, {
        "n_max": 15, "st_pairs": ((1, 0), (0, 1), (2, 3), (3, 1)), "orders": (1, 2),
    }, [
        (None, "closed-forms", ("closed", closed_form_order1), _EULERIAN),
        (None, "closed-forms", ("closed", closed_form_order2), _EULERIAN),
    ]),
    "special-cases": _Check("closed-forms", check_special_cases, {
        "shift_n_max": 10, "s_minus_s_n_max": 8, "s_minus_s_nu_values": (1, 2), "s_minus_s_s_values": (1, 2, 3),
    }, [
        ("classic-standard", "classic-triangles", ("classic", classic_eulerian), _EULERIAN),
        ("classic-traditional", "classic-triangles", ("classic", classic_eulerian), _EULERIAN),
        ("second-order-standard", "classic-triangles", ("classic", classic_second_order), _EULERIAN),
        ("second-order-traditional", "classic-triangles", ("classic", classic_second_order), _EULERIAN),
        ("order1-shift", "indexing-shift", "one function at its two indexings", None),
        ("order2-shift", "indexing-shift", "one function at its two indexings", None),
        ("s-minus-s", "t-equals-minus-s", ("closed", closed_form_order1), _EULERIAN),
        ("s-minus-s", "t-equals-minus-s", ("closed", closed_form_order2), _EULERIAN),
    ]),
    "inverse-pairs": _Check("inverse-pairs", check_inverse_pairs, {
        "nu_max": 3, "n_max": 10, "ratios": ("1", "-1", "2/3"), "s_values": (0, 1, 2, 3),
        "t_values": (-2, -1, 0, 1, 2), "roundtrip_n_max": 8, "roundtrip_seed": 421731,
    }, [
        # a transform takes rows the recurrence built: data handed in, not a borrowed route
        ("euler-to-ward", "involution", ("transform", euler_to_ward), ("ward", ward_table)),
        ("ward-to-euler", "involution", ("transform", ward_to_euler), ("eulerian", eulerian_table)),
        ("orthogonality", "riordan-orthogonality", _SIDES, riordan_orthogonality_sides),
        ("ratio-roundtrip", "inverse-transform", "the backward transform undoes the forward one", None),
    ]),
    "classic-ward": _Check("inverse-pairs", check_classic_ward, {"n_plus_k_max": 14, "smiley_n_max": 8}, [
        (None, "ward-associated-stirling", ("ward", ward_table), ("assoc_stirling", assoc_stirling_subset)),
        ("smiley-identities", "smiley-identities", _SIDES, smiley_identities_sides),
    ]),
    "egf": _Check("egf", check_egf, {
        "n_max": 8, "x0_eulerian": ("1/3", "1/2", "2/3"), "x0_ward": ("1/2", "1"),
        "nu_eulerian": (1, 2, 3), "nu_ward": (1, 2), "st_pairs": ((1, 0), (2, 1), (1, 2), (1, 3)),
    }, [
        ("eulerian", "eulerian-egf", ("egf", egf_eulerian_coeffs), ("table", eulerian_table)),
        ("order1-direct", "eulerian-egf", ("direct", egf_order1_direct), ("table", eulerian_table)),
        ("ward", "ward-egf", ("egf", egf_ward_coeffs), ("table", ward_table)),
        ("transform", "egf-substitution", _SIDES, egf_transform_sides),
    ]),
    "tree-function": _Check("series-identities", check_series_tree_function, {
        "nu_max": 4, "order": 14, "tree_power_s_values": (1, 2, 5, 8),
    }, [
        ("reversion-contract", "tree-function", "x against T_nu composed with its inverse", None),
        ("derivative-identity", "tree-function", _SIDES, t_nu_derivative_sides),
        ("tree-coefficients", "tree-function", ("series", t_nu_series), ("closed", _cayley)),
        ("tree-powers", "tree-powers", _SIDES, tree_power_sides),
    ]),
    "series-identities": _Check("series-identities", check_series_identities, {
        "n_max": 5, "order": 12, "unit_sums_n_max": 40,
        "order1_st_pairs": ((1, 0), (0, 1), (2, 3), (3, 1)), "order2_st_pairs": ((1, 0), (2, 1), (2, 3), (3, 1)),
    }, [
        ("order1-ratio", "ratio-expansions", _SIDES, eulerian_ratio_expansion_sides),
        ("order2-ratio", "ratio-expansions", _SIDES, second_order_ratio_expansion_sides),
        ("unit-sums", "unit-sums", _SIDES, binomial_unit_sums_sides),
    ]),
    "ward-interpretation": _Check("ward-interpretation", check_ward_interpretation, {
        "nu_values": (1, 2), "s_values": (1, 2), "t_max": 2, "n_max": 4,
    }, [(None, "ward-marked-forests", ("marked", ward_marked_rows_up_to), ("recurrence", ward_table))]),
}


SUITE_NAMES = tuple(dict.fromkeys(check.suite for check in _CHECKS.values()))


def run_check(check_id: str) -> CheckResult:
    """Run one check over the grid its entry declares: the one place a check runs."""
    if check_id not in _CHECKS:
        raise ValueError("unknown check %r; pick one of %s" % (check_id, ", ".join(_CHECKS)))
    check = _CHECKS[check_id]
    return _first_mismatch(check_id, check.grid, check.cases(check.grid))


def run_suite(name: str) -> dict:
    """The suite's report: the JSON object ``verify --suite <name>`` prints."""
    if name not in SUITE_NAMES:
        raise ValueError("unknown suite %r; pick one of %s" % (name, ", ".join(SUITE_NAMES)))
    checks = [run_check(check_id) for check_id, check in _CHECKS.items() if check.suite == name]
    return {
        "suite": name,
        "size_level": "default",
        "passed": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
    }


def run_all() -> dict:
    reports = [run_suite(name) for name in SUITE_NAMES]
    return {"suites": reports, "size_level": "default", "passed": all(r["passed"] for r in reports)}
