"""Cross-verification suites with machine-readable reports.

Every suite pits at least two independent routes to the same numbers against
each other: recurrence vs exhaustive enumeration, recurrence vs closed form,
triangle vs binomial transform of the companion triangle, recurrence vs
marked-forest counting, table rows vs generating function coefficients.  All
comparisons are exact; there are no tolerances anywhere.

Each check generates its cases, (instance, (name_a, a), (name_b, b)), over
its parameter grid in ascending order; one harness (``_first_mismatch``)
stops at the first (smallest) case whose two routes disagree and reports the
instance plus both routes' values as the witness.  A route that raises fails
its check the same way, with the case's number and the exception as the
witness, so the report is still written.  An identity enters as one
more case: its ``*_sides`` function returns both sides, compared like any two
routes.  Reports carry no timestamps and all set-like data is sorted, so a
report is byte-for-byte reproducible.

Grids come in two sizes: "default" matches the documented acceptance ranges,
"small" trims the expensive ones for quick interactive runs.  A check's
``params`` are the grid its loops read, and Tier-1 pins how many cases each
check compares (``CheckResult.cases``), so no grid shrinks unseen.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .eulerian import (
    Params,
    classic_eulerian,
    classic_second_order,
    closed_form_order1,
    closed_form_order2,
    eulerian_table,
    row_sum_product,
    s_minus_s_closed_forms,
)
from .numerics import assoc_stirling_subset
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
    GenStirlingSeq,
    GenStirlingWord,
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
    ward_marked_row,
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
    "Report",
    "SUITE_NAMES",
    "run_suite",
    "run_all",
    "check_golden_examples",
    "check_recurrence_vs_enumeration",
    "check_row_sums",
    "check_closed_forms",
    "check_special_cases",
    "check_inverse_pairs",
    "check_classic_ward",
    "check_ward_interpretation",
    "check_series_tree_function",
    "check_egf",
    "check_series_identities",
]


@dataclass
class CheckResult:
    check_id: str
    params: dict
    passed: bool
    witness: dict | None = None
    cases: int = 0  # cases compared; left out of the report

    def to_json(self) -> dict:
        return {
            "id": self.check_id,
            "params": self.params,
            "passed": self.passed,
            "witness": self.witness,
        }


@dataclass
class Report:
    suite: str
    size_level: str
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "size_level": self.size_level,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


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


def _golden_cases():
    """Hand-checked worked examples: word, nu, t, n, ascents, E set, D set."""
    return [
        ("333222111", 3, 0, 3, frozenset(), frozenset({2, 3}), frozenset({1, 2, 3})),
        ("00112221", 3, 2, 2, frozenset({2, 4}), frozenset(), frozenset()),
        ("11222100", 3, 2, 2, frozenset({2}), frozenset({1}), frozenset({1})),
        ("133322211", 3, 0, 3, frozenset({1}), frozenset({3}), frozenset({1, 3})),
    ]


def check_golden_examples(level: str = "default") -> CheckResult:
    params = {"cases": len(_golden_cases()) + 1}

    def cases():
        ok = ("expected", True)
        for text, nu, t, n, asc, eset, dset in _golden_cases():
            w = GenStirlingWord.over_range(word_from_text(text), nu, t, n)
            yield {"word": text, "failed": "validate"}, ("valid", validate_word(w)), ok
            yield (
                {"word": text, "failed": "ascents"},
                ("got", sorted(ascent_positions(w))),
                ("expected", sorted(asc)),
            )
            tree = perm_to_tree(w)
            yield {"word": text, "failed": "tree-structure"}, ("valid", validate_tree(tree)), ok
            yield (
                {"word": text, "failed": "roundtrip"},
                ("got", list(tree_to_perm(tree).letters)),
                ("expected", list(w.letters)),
            )
            yield (
                {"word": text, "failed": "leftmost-set"},
                ("got", sorted(leftmost_internal_set(tree))),
                ("expected", sorted(eset)),
            )
            yield (
                {"word": text, "failed": "distinguished-set"},
                ("got", sorted(distinguished_set(tree))),
                ("expected", sorted(dset)),
            )
        # the four-entry sequence example: n, ascents, D sets, tree validity
        specs = [("23332200", 2), ("555111", 0), ("0444", 1), ("", 0)]
        seq = GenStirlingSeq(tuple(GenStirlingWord(word_from_text(w), 3, ti) for w, ti in specs))
        forest = seq_to_forest(seq)
        yield (
            {"word": "forest", "failed": "forest-statistics"},
            (
                "got",
                [
                    seq.n,
                    seq_ascent_count(seq),
                    sorted(forest_distinguished_set(forest)),
                    [sorted(distinguished_set(tr)) for tr in forest],
                    all(validate_tree(tr) for tr in forest),
                ],
            ),
            ("expected", [5, 2, [1, 2, 5], [[2], [1, 5], [], []], True]),
        )

    return _first_mismatch("golden-examples", params, cases())


# ------------------------------------------------- recurrence vs counting


def check_recurrence_vs_enumeration(level: str = "default") -> CheckResult:
    params = {
        "nu_max": 3,
        "s_max": 3,
        "t_max": 2,
        "n_max": 5 if level == "default" else 3,
        "object_cap": 100_000,
    }

    def cases():
        for p in _box(params):
            n_top = params["n_max"]
            while n_top > 0 and count_sequences(p, n_top) > params["object_cap"]:
                n_top -= 1
            hists = ascent_histograms_up_to(p, n_top)
            table = eulerian_table(p, n_top)
            for n in range(n_top + 1):
                yield (
                    {"nu": p.nu, "s": p.s, "t": p.t, "n": n},
                    ("recurrence", list(table.row(n))),
                    ("enumeration", hists[n]),
                )
        # histogram independence from the composition of t
        size = 4 if level == "default" else 3
        for nu in (1, 2):
            for base, comp in [((2, 0), (1, 1)), ((0, 2), (1, 1))]:
                yield (
                    {"nu": nu, "s": 2, "t": 2, "failed": "composition-independence", "tvec": list(comp)},
                    ("histograms", ascent_histograms_up_to(Params(nu, 2, 2, comp), size)),
                    ("base_histograms", ascent_histograms_up_to(Params(nu, 2, 2, base), size)),
                )

    return _first_mismatch("recurrence-vs-enumeration", params, cases())


def check_row_sums(level: str = "default") -> CheckResult:
    nmax = 10 if level == "default" else 6
    params = {"nu_max": 3, "s_max": 3, "t_max": 2, "n_max": nmax}

    def cases():
        for p in _box(params):
            table = eulerian_table(p, nmax)
            for n in range(nmax + 1):
                yield (
                    {"nu": p.nu, "s": p.s, "t": p.t, "n": n},
                    ("sum", sum(table.row(n))),
                    ("product", row_sum_product(p, n)),
                )

    return _first_mismatch("row-sums", params, cases())


# ------------------------------------------------------------ closed forms


def check_closed_forms(level: str = "default") -> CheckResult:
    nmax = 15 if level == "default" else 8
    pairs = [(1, 0), (0, 1), (2, 3), (3, 1)]
    params = {"n_max": nmax, "st_pairs": [list(x) for x in pairs]}

    def cases():
        for s, t in pairs:
            forms = (
                (1, closed_form_order1, eulerian_table(Params(1, s, t), nmax)),
                (2, closed_form_order2, eulerian_table(Params(2, s, t), nmax)),
            )
            for n in range(nmax + 1):
                for k in range(n + 1):
                    for order, closed_form, table in forms:
                        yield (
                            {"order": order, "s": s, "t": t, "n": n, "k": k},
                            ("closed", closed_form(n, k, s, t)),
                            ("recurrence", table.entry(n, k)),
                        )

    return _first_mismatch("closed-forms", params, cases())


def check_special_cases(level: str = "default") -> CheckResult:
    nmax = 10 if level == "default" else 6
    smax = 8 if level == "default" else 5
    params = {"shift_n_max": nmax, "s_minus_s_n_max": smax}

    def cases():
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
        # degenerate t = -s closed forms against the recurrence
        for nu in (1, 2):
            for s in (1, 2, 3):
                table = eulerian_table(Params(nu, s, -s), smax)
                for n in range(smax + 1):
                    for k in range(n + 1):
                        yield (
                            {"failed": "s-minus-s", "nu": nu, "s": s, "n": n, "k": k},
                            ("closed", s_minus_s_closed_forms(nu, n, k, s)),
                            ("recurrence", table.entry(n, k)),
                        )

    return _first_mismatch("special-cases", params, cases())


# ----------------------------------------------------------- inverse pairs


def check_inverse_pairs(level: str = "default") -> CheckResult:
    nmax = 10 if level == "default" else 6
    params = {"nu_max": 3, "n_max": nmax, "ratios": ["1", "-1", "2/3"]}
    st_pairs = [(s, t) for s in range(0, 4) for t in range(-2, 3)]

    def cases():
        for nu in range(1, params["nu_max"] + 1):
            for s, t in st_pairs:
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
        rng = random.Random(421731)
        for r in map(Fraction, params["ratios"]):
            for n in range(0, 9):
                row = [rng.randrange(-50, 50) for _ in range(n + 1)]
                fwd = general_inverse_transform(row, n, r, "forward")
                yield (
                    {"failed": "ratio-roundtrip", "r": str(r), "n": n},
                    ("roundtrip", general_inverse_transform(fwd, n, r, "backward")),
                    ("row", row),
                )

    return _first_mismatch("inverse-pairs", params, cases())


def check_classic_ward(level: str = "default") -> CheckResult:
    top = 14 if level == "default" else 8
    smiley_n = 8 if level == "default" else 5
    params = {"n_plus_k_max": top, "smiley_n_max": smiley_n}

    def cases():
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

    return _first_mismatch("classic-ward", params, cases())


# ----------------------------------------------------- ward interpretation


def _compositions_for(s: int, t: int) -> list[tuple[int, ...]]:
    """A few distinct compositions of t into s parts, deterministic order."""
    cands = [(t,) + (0,) * (s - 1), (0,) * (s - 1) + (t,)]
    if s >= 2 and t >= 2:
        cands.append((1, t - 1) + (0,) * (s - 2))
    out: list[tuple[int, ...]] = []
    for c in cands:
        if c not in out:
            out.append(c)
    return out


def check_ward_interpretation(level: str = "default") -> CheckResult:
    nmax = 4 if level == "default" else 3
    params = {"nu_values": [1, 2], "s_values": [1, 2], "t_max": 2, "n_max": nmax}

    def cases():
        for nu in params["nu_values"]:
            for s in params["s_values"]:
                for t in range(params["t_max"] + 1):
                    table = ward_table(Params(nu, s, t), nmax)
                    for comp in _compositions_for(s, t):
                        p = Params(nu, s, t, comp)
                        for n in range(nmax + 1):
                            yield (
                                {"nu": nu, "s": s, "t": t, "tvec": list(comp), "n": n},
                                ("marked", ward_marked_row(p, n)),
                                ("recurrence", list(table.row(n))),
                            )

    return _first_mismatch("ward-interpretation", params, cases())


# ----------------------------------------------------------------- series


def check_series_tree_function(level: str = "default") -> CheckResult:
    K = 14 if level == "default" else 10
    params = {"nu_max": 4, "order": K}

    def cases():
        x = TruncSeries.x(K)
        for nu in range(1, params["nu_max"] + 1):
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
                ("closed", Fraction(n ** (n - 1), math.factorial(n))),
            )
        for s in (1, 2, 5):
            yield _sides({"failed": "tree-powers", "s": s}, tree_power_sides(s, K))

    return _first_mismatch("tree-function", params, cases())


def _poly_value(row, x0: Fraction) -> Fraction:
    """sum_k row[k] x0^k by Horner's rule in the integers, one Fraction per row."""
    a, b = x0.numerator, x0.denominator
    num, den = 0, 1  # den = b^(number of entries read)
    for c in reversed(row):
        num = num * a + c * den
        den *= b
    return Fraction(num * b, den)


def check_egf(level: str = "default") -> CheckResult:
    nmax = 8 if level == "default" else 5
    params = {"n_max": nmax, "x0_eulerian": ["1/3", "1/2", "2/3"], "x0_ward": ["1/2", "1"]}
    st_pairs = [(1, 0), (2, 1), (1, 2)]

    def cases():
        for nu in (1, 2, 3):
            for s, t in st_pairs:
                table = eulerian_table(Params(nu, s, t), nmax)
                for x0 in map(Fraction, params["x0_eulerian"]):
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
        for nu in (1, 2):
            for s, t in st_pairs:
                table = ward_table(Params(nu, s, t), nmax)
                for x0 in map(Fraction, params["x0_ward"]):
                    at = {"nu": nu, "s": s, "t": t, "x0": str(x0)}
                    want = [_poly_value(table.row(n), x0) for n in range(nmax + 1)]
                    yield (
                        {"failed": "ward", **at},
                        ("egf", egf_ward_coeffs(nu, s, t, x0, nmax)),
                        ("table", want),
                    )
                    sides = egf_transform_sides(nu, s, t, x0, nmax)
                    yield _sides({"failed": "transform", **at}, sides)

    return _first_mismatch("egf", params, cases())


def check_series_identities(level: str = "default") -> CheckResult:
    nmax = 5 if level == "default" else 3
    K = 12 if level == "default" else 10
    unit_n = 30 if level == "default" else 12
    params = {"n_max": nmax, "order": K, "unit_sums_n_max": unit_n}

    def cases():
        for s, t in [(1, 0), (0, 1), (2, 3), (3, 1)]:
            for n in range(nmax + 1):
                yield _sides(
                    {"failed": "order1-ratio", "n": n, "s": s, "t": t},
                    eulerian_ratio_expansion_sides(n, s, t, K),
                )
        for s, t in [(1, 0), (2, 1), (2, 3), (3, 1)]:
            for n in range(nmax + 1):
                yield _sides(
                    {"failed": "order2-ratio", "n": n, "s": s, "t": t},
                    second_order_ratio_expansion_sides(n, s, t, K),
                )
        for n in range(1, unit_n + 1):
            yield _sides({"failed": "unit-sums", "n": n}, binomial_unit_sums_sides(n))

    return _first_mismatch("series-identities", params, cases())


# ----------------------------------------------------------------- suites


_SUITES = {
    "recurrence-vs-enumeration": (
        check_golden_examples,
        check_recurrence_vs_enumeration,
        check_row_sums,
    ),
    "closed-forms": (check_closed_forms, check_special_cases),
    "inverse-pairs": (check_inverse_pairs, check_classic_ward),
    "egf": (check_egf,),
    "series-identities": (check_series_tree_function, check_series_identities),
    "ward-interpretation": (check_ward_interpretation,),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, level: str = "default") -> Report:
    if name not in _SUITES:
        raise ValueError("unknown suite %r; pick one of %s" % (name, ", ".join(SUITE_NAMES)))
    if level not in ("small", "default"):
        raise ValueError("size level must be 'small' or 'default', got %r" % (level,))
    return Report(name, level, [fn(level) for fn in _SUITES[name]])


def run_all(level: str = "default") -> dict:
    reports = [run_suite(name, level) for name in SUITE_NAMES]
    return {
        "suites": [r.to_json() for r in reports],
        "size_level": level,
        "passed": all(r.passed for r in reports),
    }
