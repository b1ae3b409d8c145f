"""Value semantics of the record classes: repr, equality, hashing, immutability
and the argument checks, pinned to what they were as dataclasses.  The two
word rows pin the same checks on ``validate_word``, since a word is a plain
tuple of letters.

The ``BAD`` table also pins the one boundary rule for integer arguments,
``numerics._require_int``: a non-int or a bool raises TypeError "<name> must
be an int, got <value>", and a value one below its least raises ValueError
"<name> must be >= <least>, got <value>", at every entry point that has a
least value."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest

from eulerward.eulerian import (
    Params,
    Recurrence,
    TriangleRows,
    classic_eulerian,
    classic_second_order,
    closed_form_order1,
    closed_form_order2,
    eulerian_recurrence,
    row_sum_product,
)
from eulerward.numerics import PolyST, as_fraction, binomial, rising_factorial
from eulerward.series import (
    TruncSeries,
    binomial_unit_sums_sides,
    egf_eulerian_coeffs,
    egf_order1_direct,
    egf_transform_sides,
    egf_ward_coeffs,
    eulerian_ratio_expansion_sides,
    second_order_ratio_expansion_sides,
    t_nu_series,
    tree_power_sides,
)
from eulerward.stirlingperm import count_sequences, enumerate_sequences, validate_word
from eulerward.trees import TreeNode, forest_to_json, tree_to_json
from eulerward.verify import CheckResult
from eulerward.ward import general_inverse_transform, riordan_orthogonality_sides, smiley_identities_sides

RECORDS = {
    "params": (lambda: Params(2, 1, 0), "Params(nu=2, s=1, t=0, tvec=None)"),
    "params-keywords": (lambda: Params(nu=1, s=2, t=3, tvec=[1, 2]), "Params(nu=1, s=2, t=3, tvec=(1, 2))"),
    "recurrence": (
        lambda: Recurrence(0, 1, 1, 1, -1, 0),
        "Recurrence(alpha=0, beta=1, gamma=1, alpha_p=1, beta_p=-1, gamma_p=0)",
    ),
    "recurrence-poly": (
        lambda: Recurrence(0, 1, PolyST.s(), 2, -1, gamma_p=PolyST.t() - 1),
        "Recurrence(alpha=0, beta=1, gamma=PolyST(1*s^1*t^0), alpha_p=2, beta_p=-1, "
        "gamma_p=PolyST(-1*s^0*t^0+1*s^0*t^1))",
    ),
    "triangle-rows": (lambda: TriangleRows(rows=((1,), (1, 1))), "TriangleRows(rows=((1,), (1, 1)))"),
    "tree-node": (
        lambda: TreeNode(1, [None, TreeNode(label=2, slots=(None,))]),
        "TreeNode(label=1, slots=(None, TreeNode(label=2, slots=(None,))))",
    ),
    "check-result": (
        lambda: CheckResult("x", {}, True),
        "CheckResult(check_id='x', params={}, passed=True, witness=None, cases=0)",
    ),
    "check-result-keywords": (
        lambda: CheckResult("y", {"a": 1}, False, witness={"w": 2}, cases=3),
        "CheckResult(check_id='y', params={'a': 1}, passed=False, witness={'w': 2}, cases=3)",
    ),
}
UNHASHABLE = (CheckResult,)  # its params and witness are dicts


@pytest.mark.parametrize("build, text", RECORDS.values(), ids=RECORDS.keys())
def test_record_value_semantics(build, text):
    a, b = build(), build()
    assert repr(a) == text
    assert a is not b and a == b and not a != b
    assert type(a).__match_args__ == tuple(vars(a))
    values = tuple(vars(a).values())
    assert a != values and values != a and a != None  # noqa: E711
    field = next(iter(vars(a)))
    if isinstance(a, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for change in (lambda: setattr(a, field, None), lambda: delattr(a, field), lambda: setattr(a, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert a == b and repr(a) == text


BAD = {
    "params-float": (lambda: Params(1.0, 1, 0), TypeError, "nu must be an int, got 1.0"),
    "params-bool": (lambda: Params(1, True, 0), TypeError, "s must be an int, got True"),
    "params-nu": (lambda: Params(0, 1, 0), ValueError, "nu must be >= 1, got 0"),
    "params-tvec-len": (lambda: Params(1, 2, 3, (1,)), ValueError, "tvec must have s = 2 parts, got (1,)"),
    "params-tvec-sign": (lambda: Params(1, 2, 3, (4, -1)), ValueError, "tvec parts must be nonnegative, got (4, -1)"),
    "params-tvec-sum": (lambda: Params(1, 2, 3, (1, 1)), ValueError, "tvec must sum to t = 3, got (1, 1)"),
    "params-tvec-part": (lambda: Params(1, 2, 3, (1.0, 2)), TypeError, "each tvec part must be an int, got 1.0"),
    "params-missing": (lambda: Params(1, 2), TypeError, "missing 1 required positional argument: 't'"),
    "params-keyword": (lambda: Params(1, 2, 3, x=1), TypeError, "unexpected keyword argument 'x'"),
    "recurrence-float": (lambda: Recurrence(0.0, 1, 1, 1, -1, 0), TypeError, "alpha must be an int, got 0.0"),
    "recurrence-bool": (
        lambda: Recurrence(0, 1, True, 1, -1, 0),
        TypeError,
        "gamma must be an int or a PolyST, got True",
    ),
    "recurrence-mixed": (
        lambda: Recurrence(0, 1, 1, 1, -1, PolyST.s()),
        TypeError,
        "gamma and gamma_p must both be ints or both PolyST, got 1 and PolyST(1*s^1*t^0)",
    ),
    "triangle-rows-missing": (lambda: TriangleRows(), TypeError, "missing 1 required positional argument: 'rows'"),
    "word-letter": (lambda: validate_word((1.0,), 1), TypeError, "each letter must be an int, got 1.0"),
    "word-nu": (lambda: validate_word((1,), "1"), TypeError, "nu must be an int, got '1'"),
    "tree-node-missing": (lambda: TreeNode(1), TypeError, "missing 1 required positional argument: 'slots'"),
    "check-result-missing": (
        lambda: CheckResult("x", {}),
        TypeError,
        "missing 1 required positional argument: 'passed'",
    ),
    # numerics
    "binomial-bool": (lambda: binomial(True, 1), TypeError, "n must be an int, got True"),
    "rising-factorial-j": (lambda: rising_factorial(2, -1), ValueError, "j must be >= 0, got -1"),
    "polyst-power": (lambda: PolyST.s() ** -1, ValueError, "a PolyST exponent must be >= 0, got -1"),
    "polyst-term": (lambda: PolyST({(0, -1): 1}), ValueError, "a PolyST exponent must be >= 0, got -1"),
    # x must be an int, a Fraction or a PolyST even at j = 0: a Decimal would round
    "rising-factorial-decimal": (
        lambda: rising_factorial(Decimal("0.1"), 40),
        TypeError,
        "rising_factorial needs an int, a Fraction or a PolyST x, got Decimal('0.1')",
    ),
    "rising-factorial-str": (
        lambda: rising_factorial("a", 0),
        TypeError,
        "rising_factorial needs an int, a Fraction or a PolyST x, got 'a'",
    ),
    "rising-factorial-none": (
        lambda: rising_factorial(None, 0),
        TypeError,
        "rising_factorial needs an int, a Fraction or a PolyST x, got None",
    ),
    # a term key that is not a pair is named, not left to unpacking
    "polyst-key-short": (
        lambda: PolyST({(1,): 1}),
        TypeError,
        "a PolyST term key must be a pair (degree in s, degree in t), got (1,)",
    ),
    "polyst-key-long": (
        lambda: PolyST({(1, 2, 3): 1}),
        TypeError,
        "a PolyST term key must be a pair (degree in s, degree in t), got (1, 2, 3)",
    ),
    "polyst-key-int": (
        lambda: PolyST({1: 1}),
        TypeError,
        "a PolyST term key must be a pair (degree in s, degree in t), got 1",
    ),
    # as_fraction takes an int, a Fraction or a str; x0, r and series coefficients reach it
    "as-fraction-none": (
        lambda: as_fraction(None),
        TypeError,
        "exact rational wanted, got the NoneType None; pass a Fraction or a string such as '1/2'",
    ),
    "as-fraction-list": (
        lambda: as_fraction([1]),
        TypeError,
        "exact rational wanted, got the list [1]; pass a Fraction or a string such as '1/2'",
    ),
    "egf-x0-complex": (
        lambda: egf_eulerian_coeffs(1, 1, 0, 1j, 3),
        TypeError,
        "exact rational wanted, got the complex 1j; pass a Fraction or a string such as '1/2'",
    ),
    "inverse-transform-r-nan": (
        lambda: general_inverse_transform([1], 0, Decimal("NaN")),
        TypeError,
        "exact rational wanted, got the Decimal Decimal('NaN'); pass a Fraction or a string such as '1/2'",
    ),
    "series-coefficient-infinity": (
        lambda: TruncSeries([1, Decimal("Infinity")]),
        TypeError,
        "exact rational wanted, got the Decimal Decimal('Infinity'); pass a Fraction or a string such as '1/2'",
    ),
    # eulerian (Params(1, True, 0) above is its bool row)
    "iter-rows-nmax": (
        lambda: eulerian_recurrence(Params(1, 1, 0)).iter_rows(-1),
        ValueError,
        "nmax must be >= 0, got -1",
    ),
    "iter-rows-negative-factor": (
        lambda: Recurrence(0, 1, PolyST.s(), 1, -2, PolyST.t() + 1).iter_rows(2),
        ValueError,
        "poly mode needs factors with nonnegative coefficients, but "
        "d(n, j + 1) = -1*s^0*t^0+1*s^0*t^1 at n = 2, j = 1",
    ),
    "iter-rows-negative-gamma-term": (
        lambda: Recurrence(0, 1, PolyST.s() - PolyST.t(), 1, 0, PolyST.t()).iter_rows(1),
        ValueError,
        "poly mode needs factors with nonnegative coefficients, but "
        "u(n, j) = -1*s^0*t^1+1*s^1*t^0 at n = 1, j = 0",
    ),
    "iter-rows-negative-later-gamma-term": (
        lambda: Recurrence(0, 1, PolyST.s(), 1, 0, PolyST.t() - PolyST.s()).iter_rows(1),
        ValueError,
        "poly mode needs factors with nonnegative coefficients, but "
        "d(n, j + 1) = 1*s^0*t^0+1*s^0*t^1-1*s^1*t^0 at n = 1, j = 0",
    ),
    "row-sum-product-n": (lambda: row_sum_product(Params(1, 1, 0), -1), ValueError, "n must be >= 0, got -1"),
    "closed-form-order1-n": (lambda: closed_form_order1(-1, 1, 0), ValueError, "n must be >= 0, got -1"),
    "closed-form-order2-n": (lambda: closed_form_order2(-1, 1, 0), ValueError, "n must be >= 0, got -1"),
    "classic-eulerian-n": (lambda: classic_eulerian(-1, 0), ValueError, "n must be >= 0, got -1"),
    "classic-eulerian-k": (lambda: classic_eulerian(0, -1), ValueError, "k must be >= 0, got -1"),
    "classic-second-order-n": (lambda: classic_second_order(-1, 0), ValueError, "n must be >= 0, got -1"),
    "classic-second-order-k": (lambda: classic_second_order(0, -1), ValueError, "k must be >= 0, got -1"),
    # series
    "series-bool": (lambda: t_nu_series(True, 3), TypeError, "nu must be an int, got True"),
    "series-zero-order": (lambda: TruncSeries.zero(-1), ValueError, "order must be >= 0, got -1"),
    "series-one-order": (lambda: TruncSeries.one(-1), ValueError, "order must be >= 0, got -1"),
    "series-x-order": (lambda: TruncSeries.x(-1), ValueError, "order must be >= 0, got -1"),
    "t-nu-series-nu": (lambda: t_nu_series(0, 3), ValueError, "nu must be >= 1, got 0"),
    "t-nu-series-K": (lambda: t_nu_series(1, 0), ValueError, "K must be >= 1, got 0"),
    "tree-power-s": (lambda: tree_power_sides(0, 3), ValueError, "s must be >= 1, got 0"),
    "egf-nu": (lambda: egf_eulerian_coeffs(0, 1, 0, "1/2", 3), ValueError, "nu must be >= 1, got 0"),
    "egf-s": (lambda: egf_ward_coeffs(1, 0, 0, 1, 3), ValueError, "s must be >= 1, got 0"),
    "egf-t": (lambda: egf_order1_direct(1, -1, "1/2", 3), ValueError, "t must be >= 0, got -1"),
    "egf-N": (lambda: egf_transform_sides(1, 1, 0, 1, -1), ValueError, "N must be >= 0, got -1"),
    "order1-ratio-n": (lambda: eulerian_ratio_expansion_sides(-1, 1, 0, 3), ValueError, "n must be >= 0, got -1"),
    "order1-ratio-s": (lambda: eulerian_ratio_expansion_sides(1, -1, 2, 3), ValueError, "s must be >= 0, got -1"),
    "order1-ratio-t": (lambda: eulerian_ratio_expansion_sides(1, 2, -1, 3), ValueError, "t must be >= 0, got -1"),
    "order1-ratio-K": (lambda: eulerian_ratio_expansion_sides(1, 1, 0, -1), ValueError, "K must be >= 0, got -1"),
    "order1-ratio-s-plus-t": (
        lambda: eulerian_ratio_expansion_sides(1, 0, 0, 3),
        ValueError,
        "need s + t >= 1, got s = 0 and t = 0",
    ),
    "order2-ratio-n": (lambda: second_order_ratio_expansion_sides(-1, 1, 0, 3), ValueError, "n must be >= 0, got -1"),
    "order2-ratio-s": (lambda: second_order_ratio_expansion_sides(1, 0, 1, 3), ValueError, "s must be >= 1, got 0"),
    "order2-ratio-t": (lambda: second_order_ratio_expansion_sides(1, 1, -1, 3), ValueError, "t must be >= 0, got -1"),
    "order2-ratio-K": (lambda: second_order_ratio_expansion_sides(1, 1, 0, -1), ValueError, "K must be >= 0, got -1"),
    "unit-sums-n": (lambda: binomial_unit_sums_sides(0), ValueError, "n must be >= 1, got 0"),
    # stirlingperm
    "count-bool": (lambda: count_sequences(Params(1, 1, 0), True), TypeError, "n must be an int, got True"),
    "count-n": (lambda: count_sequences(Params(1, 1, 0), -1), ValueError, "n must be >= 0, got -1"),
    "enumerate-n": (lambda: next(enumerate_sequences(Params(1, 1, 0), -1)), ValueError, "n must be >= 0, got -1"),
    # ward
    "ward-bool": (lambda: riordan_orthogonality_sides(True), TypeError, "n must be an int, got True"),
    "inverse-transform-n": (lambda: general_inverse_transform([], -1, 1), ValueError, "n must be >= 0, got -1"),
    "inverse-transform-poly-fraction": (
        lambda: general_inverse_transform([PolyST.s(), Fraction(1, 2)], 1, 1),
        TypeError,
        "a PolyST row needs int entries beside its PolyST ones, got Fraction(1, 2)",
    ),
    "inverse-transform-poly-integral-fraction": (
        lambda: general_inverse_transform([PolyST.s(), Fraction(3)], 1, 1),
        TypeError,
        "a PolyST row needs int entries beside its PolyST ones, got Fraction(3, 1)",
    ),
    "inverse-transform-fraction-poly": (
        lambda: general_inverse_transform([Fraction(1, 2), PolyST.s()], 1, 1),
        TypeError,
        "a PolyST row needs int entries beside its PolyST ones, got Fraction(1, 2)",
    ),
    "inverse-transform-decimal": (
        lambda: general_inverse_transform([1, Decimal(2)], 1, 1),
        TypeError,
        "row entries must be int, Fraction or PolyST, got Decimal('2')",
    ),
    "inverse-transform-str": (
        lambda: general_inverse_transform([1, "2"], 1, 1),
        TypeError,
        "row entries must be int, Fraction or PolyST, got '2'",
    ),
    "riordan-n": (lambda: riordan_orthogonality_sides(-1), ValueError, "n must be >= 0, got -1"),
    "smiley-n": (lambda: smiley_identities_sides(0), ValueError, "n must be >= 1, got 0"),
    # trees: d = nu + 1 would be the float 3.0, 2 or -4
    "tree-json-float": (lambda: tree_to_json(TreeNode(1, (None,) * 3), 2.0), TypeError, "nu must be an int, got 2.0"),
    "tree-json-bool": (lambda: tree_to_json(TreeNode(1, (None,) * 3), True), TypeError, "nu must be an int, got True"),
    "tree-json-nu": (lambda: tree_to_json(TreeNode(1, (None,) * 3), -5), ValueError, "nu must be >= 1, got -5"),
    "forest-json-nu": (lambda: forest_to_json((), 0), ValueError, "nu must be >= 1, got 0"),
}


@pytest.mark.parametrize("build, error, message", BAD.values(), ids=BAD.keys())
def test_record_argument_checks(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
