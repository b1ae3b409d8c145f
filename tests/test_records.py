"""Value semantics of the record classes: repr, equality, hashing, immutability
and the argument checks, pinned to what they were as dataclasses.  The two
word rows pin the same checks on ``validate_word``, since a word is a plain
tuple of letters."""

import re

import pytest

from eulerward.eulerian import Params, Recurrence, TriangleRows
from eulerward.numerics import PolyST
from eulerward.stirlingperm import validate_word
from eulerward.trees import TreeNode
from eulerward.verify import CheckResult

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
    "params-nu": (lambda: Params(0, 1, 0), ValueError, "nu must be a positive integer, got 0"),
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
}


@pytest.mark.parametrize("build, error, message", BAD.values(), ids=BAD.keys())
def test_record_argument_checks(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()
