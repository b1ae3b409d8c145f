"""One route audit over ``verify._CHECKS``: the two routes of a cross-check,
each run on one small instance under ``sys.setprofile``, enter no common
package function outside ``SHARED``, and an identity's ``*_sides`` function
builds no triangle.  A route counts from its own call on: the rows handed
to a transform were built by the recurrence on purpose."""

from fractions import Fraction

import pytest
from test_reach import codes_run_by, defined

import eulerward.eulerian as eulerian
import eulerward.stirlingperm as stirlingperm
from eulerward import verify
from eulerward.eulerian import Params, eulerian_table
from eulerward.ward import ward_table

# The paper's statements that verify covers, by the names the families use.
CLAIMS = {
    "worked-examples", "stirling-ascents", "composition-independence", "row-sums", "closed-forms",
    "classic-triangles", "indexing-shift", "t-equals-minus-s", "involution", "riordan-orthogonality",
    "inverse-transform", "ward-associated-stirling", "smiley-identities", "ward-marked-forests",
    "tree-function", "tree-powers", "eulerian-egf", "ward-egf", "egf-substitution", "ratio-expansions",
    "unit-sums",
}

# Package functions both routes of a cross-check may enter, each with its reason.
SHARED = {
    "numerics._require_int": "checks an argument's type before any work",
    "numerics.as_fraction": "reads x0, which is input data",
    "numerics._Record.__init__": "stores the fields of a record",
    "eulerian.Params.__init__": "builds the parameters, which are input data",
    "eulerian.Params.composition": "reads the composition of t, which is input data",
}

# Identities whose left side is a table row on purpose; TestRatioExpansions
# shows that their right sides read none.
READS_A_ROW = {"order1-ratio", "order2-ratio"}

# One small instance of each route, by the route function's name.
SMALL = {
    **dict.fromkeys(["eulerian_table", "ward_table", "ascent_histograms_up_to"], (Params(2, 2, 1), 4)),
    "row_sum_product": (Params(2, 2, 1), 4),
    **dict.fromkeys(["closed_form_order1", "closed_form_order2"], (4, 2, 1)),
    **dict.fromkeys(["classic_eulerian", "classic_second_order"], (4, 1, "traditional")),
    **dict.fromkeys(["euler_to_ward", "ward_to_euler"], ([1, 4, 1], 2)),
    **dict.fromkeys(["eulerian_ratio_expansion_sides", "second_order_ratio_expansion_sides"], (3, 2, 1, 10)),
    "ward_marked_rows_up_to": (Params(1, 2, 1, (1, 0)), 3),
    "s_minus_s_closed_forms": (2, 4, 1, 2),
    "assoc_stirling_subset": (6, 2),
    "egf_eulerian_coeffs": (3, 2, 1, Fraction(1, 3), 8),
    "egf_ward_coeffs": (2, 2, 1, Fraction(3, 2), 8),
    "egf_order1_direct": (2, 1, Fraction(1, 3), 8),
    "egf_transform_sides": (2, 1, 0, Fraction(1, 2), 6),
    "t_nu_series": (3, 12),
    "_cayley": (5,),
    "riordan_orthogonality_sides": (4,),
    "smiley_identities_sides": (5,),
    "t_nu_derivative_sides": (3, 8),
    "tree_power_sides": (3, 12),
    "binomial_unit_sums_sides": (12,),
}


# {code: "module.qualname"} of every package function, dunders included; nested code
# (inner functions, comprehensions before 3.12) runs only inside a call of the function around it.
NAMES = {fn.__code__: name for name, fn in defined(dunders=True).items()}


def calls(route):
    """The package functions that the route enters on its small instance."""
    return {NAMES[code] for code in codes_run_by(lambda: route(*SMALL[route.__name__])) if code in NAMES}


def audit(check_id, check):
    """What is wrong with the families of one table entry; empty when nothing is."""
    triangles = calls(eulerian_table) | calls(ward_table)
    problems = []
    for failed, claim, a, b in check.families:
        where = "%s family %r" % (check_id, failed)
        if isinstance(a, str) and a:  # an identity, with its reason
            built = (calls(b) & triangles) - set(SHARED) if b else set()
            if built and failed not in READS_A_ROW:
                problems.append("%s builds a triangle: %s" % (where, sorted(built)))
        elif all(isinstance(r, tuple) and len(r) == 2 and callable(r[1]) for r in (a, b)):
            shared = (calls(a[1]) & calls(b[1])) - set(SHARED)
            if shared:
                problems.append("%s: %s and %s share %s" % (where, a[0], b[0], sorted(shared)))
        else:
            problems.append("%s declares neither two routes nor the reason it is an identity" % where)
    return problems


@pytest.mark.parametrize("check_id", list(verify._CHECKS))
def test_every_family_passes_the_audit(check_id):
    check = verify._CHECKS[check_id]
    assert audit(check_id, check) == []
    # the failed tags and route names the check yields are the declared ones
    yielded = {(instance.get("failed"), a[0], b[0]) for instance, a, b in check.cases(check.grid)}
    assert {failed for failed, _, _ in yielded} == {family[0] for family in check.families}
    for failed, _, a, b in check.families:
        if not isinstance(a, str):
            assert (failed, a[0], b[0]) in yielded
        elif b is not None:
            assert (failed, "lhs", "rhs") in yielded


def test_every_claim_has_a_family():
    assert {family[1] for check in verify._CHECKS.values() for family in check.families} == CLAIMS


@pytest.mark.parametrize(
    "module,name,check_id",
    [
        (stirlingperm, "_enumeration_params", "recurrence-vs-enumeration"),  # a histogram
        (eulerian, "_exact_div", "closed-forms"),  # a closed form, in both orders
    ],
)
def test_a_route_that_reads_a_table_entry_fails(monkeypatch, module, name, check_id):
    real = getattr(module, name)

    def borrowing(*args):
        eulerian_table(Params(1, 2, 1), 1).entry(1, 0)
        return real(*args)

    monkeypatch.setattr(module, name, borrowing)
    problems = audit(check_id, verify._CHECKS[check_id])
    assert problems and all(" share " in p and "eulerian.eulerian_table" in p for p in problems)


@pytest.mark.parametrize("routes", [(None, None), (("ward", ward_table), None), ("", None)])
def test_a_family_without_its_routes_fails(routes):
    check = verify._CHECKS["ward-interpretation"]
    bare = verify._Check(check.suite, check.cases, check.grid, [(None, "ward-marked-forests", *routes)])
    [problem] = audit("ward-interpretation", bare)
    assert problem == "ward-interpretation family None declares neither two routes nor the reason it is an identity"
