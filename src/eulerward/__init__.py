"""Exact combinatorics of higher-order (s,t)-Eulerian and Ward numbers.

The package computes the two triangle families by their recurrences (with s
and t either concrete or symbolic), enumerates the generalized Stirling
permutations they count, walks the bijection onto increasing trees and
forests, and verifies the closed forms, binomial inverse pairs, and
exponential generating functions connecting everything, all in exact
arithmetic.  The ``eulerward`` command line exposes tables, enumeration,
bijection demos, and the cross-verification suites.
"""

from .eulerian import (
    Params,
    Recurrence,
    classic_eulerian,
    classic_second_order,
    closed_form_order1,
    closed_form_order2,
    eulerian_table,
    row_sum_product,
)
from .numerics import (
    PolyST,
    assoc_stirling_subset,
    binomial,
    rising_factorial,
    stirling_subset,
)
from .series import (
    TruncSeries,
    egf_eulerian_coeffs,
    egf_ward_coeffs,
    t_nu_series,
)
from .stirlingperm import (
    ascent_positions,
    enumerate_sequences,
    seq_ascent_count,
    validate_word,
)
from .trees import (
    TreeNode,
    distinguished_set,
    forest_distinguished_set,
    leftmost_internal_set,
    perm_to_tree,
    seq_to_forest,
    tree_to_perm,
)
from .verify import CheckResult, run_all, run_suite
from .ward import (
    euler_to_ward,
    general_inverse_transform,
    riordan_orthogonality_sides,
    smiley_identities_sides,
    ward_table,
    ward_to_euler,
)

__version__ = "0.1.0"

__all__ = [
    "Params",
    "Recurrence",
    "PolyST",
    "TruncSeries",
    "TreeNode",
    "binomial",
    "rising_factorial",
    "stirling_subset",
    "assoc_stirling_subset",
    "eulerian_table",
    "row_sum_product",
    "closed_form_order1",
    "closed_form_order2",
    "classic_eulerian",
    "classic_second_order",
    "ward_table",
    "euler_to_ward",
    "ward_to_euler",
    "general_inverse_transform",
    "riordan_orthogonality_sides",
    "smiley_identities_sides",
    "validate_word",
    "ascent_positions",
    "seq_ascent_count",
    "enumerate_sequences",
    "perm_to_tree",
    "tree_to_perm",
    "seq_to_forest",
    "leftmost_internal_set",
    "distinguished_set",
    "forest_distinguished_set",
    "t_nu_series",
    "egf_eulerian_coeffs",
    "egf_ward_coeffs",
    "CheckResult",
    "run_suite",
    "run_all",
    "__version__",
]
