"""The single-pass oracle checks against the three-pass loop they replaced."""

import pytest

from cliquecascade import (
    OracleCheck,
    brute_force_clique_law,
    child_count_pmf,
    clique_cascade_size,
    clique_pgf,
    mean_active_of_type,
)
from cliquecascade.cascade_matrix import mean_active_by_type_oracle
from cliquecascade.clique_dynamics import iter_enumerated_outcomes
from cliquecascade.verification import ORACLE_TOL, _pgf_points, oracle_equivalence_checks

from conftest import law_pgf, standard_model_suite


def reference_clique_checks(params):
    """The walk's clique pgf vs the enumerated law's, at fixed points, for every community size."""
    checks = []
    points = _pgf_points(len(child_count_pmf(params).support))
    for w in params.community_sizes.support:
        brute = brute_force_clique_law(params, w)
        worst = max(abs(clique_pgf(params, w, s) - law_pgf(params, brute, s)) for s in points)
        checks.append(OracleCheck(f"clique_law_w{w}", worst, ORACLE_TOL))
        mass = abs(clique_pgf(params, w, points[0]) - 1.0)
        checks.append(OracleCheck(f"clique_law_mass_w{w}", mass, ORACLE_TOL))
        worst_size = 0.0
        for xs, _, outcome in iter_enumerated_outcomes(params, w):
            direct = clique_cascade_size(params.threshold, w, tuple(sorted(xs)))
            worst_size = max(worst_size, float(abs(direct - outcome.ell)))
        checks.append(OracleCheck(f"cascade_size_w{w}", worst_size, 0.0))
    return checks


def reference_matrix_checks(params):
    """Per-type mean counts vs expectation over the enumerated clique law."""
    checks = []
    xp = child_count_pmf(params)
    for w in params.community_sizes.support:
        brute = mean_active_by_type_oracle(brute_force_clique_law(params, w))
        worst = 0.0
        for x in xp.support:
            closed = mean_active_of_type(params, x, w)
            worst = max(worst, abs(closed - brute.get(x, 0)))
        checks.append(OracleCheck(f"mean_active_w{w}", worst, ORACLE_TOL))
    return checks


@pytest.mark.parametrize("params", standard_model_suite())
def test_single_pass_equals_three_pass_reference(params):
    # names, order and floats all exactly equal: verify's report is unchanged
    expected = reference_clique_checks(params) + reference_matrix_checks(params)
    assert oracle_equivalence_checks(params) == expected
