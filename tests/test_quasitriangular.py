"""R-matrix verification tests on the built-in examples."""

from fractions import Fraction

import pytest

from whakit.examples import group_algebra_zn, sweedler
from whakit.quasitriangular import (RMatrix, certify_quasitriangular,
                                    check_derived_r_identities,
                                    check_quasitriangular, flip_pairs,
                                    is_triangular, solve_r_bar)
from whakit.weak_hopf import NotCertified, certify, pair_mult


@pytest.fixture(scope="module")
def h4_pair():
    H, R = sweedler()
    certify(H)
    certify_quasitriangular(H, R)
    return H, R


@pytest.fixture(scope="module")
def z4_pair():
    H, R = group_algebra_zn(4)
    certify(H)
    certify_quasitriangular(H, R)
    return H, R


def test_sweedler_r_matrix_certifies(h4_pair):
    H, R = h4_pair
    assert R.certified
    report = check_quasitriangular(H, R)
    assert report.passed
    for name in ("r_in_truncated_corner", "r_inverse_in_opposite_corner",
                 "comult_second_leg_of_r", "comult_first_leg_of_r",
                 "r_intertwines_comult", "weak_inverse_right",
                 "weak_inverse_left", "r_sandwich_stable",
                 "r_inverse_sandwich_stable", "yang_baxter", "triangular"):
        assert name in report.names()


def test_group_algebra_r_matrix_certifies(z4_pair):
    H, R = z4_pair
    assert R.certified
    assert is_triangular(R)
    assert check_quasitriangular(H, R).passed


def test_sweedler_structure_is_triangular(h4_pair):
    _, R = h4_pair
    assert is_triangular(R)
    assert R.r_bar == flip_pairs(R.r)


def test_triangular_entry_is_informational(h4_pair):
    H, R = h4_pair
    report = check_quasitriangular(H, R)
    entry = report.find("triangular")
    assert entry is not None
    assert entry.severity == "info"


def test_uncertified_algebra_is_rejected():
    H, R = sweedler()
    with pytest.raises(NotCertified):
        check_quasitriangular(H, R)


def test_foreign_r_matrix_is_rejected(h4_pair):
    H, _ = h4_pair
    other, R_other = group_algebra_zn(2)
    certify(other)
    with pytest.raises(ValueError):
        check_quasitriangular(H, R_other)


def test_derived_identities_pass(h4_pair, z4_pair):
    for H, R in (h4_pair, z4_pair):
        report = check_derived_r_identities(H, R)
        assert report.passed
        assert all(c.severity == "internal" for c in report.checks)
        for name in ("slide_target_across_r", "slide_source_across_r",
                     "antipode_swaps_target_before_r",
                     "antipode_swaps_source_before_r",
                     "antipode_swaps_source_after_r",
                     "antipode_swaps_target_after_r",
                     "source_counit_collapses_first_leg",
                     "source_counit_collapses_second_leg",
                     "target_counit_collapses_first_leg",
                     "target_counit_collapses_second_leg"):
            assert name in report.names()


def test_derived_identities_require_certified_r():
    H, R = sweedler()
    certify(H)
    with pytest.raises(NotCertified):
        check_derived_r_identities(H, R)


def test_hopf_counit_collapse_degenerates(h4_pair):
    # with coproduct of 1 equal to 1 tensor 1, the counital images of R
    # collapse to 1 tensor 1
    H, R = h4_pair
    es = H.epsilon_s_map()
    collapsed = {}
    for (a, b), v in R.r.items():
        for u, c in es({a: v}).items():
            key = (u, b)
            collapsed[key] = collapsed.get(key, Fraction(0)) + c
    collapsed = {k: v for k, v in collapsed.items() if v}
    assert collapsed == {(0, 0): Fraction(1)}


def test_corrupted_r_fails_with_witness(h4_pair):
    H, _ = h4_pair
    half = Fraction(1, 2)
    bad = RMatrix(H, {(0, 0): half, (0, 1): half, (1, 0): half,
                      (1, 1): half}, {(0, 0): Fraction(1)})
    report = check_quasitriangular(H, bad)
    assert not report.passed
    first = report.first_failure()
    assert first is not None
    assert first.witness is not None
    assert not bad.certified


def test_certify_leaves_flag_down_on_failure(h4_pair):
    H, _ = h4_pair
    bad = RMatrix(H, {(0, 0): Fraction(1)}, {(0, 0): Fraction(1)})
    report = certify_quasitriangular(H, bad)
    assert not report.passed
    assert not bad.certified


def test_solve_r_bar_recovers_inverse(h4_pair, z4_pair):
    for H, R in (h4_pair, z4_pair):
        found = solve_r_bar(H, R.r)
        assert found == R.r_bar


def test_solve_r_bar_rejects_unsolvable(h4_pair):
    H, _ = h4_pair
    assert solve_r_bar(H, {}) is None


def test_yang_baxter_holds_numerically(h4_pair):
    # sanity: contract the three-leg products directly on the certified R
    H, R = h4_pair
    r = R.r
    unit_items = list(H.unit.items())
    r12 = {(a, b, u): v * c for (a, b), v in r.items() for u, c in unit_items}
    r13 = {(a, u, b): v * c for (a, b), v in r.items() for u, c in unit_items}
    r23 = {(u, a, b): v * c for (a, b), v in r.items() for u, c in unit_items}
    from whakit.linalg import act
    cube = (H.mult, H.mult, H.mult)
    lhs = act(cube, r12, act(cube, r13, r23))
    rhs = act(cube, r23, act(cube, r13, r12))
    assert lhs == rhs


def test_weak_inverse_products(h4_pair):
    H, R = h4_pair
    d1 = H.delta_one()
    assert pair_mult(H, R.r, R.r_bar) == flip_pairs(d1)
    assert pair_mult(H, R.r_bar, R.r) == d1
