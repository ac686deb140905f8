"""R-matrix verification tests on the built-in examples."""

from fractions import Fraction

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import on_leg
from whakit.quasitriangular import (RMatrix, certify_quasitriangular,
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


EXAMPLES = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_derived_r_identities_hold(name):
    """Consequences of the quasitriangular axioms: the target and source
    subalgebras slide across R, the antipode swaps them between its legs,
    and the counital maps collapse one leg of R onto the split unit.  They
    hold wherever R certifies, so a failure means act or on_leg is
    broken."""
    H, R = EXAMPLES[name]()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    r, S = R.r, H.antipode

    def mul(z, pos, leg):
        # z inserted as leg pos of R, then multiplied into leg `leg`
        return on_leg({k[:pos] + (p,) + k[pos:]: v * c for k, v in r.items()
                       for p, c in z.items()}, slice(leg, leg + 2), H.mult)
    tgt, src = H.target_space(), H.source_space()
    for identity, sub, sides in (
            ("slide_target_across_r", tgt,
             lambda z: (mul(z, 1, 1), mul(z, 1, 0))),
            ("antipode_swaps_target_before_r", tgt,
             lambda z: (mul(z, 0, 0), mul(S(z), 1, 1))),
            ("antipode_swaps_target_after_r", tgt,
             lambda z: (mul(z, 2, 1), mul(S(z), 1, 0))),
            ("slide_source_across_r", src,
             lambda y: (mul(y, 0, 0), mul(y, 2, 1))),
            ("antipode_swaps_source_before_r", src,
             lambda y: (mul(y, 1, 1), mul(S(y), 0, 0))),
            ("antipode_swaps_source_after_r", src,
             lambda y: (mul(y, 1, 0), mul(S(y), 2, 1)))):
        for j in range(sub.dim):
            lhs, rhs = sides(sub.inclusion.column(j))
            assert lhs == rhs, (identity, j)

    d1, s_table = H.delta_one(), H.antipode_map.columns()
    es, et = H.epsilon_s_map().columns(), H.epsilon_t_map().columns()
    # the source and target counits collapse the first, then second leg
    assert on_leg(r, 0, es) == d1
    assert on_leg(r, 1, es) == flip_pairs(on_leg(d1, 1, s_table))
    assert on_leg(r, 0, et) == flip_pairs(d1)
    assert on_leg(r, 1, et) == on_leg(d1, 0, s_table)


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
