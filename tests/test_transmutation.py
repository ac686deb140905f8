"""Transmutation tests: deformed structure tables on the built-in examples.

The Sweedler expectations below were derived by hand.  Writing R0 as
(1/2)(1x1 + 1xg + gx1 - gxg), the adjoint action gives g.h = -h, so the
deformed coproduct of h collapses to gxh + hxg, and g stays group-like.
The antipode cancellation law then forces Sbar(g) = g (from gbar being
group-like with counit 1) and Sbar(h)g = -Sbar(g)h = -gh, hence
Sbar(h) = h and, applying the same law to gh, Sbar(gh) = -gh.
"""

from fractions import Fraction

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import on_leg
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.transmutation import (BraidedHopfAlgebra, CarrierInvariantError,
                                  ComultiplicationEscapesCarrier,
                                  centralizer_subalgebra,
                                  certify_braided_hopf, check_braided_hopf,
                                  transmute)
from whakit.weak_hopf import NotCertified, certify

ONE = Fraction(1)


@pytest.fixture(scope="module")
def h4_setup():
    H, R = sweedler()
    certify(H)
    certify_quasitriangular(H, R)
    B = transmute(H, R)
    certify_braided_hopf(B)
    return H, R, B


@pytest.fixture(scope="module")
def z3_setup():
    H, R = group_algebra_zn(3)
    certify(H)
    certify_quasitriangular(H, R)
    B = transmute(H, R)
    certify_braided_hopf(B)
    return H, R, B


def test_transmute_requires_certification():
    H, R = sweedler()
    with pytest.raises(NotCertified):
        transmute(H, R)
    certify(H)
    with pytest.raises(NotCertified):
        transmute(H, R)


def test_carrier_is_whole_algebra_for_hopf(h4_setup, z3_setup):
    for H, _, B in (h4_setup, z3_setup):
        assert B.carrier.dim == H.dim
        sub = centralizer_subalgebra(H)
        assert sub.dim == H.dim


def test_all_braided_hopf_checks_present(h4_setup):
    _, _, B = h4_setup
    report = check_braided_hopf(B)
    assert report.passed
    for name in ("structure_maps_h_linear", "mult_associative",
                 "unit_absorbs_left", "unit_absorbs_right",
                 "comult_coassociative", "counit_collapses_left",
                 "counit_collapses_right", "comult_multiplicative_braided",
                 "counit_multiplicative", "counit_of_unit",
                 "antipode_cancels_left", "antipode_cancels_right"):
        assert name in report.names()


def test_group_algebra_transmutation_is_untouched(z3_setup):
    """With R = 1x1 every deformed table must agree with the plain one."""
    H, _, B = z3_setup
    assert B.certified
    for i in range(H.dim):
        for j in range(H.dim):
            assert B.mult.get((i, j), {}) == H.mult.get((i, j), {})
        assert B.comult.get(i, {}) == H.comult.get(i, {})
        assert B.antipode_bar({i: ONE}) == H.antipode(H.basis(i))


def test_sweedler_mult_is_undeformed(h4_setup):
    """Split unit 1x1 makes the deformed product plain multiplication."""
    H, _, B = h4_setup
    for i in range(4):
        for j in range(4):
            assert B.mult.get((i, j), {}) == H.mult.get((i, j), {})


def test_sweedler_deformed_coproduct(h4_setup):
    _, _, B = h4_setup
    assert B.comult[0] == {(0, 0): ONE}
    assert B.comult[1] == {(1, 1): ONE}
    assert B.comult[2] == {(1, 2): ONE, (2, 1): ONE}
    assert B.comult[3] == {(0, 3): ONE, (3, 0): ONE}


def test_sweedler_deformed_antipode(h4_setup):
    _, _, B = h4_setup
    assert B.antipode_bar({0: ONE}) == {0: ONE}
    assert B.antipode_bar({1: ONE}) == {1: ONE}
    assert B.antipode_bar({2: ONE}) == {2: ONE}
    assert B.antipode_bar({3: ONE}) == {3: -ONE}


def test_deformed_antipode_is_pinned_by_cancellation(h4_setup):
    """Any map satisfying both cancellation laws agrees with antipode_bar,
    so the frozen table is forced once the report passes."""
    _, _, B = h4_setup
    report = check_braided_hopf(B)
    assert report.find("antipode_cancels_left").passed
    assert report.find("antipode_cancels_right").passed


def test_counit_is_target_projection(h4_setup):
    H, _, B = h4_setup
    tgt = H.target_space()
    for i in range(B.dim):
        amb = B.carrier.inclusion({i: ONE})
        assert B.counit_bar({i: ONE}) == tgt.projection(H.epsilon_t(amb))


def test_unit_embeds_target(h4_setup):
    H, _, B = h4_setup
    tgt = H.target_space()
    for j in range(tgt.dim):
        emb = B.carrier.inclusion(B.unit_bar({j: ONE}))
        assert emb == tgt.inclusion({j: ONE})


EXAMPLES = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_half_braiding_fixes_comult(name):
    """The half-braiding h (x) m -> r^2 R^1 . m (x) r^1 h R^2, with r and R
    two copies of the R-matrix, fixes the deformed coproduct of every
    carrier basis element and keeps it in the carrier."""
    H, R = EXAMPLES[name]()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert certify_braided_hopf(B).passed
    incl, proj = B.carrier.inclusion.columns(), B.carrier.projection.columns()
    # r^2 R^1 (x) r^1 (x) R^2, keyed (r^2 R^1, r^1, R^2)
    movers = on_leg({(q2, p, p2, q): w * w2 for (p, q), w in R.r.items()
                     for (p2, q2), w2 in R.r.items()}, slice(0, 2), H.mult)
    for i in range(B.dim):
        # h (x) m spliced between r^1 and R^2, m after the mover it meets
        t = {(k, b, p2, a, q): c * v for (k, p2, q), c in movers.items()
             for (a, b), v in B.comult.get(i, {}).items()}
        t = on_leg(on_leg(t, 3, incl), slice(0, 2), B.module.action)
        amb = on_leg(on_leg(t, slice(1, 3), H.mult), slice(1, 3), H.mult)
        assert on_leg(on_leg(amb, 1, proj), 1, incl) == amb
        assert on_leg(amb, 1, proj) == B.comult.get(i, {})


def test_escape_error_is_carrier_error():
    assert issubclass(ComultiplicationEscapesCarrier, CarrierInvariantError)
    assert issubclass(CarrierInvariantError, RuntimeError)


@pytest.mark.parametrize("term, where", [
    ((0, 2), "left the carrier square"),
    ((2, 0), "missed the truncated square"),
])
def test_transmute_rejects_a_coproduct_that_escapes(term, where):
    """One R term of coefficient 1 added to a certified groupoid algebra,
    the R-matrix marked certified as if it had passed.  With the term
    (0, 2) a leg of the deformed coproduct of carrier basis 0 leaves the
    carrier; with (2, 0) both legs stay on it, but the pair misses the
    truncated square."""
    H, R = groupoid_algebra(2, 1)
    assert certify(H).passed
    bad = RMatrix(H, {**R.r, term: 1}, R.r_bar)
    bad.certified = True
    with pytest.raises(ComultiplicationEscapesCarrier,
                       match=f"coproduct of carrier basis 0 {where}"):
        transmute(H, bad)


def test_repr_mentions_certification(z3_setup):
    _, _, B = z3_setup
    assert "certified" in repr(B)
    assert isinstance(B, BraidedHopfAlgebra)
