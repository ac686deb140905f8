"""Transmutation tests: deformed structure tables on the built-in examples.

The Sweedler expectations below were derived by hand.  Writing R0 as
(1/2)(1x1 + 1xg + gx1 - gxg), the adjoint action gives g.h = -h, so the
deformed coproduct of h collapses to gxh + hxg, and g stays group-like.
The antipode cancellation law then forces Sbar(g) = g (from gbar being
group-like with counit 1) and Sbar(h)g = -Sbar(g)h = -gh, hence
Sbar(h) = h and, applying the same law to gh, Sbar(gh) = -gh.
"""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

import test_report_snapshot as snap
from test_linalg import by_columns
from test_module_cat import assert_same_map
from test_yetter_drinfeld import dense_basis, rebased
from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import (DimensionMismatch, VectorSpace, flatten, on_leg,
                           outer, permute)
from whakit.module_cat import (HModule, left_unitor, regular_module,
                               right_unitor, truncated_tensor, unit_object)
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.transmutation import (BraidedHopfAlgebra, CarrierInvariantError,
                                  ComultiplicationEscapesCarrier,
                                  centralizer_subalgebra,
                                  certify_braided_hopf, check_braided_hopf,
                                  transmute)
from whakit.weak_hopf import NotCertified, WeakHopfAlgebra, certify

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


@pytest.mark.parametrize("k, G, table, key, message", [
    (2, 1, "mult", (0, 0, 1), "does not commute with the source subalgebra"),
    (2, 1, "mult", (1, 0, 3), "adjoint action left the carrier"),
    (2, 1, "comult", (0, 0, 1), "target subalgebra does not embed"),
    (2, 2, "mult", (1, 1, 2), "not closed under multiplication"),
], ids=["commute", "adjoint", "unit", "closure"])
def test_transmute_raises_at_the_first_broken_invariant(k, G, table, key,
                                                        message):
    """A groupoid algebra rebuilt with 1 added to one entry of one table,
    H and its own R marked certified as if they had passed: transmute
    raises CarrierInvariantError itself, for the first invariant the
    entry breaks.  No single entry reaches the antipode's raise, since
    the coproduct's fires first."""
    H, R = groupoid_algebra(k, G)
    t = snap._tables(H, R)
    t[table] = {**t[table], key: t[table].get(key, 0) + 1}
    r, r_bar = t.pop("r"), t.pop("r_bar")
    H2 = WeakHopfAlgebra(name=f"{H.name}~{table}{key}", field=H.field,
                         labels=H.labels, **t)
    R2 = RMatrix(H2, r, r_bar)
    H2.certified = R2.certified = True
    with pytest.raises(CarrierInvariantError, match=message) as info:
        transmute(H2, R2)
    assert type(info.value) is CarrierInvariantError


def with_tables(B, mult=None, comult=None):
    return BraidedHopfAlgebra(B.algebra, B.rmatrix, B.carrier, B.module,
                              B.square, B.unit_module, mult or B.mult,
                              comult or B.comult, B.counit_bar,
                              B.antipode_bar, B.unit_bar)


@pytest.mark.parametrize("table, bad, named", [
    ("comult", {1: {(7, 0): 1}}, "comult 1: key (7, 0)"),
    ("comult", {3: {(0, 0): 1}}, "comult: key 3"),
    ("mult", {(0, 1): {5: 1}}, "mult (0, 1): key 5"),
    ("mult", {(0, 3): {0: 1}}, "mult: key (0, 3)"),
], ids=["comult_pair", "comult_column", "mult_row", "mult_pair"])
def test_braided_hopf_algebra_checks_its_tables(z3_setup, table, bad, named):
    """A key out of range in either table raises DimensionMismatch naming
    the table and the key; without the check, comult_bar would drop it
    silently.  Zeros are dropped, and in-range tables construct."""
    _, _, B = z3_setup
    own = getattr(B, table)
    with pytest.raises(DimensionMismatch, match=re.escape(named)):
        with_tables(B, **{table: {**own, **bad}})
    zeroed = with_tables(B, comult={**B.comult, 0: {**B.comult[0], (2, 2): 0}})
    assert zeroed.comult == B.comult and zeroed.comult_bar == B.comult_bar
    doubled = {**B.mult, (1, 1): {k: 2 * c for k, c in B.mult[(1, 1)].items()}}
    assert with_tables(B, mult=doubled).mult == doubled


# Per-basis references: each map that transmute, unit_object and the
# unitors build by one contraction over all columns, built here one basis
# vector at a time.

def coords(sub, vec):
    """The subspace coordinates of one vector lying in sub."""
    c, inside = sub.locate({(i,): v for i, v in vec.items()}, 0,
                           (sub.ambient.dim,))
    assert inside
    return {j: v for (j,), v in c.items()}


def reference_unit_action(H):
    tgt = H.target_space()
    action = {}
    for j in range(tgt.dim):
        z = tgt.inclusion.column(j)
        for i in range(H.dim):
            out = H.epsilon_t(H.multiply(H.basis(i), z))
            for r, c in tgt.projection(out).items():
                action[(i, r, j)] = c
    return HModule(H, VectorSpace(tgt.dim), action).action


def reference_unitor(tt, unit_leg):
    m_leg = 1 - unit_leg
    M, unit = (tt.right, tt.left) if unit_leg == 0 else (tt.left, tt.right)
    H, tgt = M.algebra, unit.target
    acting = tgt.inclusion.columns()
    if unit_leg == 1:
        acting = {a: H.antipode(z) for a, z in acting.items()}
    embedded = tt.inclusion_table()

    def collapse(j):
        t = on_leg(permute(embedded[j], (unit_leg, m_leg)), 0, acting)
        return {r: c for (r,), c in on_leg(t, slice(0, 2), M.action).items()}

    eps = {k[unit_leg]: tgt.projection(H.epsilon_t(H.basis(k[unit_leg])))
           for k in H.delta_one()}
    split = on_leg(H.delta_one(), unit_leg, eps)

    def expand(m):
        t = {k[:m_leg + 1] + (m,) + k[m_leg + 1:]: c for k, c in split.items()}
        return tt.carrier.projection(flatten(
            on_leg(t, slice(m_leg, m_leg + 2), M.action), tt.dims))
    return (by_columns(tt.space, M.space, collapse),
            by_columns(M.space, tt.space, expand))


def reference_transmute(H, R, B):
    """The adjoint action, the product and coproduct tables and the five
    bar maps of B, each built per basis vector on B's own carrier."""
    carrier, square, U = B.carrier, B.square, B.unit_module
    tgt, S = U.target, H.antipode_map.columns()
    col = carrier.inclusion.column
    adjoint = {}
    for j in range(carrier.dim):
        for i in range(H.dim):
            t = {(a, p, b): v * c for (a, b), v in H.comult.get(i, {}).items()
                 for p, c in col(j).items()}
            for r, c in coords(carrier, H.fold(on_leg(t, 2, S))).items():
                adjoint[(i, r, j)] = c
    mult = {}
    for i, j in product(range(carrier.dim), repeat=2):
        if prod := H.multiply(col(i), col(j)):
            mult[(i, j)] = coords(carrier, prod)
    comult = {}
    for i in range(carrier.dim):
        t = permute(outer(H.comultiply(col(i)), R.r), (0, 3, 2, 1))
        t = on_leg(on_leg(t, 1, S), slice(0, 2), H.mult)
        t = on_leg(permute(on_leg(t, 1, H.comult), (0, 1, 3, 2)), 3, S)
        pd = on_leg(on_leg(t, slice(1, 3), H.mult), slice(1, 3), H.mult)
        pd, first = carrier.locate(pd, 0, (H.dim,))
        comult[i], second = carrier.locate(pd, 1, (H.dim,))
        assert first and second
    embedded = square.inclusion_table()
    pairs = permute(outer(R.r, R.r), (0, 2, 1, 3))

    def antipode_column(i):
        t = {(p, a, p2, q, q2): c * x for (p, p2, q, q2), c in pairs.items()
             for a, x in col(i).items()}
        t = on_leg(on_leg(on_leg(t, 2, S), slice(0, 2), H.mult), slice(0, 2),
                   H.mult)
        return coords(carrier, H.fold(permute(on_leg(t, 0, S), (1, 2, 0))))
    return {
        "adjoint": HModule(H, VectorSpace(carrier.dim), adjoint).action,
        "mult": mult, "comult": comult,
        "mult_bar": by_columns(square.space, B.space,
                               lambda j: B.fold(embedded[j])),
        "comult_bar": by_columns(B.space, square.space, lambda i: (
            square.carrier.projection(flatten(comult[i], square.dims)))),
        "counit_bar": by_columns(B.space, U.space, lambda i: tgt.projection(
            H.epsilon_t(col(i)))),
        "unit_bar": by_columns(U.space, B.space, lambda j: coords(
            carrier, tgt.inclusion.column(j))),
        "antipode_bar": by_columns(B.space, B.space, antipode_column)}


def typed(table):
    """The entries of a nested table in order, each with its scalar type:
    an int 1 and Fraction(1) compare equal, so == alone would not tell
    them apart."""
    return [(k, r, c, type(c)) for k, row in table.items()
            for r, c in row.items()]


IDENTITY_ALGEBRAS = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "z8": lambda: group_algebra_zn(8),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "anyonic_z4": lambda: group_algebra_zn_anyonic(4),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
    "groupoid_3x2": lambda: groupoid_algebra(3, 2),
    "rebased_sweedler": lambda: rebased(
        *sweedler(), dense_basis(random.Random(1), 4)),
    "rebased_groupoid_2x1": lambda: rebased(
        *groupoid_algebra(2, 1), dense_basis(random.Random(0), 4)),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_ALGEBRAS))
def test_contracted_builders_match_per_basis(name):
    """Every table and map that transmute, unit_object and the unitors
    build by one contraction over all columns equals its per-basis
    reference, key order and scalar types included."""
    H, R = IDENTITY_ALGEBRAS[name]()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    ref = reference_transmute(H, R, B)
    for got, want in ((B.module.action, ref["adjoint"]), (B.mult, ref["mult"]),
                      (B.comult, ref["comult"]),
                      (unit_object(H).action, reference_unit_action(H))):
        assert typed(got) == typed(want)
    for attr in ("mult_bar", "comult_bar", "counit_bar", "unit_bar",
                 "antipode_bar"):
        assert_same_map(getattr(B, attr), ref[attr])
        assert typed(getattr(B, attr).columns()) == typed(ref[attr].columns())
    unit = unit_object(H)
    for M in (regular_module(H), unit, B.module):
        for unitor, tt, leg in ((left_unitor, truncated_tensor(unit, M), 0),
                                (right_unitor, truncated_tensor(M, unit), 1)):
            for got, want in zip(unitor(tt), reference_unitor(tt, leg)):
                assert_same_map(got, want)
                assert typed(got.columns()) == typed(want.columns())
