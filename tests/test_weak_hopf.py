"""Axiom checker tests on the built-in Hopf examples and corrupted variants."""

import random
from fractions import Fraction

import pytest

from whakit.examples import group_algebra_zn, sweedler
from whakit.linalg import DimensionMismatch, LinMap, VectorSpace, add_term
from whakit.module_cat import truncated_tensor
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.transmutation import transmute
from whakit.weak_hopf import (NotCertified, VerificationReport,
                              WeakHopfAlgebra, certify, check_weak_hopf,
                              first_mismatch, first_witness, is_hopf,
                              is_regular, map_witness, pair_mult,
                              scalar_table_mismatch)
from whakit.yetter_drinfeld import (AntipodeNotInvertible, functor_F,
                                    regular_rh_comodule, yd_braiding_inv)


@pytest.fixture(scope="module")
def h4():
    H, _ = sweedler()
    certify(H)
    assert H.certified
    return H


@pytest.fixture(scope="module")
def z3():
    H, _ = group_algebra_zn(3)
    certify(H)
    assert H.certified
    return H


def test_sweedler_all_checks_pass(h4):
    report = check_weak_hopf(h4)
    assert report.passed
    assert report.failures == []
    names = report.names()
    for expected in ("algebra_unit", "algebra_associative", "coalgebra_counit",
                     "coalgebra_coassociative", "comult_multiplicative",
                     "unit_comult_compatible", "counit_weak_mult",
                     "counit_weak_mult_op", "antipode_left_cancel",
                     "antipode_right_cancel", "antipode_sandwich",
                     "delta2_fold_right", "delta2_fold_left",
                     "delta2_fold_inner_right", "delta2_fold_inner_left",
                     "counit_absorbs_target", "counit_absorbs_source",
                     "source_slides_split_unit", "target_slides_split_unit",
                     "antipode_inverse_two_sided"):
        assert expected in names


def test_group_algebra_passes_for_small_orders():
    for n in (1, 2, 3, 4, 6):
        H, _ = group_algebra_zn(n)
        report = check_weak_hopf(H)
        assert report.passed, (n, report.first_failure())


def test_hopf_and_regular_flags(h4, z3):
    assert is_hopf(h4)
    assert is_regular(h4)
    assert is_hopf(z3)
    assert is_regular(z3)


def test_sweedler_counital_maps(h4):
    one = h4.unit
    g = h4.basis(1)
    h = h4.basis(2)
    # in the Hopf case both counital maps collapse to eps(x) 1
    assert h4.epsilon_t(g) == one
    assert h4.epsilon_s_map()(g) == one
    assert h4.epsilon_t(h) == {}
    assert h4.epsilon_s_map()(h) == {}
    assert h4.target_space().dim == 1
    assert h4.source_space().dim == 1


def test_counital_maps_idempotent(h4, z3):
    for H in (h4, z3):
        et = H.epsilon_t_map()
        es = H.epsilon_s_map()
        assert et.compose(et) == et
        assert es.compose(es) == es


def test_counit_absorption_pointwise(h4):
    for i in range(h4.dim):
        for j in range(h4.dim):
            g = h4.basis(i)
            h = h4.basis(j)
            plain = counit_of(h4, h4.multiply(g, h))
            absorbed_t = counit_of(h4, h4.multiply(g, h4.epsilon_t(h)))
            absorbed_s = counit_of(h4, h4.multiply(h4.epsilon_s_map()(g), h))
            assert plain == absorbed_t == absorbed_s


def test_antipode_maps_target_onto_source(h4, z3):
    for H in (h4, z3):
        tgt = H.target_space()
        src = H.source_space()
        assert tgt.dim == src.dim
        for j in range(tgt.dim):
            v = H.antipode(tgt.inclusion({j: Fraction(1)}))
            assert src.contains(v)


def test_identity_antipode_fails_cancellation():
    H, _ = sweedler()
    broken = WeakHopfAlgebra(
        name="sweedler-identity-antipode",
        field=H.field,
        labels=H.labels,
        mult={(i, j, k): c for (i, j), prod in H.mult.items()
              for k, c in prod.items()},
        unit=dict(H.unit),
        comult={(i, j, k): c for i, cop in H.comult.items()
                for (j, k), c in cop.items()},
        counit=dict(H.counit),
        antipode={(i, i): Fraction(1) for i in range(H.dim)},
    )
    report = check_weak_hopf(broken)
    assert not report.passed
    failure = report.find("antipode_left_cancel")
    assert failure is not None
    assert not failure.passed
    # the first basis vector violating the axiom is h, at index 2
    assert failure.witness[0] == (2,)


def test_broken_associativity_reports_witness():
    H, _ = group_algebra_zn(3)
    mult = {(i, j, (i + j) % 3): Fraction(1) for i in range(3) for j in range(3)}
    mult[(1, 1, 2)] = Fraction(2)
    broken = WeakHopfAlgebra(
        name="z3-broken-mult",
        field=H.field,
        labels=H.labels,
        mult=mult,
        unit=dict(H.unit),
        comult={(i, i, i): Fraction(1) for i in range(3)},
        counit=dict(H.counit),
        antipode={(i, (-i) % 3): Fraction(1) for i in range(3)},
    )
    report = check_weak_hopf(broken)
    assert not report.passed
    names = [c.name for c in report.failures]
    assert "algebra_associative" in names
    for fail in report.failures:
        assert fail.witness is not None


def test_certify_gates_and_flags():
    H, _ = sweedler()
    assert not H.certified
    with pytest.raises(NotCertified):
        H.require_certified()
    report = certify(H)
    assert report.passed
    H.require_certified()


def test_report_info_entries_do_not_gate():
    report = VerificationReport(subject="demo")
    report.add("hard_check", True)
    report.add("soft_flag", False, severity="info")
    assert report.passed
    assert report.failures == []
    report.add("hard_check_2", False, witness=((0,), {}, {0: 1}))
    assert not report.passed
    assert report.first_failure().name == "hard_check_2"


def counit_of(H, a):
    """The counit of the algebra vector a, read from the counit table."""
    return sum(H.counit.get(i, 0) * x for i, x in a.items())


def _random_vector(rng, H, density=0.7):
    out = {}
    for i in range(H.dim):
        if rng.random() < density:
            num = rng.randint(-4, 4)
            den = rng.choice((1, 1, 2, 3))
            if num:
                out[i] = Fraction(num, den)
    return out


def test_multilinear_identities_on_random_vectors(h4, z3):
    # passing on the basis forces the identity everywhere; spot-check the
    # extension on random non-basis vectors anyway
    rng = random.Random(7)
    cases = [(h4, 50), (z3, 50)]
    for H, rounds in cases:
        for _ in range(rounds):
            u = _random_vector(rng, H)
            v = _random_vector(rng, H)
            du = H.comultiply(u)
            dv = H.comultiply(v)
            assert H.comultiply(H.multiply(u, v)) == pair_mult(H, du, dv)
            left = {}
            right = {}
            for (a, b), c in du.items():
                sb = H.antipode(H.basis(b))
                for t, w in H.multiply({a: c}, sb).items():
                    add_term(left, t, w)
                sa = H.antipode(H.basis(a))
                for t, w in H.multiply(sa, {b: c}).items():
                    add_term(right, t, w)
            assert left == H.epsilon_t(u)
            assert right == H.epsilon_s_map()(u)


def test_counit_weak_mult_on_random_vectors(h4):
    rng = random.Random(11)
    H = h4
    for _ in range(100):
        u = _random_vector(rng, H)
        v = _random_vector(rng, H)
        w = _random_vector(rng, H)
        plain = counit_of(H, H.multiply(H.multiply(u, v), w))
        dv = H.comultiply(v)
        split = Fraction(0)
        split_op = Fraction(0)
        for (a, b), c in dv.items():
            split += (counit_of(H, H.multiply(u, {a: c}))
                      * counit_of(H, H.multiply(H.basis(b), w)))
            split_op += (counit_of(H, H.multiply(u, {b: c}))
                         * counit_of(H, H.multiply({a: Fraction(1)}, w)))
        assert plain == split
        assert plain == split_op


def test_antipode_inverse_checked_when_supplied():
    H, _ = sweedler()
    report = check_weak_hopf(H)
    entry = report.find("antipode_inverse_two_sided")
    assert entry is not None and entry.passed
    # h maps to gh under S and back under the inverse
    h = H.basis(2)
    assert H.antipode_inverse_map(H.antipode(h)) == h
    assert H.antipode(H.antipode(h)) == {2: Fraction(-1)}


def test_missing_antipode_inverse_raises():
    H, _ = group_algebra_zn(2)
    bare = WeakHopfAlgebra(
        name="z2-bare",
        field=H.field,
        labels=H.labels,
        mult={(i, j, (i + j) % 2): Fraction(1)
              for i in range(2) for j in range(2)},
        unit={0: Fraction(1)},
        comult={(i, i, i): Fraction(1) for i in range(2)},
        counit={i: Fraction(1) for i in range(2)},
        antipode={(i, (-i) % 2): Fraction(1) for i in range(2)},
    )
    assert certify(bare).passed
    R = RMatrix(bare, {(0, 0): 1}, {(0, 0): 1})
    assert certify_quasitriangular(bare, R).passed
    B = transmute(bare, R)
    regular = regular_rh_comodule(B)
    square = truncated_tensor(B.module, B.module)
    with pytest.raises(AntipodeNotInvertible):
        yd_braiding_inv(functor_F(regular), square, square)


def test_first_mismatch_reports_the_least_key():
    # (10,) precedes (2,) in repr order, not in key order
    lhs, rhs = {(2,): {0: 1}, (10,): {0: 1}}, {(2,): {0: 2}, (10,): {0: 2}}
    assert first_mismatch(lhs, rhs) == ((2,), {0: 1}, {0: 2})
    assert scalar_table_mismatch({(0, 10): 1, (0, 2): 1},
                                 {(0, 10): 2, (0, 2): 2}) == (
        (0, 2), {0: 1}, {0: 2})


def test_map_witness_names_the_least_differing_entry():
    # (0, 1) is equal on both sides, (1, 0) is on the left alone, (2, 2)
    # is on the right alone, and (1, 1) differs in value
    sp, line = VectorSpace(3), VectorSpace(1)
    lhs = LinMap(sp, sp, {(0, 1): Fraction(1, 2), (1, 0): 3, (1, 1): 1})
    rhs = LinMap(sp, sp, {(0, 1): Fraction(1, 2), (2, 2): 1, (1, 1): 2})
    assert map_witness(lhs, lhs) is None
    assert map_witness(lhs, rhs) == ((1, 0), {(1, 0): 3}, {})
    assert map_witness(rhs, lhs) == ((1, 0), {}, {(1, 0): 3})
    assert map_witness(rhs, LinMap(sp, sp, {(0, 1): Fraction(1, 2),
                                            (1, 1): 2})) == (
        (2, 2), {(2, 2): 1}, {})
    with pytest.raises(DimensionMismatch):
        map_witness(LinMap(sp, line, {}), LinMap(line, sp, {}))


def test_first_witness_stops_at_the_first_witness():
    # check_monoidal_coherence draws its naturality samples from rng only
    # up to the first failing module pair, so no later case may run
    ran = []

    def cases():
        for k in range(4):
            ran.append(k)
            yield (k,), (((), {0: k}, {}) if k >= 1 else None)
    assert first_witness(cases()) == ((1,), {0: 1}, {})
    assert ran == [0, 1]
    assert first_witness((((k,), None) for k in range(3))) is None
    # the key prefixes the witness key; the rest of the witness is kept
    assert first_witness([((2,), ((3, 4), "lhs", "rhs"))]) == (
        (2, 3, 4), "lhs", "rhs")
