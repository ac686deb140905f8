"""Truncated tensor product and coherence tests on the built-in examples."""

import random
from fractions import Fraction
from itertools import product

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import (DimensionMismatch, LinMap, VectorSpace, act,
                           on_leg, permute, split_idempotent, unflatten)
from whakit.module_cat import (HModule, act_pair, braiding_c,
                               braiding_c_inv, carrier_mismatch, check_module,
                               check_monoidal_coherence, h_linear_mismatch,
                               left_unitor, regular_module, right_unitor,
                               sample_endomorphisms, triple_projector,
                               truncated_morphism, truncated_tensor,
                               truncation_projector, unit_object)
from whakit.quasitriangular import certify_quasitriangular
from whakit.transmutation import transmute
from whakit.weak_hopf import NotCertified, certify, first_unequal
from whakit.yetter_drinfeld import (_braid_step, comodule_braiding,
                                    comodule_braiding_inv, induced_yd,
                                    regular_rh_comodule, trivial_comodule,
                                    yd_braiding)


@pytest.fixture(scope="module")
def h4_pair():
    H, R = sweedler()
    certify(H)
    certify_quasitriangular(H, R)
    return H, R


@pytest.fixture(scope="module")
def z3_pair():
    H, R = group_algebra_zn(3)
    certify(H)
    certify_quasitriangular(H, R)
    return H, R


def test_regular_module_passes(h4_pair):
    H, _ = h4_pair
    report = check_module(regular_module(H))
    assert report.passed
    assert "action_of_unit" in report.names()
    assert "action_respects_products" in report.names()


def test_unit_object_passes(h4_pair, z3_pair):
    for H, _ in (h4_pair, z3_pair):
        U = unit_object(H)
        assert check_module(U).passed
        assert U.dim == H.target_space().dim


def test_transposed_regular_action_fails(h4_pair):
    H, _ = h4_pair
    M = regular_module(H)
    flipped = {}
    for i in range(H.dim):
        for (r, c), v in M.rho(i).entries.items():
            flipped[(i, c, r)] = v
    bad = HModule(H, M.space, flipped)
    report = check_module(bad)
    assert not report.passed
    failure = report.first_failure()
    assert failure.name == "action_respects_products"
    assert failure.witness is not None


def test_uncertified_algebra_rejected():
    H, _ = sweedler()
    with pytest.raises(NotCertified):
        regular_module(H)


def test_truncated_tensor_is_full_for_hopf(h4_pair, z3_pair):
    for H, _ in (h4_pair, z3_pair):
        M = regular_module(H)
        tt = truncated_tensor(M, M)
        assert tt.dim == H.dim * H.dim
        assert check_module(tt).passed


def per_column_action(tt):
    """The action table of tt, one carrier column at a time."""
    H = tt.algebra
    embedded = tt.inclusion_table()
    table = {}
    for i in range(H.dim):
        for j in range(tt.dim):
            rows = tt.project_pairs(
                act_pair(tt.left, tt.right, H.comult.get(i, {}), embedded[j]))
            if rows:
                table[(i, j)] = rows
    return table


@pytest.mark.parametrize("build", [
    sweedler, lambda: group_algebra_zn(3), lambda: group_algebra_zn_anyonic(3),
    lambda: groupoid_algebra(2, 2), lambda: groupoid_algebra(3, 2)],
    ids=["sweedler", "z3", "anyonic_z3", "groupoid_2x2", "groupoid_3x2"])
def test_batched_action_matches_per_column(build):
    H, _ = build()
    certify(H)
    M, U = regular_module(H), unit_object(H)
    tts = [truncated_tensor(A, B) for A in (M, U) for B in (M, U)]
    tts += [truncated_tensor(truncated_tensor(M, U), M),
            truncated_tensor(M, truncated_tensor(U, M)),
            truncated_tensor(truncated_tensor(U, U), U),
            truncated_tensor(U, truncated_tensor(U, U))]
    for tt in tts:
        reference = per_column_action(tt)
        assert tt.action == reference
        # key and row order too: elimination breaks ties by key order
        assert [(k, list(rows.items())) for k, rows in tt.action.items()] == [
            (k, list(rows.items())) for k, rows in reference.items()]
        for i in range(H.dim):
            assert tt.rho(i).entries == {
                (r, j): c for (k, j), rows in reference.items() if k == i
                for r, c in rows.items()}


def per_column_map(source, target, f):
    """carrier_map one column at a time: f, which takes no column leg,
    acts on the pair-keyed embedding of each carrier basis vector alone."""
    embedded = source.inclusion_table()
    return LinMap.from_function(source.space, target.space, lambda j: (
        target.project_pairs(f(embedded[j]))))


def per_column_mismatch(carrier, dims, lhs, rhs):
    """carrier_mismatch one column at a time, stopping at the first
    column where the two sides differ."""
    def sides(j):
        x = unflatten(carrier.inclusion.column(j), dims)
        return lhs(x), rhs(x)
    return first_unequal(product(range(carrier.dim)), sides)


def assert_same_map(batched, reference):
    # entry order too: a map's entries feed elimination, whose ties
    # follow key order
    assert list(batched.entries.items()) == list(reference.entries.items())
    assert batched == reference


BUILDS = [sweedler, lambda: group_algebra_zn(3),
          lambda: group_algebra_zn_anyonic(3), lambda: groupoid_algebra(2, 2)]
BUILD_IDS = ["sweedler", "z3", "anyonic_z3", "groupoid_2x2"]


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_batched_carrier_maps_match_per_column(build):
    H, R = build()
    certify(H)
    certify_quasitriangular(H, R)
    M, U = regular_module(H), unit_object(H)
    rng = random.Random(0)
    for A, C in ((M, U), (U, M), (M, M)):
        ac, ca = truncated_tensor(A, C), truncated_tensor(C, A)
        assert_same_map(braiding_c(ac, ca, R), per_column_map(
            ac, ca, lambda x: permute(act_pair(A, C, R.r, x), (1, 0))))
        assert_same_map(braiding_c_inv(ca, ac, R), per_column_map(
            ca, ac, lambda x: act_pair(A, C, R.r_bar, permute(x, (1, 0)))))
        for f, g in product(sample_endomorphisms(A, rng),
                            sample_endomorphisms(C, rng)):
            assert_same_map(truncated_morphism(ac, ac, f, g), per_column_map(
                ac, ac, lambda x: on_leg(on_leg(x, 0, f.columns()), 1,
                                         g.columns())))
        Y = induced_yd(A, R)
        assert_same_map(yd_braiding(Y, ac, ca), per_column_map(
            ac, ca, lambda x: on_leg(permute(on_leg(x, 0, Y.table()),
                                             (0, 2, 1)), slice(0, 2),
                                     C.action)))

    B = transmute(H, R)
    untwist = H.antipode_inverse_map.columns()
    for V in (regular_rh_comodule(B), trivial_comodule(B, M)):
        for C in (M, B.module):
            vc = truncated_tensor(V.module, C)
            cv = truncated_tensor(C, V.module)
            assert_same_map(comodule_braiding(V, vc, cv), per_column_map(
                vc, cv, lambda x: _braid_step(V, C, x, 0, None)))
            assert_same_map(comodule_braiding_inv(V, cv, vc), per_column_map(
                cv, vc, lambda x: permute(_braid_step(
                    V, C, permute(x, (1, 0)), 0, untwist), (1, 0))))


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_failing_carrier_mismatch_matches_per_column_search(build):
    H, R = build()
    certify(H)
    M, U = regular_module(H), unit_object(H)
    for A, C in ((M, M), (U, M)):
        tt = truncated_tensor(A, C)
        dims = (A.dim, C.dim)
        # two legs kept: the split unit acts on the right leg through a
        # doubled action row, one that the unit's right legs act by
        terms = H.delta_one()
        rows = sorted(k for k in C.action if k[0] in {q for _, q in terms})
        bad_action = dict(C.action)
        row = rows[len(rows) // 2]
        bad_action[row] = {k: 2 * c for k, c in bad_action[row].items()}
        witness = carrier_mismatch(
            tt.carrier, dims,
            lambda x: act((A.action, C.action, None), terms, x),
            lambda x: act((A.action, bad_action, None), terms, x))
        assert witness == per_column_mismatch(
            tt.carrier, dims, lambda x: act((A.action, C.action), terms, x),
            lambda x: act((A.action, bad_action), terms, x))
        assert witness is not None
    tt = truncated_tensor(M, M)
    # one leg kept: the column is a vector on bare indices; one doubled
    # row of the product, met by some carrier columns only
    pairs = {k for col in tt.inclusion_table().values() for k in col}
    keys = sorted(pairs & set(H.mult))
    key = keys[len(keys) // 2]
    bad = {**H.mult, key: {k: 2 * c for k, c in H.mult[key].items()}}
    witness = carrier_mismatch(
        tt.carrier, (H.dim, H.dim),
        lambda x: on_leg(x, slice(0, 2), H.mult),
        lambda x: on_leg(x, slice(0, 2), bad))
    assert witness == per_column_mismatch(
        tt.carrier, (H.dim, H.dim), H.fold,
        lambda x: {k: c for (k,), c in on_leg(x, slice(0, 2), bad).items()})
    assert witness is not None


def assert_validated(f):
    """f holds what LinMap's own checks would leave: no zero entry, no
    entry out of range."""
    assert all(v != 0 for v in f.entries.values())
    assert all(0 <= r < f.codomain.dim and 0 <= c < f.domain.dim
               for r, c in f.entries)
    assert f == LinMap(f.domain, f.codomain, f.entries)


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_adopted_maps_pass_the_public_checks(build):
    H, R = build()
    certify(H)
    certify_quasitriangular(H, R)
    M, U = regular_module(H), unit_object(H)
    assert_validated(triple_projector(M, U, M))
    split3 = split_idempotent(triple_projector(M, M, U))
    assert_validated(split3.inclusion)
    assert_validated(split3.projection)
    rng = random.Random(0)
    for A, C in ((M, U), (U, M), (M, M)):
        ac, ca = truncated_tensor(A, C), truncated_tensor(C, A)
        assert_validated(truncation_projector(A, C))
        assert_validated(ac.carrier.inclusion)
        assert_validated(ac.carrier.projection)
        c = braiding_c(ac, ca, R)
        c_inv = braiding_c_inv(ca, ac, R)
        assert_validated(c)
        assert_validated(c_inv.compose(c))
        assert_validated(ac.carrier.inclusion.compose(ac.carrier.projection))
        for f, g in product(sample_endomorphisms(A, rng),
                            sample_endomorphisms(C, rng)):
            assert_validated(truncated_morphism(ac, ac, f, g))
    assert_validated(LinMap.identity(M.space))


def test_built_modules_keep_key_validation(h4_pair):
    H, _ = h4_pair
    with pytest.raises(DimensionMismatch):
        HModule(H, VectorSpace(2), {(0, 2, 0): 1})
    with pytest.raises(DimensionMismatch):
        HModule(H, VectorSpace(2), {(H.dim, 0, 0): 1})


def test_truncation_projector_idempotent(h4_pair):
    H, _ = h4_pair
    M = regular_module(H)
    P = truncation_projector(M, M)
    assert P.compose(P) == P


def test_embed_project_roundtrip(z3_pair):
    H, _ = z3_pair
    M = regular_module(H)
    tt = truncated_tensor(M, M)
    for j in range(tt.dim):
        pd = tt.embed_pairs({j: Fraction(1)})
        assert tt.project_pairs(pd) == {j: Fraction(1)}


def test_unitors_are_mutually_inverse(h4_pair):
    H, _ = h4_pair
    M = regular_module(H)
    unit = unit_object(H)
    lt = truncated_tensor(unit, M)
    rt = truncated_tensor(M, unit)
    l, l_inv = left_unitor(lt)
    r, r_inv = right_unitor(rt)
    assert l.compose(l_inv).is_identity()
    assert l_inv.compose(l).is_identity()
    assert r.compose(r_inv).is_identity()
    assert r_inv.compose(r).is_identity()
    assert h_linear_mismatch(l, lt, M) is None
    assert h_linear_mismatch(r, rt, M) is None


def test_unitors_reject_carriers_without_the_unit_leg(h4_pair):
    H, _ = h4_pair
    M = regular_module(H)
    unit = unit_object(H)
    with pytest.raises(ValueError, match="unit object on the left leg"):
        left_unitor(truncated_tensor(M, M))
    with pytest.raises(ValueError, match="unit object on the left leg"):
        left_unitor(truncated_tensor(M, unit))
    with pytest.raises(ValueError, match="unit object on the right leg"):
        right_unitor(truncated_tensor(M, M))
    with pytest.raises(ValueError, match="unit object on the right leg"):
        right_unitor(truncated_tensor(unit, M))


def test_left_unitor_on_unit_square_is_multiplication(h4_pair, z3_pair):
    """On the unit object itself the unitor collapses pairs by multiplying."""
    for H, _ in (h4_pair, z3_pair):
        unit = unit_object(H)
        tgt = unit.target
        tt = truncated_tensor(unit, unit)
        l, _ = left_unitor(tt)
        for j in range(tt.dim):
            out = {}
            for (a, b), v in tt.embed_pairs({j: Fraction(1)}).items():
                prod = H.multiply(tgt.inclusion({a: v}),
                                  tgt.inclusion({b: Fraction(1)}))
                for t, c in tgt.projection(prod).items():
                    out[t] = out.get(t, 0) + c
            out = {k: v for k, v in out.items() if v}
            assert out == l({j: Fraction(1)})


def test_braiding_is_flip_for_group_algebra(z3_pair):
    H, R = z3_pair
    M = regular_module(H)
    tt = truncated_tensor(M, M)
    c = braiding_c(tt, tt, R)
    n = H.dim
    flip_entries = {}
    for a in range(n):
        for b in range(n):
            flip_entries[(b * n + a, a * n + b)] = Fraction(1)
    assert c == LinMap(tt.space, tt.space, flip_entries)


def test_triangular_braiding_squares_to_identity(h4_pair):
    H, R = h4_pair
    M = regular_module(H)
    N = unit_object(H)
    mn = truncated_tensor(M, N)
    nm = truncated_tensor(N, M)
    forward = braiding_c(mn, nm, R)
    back = braiding_c(nm, mn, R)
    assert back.compose(forward).is_identity()
    assert forward.compose(back).is_identity()


def test_braiding_inverse_matches(h4_pair):
    H, R = h4_pair
    M = regular_module(H)
    mm = truncated_tensor(M, M)
    forward = braiding_c(mm, mm, R)
    inverse = braiding_c_inv(mm, mm, R)
    assert inverse.compose(forward).is_identity()


def test_braidings_reject_carriers_that_do_not_match(h4_pair):
    H, R = h4_pair
    M = regular_module(H)
    N = unit_object(H)
    mn = truncated_tensor(M, N)
    nm = truncated_tensor(N, M)
    other = truncated_tensor(M, M)
    for source, target in ((mn, mn), (mn, other), (other, nm)):
        with pytest.raises(ValueError):
            braiding_c(source, target, R)
        with pytest.raises(ValueError):
            braiding_c_inv(source, target, R)
    # the legs are compared by identity: an equal module built again is
    # another object
    with pytest.raises(ValueError):
        braiding_c(mn, truncated_tensor(unit_object(H), M), R)
    assert braiding_c(mn, nm, R).domain.dim == mn.dim


def test_coherence_sweedler(h4_pair):
    H, R = h4_pair
    modules = [regular_module(H), unit_object(H)]
    report = check_monoidal_coherence(H, R, modules, rng=random.Random(3))
    assert report.passed
    for name in ("module_axioms", "unitors_mutually_inverse",
                 "unitors_h_linear", "unit_triangle",
                 "truncated_action_well_defined", "braiding_invertible",
                 "braiding_h_linear", "braiding_natural",
                 "nested_carriers_coincide", "hexagon_forward",
                 "hexagon_backward"):
        assert name in report.names()


def test_coherence_group_algebra(z3_pair):
    H, R = z3_pair
    modules = [regular_module(H), unit_object(H)]
    report = check_monoidal_coherence(H, R, modules, rng=random.Random(5))
    assert report.passed


def test_coherence_catches_corrupted_braiding(z3_pair):
    """A wrong R-matrix must surface as a hexagon or naturality failure."""
    H, _ = z3_pair
    from whakit.quasitriangular import RMatrix
    bad = RMatrix(H, {(1, 1): Fraction(1)}, {(2, 2): Fraction(1)})
    bad.certified = True
    modules = [regular_module(H)]
    report = check_monoidal_coherence(H, bad, modules)
    assert not report.passed
    # a triple of module indices, then the carrier column
    for name in ("hexagon_forward", "hexagon_backward"):
        key, lhs, rhs = report.find(name).witness
        assert key == (0, 0, 0, 0)
        assert lhs and lhs != rhs
