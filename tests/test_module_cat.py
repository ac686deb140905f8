"""Truncated tensor product and coherence tests on the built-in examples."""

import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest

import test_report_snapshot as snap
from test_examples import ALL_EXAMPLES, sparse_basis
from test_linalg import by_columns
from test_yetter_drinfeld import rebased
from whakit import linalg, module_cat
from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import (DimensionMismatch, LinMap, NotIdempotent,
                           VectorSpace, act, flatten, on_leg, permute,
                           split_idempotent, unflatten)
from whakit.module_cat import (HModule, TruncatedTensor, act_pair, braiding_c,
                               braiding_c_inv, carrier_map, carrier_mismatch,
                               check_module, check_monoidal_coherence,
                               h_linear_mismatch, left_unitor, regular_module,
                               right_unitor, triple_projector, truncated_tensor,
                               truncation_projector, unit_object)
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.transmutation import transmute
from whakit.weak_hopf import NotCertified, certify, first_unequal
from whakit.yetter_drinfeld import (check_equivalence_roundtrip, functor_F,
                                    induced_yd, regular_rh_comodule,
                                    trivial_comodule, yd_braiding,
                                    yd_braiding_inv)


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
            rows = tt.carrier.projection(flatten(act_pair(
                tt.left, tt.right, H.comult.get(i, {}), embedded[j]), tt.dims))
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


def test_column_map_reads_the_trailing_leg_as_the_column():
    """column_map: columns ascending whatever order t brings them in, each
    in t's row order, an empty column dropped, and a row of one leg keyed
    by its bare index; on a map's column tensor it gives the map back."""
    sp2, sp3 = VectorSpace(2), VectorSpace(3)
    f = module_cat.column_map(sp3, sp2, {
        (1, 2): 5, (0, 0): Fraction(1, 2), (0, 2): -1, (1, 0): 3})
    assert (f.domain, f.codomain) == (sp3, sp2)
    assert [(c, list(col.items())) for c, col in f.cols.items()] == [
        (0, [(0, Fraction(1, 2)), (1, 3)]), (2, [(1, 5), (0, -1)])]
    g = LinMap(sp3, VectorSpace(6), {(5, 0): 1, (1, 2): -2, (0, 2): 7})
    t = module_cat.column_tensor(g, (g.codomain.dim,))
    assert_same_map(module_cat.column_map(g.domain, g.codomain, t), g)


def per_column_map(source, target, f):
    """carrier_map one column at a time: f, which takes no column leg,
    acts on the pair-keyed embedding of each carrier basis vector alone."""
    embedded = source.inclusion_table()
    return by_columns(source.space, target.space, lambda j: (
        target.carrier.projection(flatten(f(embedded[j]), target.dims))))


def per_column_mismatch(carrier, dims, lhs, rhs):
    """carrier_mismatch one column at a time, stopping at the first
    column where the two sides differ."""
    def sides(j):
        x = unflatten(carrier.inclusion.column(j), dims)
        return lhs(x), rhs(x)
    return first_unequal(product(range(carrier.dim)), sides)


def braid_step(com, other, t, twist):
    """The comodule braiding written out from the carrier tables, a
    reference that does not go through functor_F: one step on legs 0 (in
    com) and 1 (in other) of t, the other legs passing through.

    The coaction leg of com, read in the algebra and times the second
    R-matrix leg (then mapped through the table twist, if one is given),
    acts on leg 1; the first R-matrix leg acts on what is left of leg 0;
    the two outputs swap places.
    """
    B = com.over
    t = on_leg(on_leg(t, 0, com.table), 0, B.carrier.inclusion.columns())
    # (h, x, y, ..) -> (h, R^2, y, R^1, x, ..)
    t = {(k[0], q, k[2], p, k[1]) + k[3:]: c * w
         for k, c in t.items() for (p, q), w in B.rmatrix.r.items()}
    t = on_leg(t, slice(0, 2), com.algebra.mult)
    if twist is not None:
        t = on_leg(t, 0, twist)
    t = on_leg(t, slice(0, 2), other.action)
    return on_leg(t, slice(1, 3), com.module.action)


def assert_same_map(batched, reference):
    # entry order too: a map's entries feed elimination, whose ties
    # follow key order
    assert list(batched.entries.items()) == list(reference.entries.items())
    assert batched == reference


def sample_endomorphisms(M, rng):
    """H-linear endomorphisms available without solving for the commutant.

    The identity always qualifies; on the regular module, right
    multiplications by two random algebra elements do too.
    """
    out = [LinMap.identity(M.space)]
    H = M.algebra
    if M.action is H.mult:
        for _ in range(2):
            vec = {}
            for i in range(H.dim):
                if rng.random() < 0.5:
                    x = rng.randint(-2, 2)
                    if x:
                        vec[i] = x
            out.append(by_columns(
                M.space, M.space, lambda i: H.multiply({i: 1}, vec)))
    return out


def test_sample_endomorphisms_multiply_the_regular_module_on_the_right():
    H, _ = group_algebra_zn(3)
    certify(H)
    M, U = regular_module(H), unit_object(H)
    maps = sample_endomorphisms(M, random.Random(0))
    assert len(maps) == 3 and len(sample_endomorphisms(U, random.Random(0))) == 1
    for f in maps[1:]:
        x = f({0: 1})
        assert f == by_columns(
            M.space, M.space, lambda i: H.multiply({i: 1}, x))


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
            def both(x):
                return on_leg(on_leg(x, 0, f.columns()), 1, g.columns())
            assert_same_map(carrier_map(ac, ac, both),
                            per_column_map(ac, ac, both))
        Y = induced_yd(A, R)
        assert_same_map(yd_braiding(Y, ac, ca), per_column_map(
            ac, ca, lambda x: on_leg(permute(on_leg(x, 0, Y.table),
                                             (0, 2, 1)), slice(0, 2),
                                     C.action)))

    B = transmute(H, R)
    untwist = H.antipode_inverse_map.columns()
    for V in (regular_rh_comodule(B), trivial_comodule(B, M)):
        Y = functor_F(V)
        table = Y.table
        for C in (M, B.module):
            vc = truncated_tensor(V.module, C)
            cv = truncated_tensor(C, V.module)
            braid = yd_braiding(Y, vc, cv)
            braid_inv = yd_braiding_inv(Y, cv, vc)
            assert_same_map(braid, per_column_map(
                vc, cv, lambda x: on_leg(permute(on_leg(x, 0, table),
                                                 (0, 2, 1)), slice(0, 2),
                                         C.action)))
            assert_same_map(braid_inv, per_column_map(
                cv, vc, lambda x: permute(on_leg(permute(on_leg(on_leg(
                    x, 1, table), 1, untwist), (1, 0, 2)), slice(0, 2),
                    C.action), (1, 0))))
            # the hand-written braiding gives the same values; within a
            # column its entries may come in another order
            assert braid == per_column_map(
                vc, cv, lambda x: braid_step(V, C, x, None))
            assert braid_inv == per_column_map(
                cv, vc, lambda x: permute(braid_step(
                    V, C, permute(x, (1, 0)), untwist), (1, 0)))


@pytest.mark.parametrize("build", BUILDS, ids=BUILD_IDS)
def test_yd_braiding_inv_inverts_yd_braiding(build):
    H, R = build()
    certify(H)
    certify_quasitriangular(H, R)
    Y = functor_F(regular_rh_comodule(transmute(H, R)))
    for W in (regular_module(H), unit_object(H), Y.module):
        yw, wy = truncated_tensor(Y.module, W), truncated_tensor(W, Y.module)
        braid, braid_inv = yd_braiding(Y, yw, wy), yd_braiding_inv(Y, wy, yw)
        assert braid_inv.compose(braid).is_identity()
        assert braid.compose(braid_inv).is_identity()


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


HEXAGON_BUILDS = BUILDS + [lambda: group_algebra_zn_anyonic(4),
                           lambda: groupoid_algebra(3, 2)]
HEXAGON_IDS = BUILD_IDS + ["anyonic_z4", "groupoid_3x2"]


def module_hexagons(R, M, N, P):
    """hexagon_mismatches on three modules, braided by R."""
    return module_cat.hexagon_mismatches(
        M, N, P, lambda A: A, lambda tt, *_: tt,
        lambda _, source, target: braiding_c(source, target, R))


def doubled_first_term(H, R):
    """R with its first term doubled, marked certified."""
    key = sorted(R.r)[0]
    bad = RMatrix(H, {**R.r, key: 2 * R.r[key]}, R.r_bar)
    bad.certified = True
    return bad


@pytest.mark.parametrize("build", HEXAGON_BUILDS, ids=HEXAGON_IDS)
def test_categorical_hexagons_hold_and_fail_under_doubled_r(build):
    # Both hexagons through the braidings of nested carriers, c_{M N, P}
    # braiding a truncated tensor leg: they hold on every triple of the
    # regular module and the unit object, and a doubled R term breaks both
    # on the regular triple.
    H, R = build()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    modules = [regular_module(H), unit_object(H)]
    for M, N, P in product(modules, repeat=3):
        assert module_hexagons(R, M, N, P) == {
            "hexagon_forward": None, "hexagon_backward": None}
    M = modules[0]
    assert None not in module_hexagons(
        doubled_first_term(H, R), M, M, M).values()


def braids_in_steps(H, R, M, N, P):
    """Both hexagons on M (x) N (x) P, a column leg trailing: the one-step
    side acts with R with the coproduct applied to one leg, the two-step
    side acts with R twice, one braiding step at a time."""
    r = R.r
    legs = (M.action, N.action, P.action, None)

    def forward_two(x):
        step = permute(act((None, N.action, P.action, None), r, x),
                       (0, 2, 1, 3))
        return permute(act((M.action, P.action, None, None), r, step),
                       (1, 0, 2, 3))

    def backward_two(x):
        step = permute(act((M.action, N.action, None, None), r, x),
                       (1, 0, 2, 3))
        return permute(act((None, M.action, P.action, None), r, step),
                       (0, 2, 1, 3))
    return {"hexagon_forward": (lambda x: permute(act(
                legs, on_leg(r, 0, H.comult), x), (2, 0, 1, 3)), forward_two),
            "hexagon_backward": (lambda x: permute(act(
                legs, on_leg(r, 1, H.comult), x), (1, 2, 0, 3)), backward_two)}


def test_doubled_r_hexagon_witnesses_match_braiding_in_steps():
    # Under a doubled R term each hexagon's witness, in coordinates of
    # its nested target carrier, embeds in M (x) M (x) M as the one-step
    # and the two-step braid of the first source carrier column where
    # those differ.
    H, R = group_algebra_zn(3)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    bad = doubled_first_term(H, R)
    M = regular_module(H)
    report = check_monoidal_coherence(H, bad, [M])
    mm = truncated_tensor(M, M)
    # (source, its inner leg), (target, its inner leg)
    carriers = {
        "hexagon_forward": ((truncated_tensor(mm, M), 0),
                            (truncated_tensor(M, mm), 1)),
        "hexagon_backward": ((truncated_tensor(M, mm), 1),
                             (truncated_tensor(mm, M), 0))}

    def embed(leg, t):
        return on_leg(t, leg, mm.inclusion_table())
    for name, (one, two) in braids_in_steps(H, bad, M, M, M).items():
        (source, s_leg), (target, t_leg) = carriers[name]
        x = embed(s_leg, source.inclusion_tensor())
        columns = {}
        for (a, b, c, j), v in x.items():
            columns.setdefault(j, {})[(a, b, c, 0)] = v
        reference = first_unequal(
            ((j,) for j in range(source.dim)),
            lambda j: (one(columns[j]), two(columns[j])))
        assert reference is not None
        (j,), ref_lhs, ref_rhs = reference
        key, lhs, rhs = report.find(name).witness
        assert key == (0, 0, 0, j)
        for got, ref in ((lhs, ref_lhs), (rhs, ref_rhs)):
            assert {k + (0,): c for k, c in embed(
                t_leg, target.embed_pairs(got)).items()} == ref


def test_hexagons_act_only_when_elements_differ(monkeypatch):
    # Each hexagon compares its two elements of H (x) H (x) H first; the
    # categorical hexagons run only when those differ.
    calls = []
    mismatches = module_cat.hexagon_mismatches

    def counted(*args):
        calls.append(args[:3])
        return mismatches(*args)
    monkeypatch.setattr(module_cat, "hexagon_mismatches", counted)
    names = ("hexagon_forward", "hexagon_backward")
    for build in HEXAGON_BUILDS:
        H, R = build()
        certify(H)
        certify_quasitriangular(H, R)
        report = check_monoidal_coherence(
            H, R, [regular_module(H), unit_object(H)])
        assert all(report.find(name).passed for name in names)
        assert calls == []
    # a doubled R term, marked certified: both elements of each hexagon
    # change, unequally, and the first triple already fails both, once
    H, R = group_algebra_zn(3)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    M = regular_module(H)
    report = check_monoidal_coherence(H, doubled_first_term(H, R), [M])
    assert not any(report.find(name).passed for name in names)
    assert calls == [(M, M, M)]


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
            assert_validated(carrier_map(ac, ac, lambda x: on_leg(
                on_leg(x, 0, f.columns()), 1, g.columns())))
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
        assert tt.carrier.projection(flatten(pd, tt.dims)) == {j: Fraction(1)}


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


def tensor_map(tt, f, g):
    """f tensor g on the carrier tt, f on its left leg."""
    return carrier_map(tt, tt, lambda x: on_leg(
        on_leg(x, 0, f.columns()), 1, g.columns()))


def commutes(c, source, target, f, g):
    """Whether c (f tensor g) = (g tensor f) c, c from source to target."""
    return c.compose(tensor_map(source, f, g)) == tensor_map(
        target, g, f).compose(c)


@pytest.mark.parametrize("build", HEXAGON_BUILDS, ids=HEXAGON_IDS)
def test_braiding_is_natural_on_sampled_endomorphisms(build):
    """The braiding commutes with f tensor g for H-linear f and g.  That
    holds for every R, since f tensor g commutes with the action of R and
    each carrier projection absorbs the truncation projector; so it is
    asserted here, and check_monoidal_coherence's braiding_natural
    compares the braiding with the unitors instead."""
    H, R = build()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    rng = random.Random(0)
    modules = [regular_module(H), unit_object(H)]
    for A, C in product(modules, repeat=2):
        ac, ca = truncated_tensor(A, C), truncated_tensor(C, A)
        c = braiding_c(ac, ca, R)
        for f, g in product(sample_endomorphisms(A, rng),
                            sample_endomorphisms(C, rng)):
            assert commutes(c, ac, ca, f, g)


def test_naturality_fails_on_a_swap_unless_r_is_the_split_unit():
    # The swap of basis vectors 0 and 1 is not H-linear.  Under the
    # anyonic R of Z_3 the braiding does not commute with swap tensor id;
    # on the pair groupoid R = Delta(1) acts as the identity on every
    # carrier, so the braiding is the flip there and commutes with it.
    for build, natural in ((lambda: group_algebra_zn_anyonic(3), False),
                           (lambda: groupoid_algebra(2, 2), True)):
        H, R = build()
        assert certify(H).passed and certify_quasitriangular(H, R).passed
        M = regular_module(H)
        mm = truncated_tensor(M, M)
        swap = LinMap(M.space, M.space, {
            (1, 0): 1, (0, 1): 1, **{(i, i): 1 for i in range(2, M.dim)}})
        assert commutes(braiding_c(mm, mm, R), mm, mm, swap,
                        LinMap.identity(M.space)) is natural


def test_inverse_mismatch_forms_one_product_only_for_square_maps():
    # Over a field, f g = id already makes g f = id when f and g are
    # square.  The inclusion i and projection p of a proper subspace have
    # p i = id but i p != id, and either order reports i p, which misses
    # the identity at (1, 1).
    plane, line = VectorSpace(2), VectorSpace(1)
    i = LinMap(line, plane, {(0, 0): 1})
    p = LinMap(plane, line, {(0, 0): 1})
    witness = ((1, 1), {}, {(1, 1): 1})
    assert module_cat._inverse_mismatch(p, i) == witness
    assert module_cat._inverse_mismatch(i, p) == witness
    swap = LinMap(plane, plane, {(0, 1): 1, (1, 0): 1})
    assert module_cat._inverse_mismatch(swap, swap) is None
    doubled = LinMap(plane, plane, {(0, 1): 2, (1, 0): 2})
    assert module_cat._inverse_mismatch(swap, doubled) == (
        (0, 0), {(0, 0): 2}, {(0, 0): 1})


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


def projector_by_act(modules, d):
    """The columns of the projector of d, one basis tensor at a time through
    act, the tensors in the order the terms of d first reach them."""
    dims = [M.dim for M in modules]
    reached = {}
    for key in d:
        reached.update(dict.fromkeys(product(*(
            [a for (p, a) in M.action if p == i]
            for M, i in zip(modules, key)))))
    cols = {}
    for t in reached:
        k, = flatten({t: 1}, dims)
        image = flatten(act([M.action for M in modules], d, {t: 1}), dims)
        if image:
            cols[k] = image
    return cols


def assert_same_columns(P, cols):
    """Equal columns, in the same column and row order, of the same types."""
    assert P.cols == cols
    assert [(k, list(col.items()), [type(v) for v in col.values()])
            for k, col in P.cols.items()] == [
        (k, list(col.items()), [type(v) for v in col.values()])
        for k, col in cols.items()]


def counted_act(monkeypatch):
    """The list that module_cat's act calls append to from now on."""
    calls = []

    def counted(*args):
        calls.append(args)
        return act(*args)
    monkeypatch.setattr(module_cat, "act", counted)
    return calls


def rebased_groupoid():
    # the groupoid of test_yetter_drinfeld's
    # test_carrier_not_spanned_by_basis_vectors_passes_every_stage, whose
    # coproduct of 1 is not a 0/1 diagonal
    return rebased(*groupoid_algebra(2, 1),
                   [{0: 1, 1: 1}, {1: 1}, {2: 1}, {3: 1, 0: 1}])


@pytest.mark.parametrize("name", [*snap.ALGEBRAS, "rebased_groupoid"])
def test_projectors_match_act_on_every_basis_tensor(name, monkeypatch):
    H, _ = (snap.ALGEBRAS.get(name) or rebased_groupoid)()
    assert certify(H).passed
    M, U = regular_module(H), unit_object(H)
    tt = truncated_tensor(M, U)
    assert tt.action    # built before act is counted
    calls = counted_act(monkeypatch)
    for A, B in product((M, U, tt), repeat=2):
        assert_same_columns(truncation_projector(A, B),
                            projector_by_act((A, B), H.delta_one()))
    for legs in [*product((M, U), repeat=3), (tt, M, U), (U, tt, M)]:
        assert_same_columns(triple_projector(*legs),
                            projector_by_act(legs, H.delta2_one()))
    # only the rebased basis has rows other than {a: 1} under 1
    assert bool(calls) == (name == "rebased_groupoid")


def regular_rows(H, p, a, row):
    """The regular module of H with the row of e_p acting on e_a replaced."""
    action = {(i, r, c): v for (i, c), rows in H.mult.items()
              for r, v in rows.items() if (i, c) != (p, a)}
    action.update({(p, r, a): v for r, v in row.items()})
    return HModule(H, H.space, action)


@pytest.mark.parametrize("row", [{0: 2}, {0: 1, 1: 1}],
                         ids=["doubled", "two_entries"])
def test_rows_that_are_not_0_1_diagonal_go_through_act(row, monkeypatch):
    # e_0 is the unit summand (0, 0, 0) of the pair groupoid on 2 objects
    H, _ = groupoid_algebra(2, 1)
    assert certify(H).passed
    M = regular_rows(H, 0, 0, row)
    calls = counted_act(monkeypatch)
    P = truncation_projector(M, M)
    assert len(calls) == 1
    assert_same_columns(P, projector_by_act((M, M), H.delta_one()))
    with pytest.raises(NotIdempotent):
        split_idempotent(P)


def test_overlapping_diagonal_terms_reach_elimination(monkeypatch):
    # both unit summands of the pair groupoid act by 1 on one vector, so
    # the diagonal projector of the square holds 1 + 1 = 2 there
    H, _ = groupoid_algebra(2, 1)
    assert certify(H).passed
    V = HModule(H, VectorSpace(1), {(0, 0, 0): 1, (3, 0, 0): 1})
    calls = counted_act(monkeypatch)
    P = truncation_projector(V, V)
    assert calls == []
    assert_same_columns(P, {0: {0: 2}})
    splits = []
    image_split = linalg._image_split
    monkeypatch.setattr(linalg, "_image_split",
                        lambda Q: splits.append(Q) or image_split(Q))
    with pytest.raises(NotIdempotent):
        split_idempotent(P)
    assert splits == [P]


def test_diagonal_column_that_cancels_keeps_its_place(monkeypatch):
    # the first column sums 1/2 - 1/2, cancels, and enters again as the
    # int 1 of the third term, still first; the others hold 1/2 alone
    H, _ = groupoid_algebra(3, 1)
    assert certify(H).passed
    u0, u1, u2 = sorted(H.unit)
    V = HModule(H, VectorSpace(2), {(u0, 0, 0): 1, (u0, 1, 1): 1,
                                    (u1, 0, 0): 1, (u2, 0, 0): 1})
    d = {(u0, u0): Fraction(1, 2), (u1, u1): Fraction(-1, 2), (u2, u2): 1}
    calls = counted_act(monkeypatch)
    P = module_cat._projector((V, V), d)
    assert calls == []
    assert_same_columns(P, projector_by_act((V, V), d))
    assert list(P.cols) == [0, 1, 2, 3]
    assert type(P.cols[0][0]) is int


def rows_of(table, elements):
    """The rows of table whose algebra element is in elements, in table
    order, with their row order and value types."""
    return [(k, list(row.items()), [type(v) for v in row.values()])
            for k, row in table.items() if k[0] in elements]


@pytest.mark.parametrize("name", [*snap.ALGEBRAS, "rebased_groupoid"])
def test_action_of_matches_the_whole_action(name):
    H, _ = (snap.ALGEBRAS.get(name) or rebased_groupoid)()
    assert certify(H).passed
    M, U = regular_module(H), unit_object(H)
    assert M.action_of([0]) is M.action
    rng = random.Random(len(name))
    mm = truncated_tensor(M, M)
    # the nested carrier is built last: its projector reads the whole
    # action of M (x) M
    for build in (lambda: mm, lambda: truncated_tensor(M, U),
                  lambda: truncated_tensor(U, mm)):
        tt = build()
        requests = [[i] for i in range(H.dim)] + [
            sorted(H.unit), sorted(rng.sample(range(H.dim), H.dim // 2))]
        parts = [(S, tt.action_of(S)) for S in requests]
        assert tt._action is None    # no partial table is kept
        whole = tt.action
        for S, part in parts:
            assert {k[0] for k in part} <= set(S)
            assert rows_of(part, S) == rows_of(whole, S)
        assert tt.action_of([0]) is whole


def test_roundtrip_builds_only_the_rows_of_r1(monkeypatch):
    """Under R = 1 (x) 1 on Z_4, R^1 is the unit alone, and the roundtrip
    reads each pair carrier's action only at R^1: one row per carrier."""
    H, R = group_algebra_zn(4)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    r1 = {p for p, _ in R.r}
    assert r1 == set(H.unit) and len(r1) == 1
    built = []
    conjugated = TruncatedTensor._conjugated_action

    def counted(tt, *args):
        table = conjugated(tt, *args)
        built.append({i for i, _ in table})
        return table
    monkeypatch.setattr(TruncatedTensor, "_conjugated_action", counted)
    assert check_equivalence_roundtrip(H, R, braided=B).passed
    assert built == [r1] * 9


def nested_by_on_leg(outer, inner_leg):
    """The carrier columns of outer, the truncated product of M (x) N and
    P (inner_leg 0) or of M and N (x) P (inner_leg 1), embedded in the
    flattened M tensor N tensor P through inclusion_tensor, on_leg with
    the inner inclusion table and the flat index of each triple key."""
    inner = (outer.left, outer.right)[inner_leg]
    _, n, p = ((inner.left.dim, inner.right.dim, outer.right.dim)
               if inner_leg == 0 else
               (outer.left.dim, inner.left.dim, inner.right.dim))
    embedded = [{} for _ in range(outer.dim)]
    for (a, b, c, j), v in on_leg(outer.inclusion_tensor(), inner_leg,
                                  inner.inclusion_table()).items():
        embedded[j][(a * n + b) * p + c] = v
    return embedded


@pytest.mark.parametrize("basis", ["canonical", "sparse"])
@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_nested_columns_match_the_on_leg_embedding(name, basis):
    """For every triple of [regular, unit], both nestings embed by flat
    index to the keys, key order, values and value types of the on_leg
    embedding.  In the sparse basis the groupoids' carriers are oblique."""
    H, R = ALL_EXAMPLES[name]()
    if basis == "sparse":
        H, R = rebased(H, R, sparse_basis(random.Random(name), H.dim))
    assert certify(H).passed
    modules = [regular_module(H), unit_object(H)]
    tt = cache(truncated_tensor)
    oblique = False
    for M, N, P in product(modules, repeat=3):
        for leg, outer in ((0, tt(tt(M, N), P)), (1, tt(M, tt(N, P)))):
            inner = (outer.left, outer.right)[leg]
            oblique = oblique or inner.carrier.kept is None
            assert [[(k, v, type(v)) for k, v in col.items()]
                    for col in module_cat._nested_columns(outer, leg)] == [
                [(k, v, type(v)) for k, v in col.items()]
                for col in nested_by_on_leg(outer, leg)]
    assert oblique == (basis == "sparse" and name.startswith("groupoid"))
