"""Checks fail on perturbed inputs with a (key, lhs, rhs) witness, never an
empty one."""

import random
from fractions import Fraction
from functools import cache
from itertools import product

from test_module_cat import counted_act, nested_by_on_leg
from test_yetter_drinfeld import rebased
from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import (LinMap, VectorSpace, add_term, flatten, on_leg,
                           solve, split_idempotent, unflatten)
from whakit.module_cat import (HModule, _action_mismatch, act_pair,
                               check_module, check_monoidal_coherence,
                               regular_module, triple_projector,
                               truncated_tensor, unit_object)
from whakit.quasitriangular import (RMatrix, certify_quasitriangular,
                                    check_quasitriangular)
from whakit.transmutation import (BraidedHopfAlgebra, check_braided_hopf,
                                  transmute)
from whakit.weak_hopf import (WeakHopfAlgebra, certify, check_weak_hopf,
                              map_witness)
from whakit.yetter_drinfeld import (check_comodule_braiding,
                                    check_equivalence_roundtrip,
                                    regular_rh_comodule)


def certified_z3():
    return certified(lambda: group_algebra_zn(3))


def certified(build):
    H, R = build()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    return H, R, transmute(H, R)


def failing_witness(report, name):
    check = report.find(name)
    assert check is not None and not check.passed
    key, lhs, rhs = check.witness
    assert lhs or rhs
    assert lhs != rhs
    return check.witness


def rebuilt(H, name, **tables):
    """H rebuilt from its own tables; each constructor argument in tables
    takes the place of H's own."""
    own = dict(
        mult={(i, j, k): c for (i, j), p in H.mult.items() for k, c in p.items()},
        unit=H.unit, counit=H.counit,
        comult={(i, j, k): c for i, cop in H.comult.items()
                for (j, k), c in cop.items()},
        antipode={(i, j): c for (j, i), c in H.antipode_map.entries.items()},
        antipode_inverse={(i, j): c for (j, i), c in
                          H.antipode_inverse_map.entries.items()})
    return WeakHopfAlgebra(name=name, field=H.field, labels=H.labels,
                           **{**own, **tables})


def test_antipode_inverse_two_sided_witness():
    H, _, _ = certified_z3()
    # the identity in place of the inverse of S, which is not the identity
    wrong = rebuilt(H, "z3-wrong-inverse",
                    antipode_inverse={(i, i): 1 for i in range(H.dim)})
    failing_witness(check_weak_hopf(wrong), "antipode_inverse_two_sided")


def test_counit_of_unit_witness():
    H, R, B = certified_z3()
    unit_bar = B.unit_bar
    doubled = BraidedHopfAlgebra(
        H, R, B.carrier, B.module, B.square, B.unit_module, B.mult, B.comult,
        B.counit_bar, B.antipode_bar, LinMap(
            unit_bar.domain, unit_bar.codomain,
            {k: 2 * v for k, v in unit_bar.entries.items()}))
    failing_witness(check_braided_hopf(doubled), "counit_of_unit")


def doubled_r(build):
    """The transmuted algebra of a certified example over its R with the
    first term doubled, marked certified."""
    H, R, B = certified(build)
    key = sorted(R.r)[0]
    bad = RMatrix(H, {**R.r, key: 2 * R.r[key]}, R.r_bar)
    bad.certified = True
    return BraidedHopfAlgebra(H, bad, B.carrier, B.module, B.square,
                              B.unit_module, B.mult, B.comult, B.counit_bar,
                              B.antipode_bar, B.unit_bar)


def test_braiding_invertible_witness():
    regc = regular_rh_comodule(doubled_r(lambda: group_algebra_zn(3)))
    failing_witness(check_comodule_braiding(regc, regc), "braiding_invertible")


def test_comodule_hexagon_backward_witness():
    # Z_3 has the one R term 1 (x) 1.  Doubled, the one-step braid of U
    # past the tensor of V and P reads it once, the two-step braid twice.
    regc = regular_rh_comodule(doubled_r(lambda: group_algebra_zn(3)))
    report = check_comodule_braiding(regc, regc, regc)
    assert failing_witness(report, "hexagon_backward") == (
        (0,), {0: 2}, {0: 4})


def test_comodule_hexagon_forward_witness():
    # The one-step forward braid reads R in the tensor coaction of U and V
    # and again in the braid, the two-step braid once per step.  With the
    # first R term doubled both sides still agree on Z_3 and anyonic Z_3;
    # on Sweedler they differ.
    for build in (lambda: group_algebra_zn(3),
                  lambda: group_algebra_zn_anyonic(3)):
        regc = regular_rh_comodule(doubled_r(build))
        report = check_comodule_braiding(regc, regc, regc)
        assert report.find("hexagon_forward").passed
        assert not report.find("hexagon_backward").passed
    regc = regular_rh_comodule(doubled_r(sweedler))
    key, lhs, rhs = failing_witness(
        check_comodule_braiding(regc, regc, regc), "hexagon_forward")
    assert key == (42,)
    assert (lhs, rhs) == ({42: Fraction(9, 4)}, {42: Fraction(1, 4)})


def test_comodule_invariants_hold_witness():
    # one doubled term of the deformed coproduct of carrier basis 2, so
    # Delta(e2) = 2 e1 (x) e2 + e2 (x) e1: the regular comodule, the
    # fourth comodule sample, coacts through it and stops being
    # coassociative; the trivial comodules before it never read Delta(e2)
    H, R, B = certified(sweedler)
    comult = {i: dict(c) for i, c in B.comult.items()}
    comult[2][(1, 2)] *= 2
    bent = BraidedHopfAlgebra(H, R, B.carrier, B.module, B.square,
                              B.unit_module, B.mult, comult, B.counit_bar,
                              B.antipode_bar, B.unit_bar)
    report = check_equivalence_roundtrip(H, R, braided=bent)
    key, inner, _ = failing_witness(report, "comodule_invariants_hold")
    assert key == (3, "coaction_coassociative_deformed")
    # the witness of check_rh_comodule: basis e2 and both sides
    basis, lhs, rhs = inner
    assert basis == (2,) and lhs and rhs and lhs != rhs


def test_hexagon_witnesses():
    # a doubled R entry: the one-step braid of a hexagon scales by the
    # entry once, the two-step braid twice
    H, R, _ = certified_z3()
    key = sorted(R.r)[0]
    bad = RMatrix(H, {**R.r, key: 2 * R.r[key]}, R.r_bar)
    bad.certified = True
    report = check_monoidal_coherence(H, bad, [regular_module(H)],
                                      random.Random(0))
    for name in ("hexagon_forward", "hexagon_backward"):
        key, lhs, rhs = failing_witness(report, name)
        # module indices (i, j, k), then the carrier column
        assert len(key) == 4 and key[:3] == (0, 0, 0)
        assert {k: 2 * c for k, c in lhs.items()} == rhs


def test_module_axioms_witness():
    # one doubled entry of the regular action of a non-unit basis element
    # breaks the product law; the hexagons act with products of R terms,
    # so they rely on this check
    H, R, _ = certified_z3()
    reg = regular_module(H)
    action = {(i, r, c): v for i in range(H.dim)
              for (r, c), v in reg.rho(i).entries.items()}
    key = sorted(k for k in action if k[0] not in H.unit)[0]
    action[key] *= 2
    bad = HModule(H, H.space, action)
    report = check_monoidal_coherence(H, R, [reg, bad], random.Random(0))
    key, lhs, rhs = failing_witness(report, "module_axioms")
    own = check_module(bad).find("action_respects_products").witness
    assert (key, lhs, rhs) == ((1,) + own[0],) + own[1:]


# the basis f0 = e0 + e1, f1 = e1, f2 = e2, f3 = e3 + e0 of the pair
# groupoid on two objects, where its pair carriers are oblique
OBLIQUE = [{0: 1, 1: 1}, {1: 1}, {2: 1}, {3: 1, 0: 1}]


def moved_coproduct_groupoid():
    """The pair groupoid on two objects with the term e_11 (x) e_11 moved
    from the coproduct of e_11 to that of e_00, marked certified with its
    R.  The coproduct of 1 stays e_00 (x) e_00 + e_11 (x) e_11, so every
    pair carrier and the unit object are as before, but coassociativity
    fails on 1."""
    H, R = groupoid_algebra(2, 1)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    e00, e11 = (H.labels.index(f"{x}<-{x}:g^0") for x in range(2))
    comult = {(i, j, k): c for i, cop in H.comult.items()
              for (j, k), c in cop.items()}
    del comult[(e11, e11, e11)]
    comult[(e00, e11, e11)] = 1
    bad = rebuilt(H, "pair-groupoid-moved-coproduct", comult=comult)
    assert bad.delta_one() == H.delta_one()
    bad.certified = True
    bad_r = RMatrix(bad, R.r, R.r_bar)
    bad_r.certified = True
    return bad, bad_r


def test_unit_comult_compatible_witness():
    # (Delta (x) id) Delta(1) holds e_11 (x) e_11 (x) e_00, where
    # (Delta(1) (x) 1)(1 (x) Delta(1)) holds e_11 (x) e_11 (x) e_11
    bad, _ = moved_coproduct_groupoid()
    e00, e11 = (bad.labels.index(f"{x}<-{x}:g^0") for x in range(2))
    assert failing_witness(check_weak_hopf(bad), "unit_comult_compatible") == (
        (), {(e00, e00, e00): 1, (e11, e11, e00): 1},
        {(e00, e00, e00): 1, (e11, e11, e11): 1})


def test_split_unit_slides_witnesses():
    # On the pair groupoid on two objects S(e_xx) = e_xx.  An arrow a
    # added to S(e_00) adds e_00 (x) a to 1_1 (x) S(1_2) and a (x) e_00 to
    # S(1_1) (x) 1_2.  With a = 0 <- 1, e_00 (x) a e_00 = 0 on the right of
    # the source slide and e_00 e_00 (x) a does not vanish on the left;
    # with a = 1 <- 0, the target slide fails the same way, mirrored.
    H, _ = groupoid_algebra(2, 1)
    e00 = H.labels.index("0<-0:g^0")
    antipode = {(i, j): c for (j, i), c in H.antipode_map.entries.items()}
    for name, arrow, witness in (
            ("source_slides_split_unit", "0<-1:g^0",
             ((0,), {(0, 0): 1, (0, 1): 1}, {(0, 0): 1})),
            ("target_slides_split_unit", "1<-0:g^0",
             ((0,), {(0, 0): 1}, {(0, 0): 1, (2, 0): 1}))):
        a = H.labels.index(arrow)
        bad = rebuilt(H, f"pair-groupoid-{name}",
                      antipode={**antipode, (e00, a): 1})
        assert failing_witness(check_weak_hopf(bad), name) == witness


def test_nested_carriers_coincide_witness():
    # The triple carrier of the moved-coproduct groupoid, from
    # (Delta (x) id) Delta(1), has e_00 (x) e_00 (x) e_00 and
    # e_11 (x) e_11 (x) e_00 as its summands; M (x) (M (x) M) has
    # e_00 (x) e_00 (x) e_00 and e_00 (x) e_11 (x) e_11, of the same
    # dimension but not inside it.
    bad, bad_r = moved_coproduct_groupoid()
    reg = regular_module(bad)
    report = check_monoidal_coherence(bad, bad_r, [reg], random.Random(0))
    (i, j, k, col), lhs, rhs = failing_witness(report, "nested_carriers_coincide")
    assert (i, j, k) == (0, 0, 0) and rhs == {}
    # the first column of M (x) (M (x) M) outside the triple carrier,
    # embedded one column at a time
    outer = truncated_tensor(reg, truncated_tensor(reg, reg))
    inner = outer.right.inclusion_table()
    split3 = split_idempotent(triple_projector(reg, reg, reg))
    assert outer.dim == split3.dim
    embedded = [flatten(on_leg(col, 1, inner), (reg.dim,) * 3)
                for col in outer.inclusion_table().values()]
    assert [j for j, v in enumerate(embedded) if not split3.contains(v)][0] == col
    assert lhs == embedded[col]
    # the moved term also breaks the unitors and the unit triangle
    assert failing_witness(report, "unitors_h_linear") == (
        (0, 0, 2, 2), {(2, 2): 1}, {})
    assert failing_witness(report, "unit_triangle") == (
        (0, 0, 4), {}, {(2, 0): 1})


def nested_witness_by_on_leg(modules):
    """nested_carriers_coincide searched triple by triple, each nesting
    embedded by nested_by_on_leg."""
    tt = cache(truncated_tensor)
    for i, j, k in product(range(len(modules)), repeat=3):
        M, N, P = modules[i], modules[j], modules[k]
        split3 = split_idempotent(triple_projector(M, N, P))
        for leg, outer in ((0, tt(tt(M, N), P)), (1, tt(M, tt(N, P)))):
            if outer.dim != split3.dim:
                return ((i, j, k), {0: outer.dim}, {0: split3.dim})
            for col, v in enumerate(nested_by_on_leg(outer, leg)):
                if not split3.contains(v):
                    return ((i, j, k, col), v, {})
    return None


def test_nested_carriers_coincide_witness_in_an_oblique_basis():
    # The moved-coproduct groupoid in the basis OBLIQUE, marked certified
    # with its R: its carriers are split by elimination, and the nested
    # carriers still differ, with the witness of the on_leg embedding.
    H, R = rebased(*moved_coproduct_groupoid(), OBLIQUE)
    H.certified = True
    R.certified = True
    reg = regular_module(H)
    assert truncated_tensor(reg, reg).carrier.kept is None
    report = check_monoidal_coherence(H, R, [reg], random.Random(0))
    witness = failing_witness(report, "nested_carriers_coincide")
    assert witness == nested_witness_by_on_leg([reg])


def test_structure_maps_h_linear_witness():
    # one doubled entry of the transmuted product breaks H-linearity on
    # Sweedler, whose adjoint action is not trivial
    H, R, B = certified(sweedler)
    key = sorted(B.mult)[len(B.mult) // 2]
    mult = {**B.mult, key: {k: 2 * c for k, c in B.mult[key].items()}}
    bad = BraidedHopfAlgebra(H, R, B.carrier, B.module, B.square,
                             B.unit_module, mult, B.comult, B.counit_bar,
                             B.antipode_bar, B.unit_bar)
    (name, i, row, col), lhs, rhs = failing_witness(
        check_braided_hopf(bad), "structure_maps_h_linear")
    assert name == "mult" and 0 <= i < H.dim
    assert (row, col) in set(lhs) | set(rhs)


def in_basis(M, H2, basis):
    """The module M over H, with H2 the rebasing of H by basis and the
    space of M, of the dimension of H, rebased by basis as well: the same
    action as an HModule over H2."""
    change = LinMap.from_function(VectorSpace(len(basis)), M.space,
                                  basis.__getitem__)
    action = {}
    for k, x in enumerate(basis):
        for c, y in enumerate(basis):
            image = {}
            for a, u in x.items():
                for r, v in M.rho(a)(y).items():
                    add_term(image, r, u * v)
            for r, v in solve(change, image).items():
                action[(k, r, c)] = v
    return HModule(H2, H2.space, action)


def action_witness_by_composing(modules):
    """truncated_action_well_defined searched at every algebra basis h of
    every pair carrier in order: the inclusion after the conjugated
    operator of h against h acting on each embedded carrier column."""
    H = modules[0].algebra
    for (i, M), (j, N) in product(enumerate(modules), repeat=2):
        tt = truncated_tensor(M, N)
        dims = (M.dim, N.dim)
        for h in range(H.dim):
            ambient = LinMap.from_function(
                tt.space, tt.carrier.ambient, lambda c: flatten(act_pair(
                    M, N, H.comult.get(h, {}),
                    unflatten(tt.carrier.inclusion.column(c), dims)), dims))
            w = map_witness(tt.carrier.inclusion.compose(tt.rho(h)), ambient)
            if w is not None:
                return ((i, j, h) + w[0],) + w[1:]
    return None


def test_truncated_action_well_defined_witness():
    # On the pair groupoid the carrier of M tensor N is the sum over
    # objects x of e_x M tensor e_x N.  The arrow g: 0 -> 1 is group-like,
    # so g tensor g must map the x = 0 summand into the x = 1 summand; an
    # extra term of g . b inside e_0 M sends part of b tensor b to
    # e_0 M tensor e_1 N, off the carrier, while the identity arrows that
    # cut out the carrier still act as before.  The same module in the
    # basis OBLIQUE has oblique pair carriers, where the escape is found
    # by re-embedding; both witnesses are those of composing every h.
    H, R = groupoid_algebra(2, 1)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    reg = regular_module(H)
    g, b = (H.labels.index(label) for label in ("1<-0:g^0", "0<-0:g^0"))
    action = {(i, r, c): v for i in range(H.dim)
              for (r, c), v in reg.rho(i).entries.items()}
    action[(g, b, b)] = 1
    bad = HModule(H, H.space, action)
    report = check_monoidal_coherence(H, R, [bad, reg], random.Random(0))
    witness = failing_witness(report, "truncated_action_well_defined")
    assert witness[0][:3] == (0, 0, g)
    assert witness == action_witness_by_composing([bad, reg])
    assert check_monoidal_coherence(H, R, [reg], random.Random(0)).find(
        "truncated_action_well_defined").passed

    H2, R2 = rebased(H, R, OBLIQUE)
    assert certify(H2).passed and certify_quasitriangular(H2, R2).passed
    reg2 = regular_module(H2)
    assert in_basis(reg, H2, OBLIQUE).action == reg2.action
    modules = [in_basis(bad, H2, OBLIQUE), reg2]
    assert truncated_tensor(modules[0], modules[0]).carrier.kept is None
    report = check_monoidal_coherence(H2, R2, modules)
    assert failing_witness(report, "truncated_action_well_defined") == (
        action_witness_by_composing(modules))
    assert check_monoidal_coherence(H2, R2, [reg2]).find(
        "truncated_action_well_defined").passed


def test_action_invariance_acts_on_no_carrier_once_the_action_is_built(
        monkeypatch):
    # On a passing Z_4 sample no pair carrier escapes, and the check reads
    # that from the action build alone.
    H, _, _ = certified(lambda: group_algebra_zn(4))
    modules = [regular_module(H), unit_object(H)]
    tts = [truncated_tensor(M, N) for M, N in product(modules, repeat=2)]
    for tt in tts:
        assert tt.action and tt.escaped == []
    calls = counted_act(monkeypatch)
    assert [_action_mismatch(tt) for tt in tts] == [None] * 4
    assert calls == []


def test_braiding_natural_witness():
    # braiding_natural compares the braiding with the unitors,
    # l c_{M,1} = r and r c_{1,M} = l.  It passes on each certified
    # example.  With the first R term, c e_0 (x) e_0, doubled it fails at
    # the pair (0, 0) of the regular module: entry (0, 0) of l c_{M,1} is
    # 1 + c, where that of r is 1.
    for build in (sweedler, lambda: group_algebra_zn(3),
                  lambda: group_algebra_zn_anyonic(3),
                  lambda: groupoid_algebra(2, 2)):
        H, R, _ = certified(build)
        modules = [regular_module(H), unit_object(H)]
        assert check_monoidal_coherence(H, R, modules).find(
            "braiding_natural").passed
        key = sorted(R.r)[0]
        assert key == (0, 0)
        bad = RMatrix(H, {**R.r, key: 2 * R.r[key]}, R.r_bar)
        bad.certified = True
        assert failing_witness(check_monoidal_coherence(H, bad, modules),
                               "braiding_natural") == (
            (0, 0, 0, 0), {(0, 0): 1 + R.r[key]}, {(0, 0): 1})


def test_action_of_unit_witness():
    # the regular action with each summand of the unit doubled: the unit
    # acts as 2 id, on a Hopf algebra and on the weak pair groupoid alike;
    # the zero action makes the unit act as 0, still with an entry
    for build in (sweedler, lambda: group_algebra_zn_anyonic(3),
                  lambda: groupoid_algebra(2, 2)):
        H, _, _ = certified(build)
        reg = regular_module(H)
        action = {(i, r, c): 2 * v if i in H.unit else v
                  for i in range(H.dim)
                  for (r, c), v in reg.rho(i).entries.items()}
        report = check_module(HModule(H, H.space, action))
        assert failing_witness(report, "action_of_unit") == (
            (0, 0), {(0, 0): 2}, {(0, 0): 1})
        report = check_module(HModule(H, H.space, {}))
        assert failing_witness(report, "action_of_unit") == (
            (0, 0), {}, {(0, 0): 1})


def test_yang_baxter_witness():
    # A doubled first R term leaves R12 R13 R23 = R23 R13 R12 on these
    # examples; Sweedler's R plus 1 (x) h breaks it.
    for build in (sweedler, lambda: group_algebra_zn_anyonic(3),
                  lambda: groupoid_algebra(2, 2)):
        H, R, _ = certified(build)
        key = sorted(R.r)[0]
        doubled = RMatrix(H, {**R.r, key: 2 * R.r[key]}, R.r_bar)
        assert check_quasitriangular(H, doubled).find("yang_baxter").passed
    H, R, _ = certified(sweedler)
    one, g, h, gh = (H.labels.index(s) for s in ("1", "g", "h", "gh"))
    bent = RMatrix(H, {**R.r, (one, h): R.r.get((one, h), 0) + 1}, R.r_bar)
    assert failing_witness(check_quasitriangular(H, bent), "yang_baxter") == (
        (one, g, gh), {0: Fraction(1, 2)}, {0: Fraction(-1, 2)})


def test_corner_witnesses():
    # On the pair groupoid on two objects Delta(1) = e_00 (x) e_00 +
    # e_11 (x) e_11, so both corners send x (x) y to the sum over u, v of
    # e_uu x e_vv (x) e_uu y e_vv.  For e_00 (x) a, a the arrow 0 <- 1,
    # only u = v = 0 keeps e_00, and e_00 a e_00 = 0: added to R the term
    # fails r_in_truncated_corner, added to R-bar
    # r_inverse_in_opposite_corner, each the first failure.
    H, R = groupoid_algebra(2, 1)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    e00, a = (H.labels.index(s) for s in ("0<-0:g^0", "0<-1:g^0"))
    extra = {(e00, a): 1}
    for name, r, r_bar in (
            ("r_in_truncated_corner", {**R.r, **extra}, R.r_bar),
            ("r_inverse_in_opposite_corner", R.r, {**R.r_bar, **extra})):
        report = check_quasitriangular(H, RMatrix(H, r, r_bar))
        assert report.first_failure().name == name
        assert failing_witness(report, name) == ((e00, a), {}, {0: 1})


def test_unitors_mutually_inverse_witness():
    # l l^-1 (m) = eps_t(1_1) 1_2 . m, which is m on every module by the
    # counit axiom, so the check can fail only where module_axioms fails
    # too.  With the action of e_00 dropped from the regular action of the
    # pair groupoid, the unit acts as e_11 and l l^-1 is the projection
    # onto e_11 M, spanned by the arrows ending at object 1: it misses
    # the identity first at e_00, which ends at object 0.
    H, R = groupoid_algebra(2, 1)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    reg = regular_module(H)
    e00 = H.labels.index("0<-0:g^0")
    action = {(i, r, c): v for i in range(H.dim) if i != e00
              for (r, c), v in reg.rho(i).entries.items()}
    report = check_monoidal_coherence(H, R, [HModule(H, H.space, action)])
    assert report.first_failure().name == "module_axioms"
    assert e00 == 0
    assert failing_witness(report, "unitors_mutually_inverse") == (
        (0, e00, e00), {}, {(e00, e00): 1})
