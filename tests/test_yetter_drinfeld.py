"""Compatible coactions, carrier comodules and their braidings."""

import random
from fractions import Fraction
from itertools import product

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import (LinMap, VectorSpace, flatten, on_leg, permute,
                           solve)
from whakit.module_cat import (HModule, check_monoidal_coherence,
                               regular_module, truncated_tensor, unit_object)
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.scalars import Cyclo, FieldMismatch, invert, omega
from whakit.transmutation import certify_braided_hopf, transmute
from whakit.weak_hopf import WeakHopfAlgebra, certify
from whakit import yetter_drinfeld
from whakit.yetter_drinfeld import (CoactionEscapesCarrier, Comodule,
                                    check_comodule_braiding,
                                    check_equivalence_roundtrip,
                                    check_rh_comodule, check_yd,
                                    comodule_braiding, comodule_braiding_inv,
                                    comodule_tensor, functor_F, functor_G,
                                    induced_yd, regular_rh_comodule,
                                    trivial_comodule, yd_braiding, yd_tensor)

EXAMPLES = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


@pytest.fixture(scope="module", params=sorted(EXAMPLES))
def certified(request):
    H, R = EXAMPLES[request.param]()
    assert certify(H).passed
    assert certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert certify_braided_hopf(B).passed
    return H, R, B


def test_induced_coactions_are_compatible(certified):
    H, R, B = certified
    for M in (regular_module(H), unit_object(H), B.module):
        report = check_yd(induced_yd(M, R))
        assert report.passed, report.first_failure()
        assert report.names() == [
            "coaction_lands_in_truncated", "coaction_counital",
            "coaction_coassociative", "action_coaction_compatible",
            "split_unit_absorbed"]


def test_regular_comodule_satisfies_the_comodule_laws(certified):
    _, _, B = certified
    report = check_rh_comodule(regular_rh_comodule(B))
    assert report.passed, report.first_failure()


def test_comodule_braiding_and_hexagons(certified):
    H, _, B = certified
    regular = regular_rh_comodule(B)
    triples = [(regular, regular, regular),
               (trivial_comodule(B, regular_module(H)), regular,
                trivial_comodule(B, unit_object(H)))]
    for U, V, P in triples:
        report = check_comodule_braiding(U, V, P)
        assert report.passed, report.first_failure()
        assert report.names() == [
            "braiding_invertible", "hexagon_forward", "hexagon_backward"]


def test_roundtrip_translates_each_sample_once(certified, monkeypatch):
    """functor_G runs once per sample and once per tensor of two samples,
    however many checks use a translation, and each pair of samples gets
    one carrier, shared by its YD tensor and its comodule tensor."""
    H, R, B = certified
    calls = []
    carriers = []

    def counting_functor_G(Y, braided):
        calls.append(Y)
        return functor_G(Y, braided)

    def counting_truncated_tensor(M, N):
        carriers.append((M, N))
        return truncated_tensor(M, N)
    monkeypatch.setattr(yetter_drinfeld, "functor_G", counting_functor_G)
    monkeypatch.setattr(yetter_drinfeld, "truncated_tensor",
                        counting_truncated_tensor)
    report = check_equivalence_roundtrip(H, R, braided=B)
    assert report.passed, report.first_failure()
    samples, comodules = 3, 4
    assert len(calls) == samples + comodules + samples ** 2
    assert len(carriers) == samples ** 2


def test_braidings_reject_carriers_that_do_not_match(certified):
    H, _, B = certified
    U = regular_rh_comodule(B)
    V = trivial_comodule(B, regular_module(H))
    Y = functor_F(U)
    uv = truncated_tensor(U.module, V.module)
    vu = truncated_tensor(V.module, U.module)
    assert comodule_braiding(U, uv, vu).domain.dim == uv.dim
    assert comodule_braiding_inv(U, vu, uv).domain.dim == vu.dim
    assert yd_braiding(Y, uv, vu).domain.dim == uv.dim
    # the target does not hold the source legs swapped
    for source, target in ((uv, uv), (vu, vu)):
        for braid in (comodule_braiding, comodule_braiding_inv):
            with pytest.raises(ValueError):
                braid(U, source, target)
        with pytest.raises(ValueError):
            yd_braiding(Y, source, target)
    # the coacting module is the other leg
    with pytest.raises(ValueError):
        comodule_braiding(U, vu, uv)
    with pytest.raises(ValueError):
        comodule_braiding_inv(U, uv, vu)
    with pytest.raises(ValueError):
        yd_braiding(Y, vu, uv)
    with pytest.raises(ValueError):
        comodule_braiding(V, uv, vu)


def test_each_side_rejects_a_comodule_over_the_other(certified):
    """A coaction in H (x) M and one in the carrier (x) M are both a
    Comodule; what reads one side raises ValueError on the other."""
    H, R, B = certified
    Y = induced_yd(B.module, R)
    N = regular_rh_comodule(B)
    tt = truncated_tensor(B.module, B.module)
    for call in (lambda: check_yd(N), lambda: functor_G(N, B),
                 lambda: yd_tensor(tt, N, N), lambda: yd_braiding(N, tt, tt),
                 lambda: check_rh_comodule(Y), lambda: functor_F(Y),
                 lambda: comodule_tensor(tt, Y, Y),
                 lambda: comodule_braiding(Y, tt, tt),
                 lambda: yd_tensor(tt, Y, N), lambda: comodule_tensor(tt, N, Y),
                 lambda: check_comodule_braiding(N, Y),
                 lambda: check_comodule_braiding(N, N, Y),
                 lambda: check_comodule_braiding(
                     N, regular_rh_comodule(transmute(H, R)))):
        with pytest.raises(ValueError, match="coact over"):
            call()
    other = HModule(group_algebra_zn(2)[0], B.module.space, {})
    with pytest.raises(ValueError, match="over another algebra"):
        Comodule(H, other, Y.coaction)


def test_tensors_reject_carriers_that_do_not_match(certified):
    H, R, B = certified
    Y1, Y2 = induced_yd(regular_module(H), R), induced_yd(unit_object(H), R)
    U, V = functor_G(Y1, B), functor_G(Y2, B)
    tt = truncated_tensor(Y1.module, Y2.module)
    assert yd_tensor(tt, Y1, Y2).module is tt
    assert comodule_tensor(tt, U, V).module is tt
    # the carrier holds the legs swapped, or other modules
    for other in (truncated_tensor(Y2.module, Y1.module),
                  truncated_tensor(Y1.module, Y1.module)):
        with pytest.raises(ValueError, match="legs are not the two modules"):
            yd_tensor(other, Y1, Y2)
        with pytest.raises(ValueError, match="legs are not the two modules"):
            comodule_tensor(other, U, V)


def test_every_check_yd_check_can_fail_with_a_witness():
    """Add 1 to one coefficient of the coaction of e_0, over every
    coefficient in turn: each check fails, with a witness, on some."""
    H, R = groupoid_algebra(2, 2)
    certify(H)
    certify_quasitriangular(H, R)
    M = regular_module(H)
    coaction = induced_yd(M, R).coaction
    failed = {}
    for k in range(coaction.codomain.dim):
        entries = dict(coaction.entries)
        entries[(k, 0)] = entries.get((k, 0), 0) + Fraction(1)
        bent = LinMap(coaction.domain, coaction.codomain, entries)
        for check in check_yd(Comodule(H, M, bent)).checks:
            if not check.passed:
                assert check.witness is not None, check.name
                failed.setdefault(check.name, k)
    assert set(failed) == {
        "coaction_lands_in_truncated", "coaction_counital",
        "coaction_coassociative", "action_coaction_compatible",
        "split_unit_absorbed"}


# The translations as they were written before the one-pass kernel: a
# chain of on_leg passes per column.  They are the reference for
# functor_G, functor_F and yd_tensor.

def reference_G(Y, B):
    H, M = Y.algebra, Y.module
    S = H.antipode_map.columns()
    proj = B.carrier.projection.columns()
    table = Y.table()

    def column(j):
        pd = {(a, q, p, m): v * w for (a, m), v in table[j].items()
              for (p, q), w in B.rmatrix.r.items()}
        pd = on_leg(on_leg(on_leg(pd, 1, S), slice(0, 2), H.mult),
                    slice(1, 3), M.action)
        return flatten(on_leg(pd, 0, proj), (B.dim, M.dim))
    return LinMap.from_function(M.space, VectorSpace(B.dim * M.dim), column)


def reference_F(N):
    B, H, M = N.over, N.algebra, N.module
    incl = B.carrier.inclusion.columns()
    table = N.table()

    def column(j):
        t = {(a, q, p, m): v * w for (a, m), v in table[j].items()
             for (p, q), w in B.rmatrix.r.items()}
        t = on_leg(on_leg(on_leg(t, 0, incl), slice(0, 2), H.mult),
                   slice(1, 3), M.action)
        return flatten(t, (H.dim, M.dim))
    return LinMap.from_function(M.space, VectorSpace(H.dim * M.dim), column)


def reference_yd_tensor(tt, Y1, Y2):
    H = Y1.algebra
    t1, t2 = Y1.table(), Y2.table()
    return yetter_drinfeld._tensor_coaction(tt, H.dim, lambda pd: on_leg(
        permute(on_leg(on_leg(pd, 0, t1), 2, t2), (0, 2, 1, 3)),
        slice(0, 2), H.mult))


def same_entries(f, g):
    """Equal entries with equal scalar types: an int 1 and Fraction(1)
    compare alike, so == alone would not tell them apart."""
    assert f.entries == g.entries
    assert {k: type(v) for k, v in f.entries.items()} == {
        k: type(v) for k, v in g.entries.items()}


ORACLE_EXAMPLES = dict(EXAMPLES,
                       anyonic_z4=lambda: group_algebra_zn_anyonic(4))


@pytest.mark.parametrize("name", sorted(ORACLE_EXAMPLES))
def test_translations_match_the_on_leg_chains(name):
    """functor_G, functor_F and yd_tensor equal the on_leg chains, values
    and scalar types, on the roundtrip's samples and their tensors."""
    H, R = ORACLE_EXAMPLES[name]()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    samples = [regular_module(H), unit_object(H), B.module]
    yds = [induced_yd(M, R) for M in samples]
    comods = [trivial_comodule(B, M) for M in samples]
    comods += [regular_rh_comodule(B)] + [functor_G(Y, B) for Y in yds]
    for Y in yds:
        same_entries(functor_G(Y, B).coaction, reference_G(Y, B))
    for N in comods:
        same_entries(functor_F(N).coaction, reference_F(N))
    for Y1 in yds:
        for Y2 in yds:
            tt = truncated_tensor(Y1.module, Y2.module)
            Y = yd_tensor(tt, Y1, Y2)
            same_entries(Y.coaction, reference_yd_tensor(tt, Y1, Y2))
            same_entries(functor_G(Y, B).coaction, reference_G(Y, B))


def mixed_scalar(rng, order):
    """A positive monomial, often one: the int 1, Fraction(1), 2, 1/2,
    3/2 or, over Q(w), w or w/2.  Products of such values are positive
    rational multiples of powers of w, and no two of them sum to zero.
    So no partial sum of the tables below cancels.  Where a sum does
    cancel and a later term enters again, that term sets its type, and
    the order of terms is the kernels' own."""
    values = [1, Fraction(1), 2, Fraction(1, 2), Fraction(3, 2)]
    if order:
        values += [omega(order), omega(order) * Fraction(1, 2)]
    return rng.choice(values)


def random_coaction(rng, rows, cols, order):
    return LinMap(VectorSpace(cols), VectorSpace(rows), {
        (r, c): mixed_scalar(rng, order) for r in range(rows)
        for c in range(cols) if rng.random() < 0.6})


@pytest.mark.parametrize("name,order", [("z3", None), ("anyonic_z3", 3)])
def test_translations_match_on_random_mixed_coactions(name, order):
    """The same comparison on random coaction tables whose entries mix
    the int 1, Fraction(1), other rationals and cyclotomic values, so
    that equal values of different types meet in one column.  Over Z_3
    with R = 1 (x) 1 every structure constant is the int 1, so a product
    of table entries keeps an int type only if every factor is an int."""
    H, R = EXAMPLES[name]()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    M = regular_module(H)
    tt = truncated_tensor(M, M)
    rng = random.Random(f"mixed {name}")
    for _ in range(12):
        Y1, Y2 = (Comodule(H, M, random_coaction(rng, H.dim * M.dim, M.dim,
                                                 order)) for _ in range(2))
        N = Comodule(B, M, random_coaction(rng, B.dim * M.dim, M.dim, order))
        same_entries(functor_G(Y1, B).coaction, reference_G(Y1, B))
        same_entries(functor_F(N).coaction, reference_F(N))
        same_entries(yd_tensor(tt, Y1, Y2).coaction,
                     reference_yd_tensor(tt, Y1, Y2))


def signed_table(rng, keys, values, density):
    """Random values on about density of keys."""
    return {k: rng.choice(values) for k in keys if rng.random() < density}


SIGNED = [1, -1, 2, -2, Fraction(1), Fraction(-1), Fraction(1, 2),
          Fraction(-3, 2)]


def halved_z3():
    """Z_3 in the basis e0 + e1, e0 - e1, e2: a product table with
    entries such as 1/2, which are not ints."""
    return rebased(*group_algebra_zn(3), [{0: 1, 1: 1}, {0: 1, 1: -1},
                                          {2: 1}])


PRODUCT_TABLES = [*sorted(EXAMPLES), "z3_halved"]


def same_sign(terms):
    """Whether every term is a positive rational multiple of the first,
    so that no partial sum of them cancels."""
    ratios = [t * invert(terms[0]) for t in terms]
    return all(type(r) is not Cyclo and r > 0 for r in ratios)


def grouped_legs(t):
    """The entries of t as lists of (first leg, other legs), one list per
    distinct value of a distinct type, in order of first appearance."""
    groups = {}
    for (a, *rest), v in t.items():
        groups.setdefault((type(v), v), []).append((a, tuple(rest)))
    return groups.values()


def products_against_on_leg(name, values, seed, density):
    """_products on yd_tensor's input against the on_leg chain it replaces,
    on random coaction tables with the given values, over the product
    table of EXAMPLES[name] or halved_z3: equal values, keys in the order
    of their first term, the terms taken by coefficient, then by distinct
    value of each leg, and no key whose terms sum to zero.  At every key
    whose terms share one sign, that is are positive rational multiples
    of one another, the scalar types are equal too: where terms of both
    signs meet, a partial sum may cancel, and the type of what follows
    depends on summation order.  Returns the number of cancelled keys
    and the types met at one-sign keys."""
    H, _ = halved_z3() if name == "z3_halved" else EXAMPLES[name]()
    n = 3
    legs = list(product(range(H.dim), range(n)))
    rng = random.Random(seed)
    cancelled, types = 0, set()
    for _ in range(20):
        t1, t2 = ({m: signed_table(rng, legs, values, density) for m in range(n)}
                  for _ in range(2))
        pd = signed_table(rng, product(range(n), repeat=2), values,
                          density)
        by_value, products = yetter_drinfeld._products(H.mult)
        by1, by2 = ({m: by_value(c) for m, c in t.items()}
                    for t in (t1, t2))
        got = products((c, by1[m], by2[k]) for (m, k), c in pd.items())
        reference = on_leg(permute(on_leg(on_leg(pd, 0, t1), 2, t2),
                                   (0, 2, 1, 3)), slice(0, 2), H.mult)
        assert got == reference
        terms = {}
        for (m, k), c in pd.items():
            for xs in grouped_legs(t1[m]):
                for ys in grouped_legs(t2[k]):
                    for a, lt in xs:
                        for s, rt in ys:
                            for h, e in H.mult.get((a, s), {}).items():
                                terms.setdefault((h,) + lt + rt, []).append(
                                    c * t1[m][(a, *lt)] * t2[k][(s, *rt)]
                                    * e)
        assert list(got) == [key for key, ts in terms.items() if sum(ts)]
        cancelled += sum(not sum(ts) for ts in terms.values())
        for key, ts in terms.items():
            if same_sign(ts):
                assert type(got[key]) is type(reference[key])
                types.add(type(got[key]))
    return cancelled, types


@pytest.mark.parametrize("name", PRODUCT_TABLES)
def test_products_match_on_leg_on_signed_coactions(name):
    """products_against_on_leg with signed int and Fraction values.  The
    halved table's entries are not ints, most of them halves, and keys
    whose terms are all ints are rare there."""
    if name == "z3_halved":
        assert any(type(e) is Fraction for row in halved_z3()[0].mult.values()
                   for e in row.values())
    cancelled, types = products_against_on_leg(name, SIGNED,
                                               f"signed {name}", 0.6)
    assert cancelled and types >= (
        {Fraction} if name == "z3_halved" else {int, Fraction})


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("name", PRODUCT_TABLES)
def test_products_match_on_leg_on_cyclotomic_coactions(name, order):
    """products_against_on_leg with signed values that also hold elements
    of Q(w_order) that are not rational, so that one call sums int,
    Fraction and Cyclo products.  Sparser tables than in the signed test
    give keys of few terms, so that keys whose terms are all ints occur,
    but for the halved table."""
    w = omega(order)
    cancelled, types = products_against_on_leg(
        name, SIGNED + [w, -w, Fraction(1, 3) * w, -1 - w],
        f"cyclotomic {name} {order}", 0.4)
    assert cancelled and types >= (
        {Fraction, Cyclo} if name == "z3_halved" else {int, Fraction, Cyclo})


def test_products_reject_values_of_two_cyclotomic_fields():
    """Numerators of Q(w_3) and Q(w_5) cannot be summed side by side."""
    H, _ = EXAMPLES["z3"]()
    by_value, products = yetter_drinfeld._products(H.mult)
    one = by_value({(0,): 1})
    with pytest.raises(FieldMismatch, match="orders differ: 3 vs 5"):
        products([(omega(3), one, one), (omega(5), one, one)])


def shifted_coaction(M, first, shift):
    """The coaction m -> e_first (x) e_(m XOR shift) on the module M."""
    H = M.algebra
    return Comodule(H, M, LinMap(M.space, VectorSpace(H.dim * M.dim), {
        (first * M.dim + (m ^ shift), m): 1 for m in range(M.dim)}))


def test_translated_coaction_leaving_the_carrier_raises():
    """On the pair groupoid 2 x Z_2 the carrier has dimension 4 of 8.  The
    coaction m -> e_2 (x) m, e_2 the arrow 0 <- 1, translates outside it."""
    H, R = groupoid_algebra(2, 2)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert (B.dim, H.dim) == (4, 8)
    with pytest.raises(CoactionEscapesCarrier, match="left the carrier"):
        functor_G(shifted_coaction(regular_module(H), 2, 0), B)


def rebased(H, R, basis):
    """H and R rewritten in the basis whose i-th vector is basis[i], a
    vector over the basis of H."""
    change = LinMap.from_function(VectorSpace(H.dim), H.space,
                                  basis.__getitem__)

    def coords(v):
        return solve(change, v)
    new = {a: coords({a: 1}) for a in range(H.dim)}

    def pairs(t):
        return on_leg(on_leg(t, 0, new), 1, new)

    def table(f):
        # {(i, *key): c} over the terms of f(basis[i]); a bare index is
        # a key of one leg
        return {(i, *(k if type(k) is tuple else (k,))): c
                for i, x in enumerate(basis) for k, c in f(x).items()}

    H2 = WeakHopfAlgebra(
        name=f"{H.name}_rebased", field=H.field,
        labels=tuple(f"f{i}" for i in range(H.dim)),
        mult=table(lambda x: {(j, k): c for j, y in enumerate(basis)
                              for k, c in coords(H.multiply(x, y)).items()}),
        unit=coords(H.unit),
        comult=table(lambda x: pairs(H.comultiply(x))),
        counit={i: sum(c * H.counit.get(a, 0) for a, c in x.items())
                for i, x in enumerate(basis)},
        antipode=table(lambda x: coords(H.antipode(x))),
        antipode_inverse=table(
            lambda x: coords(H.antipode_inverse_map(x))))
    return H2, RMatrix(H2, pairs(R.r), pairs(R.r_bar))


def test_carrier_not_spanned_by_basis_vectors_passes_every_stage():
    """groupoid_algebra(2, 1) in the basis f0 = e0 + e1, f1 = e1, f2 = e2,
    f3 = e3 + e0.  Its carrier is spanned by f3 and f0 - f1, so a
    translated coaction can lie in it through basis vectors that lie
    outside it."""
    H, R = rebased(*groupoid_algebra(2, 1),
                   [{0: 1, 1: 1}, {1: 1}, {2: 1}, {3: 1, 0: 1}])
    assert certify(H).passed
    assert certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert certify_braided_hopf(B).passed
    assert [t for t in range(H.dim) if B.carrier.contains({t: 1})] == [3]
    assert B.dim == 2
    for report in (check_monoidal_coherence(
                       H, R, [regular_module(H), unit_object(H)]),
                   check_equivalence_roundtrip(H, R, braided=B)):
        assert report.passed, report.first_failure()


def test_tensor_coaction_leaving_the_truncated_square_raises():
    """A coaction that moves the target object of each groupoid arrow
    (index bit 4) sends pairs of the truncated square, whose legs share
    a target, to pairs outside it."""
    H, R = groupoid_algebra(2, 2)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    M = regular_module(H)
    tt = truncated_tensor(M, M)
    with pytest.raises(CoactionEscapesCarrier,
                       match="missed the truncated square"):
        yd_tensor(tt, shifted_coaction(M, 0, 4), induced_yd(M, R))


def test_tensor_coaction_leaving_an_oblique_carrier_raises():
    """The same escape on the rebased groupoid of
    test_carrier_not_spanned_by_basis_vectors_passes_every_stage, whose
    truncated square is no coordinate split: the re-embedding test runs.
    The tensor with m -> e_0 (x) e_m stays on it, and the tensor with
    m -> e_0 (x) e_(m XOR 1) leaves it."""
    H, R = rebased(*groupoid_algebra(2, 1),
                   [{0: 1, 1: 1}, {1: 1}, {2: 1}, {3: 1, 0: 1}])
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    M = regular_module(H)
    tt = truncated_tensor(M, M)
    assert tt.carrier.kept is None
    assert (tt.dim, tt.carrier.ambient.dim) == (8, 16)
    yd_tensor(tt, shifted_coaction(M, 0, 0), induced_yd(M, R))
    with pytest.raises(CoactionEscapesCarrier,
                       match="missed the truncated square"):
        yd_tensor(tt, shifted_coaction(M, 0, 1), induced_yd(M, R))
