"""Comodules over an algebra and over its transmutation, with both braidings.

The two pictures of the equivalence share one class.  A Comodule keeps
its module and records where its coaction lands: in H (x) M, over the
algebra H of the module, where check_yd verifies the compatible-coaction
laws, or in the carrier of a transmuted algebra (x) M, where
check_rh_comodule verifies H-linearity and coassociativity over the
deformed coproduct.  functor_G and functor_F move a coaction from one
side to the other and are mutually inverse on the nose, which
check_equivalence_roundtrip verifies table by table, together with
monoidality.  A function that reads one side raises ValueError when
given a comodule over the other.

Both functors and yd_tensor run one kernel, made by _products once per
translation or tensor.  Its by_value groups a table's terms by distinct
value and type (int 1 and Fraction(1) are equal but multiply to
different types) and numbers each value in one table for all of the
call's tables, so that a product v x y is formed once per distinct
triple of numbers however many columns meet it.  For the functors one
group is twist(R^2) (x) R^1 . m, formed once per module basis m; R holds
few distinct values (3 of 9 terms on anyonic Z_3).  The kernel then sums
the product-table entries at each output key per distinct product, and
adds each product once per key: an int product in ints, any other as its
int numerators over the kernel's common denominator, phi(n) of them over
Q(w_n) and one over Q.  Most keys of a translated tensor cancel to zero,
and only the others are canonicalized, once each.

yd_braiding and comodule_braiding realize the braidings of the two
categories.  Like the module braiding, each takes the coacting object
and then its source and target carriers, and raises ValueError unless
target holds the legs of source swapped and the coacting module is the
left leg of source (of target, for the inverse).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

from .linalg import (_ONE, LinMap, VectorSpace, act, flatten, on_leg,
                     permute, unflatten)
from .module_cat import (HModule, _inverse_mismatch, carrier_map,
                         hexagon_mismatches, regular_module, swapped_legs,
                         truncation_projector, truncated_tensor, unit_object)
from .scalars import Cyclo, FieldMismatch, _canon
from .transmutation import BraidedHopfAlgebra
from .weak_hopf import (VerificationReport, entries_witness, first_unequal,
                        first_witness, map_witness)


class CoactionEscapesCarrier(RuntimeError):
    """A translated coaction has a leg outside the centralizer carrier."""


class AntipodeNotInvertible(RuntimeError):
    """The inverse braiding needs an antipode inverse the algebra lacks."""


class Comodule:
    """A module M with a coaction over `over`: the algebra H of M, the
    coaction landing in H (x) M, or a transmuted algebra of H, the
    coaction landing in its carrier (x) M.

    coaction maps the module into that flattened tensor, first leg major,
    first leg in the coordinates of over.
    """

    def __init__(self, over, module: HModule, coaction: LinMap):
        self.over = over
        self.module = module
        self.algebra = module.algebra
        if getattr(over, "algebra", over) is not self.algebra:
            raise ValueError("the module is over another algebra")
        if coaction.domain.dim != module.dim:
            raise ValueError("coaction domain does not match the module")
        if coaction.codomain.dim != over.dim * module.dim:
            raise ValueError("coaction codomain is not over (x) module")
        self.coaction = coaction
        self._table = None

    @property
    def dim(self):
        return self.module.dim

    def coaction_pairs(self, vec: dict) -> dict:
        return unflatten(self.coaction(vec), (self.over.dim, self.dim))

    def table(self) -> dict:
        """The coaction as a splice table {j: {(a, m): c}}."""
        if self._table is None:
            dims = (self.over.dim, self.dim)
            self._table = {j: unflatten(self.coaction.column(j), dims)
                           for j in range(self.dim)}
        return self._table


def _over(C: Comodule, braided: bool):
    """What C coacts over; ValueError unless that is a transmuted algebra
    exactly when braided is True."""
    if isinstance(C.over, BraidedHopfAlgebra) is not braided:
        side = "a transmuted algebra" if braided else "its module's algebra"
        raise ValueError(f"the comodule does not coact over {side}")
    return C.over


def _coassociative(table: dict, comult: dict, dim: int):
    """The coassociativity witness of a coaction table over comult."""
    return first_unequal(product(range(dim)), lambda j: (
        on_leg(table[j], 0, comult), on_leg(table[j], 1, table)))


def check_yd(Y: Comodule) -> VerificationReport:
    """Verify every compatible-coaction law on all basis elements."""
    H = _over(Y, False)
    M = Y.module
    H.require_certified()
    report = VerificationReport(subject=f"{H.name} compatible coaction")

    P = truncation_projector(regular_module(H), M)
    report.record("coaction_lands_in_truncated",
                  map_witness(P.compose(Y.coaction), Y.coaction))

    table = Y.table()
    eps = {i: {(): c} for i, c in H.counit.items()}
    report.record("coaction_counital", first_unequal(
        product(range(M.dim)), lambda j: (
            {m: c for (m,), c in on_leg(table[j], 0, eps).items()}, {j: 1})))
    report.record("coaction_coassociative",
                  _coassociative(table, H.comult, M.dim))

    # rho(i . m) = i_1 m_(-1) S(i_3) (x) i_2 . m_(0)
    S = H.antipode_map.columns()

    def compatible(i, j):
        t = {(i1, a, i3, i2, m): w * v for (i1, i2, i3), w in
             H.comult2(i).items() for (a, m), v in table[j].items()}
        t = on_leg(on_leg(on_leg(t, 2, S), slice(0, 2), H.mult), slice(0, 2),
                   H.mult)
        return (Y.coaction_pairs(M.rho(i).column(j)),
                on_leg(t, slice(1, 3), M.action))
    report.record("action_coaction_compatible", first_unequal(
        product(range(H.dim), range(M.dim)), compatible))

    def absorbed(j):
        # m_(-1) S(1_2) (x) 1_1 . m_(0) against rho(m)
        t = {(a, y, x, m): v * w for (a, m), v in table[j].items()
             for (x, y), w in H.delta_one().items()}
        t = on_leg(on_leg(t, 1, S), slice(0, 2), H.mult)
        return on_leg(t, slice(1, 3), M.action), table[j]
    report.record("split_unit_absorbed",
                  first_unequal(product(range(M.dim)), absorbed))
    return report


def induced_yd(M: HModule, R) -> Comodule:
    """The coaction every plain module carries: act with one R-matrix leg
    and expose the other."""
    R.require_certified()
    H = M.algebra
    return Comodule(H, M, LinMap.from_function(
        M.space, VectorSpace(H.dim * M.dim), lambda j: flatten(on_leg(
            {(q, p, j): v for (p, q), v in R.r.items()}, slice(1, 3),
            M.action), (H.dim, M.dim))))


def check_rh_comodule(N: Comodule) -> VerificationReport:
    """Verify the carrier-comodule laws on all basis elements."""
    B = _over(N, True)
    H = N.algebra
    M = N.module
    report = VerificationReport(subject=f"{H.name} carrier comodule")

    P = truncation_projector(B.module, M)
    report.record("coaction_lands_in_truncated",
                  map_witness(P.compose(N.coaction), N.coaction))

    table = N.table()
    report.record("coaction_coassociative_deformed",
                  _coassociative(table, B.comult, M.dim))

    eps_t = {a: H.epsilon_t(z) for a, z in B.carrier.inclusion.columns().items()}

    def counital(j):
        # eps_t(m_(-1)) . m_(0) against m
        t = on_leg(on_leg(table[j], 0, eps_t), slice(0, 2), M.action)
        return {m: c for (m,), c in t.items()}, {j: 1}
    report.record("coaction_counital_target",
                  first_unequal(product(range(M.dim)), counital))

    report.record("coaction_h_linear", first_unequal(
        product(range(H.dim), range(M.dim)), lambda i, j: (
            N.coaction_pairs(M.rho(i).column(j)),
            act((B.module.action, M.action), H.comult.get(i, {}), table[j]))))
    return report


def _numerators(p, den: int, width: int) -> list:
    """p over den as width ints: a Cyclo's residue or a rational's one
    numerator, zero-padded."""
    num, d = ((p.num, p.den) if type(p) is Cyclo
              else ((p.numerator,), p.denominator))
    return [c * (den // d) for c in num] + [0] * (width - len(num))


def _products(mult: dict):
    """The kernel of yd_tensor, functor_G and functor_F over the product
    table mult, one per translation or tensor: (by_value, products).

    by_value(t) lists the terms of t as [(id, v, [(k[0], k[1:]), ...]),
    ...], one per distinct value v of a distinct type, numbered in a table
    that all the kernel's tables share.  products(terms) sums, over terms
    (v, left, right) with left and right by_value lists, v x y e at (h,)
    + rest + rest' for every (x, [(a, rest), ...]) in left, (y, [(s,
    rest'), ...]) in right and entry e at h of the row mult[(a, s)], and
    leaves out a key whose sum is zero.  Keys come in the order of their
    first term, and a sum is an int when all its terms are.
    """
    # the int 1, the usual value, has id 0, read without a lookup
    ids = {(int, 1): 0}
    # (v, x, y) ids -> index of the product, the products by (type, value)
    triples, index, prods = {}, {}, []
    # per product: None for an int, else width numerators over den
    nums = []
    den, order, width = 1, None, 1

    def by_value(t: dict) -> list:
        groups = {}
        for k, v in t.items():
            key = (type(v), v)
            g = groups.get(key)
            if g is None:
                g = groups[key] = (0 if v is _ONE else
                                   ids.setdefault(key, len(ids)), v, [])
            g[2].append((k[0], k[1:]))
        return [*groups.values()]

    def number(p) -> int:
        # the index of p; the first Cyclo, or a new denominator, forms
        # the numerators of the earlier products again
        nonlocal den, order, width
        i = index.setdefault((type(p), p), len(prods))
        if i < len(prods):
            return i
        if type(p) is int:
            nums.append(None)
        else:
            d = p.den if type(p) is Cyclo else p.denominator
            grown = den % d
            if type(p) is Cyclo and p.order != order:
                if order is not None:
                    raise FieldMismatch(
                        f"cyclotomic orders differ: {order} vs {p.order}")
                order, width, grown = p.order, len(p.num), True
            if grown:
                den = lcm(den, d)
                nums[:] = [None if n is None else _numerators(q, den, width)
                           for q, n in zip(prods, nums)]
            nums.append(_numerators(p, den, width))
        prods.append(p)
        return i

    def products(terms) -> dict:
        # the entries e are summed per key and product, and each product
        # then enters a key once: an int product in ints, with an int sum
        # e, any other as its numerators times e, canonicalized once per
        # key; a product with a sum e that is no int (a rebased table's)
        # is added as a scalar
        acc = {}
        get = acc.get
        for v, left, right in terms:
            vid = 0 if v is _ONE else ids.setdefault((type(v), v), len(ids))
            for xid, x, xs in left:
                for yid, y, ys in right:
                    pid = triples.get((vid, xid, yid))
                    if pid is None:
                        p = v if x is _ONE else x if v is _ONE else v * x
                        p = p if y is _ONE else y if p is _ONE else p * y
                        pid = triples[vid, xid, yid] = number(p)
                    for a, lt in xs:
                        for s, rt in ys:
                            for h, e in (mult.get((a, s)) or {}).items():
                                key = (h,) + lt + rt
                                sums = get(key)
                                if sums is None:
                                    acc[key] = {pid: e}
                                else:
                                    cur = sums.get(pid)
                                    sums[pid] = e if cur is None else cur + e
        out = {}
        for key, sums in acc.items():
            total = 0
            vec = rest = None
            for pid, e in sums.items():
                num = nums[pid]
                if num is None and type(e) is int:
                    total += prods[pid] * e
                elif not e:
                    continue
                elif type(e) is not int:
                    w = prods[pid] * e
                    rest = w if rest is None else rest + w
                elif vec is None:
                    vec = [c * e for c in num]
                else:
                    vec = [a + c * e for a, c in zip(vec, num)]
            if vec is not None:
                # a Fraction or a Cyclo entered
                vec[0] += total * den
                total = (0 if not any(vec) else Fraction(vec[0], den)
                         if order is None else _canon(order, vec, den))
            if rest is not None:
                total += rest
            if total:
                out[key] = total
        return out
    return by_value, products


def _absorb_r(table: dict, read: dict, twist: dict, M: HModule, B):
    """Column j of m_(-1) twist(R^2) (x) R^1 . m_(0), the coaction leg of
    table[j] read through read, in one pass.  R^1 . m and twist(R^2)
    depend on m alone, so they are formed once per basis m."""
    r = B.rmatrix.r
    by_value, products = _products(M.algebra.mult)
    # only R^1's rows of the action are read
    action = M.action_of(sorted({p for p, _ in r}))
    kernel = {m: by_value(on_leg(on_leg(
        {(q, p, m): w for (p, q), w in r.items()}, 0, twist),
        slice(1, 3), action)) for m in range(M.dim)}
    reads = {x: by_value({(a,): c for a, c in col.items()})
             for x, col in read.items()}
    return lambda j: products(
        (v, reads[x], kernel[m]) for (x, m), v in table[j].items())


def functor_G(Y: Comodule, B: BraidedHopfAlgebra) -> Comodule:
    """Translate an ambient coaction into a carrier coaction by absorbing
    one antipode-twisted R-matrix leg: m_(-1) S(R^2) (x) R^1 . m_(0)."""
    H, M = _over(Y, False), Y.module
    proj = B.carrier.projection.columns()
    incl = B.carrier.inclusion.columns()
    absorbed = _absorb_r(Y.table(), {i: {i: 1} for i in range(H.dim)},
                         H.antipode_map.columns(), M, B)

    def column(j):
        pd = absorbed(j)
        coords = on_leg(pd, 0, proj)
        if on_leg(coords, 0, incl) != pd:
            raise CoactionEscapesCarrier(
                f"translated coaction of basis {j} left the carrier")
        return flatten(coords, (B.dim, M.dim))
    return Comodule(B, M, LinMap.from_function(
        M.space, VectorSpace(B.dim * M.dim), column))


def functor_F(N: Comodule) -> Comodule:
    """Translate a carrier coaction back by restoring the R-matrix leg:
    m_(-1) R^2 (x) R^1 . m_(0), the carrier leg read in the algebra."""
    B, H, M = _over(N, True), N.algebra, N.module
    restored = _absorb_r(N.table(), B.carrier.inclusion.columns(),
                         {i: {i: 1} for i in range(H.dim)}, M, B)
    return Comodule(H, M, LinMap.from_function(
        M.space, VectorSpace(H.dim * M.dim),
        lambda j: flatten(restored(j), (H.dim, M.dim))))


def trivial_comodule(B: BraidedHopfAlgebra, M: HModule) -> Comodule:
    """The coaction pairing each vector with the truncated unit."""
    H = B.algebra
    one_c = B.carrier.projection(dict(H.unit))
    return Comodule(B, M, LinMap.from_function(
        M.space, VectorSpace(B.dim * M.dim), lambda j: flatten(act(
            (B.module.action, M.action), H.delta_one(),
            {(a, j): c for a, c in one_c.items()}), (B.dim, M.dim))))


def regular_rh_comodule(B: BraidedHopfAlgebra) -> Comodule:
    """The carrier coacting on itself through the deformed coproduct."""
    return Comodule(B, B.module, LinMap.from_function(
        B.space, VectorSpace(B.dim * B.dim),
        lambda i: flatten(B.comult.get(i, {}), (B.dim, B.dim))))


def _tensor_coaction(tt, first_dim: int, coact) -> LinMap:
    """The coaction on a truncated tensor tt whose column j, keyed
    (coacting leg, left module leg, right module leg), is coact(pairs)
    for the pair-keyed embedding of carrier basis j; the module legs are
    projected back onto the carrier, which they must not leave."""
    proj = tt.projection_table()
    incl = tt.inclusion_table()

    # on a coordinate carrier the projection renames each kept pair to
    # its own index and drops the rest, so raw stays on the carrier
    # exactly when no term is dropped
    kept = tt.carrier.kept is not None

    def column(j):
        raw = coact(incl[j])
        coords = on_leg(raw, slice(1, 3), proj)
        if (len(coords) != len(raw) if kept
                else on_leg(coords, 1, incl) != raw):
            raise CoactionEscapesCarrier(
                f"tensor coaction of basis {j} missed the truncated square")
        return flatten(coords, (first_dim, tt.dim))
    return LinMap.from_function(tt.space, VectorSpace(first_dim * tt.dim),
                                column)


def _tensor_legs(tt, C1: Comodule, C2: Comodule, braided: bool):
    """What C1 and C2 both coact over, checked by _over(C1, braided);
    ValueError unless the carrier tt is the truncated tensor of their
    modules, in order."""
    over = _over(C1, braided)
    if C2.over is not over:
        raise ValueError("the comodules coact over different algebras")
    if tt.left is not C1.module or tt.right is not C2.module:
        raise ValueError("the carrier's legs are not the two modules")
    return over


def yd_tensor(tt, Y1: Comodule, Y2: Comodule) -> Comodule:
    """The compatible coaction on tt, the truncated tensor of the modules
    of Y1 and Y2: m_(-1) n_(-1) (x) m_(0) (x) n_(0), in one pass."""
    H = _tensor_legs(tt, Y1, Y2, False)
    by_value, products = _products(H.mult)
    t1 = {m: by_value(c) for m, c in Y1.table().items()}
    t2 = {n: by_value(c) for n, c in Y2.table().items()}
    return Comodule(H, tt, _tensor_coaction(tt, H.dim, lambda pd: products(
        (c, t1[m], t2[n]) for (m, n), c in pd.items())))


def comodule_tensor(tt, M: Comodule, N: Comodule) -> Comodule:
    """Tensor two carrier comodules on tt, the truncated tensor of their
    modules: braid the inner legs with the R-matrix, multiply the carrier
    legs with the deformed product."""
    B = _tensor_legs(tt, M, N, True)
    t1, t2 = M.table(), N.table()
    inner = (None, M.module.action, B.module.action, None)
    return Comodule(B, tt, _tensor_coaction(tt, B.dim, lambda pd: on_leg(
        permute(act(inner, B.rmatrix.r, on_leg(on_leg(pd, 0, t1), 2, t2)),
                (0, 2, 1, 3)), slice(0, 2), B.mult)))


def check_equivalence_roundtrip(H, R, braided) -> VerificationReport:
    """Round both translations on every sample and compare coaction tables.

    The samples are the regular module, the unit object and the carrier
    of the transmuted algebra braided, each entering through its induced
    coaction.  The carrier coacting on itself through the deformed
    coproduct is also included from the comodule side.  Monoidality
    compares the translated tensor coaction with the tensor of the
    translations, pairwise over the samples.  Raises ValueError unless
    braided was transmuted from H and R.
    """
    H.require_certified()
    R.require_certified()
    B = braided
    if B.algebra is not H or B.rmatrix is not R:
        raise ValueError("the braided algebra is not transmuted from H and R")
    samples = [regular_module(H), unit_object(H), B.module]
    report = VerificationReport(subject=f"{H.name} equivalence roundtrip")

    yds = [induced_yd(M, R) for M in samples]
    # each sample's translation, built on first use, serves both the
    # roundtrip and every monoidality pair it enters
    translated = cache(lambda k: functor_G(yds[k], B))
    report.record("g_then_f_restores_coaction", first_witness(
        ((k,), entries_witness(functor_F(translated(k)).coaction, Y.coaction))
        for k, Y in enumerate(yds)))

    comods = [trivial_comodule(B, M) for M in samples]
    comods.append(regular_rh_comodule(B))
    report.record("f_then_g_restores_coaction", first_witness(
        ((k,), entries_witness(functor_G(functor_F(N), B).coaction,
                               N.coaction))
        for k, N in enumerate(comods)))

    def failure(rep):
        f = rep.first_failure()
        return None if f is None else ((f.name,), f.witness, None)
    report.record("comodule_invariants_hold", first_witness(
        ((k,), failure(check_rh_comodule(N))) for k, N in enumerate(comods)))

    def monoidal(k1, k2):
        # the translated comodules keep the samples' modules, so one
        # carrier serves both tensors
        Y1, Y2 = yds[k1], yds[k2]
        tt = truncated_tensor(Y1.module, Y2.module)
        return entries_witness(
            functor_G(yd_tensor(tt, Y1, Y2), B).coaction,
            comodule_tensor(tt, translated(k1), translated(k2)).coaction)
    report.record("translation_monoidal", first_witness(
        ((k1, k2), monoidal(k1, k2))
        for k1, k2 in product(range(len(yds)), repeat=2)))
    return report


def _braided_past(C: Comodule, braided: bool, source, target):
    """The right leg of source, which the module of C braids past;
    ValueError unless _over(C, braided) holds, target holds the source
    legs swapped and the module of C is the left."""
    _over(C, braided)
    M, N = swapped_legs(source, target)
    if M is not C.module:
        raise ValueError("the coacting module is not the left leg")
    return N


def yd_braiding(V: Comodule, source, target) -> LinMap:
    """Braid the truncated tensor source of V and W onto target, the
    tensor of W and V, by acting with the exposed coaction leg: v (x) w
    maps to the coaction leg of v acting on w, tensor the rest of v."""
    W = _braided_past(V, False, source, target)
    return carrier_map(source, target, lambda x: on_leg(
        permute(on_leg(x, 0, V.table()), (0, 2, 1, 3)), slice(0, 2),
        W.action))


def _braid_step(com: Comodule, other: HModule, t: dict, twist) -> dict:
    """One comodule braiding step on legs 0 (in com) and 1 (in other) of t;
    the other legs pass through.

    The coaction leg of com, read in the algebra and times the second
    R-matrix leg (then mapped through the table twist, if one is given),
    acts on leg 1; the first R-matrix leg acts on what is left of leg 0;
    the two outputs swap places.
    """
    B = com.over
    t = on_leg(on_leg(t, 0, com.table()), 0, B.carrier.inclusion.columns())
    # (h, x, y, ..) -> (h, R^2, y, R^1, x, ..)
    t = {(k[0], q, k[2], p, k[1]) + k[3:]: c * w
         for k, c in t.items() for (p, q), w in B.rmatrix.r.items()}
    t = on_leg(t, slice(0, 2), com.algebra.mult)
    if twist is not None:
        t = on_leg(t, 0, twist)
    t = on_leg(t, slice(0, 2), other.action)
    return on_leg(t, slice(1, 3), com.module.action)


def comodule_braiding(U: Comodule, source, target) -> LinMap:
    """Braid the truncated tensor source of carrier comodules U and V onto
    target, the tensor of V and U: the coaction leg of u, pushed through
    an R-matrix leg, acts on v; the other R-matrix leg acts on what is
    left of u, and the two outputs swap places."""
    V = _braided_past(U, True, source, target)
    return carrier_map(source, target, lambda x: _braid_step(U, V, x, None))


def comodule_braiding_inv(U: Comodule, source, target) -> LinMap:
    """The inverse braiding, from the tensor of V and U back to that of U
    and V; needs the antipode inverse to untwist the coaction leg."""
    H = U.algebra
    if H.antipode_inverse_map is None:
        raise AntipodeNotInvertible(
            f"{H.name} carries no antipode inverse")
    V = _braided_past(U, True, target, source)
    return carrier_map(source, target, lambda x: permute(_braid_step(
        U, V, permute(x, (1, 0, 2)), H.antipode_inverse_map.columns()),
        (1, 0, 2)))


def check_comodule_braiding(U: Comodule, V: Comodule,
                            P: Comodule | None = None) -> VerificationReport:
    """Invertibility and, given a third comodule, both hexagons through
    comodule_tensor and comodule_braiding.  Raises ValueError unless V and
    P coact over the transmuted algebra U coacts over.  Agreement with
    yd_braiding of functor_F(U) holds by construction: both evaluate
    (u_(-1) R^2) . v (x) R^1 . u_(0) from the same tables."""
    H = U.algebra
    if any(_over(C, True) is not U.over for C in (V, P) if C is not None):
        raise ValueError("the comodules coact over different algebras")
    report = VerificationReport(subject=f"{H.name} comodule braiding")

    uv = truncated_tensor(U.module, V.module)
    vu = truncated_tensor(V.module, U.module)
    report.record("braiding_invertible", _inverse_mismatch(
        comodule_braiding_inv(U, vu, uv), comodule_braiding(U, uv, vu)))

    if P is not None:
        for name, witness in hexagon_mismatches(
                U, V, P, lambda C: C.module, comodule_tensor,
                comodule_braiding).items():
            report.record(name, witness)
    return report
