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

A coaction m -> m_(-1) (x) m_(0) is held as its splice table
{j: {(a, m): c}}, a column per module basis j keyed by the coacting leg
and the module leg, the shape every law here reads through on_leg; no
other module knows this format.  Comodule(...) checks the keys and
values of a table from outside the package and drops its zeros.
Comodule._adopt takes the tables that the functors, the tensors,
induced_yd and trivial_comodule build, complete, zero-free and in range
by construction, unchecked, by the rule LinMap._adopt follows.

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

yd_braiding and yd_braiding_inv realize the braiding of the compatible
coactions and its inverse, the inverse through the antipode inverse.
The equivalence is braided, so the braiding of carrier comodules is
yd_braiding of functor_F of the one braided, and likewise for the
inverse.  Like the module braiding, each takes the coacting object and
then its source and target carriers, and raises ValueError unless
target holds the legs of source swapped and the coacting module is the
left leg of source (of target, for the inverse).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

from .linalg import (_ONE, DimensionMismatch, LinMap, VectorSpace, act,
                     check_keys, flatten, on_leg, outer, permute)
from .module_cat import (HModule, _inverse_mismatch, _split_columns,
                         carrier_map, hexagon_mismatches, regular_module,
                         swapped_legs, truncation_projector, truncated_tensor,
                         unit_object)
from .scalars import Cyclo, FieldMismatch, _canon
from .transmutation import BraidedHopfAlgebra
from .weak_hopf import (VerificationReport, coassociative_mismatch,
                        entries_witness, first_unequal, first_witness,
                        map_witness)


class CoactionEscapesCarrier(RuntimeError):
    """A translated coaction has a leg outside the centralizer carrier."""


class AntipodeNotInvertible(RuntimeError):
    """The inverse braiding needs an antipode inverse the algebra lacks."""


class Comodule:
    """A module M with a coaction over `over`: the algebra H of M, the
    coaction landing in H (x) M, or a transmuted algebra of H, the
    coaction landing in its carrier (x) M.

    table is the coaction {j: {(a, m): c}}, a in the coordinates of
    over; a missing column reads as {}, a key out of range or not an int
    (a pair of ints in a column) raises DimensionMismatch naming it, and a
    value outside the field TypeError, as in HModule, or else is kept as
    given.  coaction is that map flattened, first leg major, on each read.
    """

    def __init__(self, over, module: HModule, table: dict):
        if getattr(over, "algebra", over) is not module.algebra:
            raise ValueError("the module is over another algebra")
        for j, col in table.items():
            if type(j) is not int or not 0 <= j < module.dim:
                raise DimensionMismatch(f"coaction: column {j!r} out of range")
            check_keys(col, f"coaction column {j}", (over.dim, module.dim))
        self.over, self.module, self.algebra = over, module, module.algebra
        co = module.algebra.field.coerce
        self.table = {j: {k: c for k, c in table.get(j, {}).items() if co(c)}
                      for j in range(module.dim)}

    @classmethod
    def _adopt(cls, over, module: HModule, table: dict) -> "Comodule":
        """A comodule on a table the package built, taken as it stands."""
        C = object.__new__(cls)
        C.over, C.module, C.algebra = over, module, module.algebra
        C.table = table
        return C

    @property
    def dim(self):
        return self.module.dim

    @property
    def coaction(self) -> LinMap:
        dims = (self.over.dim, self.dim)
        return LinMap._adopt(
            self.module.space, VectorSpace(self.over.dim * self.dim),
            {j: flatten(t, dims) for j, t in self.table.items() if t})


def _over(C: Comodule, braided: bool):
    """What C coacts over; ValueError unless that is a transmuted algebra
    exactly when braided is True."""
    if isinstance(C.over, BraidedHopfAlgebra) is not braided:
        side = "a transmuted algebra" if braided else "its module's algebra"
        raise ValueError(f"the comodule does not coact over {side}")
    return C.over


def coaction_lands_in_truncated(C: Comodule, over_module: HModule):
    """Where C's coaction leaves the truncated tensor of over_module and M."""
    coaction = C.coaction
    P = truncation_projector(over_module, C.module)
    return map_witness(P.compose(coaction), coaction)


def check_yd(Y: Comodule) -> VerificationReport:
    """Verify every compatible-coaction law on all basis elements."""
    H = _over(Y, False)
    M = Y.module
    H.require_certified()
    report = VerificationReport(subject=f"{H.name} compatible coaction")

    report.record("coaction_lands_in_truncated",
                  coaction_lands_in_truncated(Y, regular_module(H)))

    table = Y.table
    eps = {i: {(): c} for i, c in H.counit.items()}
    report.record("coaction_counital", first_unequal(
        product(range(M.dim)), lambda j: (
            {m: c for (m,), c in on_leg(table[j], 0, eps).items()}, {j: 1})))
    report.record("coaction_coassociative",
                  coassociative_mismatch(table, H.comult, M.dim))

    # rho(i . m) = i_1 m_(-1) S(i_3) (x) i_2 . m_(0)
    S = H.antipode_map.columns()

    def compatible(i, j):
        t = permute(outer(H.comult2(i), table[j]), (0, 3, 2, 1, 4))
        t = on_leg(on_leg(on_leg(t, 2, S), slice(0, 2), H.mult), slice(0, 2),
                   H.mult)
        return (on_leg(on_leg({(i, j): 1}, slice(0, 2), M.action), 0, table),
                on_leg(t, slice(1, 3), M.action))
    report.record("action_coaction_compatible", first_unequal(
        product(range(H.dim), range(M.dim)), compatible))

    def absorbed(j):
        # m_(-1) S(1_2) (x) 1_1 . m_(0) against rho(m)
        t = permute(outer(table[j], H.delta_one()), (0, 3, 2, 1))
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
    return Comodule._adopt(H, M, {j: on_leg(
        {(q, p, j): v for (p, q), v in R.r.items()}, slice(1, 3), M.action)
        for j in range(M.dim)})


def check_rh_comodule(N: Comodule) -> VerificationReport:
    """Verify the carrier-comodule laws on all basis elements."""
    B = _over(N, True)
    H = N.algebra
    M = N.module
    report = VerificationReport(subject=f"{H.name} carrier comodule")

    report.record("coaction_lands_in_truncated",
                  coaction_lands_in_truncated(N, B.module))

    table = N.table
    report.record("coaction_coassociative_deformed",
                  coassociative_mismatch(table, B.comult, M.dim))

    eps_t = {a: H.epsilon_t(z) for a, z in B.carrier.inclusion.columns().items()}

    def counital(j):
        # eps_t(m_(-1)) . m_(0) against m
        t = on_leg(on_leg(table[j], 0, eps_t), slice(0, 2), M.action)
        return {m: c for (m,), c in t.items()}, {j: 1}
    report.record("coaction_counital_target",
                  first_unequal(product(range(M.dim)), counital))

    report.record("coaction_h_linear", first_unequal(
        product(range(H.dim), range(M.dim)), lambda i, j: (
            on_leg(on_leg({(i, j): 1}, slice(0, 2), M.action), 0, table),
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


def _absorb_r(table: dict, read: dict, twist: dict, M: HModule, B) -> dict:
    """Each column j of m_(-1) twist(R^2) (x) R^1 . m_(0), the coaction
    leg of table[j] read through read, in one pass.  R^1 . m and
    twist(R^2) depend on m alone, so they are formed once per basis m."""
    r = B.rmatrix.r
    by_value, products = _products(M.algebra.mult)
    # only R^1's rows of the action are read
    action = M.action_of(sorted({p for p, _ in r}))
    kernel = {m: by_value(on_leg(on_leg(
        {(q, p, m): w for (p, q), w in r.items()}, 0, twist),
        slice(1, 3), action)) for m in range(M.dim)}
    reads = {x: by_value({(a,): c for a, c in col.items()})
             for x, col in read.items()}
    return {j: products((v, reads[x], kernel[m]) for (x, m), v in col.items())
            for j, col in table.items()}


def _located(carrier, columns: dict, leg, dims, escape: str) -> dict:
    """The columns {j: t} in carrier coordinates on leg, split into legs
    of dims, by one locate, j riding along as a trailing leg that keeps
    each column's key order; CoactionEscapesCarrier names, through
    escape, the first column j that left the carrier."""
    coords, inside = carrier.locate(
        {k + (j,): c for j, t in columns.items() for k, c in t.items()},
        leg, dims)
    if not inside:
        j = next(j for j, t in columns.items()
                 if not carrier.locate(t, leg, dims)[1])
        raise CoactionEscapesCarrier(escape.format(j))
    return dict(enumerate(_split_columns(coords, len(columns))))


def functor_G(Y: Comodule, B: BraidedHopfAlgebra) -> Comodule:
    """Translate an ambient coaction into a carrier coaction by absorbing
    one antipode-twisted R-matrix leg: m_(-1) S(R^2) (x) R^1 . m_(0),
    every column located on the carrier at once."""
    H, M = _over(Y, False), Y.module
    absorbed = _absorb_r(Y.table, {i: {i: 1} for i in range(H.dim)},
                         H.antipode_map.columns(), M, B)
    return Comodule._adopt(B, M, _located(
        B.carrier, absorbed, 0, (H.dim,),
        "translated coaction of basis {} left the carrier"))


def functor_F(N: Comodule) -> Comodule:
    """Translate a carrier coaction back by restoring the R-matrix leg:
    m_(-1) R^2 (x) R^1 . m_(0), the carrier leg read in the algebra."""
    B, H, M = _over(N, True), N.algebra, N.module
    return Comodule._adopt(H, M, _absorb_r(
        N.table, B.carrier.inclusion.columns(),
        {i: {i: 1} for i in range(H.dim)}, M, B))


def trivial_comodule(B: BraidedHopfAlgebra, M: HModule) -> Comodule:
    """The coaction pairing each vector with the truncated unit."""
    H = B.algebra
    one_c = B.carrier.projection(dict(H.unit))
    return Comodule._adopt(B, M, {j: act(
        (B.module.action, M.action), H.delta_one(),
        {(a, j): c for a, c in one_c.items()}) for j in range(M.dim)})


def regular_rh_comodule(B: BraidedHopfAlgebra) -> Comodule:
    """The carrier coacting on itself through the deformed coproduct, its
    table copied from B.comult, a column B.comult leaves out read as {}."""
    return Comodule(B, B.module, B.comult)


def _tensor_coaction(tt, coact) -> dict:
    """The coaction table on a truncated tensor tt whose column j, keyed
    (coacting leg, left module leg, right module leg), is coact(pairs)
    for the pair-keyed embedding of carrier basis j; one locate takes
    every column's module legs back to carrier coordinates."""
    incl = tt.inclusion_table()
    return _located(tt.carrier, {j: coact(incl[j]) for j in range(tt.dim)},
                    slice(1, 3), tt.dims,
                    "tensor coaction of basis {} missed the truncated square")


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
    t1 = {m: by_value(c) for m, c in Y1.table.items()}
    t2 = {n: by_value(c) for n, c in Y2.table.items()}
    return Comodule._adopt(H, tt, _tensor_coaction(tt, lambda pd: products(
        (c, t1[m], t2[n]) for (m, n), c in pd.items())))


def comodule_tensor(tt, M: Comodule, N: Comodule) -> Comodule:
    """Tensor two carrier comodules on tt, the truncated tensor of their
    modules: braid the inner legs with the R-matrix, multiply the carrier
    legs with the deformed product."""
    B = _tensor_legs(tt, M, N, True)
    t1, t2 = M.table, N.table
    inner = (None, M.module.action, B.module.action, None)
    return Comodule._adopt(B, tt, _tensor_coaction(tt, lambda pd: on_leg(
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

    def coaction_witness(C, D):
        return None if C.table == D.table else entries_witness(
            C.coaction, D.coaction)

    yds = [induced_yd(M, R) for M in samples]
    # each sample's translation, built on first use, serves both the
    # roundtrip and every monoidality pair it enters
    translated = cache(lambda k: functor_G(yds[k], B))
    report.record("g_then_f_restores_coaction", first_witness(
        ((k,), coaction_witness(functor_F(translated(k)), Y))
        for k, Y in enumerate(yds)))

    comods = [trivial_comodule(B, M) for M in samples]
    comods.append(regular_rh_comodule(B))
    report.record("f_then_g_restores_coaction", first_witness(
        ((k,), coaction_witness(functor_G(functor_F(N), B), N))
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
        return coaction_witness(functor_G(yd_tensor(tt, Y1, Y2), B),
                                comodule_tensor(tt, translated(k1),
                                                translated(k2)))
    report.record("translation_monoidal", first_witness(
        ((k1, k2), monoidal(k1, k2))
        for k1, k2 in product(range(len(yds)), repeat=2)))
    return report


def _braided_past(C: Comodule, source, target):
    """The right leg of source, which the module of C braids past;
    ValueError unless C coacts over its module's algebra, target holds the
    source legs swapped and the module of C is the left."""
    _over(C, False)
    M, N = swapped_legs(source, target)
    if M is not C.module:
        raise ValueError("the coacting module is not the left leg")
    return N


def yd_braiding(V: Comodule, source, target) -> LinMap:
    """Braid the truncated tensor source of V and W onto target, the
    tensor of W and V, by acting with the exposed coaction leg: v (x) w
    maps to the coaction leg of v acting on w, tensor the rest of v."""
    W = _braided_past(V, source, target)
    return carrier_map(source, target, lambda x: on_leg(
        permute(on_leg(x, 0, V.table), (0, 2, 1, 3)), slice(0, 2),
        W.action))


def yd_braiding_inv(V: Comodule, source, target) -> LinMap:
    """The inverse braiding, from the tensor source of W and V back to
    target, that of V and W: w (x) v maps to the rest of v tensor the
    antipode inverse of the coaction leg of v acting on w."""
    H = V.algebra
    if H.antipode_inverse_map is None:
        raise AntipodeNotInvertible(
            f"{H.name} carries no antipode inverse")
    W = _braided_past(V, target, source)
    untwist = H.antipode_inverse_map.columns()
    return carrier_map(source, target, lambda x: permute(on_leg(permute(
        on_leg(on_leg(x, 1, V.table), 1, untwist), (1, 0, 2, 3)),
        slice(0, 2), W.action), (1, 0, 2)))


def check_comodule_braiding(U: Comodule, V: Comodule,
                            P: Comodule | None = None) -> VerificationReport:
    """Invertibility and, given a third comodule, both hexagons through
    comodule_tensor and the braiding of carrier comodules, yd_braiding
    and yd_braiding_inv of functor_F of the one braided, each distinct
    comodule translated once.  Raises ValueError unless V and P coact over
    the transmuted algebra U coacts over."""
    H = U.algebra
    if any(_over(C, True) is not U.over for C in (V, P) if C is not None):
        raise ValueError("the comodules coact over different algebras")
    report = VerificationReport(subject=f"{H.name} comodule braiding")
    F = cache(functor_F)

    uv = truncated_tensor(U.module, V.module)
    vu = truncated_tensor(V.module, U.module)
    report.record("braiding_invertible", _inverse_mismatch(
        yd_braiding_inv(F(U), vu, uv), yd_braiding(F(U), uv, vu)))

    if P is not None:
        for name, witness in hexagon_mismatches(
                U, V, P, lambda C: C.module, comodule_tensor,
                lambda A, *carriers: yd_braiding(F(A), *carriers)).items():
            report.record(name, witness)
    return report
