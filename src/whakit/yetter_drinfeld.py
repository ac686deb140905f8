"""Compatible-coaction modules and carrier comodules, with both braidings.

Two equivalent pictures of the same data live here.  A YDModule pairs a
left module with an ambient-valued coaction satisfying the adjoint-style
compatibility law; an RHComodule pairs a module with a coaction valued
in the transmuted carrier, H-linear and coassociative over the deformed
coproduct.  functor_G and functor_F translate between the pictures and
are mutually inverse on the nose, which check_equivalence_roundtrip
verifies table by table, together with monoidality.  yd_braiding and
comodule_braiding realize the braidings of the two categories; the
comodule braiding is verified invertible and equal to the translated
module braiding.  Like the module braiding, each takes the coacting
object and then its source and target carriers, and raises ValueError
unless target holds the legs of source swapped and the coacting
module is the left leg of source (of target, for the inverse).
"""

from __future__ import annotations

from functools import cache
from itertools import product

from .linalg import (LinMap, VectorSpace, act, flatten, on_leg, permute,
                     split_idempotent, unflatten)
from .module_cat import (HModule, carrier_map, carrier_mismatch,
                         regular_module, swapped_legs, triple_projector,
                         truncation_projector, truncated_tensor, unit_object)
from .transmutation import BraidedHopfAlgebra
from .weak_hopf import (VerificationReport, entries_witness, first_unequal,
                        first_witness, map_witness)


class CoactionEscapesCarrier(RuntimeError):
    """A translated coaction has a leg outside the centralizer carrier."""


class AntipodeNotInvertible(RuntimeError):
    """The inverse braiding needs an antipode inverse the algebra lacks."""


def _coaction_table(coaction: LinMap, first_dim: int) -> dict:
    """A flattened coaction as a splice table {j: {(a, m): c}}."""
    dims = (first_dim, coaction.domain.dim)
    return {j: unflatten(coaction.column(j), dims)
            for j in range(coaction.domain.dim)}


class YDModule:
    """A left module with an ambient-valued compatible coaction.

    coaction_h maps the module into the flattened tensor H (x) M, first
    leg major, in ambient algebra coordinates.
    """

    def __init__(self, module: HModule, coaction_h: LinMap):
        self.module = module
        self.algebra = module.algebra
        if coaction_h.domain.dim != module.dim:
            raise ValueError("coaction domain does not match the module")
        if coaction_h.codomain.dim != self.algebra.dim * module.dim:
            raise ValueError("coaction codomain is not the tensor square")
        self.coaction_h = coaction_h
        self._table = None

    @property
    def dim(self):
        return self.module.dim

    def coaction_pairs(self, vec: dict) -> dict:
        return unflatten(self.coaction_h(vec), (self.algebra.dim, self.dim))

    def table(self) -> dict:
        """The coaction as a splice table {j: {(a, m): c}}."""
        if self._table is None:
            self._table = _coaction_table(self.coaction_h, self.algebra.dim)
        return self._table


class RHComodule:
    """A module with a coaction valued in the transmuted carrier.

    coaction_rh maps into the flattened tensor carrier (x) M, first leg
    major, first leg in carrier coordinates.
    """

    def __init__(self, braided: BraidedHopfAlgebra, module: HModule,
                 coaction_rh: LinMap):
        self.braided = braided
        self.module = module
        self.algebra = module.algebra
        if coaction_rh.domain.dim != module.dim:
            raise ValueError("coaction domain does not match the module")
        if coaction_rh.codomain.dim != braided.dim * module.dim:
            raise ValueError("coaction codomain is not carrier by module")
        self.coaction_rh = coaction_rh
        self._table = None

    @property
    def dim(self):
        return self.module.dim

    def coaction_pairs(self, vec: dict) -> dict:
        return unflatten(self.coaction_rh(vec), (self.braided.dim, self.dim))

    def table(self) -> dict:
        """The coaction as a splice table {j: {(a, m): c}}."""
        if self._table is None:
            self._table = _coaction_table(self.coaction_rh, self.braided.dim)
        return self._table


def _coassociative(table: dict, comult: dict, dim: int):
    """The coassociativity witness of a coaction table over comult."""
    return first_unequal(product(range(dim)), lambda j: (
        on_leg(table[j], 0, comult), on_leg(table[j], 1, table)))


def check_yd(Y: YDModule) -> VerificationReport:
    """Verify every compatible-coaction law on all basis elements."""
    H = Y.algebra
    M = Y.module
    H.require_certified()
    report = VerificationReport(subject=f"{H.name} compatible coaction")

    P = truncation_projector(regular_module(H), M)
    report.record("coaction_lands_in_truncated",
                  map_witness(P.compose(Y.coaction_h), Y.coaction_h))

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


def induced_yd(M: HModule, R) -> YDModule:
    """The coaction every plain module carries: act with one R-matrix leg
    and expose the other."""
    R.require_certified()
    H = M.algebra
    return YDModule(M, LinMap.from_function(
        M.space, VectorSpace(H.dim * M.dim), lambda j: flatten(on_leg(
            {(q, p, j): v for (p, q), v in R.r.items()}, slice(1, 3),
            M.action), (H.dim, M.dim))))


def check_rh_comodule(N: RHComodule) -> VerificationReport:
    """Verify the carrier-comodule laws on all basis elements."""
    B = N.braided
    H = N.algebra
    M = N.module
    report = VerificationReport(subject=f"{H.name} carrier comodule")

    P = truncation_projector(B.module, M)
    report.record("coaction_lands_in_truncated",
                  map_witness(P.compose(N.coaction_rh), N.coaction_rh))

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


def functor_G(Y: YDModule, B: BraidedHopfAlgebra) -> RHComodule:
    """Translate an ambient coaction into a carrier coaction by absorbing
    one antipode-twisted R-matrix leg."""
    H = Y.algebra
    M = Y.module
    S = H.antipode_map.columns()
    proj = B.carrier.projection.columns()
    outside = {t for t in range(H.dim) if not B.carrier.contains({t: 1})}
    table = Y.table()

    def column(j):
        # m_(-1) S(R^2) (x) R^1 . m_(0)
        pd = {(a, q, p, m): v * w for (a, m), v in table[j].items()
              for (p, q), w in B.rmatrix.r.items()}
        pd = on_leg(on_leg(on_leg(pd, 1, S), slice(0, 2), H.mult),
                    slice(1, 3), M.action)
        if any(t in outside for t, _ in pd):
            raise CoactionEscapesCarrier(
                f"translated coaction of basis {j} left the carrier")
        return flatten(on_leg(pd, 0, proj), (B.dim, M.dim))
    return RHComodule(B, M, LinMap.from_function(
        M.space, VectorSpace(B.dim * M.dim), column))


def functor_F(N: RHComodule) -> YDModule:
    """Translate a carrier coaction back by restoring the R-matrix leg."""
    B = N.braided
    H = N.algebra
    M = N.module
    incl = B.carrier.inclusion.columns()
    table = N.table()

    def column(j):
        # m_(-1) R^2 (x) R^1 . m_(0), the carrier leg read in the algebra
        t = {(a, q, p, m): v * w for (a, m), v in table[j].items()
             for (p, q), w in B.rmatrix.r.items()}
        t = on_leg(on_leg(on_leg(t, 0, incl), slice(0, 2), H.mult),
                   slice(1, 3), M.action)
        return flatten(t, (H.dim, M.dim))
    return YDModule(M, LinMap.from_function(
        M.space, VectorSpace(H.dim * M.dim), column))


def trivial_comodule(B: BraidedHopfAlgebra, M: HModule) -> RHComodule:
    """The coaction pairing each vector with the truncated unit."""
    H = B.algebra
    one_c = B.carrier.projection(dict(H.unit))
    return RHComodule(B, M, LinMap.from_function(
        M.space, VectorSpace(B.dim * M.dim), lambda j: flatten(act(
            (B.module.action, M.action), H.delta_one(),
            {(a, j): c for a, c in one_c.items()}), (B.dim, M.dim))))


def regular_rh_comodule(B: BraidedHopfAlgebra) -> RHComodule:
    """The carrier coacting on itself through the deformed coproduct."""
    return RHComodule(B, B.module, LinMap.from_function(
        B.space, VectorSpace(B.dim * B.dim),
        lambda i: flatten(B.comult.get(i, {}), (B.dim, B.dim))))


def _tensor_coaction(tt, first_dim: int, coact) -> LinMap:
    """The coaction on a truncated tensor tt whose column j, keyed
    (coacting leg, left module leg, right module leg), is coact(pairs)
    for the pair-keyed embedding of carrier basis j; the module legs are
    projected back onto the carrier, which they must not leave."""
    proj = tt.projection_table()
    incl = tt.inclusion_table()

    def column(j):
        raw = coact(incl[j])
        coords = on_leg(raw, slice(1, 3), proj)
        if on_leg(coords, 1, incl) != raw:
            raise CoactionEscapesCarrier(
                f"tensor coaction of basis {j} missed the truncated square")
        return flatten(coords, (first_dim, tt.dim))
    return LinMap.from_function(tt.space, VectorSpace(first_dim * tt.dim),
                                column)


def _tensor_legs(tt, left: HModule, right: HModule) -> None:
    """ValueError unless the carrier tt is the truncated tensor of left
    and right, in that order."""
    if tt.left is not left or tt.right is not right:
        raise ValueError("the carrier's legs are not the two modules")


def yd_tensor(tt, Y1: YDModule, Y2: YDModule) -> YDModule:
    """The compatible coaction on tt, the truncated tensor of the modules
    of Y1 and Y2: multiply the ambient legs, pair the module legs."""
    _tensor_legs(tt, Y1.module, Y2.module)
    H = Y1.algebra
    t1, t2 = Y1.table(), Y2.table()
    return YDModule(tt, _tensor_coaction(tt, H.dim, lambda pd: on_leg(
        permute(on_leg(on_leg(pd, 0, t1), 2, t2), (0, 2, 1, 3)),
        slice(0, 2), H.mult)))


def comodule_tensor(tt, M: RHComodule, N: RHComodule) -> RHComodule:
    """Tensor two carrier comodules on tt, the truncated tensor of their
    modules: braid the inner legs with the R-matrix, multiply the carrier
    legs with the deformed product."""
    B = M.braided
    if N.braided is not B:
        raise ValueError("comodules live over different transmutations")
    _tensor_legs(tt, M.module, N.module)
    t1, t2 = M.table(), N.table()
    inner = (None, M.module.action, B.module.action, None)
    return RHComodule(B, tt, _tensor_coaction(tt, B.dim, lambda pd: on_leg(
        permute(act(inner, B.rmatrix.r, on_leg(on_leg(pd, 0, t1), 2, t2)),
                (0, 2, 1, 3)), slice(0, 2), B.mult)))


def check_equivalence_roundtrip(H, R, braided) -> VerificationReport:
    """Round both translations on every sample and compare coaction tables.

    The samples are the regular module, the unit object and the carrier
    of the transmuted algebra braided, each entering through its induced
    coaction.  The carrier coacting on itself through the deformed
    coproduct is also included from the comodule side.  Monoidality
    compares the translated tensor coaction with the tensor of the
    translations, pairwise over the samples.
    """
    H.require_certified()
    R.require_certified()
    B = braided
    samples = [regular_module(H), unit_object(H), B.module]
    report = VerificationReport(subject=f"{H.name} equivalence roundtrip")

    yds = [induced_yd(M, R) for M in samples]
    # each sample's translation, built on first use, serves both the
    # roundtrip and every monoidality pair it enters
    translated = cache(lambda k: functor_G(yds[k], B))
    report.record("g_then_f_restores_coaction", first_witness(
        ((k,), entries_witness(functor_F(translated(k)).coaction_h,
                               Y.coaction_h))
        for k, Y in enumerate(yds)))

    comods = [trivial_comodule(B, M) for M in samples]
    comods.append(regular_rh_comodule(B))
    report.record("f_then_g_restores_coaction", first_witness(
        ((k,), entries_witness(functor_G(functor_F(N), B).coaction_rh,
                               N.coaction_rh))
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
            functor_G(yd_tensor(tt, Y1, Y2), B).coaction_rh,
            comodule_tensor(tt, translated(k1), translated(k2)).coaction_rh)
    report.record("translation_monoidal", first_witness(
        ((k1, k2), monoidal(k1, k2))
        for k1, k2 in product(range(len(yds)), repeat=2)))
    return report


def _braided_past(coacting, source, target):
    """The right leg of source, which coacting braids past; ValueError
    unless target holds the source legs swapped and coacting is the left."""
    M, N = swapped_legs(source, target)
    if M is not coacting:
        raise ValueError("the coacting module is not the left leg")
    return N


def yd_braiding(V: YDModule, source, target) -> LinMap:
    """Braid the truncated tensor source of V and W onto target, the
    tensor of W and V, by acting with the exposed coaction leg: v (x) w
    maps to the coaction leg of v acting on w, tensor the rest of v."""
    W = _braided_past(V.module, source, target)
    return carrier_map(source, target, lambda x: on_leg(
        permute(on_leg(x, 0, V.table()), (0, 2, 1, 3)), slice(0, 2),
        W.action))


def _braid_step(com: RHComodule, other: HModule, t: dict, leg: int,
                twist) -> dict:
    """One comodule braiding step on legs leg (in com) and leg + 1 (in
    other) of t; the other legs pass through.

    The coaction leg of com, read in the algebra and times the second
    R-matrix leg (then mapped through the table twist, if one is given),
    acts on leg + 1; the first R-matrix leg acts on what is left of leg;
    the two outputs swap places.
    """
    B = com.braided
    t = on_leg(on_leg(t, leg, com.table()), leg,
               B.carrier.inclusion.columns())
    # (.., h, x, y, ..) -> (.., h, R^2, y, R^1, x, ..)
    t = {k[:leg] + (k[leg], q, k[leg + 2], p, k[leg + 1]) + k[leg + 3:]: c * w
         for k, c in t.items() for (p, q), w in B.rmatrix.r.items()}
    t = on_leg(t, slice(leg, leg + 2), com.algebra.mult)
    if twist is not None:
        t = on_leg(t, leg, twist)
    t = on_leg(t, slice(leg, leg + 2), other.action)
    return on_leg(t, slice(leg + 1, leg + 3), com.module.action)


def comodule_braiding(U: RHComodule, source, target) -> LinMap:
    """Braid the truncated tensor source of carrier comodules U and V onto
    target, the tensor of V and U: the coaction leg of u, pushed through
    an R-matrix leg, acts on v; the other R-matrix leg acts on what is
    left of u, and the two outputs swap places."""
    V = _braided_past(U.module, source, target)
    return carrier_map(source, target, lambda x: _braid_step(U, V, x, 0, None))


def comodule_braiding_inv(U: RHComodule, source, target) -> LinMap:
    """The inverse braiding, from the tensor of V and U back to that of U
    and V; needs the antipode inverse to untwist the coaction leg."""
    H = U.algebra
    if H.antipode_inverse_map is None:
        raise AntipodeNotInvertible(
            f"{H.name} carries no antipode inverse")
    V = _braided_past(U.module, target, source)
    return carrier_map(source, target, lambda x: permute(_braid_step(
        U, V, permute(x, (1, 0, 2)), 0, H.antipode_inverse_map.columns()),
        (1, 0, 2)))


def check_comodule_braiding(U: RHComodule, V: RHComodule,
                            P: RHComodule | None = None) -> VerificationReport:
    """Invertibility, agreement with the translated module braiding, and,
    given a third comodule, both hexagon identities."""
    H = U.algebra
    report = VerificationReport(subject=f"{H.name} comodule braiding")

    uv = truncated_tensor(U.module, V.module)
    vu = truncated_tensor(V.module, U.module)
    forward = comodule_braiding(U, uv, vu)
    inverse = comodule_braiding_inv(U, vu, uv)
    report.record("braiding_invertible",
                  map_witness(inverse.compose(forward),
                              LinMap.identity(uv.space))
                  or map_witness(forward.compose(inverse),
                                 LinMap.identity(vu.space)))

    translated = yd_braiding(functor_F(U), uv, vu)
    report.record("matches_translated_module_braiding",
                  map_witness(forward, translated))

    if P is not None:
        split3 = split_idempotent(triple_projector(U.module, V.module,
                                                   P.module))
        dims = (U.dim, V.dim, P.dim)
        for name, braids in _hexagon_braids(uv, U, V, P).items():
            report.record(name, carrier_mismatch(split3, dims, *braids))
    return report


def _hexagon_braids(uv, U, V, P):
    """The one-step and two-step braids of both comodule hexagons, uv the
    truncated tensor of the modules of U and V.

    Forward braids the tensor of U and V past P, against first the V leg,
    then the U leg; backward braids U past the tensor of V and P, against
    first past V, then past P.
    """
    UV = comodule_tensor(uv, U, V)
    proj = UV.module.projection_table()
    incl = UV.module.inclusion_table()
    H = U.algebra
    R = U.braided.rmatrix

    def forward_one(x):
        # the truncated tensor of U and V, one comodule, braids past P
        t = on_leg(x, slice(0, 2), proj)
        return on_leg(_braid_step(UV, P.module, t, 0, None), 1, incl)

    def forward_two(x):
        t = _braid_step(V, P.module, x, 1, None)
        return _braid_step(U, P.module, t, 0, None)

    def backward_one(x):
        # the coaction leg of u, times R^2, acts on the V and P legs
        # through its coproduct; R^1 acts on what is left of u
        t = on_leg(on_leg(x, 0, U.table()), 0,
                   U.braided.carrier.inclusion.columns())
        # (h, u, v, w, j) -> (h, R^2, v, w, R^1, u, j)
        t = {(h, q, v, w, p, u, j): c * r for (h, u, v, w, j), c in t.items()
             for (p, q), r in R.r.items()}
        t = on_leg(on_leg(t, slice(0, 2), H.mult), 0, H.comult)
        t = on_leg(permute(t, (0, 2, 1, 3, 4, 5, 6)), slice(0, 2),
                   V.module.action)
        t = on_leg(t, slice(1, 3), P.module.action)
        return on_leg(t, slice(2, 4), U.module.action)

    def backward_two(x):
        t = _braid_step(U, V.module, x, 0, None)
        return _braid_step(U, P.module, t, 1, None)

    return {"hexagon_forward": (forward_one, forward_two),
            "hexagon_backward": (backward_one, backward_two)}
