"""Transmutation: the braided Hopf algebra living on a centralizer carrier.

A certified quasitriangular pair (H, R) induces a Hopf algebra object
inside the braided category of H-modules.  Its carrier is the
centralizer of the source subalgebra, an H-module under the adjoint
action h . x = h_1 x S(h_2).  The deformed structure maps are:

  product        a tensor b  ->  (1_1 . a)(1_2 . b)
  unit           the inclusion of the target subalgebra
  coproduct      x  ->  x_1 S(R^2) tensor R^1 . x_2
  counit         the target counital map, restricted
  antipode       x  ->  R^2 R'^2 S(R^1 x S(R'^1)),  R' a second copy of R

check_braided_hopf verifies every braided Hopf law on the carrier.
"""

from __future__ import annotations

from itertools import product

from .linalg import (DimensionMismatch, LinMap, Subspace, VectorSpace, act,
                     on_leg, outer, permute, split_idempotent)
from .module_cat import (HModule, carrier_mismatch,
                         h_linear_mismatch, left_unitor, right_unitor,
                         triple_projector, truncated_tensor, unit_object)
from .weak_hopf import (NotCertified, VerificationReport, WeakHopfAlgebra,
                        first_unequal, first_witness, map_witness)


class CarrierInvariantError(RuntimeError):
    """A structure map left the centralizer carrier; the inputs are broken."""


class ComultiplicationEscapesCarrier(CarrierInvariantError):
    """The deformed coproduct left the truncated square of the carrier."""


def _checked_coords(carrier: Subspace, vec: dict, message: str) -> dict:
    """Carrier coordinates of vec; CarrierInvariantError(message) when vec
    lies outside the carrier."""
    try:
        return carrier.coords(vec)
    except DimensionMismatch:
        raise CarrierInvariantError(message) from None


def centralizer_subalgebra(H) -> Subspace:
    """The span of 1_1 e_i S(1_2) over all basis i, verified to commute
    with the source subalgebra.  That it is closed under multiplication is
    tested once, by transmute, as it takes the products of carrier pairs
    to carrier coordinates."""
    H.require_certified()
    S = H.antipode_map.columns()
    carrier = Subspace.from_span(H.space, [H.fold(on_leg(
        {(x, i, y): v for (x, y), v in H.delta_one().items()}, 2, S))
        for i in range(H.dim)])
    src = H.source_space()
    for j in range(carrier.dim):
        x = carrier.inclusion.column(j)
        for k in range(src.dim):
            y = src.inclusion.column(k)
            if H.multiply(x, y) != H.multiply(y, x):
                raise CarrierInvariantError(
                    "carrier element does not commute with the source subalgebra")
    return carrier


def _adjoint_module(H, carrier: Subspace) -> HModule:
    """The adjoint action h . x = h_1 x S(h_2) in carrier coordinates."""
    S = H.antipode_map.columns()
    action = {}
    for j in range(carrier.dim):
        x = carrier.inclusion.column(j)
        for i in range(H.dim):
            t = {(a, p, b): v * c for (a, b), v in H.comult.get(i, {}).items()
                 for p, c in x.items()}
            coords = _checked_coords(carrier, H.fold(on_leg(t, 2, S)),
                                     "adjoint action left the carrier")
            for r, c in coords.items():
                action[(i, r, j)] = c
    return HModule(H, VectorSpace(carrier.dim), action)


class BraidedHopfAlgebra:
    """The transmuted Hopf algebra object, in carrier coordinates.

    mult/comult are kept as sparse structure-constant tables mirroring
    WeakHopfAlgebra, with LinMap forms on the truncated square exposed
    as mult_bar and comult_bar.
    """

    fold = WeakHopfAlgebra.fold

    def __init__(self, algebra, rmatrix, carrier, module, square,
                 unit_module, mult_table, comult_table, counit_bar,
                 antipode_bar, unit_bar):
        self.algebra = algebra
        self.rmatrix = rmatrix
        self.carrier = carrier
        self.module = module
        self.square = square
        self.unit_module = unit_module
        self.mult = mult_table
        self.comult = comult_table
        self.counit_bar = counit_bar
        self.antipode_bar = antipode_bar
        self.unit_bar = unit_bar
        self.space = module.space
        self.certified = False
        embedded = square.inclusion_table()
        self.mult_bar = LinMap.from_function(
            square.space, self.space, lambda j: self.fold(embedded[j]))
        self.comult_bar = LinMap.from_function(
            self.space, square.space,
            lambda i: square.project_pairs(comult_table.get(i, {})))

    @property
    def dim(self):
        return self.space.dim

    def require_certified(self):
        if not self.certified:
            raise NotCertified(
                "braided Hopf algebra has not been certified")

    def __repr__(self):
        flag = "certified" if self.certified else "unverified"
        return (f"BraidedHopfAlgebra(over {self.algebra.name!r}, "
                f"dim={self.dim}, {flag})")


def transmute(H, R) -> BraidedHopfAlgebra:
    """Build the braided Hopf algebra on the centralizer carrier."""
    H.require_certified()
    R.require_certified()
    carrier = centralizer_subalgebra(H)
    mult_table = {}
    for i, j in product(range(carrier.dim), repeat=2):
        prod = H.multiply(carrier.inclusion.column(i),
                          carrier.inclusion.column(j))
        if prod:
            mult_table[(i, j)] = _checked_coords(
                carrier, prod, "carrier is not closed under multiplication")

    module = _adjoint_module(H, carrier)
    square = truncated_tensor(module, module)
    unit_module = unit_object(H)
    tgt = unit_module.target
    S = H.antipode_map.columns()
    one = (H.dim,)

    comult_table = {}
    for i in range(carrier.dim):
        # x_1 S(R^2) (x) R^1 . x_2, the adjoint action p_1 x_2 S(p_2)
        # written out on the R^1 = p leg
        t = permute(outer(H.comultiply(carrier.inclusion.column(i)), R.r),
                    (0, 3, 2, 1))
        t = on_leg(on_leg(t, 1, S), slice(0, 2), H.mult)
        t = on_leg(permute(on_leg(t, 1, H.comult), (0, 1, 3, 2)), 3, S)
        pd = on_leg(on_leg(t, slice(1, 3), H.mult), slice(1, 3), H.mult)
        # pd lies in carrier (x) carrier exactly when each leg does
        coords, first = carrier.locate(pd, 0, one)
        coords, second = carrier.locate(coords, 1, one)
        if not (first and second):
            raise ComultiplicationEscapesCarrier(
                f"coproduct of carrier basis {i} left the carrier square")
        if not square.carrier.locate(coords, slice(0, 2), square.dims)[1]:
            raise ComultiplicationEscapesCarrier(
                f"coproduct of carrier basis {i} missed the truncated square")
        comult_table[i] = coords

    counit_bar = LinMap.from_function(
        module.space, unit_module.space,
        lambda i: tgt.projection(H.epsilon_t(carrier.inclusion.column(i))))
    unit_bar = LinMap.from_function(
        unit_module.space, module.space,
        lambda j: _checked_coords(
            carrier, tgt.inclusion.column(j),
            "target subalgebra does not embed in the carrier"))

    pairs = permute(outer(R.r, R.r), (0, 2, 1, 3))

    def antipode_column(i):
        # R^2 R'^2 S(R^1 x S(R'^1)), with R' a second copy of R
        t = {(p, a, p2, q, q2): c * x for (p, p2, q, q2), c in pairs.items()
             for a, x in carrier.inclusion.column(i).items()}
        t = on_leg(on_leg(on_leg(t, 2, S), slice(0, 2), H.mult), slice(0, 2),
                   H.mult)
        return _checked_coords(carrier, H.fold(permute(on_leg(t, 0, S),
                                                       (1, 2, 0))),
                               "deformed antipode left the carrier")
    antipode_bar = LinMap.from_function(module.space, module.space,
                                        antipode_column)

    return BraidedHopfAlgebra(H, R, carrier, module, square, unit_module,
                              mult_table, comult_table, counit_bar,
                              antipode_bar, unit_bar)


def check_braided_hopf(B: BraidedHopfAlgebra) -> VerificationReport:
    """Verify every braided Hopf law of the transmuted algebra."""
    H = B.algebra
    R = B.rmatrix
    module = B.module
    square = B.square
    unit_module = B.unit_module
    tgt = unit_module.target
    report = VerificationReport(subject=f"{H.name} transmutation")

    report.record("structure_maps_h_linear", first_witness(
        ((name,), h_linear_mismatch(f, dom, cod)) for name, f, dom, cod in (
            ("mult", B.mult_bar, square, module),
            ("unit", B.unit_bar, unit_module, module),
            ("comult", B.comult_bar, module, square),
            ("counit", B.counit_bar, module, unit_module),
            ("antipode", B.antipode_bar, module, module))))

    # B.fold would fold the trailing column leg of carrier_mismatch too
    split3 = split_idempotent(triple_projector(module, module, module))
    report.record("mult_associative", carrier_mismatch(
        split3, (B.dim,) * 3,
        lambda x: on_leg(on_leg(x, slice(0, 2), B.mult), slice(0, 2), B.mult),
        lambda x: on_leg(on_leg(x, slice(1, 3), B.mult), slice(0, 2),
                         B.mult)))

    tt_left = truncated_tensor(unit_module, module)
    tt_right = truncated_tensor(module, unit_module)
    l_map, l_inv = left_unitor(tt_left)
    r_map, r_inv = right_unitor(tt_right)
    eta = B.unit_bar.columns()
    eps = B.counit_bar.columns()
    for name, tt, leg, unitor in (("unit_absorbs_left", tt_left, 0, l_map),
                                  ("unit_absorbs_right", tt_right, 1, r_map)):
        embedded = tt.inclusion_table()
        report.record(name, first_unequal(product(range(tt.dim)), lambda j: (
            B.fold(on_leg(embedded[j], leg, eta)), unitor.column(j))))

    basis = list(product(range(B.dim)))
    report.record("comult_coassociative", first_unequal(basis, lambda i: (
        on_leg(B.comult.get(i, {}), 0, B.comult),
        on_leg(B.comult.get(i, {}), 1, B.comult))))
    for name, tt, leg, inverse in (
            ("counit_collapses_left", tt_left, 0, l_inv),
            ("counit_collapses_right", tt_right, 1, r_inv)):
        report.record(name, first_unequal(basis, lambda i: (
            on_leg(B.comult.get(i, {}), leg, eps),
            tt.embed_pairs(inverse.column(i)))))

    # Delta(ab) = (a_1 (R^2 . b_1)) (x) ((R^1 . a_2) b_2)
    def braided_product(x):
        t = on_leg(on_leg(x, 1, B.comult), 0, B.comult)
        t = permute(act((None, module.action, module.action, None, None),
                        R.r, t), (0, 2, 1, 3, 4))
        return on_leg(on_leg(t, slice(0, 2), B.mult), slice(1, 3), B.mult)
    report.record("comult_multiplicative_braided", carrier_mismatch(
        square.carrier, (B.dim, B.dim),
        lambda x: on_leg(on_leg(x, slice(0, 2), B.mult), 0, B.comult),
        braided_product))

    incl = tgt.inclusion.columns()
    tgt_proj = tgt.projection.columns()

    def counit_of_counits(x):
        # eps(a) eps(b), the target legs multiplied in H
        t = on_leg(on_leg(on_leg(on_leg(x, 0, eps), 1, eps), 0, incl), 1, incl)
        return on_leg(on_leg(t, slice(0, 2), H.mult), 0, tgt_proj)
    report.record("counit_multiplicative", carrier_mismatch(
        square.carrier, (B.dim, B.dim),
        lambda x: on_leg(on_leg(x, slice(0, 2), B.mult), 0, eps),
        counit_of_counits))

    report.record("counit_of_unit", map_witness(
        B.counit_bar.compose(B.unit_bar), LinMap.identity(unit_module.space)))

    s_bar = B.antipode_bar.columns()
    for name, leg in (("antipode_cancels_left", 0),
                      ("antipode_cancels_right", 1)):
        report.record(name, first_unequal(basis, lambda i: (
            B.fold(on_leg(B.comult.get(i, {}), leg, s_bar)),
            B.unit_bar(B.counit_bar.column(i)))))
    return report


def certify_braided_hopf(B: BraidedHopfAlgebra) -> VerificationReport:
    report = check_braided_hopf(B)
    B.certified = report.passed
    return report

