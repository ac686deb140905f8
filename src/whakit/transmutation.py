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

transmute builds each structure map by one contraction over all basis
columns at once.  Broken inputs raise CarrierInvariantError at the first
invariant they break, in this order: commuting with the source
subalgebra, closure, the adjoint action, the coproduct (naming its
column), the unit embedding, the antipode.

check_braided_hopf verifies every braided Hopf law on the carrier.
"""

from __future__ import annotations

from itertools import product

from .linalg import (LinMap, Subspace, VectorSpace, act, check_keys, on_leg,
                     outer, permute, split_idempotent)
from .module_cat import (HModule, carrier_mismatch, column_map, column_tensor,
                         h_linear_mismatch, left_unitor, right_unitor,
                         triple_projector, truncated_tensor, unit_object)
from .weak_hopf import (Certifiable, VerificationReport, WeakHopfAlgebra,
                        certified_by, coassociative_mismatch, first_unequal,
                        first_witness, map_witness)


class CarrierInvariantError(RuntimeError):
    """A structure map left the centralizer carrier; the inputs are broken."""


class ComultiplicationEscapesCarrier(CarrierInvariantError):
    """The deformed coproduct left the truncated square of the carrier."""


def _carrier_coords(carrier: Subspace, t: dict, message: str) -> dict:
    """t, leg 0 in carrier coordinates; else CarrierInvariantError(message)."""
    coords, inside = carrier.locate(t, 0, (carrier.ambient.dim,))
    if not inside:
        raise CarrierInvariantError(message)
    return coords


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
    t = outer(column_tensor(carrier.inclusion, (H.dim,)),
              column_tensor(H.source_space().inclusion, (H.dim,)))
    if (on_leg(permute(t, (0, 2, 1, 3)), slice(0, 2), H.mult)
            != on_leg(permute(t, (2, 0, 1, 3)), slice(0, 2), H.mult)):
        raise CarrierInvariantError(
            "carrier element does not commute with the source subalgebra")
    return carrier


def _adjoint_module(H, carrier: Subspace) -> HModule:
    """The adjoint action h . x = h_1 x S(h_2) in carrier coordinates."""
    t = {(a, p, b, i, j): v * c for j, x in carrier.inclusion.columns().items()
         for i in range(H.dim) for (a, b), v in H.comult.get(i, {}).items()
         for p, c in x.items()}
    t = on_leg(on_leg(on_leg(t, 2, H.antipode_map.columns()), slice(0, 2),
                      H.mult), slice(0, 2), H.mult)
    coords = _carrier_coords(carrier, t, "adjoint action left the carrier")
    return HModule(H, VectorSpace(carrier.dim),
                   {(i, r, j): c for (r, i, j), c in coords.items()})


class BraidedHopfAlgebra(Certifiable):
    """The transmuted Hopf algebra object, in carrier coordinates.

    mult/comult are kept as sparse structure-constant tables mirroring
    WeakHopfAlgebra, checked and rid of zeros as HModule's table is, each
    value kept as given, with LinMap forms on the truncated square exposed
    as mult_bar and comult_bar.
    """

    fold = WeakHopfAlgebra.fold
    _uncertified = "braided Hopf algebra has not been certified"

    def __init__(self, algebra, rmatrix, carrier, module, square,
                 unit_module, mult_table, comult_table, counit_bar,
                 antipode_bar, unit_bar):
        self.algebra = algebra
        self.rmatrix = rmatrix
        self.carrier = carrier
        self.module = module
        self.square = square
        self.unit_module = unit_module
        n = module.dim
        for name, table, dims in (("mult", mult_table, ((n, n), (n,))),
                                  ("comult", comult_table, ((n,), (n, n)))):
            check_keys(table, name, dims[0])
            for key, row in table.items():
                check_keys(row, f"{name} {key!r}", dims[1])
        co = algebra.field.coerce
        self.mult, self.comult = ({k: {r: c for r, c in row.items() if co(c)}
                                   for k, row in table.items()}
                                  for table in (mult_table, comult_table))
        self.counit_bar = counit_bar
        self.antipode_bar = antipode_bar
        self.unit_bar = unit_bar
        self.space = module.space
        self.mult_bar = column_map(square.space, self.space, on_leg(
            square.inclusion_tensor(), slice(0, 2), self.mult))
        self.comult_bar = column_map(self.space, square.space, on_leg(
            {k + (i,): c for i, col in self.comult.items()
             for k, c in col.items()}, slice(0, 2), square.projection_table()))

    @property
    def dim(self):
        return self.space.dim

    def __repr__(self):
        return (f"BraidedHopfAlgebra(over {self.algebra.name!r}, "
                f"dim={self.dim}, {self._flag})")


def transmute(H, R) -> BraidedHopfAlgebra:
    """Build the braided Hopf algebra on the centralizer carrier."""
    H.require_certified()
    R.require_certified()
    carrier = centralizer_subalgebra(H)
    cols = carrier.inclusion.columns().items()
    mult_table = {}
    for (r, i, j), c in _carrier_coords(carrier, on_leg({
            (a, b, i, j): u * v for i, x in cols for j, y in cols
            for a, u in x.items() for b, v in y.items()}, slice(0, 2), H.mult),
            "carrier is not closed under multiplication").items():
        mult_table.setdefault((i, j), {})[r] = c

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

    counit_bar = column_map(module.space, unit_module.space, on_leg(on_leg(
        column_tensor(carrier.inclusion, one), 0, H.epsilon_t_map().columns()),
        0, tgt.projection.columns()))
    unit_bar = column_map(unit_module.space, module.space, _carrier_coords(
        carrier, column_tensor(tgt.inclusion, one),
        "target subalgebra does not embed in the carrier"))

    # R^2 R'^2 S(R^1 x S(R'^1)) on every column, R' a second copy of R
    pairs = permute(outer(R.r, R.r), (0, 2, 1, 3))
    t = {(p, a, p2, q, q2, i): c * x for i, col in cols
         for (p, p2, q, q2), c in pairs.items() for a, x in col.items()}
    t = on_leg(on_leg(on_leg(t, 2, S), slice(0, 2), H.mult), slice(0, 2),
               H.mult)
    t = permute(on_leg(t, 0, S), (1, 2, 0, 3))
    t = on_leg(on_leg(t, slice(0, 2), H.mult), slice(0, 2), H.mult)
    antipode_bar = column_map(module.space, module.space, _carrier_coords(
        carrier, t, "deformed antipode left the carrier"))

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
        report.record(name, carrier_mismatch(tt.carrier, tt.dims, lambda x: (
            on_leg(on_leg(x, leg, eta), slice(0, 2), B.mult)),
            lambda x: column_tensor(unitor, (B.dim,))))

    basis = list(product(range(B.dim)))
    report.record("comult_coassociative",
                  coassociative_mismatch(B.comult, B.comult, B.dim))
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
    return certified_by(B, check_braided_hopf(B))

