"""Left modules over a weak Hopf algebra and their monoidal structure.

The tensor product of two modules is truncated: the coproduct of 1 acts
on the ordinary tensor product as an idempotent, and the truncated
product is its image, carried here as an explicit Subspace with the
diagonal action conjugated into carrier coordinates.  That action is
built by one batched contraction per algebra basis element over all
carrier columns: whole on the first read of action, or, through
action_of, for only the elements a reader names, as the roundtrip reads
R^1's; a carrier that is only compared with another, as the nested
carriers of a triple are, never builds it.  The build also records the
elements whose image of some column leaves the carrier, which is all the
invariance check needs.  The unit object is the target subalgebra with
action h . z = eps_t(hz).  A certified R-matrix braids the truncated
products.

Maps between truncated products take their carriers first and read the
modules from the carrier legs: braiding_c(source, target, R) maps the
carrier of M and N onto that of N and M, and raises ValueError unless
target holds the legs of source swapped; left_unitor(tt) and
right_unitor(tt) read M and the unit object from tt.

carrier_map builds each such map, and carrier_mismatch compares two
multilinear expressions on a carrier, in one pass over every carrier
column: the carrier inclusion becomes one tensor {(a, b, ..., j): c},
basis vector j unflattened to the module legs with the column index j as
a trailing leg, and the function or the two sides are applied to that
tensor once.  So each function they take must let a trailing leg it does
not name pass through untouched, as act does for a None table and
on_leg and permute do for legs they leave in place.  carrier_map then
projects the result onto the target carrier with one on_leg, the
target's projection table read on the two module legs, and column_map,
the inverse of column_tensor, reads each key's column leg as the map's
column.  The unitors, unit_object and transmutation's structure maps
are each built the same way, by one contraction.

hexagon_mismatches states both hexagons through associators and
braidings between nested truncated products, for the module category
here and the comodule category of yetter_drinfeld alike.

check_monoidal_coherence verifies, on a caller-supplied sample of
modules, that nested carriers agree, that unitors are inverse pairs
satisfying the triangle law, and that the braiding is invertible,
H-linear, compatible with the unitors, and obeys both hexagons.  The
carriers of each module with the unit object and of each pair of
modules, the unitors and the braidings on them are built once, and each
check is one first_witness search over them that reports the first
failing case only.  truncated_action_well_defined acts on a pair
carrier again only at the elements its action build found escaping.
The unit carriers, unitors and braidings are freed before any triple
carrier is built, and nested_carriers_coincide splits one triple carrier
at a time and embeds each nesting's columns into it by flat index,
through the inner carrier's inclusion columns.  On a certified R each
hexagon's two elements of H tensor H tensor H are equal, and it passes
without acting on a carrier; only when they differ does it search the
triples, both hexagons sharing one hexagon_mismatches call per triple.
"""

from __future__ import annotations

import math
from functools import cache, reduce
from itertools import accumulate, product
from operator import mul

from .linalg import (_ONE, LinMap, Subspace, VectorSpace, act, add_term,
                     check_keys, on_leg, permute, split_idempotent, unflatten)
from .quasitriangular import r13_r12, r13_r23
from .weak_hopf import (VerificationReport, first_unequal, first_witness,
                        map_witness)


class HModule:
    """A left module over an algebra, given by its action table.

    action maps (i, row, col) to the coefficient of e_row in e_i . e_col.
    It is stored flat as {(i, col): {row: c}}, the shape of an algebra's
    product table, so that linalg.act applies both the same way.
    """

    def __init__(self, algebra, space, action):
        self.algebra = algebra
        self.space = space
        check_keys(action, "action", (algebra.dim, space.dim, space.dim))
        co = algebra.field.coerce
        self.action = {}
        for (i, r, c), v in action.items():
            v = co(v)
            if v != 0:
                self.action.setdefault((i, c), {})[r] = v
        self._rho = None

    @property
    def dim(self):
        return self.space.dim

    def action_of(self, elements) -> dict:
        """An action table holding at least the rows of the given algebra
        basis elements; a plain module returns its whole table."""
        return self.action

    def rho(self, i) -> LinMap:
        """The operator for the i-th algebra basis vector."""
        if self._rho is None:
            cols = {k: {} for k in range(self.algebra.dim)}
            for (k, c), rows in self.action.items():
                cols[k][c] = rows
            self._rho = {k: LinMap._adopt(self.space, self.space, c)
                         for k, c in cols.items()}
        return self._rho[i]

    def __repr__(self):
        return (f"HModule(over {self.algebra.name!r}, dim={self.dim})")


def regular_module(H) -> HModule:
    """H acting on itself by left multiplication."""
    H.require_certified()
    M = HModule(H, H.space, {})
    # left multiplication is the product table itself
    M.action = H.mult
    return M


def unit_object(H) -> HModule:
    """The target subalgebra as a module, with h . z = eps_t(hz).

    The returned module lives in carrier coordinates of the target
    subspace; the subspace itself is kept on the .target attribute for
    unitor construction.
    """
    H.require_certified()
    tgt = H.target_space()
    # e_i z_j for every i and target basis j, a copy of i riding along
    t = {(i, p, i, j): c for j, z in tgt.inclusion.columns().items()
         for i in range(H.dim) for p, c in z.items()}
    eps_t, proj = H.epsilon_t_map().columns(), tgt.projection.columns()
    t = on_leg(on_leg(on_leg(t, slice(0, 2), H.mult), 0, eps_t), 0, proj)
    M = HModule(H, VectorSpace(tgt.dim),
                {(i, r, j): c for (r, i, j), c in t.items()})
    M.target = tgt
    return M


def check_module(M: HModule) -> VerificationReport:
    """Verify the unit and product laws of the action."""
    H = M.algebra
    report = VerificationReport(subject=f"module over {H.name}")

    def operator(h):
        """The entries of the operator of the algebra vector h."""
        out = {}
        for i, c in h.items():
            for key, v in M.rho(i).entries.items():
                add_term(out, key, c * v)
        return out

    report.record("action_of_unit", map_witness(
        LinMap(M.space, M.space, operator(H.unit)), LinMap.identity(M.space)))
    report.record("action_respects_products", first_unequal(
        product(range(H.dim), repeat=2), lambda i, j: (
            M.rho(i).compose(M.rho(j)).entries,
            operator(H.mult.get((i, j), {})))))
    return report


def h_linear_mismatch(f: LinMap, M: HModule, N: HModule):
    """None when f intertwines the two actions, else a witness triple."""
    return first_witness(((i,), map_witness(f.compose(M.rho(i)),
                                            N.rho(i).compose(f)))
                         for i in range(M.algebra.dim))


def act_pair(M: HModule, N: HModule, terms: dict, pd: dict) -> dict:
    """Apply a pair-keyed algebra tensor legwise to a pair-keyed vector.

    The package itself acts on whole carriers with act and a trailing
    column leg; this per-vector form serves callers outside it, such as
    reference computations in tests and the certbench tracer's count."""
    return act((M.action, N.action), terms, pd)


def _projector(modules, d: dict) -> LinMap:
    """The action of a k-leg algebra tensor d, leg by leg, on the flattened
    tensor product of k modules.

    Each module's action is read once.  If every row a term of d reads is
    {a: 1}, with the int 1, column k is {k: c} without act: c sums, by
    add_term's rule and in d's term order, the coefficients of the terms
    whose every leg acts on basis tensor k, and a c that cancels drops the
    column.  act gives the same entry for entry, since it skips products
    by the int 1, as long as no sum it forms leg by leg cancels; on any
    other row act runs.  Either way the columns come in the order their
    basis tensors are first met over d's terms, by which split_idempotent
    orders the carrier basis.
    """
    dims = [M.dim for M in modules]
    n = math.prod(dims)
    # per module, {p: the basis vectors p acts on}; mixed holds each
    # (module, p) with a row other than {a: 1}
    acts, mixed = {}, set()
    for M in set(modules):
        rows = acts[M] = {}
        for (p, a), row in M.action.items():
            rows.setdefault(p, []).append(a)
            if len(row) != 1 or row.get(a) is not _ONE:
                mixed.add((M, p))
    # per term of d, the basis vectors each leg acts on
    reach, diagonal = [], True
    for key, c in d.items():
        legs = list(zip(modules, key))
        reach.append(([acts[M].get(p, ()) for M, p in legs], c))
        diagonal = diagonal and mixed.isdisjoint(legs)
    # a leg's indices times its stride, the product of the dimensions of
    # the later legs, sum to the flat index
    strides = [*accumulate(dims[:0:-1], mul, initial=1)][::-1]
    if diagonal:
        acc = {}
        for lists, c in reach:
            for k in map(sum, product(*([a * s for a in lst]
                                        for lst, s in zip(lists, strides)))):
                # add_term, inlined; a cancelled column keeps its place
                cur = acc.get(k)
                acc[k] = c if cur is None else cur + c or None
        out = {k: {k: c} for k, c in acc.items() if c is not None}
    else:
        cols = {}
        for lists, _ in reach:
            cols.update(dict.fromkeys(product(*lists)))
        out = {}
        # each basis tensor carries its flat index as a pass-through leg,
        # which becomes the column; the module legs flatten to the row
        for key, c in act([M.action for M in modules] + [None], d, {
                col + (sum(map(mul, col, strides)),): 1 for col in cols
        }).items():
            out.setdefault(key[-1], {})[sum(map(mul, key, strides))] = c
    space = VectorSpace(n)
    return LinMap._adopt(space, space, out)


def truncation_projector(M: HModule, N: HModule) -> LinMap:
    """The action of the coproduct of 1 on the flattened tensor square."""
    return _projector((M, N), M.algebra.delta_one())


def triple_projector(M: HModule, N: HModule, P: HModule) -> LinMap:
    """The action of the twice-iterated coproduct of 1 on M tensor N tensor P."""
    return _projector((M, N, P), M.algebra.delta2_one())


class TruncatedTensor(HModule):
    """The truncated tensor product of two modules over the same algebra.

    The carrier is the image of the truncation projector inside the
    flattened tensor square; the module structure is the diagonal
    action conjugated by inclusion and projection.  The action table is
    built on demand, since nested carriers are compared by their
    inclusions alone: for each algebra basis element one contraction
    acts with its coproduct on every carrier column at once, the column
    index riding along as a pass-through leg, and the carrier's locate on
    the two module legs takes the result to carrier coordinates and says
    whether it stayed on the carrier.  The first read of action builds
    and keeps the whole table, and escaped lists the elements whose raw
    image left the carrier on the way; action_of(elements) before it
    builds only the rows of those elements and keeps nothing.  The
    splice tables of the carrier inclusion and projection on the two
    module legs belong to the carrier, which builds them once.
    """

    def __init__(self, left: HModule, right: HModule):
        if left.algebra is not right.algebra:
            raise ValueError("truncated tensor needs modules over one algebra")
        H = left.algebra
        H.require_certified()
        carrier = split_idempotent(truncation_projector(left, right))
        self.algebra = H
        self.left = left
        self.right = right
        self.carrier = carrier
        self.dims = (left.dim, right.dim)
        self.space = VectorSpace(carrier.dim)
        self._action = None
        self._escaped = None
        self._rho = None

    @property
    def action(self) -> dict:
        if self._action is None:
            self._action = self._conjugated_action(range(self.algebra.dim))
        return self._action

    def action_of(self, elements) -> dict:
        """The whole table once action has been read, else the rows of the
        given elements alone, built now and not kept."""
        if self._action is None:
            return self._conjugated_action(elements)
        return self._action

    @property
    def escaped(self) -> list:
        """The algebra basis elements, in order, whose diagonal action takes
        some carrier column off the carrier, found while building action."""
        self.action    # built once, with _escaped
        return self._escaped

    def _conjugated_action(self, elements) -> dict:
        """The table {(i, j): {r: c}}: e_i acting on carrier basis j, for
        each i in elements; _escaped lists the i whose raw image leaves
        the carrier, as the carrier's locate finds it."""
        legs = (self.left.action, self.right.action, None)
        cols = self.inclusion_tensor()
        action, self._escaped = {}, []
        for i in elements:
            cop = self.algebra.comult.get(i)
            if cop:
                coords, inside = self.carrier.locate(
                    act(legs, cop, cols), slice(0, 2), self.dims)
                if not inside:
                    self._escaped.append(i)
                for (r, j), c in coords.items():
                    action.setdefault((i, j), {})[r] = c
        return action

    def inclusion_tensor(self) -> dict:
        """The carrier inclusion as one tensor {(a, b, j): c}, the column
        index j as a trailing leg."""
        return column_tensor(self.carrier.inclusion, self.dims)

    def inclusion_table(self) -> dict:
        """The carrier inclusion as a splice table {j: {(a, b): c}}."""
        return self.carrier.tables(self.dims)[1]

    def projection_table(self) -> dict:
        """The carrier projection as a table {(a, b): {j: c}} on pairs."""
        return self.carrier.tables(self.dims)[0]

    def embed_pairs(self, coords: dict) -> dict:
        """Carrier coordinates to a pair-keyed ambient vector."""
        return unflatten(self.carrier.inclusion(coords), self.dims)

    def __repr__(self):
        return (f"TruncatedTensor(dim={self.dim} inside "
                f"{self.left.dim}x{self.right.dim}, over "
                f"{self.algebra.name!r})")


def truncated_tensor(M: HModule, N: HModule) -> TruncatedTensor:
    return TruncatedTensor(M, N)


def column_tensor(f: LinMap, dims) -> dict:
    """The map f, a carrier inclusion or any map into a tensor product,
    as one tensor {(a, b, ..., j): c}: column j unflattened to legs of
    the given dims, j as a trailing leg.

    Column-major, each column in its own row order, as the columns would
    be acted on one at a time: what is built from it keeps that key and
    row order, which elimination ties follow.
    """
    cols = f.columns()
    return {key + (j,): c for j in range(f.domain.dim)
            for key, c in unflatten(cols.get(j, {}), dims).items()}


def _split_columns(t: dict, dim: int) -> list:
    """A tensor with a trailing column leg as its dim columns, the column
    leg dropped; a column left with one leg is a vector on bare indices."""
    out = [{} for _ in range(dim)]
    for key, c in t.items():
        out[key[-1]][key[0] if len(key) == 2 else key[:-1]] = c
    return out


def column_map(domain: VectorSpace, codomain: VectorSpace, t: dict) -> LinMap:
    """The map whose column j is t at its trailing leg j, that leg dropped,
    the inverse of column_tensor: columns ascending, each in t's row order,
    empty ones dropped, and t's entries adopted unchecked."""
    cols = _split_columns(t, domain.dim)
    return LinMap._adopt(domain, codomain,
                         {j: col for j, col in enumerate(cols) if col})


def carrier_map(source: TruncatedTensor, target: TruncatedTensor, f) -> LinMap:
    """The map sending carrier basis j of source to the target carrier
    coordinates of the column j of f(x), x the inclusion tensor of source
    with its trailing column leg; f must pass that leg through.  The
    target projection acts on the module legs of f(x) with on_leg."""
    return column_map(source.space, target.space, on_leg(
        f(source.inclusion_tensor()), slice(0, 2), target.projection_table()))


def swapped_legs(source: TruncatedTensor, target: TruncatedTensor):
    """The legs (M, N) of source, after checking that target holds them as
    (N, M); a braiding between other carriers raises ValueError."""
    if target.left is not source.right or target.right is not source.left:
        raise ValueError("the target must hold the source legs swapped")
    return source.left, source.right


def _unitor(tt: TruncatedTensor, unit_leg: int):
    """The unitor pair between M and its truncated product tt with the unit
    object, the unit on leg unit_leg.  A target element z on the unit leg
    acts on M as z (left) or as S(z) (right); the inverse sends m to the
    coproduct of 1 acting on m in its M leg, with eps_t applied to the
    other leg.  Raises ValueError when the unit leg of tt is not the unit
    object."""
    m_leg = 1 - unit_leg
    M, unit = (tt.right, tt.left) if unit_leg == 0 else (tt.left, tt.right)
    H = M.algebra
    tgt = getattr(unit, "target", None)
    if tgt is None:
        side = ("left", "right")[unit_leg]
        raise ValueError(f"{side}_unitor needs the unit object on the "
                         f"{side} leg of its carrier, which holds {unit!r}")
    acting = tgt.inclusion.columns()
    if unit_leg == 1:
        acting = {a: H.antipode(z) for a, z in acting.items()}
    # on every carrier column, the unit leg, read in H, acts on the M leg
    t = on_leg(permute(tt.inclusion_tensor(), (unit_leg, m_leg, 2)), 0, acting)
    collapse = column_map(tt.space, M.space, on_leg(t, slice(0, 2), M.action))

    eps = {a: tgt.projection(z) for a, z in H.epsilon_t_map().columns().items()}
    split = on_leg(H.delta_one(), unit_leg, eps)
    # every e_m after the M leg of the split unit, which acts on it
    t = {k[:m_leg + 1] + (m,) + k[m_leg + 1:] + (m,): c
         for m in range(M.dim) for k, c in split.items()}
    t = on_leg(on_leg(t, slice(m_leg, m_leg + 2), M.action), slice(0, 2),
               tt.projection_table())
    return collapse, column_map(M.space, tt.space, t)


def left_unitor(tt: TruncatedTensor):
    """The unitor pair (l, l_inv) on the truncated product tt of the unit
    object and M, with l mapping tt onto M by acting with the target leg."""
    return _unitor(tt, 0)


def right_unitor(tt: TruncatedTensor):
    """The right unitor pair on the truncated product tt of M and the unit
    object: acting with the antipode of the target leg."""
    return _unitor(tt, 1)


def braiding_c(source: TruncatedTensor, target: TruncatedTensor,
               R) -> LinMap:
    """The braiding from M tensor N to N tensor M: x goes to flip(R . x)."""
    R.require_certified()
    M, N = swapped_legs(source, target)
    return carrier_map(source, target, lambda x: permute(
        act((M.action, N.action, None), R.r, x), (1, 0, 2)))


def braiding_c_inv(source: TruncatedTensor, target: TruncatedTensor,
                   R) -> LinMap:
    """Inverse braiding from the weak inverse of R, mapping N tensor M back
    to M tensor N."""
    R.require_certified()
    N, M = swapped_legs(source, target)
    return carrier_map(source, target, lambda x: act(
        (M.action, N.action, None), R.r_bar, permute(x, (1, 0, 2))))


def carrier_mismatch(carrier: Subspace, dims, lhs, rhs):
    """None if lhs and rhs agree on every basis vector of the carrier,
    unflattened to a tensor with legs of the given dims, else the witness
    ((j,), lhs, rhs) of the first basis index j where they differ, each
    side the column j of its result with the column leg dropped.

    lhs and rhs are applied once each, to column_tensor(carrier.inclusion,
    dims), and must pass its trailing column leg through.  The unit
    triangle and the transmuted algebra's axioms compare their two sides
    this way."""
    x = column_tensor(carrier.inclusion, dims)
    left, right = lhs(x), rhs(x)
    if left == right:
        return None
    left, right = (_split_columns(t, carrier.dim) for t in (left, right))
    return first_unequal(product(range(carrier.dim)),
                         lambda j: (left[j], right[j]))


def hexagon_mismatches(X, Y, Z, module, tensor, braid) -> dict:
    """Both hexagons on the objects X, Y and Z as the category states them,
    on the nested truncated tensors of their modules: hexagon_forward
    compares c_{X Y, Z} with a (c_{X,Z} tensor id) a^-1 (id tensor c_{Y,Z}) a,
    hexagon_backward c_{X, Y Z} with a^-1 (id tensor c_{X,Z}) a (c_{X,Y}
    tensor id) a^-1.  Each witness is None or ((j,), lhs, rhs) at the first
    carrier column j where the one-step braiding lhs and the composite rhs
    differ.  module(A) is the module of A, tensor(tt, A, B) the object A B
    on the carrier tt, and braid(A, source, target) braids A past the other
    leg of source.  Every factor is one carrier_map, each carrier built
    once: the associator a embeds through one inner carrier and projects
    through the other, and f tensor id applies f's columns on its leg.
    """
    tt = cache(truncated_tensor)
    x, y, z = module(X), module(Y), module(Z)

    def assoc(ab, c):
        bc = tt(ab.right, c)
        return carrier_map(tt(ab, c), tt(ab.left, bc), lambda t: on_leg(on_leg(
            t, 0, ab.inclusion_table()), slice(1, 3), bc.projection_table()))

    def assoc_inv(a, bc):
        ab = tt(a, bc.left)
        return carrier_map(tt(a, bc), tt(ab, bc.right), lambda t: on_leg(on_leg(
            t, 1, bc.inclusion_table()), slice(0, 2), ab.projection_table()))

    def braid_on(leg, A, ab, other):
        # c_{A,B} tensor id on leg 0, id tensor c_{A,B} on leg 1
        ba = tt(ab.right, ab.left)
        f = braid(A, ab, ba).columns()
        nest = [lambda p: tt(p, other), lambda p: tt(other, p)][leg]
        return carrier_map(nest(ab), nest(ba), lambda t: on_leg(t, leg, f))

    def mismatch(one, steps):
        two = reduce(lambda f, g: g.compose(f), steps)
        return None if one == two else first_unequal(
            product(range(one.domain.dim)),
            lambda j: (one.column(j), two.column(j)))

    xy, yz, xz, zx = tt(x, y), tt(y, z), tt(x, z), tt(z, x)
    return {
        "hexagon_forward": mismatch(
            braid(tensor(xy, X, Y), tt(xy, z), tt(z, xy)),
            [assoc(xy, z), braid_on(1, Y, yz, x), assoc_inv(x, tt(z, y)),
             braid_on(0, X, xz, y), assoc(zx, y)]),
        "hexagon_backward": mismatch(
            braid(X, tt(x, yz), tt(yz, x)),
            [assoc_inv(x, yz), braid_on(0, X, xy, z), assoc(tt(y, x), z),
             braid_on(1, X, xz, y), assoc_inv(y, zx)])}


def _not_identity(f: LinMap):
    return map_witness(f, LinMap.identity(f.domain))


def _inverse_mismatch(f: LinMap, g: LinMap):
    """None when f and g are mutually inverse, else the map_witness
    against the identity of the first of f g and g f that is not the
    identity.  Between spaces of one dimension f g = id already makes
    g f = id, so g f is formed only when the dimensions differ."""
    fg = _not_identity(f.compose(g))
    if fg or f.domain.dim == g.domain.dim:
        return fg
    return _not_identity(g.compose(f))


def _action_mismatch(tt: TruncatedTensor):
    """None when the diagonal action leaves the carrier of tt invariant:
    for each algebra basis h, the conjugated action composed with
    inclusion matches the ambient action; else the first h's witness.

    inclusion after projection fixes exactly the vectors of the carrier,
    so the two sides differ exactly at the elements tt.escaped names,
    found while building the action; only those are composed and acted
    on again, in order."""
    legs = (tt.left.action, tt.right.action, None)
    n = tt.right.dim

    def ambient(h):
        # the diagonal action on every embedded carrier column at once
        return column_map(tt.space, tt.carrier.ambient, {
            (a * n + b, j): c for (a, b, j), c in act(
                legs, tt.algebra.comult[h], tt.inclusion_tensor()).items()})
    return first_witness(((h,), map_witness(
        tt.carrier.inclusion.compose(tt.rho(h)), ambient(h)))
        for h in tt.escaped)


def check_monoidal_coherence(H, R, modules, rng=None) -> VerificationReport:
    """Verify the monoidal and braided laws on a sample of modules; each
    witness key leads with the indices of the modules involved.

    braiding_natural checks the braiding against the unitors, at the pair
    (i, i) for the i-th module M: l c_{M,1} = r on M tensor 1 and
    r c_{1,M} = l on 1 tensor M.  rng is kept for callers that pass it;
    no check draws from it.  A hexagon whose two elements are equal
    passes without acting on any carrier; unequal ones, as under a
    doubled R marked certified, are searched triple by triple with
    hexagon_mismatches, the witness key (i, j, k, carrier column).
    Raises ValueError when R or a module is over another algebra, or
    when modules is empty.
    """
    H.require_certified()
    R.require_certified()
    if R.algebra is not H:
        raise ValueError("R-matrix belongs to a different algebra")
    if not modules:
        raise ValueError("no modules to check")
    for idx, M in enumerate(modules):
        if M.algebra is not H:
            raise ValueError(f"module {idx} is over a different algebra")
    report = VerificationReport(subject=f"{H.name} monoidal coherence")
    unit = unit_object(H)
    n = len(modules)

    report.record("module_axioms", first_witness(
        ((idx,), first_witness(((), c.witness)
                               for c in check_module(M).failures))
        for idx, M in enumerate(modules)))

    incl = unit.target.inclusion.columns()
    s_incl = {a: H.antipode(z) for a, z in incl.items()}

    def triangle(M, N):
        # collapsing the middle unit leg on either side of the triple
        # carrier gives the same map to M tensor_t N
        return carrier_mismatch(
            split_idempotent(triple_projector(M, unit, N)),
            (M.dim, unit.dim, N.dim),
            lambda x: on_leg(on_leg(x, 1, incl), slice(1, 3), N.action),
            lambda x: on_leg(permute(on_leg(x, 1, s_incl), (1, 0, 2, 3)),
                             slice(0, 2), M.action))

    # the carriers of the unit and each module, either way round, with
    # the left and right unitor pairs on them
    tt_l = [truncated_tensor(unit, M) for M in modules]
    tt_r = [truncated_tensor(M, unit) for M in modules]
    lefts = [left_unitor(tt) for tt in tt_l]
    rights = [right_unitor(tt) for tt in tt_r]
    report.record("unitors_mutually_inverse", first_witness(
        ((i,), _inverse_mismatch(*lefts[i]) or _inverse_mismatch(*rights[i]))
        for i in range(n)))
    report.record("unitors_h_linear", first_witness(
        ((i,), h_linear_mismatch(lefts[i][0], tt_l[i], M)
         or h_linear_mismatch(rights[i][0], tt_r[i], M))
        for i, M in enumerate(modules)))
    report.record("unit_triangle", first_witness(
        ((i, j), triangle(M, N))
        for (i, M), (j, N) in product(enumerate(modules), repeat=2)))

    tts = {(i, j): truncated_tensor(M, N)
           for (i, M), (j, N) in product(enumerate(modules), repeat=2)}
    report.record("truncated_action_well_defined", first_witness(
        (key, _action_mismatch(tt)) for key, tt in tts.items()))

    braidings = {key: (braiding_c(fwd, tts[key[::-1]], R),
                       braiding_c_inv(tts[key[::-1]], fwd, R))
                 for key, fwd in tts.items()}
    report.record("braiding_invertible", first_witness(
        (key, _inverse_mismatch(c_inv, c))
        for key, (c, c_inv) in braidings.items()))
    report.record("braiding_h_linear", first_witness(
        (key, h_linear_mismatch(c, tts[key], tts[key[::-1]]))
        for key, (c, _) in braidings.items()))
    report.record("braiding_natural", first_witness(
        ((i, i), map_witness(lefts[i][0].compose(
            braiding_c(tt_r[i], tt_l[i], R)), rights[i][0])
         or map_witness(rights[i][0].compose(
             braiding_c(tt_l[i], tt_r[i], R)), lefts[i][0]))
        for i in range(n)))
    # free the unit carriers before the larger triple carriers are built
    del tt_l, tt_r, lefts, rights, braidings

    def nested(i, j, k):
        # the two nesting orders one after the other, each against the
        # triple carrier
        M, N, P = modules[i], modules[j], modules[k]
        split3 = split_idempotent(triple_projector(M, N, P))
        return (_nested_carrier_mismatch(
            split3, truncated_tensor(tts[(i, j)], P), 0)
            or _nested_carrier_mismatch(
                split3, truncated_tensor(M, tts[(j, k)]), 1))
    triples = list(product(range(n), repeat=3))
    report.record("nested_carriers_coincide", first_witness(
        (key, nested(*key)) for key in triples))

    # both hexagons of a triple come from one hexagon_mismatches call
    hexagons = cache(lambda i, j, k: hexagon_mismatches(
        modules[i], modules[j], modules[k], lambda A: A, lambda tt, *_: tt,
        lambda _, *carriers: braiding_c(*carriers, R)))
    for name, one, two in (
            ("hexagon_forward", on_leg(R.r, 0, H.comult), r13_r23(H, R.r)),
            ("hexagon_backward", on_leg(R.r, 1, H.comult), r13_r12(H, R.r))):
        report.record(name, None if one == two else first_witness(
            (key, hexagons(*key)[name]) for key in triples))
    return report


def _nested_carrier_mismatch(split3: Subspace, outer: TruncatedTensor,
                             inner_leg: int):
    """Check that one nesting order, with the inner truncated product on
    leg inner_leg of outer, spans exactly the triple projector image: the
    carriers have one dimension, and split3 contains every column of
    outer, embedded in M tensor N tensor P by _nested_columns."""
    if outer.dim != split3.dim:
        return ((), {0: outer.dim}, {0: split3.dim})
    for j, col in enumerate(_nested_columns(outer, inner_leg)):
        if not split3.contains(col):
            return ((j,), col, {})
    return None


def _nested_columns(outer: TruncatedTensor, inner_leg: int) -> list:
    """The carrier columns of outer, the truncated product of M (x) N and
    P (inner_leg 0) or of M and N (x) P (inner_leg 1), embedded in the
    flattened M tensor N tensor P through the inner carrier's inclusion.

    Outer column entry c splits as q, r = divmod(c, outer.right.dim).  On
    leg 0 each entry c2 of inner column q lands at c2 p + r, p the
    dimension of P; on leg 1 each entry c2 of inner column r lands at
    q n p + c2, n p the inner ambient dimension.  These are the flat
    indices of on_leg through inclusion_table and flatten, and the terms
    sum by add_term's rule in their key order.
    """
    inner = (outer.left, outer.right)[inner_leg].carrier
    inner_cols = inner.inclusion.columns()
    right = outer.right.dim
    cols = outer.carrier.inclusion.columns()
    out = []
    for j in range(outer.dim):
        acc = {}
        for c, v in cols.get(j, {}).items():
            q, r = divmod(c, right)
            if inner_leg == 0:
                row, stride, shift = inner_cols[q], right, r
            else:
                row, stride, shift = inner_cols[r], 1, q * inner.ambient.dim
            for c2, w in row.items():
                add_term(acc, c2 * stride + shift, v if w is _ONE else v * w)
        out.append(acc)
    return out
