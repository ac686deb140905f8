"""Left modules over a weak Hopf algebra and their monoidal structure.

The tensor product of two modules is truncated: the coproduct of 1 acts
on the ordinary tensor product as an idempotent, and the truncated
product is its image, carried here as an explicit Subspace with the
diagonal action conjugated into carrier coordinates.  That action is
built on its first read, one batched contraction per algebra basis
element over all carrier columns; a carrier that is only compared with
another, as the nested carriers of a triple are, never builds it.  The
unit object is the target subalgebra with action h . z = eps_t(hz).  A
certified R-matrix braids the truncated products.

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
on_leg and permute do for legs they leave in place.

check_monoidal_coherence verifies, on a caller-supplied sample of
modules, that nested carriers agree, that unitors are inverse pairs
satisfying the triangle law, and that the braiding is invertible,
H-linear, natural, and obeys both hexagons.  Each check reports the
first failing case only, with first_witness.
"""

from __future__ import annotations

import math
import random
from functools import partial
from itertools import product

from .linalg import (_ONE, LinMap, Subspace, VectorSpace, act, add_term,
                     check_keys, flatten, on_leg, permute, split_idempotent,
                     unflatten)
from .weak_hopf import (VerificationReport, entries_witness, first_unequal,
                        first_witness, map_witness)


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

    def rho(self, i) -> LinMap:
        """The operator for the i-th algebra basis vector."""
        if self._rho is None:
            entries = {k: {} for k in range(self.algebra.dim)}
            for (k, c), rows in self.action.items():
                for r, v in rows.items():
                    entries[k][(r, c)] = v
            self._rho = {k: LinMap(self.space, self.space, e)
                         for k, e in entries.items()}
        return self._rho[i]

    def __repr__(self):
        return (f"HModule(over {self.algebra.name!r}, dim={self.dim})")


def regular_module(H) -> HModule:
    """H acting on itself by left multiplication."""
    H.require_certified()
    M = HModule(H, H.space, {})
    # left multiplication is the product table itself
    M.action = H.mult
    M.is_regular_module = True
    return M


def unit_object(H) -> HModule:
    """The target subalgebra as a module, with h . z = eps_t(hz).

    The returned module lives in carrier coordinates of the target
    subspace; the subspace itself is kept on the .target attribute for
    unitor construction.
    """
    H.require_certified()
    tgt = H.target_space()
    action = {}
    for j in range(tgt.dim):
        z = tgt.inclusion.column(j)
        for i in range(H.dim):
            out = H.epsilon_t(H.multiply(H.basis(i), z))
            for r, c in tgt.projection(out).items():
                action[(i, r, j)] = c
    M = HModule(H, VectorSpace(tgt.dim), action)
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

    acc = operator(H.unit)
    unit_ok = LinMap(M.space, M.space, acc).is_identity()
    report.add("action_of_unit", unit_ok, None if unit_ok else ((), acc, {}))
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
    tensor product of k modules."""
    dims = [M.dim for M in modules]
    n = math.prod(dims)
    # the basis tensors some term of d acts on, each carrying its flat
    # index as a pass-through leg; first seen first, because
    # split_idempotent orders the carrier basis by column order
    cols = {}
    for key in d:
        cols.update(dict.fromkeys(product(*(
            [a for (p, a) in M.action if p == i]
            for M, i in zip(modules, key)))))
    cols = {col + (k,): 1 for col, k in zip(cols, flatten(
        dict.fromkeys(cols, 1), dims))}
    entries = {}
    for key, c in act([M.action for M in modules] + [None], d, cols).items():
        # the module legs flatten to the row, the pass-through leg is the column
        r = 0
        for i, dim in zip(key, dims):
            r = r * dim + i
        entries[(r, key[-1])] = c
    space = VectorSpace(n)
    return LinMap._adopt(space, space, entries)


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
    built on first read, since nested carriers are compared by their
    inclusions alone: for each algebra basis element one contraction
    acts with its coproduct on every carrier column at once, the column
    index riding along as a pass-through leg, and one sparse product
    with the carrier projection takes the result to carrier
    coordinates.
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
        self.space = VectorSpace(carrier.dim)
        self._action = None
        self._rho = None

    @property
    def action(self) -> dict:
        if self._action is None:
            self._action = self._conjugated_action()
        return self._action

    def _conjugated_action(self) -> dict:
        """The table {(i, j): {r: c}}: e_i acting on carrier basis j."""
        legs = (self.left.action, self.right.action, None)
        cols = self.inclusion_tensor()
        action = {}
        for i in range(self.algebra.dim):
            cop = self.algebra.comult.get(i)
            if cop:
                action.update(((i, j), rows) for j, rows in
                              self.project_columns(act(legs, cop, cols)).items()
                              if rows)
        return action

    def inclusion_tensor(self) -> dict:
        """The carrier inclusion as one tensor {(a, b, j): c}, the column
        index j as a trailing leg."""
        return column_tensor(self.carrier.inclusion,
                             (self.left.dim, self.right.dim))

    def project_columns(self, t: dict) -> dict:
        """A pair-keyed tensor with a trailing column leg, {(a, b, j): c},
        to carrier coordinates {j: {r: c}}, one sparse product for every
        column; a column may come back empty."""
        return project_columns(self.carrier.projection, self.right.dim, t)

    def inclusion_table(self) -> dict:
        """The carrier inclusion as a splice table {j: {(a, b): c}}."""
        dims = (self.left.dim, self.right.dim)
        return {j: unflatten(self.carrier.inclusion.column(j), dims)
                for j in range(self.carrier.dim)}

    def projection_table(self) -> dict:
        """The carrier projection as a table {(a, b): {j: c}} on pairs."""
        return unflatten(self.carrier.projection.columns(),
                         (self.left.dim, self.right.dim))

    def embed_pairs(self, coords: dict) -> dict:
        """Carrier coordinates to a pair-keyed ambient vector."""
        return unflatten(self.carrier.inclusion(coords),
                         (self.left.dim, self.right.dim))

    def project_pairs(self, pd: dict) -> dict:
        """Pair-keyed ambient vector to carrier coordinates."""
        return self.carrier.projection(
            flatten(pd, (self.left.dim, self.right.dim)))

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


def project_columns(f: LinMap, n: int, t: dict) -> dict:
    """A pair-keyed tensor with a trailing column leg, {(a, b, j): c},
    through f, which reads the pair (a, b) as the flat index a * n + b,
    to {j: {r: c}}; a column may come back empty."""
    proj = f.columns()
    out = {}
    last = None
    for (a, b, j), v in t.items():
        if j != last:
            rows = out.setdefault(j, {})
            get = rows.get
            last = j
        col = proj.get(a * n + b)
        if col:
            for r, p in col.items():
                w = v if p is _ONE else p * v
                cur = get(r)
                if cur is None:
                    rows[r] = w
                else:
                    cur = cur + w
                    if cur:
                        rows[r] = cur
                    else:
                        del rows[r]
    return out


def _column_map(domain: VectorSpace, codomain: VectorSpace,
                cols: dict) -> LinMap:
    """The map whose column j is cols[j], a missing column zero."""
    return LinMap._adopt(domain, codomain, {
        (r, j): c for j in range(domain.dim)
        for r, c in cols.get(j, {}).items()})


def _split_columns(t: dict, dim: int) -> list:
    """A tensor with a trailing column leg as its dim columns, the column
    leg dropped; a column left with one leg is a vector on bare indices."""
    out = [{} for _ in range(dim)]
    for key, c in t.items():
        out[key[-1]][key[0] if len(key) == 2 else key[:-1]] = c
    return out


def carrier_map(source: TruncatedTensor, target: TruncatedTensor, f) -> LinMap:
    """The map sending carrier basis j of source to the target carrier
    coordinates of the column j of f(x), x the inclusion tensor of source
    with its trailing column leg; f must pass that leg through."""
    return _column_map(source.space, target.space, target.project_columns(
        f(source.inclusion_tensor())))


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
    embedded = tt.inclusion_table()

    def collapse(j):
        # the unit leg, moved in front and read in H, acts on the M leg
        t = on_leg(permute(embedded[j], (unit_leg, m_leg)), 0, acting)
        return {r: c for (r,), c in on_leg(t, slice(0, 2), M.action).items()}

    eps = {k[unit_leg]: tgt.projection(H.epsilon_t(H.basis(k[unit_leg])))
           for k in H.delta_one()}
    split = on_leg(H.delta_one(), unit_leg, eps)

    def expand(m):
        # e_m inserted after the M leg of the split unit, which acts on it
        t = {k[:m_leg + 1] + (m,) + k[m_leg + 1:]: c for k, c in split.items()}
        return tt.project_pairs(on_leg(t, slice(m_leg, m_leg + 2), M.action))

    return (LinMap.from_function(tt.space, M.space, collapse),
            LinMap.from_function(M.space, tt.space, expand))


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


def sample_endomorphisms(M: HModule, rng):
    """H-linear endomorphisms available without solving for the commutant.

    The identity always qualifies; on the regular module, right
    multiplications by two random algebra elements do too.  A scalar
    multiple k of the identity would qualify as well, but it adds
    nothing to a naturality check: both sides of a comparison with it
    are k times those of the same comparison with the identity in its
    place, so it fails exactly when that one does.
    """
    out = [LinMap.identity(M.space)]
    if getattr(M, "is_regular_module", False):
        H = M.algebra
        for _ in range(2):
            vec = {}
            for i in range(H.dim):
                if rng.random() < 0.5:
                    x = rng.randint(-2, 2)
                    if x:
                        vec[i] = x
            out.append(H.right_mult_map(vec))
    return out


def carrier_mismatch(carrier: Subspace, dims, lhs, rhs):
    """None if lhs and rhs agree on every basis vector of the carrier,
    unflattened to a tensor with legs of the given dims, else the witness
    ((j,), lhs, rhs) of the first basis index j where they differ, each
    side the column j of its result with the column leg dropped.

    lhs and rhs are applied once each, to column_tensor(carrier.inclusion,
    dims), and must pass its trailing column leg through.  This is the skeleton
    of every hexagon check: lhs braids in one step, rhs in two."""
    x = column_tensor(carrier.inclusion, dims)
    left, right = lhs(x), rhs(x)
    if left == right:
        return None
    left, right = (_split_columns(t, carrier.dim) for t in (left, right))
    return first_unequal(product(range(carrier.dim)),
                         lambda j: (left[j], right[j]))


def _hexagon_braids(H, R, M, N, P):
    """The one-step and two-step braids of both hexagons on M, N and P.

    Forward braids the product of M and N past P, against first N then M
    past P; backward braids M past the product of N and P, against M
    first past N, then past P.
    """
    legs = (M.action, N.action, P.action, None)
    r = R.r
    # R with the coproduct applied to its first, then to its second leg
    forward_terms = on_leg(r, 0, H.comult)
    backward_terms = on_leg(r, 1, H.comult)

    def forward_one(x):
        return permute(act(legs, forward_terms, x), (2, 0, 1, 3))

    def forward_two(x):
        step = permute(act((None, N.action, P.action, None), r, x),
                       (0, 2, 1, 3))
        return permute(act((M.action, P.action, None, None), r, step),
                       (1, 0, 2, 3))

    def backward_one(x):
        return permute(act(legs, backward_terms, x), (1, 2, 0, 3))

    def backward_two(x):
        step = permute(act((M.action, N.action, None, None), r, x),
                       (1, 0, 2, 3))
        return permute(act((None, M.action, P.action, None), r, step),
                       (0, 2, 1, 3))

    return {"hexagon_forward": (forward_one, forward_two),
            "hexagon_backward": (backward_one, backward_two)}


def _naturality_mismatch(fwd: TruncatedTensor, back: TruncatedTensor,
                         c: LinMap, rng):
    """None when the braiding c from fwd to back commutes with f tensor g
    for every sampled endomorphism f of its left and g of its right leg,
    else ((), lhs, rhs), the entries of c (f tensor g) and (g tensor f) c
    at the first pair where they differ.

    c after the projection of fwd and the inclusion of back after c are
    formed once, the latter as a tensor with a trailing column leg, and
    c proj (f tensor g) incl is (c proj) (f tensor g) incl exactly.  So
    each pair costs two on_leg calls and one sparse product per side.
    """
    c_proj = c.compose(fwd.carrier.projection)
    x = fwd.inclusion_tensor()
    y = column_tensor(back.carrier.inclusion.compose(c),
                      (back.left.dim, back.right.dim))

    def both(t, f, g):
        return on_leg(on_leg(t, 0, f.columns()), 1, g.columns())
    return first_witness(((), entries_witness(
        _column_map(fwd.space, back.space, project_columns(
            c_proj, fwd.right.dim, both(x, f, g))),
        _column_map(fwd.space, back.space, back.project_columns(
            both(y, g, f)))))
        for f, g in product(sample_endomorphisms(fwd.left, rng),
                            sample_endomorphisms(fwd.right, rng)))


def _not_identity(f: LinMap):
    return None if f.is_identity() else ((), f.entries, {})


def _inverse_mismatch(f: LinMap, g: LinMap):
    """None when f and g are mutually inverse, else ((), entries, {}) of
    the first of f g and g f that is not the identity."""
    return _not_identity(f.compose(g)) or _not_identity(g.compose(f))


def _action_mismatch(tt: TruncatedTensor):
    """None when the diagonal action leaves the carrier of tt invariant:
    for each algebra basis h, the conjugated action composed with
    inclusion matches the ambient action; else the first h's witness."""
    H = tt.algebra
    legs = (tt.left.action, tt.right.action, None)
    cols = tt.inclusion_tensor()
    n = tt.right.dim

    def ambient(h):
        # the diagonal action on every embedded carrier column at once
        return LinMap(tt.space, tt.carrier.ambient, {
            (a * n + b, j): c for (a, b, j), c in
            act(legs, H.comult.get(h, {}), cols).items()})
    return first_witness(((h,), map_witness(
        tt.carrier.inclusion.compose(tt.rho(h)), ambient(h)))
        for h in range(H.dim))


def check_monoidal_coherence(H, R, modules, rng=None) -> VerificationReport:
    """Verify the monoidal and braided laws on a sample of modules; each
    witness key leads with the indices of the modules involved."""
    H.require_certified()
    R.require_certified()
    if rng is None:
        rng = random.Random(0)
    report = VerificationReport(subject=f"{H.name} monoidal coherence")
    unit = unit_object(H)

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

    def unitor_cases():
        for idx, M in enumerate(modules):
            tt_l = truncated_tensor(unit, M)
            tt_r = truncated_tensor(M, unit)
            (l, l_inv), (r, r_inv) = left_unitor(tt_l), right_unitor(tt_r)
            yield (idx,), {
                "unitors_mutually_inverse": lambda: (
                    _inverse_mismatch(l, l_inv) or _inverse_mismatch(r, r_inv)),
                "unitors_h_linear": lambda: (h_linear_mismatch(l, tt_l, M)
                                             or h_linear_mismatch(r, tt_r, M)),
                "unit_triangle": lambda: first_witness(
                    ((jdx,), triangle(M, N)) for jdx, N in enumerate(modules)),
            }
    report.record_first_witnesses(
        ("unitors_mutually_inverse", "unitors_h_linear", "unit_triangle"),
        unitor_cases())

    tts = {(i, j): truncated_tensor(M, N)
           for (i, M), (j, N) in product(enumerate(modules), repeat=2)}
    report.record("truncated_action_well_defined", first_witness(
        (key, _action_mismatch(tt)) for key, tt in tts.items()))

    def braiding_cases():
        for key, fwd in tts.items():
            back = tts[key[::-1]]
            c = braiding_c(fwd, back, R)
            c_inv = braiding_c_inv(back, fwd, R)
            yield key, {
                "braiding_invertible": lambda: _inverse_mismatch(c_inv, c),
                "braiding_h_linear": lambda: h_linear_mismatch(c, fwd, back),
                # c commutes with tensors of sampled endomorphisms
                "braiding_natural": lambda: _naturality_mismatch(
                    fwd, back, c, rng),
            }
    report.record_first_witnesses(
        ("braiding_invertible", "braiding_h_linear", "braiding_natural"),
        braiding_cases())

    def triple_cases():
        # one split triple carrier serves the three checks of a triple
        for (i, M), (j, N), (k, P) in product(enumerate(modules), repeat=3):
            split3 = split_idempotent(triple_projector(M, N, P))
            dims = (M.dim, N.dim, P.dim)
            yield (i, j, k), {
                "nested_carriers_coincide": lambda: (
                    _nested_carrier_mismatch(
                        split3, truncated_tensor(tts[(i, j)], P), 0, dims)
                    or _nested_carrier_mismatch(
                        split3, truncated_tensor(M, tts[(j, k)]), 1, dims)),
                **{name: partial(carrier_mismatch, split3, dims, *braids)
                   for name, braids in _hexagon_braids(H, R, M, N, P).items()},
            }
    report.record_first_witnesses(
        ("nested_carriers_coincide", "hexagon_forward", "hexagon_backward"),
        triple_cases())
    return report


def _nested_carrier_mismatch(split3: Subspace, outer: TruncatedTensor,
                             inner_leg: int, dims):
    """Check that one nesting order, with the inner truncated product on
    leg inner_leg of outer, spans exactly the triple projector image."""
    if outer.dim != split3.dim:
        return ((), {0: outer.dim}, {0: split3.dim})
    inner = (outer.left, outer.right)[inner_leg].inclusion_table()
    embedded = outer.inclusion_table()
    for j in range(outer.dim):
        flat = flatten(on_leg(embedded[j], inner_leg, inner), dims)
        if not split3.contains(flat):
            return ((j,), flat, {})
    return None
