"""Exact sparse linear algebra over the package scalars.

Vectors are plain dicts mapping basis index to a nonzero scalar.  Maps
are sparse (row, col) dicts.  Everything is exact: elimination runs over
int, Fraction or Cyclo entries with no tolerance anywhere, and integral
entries stay ints until a pivot is inverted.  Elimination touches only
the rows that hold the pivot column, so its cost follows the nonzeros
and the fill, not the square of the row count.

Tensor index convention, used by every module in the package: the basis
of M tensor N is ordered lexicographically with the M index major, so
the pair (i, j) flattens to i * dim(N) + j.  A k-leg tensor is a dict
keyed by k-tuples of basis indices; flatten and unflatten convert.

Every multilinear identity in the package is written with two
contraction primitives over such tensors: act contracts one tensor into
another leg by leg through bilinear tables (algebra products, module
actions), and on_leg applies a linear map to a single leg (coproduct,
counit, antipode).

Every kernel that sums terms (act, on_leg, LinMap.__call__ and
LinMap.compose here, project_columns in module_cat) accumulates them by
one rule.  A key takes its place in the result when its first term
arrives, a sum that cancels to zero is deleted (a later term at that key
enters again, last), and a product by the int 1 is skipped.  Inputs hold
no zeros, so no term is zero, and a first term is stored untested.  act
builds a term whose looked-up table rows each hold a single entry, the
case of every 0/1 table, directly, without itertools.product, in the
order the product loop would give.  Elimination breaks ties by key
order, so report witnesses depend on this order.

A LinMap built with LinMap(...) checks every entry against its
dimensions and drops zeros, since those entries come from outside the
package.  A map the package computes itself, with nonzero entries in
range by construction, is adopted as it stands by LinMap._adopt: the
results of compose and identity, the inclusion and projection of
from_span and split_idempotent (the coordinate inclusion and projection
of a coordinate projection among them), and in module_cat every
carrier_map and truncation projector.  from_span checks the vectors it
is given before eliminating them, so the maps it adopts are in range
too.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import product

from .scalars import invert

# Structure constants of group and groupoid algebras, and their actions,
# are 0/1 tables.  A product by an entry of 1 returns an equal value of
# the same type, so the kernels below skip it when the entry is the int
# 1: CPython holds one int 1 object, so an identity test finds it, and
# any other 1 (a Fraction, a Cyclo, a bool) simply takes the product.
_ONE = 1


class DimensionMismatch(ValueError):
    """Map or vector dimensions do not line up."""


class NotIdempotent(ValueError):
    """split_idempotent received a map P with P compose P != P."""


def add_term(acc: dict, key, c) -> None:
    """Accumulate c at key, keeping the no-stored-zeros invariant."""
    cur = acc.get(key)
    if cur is None:
        if c != 0:
            acc[key] = c
    else:
        cur = cur + c
        if cur == 0:
            del acc[key]
        else:
            acc[key] = cur


def flatten(t: dict, dims) -> dict:
    """A k-leg tensor as a flat vector; dims are the k leg dimensions."""
    out = {}
    for key, c in t.items():
        k = 0
        for i, d in zip(key, dims):
            k = k * d + i
        out[k] = c
    return out


def unflatten(flat: dict, dims) -> dict:
    """The inverse of flatten: a flat vector as a k-leg tensor."""
    out = {}
    rev = dims[:0:-1]
    for k, c in flat.items():
        key = []
        for d in rev:
            k, i = divmod(k, d)
            key.append(i)
        key.append(k)
        out[tuple(key[::-1])] = c
    return out


def act(tables, x: dict, y: dict) -> dict:
    """Contract x into y leg by leg.

    tables holds one entry per leg of y: a bilinear table
    {(p, a): {r: c}} (c is the coefficient of e_r in e_p . e_a), or
    None, which lets that leg of y pass through untouched.  x has one
    leg per table that is not None.  The result is the sum over the
    terms of x and y of x[p] y[a] times the product of the table rows,
    keyed like y.  With the product table of an algebra on every leg,
    act(tables, x, y) is the product x y in the tensor power; with
    module actions, it is x acting on y.
    """
    legs = [k for k, t in enumerate(tables) if t is not None]
    a, b = legs[0], legs[-1] + 1
    # The legs a .. b-1 of y form one block, replaced in each output key
    # between the untouched head and tail of the y key.  A leg passed
    # through inside the block acts by an identity table, read at x
    # index 0.
    block = [tables[k] if tables[k] is not None
             else {(0, i): {i: _ONE} for i in {yk[k] for yk in y}}
             for k in range(a, b)]
    # each term of x once per call: (table, x index, y leg) per block leg
    xs = []
    for xk, xc in x.items():
        at = dict(zip(legs, xk))
        xs.append(([(t, at.get(k, 0), k) for k, t in enumerate(block, a)], xc))
    out = {}
    get = out.get
    for yk, yc in y.items():
        head, tail = yk[:a], yk[b:]
        for terms, xc in xs:
            rs = []
            vs = []
            for t, p, k in terms:
                row = t.get((p, yk[k]))
                if not row or len(row) != 1:
                    break
                (r, v), = row.items()
                rs.append(r)
                vs.append(v)
            else:
                # every row holds a single entry: one output term
                c = xc if yc is _ONE else yc if xc is _ONE else xc * yc
                for v in vs:
                    if v is not _ONE:
                        c = c * v
                key = head + tuple(rs) + tail
                # add_term, inlined: this loop runs for every term
                cur = get(key)
                if cur is None:
                    out[key] = c
                else:
                    cur = cur + c
                    if cur:
                        out[key] = cur
                    else:
                        del out[key]
                continue
            if row:
                # a row with several entries: one term per choice of an
                # entry from each row, unless a later row is empty
                rows = [t.get((p, yk[k])) for t, p, k in terms]
                if all(rows):
                    c0 = xc if yc is _ONE else yc if xc is _ONE else xc * yc
                    for combo in product(*map(dict.items, rows)):
                        rs, vals = zip(*combo)
                        c = c0
                        for v in vals:
                            if v is not _ONE:
                                c = c * v
                        add_term(out, head + rs + tail, c)
    return out


def on_leg(t: dict, leg, op: dict) -> dict:
    """Apply a linear map {i: {j: c}} to one leg of a tuple-keyed tensor.

    A tuple j splices its legs in place of the old one (a coproduct
    {i: {(j, k): c}} turns one leg into two), the empty tuple drops the
    leg (a counit {i: {(): c}}), and any other j replaces the index.
    leg may also be a slice of adjacent legs, which op reads as one tuple
    index: with an algebra's product table {(a, b): {k: c}} it multiplies
    two legs together, with a module's action it lets one leg act on the
    next.
    """
    span = leg if type(leg) is slice else slice(leg, leg + 1)
    start, stop = span.start, span.stop
    out = {}
    get = out.get
    for key, c in t.items():
        row = op.get(key[leg])
        if row:
            head, tail = key[:start], key[stop:]
            for j, v in row.items():
                k = head + (j if type(j) is tuple else (j,)) + tail
                w = c if v is _ONE else c * v
                cur = get(k)
                if cur is None:
                    out[k] = w
                else:
                    cur = cur + w
                    if cur:
                        out[k] = cur
                    else:
                        del out[k]
    return out


def permute(t: dict, order) -> dict:
    """Reorder the legs of a tuple-keyed tensor: leg k of the result is
    leg order[k] of t."""
    return {tuple(key[i] for i in order): c for key, c in t.items()}


def check_keys(table, name: str, dims) -> None:
    """Raise DimensionMismatch, naming the table and the key, unless every
    key of table is a tuple of len(dims) indices with 0 <= key[k] < dims[k];
    a one-leg table may key by bare indices."""
    for key in table:
        idx = key if type(key) is tuple else (key,)
        if len(idx) != len(dims) or not all(
                type(i) is int and 0 <= i < d for i, d in zip(idx, dims)):
            raise DimensionMismatch(
                f"{name}: key {key!r} out of range for dimensions {tuple(dims)}")


class VectorSpace:
    """A finite dimensional space with a distinguished labeled basis."""

    __slots__ = ("dim", "labels")

    def __init__(self, dim: int, labels=None):
        if dim < 0:
            raise DimensionMismatch("dimension must be nonnegative")
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        else:
            labels = tuple(labels)
        if len(labels) != dim:
            raise DimensionMismatch("label count differs from dimension")
        if len(set(labels)) != dim:
            raise DimensionMismatch("basis labels must be distinct")
        self.dim = dim
        self.labels = labels

    def tensor(self, other: "VectorSpace") -> "VectorSpace":
        labels = [f"{a}(x){b}" for a in self.labels for b in other.labels]
        if len(set(labels)) != len(labels):
            labels = None
        return VectorSpace(self.dim * other.dim, labels)

    def __eq__(self, other):
        return (isinstance(other, VectorSpace)
                and self.dim == other.dim and self.labels == other.labels)

    def __hash__(self):
        return hash((self.dim, self.labels))

    def __repr__(self):
        return f"VectorSpace(dim={self.dim})"


class LinMap:
    """A sparse linear map; entries hold (row, col) -> nonzero scalar."""

    __slots__ = ("domain", "codomain", "entries", "_bycol")

    def __init__(self, domain: VectorSpace, codomain: VectorSpace, entries: dict):
        self.domain = domain
        self.codomain = codomain
        cleaned = {}
        nr, nc = codomain.dim, domain.dim
        for (r, c), v in entries.items():
            if v == 0:
                continue
            if not (0 <= r < nr and 0 <= c < nc):
                raise DimensionMismatch(f"entry ({r},{c}) out of bounds {nr}x{nc}")
            cleaned[(r, c)] = v
        self.entries = cleaned
        self._bycol = None

    @classmethod
    def _adopt(cls, domain: VectorSpace, codomain: VectorSpace,
               entries: dict) -> "LinMap":
        """A map on entries the package built: every value nonzero and
        every key in range, so they are taken as they are, unchecked."""
        f = object.__new__(cls)
        f.domain = domain
        f.codomain = codomain
        f.entries = entries
        f._bycol = None
        return f

    @staticmethod
    def identity(space: VectorSpace) -> "LinMap":
        return LinMap._adopt(space, space,
                             {(i, i): 1 for i in range(space.dim)})

    @staticmethod
    def from_function(domain: VectorSpace, codomain: VectorSpace, fn) -> "LinMap":
        """Build a map from its action on basis vectors; fn(index) returns a dict."""
        entries = {}
        for c in range(domain.dim):
            for r, v in fn(c).items():
                if v != 0:
                    entries[(r, c)] = v
        return LinMap(domain, codomain, entries)

    def columns(self) -> dict:
        """The map as a table {col: {row: c}}, the shape on_leg applies."""
        if self._bycol is None:
            bycol = {}
            for (r, c), v in self.entries.items():
                bycol.setdefault(c, {})[r] = v
            self._bycol = bycol
        return self._bycol

    def column(self, c: int) -> dict:
        """The image of the c-th basis vector."""
        return dict(self.columns().get(c, {}))

    def __call__(self, vec: dict) -> dict:
        bycol = self.columns()
        out = {}
        get = out.get
        for c, x in vec.items():
            col = bycol.get(c)
            if col:
                for r, v in col.items():
                    w = x if v is _ONE else v * x
                    cur = get(r)
                    if cur is None:
                        out[r] = w
                    else:
                        cur = cur + w
                        if cur:
                            out[r] = cur
                        else:
                            del out[r]
        return out

    def compose(self, g: "LinMap") -> "LinMap":
        """self after g."""
        if g.codomain.dim != self.domain.dim:
            raise DimensionMismatch("compose: inner dimensions differ")
        byrow = {}
        for (r, c), v in g.entries.items():
            byrow.setdefault(r, []).append((c, v))
        out = {}
        get = out.get
        for (r, c), v in self.entries.items():
            for c2, v2 in byrow.get(c, ()):
                k = (r, c2)
                w = v if v2 is _ONE else v2 if v is _ONE else v * v2
                cur = get(k)
                if cur is None:
                    out[k] = w
                else:
                    cur = cur + w
                    if cur:
                        out[k] = cur
                    else:
                        del out[k]
        return LinMap._adopt(g.domain, self.codomain, out)

    __matmul__ = compose

    def tensor(self, g: "LinMap") -> "LinMap":
        dcd, dcc = g.codomain.dim, g.domain.dim
        out = {}
        for (r1, c1), v1 in self.entries.items():
            for (r2, c2), v2 in g.entries.items():
                out[(r1 * dcd + r2, c1 * dcc + c2)] = v1 * v2
        return LinMap(self.domain.tensor(g.domain),
                      self.codomain.tensor(g.codomain), out)

    def __add__(self, other: "LinMap") -> "LinMap":
        if (self.domain.dim, self.codomain.dim) != (other.domain.dim, other.codomain.dim):
            raise DimensionMismatch("sum of maps with different shapes")
        out = dict(self.entries)
        for k, v in other.entries.items():
            add_term(out, k, v)
        return LinMap(self.domain, self.codomain, out)

    def __sub__(self, other: "LinMap") -> "LinMap":
        if (self.domain.dim, self.codomain.dim) != (other.domain.dim, other.codomain.dim):
            raise DimensionMismatch("difference of maps with different shapes")
        out = dict(self.entries)
        for k, v in other.entries.items():
            add_term(out, k, -v)
        return LinMap(self.domain, self.codomain, out)

    def scale(self, c) -> "LinMap":
        return LinMap(self.domain, self.codomain,
                      {k: c * v for k, v in self.entries.items()})

    def transpose(self) -> "LinMap":
        return LinMap(self.codomain, self.domain,
                      {(c, r): v for (r, c), v in self.entries.items()})

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.domain.dim == other.domain.dim
                and self.codomain.dim == other.codomain.dim
                and self.entries == other.entries)

    __hash__ = None

    def is_identity(self) -> bool:
        if self.domain.dim != self.codomain.dim:
            return False
        if len(self.entries) != self.domain.dim:
            return False
        return all(self.entries.get((i, i)) == 1 for i in range(self.domain.dim))

    def __repr__(self):
        return (f"LinMap({self.domain.dim}->{self.codomain.dim}, "
                f"nnz={len(self.entries)})")


def _rref(rows, forbid=None):
    """Sparse Gauss-Jordan elimination over exact scalars.

    rows is an iterable of dicts {col: scalar}; each is copied, so the
    caller's dicts are never changed.  Returns (reduced, pivots,
    leftover): reduced[i] has a 1 in column pivots[i] and that column is
    zero in every other returned row; leftover collects nonzero rows
    whose support lies entirely in the forbidden column (inconsistent
    equations when forbid marks an augmented right hand side), in input
    order.

    Pivots are chosen greedily for least fill-in, after Markowitz
    (1957): the pivot row is the first shortest row in input order (its
    length not counting the forbidden column), and its pivot column is
    the candidate held by the fewest other unreduced rows, ties going to
    the first in the row's key order.  A heap keyed by (length, input
    position), with stale entries skipped when popped, finds that row,
    and an index from each column to the unreduced rows and to the
    reduced rows that hold it both counts the candidates and names the
    only rows a pivot has to touch, so a pivot costs the fill it makes
    rather than a scan of every row.
    """
    rows = [dict(r) for r in rows if r]
    size = [len(r) - (forbid in r) for r in rows]
    holders = {}    # column -> indices of the unreduced rows holding it
    for i, r in enumerate(rows):
        for c in r:
            if c != forbid:
                holders.setdefault(c, set()).add(i)
    reduced_holders = {}    # column -> positions in reduced, own pivots excluded
    heap = [(n, i) for i, n in enumerate(size) if n]
    heapify(heap)
    reduced, pivots = [], []
    while heap:
        n, i = heappop(heap)
        piv_row = rows[i]
        if piv_row is None or size[i] != n:
            continue
        rows[i] = None
        candidates = [c for c in piv_row if c != forbid]
        for c in candidates:
            holders[c].discard(i)
        piv_col = min(candidates, key=lambda c: len(holders[c]))
        piv = piv_row[piv_col]
        if piv is not _ONE:
            inv = invert(piv)
            if inv != 1:
                piv_row = {c: v * inv for c, v in piv_row.items()}
        # no row but this pivot row holds piv_col again: no later pivot
        # row holds it, so no later step can bring it back
        for j in holders.pop(piv_col):
            r = rows[j]
            _eliminate(r, j, piv_row, piv_col, forbid, holders)
            if not r:
                rows[j] = None
            else:
                m = len(r) - (forbid in r)
                if m != size[j]:
                    size[j] = m
                    if m:
                        heappush(heap, (m, j))
        for j in reduced_holders.pop(piv_col, ()):
            _eliminate(reduced[j], j, piv_row, piv_col, forbid,
                       reduced_holders)
        pos = len(reduced)
        for c in candidates:
            if c != piv_col:
                reduced_holders.setdefault(c, set()).add(pos)
        reduced.append(piv_row)
        pivots.append(piv_col)
    leftover = [r for r in rows if r is not None]
    return reduced, pivots, leftover


def _eliminate(r: dict, j, piv_row: dict, piv_col, forbid, index: dict):
    """Subtract r[piv_col] times piv_row from row j, whose dict is r, term by
    term as add_term does, and keep index (column -> rows) in step with the
    columns that appear in or vanish from r; piv_col itself vanishes."""
    f = r[piv_col]
    for c, v in piv_row.items():
        x = -f * v
        cur = r.get(c)
        if cur is None:
            if x != 0:
                r[c] = x
                if c != forbid:
                    index.setdefault(c, set()).add(j)
        else:
            cur = cur + x
            if cur == 0:
                del r[c]
                if c != forbid and c != piv_col:
                    index[c].discard(j)
            else:
                r[c] = cur


def _map_rows(f: LinMap) -> dict:
    """The map as a table {row: {col: c}}."""
    rows = {}
    for (r, c), v in f.entries.items():
        rows.setdefault(r, {})[c] = v
    return rows


def rank(f: LinMap) -> int:
    _, pivots, _ = _rref(_map_rows(f).values())
    return len(pivots)


def kernel(f: LinMap) -> "Subspace":
    reduced, pivots, _ = _rref(_map_rows(f).values())
    pivot_set = set(pivots)
    free = [c for c in range(f.domain.dim) if c not in pivot_set]
    basis = []
    for cf in free:
        vec = {cf: 1}
        for row, pc in zip(reduced, pivots):
            v = row.get(cf)
            if v:
                vec[pc] = -v
        basis.append(vec)
    return Subspace.from_span(f.domain, basis)


def image(f: LinMap) -> "Subspace":
    return Subspace.from_span(f.codomain, f.columns().values())


def solve(f: LinMap, y: dict):
    """One solution x of f(x) = y, free coordinates set to zero, or None."""
    rhs = f.domain.dim
    rows = _map_rows(f)
    for r, v in y.items():
        if v != 0:
            if not (0 <= r < f.codomain.dim):
                raise DimensionMismatch("right hand side index out of bounds")
            rows.setdefault(r, {})[rhs] = v
    reduced, pivots, leftover = _rref(rows.values(), forbid=rhs)
    if leftover:
        return None
    out = {}
    for row, pc in zip(reduced, pivots):
        v = row.get(rhs)
        if v:
            out[pc] = v
    return out


class Subspace:
    """A subspace carried by an inclusion and a one-sided inverse projection."""

    __slots__ = ("ambient", "inclusion", "projection")

    def __init__(self, ambient: VectorSpace, inclusion: LinMap, projection: LinMap):
        if inclusion.codomain.dim != ambient.dim or projection.domain.dim != ambient.dim:
            raise DimensionMismatch("subspace maps do not match the ambient space")
        if inclusion.domain.dim != projection.codomain.dim:
            raise DimensionMismatch("inclusion and projection disagree on the subspace")
        if not projection.compose(inclusion).is_identity():
            raise DimensionMismatch("projection does not retract the inclusion")
        self.ambient = ambient
        self.inclusion = inclusion
        self.projection = projection

    @classmethod
    def _adopt(cls, ambient: VectorSpace, inclusion: LinMap,
               projection: LinMap) -> "Subspace":
        """A subspace whose maps the caller checks itself."""
        space = object.__new__(cls)
        space.ambient = ambient
        space.inclusion = inclusion
        space.projection = projection
        return space

    @property
    def dim(self) -> int:
        return self.inclusion.domain.dim

    @property
    def space(self) -> VectorSpace:
        return self.inclusion.domain

    @staticmethod
    def from_span(ambient: VectorSpace, vectors) -> "Subspace":
        """Span of the given coordinate vectors inside ambient; an index
        out of range raises DimensionMismatch."""
        rows = []
        for vec in vectors:
            check_keys(vec, "from_span vector", (ambient.dim,))
            rows.append({i: v for i, v in vec.items() if v != 0})
        reduced, pivots, _ = _rref(rows)
        sub = VectorSpace(len(reduced))
        return Subspace(ambient, _inclusion(sub, ambient, reduced),
                        LinMap._adopt(ambient, sub, {
                            (j, p): 1 for j, p in enumerate(pivots)}))

    def contains(self, vec: dict) -> bool:
        return self.inclusion(self.projection(vec)) == vec

    def coords(self, vec: dict, check: bool = True) -> dict:
        """Coordinates of an ambient vector lying in the subspace."""
        c = self.projection(vec)
        if check and self.inclusion(c) != vec:
            raise DimensionMismatch("vector is not in the subspace")
        return c

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient.dim})"


def _inclusion(sub: VectorSpace, ambient: VectorSpace, reduced) -> LinMap:
    """The map sending basis vector j of sub to the reduced row j."""
    return LinMap._adopt(sub, ambient, {
        (a, j): v for j, row in enumerate(reduced) for a, v in row.items()})


def split_idempotent(P: LinMap) -> Subspace:
    """Split an idempotent P as inclusion after projection.

    Eliminating the columns of P gives reduced rows r_j, each 1 at its
    pivot p_j and 0 at every other pivot.  The inclusion sends basis j
    to r_j, and row j of the projection is row p_j of P.  Two identities
    follow, for every square P:

    - inclusion compose projection = P.  Column c of P lies in the span
      of the r_j, and its coefficient on r_j is its entry P[p_j, c].
    - projection compose inclusion = identity exactly when P compose
      P = P.  Its (i, j) entry is (P r_j)[p_i], which is r_j[p_i], a
      Kronecker delta, when P fixes its image; conversely P P = i p i p
      = i p = P.

    So the retraction check decides idempotence.  Both checks run on the
    result, and NotIdempotent is raised when either fails.

    A coordinate projection, every column c of P exactly {c: v} with
    v == 1, is split without elimination: the inclusion sends basis j to
    e_c and the projection sends e_c back to j, c the j-th column in
    P.columns() order, both carrying v.  These are the maps elimination
    gives, entry for entry and in the same key order, since its
    singleton rows pop in input order and a pivot equal to 1 is kept as
    it is.  Neither check can fail there: P is diagonal with entries 0
    and 1, so P compose P = P, and projection compose inclusion is the
    identity and inclusion compose projection is P by the two identities
    above.  Truncation projectors of Hopf algebras, where the coproduct
    of 1 is 1 tensor 1, and of groupoid algebras, where it is the sum of
    1_x tensor 1_x over the objects x, are of this shape.
    """
    if P.domain.dim != P.codomain.dim:
        raise DimensionMismatch("idempotent must be an endomorphism")
    space = _coordinate_split(P)
    if space is not None:
        return space
    space = _image_split(P)
    if not space.projection.compose(space.inclusion).is_identity():
        raise NotIdempotent("map is not idempotent")
    if space.inclusion.compose(space.projection) != P:
        raise NotIdempotent("idempotent does not factor through its image")
    return space


def _coordinate_split(P: LinMap):
    """The split of a coordinate projection P, as _image_split gives it,
    or None when some column c of P is not exactly {c: v} with v == 1."""
    cols = P.columns()
    if not all(len(col) == 1 and col.get(c) == 1 for c, col in cols.items()):
        return None
    sub = VectorSpace(len(cols))
    diagonal = [(j, c, col[c]) for j, (c, col) in enumerate(cols.items())]
    return Subspace._adopt(
        P.domain,
        LinMap._adopt(sub, P.domain, {(c, j): v for j, c, v in diagonal}),
        LinMap._adopt(P.domain, sub, {(j, c): v for j, c, v in diagonal}))


def _image_split(P: LinMap) -> Subspace:
    """The inclusion and projection of split_idempotent, unchecked, for
    any square P."""
    reduced, pivots, _ = _rref(P.columns().values())
    sub = VectorSpace(len(reduced))
    rows = _map_rows(P)
    return Subspace._adopt(
        P.domain, _inclusion(sub, P.domain, reduced),
        LinMap._adopt(P.domain, sub, {
            (j, c): v for j, p in enumerate(pivots)
            for c, v in rows.get(p, {}).items()}))
