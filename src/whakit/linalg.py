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

A LinMap built with LinMap(...) checks every entry against its
dimensions and drops zeros, since those entries come from outside the
package.  A map the package computes itself, with nonzero entries in
range by construction, is adopted as it stands by LinMap._adopt: the
results of compose and identity, the inclusion and projection of
from_span and split_idempotent, and in module_cat every carrier_map and
truncation projector.  from_span checks the vectors it is given before
eliminating them, so the maps it adopts are in range too.
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
    out = {}
    get = out.get
    through = None in tables
    if through:
        legs = [k for k, t in enumerate(tables) if t is not None]
        tables = [tables[k] for k in legs]
    for yk, yc in y.items():
        ya = [yk[k] for k in legs] if through else yk
        for xk, xc in x.items():
            rows = []
            for t, p, a in zip(tables, xk, ya):
                row = t.get((p, a))
                if not row:
                    break
                rows.append(row.items())
            else:
                c0 = xc if yc is _ONE else yc if xc is _ONE else xc * yc
                for combo in product(*rows):
                    key, vals = zip(*combo)
                    if through:
                        full = list(yk)
                        for k, r in zip(legs, key):
                            full[k] = r
                        key = tuple(full)
                    c = c0
                    for v in vals:
                        if v is not _ONE:
                            c = c * v
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
    out = {}
    for key, c in t.items():
        row = op.get(key[leg])
        if row:
            head, tail = key[:span.start], key[span.stop:]
            for j, v in row.items():
                add_term(out, head + (j if type(j) is tuple else (j,)) + tail,
                         c if v is _ONE else c * v)
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
        for c, x in vec.items():
            col = bycol.get(c)
            if col:
                for r, v in col.items():
                    add_term(out, r, x if v is _ONE else v * x)
        return out

    def compose(self, g: "LinMap") -> "LinMap":
        """self after g."""
        if g.codomain.dim != self.domain.dim:
            raise DimensionMismatch("compose: inner dimensions differ")
        byrow = {}
        for (r, c), v in g.entries.items():
            byrow.setdefault(r, []).append((c, v))
        out = {}
        for (r, c), v in self.entries.items():
            for c2, v2 in byrow.get(c, ()):
                add_term(out, (r, c2),
                         v if v2 is _ONE else v2 if v is _ONE else v * v2)
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
    """
    if P.domain.dim != P.codomain.dim:
        raise DimensionMismatch("idempotent must be an endomorphism")
    space = _image_split(P)
    if not space.projection.compose(space.inclusion).is_identity():
        raise NotIdempotent("map is not idempotent")
    if space.inclusion.compose(space.projection) != P:
        raise NotIdempotent("idempotent does not factor through its image")
    return space


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
