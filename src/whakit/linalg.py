"""Exact sparse linear algebra over the package scalars.

A VectorSpace is its dimension alone; basis labels belong to the algebra
(WeakHopfAlgebra.labels).  Vectors are plain dicts mapping basis index
to a nonzero scalar.  A map is stored by columns, {col: {row: c}}:
column c is the image of basis vector c, and no column is empty.
Everything is exact: elimination runs over int, Fraction or Cyclo
entries with no tolerance anywhere, and integral entries stay ints until
a pivot is inverted.  Elimination touches only the rows that hold the
pivot column, so its cost follows the nonzeros and the fill, not the
square of the row count.

Tensor index convention, used by every module in the package: the basis
of M tensor N is ordered lexicographically with the M index major, so
the pair (i, j) flattens to i * dim(N) + j.  A k-leg tensor is a dict
keyed by k-tuples of basis indices; flatten and unflatten convert.

Every multilinear identity in the package is written with two
contraction primitives over such tensors: act contracts one tensor into
another leg by leg through bilinear tables (algebra products, module
actions), and on_leg applies a linear map to a single leg (coproduct,
counit, antipode, or a carrier projection read on a slice of legs).

Three kernels sum terms with add_term inlined: act, on_leg and
LinMap.__call__; compose applies __call__ to each column.  They, and
every other sum in the package but two, accumulate by add_term's rule.
A key takes its place in the result when its first term arrives, a sum
that cancels to zero is deleted (a later term at that key enters again,
last).  The two exceptions differ only once a sum has cancelled.
module_cat's truncation projector, when the coproduct of 1 acts by 0/1
diagonals, sums each diagonal entry without act, and a cancelled column
keeps its place for a later term.  yetter_drinfeld's _products keeps
each key at its first term and drops a sum that is zero only at the
end, so a key that cancels and is met again keeps its first place too.
The three kernels also skip a product by the int 1, and store a first
term untested: their inputs hold no zeros, so no term is zero.  act has
one algorithm: one pass per acting leg, each summing into the dict the
next pass reads, so the keys of its result come in order of first
arrival over the passes.  With one acting leg, or with rows of at most
one entry (every 0/1 table) where no sum cancels on the way, that is the
order, and the value types, of the loop over each (y term, x term) pair
and each choice of an entry from each row.  Elimination breaks ties by
key order, so report witnesses depend on this order.

A LinMap built with LinMap(...) takes (row, col) entries, checks each
against its dimensions and drops zeros, since those entries come from
outside the package.  LinMap._adopt takes columns the package computed
itself, with no empty column, no zero and every index in range by
construction, as they stand: the results of compose and identity, the
inclusion and projection of from_span and split_idempotent (the
inclusion's columns are the reduced rows of elimination, and from_span
checks the vectors it is given first), in module_cat every module
operator, truncation projector and column_map, and in weak_hopf the
counit form eps(e_i e_j).  LinMap.entries is a new {(row, col): c} dict
built from the columns, for reading only.

Subspace.locate takes a tensor, its ambient index on one leg or a slice
of legs, to subspace coordinates and says whether it lay in the
subspace; every membership test of the package asks it, once for all
the columns of a map built on a subspace.  It reads the splice tables
that Subspace.tables builds once per layout of legs.  A coordinate split
records the ambient indices it keeps as the frozenset kept (None on
every other subspace): its projection drops every other index, so locate
counts the terms kept, and contains is a lookup in kept.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter

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

    The terms of x tensor y, y's in the outer loop, are keyed by x's
    indices followed by y's key.  Each acting leg in turn contracts the
    leading x index into its leg of y through its table, summing by
    add_term's rule into the dict that the next leg reads.
    """
    n = sum(t is not None for t in tables)
    terms = ((xk + yk, xc if yc is _ONE else yc if xc is _ONE else xc * yc)
             for yk, yc in y.items() for xk, xc in x.items())
    for k, t in enumerate(tables):
        if t is None:
            continue
        i = n + k   # y's leg k in the key, after n leading x indices
        out = {}
        get = out.get
        for key, c in terms:
            row = t.get((key[0], key[i]))
            if row:
                head, tail = key[1:i], key[i + 1:]
                for r, v in row.items():
                    nk = head + (r,) + tail
                    w = c if v is _ONE else c * v
                    # add_term, inlined: this loop runs for every term
                    cur = get(nk)
                    if cur is None:
                        out[nk] = w
                    else:
                        cur = cur + w
                        if cur:
                            out[nk] = cur
                        else:
                            del out[nk]
        terms = out.items()
        n -= 1
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
    get = itemgetter(*order)
    if len(order) == 1:
        return {(get(key),): c for key, c in t.items()}
    return {get(key): c for key, c in t.items()}


def outer(x: dict, y: dict) -> dict:
    """The tensor product of two tuple-keyed tensors, the legs of x
    first: {a + b: v * w}, x's terms in the outer loop."""
    return {a + b: v * w for a, v in x.items() for b, w in y.items()}


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
    """A finite dimensional space with a basis indexed 0, ..., dim - 1."""

    __slots__ = ("dim",)

    def __init__(self, dim: int):
        if dim < 0:
            raise DimensionMismatch("dimension must be nonnegative")
        self.dim = dim

    def __repr__(self):
        return f"VectorSpace(dim={self.dim})"


class LinMap:
    """A sparse linear map, stored by columns: cols[c] is the image of
    basis vector c as {row: nonzero scalar}, and no column is empty."""

    __slots__ = ("domain", "codomain", "cols")

    def __init__(self, domain: VectorSpace, codomain: VectorSpace, entries: dict):
        """The map with the given (row, col) -> scalar entries."""
        self.domain = domain
        self.codomain = codomain
        cols = {}
        nr, nc = codomain.dim, domain.dim
        for (r, c), v in entries.items():
            if v == 0:
                continue
            if not (0 <= r < nr and 0 <= c < nc):
                raise DimensionMismatch(f"entry ({r},{c}) out of bounds {nr}x{nc}")
            cols.setdefault(c, {})[r] = v
        self.cols = cols

    @classmethod
    def _adopt(cls, domain: VectorSpace, codomain: VectorSpace,
               cols: dict) -> "LinMap":
        """A map on columns the package built: no column empty, every
        value nonzero and every index in range, so they are taken as they
        are, unchecked."""
        f = object.__new__(cls)
        f.domain = domain
        f.codomain = codomain
        f.cols = cols
        return f

    @staticmethod
    def identity(space: VectorSpace) -> "LinMap":
        return LinMap._adopt(space, space, {i: {i: 1} for i in range(space.dim)})

    @property
    def entries(self) -> dict:
        """The map as a new dict {(row, col): c}, column by column."""
        return {(r, c): v for c, col in self.cols.items() for r, v in col.items()}

    def columns(self) -> dict:
        """The map as a table {col: {row: c}}, the shape on_leg applies."""
        return self.cols

    def column(self, c: int) -> dict:
        """The image of the c-th basis vector."""
        return dict(self.cols.get(c, {}))

    def __call__(self, vec: dict) -> dict:
        cols = self.cols
        out = {}
        get = out.get
        for c, x in vec.items():
            col = cols.get(c)
            if col:
                for r, v in col.items():
                    w = x if v is _ONE else v if x is _ONE else v * x
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
        """self after g: self applied to each column of g."""
        if g.codomain.dim != self.domain.dim:
            raise DimensionMismatch("compose: inner dimensions differ")
        call = self.__call__
        return LinMap._adopt(g.domain, self.codomain, {
            c: img for c, col in g.cols.items() if (img := call(col))})

    def transpose(self) -> "LinMap":
        return LinMap._adopt(self.codomain, self.domain, _map_rows(self))

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (self.domain.dim == other.domain.dim
                and self.codomain.dim == other.codomain.dim
                and self.cols == other.cols)

    __hash__ = None

    def is_identity(self) -> bool:
        cols = self.cols
        return (self.domain.dim == self.codomain.dim == len(cols) and all(
            len(col) == 1 and col.get(c) == 1 for c, col in cols.items()))

    def __repr__(self):
        return (f"LinMap({self.domain.dim}->{self.codomain.dim}, "
                f"nnz={sum(map(len, self.cols.values()))})")


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
    for c, col in f.cols.items():
        for r, v in col.items():
            rows.setdefault(r, {})[c] = v
    return rows


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
    """A subspace carried by an inclusion and a one-sided inverse projection.

    kept is the frozenset of ambient indices a coordinate split keeps
    (see split_idempotent), and None for every other subspace."""

    __slots__ = ("ambient", "inclusion", "projection", "kept", "_tables")

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
        self.kept = None
        self._tables = {}

    @classmethod
    def _adopt(cls, ambient: VectorSpace, inclusion: LinMap,
               projection: LinMap) -> "Subspace":
        """A subspace whose maps the caller checks itself."""
        space = object.__new__(cls)
        space.ambient = ambient
        space.inclusion = inclusion
        space.projection = projection
        space.kept = None
        space._tables = {}
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
        return Subspace(ambient, LinMap._adopt(sub, ambient, dict(enumerate(
            reduced))), LinMap._adopt(ambient, sub, {
                p: {j: 1} for j, p in enumerate(pivots)}))

    def tables(self, dims) -> tuple:
        """(proj, incl): the projection and inclusion as on_leg tables
        {key: {j: c}} and {j: {key: c}}, keys split into legs of the tuple
        dims (a bare index on one leg); built once per dims."""
        if len(dims) == 1:
            return self.projection.columns(), self.inclusion.columns()
        tabs = self._tables.get(dims)
        if tabs is None:
            tabs = self._tables[dims] = (
                unflatten(self.projection.columns(), dims),
                {j: unflatten(col, dims)
                 for j, col in self.inclusion.columns().items()})
        return tabs

    def locate(self, t: dict, leg, dims) -> tuple:
        """(coords, inside): t, its ambient index on leg (an index or a
        slice, as on_leg reads it) split into legs of dims, in subspace
        coordinates, and whether t lay in the subspace: on a coordinate
        split when no term was dropped, else when re-embedding coords
        gives t back."""
        proj, incl = self.tables(dims)
        coords = on_leg(t, leg, proj)
        if self.kept is not None:
            return coords, len(coords) == len(t)
        return coords, on_leg(coords, leg if type(leg) is int
                              else leg.start, incl) == t

    def contains(self, vec: dict) -> bool:
        if self.kept is not None:
            return self.kept.issuperset(vec)
        return self.locate({(i,): c for i, c in vec.items()}, 0,
                           (self.ambient.dim,))[1]

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient.dim})"


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

    Such a split records the kept indices, the columns of P, as the
    frozenset kept.  Its projection sends a kept index c to v e_j and
    drops every other index, and its inclusion sends e_j back to v e_c,
    so inclusion(projection(vec)) == vec exactly when every key of vec is
    kept: v v == 1, and a dropped key is missing from the left side.
    contains reads kept alone, and locate counts the terms it keeps.
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
    # column j of the inclusion is {c: v}, the j-th column of P itself
    space = Subspace._adopt(
        P.domain, LinMap._adopt(sub, P.domain, dict(enumerate(cols.values()))),
        LinMap._adopt(P.domain, sub, {
            c: {j: col[c]} for j, (c, col) in enumerate(cols.items())}))
    space.kept = frozenset(cols)
    return space


def _image_split(P: LinMap) -> Subspace:
    """The inclusion and projection of split_idempotent, unchecked, for
    any square P."""
    reduced, pivots, _ = _rref(P.columns().values())
    sub = VectorSpace(len(reduced))
    rows = _map_rows(P)
    # row j of the projection is row p_j of P, each p_j a row P reaches
    return Subspace._adopt(
        P.domain, LinMap._adopt(sub, P.domain, dict(enumerate(reduced))),
        LinMap._adopt(sub, P.domain, {
            j: rows[p] for j, p in enumerate(pivots)}).transpose())
