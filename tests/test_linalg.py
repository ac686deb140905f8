import math
import random
from fractions import Fraction

import pytest

from whakit.linalg import (
    DimensionMismatch,
    LinMap,
    NotIdempotent,
    Subspace,
    VectorSpace,
    _image_split,
    _rref,
    flatten,
    image,
    on_leg,
    solve,
    split_idempotent,
    unflatten,
)
from whakit.examples import sweedler
from whakit.scalars import omega


def rand_map(rng, nd, nc, density=0.3, field_order=None):
    entries = {}
    for r in range(nc):
        for c in range(nd):
            if rng.random() < density:
                v = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                if field_order and rng.random() < 0.5:
                    v = v * omega(field_order) + rng.randint(-2, 2)
                if v != 0:
                    entries[(r, c)] = v
    return LinMap(VectorSpace(nd), VectorSpace(nc), entries)


def rref_rank(f):
    """The rank of f: the number of pivots _rref finds among its rows."""
    return len(_rref(f.transpose().columns().values())[1])


def rref_kernel(f):
    """A basis of the null space of f read off _rref of its rows: for each
    free column cf, e_cf minus the entries of the reduced rows at cf,
    each placed at its row's pivot."""
    reduced, pivots, _ = _rref(f.transpose().columns().values())
    free = sorted(set(range(f.domain.dim)) - set(pivots))
    return [{cf: 1, **{p: -row[cf] for row, p in zip(reduced, pivots)
                       if cf in row}} for cf in free]


def test_compose_with_identity():
    rng = random.Random(1)
    f = rand_map(rng, 4, 5)
    assert f.compose(LinMap.identity(VectorSpace(4))) == f
    assert LinMap.identity(VectorSpace(5)).compose(f) == f


def test_kernel_of_zero_map():
    z = LinMap(VectorSpace(3), VectorSpace(2), {})
    assert rref_kernel(z) == [{0: 1}, {1: 1}, {2: 1}]


def test_rank_of_identity():
    assert rref_rank(LinMap.identity(VectorSpace(7))) == 7


def test_solve_scalar_equation():
    f = LinMap(VectorSpace(1), VectorSpace(1), {(0, 0): Fraction(2)})
    assert solve(f, {0: Fraction(3)}) == {0: Fraction(3, 2)}


def test_solve_consistency():
    rng = random.Random(11)
    for _ in range(20):
        f = rand_map(rng, 5, 4, density=0.4)
        x = {i: Fraction(rng.randint(-3, 3)) for i in range(5) if rng.random() < 0.5}
        x = {k: v for k, v in x.items() if v != 0}
        y = f(x)
        sol = solve(f, y)
        assert sol is not None
        assert f(sol) == y


def test_solve_inconsistent_returns_none():
    f = LinMap(VectorSpace(1), VectorSpace(2), {(0, 0): Fraction(1)})
    assert solve(f, {1: Fraction(1)}) is None


def test_rank_nullity():
    rng = random.Random(23)
    for _ in range(25):
        nd, nc = rng.randint(1, 8), rng.randint(1, 8)
        f = rand_map(rng, nd, nc, density=0.35, field_order=3)
        ker = rref_kernel(f)
        assert rref_rank(f) + len(ker) == nd
        assert Subspace.from_span(f.domain, ker).dim == len(ker)
        for v in ker:
            assert f(v) == {}
        assert image(f).dim == rref_rank(f)


def test_image_contains_column_vectors():
    rng = random.Random(5)
    f = rand_map(rng, 6, 5, density=0.4)
    im = image(f)
    for c in range(6):
        assert im.contains(f({c: Fraction(1)}))


def test_split_idempotent_identity_and_zero():
    sp = VectorSpace(4)
    assert split_idempotent(LinMap.identity(sp)).dim == 4
    assert split_idempotent(LinMap(sp, sp, {})).dim == 0


def test_split_idempotent_diagonal():
    sp = VectorSpace(3)
    P = LinMap(sp, sp, {(0, 0): Fraction(1), (2, 2): Fraction(1)})
    sub = split_idempotent(P)
    assert sub.dim == 2
    assert sub.contains({0: Fraction(1)})
    assert sub.contains({2: Fraction(5)})
    assert not sub.contains({1: Fraction(1)})


def test_split_idempotent_rejects_non_idempotent():
    sp = VectorSpace(2)
    for entries in ({(0, 0): Fraction(2)},
                    {(0, 1): 1},                      # nilpotent
                    {(0, 0): 2, (1, 1): 2},           # 2 I
                    # squares to twice itself
                    {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}):
        with pytest.raises(NotIdempotent):
            split_idempotent(LinMap(sp, sp, entries))


def test_split_idempotent_factorization():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(2, 7)
        sp = VectorSpace(n)
        vecs = []
        for _ in range(rng.randint(1, n)):
            v = {i: Fraction(rng.randint(-3, 3)) for i in range(n)}
            v = {k: c for k, c in v.items() if c != 0}
            if v:
                vecs.append(v)
        if not vecs:
            continue
        sub = Subspace.from_span(sp, vecs)
        P = sub.inclusion.compose(sub.projection)
        split = split_idempotent(P)
        assert split.dim == sub.dim
        assert split.inclusion.compose(split.projection) == P
        assert split.projection.compose(split.inclusion).is_identity()


def test_subspace_coords_roundtrip():
    sp = VectorSpace(4)
    sub = Subspace.from_span(sp, [{0: Fraction(1), 1: Fraction(2)},
                                  {2: Fraction(1)}])
    assert sub.dim == 2
    v = {0: Fraction(3), 1: Fraction(6), 2: Fraction(-1)}
    assert sub.contains(v)
    assert sub.inclusion(sub.coords(v)) == v
    with pytest.raises(DimensionMismatch):
        sub.coords({3: Fraction(1)})


def test_from_span_handles_dependent_vectors():
    sp = VectorSpace(3)
    sub = Subspace.from_span(sp, [{0: Fraction(1)}, {0: Fraction(2)},
                                  {0: Fraction(1), 1: Fraction(1)}])
    assert sub.dim == 2


def test_dimension_mismatch_errors():
    with pytest.raises(DimensionMismatch):
        LinMap.identity(VectorSpace(2)).compose(LinMap.identity(VectorSpace(3)))
    with pytest.raises(DimensionMismatch):
        LinMap(VectorSpace(2), VectorSpace(2), {(2, 0): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        LinMap(VectorSpace(2), VectorSpace(3), {(0, 2): 1})
    with pytest.raises(DimensionMismatch):
        LinMap(VectorSpace(2), VectorSpace(2), {(-1, 0): 1})
    with pytest.raises(DimensionMismatch):
        VectorSpace(-1)
    with pytest.raises(DimensionMismatch):
        Subspace.from_span(VectorSpace(2), [{0: 1}, {2: 1}])


def test_public_constructors_drop_zero_entries():
    assert LinMap(VectorSpace(2), VectorSpace(2),
                  {(0, 0): 0, (1, 0): Fraction(0), (1, 1): 3}).entries == {
                      (1, 1): 3}
    sub = Subspace.from_span(VectorSpace(3), [{0: 1, 1: 0, 2: Fraction(0)}])
    assert sub.inclusion.entries == {(0, 0): 1}


def test_vector_helpers():
    pairs = {(1, 2): Fraction(5)}
    assert flatten(pairs, (2, 3)) == {5: Fraction(5)}
    assert unflatten({5: Fraction(5)}, (2, 3)) == pairs


def test_map_eq_and_cyclotomic_entries():
    w = omega(3)
    sp = VectorSpace(2)
    f = LinMap(sp, sp, {(0, 1): w})
    g = LinMap(sp, sp, {(0, 1): w * 1})
    assert f == g
    assert rref_rank(f) == 1
    inv_entry = solve(f, {0: Fraction(1)})
    assert inv_entry is not None
    assert f(inv_entry) == {0: Fraction(1)}


def test_labels_and_tensor_labels():
    # basis labels live on the algebra; a space is its dimension alone
    H, _ = sweedler()
    assert H.labels == ("1", "g", "h", "gh") and H.space.dim == 4
    assert not hasattr(VectorSpace(2), "labels")


def test_split_idempotent_and_image_leave_the_column_table_intact():
    sp = VectorSpace(3)
    P = LinMap(sp, sp, {(0, 0): 1, (0, 1): Fraction(1, 2), (2, 2): 1})
    cols = P.columns()
    before = {c: dict(col) for c, col in cols.items()}
    split_idempotent(P)
    image(P)
    assert P.columns() is cols
    assert cols == before


def test_from_function_checks_and_orders_its_columns():
    sp2, sp3 = VectorSpace(2), VectorSpace(3)
    images = [{1: 0, 0: 1}, {0: 0, 5: 0}, {1: 2, 0: Fraction(1, 2)}]
    f = LinMap.from_function(sp3, sp2, images.__getitem__)
    # zeros dropped, out of range or not; columns ascending, rows in fn order
    assert [(c, list(col.items())) for c, col in f.cols.items()] == [
        (0, [(0, 1)]), (2, [(1, 2), (0, Fraction(1, 2))])]
    assert all(col is not images[c] for c, col in f.cols.items())
    assert f == LinMap(sp3, sp2, {(r, c): v for c, im in enumerate(images)
                                  for r, v in im.items()})
    with pytest.raises(DimensionMismatch,
                       match=r"^entry \(2,1\) out of bounds 2x3$"):
        LinMap.from_function(sp3, sp2, lambda c: {c + 1: 1})


def rand_value(rng):
    """A nonzero int, Fraction or Cyclo."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-2, -1, 1, 3])
    v = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5]))
    return v if kind == 1 else v * omega(5) + rng.randint(-1, 1)


@pytest.mark.parametrize("one", [1, Fraction(1)], ids=["int", "fraction"])
def test_contains_by_kept_indices_agrees_with_the_roundtrip(one):
    """On a coordinate split, contains reads the kept indices; on seeded
    vectors with keys inside and outside them it answers as
    inclusion(projection(v)) == v, which the other splits still test."""
    rng = random.Random(2113)
    answers = set()
    for n in (1, 4, 9, 16):
        sp = VectorSpace(n)
        kept = rng.sample(range(n), rng.randint(0, n))
        sub = split_idempotent(LinMap(sp, sp, {(c, c): one for c in kept}))
        assert sub.kept == frozenset(kept)
        for _ in range(40):
            pool = kept if kept and rng.random() < 0.5 else range(n)
            keys = rng.sample(pool, rng.randint(0, len(pool)))
            vec = {k: rand_value(rng) for k in keys}
            roundtrip = sub.inclusion(sub.projection(vec)) == vec
            assert sub.contains(vec) is roundtrip
            answers.add(roundtrip)
    assert answers == {True, False}
    sp = VectorSpace(3)
    P = LinMap(sp, sp, {(0, 0): 1, (0, 1): Fraction(1, 2), (2, 2): 1})
    assert split_idempotent(P).kept is None
    assert _image_split(P).kept is None
    assert Subspace.from_span(sp, [{0: 1}, {2: 1}]).kept is None


def unit_upper(rng, n):
    """A seeded unit upper-triangular change of basis and its inverse."""
    sp = VectorSpace(n)
    U = LinMap(sp, sp, {**{(i, i): 1 for i in range(n)}, **{
        (i, j): rng.choice([-1, 1, 2]) for j in range(n) for i in range(j)
        if rng.random() < 0.5}})
    return U, LinMap.from_function(sp, sp, lambda c: solve(U, {c: 1}))


@pytest.mark.parametrize("dims, leg", [
    ((6,), 0), ((6,), 1), ((2, 3), slice(1, 3)), ((3, 3), slice(1, 3))],
    ids=["leg0", "middle", "slice2x3", "slice3x3"])
def test_locate_agrees_with_the_roundtrip(dims, leg):
    """locate on 0/1-diagonal projectors, which split by coordinates, and
    on the same projectors conjugated by a unit upper-triangular basis
    change, which split by elimination: coords is the projection table
    applied on leg, and inside is the flat roundtrip inclusion(projection)
    of every slot of t, whether locate counted terms or re-embedded.  Half
    the tensors lie in the subspace, half have one escaping term."""
    rng = random.Random(2501)
    n = math.prod(dims)
    sp = VectorSpace(n)
    start = leg if type(leg) is int else leg.start
    answers, splits = set(), set()
    for _ in range(12):
        kept = rng.sample(range(n), rng.randint(1, n - 1))
        P = LinMap(sp, sp, {(c, c): 1 for c in kept})
        U, U_inv = unit_upper(rng, n)
        for Q in (P, U.compose(P).compose(U_inv)):
            sub = split_idempotent(Q)
            splits.add(sub.kept is None)
            outside = [k for k in range(n) if not sub.contains({k: 1})]
            for escape in (False, True):
                # slots (head, tail) around the ambient legs, each holding
                # a flat vector of the subspace, one of them pushed off it
                slots = {}
                for _ in range(rng.randint(1, 3)):
                    slot = (tuple(rng.randrange(2) for _ in range(start)),
                            (rng.randrange(3),))
                    cols = rng.sample(range(sub.dim), rng.randint(1, sub.dim))
                    slots[slot] = sub.inclusion(
                        {j: rand_value(rng) for j in cols})
                if escape:
                    vec = slots[rng.choice(sorted(slots))]
                    k = rng.choice(outside)
                    vec[k] = vec.get(k, 0) + rand_value(rng)
                t = {head + key + tail: c
                     for (head, tail), vec in slots.items()
                     for key, c in unflatten(
                         {k: c for k, c in vec.items() if c != 0},
                         dims).items()}
                roundtrip = all(
                    sub.inclusion(sub.projection(vec)) == vec
                    for vec in ({k: c for k, c in v.items() if c != 0}
                                for v in slots.values()))
                coords, inside = sub.locate(t, leg, dims)
                assert coords == on_leg(t, leg, sub.tables(dims)[0])
                assert inside is roundtrip is not escape
                if len(dims) == 1:
                    assert sub.tables(dims) == (sub.projection.columns(),
                                                sub.inclusion.columns())
                answers.add(inside)
    assert answers == {True, False} and splits == {True, False}
