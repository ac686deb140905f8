import random
from fractions import Fraction

import pytest

from whakit.linalg import (
    DimensionMismatch,
    LinMap,
    NotIdempotent,
    Subspace,
    VectorSpace,
    flatten,
    image,
    kernel,
    rank,
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


def test_compose_with_identity():
    rng = random.Random(1)
    f = rand_map(rng, 4, 5)
    assert f.compose(LinMap.identity(VectorSpace(4))) == f
    assert LinMap.identity(VectorSpace(5)).compose(f) == f


def test_kernel_of_zero_map():
    z = LinMap(VectorSpace(3), VectorSpace(2), {})
    assert kernel(z).dim == 3


def test_rank_of_identity():
    assert rank(LinMap.identity(VectorSpace(7))) == 7


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
        ker = kernel(f)
        assert rank(f) + ker.dim == nd
        for j in range(ker.dim):
            v = ker.inclusion({j: Fraction(1)})
            assert f(v) == {}
        assert image(f).dim == rank(f)


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
    assert rank(f) == 1
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
