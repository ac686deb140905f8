"""The contraction primitives against brute-force references.

The references loop over full index ranges with no sparsity, so they
share no logic with linalg.act and linalg.on_leg.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from whakit.linalg import (LinMap, VectorSpace, act, flatten, on_leg, permute,
                           unflatten)
from whakit.scalars import omega

D = 3  # every leg of the random tensors has this dimension


def scalar(rng, order):
    v = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    if order is not None and rng.random() < 0.5:
        v = v * omega(order) + rng.randint(-2, 2)
    return v


def sparse(rng, keys, density, order):
    out = {}
    for key in keys:
        if rng.random() < density:
            v = scalar(rng, order)
            if v != 0:
                out[key] = v
    return out


def table(rng, order):
    """A random bilinear table {(p, a): {r: c}} on D-dimensional legs."""
    out = {}
    for p, a in product(range(D), repeat=2):
        row = sparse(rng, range(D), 0.4, order)
        if row:
            out[(p, a)] = row
    return out


def act_reference(tables, x, y):
    live = [k for k, t in enumerate(tables) if t is not None]
    out = {}
    for r in product(range(D), repeat=len(tables)):
        total = 0
        for a in product(range(D), repeat=len(tables)):
            for p in product(range(D), repeat=len(live)):
                c = x.get(p, 0) * y.get(a, 0)
                if c == 0:
                    continue
                for k, t in enumerate(tables):
                    if t is None:
                        c = c * (1 if r[k] == a[k] else 0)
                    else:
                        c = c * t.get((p[live.index(k)], a[k]), {}).get(r[k], 0)
                total = total + c
        if total != 0:
            out[r] = total
    return out


def on_leg_reference(t, leg, op, legs):
    out = {}
    for key in product(range(D), repeat=legs):
        c = t.get(key, 0)
        if c == 0:
            continue
        for i, row in op.items():
            if i != key[leg]:
                continue
            for j, v in row.items():
                new = key[:leg] + (j if isinstance(j, tuple) else (j,)) + key[leg + 1:]
                out[new] = out.get(new, 0) + c * v
    return {k: v for k, v in out.items() if v != 0}


LEG_PATTERNS = [(True,), (True, True), (True, None), (None, True),
                (True, True, True), (True, None, True), (None, True, None)]


@pytest.mark.parametrize("order", [None, 5])
@pytest.mark.parametrize("pattern", LEG_PATTERNS)
def test_act_matches_reference(pattern, order):
    rng = random.Random(f"{pattern} {order}")
    for _ in range(4):
        tables = [table(rng, order) if live else None for live in pattern]
        n_live = sum(1 for live in pattern if live)
        x = sparse(rng, product(range(D), repeat=n_live), 0.3, order)
        y = sparse(rng, product(range(D), repeat=len(pattern)), 0.3, order)
        assert act(tables, x, y) == act_reference(tables, x, y)


@pytest.mark.parametrize("order", [None, 5])
@pytest.mark.parametrize("legs", [1, 2, 3])
def test_on_leg_matches_reference(legs, order):
    rng = random.Random(10 * legs + (order or 0))
    t = sparse(rng, product(range(D), repeat=legs), 0.4, order)
    replace = {i: sparse(rng, range(D), 0.5, order) for i in range(D)}
    splice = {i: sparse(rng, product(range(D), repeat=2), 0.3, order)
              for i in range(D)}
    drop = {i: {(): scalar(rng, order)} for i in range(D) if rng.random() < 0.7}
    for leg in range(legs):
        for op in (replace, splice, drop):
            assert on_leg(t, leg, op) == on_leg_reference(t, leg, op, legs)


@pytest.mark.parametrize("order", [None, 5])
def test_on_leg_slice_multiplies_adjacent_legs(order):
    rng = random.Random(3)
    mult = table(rng, order)
    t = sparse(rng, product(range(D), repeat=3), 0.4, order)
    expected = {}
    for (a, b, c), v in t.items():
        for k, w in mult.get((a, b), {}).items():
            expected[(k, c)] = expected.get((k, c), 0) + v * w
    expected = {k: v for k, v in expected.items() if v != 0}
    assert on_leg(t, slice(0, 2), mult) == expected


def test_act_with_product_table_is_the_tensor_product():
    # one leg, the multiplication of Z_3: act is the group-algebra product
    mult = {(i, j): {(i + j) % 3: Fraction(1)} for i in range(3)
            for j in range(3)}
    x = {(1,): Fraction(2), (2,): Fraction(-1)}
    y = {(2,): Fraction(3)}
    assert act([mult], x, y) == {(0,): Fraction(6), (1,): Fraction(-3)}


def test_flatten_roundtrip_and_permute():
    rng = random.Random(5)
    dims = (2, 3, 4)
    t = sparse(rng, product(*(range(d) for d in dims)), 0.5, None)
    flat = flatten(t, dims)
    assert set(flat) <= set(range(24))
    assert unflatten(flat, dims) == t
    assert flatten({(1, 2, 3): 1}, dims) == {(1 * 3 + 2) * 4 + 3: 1}
    moved = permute(t, (2, 0, 1))
    assert permute(moved, (1, 2, 0)) == t


def unit_table(rng, order):
    """A 0/1 bilinear table on D-dimensional legs, the shape of a group
    algebra's product or action: row (p, a) holds the int 1 at a
    permutation of a chosen by p, and a few rows hold one more entry."""
    out = {}
    for p in range(D):
        perm = rng.sample(range(D), D)
        for a in range(D):
            row = {perm[a]: 1}
            if rng.random() < 0.2:
                v = scalar(rng, order)
                if v != 0:
                    row[(perm[a] + 1) % D] = v
            out[(p, a)] = row
    return out


def forced(op):
    """op, a table of rows or of scalars, with each int 1 entry replaced by
    Fraction(1), an equal value that is not the int 1, so that every
    product by it is taken."""
    def one(v):
        return Fraction(1) if type(v) is int and v == 1 else v
    return {k: ({j: one(v) for j, v in row.items()} if isinstance(row, dict)
                else one(row)) for k, row in op.items()}


def nonint(rng, keys, density, order):
    """sparse() with every value a Fraction or a Cyclo, never an int, so
    that a product by Fraction(1) keeps its type."""
    return {k: Fraction(v) if type(v) is int else v
            for k, v in sparse(rng, keys, density, order).items()}


def same_types(out, expected):
    """Equal values and equal scalar types key by key."""
    assert out == expected
    assert [type(v) for v in out.values()] == [
        type(expected[k]) for k in out]


def same(out, expected):
    """Equal values, scalar types and key order."""
    same_types(out, expected)
    assert list(out) == list(expected)


@pytest.mark.parametrize("order", [None, 5])
@pytest.mark.parametrize("pattern", LEG_PATTERNS)
def test_act_skips_unit_entries_exactly(pattern, order):
    rng = random.Random(f"unit {pattern} {order}")
    for _ in range(4):
        tables = [unit_table(rng, order) if live else None
                  for live in pattern]
        n_live = sum(1 for live in pattern if live)
        x = nonint(rng, product(range(D), repeat=n_live), 0.3, order)
        y = nonint(rng, product(range(D), repeat=len(pattern)), 0.5, order)
        out = act(tables, x, y)
        assert out == act_reference(tables, x, y)
        same(out, act([t and forced(t) for t in tables], x, y))
        # int terms times a 1 that is not the int 1 become Fractions
        x, y = ({k: rng.randint(1, 3) for k in t} for t in (x, y))
        tables = [t and forced(t) for t in tables]
        same_types(act(tables, x, y), act_reference(tables, x, y))


@pytest.mark.parametrize("order", [None, 5])
@pytest.mark.parametrize("legs", [1, 2, 3])
def test_on_leg_skips_unit_entries_exactly(legs, order):
    rng = random.Random(f"unit {legs} {order}")
    t = nonint(rng, product(range(D), repeat=legs), 0.5, order)
    perm = rng.sample(range(D), D)
    replace = {i: {perm[i]: 1} for i in range(D)}
    replace[0][perm[1]] = scalar(rng, order) or 2
    splice = {i: {(perm[i], i): 1, (i, perm[i]): 1} for i in range(D)}
    drop = {i: {(): 1} for i in range(D) if i != 1}
    for leg in range(legs):
        for op in (replace, splice, drop):
            out = on_leg(t, leg, op)
            assert out == on_leg_reference(t, leg, op, legs)
            same(out, on_leg(t, leg, forced(op)))
            # int terms times a 1 that is not the int 1 become Fractions
            ints = {k: rng.randint(1, 3) for k in t}
            same_types(on_leg(ints, leg, forced(op)),
                       on_leg_reference(ints, leg, forced(op), legs))
    if legs > 1:
        mult = unit_table(rng, order)
        same(on_leg(t, slice(0, 2), mult), on_leg(t, slice(0, 2), forced(mult)))


def compose_reference(f, g):
    n, m, k = f.codomain.dim, f.domain.dim, g.domain.dim
    out = {}
    for r, c in product(range(n), range(k)):
        total = 0
        for i in range(m):
            a, b = f.entries.get((r, i), 0), g.entries.get((i, c), 0)
            if a != 0 and b != 0:
                total = total + a * b
        if total != 0:
            out[(r, c)] = total
    return out


@pytest.mark.parametrize("order", [None, 5])
def test_compose_skips_unit_entries_exactly(order):
    rng = random.Random(f"compose {order}")
    space = VectorSpace(4)
    for _ in range(6):
        perm = rng.sample(range(4), 4)
        unit = LinMap(space, space, {(perm[i], i): 1 for i in range(4)})
        dense = LinMap(space, space,
                       nonint(rng, product(range(4), repeat=2), 0.5, order))
        unit_forced = LinMap(space, space, forced(unit.entries))
        for f, g, f_forced, g_forced in ((unit, dense, unit_forced, dense),
                                         (dense, unit, dense, unit_forced)):
            out = f.compose(g).entries
            assert out == compose_reference(f, g)
            same(out, f_forced.compose(g_forced).entries)
        # a product of two int 1 entries stays the int 1
        assert all(type(v) is int and v == 1
                   for v in unit.compose(unit).entries.values())
