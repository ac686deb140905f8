"""The contraction primitives against brute-force references.

The references loop over full index ranges with no sparsity, so they
share no logic with linalg.act and linalg.on_leg.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from whakit.linalg import act, flatten, on_leg, permute, unflatten
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
