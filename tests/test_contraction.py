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
from whakit.module_cat import project_columns
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


# Order oracles: the kernels in their generic form, every act term taken
# through itertools.product and every sum accumulated by a call in the
# manner of add_term.  Unlike the brute-force references above, they
# produce keys in the kernels' order, so the tests below compare
# list(out.items()) and value types, on which elimination ties and report
# witnesses depend.  Every oracle accumulates through oracle_add, which
# also records each key that cancels to zero and is later accumulated
# again.

REAPPEARED = []
_ONE = 1    # compared by identity, as the kernels skip a product by it


def oracle_add(acc, key, c, dropped):
    """add_term, recording cancellations: dropped holds the keys whose
    sum has been zero; a term at such a key is recorded in REAPPEARED."""
    cur = acc.get(key)
    if cur is None:
        if key in dropped:
            REAPPEARED.append(key)
        if c != 0:
            acc[key] = c
    else:
        cur = cur + c
        if cur == 0:
            del acc[key]
            dropped.add(key)
        else:
            acc[key] = cur


def act_oracle(tables, x, y):
    out, dropped = {}, set()
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
                    oracle_add(out, key, c, dropped)
    return out


def on_leg_oracle(t, leg, op):
    span = leg if type(leg) is slice else slice(leg, leg + 1)
    out, dropped = {}, set()
    for key, c in t.items():
        row = op.get(key[leg])
        if row:
            head, tail = key[:span.start], key[span.stop:]
            for j, v in row.items():
                oracle_add(out, head + (j if type(j) is tuple else (j,)) + tail,
                           c if v is _ONE else c * v, dropped)
    return out


def call_oracle(f, vec):
    bycol = f.columns()
    out, dropped = {}, set()
    for c, x in vec.items():
        col = bycol.get(c)
        if col:
            for r, v in col.items():
                oracle_add(out, r, x if v is _ONE else v * x, dropped)
    return out


def compose_oracle(f, g):
    byrow = {}
    for (r, c), v in g.entries.items():
        byrow.setdefault(r, []).append((c, v))
    out, dropped = {}, set()
    for (r, c), v in f.entries.items():
        for c2, v2 in byrow.get(c, ()):
            oracle_add(out, (r, c2),
                       v if v2 is _ONE else v2 if v is _ONE else v * v2, dropped)
    return out


def project_columns_oracle(f, n, t):
    proj = f.columns()
    out, dropped = {}, set()
    for (a, b, j), v in t.items():
        rows = out.setdefault(j, {})
        for r, p in proj.get(a * n + b, {}).items():
            oracle_add(rows, r, v if p is _ONE else p * v, dropped)
    return out


def mixed_scalar(rng, order):
    """A nonzero scalar, often one: the int 1, Fraction(1), a small int,
    a rational, or (over Q(w_order)) a cyclotomic value."""
    kinds = ["one", "one", "fraction_one", "int", "rational"]
    if order is not None:
        kinds += ["cyclo", "cyclo"]
    kind = rng.choice(kinds)
    if kind == "one":
        return 1
    if kind == "fraction_one":
        return Fraction(1)
    if kind == "int":
        return rng.choice([-2, -1, 2, 3])
    if kind == "rational":
        return Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3]))
    return rng.choice([1, -1, Fraction(1, 2)]) * omega(order) ** rng.randint(
        1, order - 1) + rng.randint(-1, 1)


def mixed_row(rng, order, keys):
    """A table row: mostly a single entry, sometimes several, rarely
    empty; the values mixed as mixed_scalar makes them."""
    size = min(rng.choice([1, 1, 1, 1, 2, 3, 0]), len(keys))
    return {k: mixed_scalar(rng, order) for k in rng.sample(keys, size)}


def mixed_table(rng, order, domain, keys):
    """{i: row} over domain, some rows missing."""
    return {i: mixed_row(rng, order, keys) for i in domain
            if rng.random() < 0.85}


def mixed_tensor(rng, order, keys, density):
    """A sparse tensor in shuffled key order, values from a small set so
    that contributions at one key cancel often."""
    keys = [k for k in keys if rng.random() < density]
    rng.shuffle(keys)
    return {k: mixed_scalar(rng, order) for k in keys}


ORACLE_PATTERNS = LEG_PATTERNS + [(None, True, True, None),
                                  (True, None, None, True),
                                  (True, True, None, True, None)]


@pytest.mark.parametrize("order", [None, 5])
def test_act_keeps_the_order_and_types_of_the_product_loop(order):
    rng = random.Random(f"act order {order}")
    REAPPEARED.clear()
    for pattern in ORACLE_PATTERNS:
        for _ in range(6):
            tables = [mixed_table(rng, order, product(range(D), repeat=2),
                                  range(D)) if live else None
                      for live in pattern]
            n_live = sum(1 for live in pattern if live)
            x = mixed_tensor(rng, order, product(range(D), repeat=n_live), 0.5)
            y = mixed_tensor(rng, order,
                             product(range(D), repeat=len(pattern)), 0.5)
            same(act(tables, x, y), act_oracle(tables, x, y))
    assert REAPPEARED


@pytest.mark.parametrize("order", [None, 5])
def test_on_leg_keeps_the_order_and_types_of_add_term(order):
    rng = random.Random(f"on_leg order {order}")
    REAPPEARED.clear()
    for legs in (1, 2, 3) * 6:
        t = mixed_tensor(rng, order, product(range(D), repeat=legs), 0.6)
        ops = [mixed_table(rng, order, range(D), range(D)),
               mixed_table(rng, order, range(D),
                           list(product(range(D), repeat=2))),
               mixed_table(rng, order, range(D), [()])]
        for leg in range(legs):
            for op in ops:
                same(on_leg(t, leg, op), on_leg_oracle(t, leg, op))
        if legs > 1:
            mult = mixed_table(rng, order, product(range(D), repeat=2),
                               range(D))
            for span in (slice(0, 2), slice(legs - 2, legs)):
                same(on_leg(t, span, mult), on_leg_oracle(t, span, mult))
    assert REAPPEARED


def mixed_map(rng, order, n, m):
    """A LinMap n -> m whose columns are mixed rows."""
    entries = {}
    for c in range(n):
        for r, v in mixed_row(rng, order, range(m)).items():
            entries[(r, c)] = v
    return LinMap(VectorSpace(n), VectorSpace(m), entries)


@pytest.mark.parametrize("order", [None, 5])
def test_maps_keep_the_order_and_types_of_add_term(order):
    rng = random.Random(f"maps order {order}")
    REAPPEARED.clear()
    for _ in range(30):
        f, g = mixed_map(rng, order, 5, 4), mixed_map(rng, order, 4, 5)
        vec = mixed_tensor(rng, order, range(5), 0.7)
        same(f(vec), call_oracle(f, vec))
        same(f.compose(g).entries, compose_oracle(f, g))
        same(g.compose(f).entries, compose_oracle(g, f))
        # a projection read on pairs (a, b) in {0, 1} x {0, 1}, with the
        # column leg of t in shuffled order, so columns recur
        t = mixed_tensor(rng, order, product(range(2), range(2), range(3)),
                         0.7)
        out = project_columns(f, 2, t)
        expected = project_columns_oracle(f, 2, t)
        assert list(out) == list(expected)
        for j, rows in out.items():
            same(rows, expected[j])
    assert REAPPEARED
