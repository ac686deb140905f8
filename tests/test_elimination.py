"""Elimination against an independent oracle.

Over Q, rank, kernel dimension and the solvability of solve are compared
with sympy's exact Matrix.rank, nullspace and gauss_jordan_solve on
seeded random sparse maps: wide, tall, rank-deficient, and with all-zero
rows.  Over Q(w_5), where sympy is no oracle, the reduced rows are
checked for the defining invariants of a reduced row echelon form, and
split_idempotent for its two factorisation identities.
"""

import random
from fractions import Fraction

import pytest
import sympy

from whakit.linalg import (LinMap, Subspace, VectorSpace, _rref, kernel, rank,
                           solve, split_idempotent)
from whakit.scalars import omega

SHAPES = [(3, 9), (9, 3), (7, 7), (1, 6), (6, 1), (12, 12)]


def rand_scalar(rng, cyclotomic):
    v = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    if cyclotomic and rng.random() < 0.5:
        v = v * omega(5) ** rng.randint(1, 4) + rng.randint(-2, 2)
    return v


def rand_rows(rng, nrows, ncols, cyclotomic=False):
    """Sparse rows; some copy a multiple or a sum of earlier rows, so the
    rank falls short, and some are all zero."""
    rows = []
    density = rng.choice([0.15, 0.35, 0.6])
    for _ in range(nrows):
        roll = rng.random()
        if rows and roll < 0.25:
            k = rand_scalar(rng, cyclotomic)
            row = {}
            for c, v in rng.choice(rows).items():
                if k * v != 0:
                    row[c] = k * v
        elif len(rows) > 1 and roll < 0.4:
            a, b = rng.sample(rows, 2)
            row = dict(a)
            for c, v in b.items():
                s = row.get(c, 0) + v
                if s == 0:
                    row.pop(c, None)
                else:
                    row[c] = s
        elif roll < 0.5:
            row = {}
        else:
            row = {c: v for c in range(ncols) if rng.random() < density
                   for v in [rand_scalar(rng, cyclotomic)] if v != 0}
        rows.append(row)
    return rows


def as_map(rows, ncols):
    return LinMap(VectorSpace(ncols), VectorSpace(len(rows)),
                  {(r, c): v for r, row in enumerate(rows)
                   for c, v in row.items()})


def rational(v):
    v = Fraction(v)
    return sympy.Rational(v.numerator, v.denominator)


def as_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        lambda r, c: rational(rows[r].get(c, 0)))


def sympy_solvable(A, b):
    try:
        A.gauss_jordan_solve(b)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("seed", range(40))
def test_rank_kernel_and_solve_match_sympy(seed):
    rng = random.Random(seed)
    nrows, ncols = SHAPES[seed % len(SHAPES)]
    rows = rand_rows(rng, nrows, ncols)
    f = as_map(rows, ncols)
    A = as_sympy(rows, ncols)
    assert rank(f) == A.rank()
    assert kernel(f).dim == len(A.nullspace())
    # one right hand side in the image, one random (often outside it)
    x = {c: rand_scalar(rng, False) for c in range(ncols) if rng.random() < 0.5}
    for y in (f({c: v for c, v in x.items() if v != 0}),
              {r: rand_scalar(rng, False) for r in range(nrows)
               if rng.random() < 0.5}):
        y = {r: v for r, v in y.items() if v != 0}
        b = as_sympy([{0: y.get(r, 0)} for r in range(nrows)], 1)
        sol = solve(f, y)
        assert (sol is not None) == sympy_solvable(A, b)
        if sol is not None:
            assert f(sol) == y


def residual(row, reduced, pivots):
    """row minus its combination of the reduced rows by its own entries in
    their pivot columns: empty exactly when row lies in their span, since
    the reduced rows are in reduced row echelon form."""
    acc = dict(row)
    for red, p in zip(reduced, pivots):
        k = row.get(p, 0)
        if k != 0:
            for c, v in red.items():
                s = acc.get(c, 0) - k * v
                if s == 0:
                    acc.pop(c, None)
                else:
                    acc[c] = s
    return acc


@pytest.mark.parametrize("seed", range(30))
def test_reduced_rows_are_an_echelon_basis_over_q_omega5(seed):
    rng = random.Random(1000 + seed)
    nrows, ncols = SHAPES[seed % len(SHAPES)]
    rows = rand_rows(rng, nrows, ncols, cyclotomic=True)
    reduced, pivots, leftover = _rref(rows)
    assert leftover == []
    assert len(set(pivots)) == len(pivots)
    for i, (red, p) in enumerate(zip(reduced, pivots)):
        assert red[p] == 1
        assert all(v != 0 for v in red.values())
        for j, other in enumerate(reduced):
            if j != i:
                assert p not in other
    for row in rows:
        assert residual(row, reduced, pivots) == {}


@pytest.mark.parametrize("seed", range(30))
def test_forbidden_column_separates_inconsistent_rows(seed):
    rng = random.Random(2000 + seed)
    nrows, ncols = SHAPES[seed % len(SHAPES)]
    rows = rand_rows(rng, nrows, ncols, cyclotomic=seed % 2 == 1)
    for row in rows:
        if rng.random() < 0.6:
            row[ncols] = rand_scalar(rng, seed % 2 == 1) or 1
    reduced, pivots, leftover = _rref(rows, forbid=ncols)
    assert ncols not in pivots
    assert all(set(r) == {ncols} for r in leftover)
    # what the reduced rows leave of an input row is an inconsistency,
    # which leftover must then report
    residuals = [residual(row, reduced, pivots) for row in rows]
    assert all(set(r) <= {ncols} for r in residuals)
    assert any(residuals) == bool(leftover)
    if seed % 2 == 0:
        A = as_sympy([{c: v for c, v in r.items() if c != ncols} for r in rows],
                     ncols)
        b = as_sympy([{0: r.get(ncols, 0)} for r in rows], 1)
        assert (not leftover) == sympy_solvable(A, b)


@pytest.mark.parametrize("seed", range(20))
def test_split_idempotent_factors_random_projections(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(1, 9)
    space = VectorSpace(n)
    span = [r for r in rand_rows(rng, rng.randint(1, n), n,
                                 cyclotomic=seed % 2 == 1) if r]
    sub = Subspace.from_span(space, span)
    P = sub.inclusion.compose(sub.projection)
    split = split_idempotent(P)
    assert split.inclusion.compose(split.projection) == P
    assert split.projection.compose(split.inclusion).is_identity()
