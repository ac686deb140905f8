"""Elimination against an independent oracle.

Over Q, rank, kernel dimension and the solvability of solve are compared
with sympy's exact Matrix.rank, nullspace and gauss_jordan_solve on
seeded random sparse maps: wide, tall, rank-deficient, and with all-zero
rows.  Over Q(w_5), where sympy is no oracle, the reduced rows are
checked for the defining invariants of a reduced row echelon form, and
split_idempotent for its two factorisation identities, on idempotent
and on arbitrary square maps.
"""

import random
from fractions import Fraction

import pytest
import sympy

from whakit import linalg
from whakit.linalg import (LinMap, NotIdempotent, Subspace, VectorSpace,
                           _image_split, _rref, kernel, rank, solve,
                           split_idempotent)
from whakit.scalars import invert, omega

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


def oblique_idempotent(rng, n, cyclotomic):
    """incl Q, incl the inclusion of a random span and Q = proj + K (I -
    incl proj) a random left inverse of it: an idempotent whose kernel is
    not spanned by coordinate vectors."""
    space = VectorSpace(n)
    sub = Subspace.from_span(space, rand_rows(rng, rng.randint(1, n), n,
                                              cyclotomic))
    K = as_map(rand_rows(rng, sub.dim, n, cyclotomic), n)
    complement = LinMap.identity(space) - sub.inclusion.compose(sub.projection)
    return sub.inclusion.compose(sub.projection + K.compose(complement))


@pytest.mark.parametrize("seed", range(40))
def test_image_split_identities_on_square_maps(seed):
    """inclusion compose projection = P for every square P, and projection
    compose inclusion = identity exactly when P is idempotent, which is
    when split_idempotent succeeds."""
    rng = random.Random(4000 + seed)
    n = rng.randint(1, 9)
    cyclotomic = seed % 2 == 1
    E = oblique_idempotent(rng, n, cyclotomic)
    assert E.compose(E) == E
    for P in (E, as_map(rand_rows(rng, n, n, cyclotomic), n)):
        split = _image_split(P)
        assert split.inclusion.compose(split.projection) == P
        idempotent = P.compose(P) == P
        assert split.projection.compose(split.inclusion).is_identity() == (
            idempotent)
        if idempotent:
            assert split_idempotent(P).dim == rank(P)
        else:
            with pytest.raises(NotIdempotent):
                split_idempotent(P)


def unit_rows(rng, nrows, ncols, cyclotomic):
    """Sparse rows whose entries are mostly the int 1, as in the truncation
    projectors of group algebras, the rest rand_scalar values."""
    return [{c: v for c in range(ncols) if rng.random() < 0.4
             for v in [1 if rng.random() < 0.7 else rand_scalar(rng, cyclotomic)]
             if v != 0} for _ in range(nrows)]


def test_int_one_pivots_reduce_as_when_inverted(monkeypatch):
    """_rref leaves a pivot of int 1 uninverted; forcing every inversion
    gives the same reduced rows, key order, scalar types and pivots."""
    inverted = []

    def counting_invert(v):
        inverted.append(v)
        return invert(v)
    monkeypatch.setattr(linalg, "invert", counting_invert)
    runs = []
    for seed in range(30):
        rng = random.Random(5000 + seed)
        nrows, ncols = SHAPES[seed % len(SHAPES)]
        runs.append(unit_rows(rng, nrows, ncols, cyclotomic=seed % 2 == 1))
    skipping = [_rref(rows) for rows in runs]
    n_skipping = len(inverted)
    # no scalar is the unit object any more, so every pivot is inverted
    monkeypatch.setattr(linalg, "_ONE", object())
    forced = [_rref(rows) for rows in runs]
    assert len(inverted) - n_skipping == sum(len(p) for _, p, _ in forced)
    assert n_skipping < len(inverted) - n_skipping

    def layout(rows):
        return [[(c, v, type(v)) for c, v in r.items()] for r in rows]
    for (red, piv, left), (red_f, piv_f, left_f) in zip(skipping, forced):
        assert layout(red) == layout(red_f)
        assert piv == piv_f
        assert layout(left) == layout(left_f)
