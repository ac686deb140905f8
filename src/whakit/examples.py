"""Built-in sample algebras used across the test suite.

sweedler() builds the four dimensional Hopf algebra generated by a
grouplike g and a skew-primitive h with g*g = 1, h*h = 0, h*g = -g*h,
carrying its standard triangular R-matrix.  group_algebra_zn(n) builds
the group algebra of the cyclic group of order n with the identity
R-matrix.  Both are ordinary Hopf algebras: the coproduct of 1 is
1 tensor 1, so every truncation in the weak theory collapses.

group_algebra_zn_anyonic(n) is the same group algebra over Q(w), w a
primitive n-th root of unity, with a non-triangular R-matrix.
groupoid_algebra(k, G) is a genuinely weak Hopf algebra, the algebra of
the pair groupoid on k objects times Z_G, after Nikshych and Vainerman,
"Finite quantum groupoids and their applications" (2002): there the
coproduct of 1 is not 1 tensor 1, and truncation is real.  All three
take their tables from one builder, _pair_groupoid: the pair groupoid on
one object times Z_n is Z_n, with R = Delta(1) = 1 tensor 1.

Constructors return unverified values; callers certify.
"""

from __future__ import annotations

from fractions import Fraction

from .quasitriangular import RMatrix
from .scalars import Field
from .weak_hopf import WeakHopfAlgebra


def sweedler():
    """The Sweedler algebra over the rationals with its triangular R-matrix.

    Basis order: 1, g, h, gh.  Returns an uncertified (algebra, rmatrix)
    pair.
    """
    one = Fraction(1)
    half = Fraction(1, 2)
    table = [
        [{0: one}, {1: one}, {2: one}, {3: one}],
        [{1: one}, {0: one}, {3: one}, {2: one}],
        [{2: one}, {3: -one}, {}, {}],
        [{3: one}, {2: -one}, {}, {}],
    ]
    mult = {}
    for i in range(4):
        for j in range(4):
            for k, c in table[i][j].items():
                mult[(i, j, k)] = c
    comult = {
        (0, 0, 0): one,
        (1, 1, 1): one,
        (2, 0, 2): one,
        (2, 2, 1): one,
        (3, 1, 3): one,
        (3, 3, 0): one,
    }
    counit = {0: one, 1: one}
    antipode = {(0, 0): one, (1, 1): one, (2, 3): one, (3, 2): -one}
    antipode_inverse = {(0, 0): one, (1, 1): one, (2, 3): -one, (3, 2): one}
    H = WeakHopfAlgebra(
        name="sweedler",
        field=Field(),
        labels=("1", "g", "h", "gh"),
        mult=mult,
        unit={0: one},
        comult=comult,
        counit=counit,
        antipode=antipode,
        antipode_inverse=antipode_inverse,
    )
    r0 = {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half}
    return H, RMatrix(H, r0, dict(r0))


def _pair_groupoid(k: int, G: int, name: str, field: Field, label):
    """The pair groupoid on k objects times Z_G over field, with R = R_bar
    = Delta(1); label(x, y, g) names the basis element (x, y, g).  With
    k = 1 this is the group algebra of Z_G, basis index g, R = 1 (x) 1."""
    if k < 1 or G < 1:
        raise ValueError("object count and group order must be positive")
    one = Fraction(1)
    index = {}
    for x in range(k):
        for y in range(k):
            for g in range(G):
                index[(x, y, g)] = len(index)
    mult = {}
    for (x, y, g), i in index.items():
        for z in range(k):
            for h in range(G):
                mult[(i, index[(y, z, h)], index[(x, z, (g + h) % G)])] = one
    antipode = {(i, index[(y, x, (-g) % G)]): one
                for (x, y, g), i in index.items()}
    units = [index[(x, x, 0)] for x in range(k)]
    H = WeakHopfAlgebra(
        name=name,
        field=field,
        labels=tuple(label(*key) for key in index),
        mult=mult,
        unit={i: one for i in units},
        comult={(i, i, i): one for i in index.values()},
        counit={i: one for i in index.values()},
        antipode=antipode,
        antipode_inverse=dict(antipode),
    )
    r = {(i, i): one for i in units}
    return H, RMatrix(H, r, dict(r))


def _power(x, y, g):
    """The label of (0, 0, g) on one object: the g-th power of the
    generator."""
    return f"g^{g}"


def group_algebra_zn(n: int):
    """The group algebra of the cyclic group of order n over the rationals.

    Basis index i stands for the i-th power of the generator.  The
    R-matrix is 1 tensor 1, making the structure triangular.  Returns an
    uncertified (algebra, rmatrix) pair.
    """
    return _pair_groupoid(1, n, f"group_algebra_z{n}", Field(), _power)


def group_algebra_zn_anyonic(n: int):
    """The group algebra of Z_n over Q(w) with the anyonic R-matrix.

    R = (1/n) sum w^{ab} g^a (x) g^b and its inverse
    R_bar = (1/n) sum w^{-ab} g^a (x) g^b, with w a primitive n-th root
    of unity.  For n > 2, R_bar is not the flip of R, so the structure is
    not triangular.  Returns an uncertified (algebra, rmatrix) pair.
    """
    field = Field(n)
    H, _ = _pair_groupoid(1, n, f"group_algebra_z{n}_anyonic", field, _power)
    powers = [Fraction(1)]
    for _ in range(n - 1):
        powers.append(powers[-1] * field.omega())
    r = {(a, b): Fraction(1, n) * powers[(a * b) % n]
         for a in range(n) for b in range(n)}
    r_bar = {(a, b): Fraction(1, n) * powers[(-a * b) % n]
             for a in range(n) for b in range(n)}
    return H, RMatrix(H, r, r_bar)


def groupoid_algebra(k: int, G: int):
    """The algebra of the pair groupoid on k objects times Z_G.

    The basis element (x, y, g) is the arrow y -> x carrying g, labelled
    "x<-y:g^g", and (x, y, g)(y, z, h) = (x, z, g + h); other products
    vanish.  The unit is the sum of the identity arrows (x, x, 0); every
    arrow is group-like with counit 1, and S(x, y, g) = (y, x, -g).
    R = R_bar = Delta(1), the sum of the identity arrows tensored with
    themselves.  For k > 1 this is a weak Hopf algebra that is not a Hopf
    algebra.  Returns an uncertified (algebra, rmatrix) pair.
    """
    return _pair_groupoid(k, G, f"groupoid_algebra_{k}x{G}", Field(),
                          lambda x, y, g: f"{x}<-{y}:g^{g}")
