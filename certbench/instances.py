"""Seeded benchmark instances, built from whakit's public constructors only.

Every instance is first written down as plain structure-constant tables
(a ``Tables`` value), then relabelled by a seeded basis permutation, and
only then handed to ``WeakHopfAlgebra`` and ``RMatrix``.  The tables are
kept so that a pass can rebuild fresh, uncertified objects from them:
certification caches derived data on the algebra, so timing a second
pass on the same object would measure a warm cache.

Three families:

* ``hopf_zn``: the rational group algebra of Z_n with R = 1 (x) 1.
* ``anyonic_cyclo``: Z_n over Q(w_n) with the non-triangular
  R = (1/n) sum w^{ab} g^a (x) g^b and R_bar = (1/n) sum w^{-ab} g^a (x) g^b.
* ``weak_groupoid``: the pair groupoid on k objects times Z_G, with
  Delta(g) = g (x) g, S(g) = g^-1 and R = R_bar = Delta(1), after
  Nikshych-Vainerman, "Finite quantum groupoids and their applications"
  (2002).  Here Delta(1) != 1 (x) 1, so truncation is real.

Mutants perturb one entry of one table so that an axiom provably fails;
see ``mutate``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

from whakit.quasitriangular import RMatrix
from whakit.scalars import Field
from whakit.weak_hopf import WeakHopfAlgebra

ONE = Fraction(1)

# Sizes per family.  Each pass of a workload runs every size once.
SIZES = {
    "hopf_zn": (8, 12),
    "anyonic_cyclo": (3, 4),
    "weak_groupoid": ((2, 2), (3, 2), (2, 4)),
}

MUTANT_KINDS = ("mult", "comult", "r")


@dataclass(frozen=True)
class Tables:
    """Structure constants of one instance, in WeakHopfAlgebra's format.

    ``carrier_dim`` is the dimension the transmuted carrier must have.
    """

    name: str
    order: int | None
    labels: tuple
    mult: dict
    unit: dict
    comult: dict
    counit: dict
    antipode: dict
    r: dict
    r_bar: dict
    carrier_dim: int

    def build(self):
        """Fresh, uncertified (WeakHopfAlgebra, RMatrix) from the tables."""
        H = WeakHopfAlgebra(
            name=self.name,
            field=Field(self.order),
            labels=self.labels,
            mult=self.mult,
            unit=self.unit,
            comult=self.comult,
            counit=self.counit,
            antipode=self.antipode,
            antipode_inverse=self.antipode,
        )
        return H, RMatrix(H, self.r, self.r_bar)


def _cyclic_tables(n):
    mult = {(i, j, (i + j) % n): ONE for i in range(n) for j in range(n)}
    comult = {(i, i, i): ONE for i in range(n)}
    counit = {i: ONE for i in range(n)}
    antipode = {(i, (-i) % n): ONE for i in range(n)}
    labels = tuple(f"g^{i}" for i in range(n))
    return labels, mult, {0: ONE}, comult, counit, antipode


def hopf_zn(n):
    labels, mult, unit, comult, counit, antipode = _cyclic_tables(n)
    r = {(0, 0): ONE}
    return Tables(f"Z{n}", None, labels, mult, unit, comult,
                  counit, antipode, r, dict(r), n)


def anyonic_cyclo(n):
    labels, mult, unit, comult, counit, antipode = _cyclic_tables(n)
    w = Field(n).omega()
    powers = [ONE]
    for _ in range(n - 1):
        powers.append(powers[-1] * w)
    scale = Fraction(1, n)
    r = {(a, b): scale * powers[(a * b) % n]
         for a in range(n) for b in range(n)}
    r_bar = {(a, b): scale * powers[(-a * b) % n]
             for a in range(n) for b in range(n)}
    return Tables(f"Z{n}_anyonic", n, labels, mult, unit,
                  comult, counit, antipode, r, r_bar, n)


def weak_groupoid(size):
    """Pair groupoid on k objects times Z_G; basis (x, y, g) is the arrow
    y -> x carrying g, and (x, y, g)(y, z, h) = (x, z, g + h)."""
    k, G = size
    index = {}
    for x in range(k):
        for y in range(k):
            for g in range(G):
                index[(x, y, g)] = len(index)
    mult = {}
    for (x, y, g), i in index.items():
        for z in range(k):
            for h in range(G):
                j = index[(y, z, h)]
                mult[(i, j, index[(x, z, (g + h) % G)])] = ONE
    comult = {(i, i, i): ONE for i in index.values()}
    counit = {i: ONE for i in index.values()}
    antipode = {(i, index[(y, x, (-g) % G)]): ONE
                for (x, y, g), i in index.items()}
    units = [index[(x, x, 0)] for x in range(k)]
    unit = {i: ONE for i in units}
    r = {(i, i): ONE for i in units}
    labels = tuple(f"{x}<-{y}:g^{g}" for (x, y, g) in index)
    return Tables(f"groupoid{k}xZ{G}", None, labels, mult,
                  unit, comult, counit, antipode, r, dict(r), len(index) // k)


FAMILIES = {
    "hopf_zn": hopf_zn,
    "anyonic_cyclo": anyonic_cyclo,
    "weak_groupoid": weak_groupoid,
}


def relabel(t: Tables, perm) -> Tables:
    """Move basis index i to perm[i] in every table."""
    def keys(table):
        return {tuple(perm[i] for i in key): c for key, c in table.items()}

    labels = [None] * len(t.labels)
    for i, lab in enumerate(t.labels):
        labels[perm[i]] = lab
    return replace(
        t,
        labels=tuple(labels),
        mult=keys(t.mult),
        unit={perm[i]: c for i, c in t.unit.items()},
        comult=keys(t.comult),
        counit={perm[i]: c for i, c in t.counit.items()},
        antipode=keys(t.antipode),
        r=keys(t.r),
        r_bar=keys(t.r_bar),
    )


def workload_tables(family: str, rng: random.Random):
    """One relabelled instance per size of the family."""
    out = []
    for size in SIZES[family]:
        t = FAMILIES[family](size)
        perm = list(range(len(t.labels)))
        rng.shuffle(perm)
        out.append(relabel(t, perm))
    return out


def mutate(t: Tables, kind: str, rng: random.Random) -> Tables:
    """Double one nonzero entry of the mult, comult or R table.

    Every basis element of the three families is group-like under the
    counit 1 (Delta(e) = e (x) e, eps(e) = 1), which makes each mutant
    provably invalid:

    * mult, e_i e_j = 2 e_k: Delta(e_i e_j) = 2 e_k (x) e_k while
      Delta(e_i) Delta(e_j) = 4 e_k (x) e_k, so Delta is not multiplicative.
    * comult, Delta(e_i) = 2 e_i (x) e_i: (eps (x) id) Delta(e_i) = 2 e_i,
      so the counit axiom fails.
    * r, R' = R + c e_p (x) e_q for an entry c of R: R' R_bar differs from
      R R_bar = Delta^op(1) by c (e_p (x) e_q) R_bar, which is nonzero
      because R_bar is invertible (Hopf families) or because
      e_p = e_q is an identity arrow fixed by R_bar = Delta(1) (groupoid).
    """
    if kind not in MUTANT_KINDS:
        raise ValueError(f"unknown mutant kind {kind!r}")
    table = dict(getattr(t, kind))
    key = rng.choice(sorted(table))
    table[key] = 2 * table[key]
    return replace(t, name=f"{t.name}~{kind}{key}", **{kind: table})
