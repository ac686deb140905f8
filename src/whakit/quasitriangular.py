"""R-matrices on weak Hopf algebras and their verification.

An RMatrix packages a candidate universal R-matrix together with its
claimed weak inverse, both as sparse pair-keyed tensors in H tensor H.
check_quasitriangular verifies the defining identities: corner
memberships, the two coproduct expansions, the intertwining law, the
weak-inverse products, and Yang-Baxter as a cross check on the
contraction engine.  Consequences of these axioms that guard nothing
beyond the contraction engine are asserted in the tests, not here.
"""

from __future__ import annotations

from itertools import product

from .linalg import (LinMap, VectorSpace, check_keys, flatten, on_leg,
                     outer, permute, solve, unflatten)
from .weak_hopf import (Certifiable, VerificationReport, certified_by,
                        first_unequal, pair_mult, scalar_table_mismatch)


def flip_pairs(pd: dict) -> dict:
    """Swap the two tensor legs of a pair-keyed tensor."""
    return {(b, a): v for (a, b), v in pd.items()}


class RMatrix(Certifiable):
    """A universal R-matrix candidate with its weak inverse.

    r and r_bar are pair-keyed coefficient dicts on H tensor H.  The
    value starts unverified; certify_quasitriangular flips the flag
    once every check passes.
    """

    _uncertified = "R-matrix on {0.algebra.name!r} has not been certified"

    def __init__(self, algebra, r, r_bar):
        co = algebra.field.coerce
        self.algebra = algebra
        tables = []
        for name, table in (("r", r), ("r_bar", r_bar)):
            check_keys(table, name, (algebra.dim, algebra.dim))
            coerced = {}
            for key, c in table.items():
                c = co(c)
                if c != 0:
                    coerced[key] = c
            tables.append(coerced)
        self.r, self.r_bar = tables

    def __repr__(self):
        return (f"RMatrix(on {self.algebra.name!r}, {len(self.r)} terms, "
                f"{self._flag})")


def r13_r23(H, r):
    """R13 R23 in H tensor H tensor H: (Delta tensor id)(R) when R is
    quasitriangular."""
    return on_leg(permute(outer(r, r), (0, 2, 1, 3)), slice(2, 4), H.mult)


def r13_r12(H, r):
    """R13 R12 in H tensor H tensor H: (id tensor Delta)(R) when R is
    quasitriangular."""
    return on_leg(permute(outer(r, r), (0, 2, 3, 1)), slice(0, 2), H.mult)


def _intertwine_mismatch(H, r):
    """Flipped coproduct times R against R times the coproduct, per basis."""
    return first_unequal(product(range(H.dim)), lambda i: (
        pair_mult(H, flip_pairs(H.comult.get(i, {})), r),
        pair_mult(H, r, H.comult.get(i, {}))))


def _yang_baxter_mismatch(H, r):
    """R12 R13 R23 against R23 R13 R12, contracted leg by leg.

    The padded identity legs drop out because the algebra is unital, so
    each product multiplies only the legs both factors occupy.
    """
    def legs(t, leg):
        return on_leg(t, slice(leg, leg + 2), H.mult)

    # R12 R13 and R23 R13 are R13 R12 and R13 R23 with two legs swapped
    t1 = permute(r13_r12(H, r), (0, 2, 1))
    lhs = legs(legs(permute(outer(t1, r), (0, 1, 3, 2, 4)), 3), 1)
    t2 = permute(r13_r23(H, r), (1, 0, 2))
    rhs = legs(legs(permute(outer(t2, r), (0, 3, 1, 4, 2)), 2), 0)
    return scalar_table_mismatch(lhs, rhs)


def check_quasitriangular(H, R: RMatrix) -> VerificationReport:
    """Verify the defining identities of a quasitriangular structure."""
    H.require_certified()
    if R.algebra is not H:
        raise ValueError("R-matrix belongs to a different algebra")
    report = VerificationReport(subject=f"{H.name} R-matrix")
    r = R.r
    rb = R.r_bar
    d1 = H.delta_one()
    d1_flip = flip_pairs(d1)

    corner = pair_mult(H, d1_flip, pair_mult(H, r, d1))
    report.record("r_in_truncated_corner", scalar_table_mismatch(corner, r))
    corner_bar = pair_mult(H, d1, pair_mult(H, rb, d1_flip))
    report.record("r_inverse_in_opposite_corner",
                  scalar_table_mismatch(corner_bar, rb))

    report.record("comult_second_leg_of_r", scalar_table_mismatch(
        on_leg(r, 1, H.comult), r13_r12(H, r)))
    report.record("comult_first_leg_of_r", scalar_table_mismatch(
        on_leg(r, 0, H.comult), r13_r23(H, r)))
    report.record("r_intertwines_comult", _intertwine_mismatch(H, r))

    r_rb = pair_mult(H, r, rb)
    rb_r = pair_mult(H, rb, r)
    report.record("weak_inverse_right", scalar_table_mismatch(r_rb, d1_flip))
    report.record("weak_inverse_left", scalar_table_mismatch(rb_r, d1))
    report.record("r_sandwich_stable",
                  scalar_table_mismatch(pair_mult(H, r_rb, r), r))
    report.record("r_inverse_sandwich_stable",
                  scalar_table_mismatch(pair_mult(H, rb_r, rb), rb))

    report.record("yang_baxter", _yang_baxter_mismatch(H, r))

    report.add("triangular", is_triangular(R), severity="info")
    return report


def certify_quasitriangular(H, R: RMatrix) -> VerificationReport:
    """Run check_quasitriangular and mark R usable downstream on success."""
    return certified_by(R, check_quasitriangular(H, R))


def is_triangular(R: RMatrix) -> bool:
    """True when the weak inverse is the flip of R itself."""
    return R.r_bar == flip_pairs(R.r)


def solve_r_bar(H, r: dict):
    """Solve the weak-inverse equations for a given R, or return None.

    Fallback for inputs that supply r_matrix without r_inverse.  The
    two products R X = flip(coproduct of 1) and X R = coproduct of 1
    are linear in X, so we solve the stacked system exactly and then
    project any solution into the corner where the weak inverse lives;
    the projected tensor is checked before being returned.
    """
    H.require_certified()
    d = H.dim
    sq = d * d
    entries = {}
    for col, pair in enumerate(product(range(d), repeat=2)):
        basis_pair = {pair: 1}
        for k, c in flatten(pair_mult(H, r, basis_pair), (d, d)).items():
            entries[(k, col)] = c
        for k, c in flatten(pair_mult(H, basis_pair, r), (d, d)).items():
            entries[(sq + k, col)] = c
    system = LinMap(VectorSpace(sq), VectorSpace(2 * sq), entries)
    d1 = H.delta_one()
    target = flatten(flip_pairs(d1), (d, d))
    target.update({sq + k: c for k, c in flatten(d1, (d, d)).items()})
    flat = solve(system, target)
    if flat is None:
        return None
    candidate = unflatten(flat, (d, d))
    corner = pair_mult(H, d1, pair_mult(H, candidate, flip_pairs(d1)))
    if pair_mult(H, r, corner) != flip_pairs(d1):
        return None
    if pair_mult(H, corner, r) != d1:
        return None
    return corner
