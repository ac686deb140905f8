"""The bundled weak and non-triangular examples certify through every layer."""

import random

import pytest

from test_yetter_drinfeld import rebased
from whakit import linalg
from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.module_cat import (check_monoidal_coherence, regular_module,
                               unit_object)
from whakit.quasitriangular import (RMatrix, certify_quasitriangular,
                                    is_triangular)
from whakit.transmutation import certify_braided_hopf, transmute
from whakit.weak_hopf import WeakHopfAlgebra, certify, is_hopf
from whakit.yetter_drinfeld import check_equivalence_roundtrip


def certify_all(H, R):
    """Run the six stages; return the transmuted algebra."""
    for stage, report in (("certify", certify(H)),
                          ("quasitriangular", certify_quasitriangular(H, R))):
        assert report.passed, (stage, report.first_failure())
    B = transmute(H, R)
    report = certify_braided_hopf(B)
    assert report.passed, report.first_failure()
    report = check_monoidal_coherence(
        H, R, [regular_module(H), unit_object(H)], random.Random(0))
    assert report.passed, report.first_failure()
    report = check_equivalence_roundtrip(H, R, braided=B)
    assert report.passed, report.first_failure()
    return B


@pytest.mark.parametrize("n", [2, 3])
def test_anyonic_group_algebra_certifies(n):
    H, R = group_algebra_zn_anyonic(n)
    B = certify_all(H, R)
    assert B.dim == n
    assert is_hopf(H)
    assert is_triangular(R) == (n <= 2)


def test_groupoid_algebra_certifies_and_is_weak():
    k, G = 2, 2
    H, R = groupoid_algebra(k, G)
    assert H.dim == k * k * G
    B = certify_all(H, R)
    assert B.dim == k * G
    assert not is_hopf(H)
    assert is_triangular(R)


def test_groupoid_algebra_rejects_empty_sizes():
    with pytest.raises(ValueError):
        groupoid_algebra(0, 2)


def stage_flags(H, R):
    """The (name, passed) pairs of each of the six stages' reports, and
    the dimension of the transmuted algebra."""
    reports = [certify(H), certify_quasitriangular(H, R)]
    B = transmute(H, R)
    reports += [certify_braided_hopf(B), check_monoidal_coherence(
        H, R, [regular_module(H), unit_object(H)], random.Random(0)),
        check_equivalence_roundtrip(H, R, braided=B)]
    return [[(c.name, c.passed) for c in rep.checks] for rep in reports], B.dim


def sparse_basis(rng, n):
    """A basis e_i + c e_j: a unit diagonal and one or two off-diagonal
    entries c in {1, -1, 2}, never two that form a 2-cycle, so the change
    of basis is unipotent and invertible over the integers."""
    while True:
        entries = {}
        for _ in range(rng.choice((1, 2))):
            i, j = rng.sample(range(n), 2)
            entries[(i, j)] = rng.choice((1, -1, 2))
        if not any((j, i) in entries for i, j in entries):
            break
    basis = [{i: 1} for i in range(n)]
    for (i, j), c in entries.items():
        basis[i][j] = c
    return basis


ALL_EXAMPLES = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x1": lambda: groupoid_algebra(2, 1),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_every_stage_agrees_in_a_sparse_basis(name, monkeypatch):
    """Every pass flag and the transmuted dimension are those of the
    canonical basis.  A Hopf algebra's coproduct of 1 is 1 (x) 1, the
    identity on every tensor in any basis, so only the groupoids' carriers
    become oblique and go through elimination."""
    H, R = ALL_EXAMPLES[name]()
    expected = stage_flags(H, R)
    H, R = rebased(H, R, sparse_basis(random.Random(name), H.dim))
    splits = []
    image_split = linalg._image_split
    monkeypatch.setattr(linalg, "_image_split",
                        lambda P: splits.append(P) or image_split(P))
    assert stage_flags(H, R) == expected
    assert bool(splits) == name.startswith("groupoid")


def stage_reports(H, R):
    """The reports of the six stages, each stage run only when the next
    report is asked for."""
    yield certify(H)
    yield certify_quasitriangular(H, R)
    B = transmute(H, R)
    yield certify_braided_hopf(B)
    yield check_monoidal_coherence(
        H, R, [regular_module(H), unit_object(H)], random.Random(0))
    yield check_equivalence_roundtrip(H, R, braided=B)


def first_rejection(H, R):
    """(stage, check name, witness) of the first failing check of the six
    stages, which stop at the first failing report; None if all pass."""
    for stage, report in enumerate(stage_reports(H, R)):
        failure = report.first_failure()
        if failure is not None:
            return stage, failure.name, failure.witness
    return None


def doubled(H, R, kind, rng):
    """H and R with one entry of the flat mult, comult or R table doubled,
    the key drawn as certbench's mutate draws it: rng.choice over the
    sorted keys of that table."""
    tables = {
        "mult": {(i, j, k): c for (i, j), row in H.mult.items()
                 for k, c in row.items()},
        "comult": {(i, j, k): c for i, row in H.comult.items()
                   for (j, k), c in row.items()},
        "r": dict(R.r),
    }
    table = tables[kind]
    key = rng.choice(sorted(table))
    table[key] = 2 * table[key]

    def flat(m):
        return {(i, j): c for i, col in m.columns().items()
                for j, c in col.items()}
    H2 = WeakHopfAlgebra(
        name=f"{H.name}~{kind}{key}", field=H.field, labels=H.labels,
        mult=tables["mult"], unit=H.unit, comult=tables["comult"],
        counit=H.counit, antipode=flat(H.antipode_map),
        antipode_inverse=flat(H.antipode_inverse_map))
    return H2, RMatrix(H2, tables["r"], R.r_bar)


@pytest.mark.parametrize("kind", ["mult", "comult", "r"])
@pytest.mark.parametrize("name", sorted(ALL_EXAMPLES))
def test_doubled_entry_is_rejected_in_a_sparse_basis(name, kind):
    """A doubled entry of the canonical tables, rebased as in
    test_every_stage_agrees_in_a_sparse_basis, fails the same first
    check of the same stage with a witness: the axioms do not depend on
    the basis."""
    H, R = doubled(*ALL_EXAMPLES[name](), kind,
                   random.Random(f"{name} {kind}"))
    expected = first_rejection(H, R)
    assert expected is not None and expected[2] is not None
    H, R = rebased(H, R, sparse_basis(random.Random(name), H.dim))
    stage, check, witness = first_rejection(H, R)
    assert (stage, check) == expected[:2] and witness is not None
