"""Compatible coactions, carrier comodules and their braidings."""

from fractions import Fraction

import pytest

from whakit.examples import (group_algebra_zn, group_algebra_zn_anyonic,
                             groupoid_algebra, sweedler)
from whakit.linalg import LinMap
from whakit.module_cat import regular_module, truncated_tensor, unit_object
from whakit.quasitriangular import certify_quasitriangular
from whakit.transmutation import certify_braided_hopf, transmute
from whakit.weak_hopf import certify
from whakit.yetter_drinfeld import (YDModule, check_comodule_braiding,
                                    check_rh_comodule, check_yd,
                                    comodule_braiding, comodule_braiding_inv,
                                    functor_F, induced_yd,
                                    regular_rh_comodule, trivial_comodule,
                                    yd_braiding)

EXAMPLES = {
    "sweedler": sweedler,
    "z3": lambda: group_algebra_zn(3),
    "anyonic_z3": lambda: group_algebra_zn_anyonic(3),
    "groupoid_2x2": lambda: groupoid_algebra(2, 2),
}


@pytest.fixture(scope="module", params=sorted(EXAMPLES))
def certified(request):
    H, R = EXAMPLES[request.param]()
    assert certify(H).passed
    assert certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    assert certify_braided_hopf(B).passed
    return H, R, B


def test_induced_coactions_are_compatible(certified):
    H, R, B = certified
    for M in (regular_module(H), unit_object(H), B.module):
        report = check_yd(induced_yd(M, R))
        assert report.passed, report.first_failure()
        assert report.names() == [
            "coaction_lands_in_truncated", "coaction_counital",
            "coaction_coassociative", "action_coaction_compatible",
            "split_unit_absorbed"]


def test_regular_comodule_satisfies_the_comodule_laws(certified):
    _, _, B = certified
    report = check_rh_comodule(regular_rh_comodule(B))
    assert report.passed, report.first_failure()


def test_comodule_braiding_and_hexagons(certified):
    H, _, B = certified
    regular = regular_rh_comodule(B)
    triples = [(regular, regular, regular),
               (trivial_comodule(B, regular_module(H)), regular,
                trivial_comodule(B, unit_object(H)))]
    for U, V, P in triples:
        report = check_comodule_braiding(U, V, P)
        assert report.passed, report.first_failure()
        assert report.names() == [
            "braiding_invertible", "matches_translated_module_braiding",
            "hexagon_forward", "hexagon_backward"]


def test_braidings_reject_carriers_that_do_not_match(certified):
    H, _, B = certified
    U = regular_rh_comodule(B)
    V = trivial_comodule(B, regular_module(H))
    Y = functor_F(U)
    uv = truncated_tensor(U.module, V.module)
    vu = truncated_tensor(V.module, U.module)
    assert comodule_braiding(U, uv, vu).domain.dim == uv.dim
    assert comodule_braiding_inv(U, vu, uv).domain.dim == vu.dim
    assert yd_braiding(Y, uv, vu).domain.dim == uv.dim
    # the target does not hold the source legs swapped
    for source, target in ((uv, uv), (vu, vu)):
        for braid in (comodule_braiding, comodule_braiding_inv):
            with pytest.raises(ValueError):
                braid(U, source, target)
        with pytest.raises(ValueError):
            yd_braiding(Y, source, target)
    # the coacting module is the other leg
    with pytest.raises(ValueError):
        comodule_braiding(U, vu, uv)
    with pytest.raises(ValueError):
        comodule_braiding_inv(U, uv, vu)
    with pytest.raises(ValueError):
        yd_braiding(Y, vu, uv)
    with pytest.raises(ValueError):
        comodule_braiding(V, uv, vu)


def test_every_check_yd_check_can_fail_with_a_witness():
    """Add 1 to one coefficient of the coaction of e_0, over every
    coefficient in turn: each check fails, with a witness, on some."""
    H, R = groupoid_algebra(2, 2)
    certify(H)
    certify_quasitriangular(H, R)
    M = regular_module(H)
    coaction = induced_yd(M, R).coaction_h
    failed = {}
    for k in range(coaction.codomain.dim):
        entries = dict(coaction.entries)
        entries[(k, 0)] = entries.get((k, 0), 0) + Fraction(1)
        bent = LinMap(coaction.domain, coaction.codomain, entries)
        for check in check_yd(YDModule(M, bent)).checks:
            if not check.passed:
                assert check.witness is not None, check.name
                failed.setdefault(check.name, k)
    assert set(failed) == {
        "coaction_lands_in_truncated", "coaction_counital",
        "coaction_coassociative", "action_coaction_compatible",
        "split_unit_absorbed"}
