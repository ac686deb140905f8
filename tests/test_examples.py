"""The bundled weak and non-triangular examples certify through every layer."""

import random

import pytest

from whakit.examples import group_algebra_zn_anyonic, groupoid_algebra
from whakit.module_cat import (check_monoidal_coherence, regular_module,
                               unit_object)
from whakit.quasitriangular import certify_quasitriangular, is_triangular
from whakit.transmutation import certify_braided_hopf, transmute
from whakit.weak_hopf import certify, is_hopf
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
