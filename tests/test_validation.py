"""Out-of-range basis indices are rejected when a structure is built, and
the checks reject inputs that belong to other algebras."""

import re
from fractions import Fraction

import pytest

from whakit.examples import group_algebra_zn, group_algebra_zn_anyonic
from whakit.linalg import DimensionMismatch
from whakit.module_cat import (HModule, check_monoidal_coherence,
                               regular_module)
from whakit.quasitriangular import RMatrix, certify_quasitriangular
from whakit.scalars import Field, FieldMismatch, omega
from whakit.transmutation import BraidedHopfAlgebra, transmute
from whakit.weak_hopf import WeakHopfAlgebra, certify
from whakit.yetter_drinfeld import Comodule, check_equivalence_roundtrip

ONE = Fraction(1)


def trivial_tables():
    """The one-dimensional Hopf algebra k, as constructor arguments."""
    return dict(mult={(0, 0, 0): ONE}, unit={0: ONE},
                comult={(0, 0, 0): ONE}, counit={0: ONE},
                antipode={(0, 0): ONE}, antipode_inverse={(0, 0): ONE})


def build(**tables):
    return WeakHopfAlgebra("k", Field(), ("1",), **tables)


def test_trivial_tables_build():
    assert certify(build(**trivial_tables())).passed


@pytest.mark.parametrize("table, key", [
    ("mult", (0, 0, 5)),
    ("unit", 1),
    ("comult", (0, 1, 0)),
    ("counit", 3),
    ("antipode", (0, -1)),
    ("antipode_inverse", (2, 0)),
])
def test_algebra_table_key_out_of_range(table, key):
    tables = trivial_tables()
    tables[table] = dict(tables[table])
    tables[table][key] = ONE
    with pytest.raises(DimensionMismatch) as err:
        build(**tables)
    assert table in str(err.value) and repr(key) in str(err.value)


def test_repeated_labels_are_named():
    tables = trivial_tables()
    with pytest.raises(DimensionMismatch, match=r"repeated basis labels: \['b'\]"):
        WeakHopfAlgebra("k", Field(), ("a", "b", "b"), **tables)


def test_algebra_table_key_of_wrong_arity():
    tables = trivial_tables()
    tables["mult"] = {(0, 0): ONE}
    with pytest.raises(DimensionMismatch, match="mult"):
        build(**tables)


@pytest.mark.parametrize("table", ["r", "r_bar"])
def test_r_matrix_key_out_of_range(table):
    H, R = group_algebra_zn(3)
    tables = {"r": dict(R.r), "r_bar": dict(R.r_bar)}
    tables[table][(0, 7)] = ONE
    with pytest.raises(DimensionMismatch) as err:
        RMatrix(H, tables["r"], tables["r_bar"])
    assert table in str(err.value) and "(0, 7)" in str(err.value)


def test_module_action_key_out_of_range():
    H, _ = group_algebra_zn(3)
    certify(H)
    M = regular_module(H)
    with pytest.raises(DimensionMismatch, match=r"action.*\(3, 0, 0\)"):
        HModule(H, M.space, {(3, 0, 0): ONE})
    with pytest.raises(DimensionMismatch, match=r"action.*\(0, 0, 3\)"):
        HModule(H, M.space, {(0, 0, 3): ONE})


def certified(build):
    H, R = build()
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    return H, R


def test_coherence_rejects_inputs_over_another_algebra():
    # two builds of Z_3 look alike but are different algebras
    H, R = certified(lambda: group_algebra_zn(3))
    H2, R2 = certified(lambda: group_algebra_zn(3))
    M = regular_module(H)
    with pytest.raises(ValueError,
                       match="R-matrix belongs to a different algebra"):
        check_monoidal_coherence(H, R2, [M])
    with pytest.raises(ValueError,
                       match="module 1 is over a different algebra"):
        check_monoidal_coherence(H, R, [M, regular_module(H2)])
    # an empty sample would pass every check while checking nothing
    with pytest.raises(ValueError, match="no modules to check"):
        check_monoidal_coherence(H, R, [])


def test_roundtrip_rejects_a_braided_algebra_of_another_r_matrix():
    # R and R-bar of anyonic Z_3 swapped make a second R-matrix on the
    # same algebra, with its own transmuted coproduct
    H, R = certified(lambda: group_algebra_zn_anyonic(3))
    Rb = RMatrix(H, R.r_bar, R.r)
    assert certify_quasitriangular(H, Rb).passed
    with pytest.raises(ValueError, match="not transmuted from H and R"):
        check_equivalence_roundtrip(H, Rb, braided=transmute(H, R))


@pytest.mark.parametrize("value, error, message", [
    (1.0, TypeError, "not a scalar: 1.0"),
    (omega(5), FieldMismatch, "scalar of order 5 does not live in Field(Q)"),
    ("1", TypeError, "not a scalar: '1'"),
], ids=["float", "cyclo_of_another_order", "str"])
@pytest.mark.parametrize("construct", ["comodule", "braided_hopf_algebra"])
def test_constructors_check_their_values(construct, value, error, message):
    """Comodule(...) and BraidedHopfAlgebra(...) pass each value through
    the field of the algebra, over Z_3 the rationals, and raise as HModule
    does; a value the field takes is kept as given, Fraction(1) staying a
    Fraction."""
    H, R = group_algebra_zn(3)
    assert certify(H).passed and certify_quasitriangular(H, R).passed
    B = transmute(H, R)
    M = regular_module(H)
    build, read = {
        "comodule": (lambda v: Comodule(H, M, {0: {(0, 0): v}}),
                     lambda C: C.table[0][(0, 0)]),
        "braided_hopf_algebra": (lambda v: BraidedHopfAlgebra(
            H, R, B.carrier, B.module, B.square, B.unit_module,
            {**B.mult, (0, 0): {0: v}}, B.comult, B.counit_bar,
            B.antipode_bar, B.unit_bar), lambda C: C.mult[(0, 0)][0]),
    }[construct]
    with pytest.raises(error, match=re.escape(message)):
        build(value)
    kept = read(build(Fraction(1)))
    assert kept == 1 and type(kept) is Fraction
