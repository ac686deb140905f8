import copy
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from whakit.scalars import (
    Cyclo,
    DivisionByZero,
    Field,
    FieldMismatch,
    cyclotomic_polynomial,
    invert,
    omega,
    render_scalar,
)


def sympy_phi(n):
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.cyclotomic_poly(n, x), x)
    return tuple(reversed([int(c) for c in poly.all_coeffs()]))


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)


def test_cyclotomic_polynomial_6_against_division_oracle():
    # (x^6 - 1) / (phi_1 * phi_2 * phi_3) computed independently
    x = sympy.Symbol("x")
    den = sympy.cyclotomic_poly(1, x) * sympy.cyclotomic_poly(2, x) * sympy.cyclotomic_poly(3, x)
    q, r = sympy.div(x**6 - 1, den, x)
    assert r == 0
    assert sympy.expand(q) == x**2 - x + 1
    assert cyclotomic_polynomial(6) == (1, -1, 1)


@pytest.mark.parametrize("n", range(1, 25))
def test_cyclotomic_polynomial_against_sympy(n):
    assert cyclotomic_polynomial(n) == sympy_phi(n)


def test_rational_arithmetic():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_omega_relations():
    w4 = omega(4)
    assert w4 * w4 == -1
    w3 = omega(3)
    assert w3 * w3 + w3 == -1


def power(x, k):
    """x multiplied by itself, k factors in all (k >= 1)."""
    p = x
    for _ in range(k - 1):
        p = p * x
    return p


@pytest.mark.parametrize("n", range(1, 25))
def test_omega_is_primitive(n):
    w = omega(n)
    assert power(w, n) == 1
    for d in range(1, n):
        if n % d == 0:
            assert power(w, d) != 1


def test_low_order_roots_demote_to_fractions():
    assert omega(1) == Fraction(1)
    assert isinstance(omega(1), Fraction)
    assert omega(2) == Fraction(-1)
    assert isinstance(omega(2), Fraction)
    w = omega(3)
    assert isinstance(power(w, 3), Fraction)
    assert isinstance(w + (1 - w), Fraction)


def test_mixed_arithmetic_with_rationals():
    w = omega(5)
    s = 2 * w + Fraction(1, 2)
    assert s - Fraction(1, 2) == 2 * w
    assert (s - 2 * w) == Fraction(1, 2)
    assert Fraction(1, 2) * (2 * w) == w


def test_field_mismatch_rejected():
    with pytest.raises(FieldMismatch):
        omega(3) + omega(4)
    with pytest.raises(FieldMismatch):
        Field(3).coerce(omega(4))


def test_inversion():
    with pytest.raises(DivisionByZero):
        invert(Fraction(0))
    assert invert(Fraction(3, 2)) == Fraction(2, 3)
    for n in (3, 4, 5, 7, 8, 12):
        w = omega(n)
        for k in range(1, n):
            s = power(w, k) + 2
            assert s * invert(s) == 1
        assert w * invert(w) == 1
        assert (1 + w) * invert(1 + w) == 1


def scalar_strategy(order):
    deg = len(cyclotomic_polynomial(order)) - 1
    frac = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.lists(frac, min_size=deg, max_size=deg).map(
        lambda cs: Cyclo.make(order, cs))


@settings(max_examples=60, deadline=None)
@given(scalar_strategy(5), scalar_strategy(5), scalar_strategy(5))
def test_field_axioms_order_5(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a != 0:
        assert a * invert(a) == 1


@settings(max_examples=60, deadline=None)
@given(scalar_strategy(12), scalar_strategy(12))
def test_field_axioms_order_12(a, b):
    assert a * b == b * a
    assert a - b == -(b - a)
    if b != 0:
        assert (a / b) * b == a


def random_scalar(rng, field):
    if field.order is None:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    deg = len(cyclotomic_polynomial(field.order)) - 1
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
    return Cyclo.make(field.order, cs)


def test_render_parse_roundtrip_1000():
    """Within one field the text gives the scalar back: a table from
    rendered text to value never meets two values at one text.  Across
    orders it cannot, as w names a different root in each field."""
    rng = random.Random(20260820)
    fields = [Field(), Field(3), Field(4), Field(5), Field(8), Field(12)]
    back = {}
    for k in range(1000):
        field = fields[k % len(fields)]
        s = random_scalar(rng, field)
        assert back.setdefault((field.order, render_scalar(s)), s) == s
    assert len(back) > 900


def test_render_canonical_forms():
    assert render_scalar(Fraction(0)) == "0"
    assert render_scalar(Fraction(-3, 2)) == "-3/2"
    w = omega(5)
    assert render_scalar(w) == "w"
    assert render_scalar(-w) == "-w"
    assert render_scalar(w * w) == "w^2"
    assert render_scalar(2 * w - 1) == "-1+2*w"
    assert render_scalar(Cyclo.make(5, [0, Fraction(-1, 3), 1, 0])) == "-1/3*w+w^2"


def test_cyclo_is_immutable_and_hashable():
    w = omega(5)
    with pytest.raises(AttributeError):
        w.order = 7
    assert hash(w) == hash(omega(5))
    assert len({w, omega(5), w * w}) == 2


def test_cyclo_copies_and_pickles():
    for x in (omega(5), Fraction(3, 4) * power(omega(12), 5) - 2):
        table = {(0, 1): x}
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x)),
                  copy.deepcopy(table)[(0, 1)],
                  pickle.loads(pickle.dumps(table))[(0, 1)]):
            assert isinstance(y, Cyclo)
            assert y == x and hash(y) == hash(x)
            assert (y.order, y.num, y.den) == (x.order, x.num, x.den)


def test_constructor_gives_the_canonical_form():
    cs = [Fraction(1, 2), 0, Fraction(3, 4)]
    s = Cyclo(5, cs)
    assert (s.num, s.den) == ((2, 0, 3, 0), 4)
    assert s == Cyclo.make(5, cs) and hash(s) == hash(Cyclo.make(5, cs))
    w = omega(5)
    # reduced modulo Phi_5: w^4 = -1 - w - w^2 - w^3
    assert Cyclo(5, [0, 0, 0, 0, 1]) == -(1 + w + power(w, 2) + power(w, 3))
    assert Cyclo(5, [0, 0, 0, 0, 1]).num == (-1, -1, -1, -1)


@pytest.mark.parametrize("order,coeffs", [
    (5, [1]), (5, []), (5, [Fraction(2, 3), 0, 0, 0]), (4, [0, 0, 1]),
    (3, [1, 1, 1]), (1, [0, 3]), (2, [5, 1]),
])
def test_constructor_rejects_constant_residues(order, coeffs):
    with pytest.raises(ValueError, match="Cyclo.make"):
        Cyclo(order, coeffs)
    assert isinstance(Cyclo.make(order, coeffs), Fraction)


@pytest.mark.parametrize("bad", [0.1, 1.0, 1j, "1", None])
def test_non_rational_coefficients_rejected(bad):
    with pytest.raises(TypeError):
        Cyclo.make(5, [bad, 1])
    with pytest.raises(TypeError):
        Cyclo(5, [1, bad])
    with pytest.raises(TypeError):
        Field(5).coerce(bad)
    with pytest.raises(TypeError):
        omega(5) + bad
    with pytest.raises(TypeError):
        omega(5) * bad
