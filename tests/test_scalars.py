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
    ScalarSyntaxError,
    cyclotomic_polynomial,
    invert,
    omega,
    parse_scalar,
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


@pytest.mark.parametrize("n", range(1, 25))
def test_omega_is_primitive(n):
    w = omega(n)
    assert w**n == 1
    for d in range(1, n):
        if n % d == 0:
            assert w**d != 1


def test_low_order_roots_demote_to_fractions():
    assert omega(1) == Fraction(1)
    assert isinstance(omega(1), Fraction)
    assert omega(2) == Fraction(-1)
    assert isinstance(omega(2), Fraction)
    w = omega(3)
    assert isinstance(w**3, Fraction)
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
            s = w**k + 2
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


def test_parse_examples():
    assert parse_scalar("3/2", Field()) == Fraction(3, 2)
    s = parse_scalar("w^2-1/3*w", Field(5))
    assert isinstance(s, Cyclo)
    assert s.coeffs == (Fraction(0), Fraction(-1, 3), Fraction(1), Fraction(0))
    assert parse_scalar("w^4", Field(4)) == Fraction(1)


def test_parse_reduces_exponents_mod_order():
    f = Field(4)
    assert parse_scalar("w^5", f) == omega(4)
    assert parse_scalar("w^-1", f) == parse_scalar("w^3", f)
    assert parse_scalar("w^-4", f) == 1


def test_parse_rejects_garbage():
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("w", Field())
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("1//2", Field())
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("", Field())
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("2*", Field(3))
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("1/0", Field())
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("x+1", Field(3))


def test_parse_accepts_signs_and_spaces():
    f = Field(3)
    assert parse_scalar(" -w + 1 ", f) == 1 - omega(3)
    assert parse_scalar("+2", Field()) == 2
    assert parse_scalar("-5/3", Field()) == Fraction(-5, 3)


def random_scalar(rng, field):
    if field.order is None:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 40))
    deg = len(cyclotomic_polynomial(field.order)) - 1
    cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(deg)]
    return Cyclo.make(field.order, cs)


def test_render_parse_roundtrip_1000():
    rng = random.Random(20260820)
    fields = [Field(), Field(3), Field(4), Field(5), Field(8), Field(12)]
    for k in range(1000):
        field = fields[k % len(fields)]
        s = random_scalar(rng, field)
        text = render_scalar(s)
        assert parse_scalar(text, field) == s


def test_render_canonical_forms():
    assert render_scalar(Fraction(0)) == "0"
    assert render_scalar(Fraction(-3, 2)) == "-3/2"
    w = omega(5)
    assert render_scalar(w) == "w"
    assert render_scalar(-w) == "-w"
    assert render_scalar(w * w) == "w^2"
    assert render_scalar(2 * w - 1) == "-1+2*w"
    assert render_scalar(Cyclo.make(5, [0, Fraction(-1, 3), 1, 0])) == "-1/3*w+w^2"


def test_field_descriptor_json():
    assert Field().to_json() == {"type": "rational"}
    assert Field(7).to_json() == {"type": "cyclotomic", "order": 7}
    assert Field.from_json({"type": "rational"}) == Field()
    assert Field.from_json({"type": "cyclotomic", "order": 7}) == Field(7)
    with pytest.raises(ScalarSyntaxError):
        Field.from_json({"type": "real"})
    with pytest.raises(ScalarSyntaxError):
        Field.from_json({"type": "cyclotomic", "order": 0})


def test_cyclo_is_immutable_and_hashable():
    w = omega(5)
    with pytest.raises(AttributeError):
        w.order = 7
    assert hash(w) == hash(omega(5))
    assert len({w, omega(5), w * w}) == 2


def test_constructor_gives_the_canonical_form():
    cs = [Fraction(1, 2), 0, Fraction(3, 4)]
    s = Cyclo(5, cs)
    assert (s.num, s.den) == ((2, 0, 3, 0), 4)
    assert s == Cyclo.make(5, cs) and hash(s) == hash(Cyclo.make(5, cs))
    w = omega(5)
    # reduced modulo Phi_5: w^4 = -1 - w - w^2 - w^3
    assert Cyclo(5, [0, 0, 0, 0, 1]) == -(1 + w + w**2 + w**3)
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
