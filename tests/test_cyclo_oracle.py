"""Differential test of Cyclo arithmetic against sympy over QQ.

Seeded random elements of Q(w_N) go through +, -, *, inverse and **;
each result is compared with the remainder of the same polynomial
computation modulo sympy's cyclotomic_poly(N, x), and checked to be in
canonical form.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from whakit.scalars import Cyclo, cyclotomic_polynomial, invert

X = sympy.Symbol("x")
ORDERS = list(range(1, 13)) + [15, 16, 20]
CASES = 12


def degree(n):
    return len(cyclotomic_polynomial(n)) - 1


def phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain=sympy.QQ)


def poly_of(coeffs):
    # a coefficient list, constant term first, as a polynomial over QQ
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in map(Fraction, reversed(coeffs))] or [0],
                      X, domain=sympy.QQ)


def as_poly(s):
    return poly_of(s.coeffs if isinstance(s, Cyclo) else [s])


def as_fractions(poly, n):
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]
    cs += [Fraction(0)] * (degree(n) - len(cs))
    return cs


def value_fractions(s, n):
    if isinstance(s, Cyclo):
        return list(s.coeffs)
    return [Fraction(s)] + [Fraction(0)] * (degree(n) - 1)


def assert_canonical(s, n):
    if not isinstance(s, Cyclo):
        assert isinstance(s, (int, Fraction))
        return
    assert s.order == n
    assert type(s.den) is int and s.den >= 1
    assert all(type(c) is int for c in s.num)
    assert len(s.num) == degree(n)
    assert gcd(s.den, *s.num) == 1
    assert any(s.num[1:]), "a constant residue must be a Fraction"


def assert_matches(s, poly, n):
    assert_canonical(s, n)
    assert value_fractions(s, n) == as_fractions(poly.rem(phi(n)), n)


def random_coeffs(rng, n):
    # sometimes longer than phi(N), so that make has to reduce
    length = degree(n) + rng.choice((0, 0, 0, 2, n))
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            if rng.random() < 0.7 else 0 for _ in range(length)]


def random_element(rng, n):
    return Cyclo.make(n, random_coeffs(rng, n))


def random_rational(rng):
    return rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-7, 7),
                                                    rng.randint(1, 8))))


@pytest.mark.parametrize("n", ORDERS)
def test_arithmetic_matches_sympy(n):
    rng = random.Random(7919 * n)
    for _ in range(CASES):
        cs = random_coeffs(rng, n)
        a = Cyclo.make(n, cs)
        assert_matches(a, poly_of(cs), n)
        b = random_element(rng, n)
        r = random_rational(rng)
        pa, pb, pr = as_poly(a), as_poly(b), as_poly(r)
        assert_matches(a + b, pa + pb, n)
        assert_matches(a - b, pa - pb, n)
        assert_matches(a * b, pa * pb, n)
        assert_matches(a + r, pa + pr, n)
        assert_matches(r + a, pa + pr, n)
        assert_matches(a - r, pa - pr, n)
        assert_matches(r - a, pr - pa, n)
        assert_matches(a * r, pa * pr, n)
        assert_matches(r * a, pa * pr, n)
        assert_matches(-a, -pa, n)
        for k in range(6):
            assert_matches(a ** k, (pa ** k).rem(phi(n)), n)
        if a != 0:
            inv = pa.invert(phi(n))
            assert_matches(invert(a), inv, n)
            assert_matches(a ** -2, (inv ** 2).rem(phi(n)), n)
        if isinstance(a, Cyclo):
            assert_matches(a.inverse(), pa.invert(phi(n)), n)


@pytest.mark.parametrize("n", ORDERS)
def test_constant_results_are_never_cyclos(n):
    rng = random.Random(104729 + n)
    for _ in range(CASES):
        a = random_element(rng, n)
        r = random_rational(rng)
        for s in (a - a, a - a + r, (a + r) - a, a * 0, a ** 0):
            assert isinstance(s, (int, Fraction))
        if a != 0:
            assert a * invert(a) == 1
            assert isinstance(a * invert(a), (int, Fraction))
    w = Cyclo.make(n, [0, 1])
    assert isinstance(w ** n, (int, Fraction)) and w ** n == 1


def same_form(s, t):
    assert s == t
    assert hash(s) == hash(t)
    if isinstance(s, Cyclo):
        assert (s.order, s.num, s.den) == (t.order, t.num, t.den)
    else:
        assert not isinstance(t, Cyclo)


@pytest.mark.parametrize("n", ORDERS)
def test_equal_values_have_one_form(n):
    rng = random.Random(15485863 + n)
    p = list(cyclotomic_polynomial(n))
    for _ in range(CASES):
        a, b, c = (random_element(rng, n) for _ in range(3))
        same_form((a * b) * c, a * (b * c))
        same_form((a + b) + c, a + (b + c))
        same_form(a * (b + c), a * b + a * c)
        same_form(a - b, -(b - a))
        cs = random_coeffs(rng, n)
        k = rng.choice((-3, 2, 6, Fraction(5, 4)))
        same_form(Cyclo.make(n, [k * x for x in cs]), k * Cyclo.make(n, cs))
        # adding a multiple of Phi_N changes nothing
        shift = rng.randint(0, 2)
        padded = cs + [0] * (shift + len(p) - len(cs))
        for i, q in enumerate(p):
            padded[shift + i] += 3 * q
        same_form(Cyclo.make(n, padded), Cyclo.make(n, cs))
        # a common scale on all coefficients cancels in the denominator
        same_form(Cyclo.make(n, [Fraction(x) / 7 for x in cs]) * 7,
                  Cyclo.make(n, cs))


@pytest.mark.parametrize("n", ORDERS)
def test_multiplying_by_zero_gives_rational_zero(n):
    rng = random.Random(n)
    for _ in range(CASES):
        a = random_element(rng, n)
        for z in (0, Fraction(0)):
            for s in (a * z, z * a):
                assert isinstance(s, (int, Fraction)) and s == 0

