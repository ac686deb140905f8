"""Exact scalars: rationals and cyclotomic field elements.

Every coefficient in this package is a rational, either a plain int or a
fractions.Fraction, or a Cyclo, an element of Q(w) with w a primitive
root of unity of some fixed order N, stored as a residue modulo the N-th
cyclotomic polynomial Phi_N.  Arithmetic is exact, results are
canonically reduced, and equality is decidable, so the identity checks
in the higher modules run with zero tolerance.

Field.coerce stores an integral rational as an int, whether it arrives
as an int or as a Fraction with denominator 1, so structure constants
such as the 1s of a group algebra multiply as machine-word ints rather
than through Fraction.  An int and the equal Fraction compare and hash
alike and render the same way, so the two forms are interchangeable in
every table and report.  Arithmetic on ints stays in ints; a Fraction
comes in only with a non-integral value or through an inverse.

A Cyclo holds a tuple ``num`` of phi(N) int numerators, constant term
first, over one positive int denominator ``den``: the value is
sum(num[k] w^k) / den.  This is the layout of FLINT's ``nf_elem``.  The
form is canonical, gcd(den, *num) == 1, so equal values have equal
fields and equal hashes.  Phi_N is monic with integer coefficients, so
reduction modulo Phi_N runs on the int numerators alone and leaves the
denominator as it is; an operation then restores lowest terms with one
gcd over the denominator and the numerators.  Multiplying by a rational
only rescales the numerators, since the operand is already reduced;
adding over an equal denominator adds numerators; adding an int shifts
the constant numerator and needs no gcd at all.

Cyclo values whose residue happens to be a rational constant are demoted
to plain Fractions on construction.  Rational subexpressions therefore
stay cheap even when the ambient field is cyclotomic, and a scalar equal
to a rational number is never represented by a Cyclo.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class FieldMismatch(TypeError):
    """Two scalars from incompatible fields met in one operation."""


class DivisionByZero(ZeroDivisionError):
    """Inversion or division by the zero scalar."""


class ScalarSyntaxError(ValueError):
    """A scalar string does not match the scalar grammar."""


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by exact division: x^n - 1 divided by the cyclotomic
    polynomials of all proper divisors of n.
    """
    if n < 1:
        raise ValueError("order must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, cyclotomic_polynomial(d))
    return tuple(num)


def _exact_div(num, den):
    # long division of integer polynomials, constant term first; den is monic
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


@lru_cache(maxsize=None)
def _phi_tail(order):
    # phi(order) and the nonzero (i, c) of Phi_order below its leading 1
    phi = cyclotomic_polynomial(order)
    d = len(phi) - 1
    return d, tuple((i, c) for i, c in enumerate(phi[:d]) if c)


def _reduce(order, num):
    """Reduce an int coefficient list (constant first) modulo Phi_order, in place.

    Phi_order is monic, so the reduction needs no division.  Returns the
    list, cut or zero-padded to phi(order) entries.
    """
    d, tail = _phi_tail(order)
    for k in range(len(num) - 1, d - 1, -1):
        c = num[k]
        if c:
            base = k - d
            for i, p in tail:
                num[base + i] -= c * p
    del num[d:]
    num.extend([0] * (d - len(num)))
    return num


def _polydivmod(num, den):
    # division with remainder over Fraction coefficients, constant term first
    num = list(num)
    while num and num[-1] == 0:
        num.pop()
    dd = len(den) - 1
    if len(num) <= dd:
        return [], num
    lead = den[-1]
    out = [Fraction(0)] * (len(num) - dd)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + dd] / lead
        out[k] = c
        if c:
            for i, dc in enumerate(den):
                num[k + i] -= c * dc
    del num[dd:]
    while num and num[-1] == 0:
        num.pop()
    return out, num


class Cyclo:
    """An element of Q(w), with w a primitive root of unity of the given order.

    The value is sum(num[k] w^k) / den, reduced modulo Phi_order: ``num``
    is a tuple of phi(order) ints, constant term first, and ``den`` a
    positive int with gcd(den, *num) == 1.  ``coeffs`` gives the same
    residue as a tuple of Fractions.

    Instances are immutable and always non-constant: constant residues are
    demoted to Fraction by ``make`` and by every operation, and the
    constructor rejects them, so a live Cyclo is never equal to any
    rational number.
    """

    __slots__ = ("order", "num", "den")

    def __new__(cls, order, coeffs):
        value = Cyclo.make(order, coeffs)
        if not isinstance(value, Cyclo):
            raise ValueError(
                f"the residue is the rational constant {value}; "
                "Cyclo.make returns it as a Fraction")
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo values are immutable")

    @staticmethod
    def make(order, coeffs):
        """The value sum(coeffs[k] w^k) in canonical form: a Cyclo, or a
        Fraction when the residue modulo Phi_order is constant.

        Each coefficient must be an int or a Fraction; any other type,
        float included, raises TypeError.
        """
        coeffs = tuple(coeffs)
        den = 1
        for c in coeffs:
            if isinstance(c, Fraction):
                den = lcm(den, c.denominator)
            elif not isinstance(c, int):
                raise TypeError(
                    f"cyclotomic coefficient {c!r} is not an int or a Fraction")
        num = [c * den if isinstance(c, int)
               else c.numerator * (den // c.denominator) for c in coeffs]
        return _canon(order, _reduce(order, num), den)

    @property
    def coeffs(self):
        """The residue as a tuple of Fractions, constant term first."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    def __add__(self, other):
        return _add(self, other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        return _add(self, other, -1)

    def __rsub__(self, other):
        diff = _add(self, other, -1)
        return diff if diff is NotImplemented else -diff

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Fraction(0)
            # gcd(den, *num) == 1, so only a factor of other can cancel
            g = gcd(other, self.den)
            k = other // g
            return _raw(self.order, tuple([c * k for c in self.num]),
                        self.den // g)
        if isinstance(other, Fraction):
            p, q = other.numerator, other.denominator
            if not p:
                return Fraction(0)
            # p cancels only against den and q only against the numerators
            g1 = gcd(p, self.den)
            g2 = gcd(q, *self.num)
            k = p // g1
            return _raw(self.order, tuple([c // g2 * k for c in self.num]),
                        self.den // g1 * (q // g2))
        if isinstance(other, Cyclo):
            if other.order != self.order:
                raise FieldMismatch(
                    f"cyclotomic orders differ: {self.order} vs {other.order}")
            b = other.num
            out = [0] * (2 * len(b) - 1)
            for i, x in enumerate(self.num):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            out[i + j] += x * y
            return _canon(self.order, _reduce(self.order, out),
                          self.den * other.den)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse via the extended Euclidean algorithm."""
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) <= 1:
                break
            q, rem = _polydivmod(r0, r1)
            r0, r1 = r1, rem
            qs = _polymulsub(s0, q, s1)
            s0, s1 = s1, qs
        if not r1:
            raise DivisionByZero("zero has no inverse")
        c = r1[0]
        return Cyclo.make(self.order, [s / c for s in s1])

    def __truediv__(self, other):
        return self * invert(other)

    def __rtruediv__(self, other):
        inv = self.inverse()
        return inv * other

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = Fraction(1)
        base = self
        while k:
            if k & 1:
                result = base * result
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return (self.order == other.order and self.den == other.den
                    and self.num == other.num)
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def __bool__(self):
        return True

    def __repr__(self):
        return render_scalar(self)


_set_order = Cyclo.__dict__["order"].__set__
_set_num = Cyclo.__dict__["num"].__set__
_set_den = Cyclo.__dict__["den"].__set__


def _raw(order, num, den):
    # a Cyclo from fields already in canonical, non-constant form
    obj = object.__new__(Cyclo)
    _set_order(obj, order)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _canon(order, num, den):
    """The value of an int numerator list, already reduced modulo Phi_order,
    over a positive int den: a canonical Cyclo, or a Fraction when constant."""
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    if not any(num[1:]):
        return Fraction(num[0], den)
    return _raw(order, tuple(num), den)


def _add(a, b, sign):
    """a + sign * b for a Cyclo a, or NotImplemented when b is not a scalar."""
    if isinstance(b, int):
        if not b:
            return a
        num = list(a.num)
        # adding a multiple of den to one numerator keeps lowest terms
        num[0] += sign * b * a.den
        return _raw(a.order, tuple(num), a.den)
    if isinstance(b, Fraction):
        q = b.denominator
        num = [c * q for c in a.num]
        num[0] += sign * b.numerator * a.den
        return _canon(a.order, num, a.den * q)
    if isinstance(b, Cyclo):
        if b.order != a.order:
            raise FieldMismatch(
                f"cyclotomic orders differ: {a.order} vs {b.order}")
        da, db = a.den, b.den
        if da == db:
            return _canon(a.order, [x + sign * y for x, y in zip(a.num, b.num)],
                          da)
        g = gcd(da, db)
        ma, mb = db // g, sign * (da // g)
        num = [x * ma + y * mb for x, y in zip(a.num, b.num)]
        return _canon(a.order, num, da * ma)
    return NotImplemented


def _polymulsub(s0, q, s1):
    # s0 - q*s1 over Fraction coefficients
    out = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
    for i, a in enumerate(q):
        if a:
            for j, b in enumerate(s1):
                if b:
                    out[i + j] -= a * b
    return out


def omega(order: int):
    """A primitive root of unity of the given order (a Fraction when order <= 2)."""
    return Cyclo.make(order, [0, 1])


def invert(s):
    """Multiplicative inverse of a scalar."""
    if isinstance(s, Cyclo):
        return s.inverse()
    if isinstance(s, int):
        s = Fraction(s)
    if isinstance(s, Fraction):
        if s == 0:
            raise DivisionByZero("zero has no inverse")
        return 1 / s
    raise TypeError(f"not a scalar: {s!r}")


class Field:
    """Descriptor of the coefficient field: Q, or Q(w) with w of a fixed order."""

    __slots__ = ("order",)

    def __init__(self, order: int | None = None):
        if order is not None and order < 1:
            raise ValueError("cyclotomic order must be positive")
        self.order = order

    @property
    def is_cyclotomic(self) -> bool:
        return self.order is not None

    def omega(self):
        if self.order is None:
            raise FieldMismatch("the rational field has no distinguished root of unity")
        return omega(self.order)

    def coerce(self, x):
        """Accept a scalar belonging to this field; an integral rational
        comes back as an int, any other rational as a Fraction."""
        if isinstance(x, int):
            return int(x)
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, Cyclo):
            if self.order is None or x.order != self.order:
                raise FieldMismatch(
                    f"scalar of order {x.order} does not live in {self}")
            return x
        raise TypeError(f"not a scalar: {x!r}")

    def __eq__(self, other):
        return isinstance(other, Field) and self.order == other.order

    def __hash__(self):
        return hash(("Field", self.order))

    def __repr__(self):
        if self.order is None:
            return "Field(Q)"
        return f"Field(Q(w), order={self.order})"

    def to_json(self):
        if self.order is None:
            return {"type": "rational"}
        return {"type": "cyclotomic", "order": self.order}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict) or "type" not in obj:
            raise ScalarSyntaxError(f"bad field descriptor: {obj!r}")
        if obj["type"] == "rational":
            return cls()
        if obj["type"] == "cyclotomic":
            order = obj.get("order")
            if not isinstance(order, int) or order < 1:
                raise ScalarSyntaxError(f"bad cyclotomic order: {order!r}")
            return cls(order)
        raise ScalarSyntaxError(f"unknown field type: {obj['type']!r}")


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if c == "w":
            toks.append(("w", None))
            i += 1
            continue
        if c in "+-*/^":
            toks.append((c, None))
            i += 1
            continue
        raise ScalarSyntaxError(f"unexpected character {c!r} in scalar text")
    return toks


def parse_scalar(text: str, field: Field):
    """Parse a scalar string.

    Grammar: scalar := term (('+'|'-') term)*;
    term := rational ('*' 'w' ('^' int)?)? | 'w' ('^' int)?;
    rational := int ('/' posint)?.
    Exponents are reduced modulo the field order, so any integer exponent
    is accepted in a cyclotomic field.
    """
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos][0] if pos < len(toks) else None

    def take(kind):
        nonlocal pos
        if peek() != kind:
            raise ScalarSyntaxError(f"expected {kind!r} at token {pos} of {text!r}")
        tok = toks[pos]
        pos += 1
        return tok[1]

    def parse_signed_int():
        neg = False
        if peek() == "-":
            take("-")
            neg = True
        v = take("int")
        return -v if neg else v

    def parse_rational(neg):
        a = take("int")
        if neg:
            a = -a
        if peek() == "/":
            take("/")
            b = take("int")
            if b == 0:
                raise ScalarSyntaxError("zero denominator")
            return Fraction(a, b)
        return Fraction(a)

    def parse_wpow():
        take("w")
        if field.order is None:
            raise ScalarSyntaxError("'w' is not a scalar of the rational field")
        k = 1
        if peek() == "^":
            take("^")
            k = parse_signed_int()
        k %= field.order
        return Cyclo.make(field.order, [0] * k + [1])

    def parse_term(neg):
        if peek() == "int":
            r = parse_rational(neg)
            if peek() == "*":
                take("*")
                return r * parse_wpow()
            return r
        if peek() == "w":
            v = parse_wpow()
            return -v if neg else v
        raise ScalarSyntaxError(f"expected a term at token {pos} of {text!r}")

    neg = False
    if peek() == "-":
        take("-")
        neg = True
    elif peek() == "+":
        take("+")
    value = parse_term(neg)
    while peek() in ("+", "-"):
        op = peek()
        take(op)
        t = parse_term(False)
        value = value + t if op == "+" else value - t
    if pos != len(toks):
        raise ScalarSyntaxError(f"trailing tokens in scalar text {text!r}")
    return field.coerce(value)


def _render_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def render_scalar(s) -> str:
    """Canonical text form; parse_scalar inverts it exactly."""
    if isinstance(s, int):
        s = Fraction(s)
    if isinstance(s, Fraction):
        return _render_fraction(s)
    if not isinstance(s, Cyclo):
        raise TypeError(f"not a scalar: {s!r}")
    parts = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = _render_fraction(mag)
        else:
            name = "w" if k == 1 else f"w^{k}"
            body = name if mag == 1 else f"{_render_fraction(mag)}*{name}"
        parts.append((c < 0, body))
    if not parts:
        return "0"
    out = []
    for i, (negative, body) in enumerate(parts):
        if i == 0:
            out.append("-" + body if negative else body)
        else:
            out.append(("-" if negative else "+") + body)
    return "".join(out)
