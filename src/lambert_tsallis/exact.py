"""Exact arithmetic over the rationals and real quadratic fields Q(sqrt(d)).

Numbers are one of three closed-form shapes, named tuples that do not order,
all canonical by construction.  Rational and QuadSurd hold the same four
ints (A, B, D, d), the number (A + B*sqrt(d))/D with D > 0 and
gcd(A, B, D) = 1:

* ``Rational(num, den=1)`` is num/den with B = d = 0; num and den are ints
  or Fractions (any numbers.Rational).
* ``QuadSurd(a, b, d)`` is a + b*sqrt(d) with b != 0 and d >= 2, not a
  perfect square, with no square factor p*p for p < 2**20, so a surd is
  irrational and its class needs no search.  A repeated
  prime factor p > 2**20 may stay in d: the record sqrt(p*p*d) compares
  unequal to p*sqrt(d), but it names the same field, so the arithmetic
  combines the two and finds them equal; ``sign``, ``classify_number`` and
  ``to_real`` stay exact.
* ``NamedTranscendental(tag)`` tags e and pi ("e", "pi" or a ``Constant``).
  They are opaque: no field arithmetic, no exact sign; only certified
  rational enclosures.

A shape's constructor is the one place where its parts are checked (parts
other than ints or Fractions, a radicand other than an int, a tag other
than a Constant raise ``MalformedInputError``) and made canonical: a
QuadSurd's parts go to _make, which checks four ints, splits the radicand
once and reduces; _replace, copying and unpickling build through _make
too.  ``.value`` of a Rational, ``.a`` and ``.b`` of a QuadSurd and
``rational_bounds`` build Fractions when called, and only they import
``fractions``.

Within one field Q(sqrt(d)) the four operations are closed; a Rational is a
member of every field.  Radicands d1, d2 name one field when d1*d2 = r*r,
and sqrt(d_large) = r/d_small * sqrt(d_small); surds over different fields
are rejected (``UnsupportedFieldError``) rather than embedded in a bigger
field.  The arithmetic builds its results past the constructors, by _build:
one gcd of (A, B, D) and no split.  _ints, an operation's one type test of
an operand, returns the record itself: anything not an exact number raises
``MalformedInputError`` there, before e or pi is refused.  The classifiers
check their operands once, at their entry.

_sign_ints(A, B, d), the sign of A + B*sqrt(d) for ints, is the one sign
rule: ``sign`` reads an operand's ints into it, and the classifiers' guards
the ints of the expression they test.  It never touches floating point: for
A and B of opposite signs it compares A*A with B*B*d, else it is B's.
Parsing drops whitespace with str.split(), reads the whole grammar with one
precompiled fullmatch whose groups hold each number's numerator and
denominator digits, splits the radicand and builds the canonical result
once from those ints.

The text grammar (case-insensitive, whitespace ignored) accepted by
``parse_exact`` and emitted by ``render_exact``::

    p/q   p   a+b*sqrt(d)   a-b*sqrt(d)   b*sqrt(d)   sqrt(d)   -sqrt(d)   e   pi

with a, b rationals in the same grammar and d a nonnegative integer.
"""

from __future__ import annotations

import math
import numbers
import re
from collections import namedtuple
from enum import Enum
from math import isqrt

from .errors import MalformedInputError, UnsupportedFieldError, UnsupportedOperandError

__all__ = [
    "ArithmeticClass",
    "Rational",
    "QuadSurd",
    "Constant",
    "NamedTranscendental",
    "ExactNumber",
    "E",
    "PI",
    "ZERO",
    "ONE",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "sign",
    "classify_number",
    "to_real",
    "is_algebraic",
    "rational_bounds",
    "parse_exact",
    "render_exact",
]


class ArithmeticClass(Enum):
    """Arithmetic nature of a real number."""

    RATIONAL = "rational"
    ALGEBRAIC_IRRATIONAL = "algebraic_irrational"
    TRANSCENDENTAL = "transcendental"
    UNKNOWN = "unknown"


class _Exact:
    """The shapes' base: <, <=, > and >= raise TypeError, and _make, and so
    _replace, builds through the constructor (_Field's through its check)."""

    __slots__ = ()

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


_NEGATIVE_RADICAND = "a negative radicand has no real square root"


def _canonical(A: int, B: int, D: int, d: int) -> ExactNumber:
    """The canonical (A + B*sqrt(d))/D from ints, D != 0 and d >= 0: the
    square factor of d split out, once."""
    if not B or not d:
        return _build(A, 0, D, 0)
    s, f = _square_split(d)  # B*sqrt(d) = B*s*sqrt(f)
    if f == 1:
        return _build(A + B * s, 0, D, 0)
    return _build(A, B * s, D, f)


def _build(A: int, B: int, D: int, d: int) -> ExactNumber:
    """The canonical (A + B*sqrt(d))/D from ints, D != 0, reduced by one gcd
    with the sign moved to the numerator (div's norm can make D negative);
    d, canonical already, is not split."""
    g = math.gcd(A, B, D)
    if D < 0:
        g = -g
    if g != 1:
        A, B, D = A // g, B // g, D // g
    if not B:
        return tuple.__new__(Rational, (A, 0, D, 0))
    return tuple.__new__(QuadSurd, (A, B, D, d))


class _Field(_Exact):
    """Rational's and QuadSurd's base: the fields are the ints (A, B, D, d),
    and _make is their one check, which copying and unpickling go through."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        """The canonical number (A + B*sqrt(d))/D for ints with D != 0 and
        d >= 0: the square factor of d split out, reduced by one gcd, a
        Rational where B*sqrt(d) is rational."""
        fields = tuple(fields)
        if len(fields) != 4 or not all(isinstance(v, int) for v in fields[:3]):
            raise MalformedInputError("an exact number's fields are the four ints A, B, D, d")
        A, B, D, d = fields
        if not isinstance(d, int):
            raise MalformedInputError(f"a radicand is an int, got {type(d).__name__}")
        if d < 0:
            raise MalformedInputError(_NEGATIVE_RADICAND)
        if not D:
            raise MalformedInputError("zero denominator in an exact number's fields")
        # a bool or an int subclass is stored as an int
        return _canonical(int(A), int(B), int(D), d)

    def __reduce__(self):
        return self._make, (tuple(self),)


def _part(x) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction (any numbers.Rational)."""
    if isinstance(x, numbers.Rational):
        return x.numerator, x.denominator
    raise MalformedInputError(f"exact parts are ints or Fractions, got {type(x).__name__}")


class Rational(_Field, namedtuple("Rational", "A B D d")):
    """An exact rational number A/D, reduced, with D > 0 and B = d = 0."""

    __slots__ = ()

    def __new__(cls, num, den=1):
        (n1, d1), (n2, d2) = _part(num), _part(den)
        if not n2:  # str() of a numerator past the int-string digit limit raises
            if max(abs(n1), d1) >= 10 ** 40:
                shown = "with a numerator of over 40 digits"
            else:  # a Fraction numerator prints its own slash: (3/2)/0, not 3/2/0
                shown = f"{num}/0" if isinstance(num, int) else f"({num})/0"
            raise MalformedInputError(f"zero denominator in rational {shown}")
        return _build(n1 * d2, 0, d1 * n2, 0)

    @property
    def value(self):
        """The Fraction A/D, built when read."""
        from fractions import Fraction  # it loads decimal: only a reader pays for both
        return Fraction(self.A, self.D)


class QuadSurd(_Field, namedtuple("QuadSurd", "A B D d")):
    """a + b*sqrt(d), held as (A + B*sqrt(d))/D, with the square factor of d
    split out; b = 0 or a perfect-square d yields a Rational."""

    __slots__ = ()

    def __new__(cls, a, b, d):
        (an, ad), (bn, bd) = _part(a), _part(b)
        return cls._make((an * bd, bn * ad, ad * bd, d))

    @property
    def a(self):
        """The rational part a, a Fraction built when read."""
        from fractions import Fraction
        return Fraction(self.A, self.D)

    @property
    def b(self):
        """The coefficient b of sqrt(d), a Fraction built when read."""
        from fractions import Fraction
        return Fraction(self.B, self.D)


class Constant(Enum):
    E = "e"
    PI = "pi"


class NamedTranscendental(_Exact, namedtuple("NamedTranscendental", "tag")):
    """One of the tagged constants e, pi.  Opaque to field arithmetic."""

    __slots__ = ()

    def __new__(cls, tag):
        try:
            return tuple.__new__(cls, (Constant(tag),))
        except ValueError:
            raise MalformedInputError('a named constant is "e", "pi" or a Constant') from None


ExactNumber = Rational | QuadSurd | NamedTranscendental

E = NamedTranscendental(Constant.E)
PI = NamedTranscendental(Constant.PI)
ZERO = Rational(0)
ONE = Rational(1)


def _square_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f, for n >= 1, and f 1 or the canonical
    radicand.  Trial division stops once p**3 exceeds the cofactor m still
    to split (m then has at most two prime factors, so it is a square or
    squarefree) or at p = 2**20, which bounds the time; m is then tested
    for a perfect square.  Arithmetic results are never split again."""
    s, f, m, p = 1, 1, n, 2
    while p < 2 ** 20 and p * p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        if m % p == 0:
            m //= p
            f *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    return (s * r, f) if r * r == m else (s, f * m)


def _check(x: ExactNumber) -> ExactNumber:
    """x itself if it is an exact number; anything else, a tuple too, raises."""
    if isinstance(x, (QuadSurd, Rational, NamedTranscendental)):
        return x
    raise MalformedInputError(f"not an exact number: got {type(x).__name__}")


def _ints(x: ExactNumber) -> tuple[int, int, int, int] | None:
    """x itself, the ints (A, B, D, d) with x = (A + B*sqrt(d))/D, D > 0 and
    B = d = 0 for a Rational; None for e or pi."""
    if isinstance(x, (QuadSurd, Rational)):
        return x
    _check(x)  # raises unless x is e or pi
    return None


def _field_pair(x: ExactNumber, y: ExactNumber):
    """Ints (A1, B1, D1, A2, B2, D2, d): x = (A1 + B1*sqrt(d))/D1, y likewise."""
    px, py = _ints(x), _ints(y)
    if px is None or py is None:
        raise UnsupportedOperandError(
            "field arithmetic on e or pi is not supported; they are opaque tags")
    (a1, b1, e1, d1), (a2, b2, e2, d2) = px, py
    if d1 != d2 and d1 and d2:
        r = isqrt(d1 * d2)
        if r * r != d1 * d2:
            # the text is built when read: the classifiers catch and drop it.
            # str() of a radicand past the int-string digit limit raises, so
            # one of 2^132 or more (40 digits or more) is named by its size,
            # as Rational names a long numerator
            if max(d1, d2).bit_length() <= 132:
                raise UnsupportedFieldError(
                    "cannot combine sqrt(%d) and sqrt(%d) in a single operation", d1, d2)
            raise UnsupportedFieldError("cannot combine two quadratic fields in a single "
                                        "operation, one with a radicand of 40 or more digits")
        # one field: sqrt(d_large) = r/d_small * sqrt(d_small)
        if d1 > d2:
            a1, b1, e1, d1 = a1 * d2, b1 * r, e1 * d2, d2
        else:
            a2, b2, e2 = a2 * d1, b2 * r, e2 * d1
    return a1, b1, e1, a2, b2, e2, d1 or d2


def add(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, e1, a2, b2, e2, d = _field_pair(x, y)
    return _build(a1 * e2 + a2 * e1, b1 * e2 + b2 * e1, e1 * e2, d)


def sub(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, e1, a2, b2, e2, d = _field_pair(x, y)
    return _build(a1 * e2 - a2 * e1, b1 * e2 - b2 * e1, e1 * e2, d)


def neg(x: ExactNumber) -> ExactNumber:
    return sub(ZERO, x)


def mul(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, e1, a2, b2, e2, d = _field_pair(x, y)
    return _build(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, e1 * e2, d)


def div(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    """Exact division; rationalizes by the conjugate for surd divisors."""
    a1, b1, e1, a2, b2, e2, d = _field_pair(x, y)
    if not a2 and not b2:
        raise ZeroDivisionError("exact division by zero")
    # 1/(a2 + b2 sqrt(d)) = (a2 - b2 sqrt(d)) / (a2^2 - b2^2 d), the norm
    # nonzero: the canonical divisor is nonzero and sqrt(d) irrational
    n = e1 * (a2 * a2 - b2 * b2 * d)
    return _build(e2 * (a1 * a2 - b1 * b2 * d), e2 * (b1 * a2 - a1 * b2), n, d)


def sign(x: ExactNumber) -> int:
    """Exact sign in {-1, 0, +1} by integer comparisons only."""
    parts = _ints(x)
    if parts is None:
        raise UnsupportedOperandError("exact sign of e or pi is not provided here")
    a, b, _, d = parts  # the sign of (a + b*sqrt(d))/D, D > 0
    return _sign_ints(a, b, d)


def _sign_ints(a: int, b: int, d: int) -> int:
    """The sign of a + b*sqrt(d) for ints, with b = 0 or d >= 2 not a
    perfect square: the one sign rule, which sign and the classifiers'
    guards read."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:  # b = 0 (a Rational), a = 0, or a and b share a sign
        return sa or sb
    # a surd, canonical: d >= 2 is not a perfect square, so a*a != b*b*d
    return sa if a * a > b * b * d else sb


def classify_number(x: ExactNumber) -> ArithmeticClass:
    """Arithmetic class of a single exact number; never Unknown."""
    parts = _ints(x)
    if parts is None:
        return ArithmeticClass.TRANSCENDENTAL
    return ArithmeticClass.ALGEBRAIC_IRRATIONAL if parts[3] else ArithmeticClass.RATIONAL


def _quotient(n: int, m: int) -> float:
    """n/m for ints, m > 0, correctly rounded; +-inf past the double range."""
    try:
        return n / m
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def to_real(x: ExactNumber) -> float:
    """Round to the nearest double, correctly rounded.

    A surd (A + B*sqrt(d))/D lies strictly between (A*2^k + B*s)/(D*2^k) and
    (A*2^k + B*(s+1))/(D*2^k), s = isqrt(d*4^k).  From k = 128, k doubles
    until both ends round to one double, the rounded value even under heavy
    cancellation such as 3 - 2*sqrt(2); the value is irrational, so this
    ends.  A value beyond the double range raises MalformedInputError.
    """
    if isinstance(x, NamedTranscendental):
        return math.e if x.tag is Constant.E else math.pi
    A, B, D, d = _ints(x)  # anything not an exact number raises here
    r, k = _quotient(A, D), 128  # a Rational's value; a surd's comes from the loop
    while B:
        n, m = (A << k) + B * isqrt(d << 2 * k), D << k
        r = _quotient(n, m)
        # a zero r needs the ends of one sign, to tell -0.0 from 0.0
        if r == _quotient(n + B, m) and (r or n * (n + B) > 0):
            break
        k *= 2
    if math.isinf(r):
        raise MalformedInputError("the exact value is beyond the double range")
    return r


def is_algebraic(x: ExactNumber) -> bool:
    return not isinstance(_check(x), NamedTranscendental)


# Certified 50-decimal-digit enclosures, ((lo num, den), (hi num, den)) per
# constant.  The digits are truncations, so lo < constant < hi holds strictly
_ENCLOSURES = {
    Constant.E: ((271828182845904523536028747135266249775724709369995, 10 ** 50),
                 (271828182845904523536028747135266249775724709369996, 10 ** 50)),
    Constant.PI: ((314159265358979323846264338327950288419716939937510, 10 ** 50),
                  (314159265358979323846264338327950288419716939937511, 10 ** 50)),
}


def rational_bounds(x: NamedTranscendental):
    """Certified rational enclosure (lo, hi) of Fractions with lo < value < hi."""
    if not isinstance(x, NamedTranscendental):
        raise UnsupportedOperandError(f"rational_bounds expects e or pi, got {type(x).__name__}")
    from fractions import Fraction
    return tuple(Fraction(n, m) for n, m in _ENCLOSURES[x.tag])


# The whole grammar: a surd, a rational, e or pi.  Groups: a surd's a as
# (num, den), its operator and leading minus, b as (num, den) and d; a
# rational's (num, den); e.  An absent den is None.  The lookahead skips the
# surd branch for text with no "s", which would otherwise back off through
# every digit of a rational
_EXACT_RE = re.compile(
    r"(?=[^s]*s)(?:([+-]?\d+)(?:/(\d+))?([+-]))?(-)?(?:(\d+)(?:/(\d+))?\*)?sqrt\(([+-]?\d+)\)"
    r"|([+-]?\d+)(?:/(\d+))?|(e)|pi")


# Past sys.get_int_max_str_digits() digits, int() of a digit string and str()
# of an int raise ValueError; both surface as MalformedInputError here
_DIGIT_LIMIT = "the interpreter's limit on int-string conversion (sys.set_int_max_str_digits)"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(
            f"a {len(text.lstrip('+-'))}-digit integer is beyond {_DIGIT_LIMIT}") from None


def parse_exact(text: str) -> ExactNumber:
    """Parse the exact-number grammar; the result is canonical."""
    s = "".join(text.split()).lower()  # str.split() drops exactly what \s matches
    m = _EXACT_RE.fullmatch(s)
    if m is None:
        raise MalformedInputError(f"cannot parse exact number {text!r}" if s
                                  else "empty exact-number text")
    a_num, a_den, op, minus, b_num, b_den, d_text, r_num, r_den, e = m.groups()
    if op and minus:
        raise MalformedInputError(f"cannot parse exact number {text!r} (double sign)")
    try:
        # ints in reading order; a zero den is refused, with the text of a
        # Rational, before the next part is read
        if r_num is not None:
            n, d = int(r_num), int(r_den) if r_den else 1
            if not d:
                Rational(n, 0)
            return _build(n, 0, d, 0)
        if d_text is None:
            return E if e else PI
        an, ad = (int(a_num), int(a_den) if a_den else 1) if a_num else (0, 1)
        if not ad:
            Rational(an, 0)
        bn, bd = (int(b_num), int(b_den) if b_den else 1) if b_num else (1, 1)
        if not bd:
            Rational(bn, 0)
        d = int(d_text)
    except MalformedInputError:
        raise
    except ValueError:  # int() refused a digit string past the limit: _int names it
        for t in (r_num, r_den, a_num, a_den, b_num, b_den, d_text):
            if t:
                _int(t)
        raise
    if op == "-" or minus:
        bn = -bn
    if d < 0:
        raise MalformedInputError(_NEGATIVE_RADICAND)
    return _canonical(an * bd, bn * ad, ad * bd, d)


def _ratio(n: int, m: int) -> str:
    """The text of n/m for coprime ints, m > 0: str() of the Fraction n/m."""
    return str(n) if m == 1 else f"{n}/{m}"


def render_exact(x: ExactNumber) -> str:
    """Render in the same grammar parse_exact accepts; round-trips exactly.
    A term with more digits than str() of an int allows raises
    MalformedInputError."""
    try:
        if isinstance(x, Rational):
            return _ratio(x.A, x.D)
        if isinstance(x, QuadSurd):
            A, B, D, d = x
            g = math.gcd(B, D)  # b = B/D and a = A/D, each printed in lowest terms
            coeff = _ratio(abs(B) // g, D // g)
            mag = f"sqrt({d})" if coeff == "1" else f"{coeff}*sqrt({d})"
            if not A:
                return mag if B > 0 else f"-{mag}"
            g = math.gcd(A, D)
            return f"{_ratio(A // g, D // g)}{'+' if B > 0 else '-'}{mag}"
        if isinstance(x, NamedTranscendental):
            return x.tag.value
    except ValueError:
        raise MalformedInputError(f"the exact value has a term beyond {_DIGIT_LIMIT}") from None
    _check(x)  # no case fit: x is not an exact number, and this raises
