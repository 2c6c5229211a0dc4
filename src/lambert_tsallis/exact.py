"""Exact arithmetic over the rationals and real quadratic fields Q(sqrt(d)).

Numbers are one of three closed-form shapes, named tuples that do not order,
all canonical by construction: a shape's constructor is the one place where
its parts are checked (parts other than ints or Fractions, a radicand other
than an int, a tag other than a Constant raise ``MalformedInputError``) and
made canonical; _replace, _make, copying and unpickling build through it.

* ``Rational(num, den=1)`` wraps the reduced ``fractions.Fraction`` num/den.
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

Within one field Q(sqrt(d)) the four operations are closed; a Rational is a
member of every field.  Radicands d1, d2 name one field when d1*d2 = r*r,
and sqrt(d_large) = r/d_small * sqrt(d_small); surds over different fields
are rejected (``UnsupportedFieldError``) rather than embedded in a bigger
field.  Building a QuadSurd splits its radicand once; the arithmetic builds
its results past the constructors and never splits again.  _ints, which
reads an operand as ints (A, B, D, d) with x = (A + B*sqrt(d))/D, is an
operation's one type test of it: anything not an exact number raises
``MalformedInputError`` there, before e or pi is refused.  The classifiers
check their operands once, at their entry.  No Fraction operator or
constructor runs in the arithmetic, sign, to_real, parsing or rendering:
each part of a result is built by _fraction, which reduces it by one gcd
and sets Fraction's two slots, _numerator and _denominator, directly.

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
from fractions import Fraction
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
    _replace, builds through the constructor."""

    __slots__ = ()

    def __lt__(self, other):
        return NotImplemented

    __le__ = __gt__ = __ge__ = __lt__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def _part(x):
    """x itself if it is an int or a Fraction (any numbers.Rational)."""
    if isinstance(x, (int, Fraction, numbers.Rational)):  # the ABC check is the slow one
        return x
    raise MalformedInputError(f"exact parts are ints or Fractions, got {type(x).__name__}")


class Rational(_Exact, namedtuple("Rational", "value")):
    """An exact rational number, the reduced Fraction num/den."""

    __slots__ = ()

    def __new__(cls, num, den=1):
        if type(num) is Fraction and type(den) is int and den == 1:
            return tuple.__new__(cls, (num,))
        num, den = _part(num), _part(den)
        if den == 0:  # str() of a numerator past the int-string digit limit raises
            small = max(abs(num.numerator), num.denominator) < 10 ** 40
            shown = f"{num}/0" if small else "with a numerator of over 40 digits"
            raise MalformedInputError(f"zero denominator in rational {shown}")
        return tuple.__new__(cls, (Fraction(num, den),))


_NEGATIVE_RADICAND = "a negative radicand has no real square root"


class QuadSurd(_Exact, namedtuple("QuadSurd", "a b d")):
    """a + b*sqrt(d) with the square factor of d split out; b = 0 or a
    perfect-square d yields a Rational."""

    __slots__ = ()

    def __new__(cls, a, b, d):
        # a Fraction is kept as it is: Fraction(f) copies it at about 1 us
        a = a if type(a) is Fraction else Fraction(_part(a))
        b = b if type(b) is Fraction else Fraction(_part(b))
        if not isinstance(d, int):
            raise MalformedInputError(f"a radicand is an int, got {type(d).__name__}")
        if d < 0:
            raise MalformedInputError(_NEGATIVE_RADICAND)
        if not b.numerator or d == 0:
            return tuple.__new__(Rational, (a,))
        s, f = _square_split(d)
        if f == 1:  # a + b*s
            return _build(a.numerator * b.denominator + b.numerator * s * a.denominator, 0,
                          a.denominator * b.denominator, 0)
        b = b if s == 1 else _fraction(b.numerator * s, b.denominator)
        return tuple.__new__(cls, (a, b, f))


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
    """(A, B, D, d) in ints with x = (A + B*sqrt(d))/D, D > 0 and d = 0 for
    a Rational; None for e or pi."""
    # isinstance, not a match: the class pattern Rational(v) costs three times as much
    if isinstance(x, QuadSurd):
        a, b, d = x
        ad, bd = a.denominator, b.denominator
        return a.numerator * bd, b.numerator * ad, ad * bd, d
    if isinstance(x, Rational):
        v = x.value
        return v.numerator, 0, v.denominator, 0
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


def _fraction(n: int, d: int) -> Fraction:
    """The reduced Fraction n/d for ints n and d != 0, the sign moved to n
    (div's norm can make d negative).  One gcd reduces it, and its two slots
    are set past Fraction.__new__, which tests its arguments' types first:
    0.33 us for small ints against 0.67 us for Fraction(n, d) (Python 3.11,
    2-core x86 VM)."""
    g = math.gcd(n, d)
    if d < 0:
        g = -g
    if g != 1:
        n, d = n // g, d // g
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _build(a: int, b: int, e: int, d: int) -> ExactNumber:
    """The canonical (a + b*sqrt(d))/e from ints; d, canonical already, is not split."""
    if not b:
        return tuple.__new__(Rational, (_fraction(a, e),))
    return tuple.__new__(QuadSurd, (_fraction(a, e), _fraction(b, e), d))


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


# Certified 50-decimal-digit enclosures.  The digit strings are truncations,
# so LO < constant < HI holds strictly.
_E_LO = Fraction("2.71828182845904523536028747135266249775724709369995")
_E_HI = Fraction("2.71828182845904523536028747135266249775724709369996")
_PI_LO = Fraction("3.14159265358979323846264338327950288419716939937510")
_PI_HI = Fraction("3.14159265358979323846264338327950288419716939937511")


def rational_bounds(x: NamedTranscendental) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure (lo, hi) with lo < value < hi."""
    if not isinstance(x, NamedTranscendental):
        raise UnsupportedOperandError(f"rational_bounds expects e or pi, got {type(x).__name__}")
    return (_E_LO, _E_HI) if x.tag is Constant.E else (_PI_LO, _PI_HI)


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
            return tuple.__new__(Rational, (_fraction(n, d),))
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
    if not bn or d == 0:
        return tuple.__new__(Rational, (_fraction(an, ad),))
    s, f = _square_split(d)  # a + b*sqrt(d) = a + b*s*sqrt(f)
    if f == 1:
        return _build(an * bd + bn * s * ad, 0, ad * bd, 0)
    return tuple.__new__(QuadSurd, (_fraction(an, ad), _fraction(bn * s, bd), f))


def render_exact(x: ExactNumber) -> str:
    """Render in the same grammar parse_exact accepts; round-trips exactly.
    A term with more digits than str() of an int allows raises
    MalformedInputError."""
    try:
        if isinstance(x, Rational):
            return str(x.value)
        if isinstance(x, QuadSurd):
            a, b, d = x
            bn, bd = b.numerator, b.denominator
            coeff = str(abs(bn)) if bd == 1 else f"{abs(bn)}/{bd}"  # str(abs(b))
            mag = f"sqrt({d})" if coeff == "1" else f"{coeff}*sqrt({d})"
            if not a.numerator:
                return mag if bn > 0 else f"-{mag}"
            return f"{a!s}{'+' if bn > 0 else '-'}{mag}"
        if isinstance(x, NamedTranscendental):
            return x.tag.value
    except ValueError:
        raise MalformedInputError(f"the exact value has a term beyond {_DIGIT_LIMIT}") from None
    _check(x)  # no case fit: x is not an exact number, and this raises
