"""Exact arithmetic over the rationals and real quadratic fields Q(sqrt(d)).

Numbers are one of three closed-form shapes:

* ``Rational`` wraps a reduced ``fractions.Fraction`` (arbitrary precision).
* ``QuadSurd`` is a + b*sqrt(d).  Canonical form has b != 0 and d a
  squarefree integer >= 2, so a canonical surd is irrational by
  construction and its arithmetic class needs no search.
* ``NamedTranscendental`` tags the constants e and pi.  They are opaque:
  no field arithmetic, no exact sign; only certified rational enclosures.

Within one field Q(sqrt(d)) the four operations are closed; a Rational is a
member of every field.  Combining surds over distinct squarefree bases is
rejected (``UnsupportedFieldError``) rather than embedded in a bigger field.
Each public function normalizes its arguments once; the arithmetic then
builds its canonical results directly.

Sign evaluation never touches floating point: for a + b*sqrt(d) it compares
a*a against b*b*d together with the signs of a and b.

The text grammar (case-insensitive, whitespace ignored) accepted by
``parse_exact`` and emitted by ``render_exact``::

    p/q   p   a+b*sqrt(d)   a-b*sqrt(d)   b*sqrt(d)   sqrt(d)   -sqrt(d)   e   pi

with a, b rationals in the same grammar and d a nonnegative integer.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
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
    "rational",
    "surd",
    "normalize",
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


@dataclass(frozen=True)
class Rational:
    """An exact rational number (reduced by Fraction itself)."""

    value: Fraction


@dataclass(frozen=True)
class QuadSurd:
    """a + b*sqrt(d).  Canonical once b != 0 and d is squarefree >= 2."""

    a: Fraction
    b: Fraction
    d: int


class Constant(Enum):
    E = "e"
    PI = "pi"


@dataclass(frozen=True)
class NamedTranscendental:
    """One of the tagged constants e, pi.  Opaque to field arithmetic."""

    tag: Constant


ExactNumber = Rational | QuadSurd | NamedTranscendental

E = NamedTranscendental(Constant.E)
PI = NamedTranscendental(Constant.PI)
ZERO = Rational(Fraction(0))
ONE = Rational(Fraction(1))


def rational(num: int, den: int = 1) -> Rational:
    """Build a Rational from an integer pair; zero denominators are malformed."""
    try:
        return Rational(Fraction(num, den))
    except ZeroDivisionError:
        raise MalformedInputError(f"zero denominator in rational {num}/{den}") from None


def surd(a, b, d: int) -> ExactNumber:
    """Build and normalize a + b*sqrt(d); may collapse to a Rational."""
    return normalize(QuadSurd(Fraction(a), Fraction(b), d))


def _square_split(n: int) -> tuple[int, int]:
    """Return (s, f) with n = s*s*f and f squarefree, for n >= 1.

    Trial division stops once p**3 exceeds the cofactor m still to split:
    m then has at most two prime factors, so it is a square or squarefree.
    """
    s, f, m, p = 1, 1, n, 2
    while p * p * p <= m:
        while m % (p * p) == 0:
            m //= p * p
            s *= p
        if m % p == 0:
            m //= p
            f *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    return (s * r, f) if r * r == m else (s, f * m)


def normalize(x: ExactNumber) -> ExactNumber:
    """Canonicalize: reduce the radicand to squarefree form, collapse b = 0
    and perfect squares to Rational.  Idempotent."""
    match x:
        case Rational() | NamedTranscendental():
            return x
        case QuadSurd(a, b, d):
            a, b = Fraction(a), Fraction(b)
            if not isinstance(d, int):
                raise MalformedInputError(f"radicand must be an integer, got {d!r}")
            if d < 0:
                raise MalformedInputError(f"negative radicand sqrt({d}) has no real value")
            if b == 0 or d == 0:
                return Rational(a)
            s, f = _square_split(d)
            if f == 1:
                return Rational(a + b * s)
            return QuadSurd(a, b * s, f)
    raise MalformedInputError(f"not an exact number: {x!r}")


def _lift(x: Rational | QuadSurd) -> tuple[Fraction, Fraction]:
    if isinstance(x, Rational):
        return x.value, Fraction(0)
    return x.a, x.b


def _field_pair(x: ExactNumber, y: ExactNumber):
    """Normalize both operands and place them in one field.

    Returns (a1, b1, a2, b2, d) where d is None when both are rational.
    """
    x, y = normalize(x), normalize(y)
    if isinstance(x, NamedTranscendental) or isinstance(y, NamedTranscendental):
        raise UnsupportedOperandError(
            "field arithmetic on e or pi is not supported; they are opaque tags")
    if isinstance(x, QuadSurd) and isinstance(y, QuadSurd) and x.d != y.d:
        raise UnsupportedFieldError(
            f"cannot combine sqrt({x.d}) and sqrt({y.d}) in a single operation")
    d = x.d if isinstance(x, QuadSurd) else (y.d if isinstance(y, QuadSurd) else None)
    (a1, b1), (a2, b2) = _lift(x), _lift(y)
    return a1, b1, a2, b2, d


def _build(a: Fraction, b: Fraction, d: int | None) -> ExactNumber:
    """The canonical a + b*sqrt(d); d comes from an operand that _field_pair
    normalized, so it is squarefree and >= 2."""
    if d is None or b == 0:
        return Rational(a)
    return QuadSurd(a, b, d)


def add(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, a2, b2, d = _field_pair(x, y)
    return _build(a1 + a2, b1 + b2, d)


def sub(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, a2, b2, d = _field_pair(x, y)
    return _build(a1 - a2, b1 - b2, d)


def neg(x: ExactNumber) -> ExactNumber:
    return sub(ZERO, x)


def mul(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    a1, b1, a2, b2, d = _field_pair(x, y)
    if d is None:
        return Rational(a1 * a2)
    return _build(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d)


def div(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    """Exact division; rationalizes by the conjugate for surd divisors."""
    a1, b1, a2, b2, d = _field_pair(x, y)
    if a2 == 0 and b2 == 0:
        raise ZeroDivisionError("exact division by zero")
    if d is None:
        return Rational(a1 / a2)
    # 1/(a2 + b2 sqrt(d)) = (a2 - b2 sqrt(d)) / (a2^2 - b2^2 d)
    # nonzero: the canonical divisor is nonzero and sqrt(d) irrational
    n = a2 * a2 - b2 * b2 * d
    return _build((a1 * a2 - b1 * b2 * d) / n, (b1 * a2 - a1 * b2) / n, d)


def sign(x: ExactNumber) -> int:
    """Exact sign in {-1, 0, +1} by integer comparisons only."""
    match normalize(x):
        case Rational(v):
            return (v > 0) - (v < 0)
        case QuadSurd(a, b, d):
            # canonical here: b != 0, d squarefree >= 2
            if a == 0:
                return 1 if b > 0 else -1
            sa = 1 if a > 0 else -1
            sb = 1 if b > 0 else -1
            if sa == sb:
                return sa
            # a*a != b*b*d, as sqrt(d) is irrational
            return sa if a * a > b * b * d else sb
        case NamedTranscendental():
            raise UnsupportedOperandError("exact sign of e or pi is not provided here")
    raise MalformedInputError(f"not an exact number: {x!r}")


def classify_number(x: ExactNumber) -> ArithmeticClass:
    """Arithmetic class of a single exact number; never Unknown."""
    match normalize(x):
        case Rational():
            return ArithmeticClass.RATIONAL
        case QuadSurd():
            return ArithmeticClass.ALGEBRAIC_IRRATIONAL
        case NamedTranscendental():
            return ArithmeticClass.TRANSCENDENTAL
    raise MalformedInputError(f"not an exact number: {x!r}")


_SQRT_BITS = 128


def to_real(x: ExactNumber) -> float:
    """Round to the nearest double.

    Surds go through a 128-bit rational enclosure of sqrt(d) so the final
    rounding happens once, on the exact sum; the result is correct to 1 ulp
    even under heavy cancellation such as 3 - 2*sqrt(2).  A value beyond the
    double range raises MalformedInputError.
    """
    x = normalize(x)
    try:
        match x:
            case Rational(v):
                return float(v)
            case QuadSurd(a, b, d):
                approx = Fraction(isqrt(d << (2 * _SQRT_BITS)), 1 << _SQRT_BITS)
                return float(a + b * approx)
            case NamedTranscendental(tag):
                return math.e if tag is Constant.E else math.pi
    except OverflowError:  # float() of a Fraction past the largest double
        raise MalformedInputError("the exact value is beyond the double range") from None
    raise MalformedInputError(f"not an exact number: {x!r}")


def is_algebraic(x: ExactNumber) -> bool:
    return not isinstance(normalize(x), NamedTranscendental)


# Certified 50-decimal-digit enclosures.  The digit strings are truncations,
# so LO < constant < HI holds strictly.
_E_LO = Fraction("2.71828182845904523536028747135266249775724709369995")
_E_HI = Fraction("2.71828182845904523536028747135266249775724709369996")
_PI_LO = Fraction("3.14159265358979323846264338327950288419716939937510")
_PI_HI = Fraction("3.14159265358979323846264338327950288419716939937511")


def rational_bounds(x: NamedTranscendental) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure (lo, hi) with lo < value < hi."""
    if not isinstance(x, NamedTranscendental):
        raise UnsupportedOperandError(f"rational_bounds expects a named constant, got {x!r}")
    return (_E_LO, _E_HI) if x.tag is Constant.E else (_PI_LO, _PI_HI)


_RAT = r"[+-]?\d+(?:/\d+)?"
_URAT = r"\d+(?:/\d+)?"
_RAT_RE = re.compile(rf"^{_RAT}$")
_SURD_RE = re.compile(
    rf"^(?:(?P<a>{_RAT})(?P<op>[+-]))?(?P<neg>-)?(?:(?P<b>{_URAT})\*)?sqrt\((?P<d>[+-]?\d+)\)$"
)


# Past sys.get_int_max_str_digits() digits, int() of a digit string and str()
# of an int raise ValueError; both surface as MalformedInputError here
_DIGIT_LIMIT = "the interpreter's limit on int-string conversion (sys.set_int_max_str_digits)"


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise MalformedInputError(
            f"a {len(text)}-digit integer is beyond {_DIGIT_LIMIT}") from None


def _fraction_from_text(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        if _int(den) == 0:
            raise MalformedInputError(f"zero denominator in {text!r}")
        return Fraction(_int(num), _int(den))
    return Fraction(_int(text))


def parse_exact(text: str) -> ExactNumber:
    """Parse the exact-number grammar; the result is normalized."""
    s = re.sub(r"\s+", "", text).lower()
    if not s:
        raise MalformedInputError("empty exact-number text")
    if s == "e":
        return E
    if s == "pi":
        return PI
    if _RAT_RE.match(s):
        return Rational(_fraction_from_text(s))
    m = _SURD_RE.match(s)
    if not m:
        raise MalformedInputError(f"cannot parse exact number {text!r}")
    if m["op"] and m["neg"]:
        raise MalformedInputError(f"cannot parse exact number {text!r} (double sign)")
    a = _fraction_from_text(m["a"]) if m["a"] else Fraction(0)
    b = _fraction_from_text(m["b"]) if m["b"] else Fraction(1)
    if m["op"] == "-" or m["neg"]:
        b = -b
    d = _int(m["d"])
    if d < 0:
        raise MalformedInputError(f"negative radicand in {text!r}")
    return normalize(QuadSurd(a, b, d))


def render_exact(x: ExactNumber) -> str:
    """Render in the same grammar parse_exact accepts; round-trips exactly.
    A term with more digits than str() of an int allows raises
    MalformedInputError."""
    x = normalize(x)
    try:
        match x:
            case Rational(v):
                return str(v)
            case QuadSurd(a, b, d):
                root = f"sqrt({d})"
                mag = root if abs(b) == 1 else f"{abs(b)}*{root}"
                if a == 0:
                    return mag if b > 0 else f"-{mag}"
                return f"{a}{'+' if b > 0 else '-'}{mag}"
            case NamedTranscendental(tag):
                return tag.value
    except ValueError:
        raise MalformedInputError(f"the exact value has a term beyond {_DIGIT_LIMIT}") from None
    raise MalformedInputError(f"not an exact number: {x!r}")
