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
  prime factor p > 2**20 may stay in d: sqrt(p*p*d) compares unequal to
  p*sqrt(d) and is another field, so mixing the two raises
  ``UnsupportedFieldError``; ``sign``, ``classify_number`` and ``to_real``
  stay exact.
* ``NamedTranscendental(tag)`` tags e and pi ("e", "pi" or a ``Constant``).
  They are opaque: no field arithmetic, no exact sign; only certified
  rational enclosures.

Within one field Q(sqrt(d)) the four operations are closed; a Rational is a
member of every field.  Combining surds over distinct canonical radicands is
rejected (``UnsupportedFieldError``) rather than embedded in a bigger field.
Building a QuadSurd splits its radicand once; the arithmetic builds its
results past the constructors and never splits again.  _parts, which reads
an operand as (a, b, d), is an operation's one type test of it: anything
not an exact number raises ``MalformedInputError`` there, before e or pi
is refused.  The classifiers check their operands once, at their entry.

Sign evaluation never touches floating point: for a + b*sqrt(d) it compares
a*a against b*b*d together with the signs of a and b.

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
            raise MalformedInputError("a negative radicand has no real square root")
        if b == 0 or d == 0:
            return tuple.__new__(Rational, (a,))
        s, f = _square_split(d)
        if f == 1:
            return tuple.__new__(Rational, (a + b * s,))
        return tuple.__new__(cls, (a, b * s, f))


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


def _parts(x: ExactNumber) -> tuple[Fraction, Fraction | int, int] | None:
    """(a, b, d) with x = a + b*sqrt(d), d = 0 for a Rational; None for e or
    pi.  Anything else, a tuple of the same fields too, raises."""
    # isinstance, not a match: the class pattern Rational(v) costs three times as much
    if isinstance(x, QuadSurd):
        return x
    if isinstance(x, Rational):
        return x.value, 0, 0
    if isinstance(x, NamedTranscendental):
        return None
    raise MalformedInputError(f"not an exact number: got {type(x).__name__}")


def _check(x: ExactNumber) -> ExactNumber:
    """x itself if it is an exact number; anything else, a tuple too, raises."""
    _parts(x)
    return x


def _field_pair(x: ExactNumber, y: ExactNumber):
    """(a1, b1, a2, b2, d), both operands in one field; d = 0 if both are rational."""
    px, py = _parts(x), _parts(y)
    if px is None or py is None:
        raise UnsupportedOperandError(
            "field arithmetic on e or pi is not supported; they are opaque tags")
    (a1, b1, d1), (a2, b2, d2) = px, py
    if d1 and d2 and d1 != d2:
        raise UnsupportedFieldError(
            f"cannot combine sqrt({d1}) and sqrt({d2}) in a single operation")
    return a1, b1, a2, b2, d1 or d2


def _build(a: Fraction, b: Fraction | int, d: int) -> ExactNumber:
    """The canonical a + b*sqrt(d); d, from a canonical operand, is not split."""
    if b == 0:
        return tuple.__new__(Rational, (a,))
    return tuple.__new__(QuadSurd, (a, b, d))


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
    if not d:  # each zero surd term would still cost a Fraction operation
        return tuple.__new__(Rational, (a1 * a2,))
    return _build(a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1, d)


def div(x: ExactNumber, y: ExactNumber) -> ExactNumber:
    """Exact division; rationalizes by the conjugate for surd divisors."""
    a1, b1, a2, b2, d = _field_pair(x, y)
    if a2 == 0 and b2 == 0:
        raise ZeroDivisionError("exact division by zero")
    if not d:
        return tuple.__new__(Rational, (a1 / a2,))
    # 1/(a2 + b2 sqrt(d)) = (a2 - b2 sqrt(d)) / (a2^2 - b2^2 d)
    # nonzero: the canonical divisor is nonzero and sqrt(d) irrational
    n = a2 * a2 - b2 * b2 * d
    return _build((a1 * a2 - b1 * b2 * d) / n, (b1 * a2 - a1 * b2) / n, d)


def sign(x: ExactNumber) -> int:
    """Exact sign in {-1, 0, +1} by integer comparisons only."""
    parts = _parts(x)
    if parts is None:
        raise UnsupportedOperandError("exact sign of e or pi is not provided here")
    a, b, d = parts
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:  # b = 0 (a Rational), a = 0, or a and b share a sign
        return sa or sb
    # a surd, canonical: d >= 2 is not a perfect square, so a*a != b*b*d
    return sa if a * a > b * b * d else sb


def classify_number(x: ExactNumber) -> ArithmeticClass:
    """Arithmetic class of a single exact number; never Unknown."""
    parts = _parts(x)
    if parts is None:
        return ArithmeticClass.TRANSCENDENTAL
    return ArithmeticClass.ALGEBRAIC_IRRATIONAL if parts[2] else ArithmeticClass.RATIONAL


_SQRT_BITS = 128


def to_real(x: ExactNumber) -> float:
    """Round to the nearest double.

    Surds go through a 128-bit rational enclosure of sqrt(d) so the final
    rounding happens once, on the exact sum; the result is correct to 1 ulp
    even under heavy cancellation such as 3 - 2*sqrt(2).  A value beyond the
    double range raises MalformedInputError.
    """
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
    _check(x)  # no case fit: x is not an exact number, and this raises


def is_algebraic(x: ExactNumber) -> bool:
    return _parts(x) is not None


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
    num, _, den = text.partition("/")
    return Rational(_int(num), _int(den)).value if den else Fraction(_int(num))


def parse_exact(text: str) -> ExactNumber:
    """Parse the exact-number grammar; the result is canonical."""
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
    a = _fraction_from_text(m["a"]) if m["a"] else 0
    b = _fraction_from_text(m["b"]) if m["b"] else 1
    return QuadSurd(a, -b if m["op"] == "-" or m["neg"] else b, _int(m["d"]))


def render_exact(x: ExactNumber) -> str:
    """Render in the same grammar parse_exact accepts; round-trips exactly.
    A term with more digits than str() of an int allows raises
    MalformedInputError."""
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
    _check(x)  # no case fit: x is not an exact number, and this raises
