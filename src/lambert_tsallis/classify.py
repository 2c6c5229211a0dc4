"""Arithmetic-nature classification for values of the deformed functions.

Verdicts, named tuples Classification, come from a guarded decision
procedure over exact inputs (`exact.ExactNumber`), which are canonical
by construction.  Each classify_* checks its operands' type once and then
tests their shapes directly: an operand equals 0, 1 or 2 when its class is
Rational and its Fraction equals that int, a test that skips the
numbers.Rational check Fraction.__eq__ makes against another Fraction.
The guards read their signs from the operands' ints (exact._ints,
exact._field_pair) through exact._sign_ints, the one sign rule, and build
no intermediate exact record: classify_expq's bracket 1 + (1-q) z for
algebraic q, z and classify_wq's q < 2 are one integer sign each.  Every
Transcendental verdict cites a rule whose hypotheses were checked on the
inputs, so a verdict is never wrong; when no rule applies the result is the
legal verdict Unknown with rule GuardFallthrough.

Floating point enters in one place, the z_b guard of classify_wq: for surd
q < 2 and z < 0, W_q(z) is real only for z >= z_b, which has no exact form
here.  z is compared exactly with the double z_b of branch_point(to_real(q))
widened by a relative 1e-12, far above that double's error: below the band
is a DomainError, inside it Unknown.

The rules:

* Theorem1: q algebraic irrational  =>  W_q(1) transcendental.
* Theorem2: q algebraic irrational, z nonzero algebraic with
  1 + (1-q) z > 0  =>  exp_q(z) transcendental (Gelfond-Schneider with
  base 1 + (1-q) z and exponent 1/(1-q)).
* Theorem3: q algebraic irrational, z nonzero algebraic, W_q(z) real  =>
  W_q(z) transcendental (else exp_q(W) = z/W would contradict the Theorem-2
  argument).
* Theorem4: q algebraic irrational, z0 positive algebraic, z0 != 1  =>
  d ln_q/dz at z0, i.e. z0^(-q), transcendental.
* Theorem5: q rational != 1, z in {e, pi} with 1 + (1-q) z > 0  =>
  exp_q(z) transcendental (transcendental base to a nonzero rational
  power).  The bracket sign is decided exactly against certified rational
  enclosures of e and pi; a negative bracket is the cutoff, value 0.
* Theorem6: r rational, non-integer, positive  =>  the right-associative
  tower r^(r^r) is transcendental (r^r is algebraic irrational, then
  Gelfond-Schneider).

Decision orders are fixed and documented on each function; the chosen rule
is a pure function of the input variants.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .errors import DomainError, MalformedInputError, UnsupportedFieldError
from .exact import (ONE, ZERO, ArithmeticClass, ExactNumber, NamedTranscendental,
                    QuadSurd, Rational, _check, _field_pair, _ints, _sign_ints, add,
                    classify_number, div, rational_bounds, render_exact, sign, sub, to_real)
# mul is unused here, but bench/spans.py wraps it at this name
from .exact import mul  # noqa: F401
from .wq import branch_point

__all__ = [
    "Rule",
    "Classification",
    "classify_expq",
    "classify_wq",
    "classify_lnq_derivative",
    "classify_tower",
]


class Rule(Enum):
    THEOREM_1 = "theorem1"
    THEOREM_2 = "theorem2"
    THEOREM_3 = "theorem3"
    THEOREM_4 = "theorem4"
    THEOREM_5 = "theorem5"
    THEOREM_6 = "theorem6"
    CLASSICAL_EXP = "classical_exp"
    CLASSICAL_W1 = "classical_w1"
    CLOSED_FORM_Q2 = "closed_form_q2"
    CUTOFF_ZERO = "cutoff_zero"
    EXACT_VALUE = "exact_value"
    GUARD_FALLTHROUGH = "guard_fallthrough"


class Classification(namedtuple("Classification", "verdict rule justification exact_value",
                                 defaults=(None,))):
    """A named tuple: the verdict, the Rule that gave it, its justification
    and, where the value is known exactly, exact_value (else None)."""

    __slots__ = ()

    def to_record(self) -> dict:
        """Structured record for serialization (exact_value in the text grammar)."""
        return {
            "verdict": self.verdict.value,
            "rule": self.rule.value,
            "justification": self.justification,
            "exact_value": None if self.exact_value is None
            else render_exact(self.exact_value),
        }


def _unknown(reason: str) -> Classification:
    return Classification(ArithmeticClass.UNKNOWN, Rule.GUARD_FALLTHROUGH, reason)


# Relative half-width of the band around the double z_b in which
# classify_wq answers Unknown.  Against 60-digit mpmath, the relative error
# of the double branch_point(to_real(q)).z_b was at most 7.8e-16 over the
# 2 222 surd q < 2 of benchmark seeds 1-5 and 7.7e-15 over values next to
# 1, next to 2 and down to -1e16: next to 2 it grows like eps |log(2-q)|,
# to about 1e-14 before q rounds to 2.  Below -1e16, where branch_point
# takes exp_q(w_b) in closed form, it was at most 2.7e-16 down to -1.7e308.
_ZB_MARGIN = Fraction(1, 10**12)


def _double_z_b(q: QuadSurd) -> float | None:
    """The double z_b of branch_point(to_real(q)) for a surd q < 2; None if q
    rounds to 2 or lies below the double range."""
    try:
        bp = branch_point(to_real(q))
    except MalformedInputError:  # q is beyond the double range
        return None
    return None if bp is None else bp.z_b


def _widened(z_b: float, side: int) -> Rational:
    """z_b * (1 + side * _ZB_MARGIN) for side +-1, built from ints."""
    (n, m), (u, v) = z_b.as_integer_ratio(), _ZB_MARGIN.as_integer_ratio()
    return Rational(n * (v + side * u), m * v)


def _bracket_sign_algebraic(q: ExactNumber, z: ExactNumber) -> int | None:
    """Exact sign of 1 + (1-q) z for algebraic q, z; None if q and z lie in
    two different quadratic fields (single-surd arithmetic cannot combine
    them)."""
    try:
        a1, b1, e1, a2, b2, e2, d = _field_pair(q, z)
    except UnsupportedFieldError:
        return None
    # q = (a1 + b1 sqrt(d))/e1, z likewise, so with c = e1 - a1 the bracket
    # is (e1 e2 + c a2 - b1 b2 d + (c b2 - b1 a2) sqrt(d))/(e1 e2), e1 e2 > 0
    c = e1 - a1
    return _sign_ints(e1 * e2 + c * a2 - b1 * b2 * d, c * b2 - b1 * a2, d)


def _below_two(q: QuadSurd) -> bool:
    """q < 2, the sign of q - 2 = (A - 2 D + B sqrt(d))/D read from q's ints."""
    A, B, D, d = _ints(q)
    return _sign_ints(A - 2 * D, B, d) < 0


def _bracket_sign_named(q: Rational, z: NamedTranscendental) -> int | None:
    """Exact sign of 1 + (1-q) z for rational q and z in {e, pi}, decided by
    interval arithmetic over a certified rational enclosure of z.  None in
    the (practically unreachable) case that the enclosure straddles zero."""
    n, m = q.value.numerator, q.value.denominator
    # each end 1 + (1-q) e times m * e.denominator > 0, in ints
    ends = [m * e.denominator + (m - n) * e.numerator for e in rational_bounds(z)]
    if min(ends) > 0:
        return 1
    if max(ends) < 0:
        return -1
    return None


def classify_expq(q: ExactNumber, z: ExactNumber) -> Classification:
    """Arithmetic nature of exp_q(z) for exact q, z.

    Decision order: (a) z = 0 -> Rational(1); (b) q = 1, z algebraic ->
    ClassicalExp; (c) q != 1 algebraic, z algebraic, bracket sign < 0 ->
    CutoffZero (= 0 exactly; a vanishing bracket degenerates and falls
    through); (d) q algebraic irrational, z nonzero algebraic, bracket > 0
    -> Theorem2; (e) q rational != 1, z in {e, pi} -> Theorem5 behind the
    same cutoff guard; (f) otherwise Unknown.
    """
    q, z = _check(q), _check(z)
    if z.__class__ is Rational and z.value == 0:
        return Classification(
            ArithmeticClass.RATIONAL, Rule.EXACT_VALUE,
            "exp_q(0) = 1 exactly for every deformation q.", ONE)
    if q.__class__ is Rational and q.value == 1 and not isinstance(z, NamedTranscendental):
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.CLASSICAL_EXP,
            f"q = 1 is the classical exponential and z = {render_exact(z)} is a "
            "nonzero algebraic number, so e^z is transcendental "
            "(Hermite-Lindemann).")
    if not isinstance(q, NamedTranscendental) and not isinstance(z, NamedTranscendental):
        s = _bracket_sign_algebraic(q, z)
        if s is None:
            return _unknown(
                f"q = {render_exact(q)} and z = {render_exact(z)} live in distinct "
                "quadratic fields; the cutoff sign 1 + (1-q) z is not decidable in "
                "single-surd arithmetic, so no rule applies.")
        if s < 0:
            return Classification(
                ArithmeticClass.RATIONAL, Rule.CUTOFF_ZERO,
                f"1 + (1-q) z < 0 (exact sign), so exp_q({render_exact(z)}) sits in "
                "the cutoff region and equals 0 exactly.", ZERO)
        if s == 0:
            return _unknown(
                "1 + (1-q) z = 0 exactly: the power degenerates at the cutoff "
                "boundary (0 for q < 1, divergent for q > 1) and no rule applies.")
        if isinstance(q, QuadSurd):
            return Classification(
                ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_2,
                f"q = {render_exact(q)} is algebraic irrational and z = "
                f"{render_exact(z)} is nonzero algebraic with 1 + (1-q) z > 0; the "
                "base 1 + (1-q) z is algebraic, neither 0 nor 1, and the exponent "
                "1/(1-q) is algebraic irrational, so Gelfond-Schneider makes "
                "exp_q(z) transcendental.")
        # q rational != 1 with algebraic z: the exponent 1/(1-q) is rational,
        # Gelfond-Schneider does not reach it
    if q.__class__ is Rational and q.value != 1 and isinstance(z, NamedTranscendental):
        s = _bracket_sign_named(q, z)
        if s is not None and s < 0:
            return Classification(
                ArithmeticClass.RATIONAL, Rule.CUTOFF_ZERO,
                f"1 + (1-q) {render_exact(z)} < 0 (certified enclosure), so the "
                "value sits in the cutoff region and equals 0 exactly.", ZERO)
        if s is not None and s > 0:
            return Classification(
                ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_5,
                f"z = {render_exact(z)} is transcendental and q is rational with "
                "q != 1, and 1 + (1-q) z > 0 (certified enclosure): the base "
                "1 + (1-q) z is transcendental and the exponent 1/(1-q) is a "
                "nonzero rational, so exp_q(z) is transcendental.")
        return _unknown(
            "the enclosure of 1 + (1-q) z straddles zero; the cutoff guard "
            "cannot be decided.")
    return _unknown(
        f"no decision rule covers q = {render_exact(q)}, z = {render_exact(z)} "
        "(a rational deformation of an algebraic argument, a transcendental "
        "deformation, or an unguarded combination).")


def classify_wq(q: ExactNumber, z: ExactNumber) -> Classification:
    """Arithmetic nature of W_q(z) on the real branch, for exact q, z.

    Decision order: (a) z = 0 -> Rational(0); (b) q = 2 -> exact closed
    form z/(1+z) by field arithmetic (domain error at and below the pole
    z = -1); (c) q = 1, z = 1 -> ClassicalW1; (d) q algebraic irrational,
    z = 1 -> Theorem1; (e) q algebraic irrational, z nonzero algebraic ->
    Theorem3, behind the z_b guard for q < 2 and z < 0: a domain error
    below the band around the double z_b, Unknown inside it or where no
    usable double z_b exists; (f) otherwise Unknown.
    """
    q, z = _check(q), _check(z)
    if z.__class__ is Rational and z.value == 0:
        return Classification(
            ArithmeticClass.RATIONAL, Rule.EXACT_VALUE,
            "W_q(0) = 0 exactly for every q (0 is the only solution of "
            "w exp_q(w) = 0 on the principal branch).", ZERO)
    if q.__class__ is Rational and q.value == 2 and not isinstance(z, NamedTranscendental):
        one_plus_z = add(ONE, z)
        if sign(one_plus_z) <= 0:
            raise DomainError(
                f"W_2(z) = z/(1+z) has a pole at z = -1 and no real value for "
                f"z <= -1; got z = {render_exact(z)}")
        value = div(z, one_plus_z)
        return Classification(
            classify_number(value), Rule.CLOSED_FORM_Q2,
            f"q = 2 has the closed form W_2(z) = z/(1+z) = {render_exact(value)}; "
            "its arithmetic class is read off the exact value.", value)
    if q.__class__ is Rational and q.value == 1 and z.__class__ is Rational and z.value == 1:
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.CLASSICAL_W1,
            "q = 1, z = 1: W(1) is the omega constant, transcendental "
            "(were it algebraic, e^W(1) = 1/W(1) would contradict "
            "Lindemann-Weierstrass).")
    if isinstance(q, QuadSurd) and z.__class__ is Rational and z.value == 1:
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_1,
            f"q = {render_exact(q)} is algebraic irrational; x = W_q(1) satisfies "
            "x^(q-1) - (1-q) x - 1 = 0 with 0 < x != 1, so an algebraic x would "
            "make x^(q-1) transcendental by Gelfond-Schneider (exponent q-1 "
            "algebraic irrational) while (1-q) x + 1 stays algebraic: "
            "contradiction, hence W_q(1) is transcendental.")
    if isinstance(q, QuadSurd) and not isinstance(z, NamedTranscendental):
        if sign(z) < 0 and _below_two(q):
            # W_q(z) is real only for z >= z_b
            z_b = _double_z_b(q)
            if z_b is not None and sign(sub(z, _widened(z_b, 1))) < 0:
                raise DomainError(
                    f"W_q(z) has no real value below the branch point z_b = "
                    f"{z_b!r} of q = {render_exact(q)}; got z = {render_exact(z)}")
            if z_b is None or sign(sub(z, _widened(z_b, -1))) <= 0:
                return _unknown(
                    f"z = {render_exact(z)} is not clear of the branch point z_b of "
                    f"q = {render_exact(q)}: it lies within a relative 1e-12 of the "
                    "double z_b, or no usable double z_b exists, so whether W_q(z) "
                    "is real is not decided.")
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_3,
            f"q = {render_exact(q)} is algebraic irrational and z = "
            f"{render_exact(z)} is nonzero algebraic; were W_q(z) algebraic, "
            "exp_q(W_q(z)) = z/W_q(z) would be algebraic, contradicting the "
            "Theorem-2 argument at the nonzero algebraic argument W_q(z) "
            "(the bracket 1 + (1-q) W is positive wherever the branch value "
            "exists).")
    return _unknown(
        f"no decision rule covers q = {render_exact(q)}, z = {render_exact(z)} "
        "(rational q other than the q = 2 closed form, or a transcendental "
        "input, leaves the value unresolved).")


def classify_lnq_derivative(q: ExactNumber, z0: ExactNumber) -> Classification:
    """Arithmetic nature of d ln_q/dz at z0, i.e. of z0^(-q).

    Decision order: (a) z0 = 1 -> Rational(1), the Gelfond-Schneider base-1
    guard; (b) q algebraic irrational, z0 positive algebraic != 1 ->
    Theorem4; (c) q a rational integer, z0 rational -> exact power;
    (d) otherwise Unknown.  z0 <= 0 is a domain error; an exact power with
    more digits than the interpreter converts to text is MalformedInputError.
    """
    q, z0 = _check(q), _check(z0)
    if not isinstance(z0, NamedTranscendental) and sign(z0) <= 0:
        raise DomainError(
            f"the deformed logarithm needs z0 > 0, got z0 = {render_exact(z0)}")
    if z0.__class__ is Rational and z0.value == 1:
        return Classification(
            ArithmeticClass.RATIONAL, Rule.EXACT_VALUE,
            "z0 = 1 gives 1^(-q) = 1 exactly; base 1 is excluded from "
            "Gelfond-Schneider, so the transcendence rule deliberately does "
            "not fire here.", ONE)
    if isinstance(q, QuadSurd) and not isinstance(z0, NamedTranscendental):
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_4,
            f"d ln_q/dz at z0 equals z0^(-q); z0 = {render_exact(z0)} is "
            f"algebraic, positive, not 0 or 1, and -q = -({render_exact(q)}) is "
            "algebraic irrational, so Gelfond-Schneider makes the value "
            "transcendental.")
    if isinstance(q, Rational) and q.value.denominator == 1 and isinstance(z0, Rational):
        # The larger term of z0^(-q) has 1 + floor(|q| log10 m) digits, with
        # m = max(|num|, den) >= 2: refuse a power that render_exact could not
        # print before computing it.  Each factor adds over 1/4 digit, so |q|
        # clamped to 4*limit still refuses; the limit is 0 where there is none.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        m = max(abs(z0.value.numerator), z0.value.denominator)
        if limit and min(abs(int(q.value)), 4 * limit) * math.log10(m) >= limit:
            raise MalformedInputError(
                f"z0^(-q) has more than {limit} decimal digits, the interpreter's "
                "limit on int-string conversion")
        value = Rational(z0.value ** (-int(q.value)))
        return Classification(
            ArithmeticClass.RATIONAL, Rule.EXACT_VALUE,
            f"integer q = {q.value} gives the exact rational power z0^(-q) = "
            f"{render_exact(value)}.", value)
    return _unknown(
        f"no decision rule covers q = {render_exact(q)}, z0 = {render_exact(z0)} "
        "(non-integer rational q, a surd z0 with rational q, or a "
        "transcendental input stays unresolved).")


def classify_tower(r: ExactNumber) -> Classification:
    """Arithmetic nature of the right-associative tower r^(r^r).

    Positive non-integer rational r -> Theorem6 (transcendental).  Integer
    r >= 0 -> Unknown (the rule needs a non-integer; the tower is then a
    plain rational power, out of scope here).  Other r (negative, or with
    an irrational/transcendental base) -> Unknown when positive, domain
    error when r <= 0 (the real tower is undefined for most negative bases).
    """
    r = _check(r)
    if isinstance(r, Rational):
        v = r.value
        if v.denominator == 1:
            if v.numerator >= 0:
                return _unknown(
                    f"r = {v} is an integer: the tower rule requires a positive "
                    "non-integer rational (for integer r the tower is a plain "
                    "integer power and the r^r exponent is not irrational).")
            raise DomainError(
                f"unsupported base r = {v}: the real-valued tower is undefined "
                "for negative bases in general")
        if v.numerator < 0:
            raise DomainError(
                f"unsupported base r = {v}: a negative non-integer base has no "
                "real-valued tower (irrational exponent on a negative number)")
        return Classification(
            ArithmeticClass.TRANSCENDENTAL, Rule.THEOREM_6,
            f"r = {v} is a positive non-integer rational, so r^r is algebraic "
            "irrational (irrationality of rational powers of non-integer "
            "rationals, taken as given); Gelfond-Schneider with algebraic base "
            "r not 0 or 1 and algebraic irrational exponent r^r then makes the "
            "right-associative tower r^(r^r) transcendental.")
    if isinstance(r, QuadSurd):
        if sign(r) < 0:
            raise DomainError(
                f"unsupported base r = {render_exact(r)}: negative bases have no "
                "real-valued tower in general")
        return _unknown(
            f"r = {render_exact(r)} is a quadratic irrational; the tower rule "
            "requires r to be a non-integer rational, so it does not apply.")
    return _unknown(
        f"r = {render_exact(r)} is transcendental; the tower rule requires a "
        "positive non-integer rational base.")
