"""Deformed exponential and logarithm of order q.

exp_q follows the three-branch definition: the classical exponential at
q = 1, the power form [1 + (1-q) z]^(1/(1-q)) while the bracket stays
nonnegative, and a hard cutoff of exactly 0.0 once the bracket goes
negative.  At a bracket of exactly zero the power degenerates: 0 for
q < 1 (positive exponent), +inf for q > 1 (negative exponent).

_ln_exp_q is the one owner of ln exp_q, its cutoff and its overflow branch.
It computes log1p(u) / (1-q) with u = (1-q) z, which keeps accuracy near
q = 1 and large |z|, so only q == 1.0 itself takes the classical formulas.
exp_q is exp of it, and floating overflow saturates to +inf, the same
sentinel as the boundary divergence.
"""

from __future__ import annotations

import math
import numbers
from collections import namedtuple

from .errors import DomainError, MalformedInputError

__all__ = [
    "Interval",
    "positivity_domain",
    "exp_q",
    "ln_q",
    "dlnq_dz",
]


class Interval(namedtuple("Interval", "lo hi lo_closed hi_closed")):
    """Real interval with individually open or closed endpoints, a named
    tuple (lo, hi, lo_closed, hi_closed)."""

    __slots__ = ()

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, z: float) -> bool:
        lo, hi, lo_closed, hi_closed = self
        above = z >= lo if lo_closed else z > lo
        below = z <= hi if hi_closed else z < hi
        return above and below

    def __str__(self) -> str:
        if self.is_empty:
            return "(empty)"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo:g}, {self.hi:g}{rb}"


def positivity_domain(q: float) -> Interval:
    """Where exp_q(q, .) is strictly positive and finite: all reals at
    q = 1, else the open half line on the near side of the cutoff point
    1/(q-1), above it for q < 1 and below it for q > 1."""
    q = _require_finite("q", q)
    if q == 1.0:
        return Interval(-math.inf, math.inf, False, False)
    bound = 1.0 / (q - 1.0)
    if q < 1.0:
        return Interval(bound, math.inf, False, False)
    return Interval(-math.inf, bound, False, False)


def _require_finite(name: str, v: float) -> float:
    """v as a float: a float as it is, any other numbers.Real through float();
    MalformedInputError for a non-real, non-finite or out-of-range v."""
    if v.__class__ is not float:
        # an int skips the numbers.Real ABC test, which costs about 0.2 us
        if v.__class__ is not int and not isinstance(v, numbers.Real):
            raise MalformedInputError(f"{name} must be a finite real, got {v!r}")
        try:
            v = float(v)
        except OverflowError:  # an int or Fraction beyond the double range
            raise MalformedInputError(
                f"{name} must be a finite real, got a value beyond the double range") from None
    if not math.isfinite(v):
        raise MalformedInputError(f"{name} must be a finite real, got {v!r}")
    return v


def _positive_real(name: str, z) -> float:
    """z as a float when it is a finite real number > 0 (int, float,
    Fraction, ...), decided on z itself: MalformedInputError for a non-real z
    (as _require_finite) or a z > 0 beyond the double range, DomainError for
    z <= 0 or non-finite z."""
    if type(z) is float:  # the common case, without the numbers.Real ABC test's cost
        if 0.0 < z < math.inf:
            return z
    elif not isinstance(z, numbers.Real):
        raise MalformedInputError(f"z must be a finite real, got {z!r}")
    elif 0 < z < math.inf:
        x = _require_finite("z", z)
        if x > 0.0:
            return x
        raise MalformedInputError(f"{name} needs z within the double range, got a z > 0 "
                                  "that rounds to 0")
    raise DomainError("%s is defined for z > 0 only, got z = %r", name, z)


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_q(q: float, z: float) -> float:
    """Deformed exponential of order q at z."""
    return _exp_q(_require_finite("q", q), _require_finite("z", z))


def _exp_q(q: float, z: float) -> float:
    """exp_q on finite floats, unchecked: exp of the kernel _ln_exp_q.  It
    calls math.exp itself, not _safe_exp: one Python call fewer per table
    row, public exp_q and branch point."""
    x = _ln_exp_q(q, z)
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ln_exp_q(q: float, z: float) -> float:
    """ln exp_q(z) on finite floats, unchecked.  Outside the domain it is the
    log of exp_q's values: -inf past the cutoff, -inf or +inf at a zero bracket."""
    if q == 1.0:
        return z
    u = (1.0 - q) * z
    if u > -1.0:
        if u < math.inf:
            return math.log1p(u) / (1.0 - q)
        # u overflowed, and only there log1p(u) = log(u) to double precision
        return (math.log(abs(1.0 - q)) + math.log(abs(z))) / (1.0 - q)
    # past the cutoff exp_q is 0; at a zero bracket (u = -1) a positive
    # exponent collapses (q < 1) and a negative one diverges (q > 1)
    return -math.inf if u < -1.0 or q < 1.0 else math.inf


def ln_q(q: float, z: float) -> float:
    """Deformed logarithm, the inverse of exp_q on z > 0.

    (z^(1-q) - 1)/(1-q), natural log at q = 1.  Where the power is at least
    e^(1/2) or at most e^(-1/2), |(1-q) log z| >= 1/2, the subtraction keeps
    pow's own rounding small; nearer 1, expm1 keeps the difference from
    cancelling.  Where 1 - q is not a double, the pow form corrects to first
    order for the rounding e of 1 - q, found by a two-sum; uncorrected, e cost
    about |(1-q) log z| ulp.  Where only the power overflows, the half power
    over 1 - q times the half power.  Within 2 ulp of the exact value on the
    sweep in tests/test_qexp.py, and 3 on its overflow points.
    """
    q = _require_finite("q", q)
    z = _positive_real("ln_q", z)
    if q == 1.0:
        return math.log(z)
    om = 1.0 - q
    try:
        power = math.pow(z, om)
    except OverflowError:
        power = math.inf
    if 0.6065306597126334 < power < 1.6487212707001282:  # |(1-q) log z| < 1/2
        return math.expm1(om * math.log(z)) / om
    # 1 - q = om + e exactly (Knuth's two-sum)
    b = om - 1.0
    e = (1.0 - (om - b)) + (-q - b)
    if power == math.inf:
        # past the double range the 1 is below an ulp of the power, and
        # power/om may still be finite: the half power over om, times the
        # half power.  Where the half power overflows too, so does the
        # quotient, as |1-q| <= DBL_MAX
        try:
            half = math.pow(z, 0.5 * om)
        except OverflowError:
            return math.inf / om
        r = (half / om) * half
        # the first-order correction for e, as below, with power - 1 = power;
        # not to an infinite r, where a correction of the other sign gives nan
        return r + r * (e * math.log(z) - e / om) if abs(r) < math.inf else r
    t = power - 1.0
    if not e:
        return t / om
    # z^e = 1 + e log z and 1/(om + e) = (1 - e/om)/om, each to first order
    # in |e log z| < 1e-13; the correction is added last, and the grouping
    # keeps each product in range
    return t / om + (power * (e * math.log(z)) - t * (e / om)) / om


def dlnq_dz(q: float, z: float) -> float:
    """Derivative of ln_q at z > 0, which is z^(-q) for every q: one pow,
    within 1 ulp of the exact value on the sweep in tests/test_qexp.py."""
    q = _require_finite("q", q)
    z = _positive_real("dlnq_dz", z)
    try:
        return math.pow(z, -q)
    except OverflowError:
        return math.inf
