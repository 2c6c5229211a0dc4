"""Deformed exponential and logarithm of order q.

exp_q follows the three-branch definition: the classical exponential at
q = 1, the power form [1 + (1-q) z]^(1/(1-q)) while the bracket stays
nonnegative, and a hard cutoff of exactly 0.0 once the bracket goes
negative.  At a bracket of exactly zero the power degenerates: 0 for
q < 1 (positive exponent), +inf for q > 1 (negative exponent).

Powers of a positive base are computed as exp(log1p(u) / (1-q)) with
u = (1-q) z, which keeps accuracy near q = 1 and large |z|, so only
q == 1.0 itself takes the classical formulas.  Floating overflow saturates
to +inf, the same sentinel as the boundary divergence.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import DomainError, MalformedInputError

__all__ = [
    "Interval",
    "positivity_domain",
    "exp_q",
    "ln_q",
    "dlnq_dz",
]


@dataclass(frozen=True)
class Interval:
    """Real interval with individually open or closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    @classmethod
    def empty(cls) -> "Interval":
        return cls(math.inf, -math.inf, False, False)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, z: float) -> bool:
        above = z >= self.lo if self.lo_closed else z > self.lo
        below = z <= self.hi if self.hi_closed else z < self.hi
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
    Fraction, ...), decided on z itself: DomainError for z <= 0, non-finite
    or non-real z, MalformedInputError for a z > 0 beyond the double range."""
    if isinstance(z, numbers.Real) and 0 < z < math.inf:
        x = _require_finite("z", z)
        if x > 0.0:
            return x
        raise MalformedInputError(f"{name} needs z within the double range, got a z > 0 "
                                  "that rounds to 0")
    raise DomainError(f"{name} is defined for z > 0 only, got z = {z!r}")


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_q(q: float, z: float) -> float:
    """Deformed exponential of order q at z."""
    return _exp_q(_require_finite("q", q), _require_finite("z", z))


def _exp_q(q: float, z: float) -> float:
    """exp_q on finite floats, unchecked: the kernel behind exp_q."""
    if q == 1.0:
        return _safe_exp(z)
    u = (1.0 - q) * z
    bracket = 1.0 + u
    if bracket > 0.0:
        # u overflows only where log1p(u) = log(u) to double precision
        lg = math.log1p(u) if u < math.inf else math.log(abs(1.0 - q)) + math.log(abs(z))
        try:
            return math.exp(lg / (1.0 - q))
        except OverflowError:
            return math.inf
    if bracket < 0.0:
        return 0.0
    # bracket exactly zero: positive exponent collapses, negative diverges
    return 0.0 if q < 1.0 else math.inf


def ln_q(q: float, z: float) -> float:
    """Deformed logarithm, the inverse of exp_q on z > 0.

    (z^(1-q) - 1)/(1-q), natural log at q = 1.  Uses expm1 so the
    difference does not cancel for q near 1 or z near 1.
    """
    q = _require_finite("q", q)
    z = _positive_real("ln_q", z)
    if q == 1.0:
        return math.log(z)
    om = 1.0 - q
    try:
        return math.expm1(om * math.log(z)) / om
    except OverflowError:
        return math.inf / om


def dlnq_dz(q: float, z: float) -> float:
    """Derivative of ln_q at z > 0, which is z^(-q) for every q."""
    q = _require_finite("q", q)
    return _safe_exp(-q * math.log(_positive_real("dlnq_dz", z)))
