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
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError, MalformedInputError

__all__ = [
    "DomainKind",
    "QExpDomain",
    "positivity_domain",
    "exp_q",
    "ln_q",
    "dlnq_dz",
]

class DomainKind(Enum):
    ALL_REALS = "all_reals"
    HALF_LINE_LOWER = "half_line_lower"  # exp_q positive strictly above the bound
    HALF_LINE_UPPER = "half_line_upper"  # exp_q finite positive strictly below the bound


@dataclass(frozen=True)
class QExpDomain:
    """Where exp_q(q, .) is strictly positive (and finite)."""

    kind: DomainKind
    bound: float | None

    def strictly_positive_at(self, z: float) -> bool:
        if self.kind is DomainKind.ALL_REALS:
            return True
        if self.kind is DomainKind.HALF_LINE_LOWER:
            return z > self.bound
        return z < self.bound


def positivity_domain(q: float) -> QExpDomain:
    """Positivity region of exp_q: all reals at q = 1, else a half line
    bounded by the cutoff point 1/(q-1)."""
    _require_finite("q", q)
    if q == 1.0:
        return QExpDomain(DomainKind.ALL_REALS, None)
    bound = 1.0 / (q - 1.0)
    kind = DomainKind.HALF_LINE_LOWER if q < 1.0 else DomainKind.HALF_LINE_UPPER
    return QExpDomain(kind, bound)


def _require_finite(name: str, v: float) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise MalformedInputError(f"{name} must be a finite real, got {v!r}")
    return v


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def exp_q(q: float, z: float) -> float:
    """Deformed exponential of order q at z."""
    q = _require_finite("q", q)
    z = _require_finite("z", z)
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
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0.0):
        raise DomainError(f"ln_q is defined for z > 0 only, got z = {z!r}")
    z = float(z)
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
    if not (isinstance(z, (int, float)) and math.isfinite(z) and z > 0.0):
        raise DomainError(f"dlnq_dz is defined for z > 0 only, got z = {z!r}")
    return _safe_exp(-q * math.log(float(z)))
