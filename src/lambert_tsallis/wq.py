"""Real branches of the deformed Lambert function of order q.

Solves w * exp_q(q, w) = z for w.  The defining function
f(w) = w * exp_q(q, w) has derivative f'(w) = exp_q(w)^q (1 + (2-q) w)
on the positivity domain of exp_q, so for q < 2 it attains a minimum at

    w_b = 1/(q - 2),        z_b = f(w_b) = exp_q(w_b)/(q - 2),

which is the branch point splitting two real inverse branches:

* Upper: w >= w_b, defined on [z_b, inf).
* Lower: w <= w_b, defined on [z_b, 0).  For q < 1 it terminates at the
  finite wall w = 1/(q-1) where exp_q hits its cutoff zero and z -> 0-;
  for 1 <= q < 2 it runs to w -> -inf.

At q = 2 the candidate w_b escapes to -inf and f(w) = w/(1-w) is strictly
increasing with image (-1, inf): a single branch, no finite branch point.
For q > 2 the formula's w_b = 1/(q-2) lands outside the positivity domain
(w_b > 1/(q-1)), f is strictly increasing over all of it, and the image is
the whole real line.  branch_point therefore returns None for every q >= 2
and the lower branch exists exactly when q < 2.

The solver runs Newton on the log residual

    h(w) = log(w/z) + ln exp_q(w),      h'(w) = 1/w + 1/(1 + (1-q) w),

which is zero at the root (w and z share a sign on every branch) and is the
relative residual f(w)/z - 1 to first order.  It starts inside an analytic
bracket and falls back to bisection over the ordered doubles, arithmetic
on a narrow bracket and geometric across decades, whenever a step leaves
the bracket or |h| fails to halve in two evaluations.  It stops when
|h| <= tol or a step is under 4 ulp of w, and returns the point after that
step.  A bracket closed on adjacent doubles returns its better end, or
raises ConvergenceError when one end is the wall or the end of the double
range: no double approximates the root there.

Inputs are checked once per public call.  wq checks that q and z are
finite, computes branch_point(q) once, and hands the rest to
_check_request (branch, tol, max_iter, lower-branch existence, domain, in
that order); _solve then runs the loop on the checked request and checks
nothing.  dwq_dz reuses the same branch point, and a caller that checks a whole grid
of requests once (the CLI's table) calls _solve per point.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from enum import Enum

from .errors import (ConfigurationError, ConvergenceError, DerivativeSingularError,
                     DomainError, NoBranchPointError)
# Interval is re-exported; exp_q is unused here, but bench/spans.py wraps it at this name
from .qexp import Interval, _exp_q, _require_finite, _safe_exp, exp_q  # noqa: F401

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "Branch",
    "BranchPoint",
    "SolveResult",
    "Interval",
    "branch_point",
    "branch_domain",
    "wq",
    "dwq_dz",
    "wq_closed_form",
]

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 200


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class BranchPoint:
    z_b: float
    w_b: float


@dataclass(frozen=True)
class SolveResult:
    w: float
    branch: Branch
    residual: float
    iterations: int


def branch_point(q: float) -> BranchPoint | None:
    """Branch point (z_b, w_b) for q < 2; None for q >= 2.

    At q = 2 no finite branch point exists, and for q > 2 the stationary
    point of the formula falls outside the positivity domain of exp_q.
    """
    q = _require_finite("q", q)
    if q >= 2.0:
        return None
    w_b = 1.0 / (q - 2.0)
    return BranchPoint(z_b=w_b * _exp_q(q, w_b), w_b=w_b)


def branch_domain(q: float, branch: Branch = Branch.UPPER) -> Interval:
    """Set of z for which the branch has a real value."""
    q = _require_finite("q", q)
    return _domain(q, Branch(branch), branch_point(q))


def _domain(q: float, branch: Branch, bp: BranchPoint | None) -> Interval:
    """branch_domain for a finite q whose branch point bp is known."""
    if branch is Branch.UPPER:
        if bp is not None:
            return Interval(bp.z_b, math.inf, True, False)
        if q == 2.0:
            # f(w) = w/(1-w) increases from the limit -1 at w -> -inf
            return Interval(-1.0, math.inf, False, False)
        # q > 2: image of the strictly increasing f is the whole line
        return Interval(-math.inf, math.inf, False, False)
    if bp is not None:
        return Interval(bp.z_b, 0.0, True, False)
    return Interval.empty()


def _power_tail(q: float, z: float) -> float:
    """The w of z's sign with |w| (|1-q| |w|)^(1/(1-q)) = |z|: the root of
    f once 1 + (1-q) w is replaced by its dominant term (1-q) w.  |f| lies
    above that model for q < 1 and below it for q > 1, so the result bounds
    W on the side _bracket uses it for.  Saturates at the double range."""
    p = q - 1.0
    try:
        m = math.exp((p * math.log(abs(z)) + math.log(abs(p))) / (p - 1.0))
    except OverflowError:
        m = sys.float_info.max
    return math.copysign(m, z)


def _wall_tail(q: float, z: float) -> float:
    """The w with |wall| exp_q(w) = |z| next to the wall 1/(q-1), kept at
    least one double inside it.  Between 0 and the wall |f(w)| < |wall|
    exp_q(w), so this bounds W on the wall's side: from below on the upper
    branch for q > 1 and on the lower branch for q < 1."""
    wall = 1.0 / (q - 1.0)
    w = wall * (1.0 - (z / wall) ** (1.0 - q))
    inner = math.nextafter(wall, 0.0)
    return min(w, inner) if wall > 0.0 else max(w, inner)


def _bracket(q: float, z: float, branch: Branch, bp: BranchPoint | None):
    """Analytic bracket lo < W < hi of the root and a start in [lo, hi].

    z is in the branch's domain and is neither 0 nor z_b.  The ends bound f
    by simpler functions, so f is never evaluated: exp_q(w) >= 1 for w >= 0
    and <= 1 for w < 0 give W <= z (W ~ z for small |z|); for q >= 1,
    exp_q(w) >= e^w gives W < log|z| where |W| >= 1, and s e^(-s) <
    e^(-s/2) gives W > 2 log|z| on the classical lower branch; the tails
    bound the far ends.  Near z_b the start is the root of h's quadratic
    model h(w_b) = log(z_b/z), h''(w_b) = -(2-q)^3.
    """
    if branch is Branch.UPPER and z > 0.0:
        # for q >= 1, exp_q(w) >= e^w bounds W by the classical root, which
        # is below log z once z >= e and below 1 before that
        log_end = max(1.0, math.log(z))
        if q > 1.0:
            wall = 1.0 / (q - 1.0)
            if z > wall:
                lo = _wall_tail(q, z)
                return lo, min(wall, log_end), lo
            # z / (1 + (q-1) z) is the root at q = 2 and stays inside the wall
            hi = min(z, log_end)
            return 0.0, hi, min(hi, z / (1.0 + (q - 1.0) * z))
        # the tail is within 25% of W once (1-q) W > 4; nearer q = 1, W ~ log z
        hi = z if q == 1.0 or z <= 1.0 else min(z, _power_tail(q, z))
        return 0.0, hi, hi if (1.0 - q) * hi > 4.0 else min(hi, log_end)
    if branch is Branch.UPPER:
        if bp is None:
            # exp_q(-s) <= 1/(1+s) for q <= 2 (Bernoulli), so z/(1+z), the
            # root at q = 2, bounds W from above there
            hi = z / (1.0 + z) if q == 2.0 else min(z, _power_tail(q, z))
            return -sys.float_info.max, hi, hi
        lo, hi = bp.w_b, z / (1.0 + z)
    elif q < 1.0:
        wall = 1.0 / (q - 1.0)
        lo, hi = _wall_tail(q, z), bp.w_b
        if lo - wall < 0.25 * (hi - wall):
            # the tail puts W in the quarter of the bracket next to the wall,
            # where it is the better model and the branch-point quadratic fails
            return lo, hi, lo
    else:
        lo = 2.0 * math.log(-z) if q == 1.0 else _power_tail(q, z)
        hi = min(bp.w_b, math.log(-z))
        if (q - 1.0) * (2.0 - q) * lo < -4.0:
            # the tail's relative error is about 1/((q-1)(2-q)|W|): under 25%
            return lo, hi, lo
    d = math.sqrt(2.0 * math.log(bp.z_b / z) / (2.0 - q) ** 3)
    guess = bp.w_b + d if branch is Branch.UPPER else bp.w_b - d
    return lo, hi, min(hi, max(lo, guess))


def _log_residual(q: float, z: float, w: float) -> tuple[float, float]:
    """h(w) = log(w/z) + ln exp_q(w) and its slope h'(w); w and z share a
    sign.  h is zero at the root and equals f(w)/z - 1 to first order."""
    u = (1.0 - q) * w
    if u <= -1.0:
        # at or past the cutoff: exp_q is 0 for q < 1 and +inf for q > 1
        return math.copysign(math.inf, q - 1.0), math.nan
    ratio = w / z
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:
        # w/z over- or underflowed: only far from the root, mid-bisection
        log_ratio = math.log(abs(w)) - math.log(abs(z))
    if q == 1.0:
        ln_exp = w
    elif u < math.inf:
        ln_exp = math.log1p(u) / (1.0 - q)
    else:  # (1-q) w overflowed; the 1 in 1 + (1-q) w is lost anyway
        ln_exp = (math.log(abs(1.0 - q)) + math.log(abs(w))) / (1.0 - q)
    return log_ratio + ln_exp, 1.0 / w + 1.0 / (1.0 + u)


def _ordinal(x: float) -> int:
    """Position of x among the doubles, order-preserving (+-0.0 share 0)."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _from_ordinal(n: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(n)))[0]
    return x if n >= 0 else -x


def wq(q: float, z: float, branch: Branch = Branch.UPPER,
       tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SolveResult:
    """Solve w * exp_q(q, w) = z on the requested branch.

    tol bounds the relative residual |h| = |log(f(w)/z)|; a Newton step
    under 4 ulp of w also ends the iteration, where conditioning puts tol
    out of reach.  SolveResult.residual is |h| at the last point evaluated,
    before the final Newton step.  Raises DomainError outside the branch
    domain, NoBranchPointError for a lower-branch request at q >= 2, and
    ConvergenceError (with the best iterate) when no double approximates
    the root or max_iter evaluations do not suffice.
    """
    q = _require_finite("q", q)
    z = _require_finite("z", z)
    bp = branch_point(q)
    branch = _check_request(q, z, branch, bp, tol, max_iter)
    return _solve(q, z, branch, bp, tol, max_iter)


def _check_request(q: float, z: float, branch: Branch | str, bp: BranchPoint | None,
                   tol: float, max_iter: int) -> Branch:
    """wq's checks after q and z are known finite and bp = branch_point(q),
    in order: the branch, tol, max_iter, the lower branch's existence and
    the branch domain.  Returns the branch as a Branch."""
    branch = Branch(branch)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigurationError(f"tol must be a positive finite real, got {tol!r}")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter!r}")
    if branch is Branch.LOWER and bp is None:
        raise NoBranchPointError(
            f"no lower branch for q = {q:g}: the branch point exists only for q < 2")
    dom = _domain(q, branch, bp)
    if not dom.contains(z):
        raise DomainError(
            f"z = {z!r} is outside the {branch.value}-branch domain {dom} for q = {q:g}")
    return branch


def _solve(q: float, z: float, branch: Branch, bp: BranchPoint | None,
           tol: float, max_iter: int) -> SolveResult:
    """The solver behind wq, unchecked: the request has passed
    _check_request and bp is branch_point(q)."""
    if branch is Branch.UPPER and z == 0.0:
        return SolveResult(0.0, branch, 0.0, 0)
    if bp is not None and z == bp.z_b:
        # both branches meet here, where h has a double root
        return SolveResult(bp.w_b, branch, 0.0, 0)

    lo, hi, w = _bracket(q, z, branch, bp)
    rising = branch is Branch.LOWER or z > 0.0  # h increases through the root
    best_w, best_h = w, math.inf
    back1 = back2 = math.inf  # |h| one and two evaluations ago
    iters = 0
    while iters < max_iter:
        h, slope = _log_residual(q, z, w)
        iters += 1
        ah = abs(h)
        if ah < best_h:
            best_w, best_h = w, ah
        if (h < 0.0) == rising:
            lo = w
        else:
            hi = w
        newton = w - h / slope if slope != 0.0 else math.nan  # h' = 0 at w_b
        inside = lo < newton < hi
        if (ah <= tol or abs(w - newton) <= 4.0 * math.ulp(w)) and (inside or newton == w):
            return SolveResult(newton, branch, ah, iters)
        halved = ah <= 0.5 * back2
        back1, back2 = ah, back1
        if inside and halved:
            w = newton
            continue
        a, b = _ordinal(lo), _ordinal(hi)
        if b - a > 1:
            w = _from_ordinal((a + b) // 2)
            continue
        # closed on adjacent doubles; an analytic end, never evaluated, may be the root
        h_lo, h_hi = (abs(_log_residual(q, z, e)[0]) for e in (lo, hi))
        if math.isinf(h_lo + h_hi) or max(-lo, hi) == sys.float_info.max:
            raise ConvergenceError(
                f"no double approximates the root for q = {q:g}, z = {z!r} "
                f"({branch.value} branch): it lies next to the wall or beyond the "
                f"double range; best w = {best_w!r}",
                best_w=best_w, residual=best_h, iterations=iters)
        return SolveResult(lo if h_lo <= h_hi else hi, branch, min(h_lo, h_hi), iters)

    raise ConvergenceError(
        f"no convergence to tol {tol:g} within {max_iter} iterations for "
        f"q = {q:g}, z = {z!r} ({branch.value} branch); best w = {best_w!r}, "
        f"relative residual = {best_h:.3e}",
        best_w=best_w, residual=best_h, iterations=iters)


def dwq_dz(q: float, z: float, branch: Branch = Branch.UPPER,
           tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> float:
    """Derivative of the branch at z, via the closed form

        dW/dz = -[(1-q) W + 1]^(q/(q-1)) / ((q-2) W - 1)

    and e^(-W)/(1+W) at q = 1.  Diverges (vertical tangent) at the branch
    point.
    """
    q = _require_finite("q", q)
    z = _require_finite("z", z)
    bp = branch_point(q)
    if bp is not None and z == bp.z_b:
        raise DerivativeSingularError(
            f"dW/dz diverges at the branch point z_b = {bp.z_b!r} for q = {q:g}")
    branch = _check_request(q, z, branch, bp, tol, max_iter)
    w = _solve(q, z, branch, bp, tol, max_iter).w
    if q == 1.0:
        den = 1.0 + w
        if den == 0.0:
            raise DerivativeSingularError(f"dW/dz diverges at w = -1 (q = {q:g})")
        try:
            return math.exp(-w) / den
        except OverflowError:
            return math.copysign(math.inf, den)
    den = (q - 2.0) * w - 1.0
    if den == 0.0:
        raise DerivativeSingularError(f"dW/dz diverges at w = {w!r} (q = {q:g})")
    u = (1.0 - q) * w
    if u <= -1.0:
        raise DomainError(
            f"derivative undefined: 1 + (1-q) w = {1.0 + u!r} outside the positivity domain")
    log_num = (q / (q - 1.0)) * math.log1p(u)
    try:
        num = math.exp(log_num)
    except OverflowError:  # the quotient may still be finite: divide in log space
        return -math.copysign(_safe_exp(log_num - math.log(abs(den))), den)
    return -num / den


def wq_closed_form(q: float, z: float, branch: Branch = Branch.UPPER) -> float | None:
    """Closed-form branch values where they exist; None elsewhere.

    q = 2: W(z) = z/(1+z) on z > -1 (single branch).
    q = 0: the defining equation is the quadratic w (1 + w) = z, giving
           (-1 + sqrt(1+4z))/2 upper and (-1 - sqrt(1+4z))/2 lower; the
           lower form is real on this branch only for z in [-1/4, 0).
    Used as an independent oracle against the iterative solver.
    """
    q = _require_finite("q", q)
    z = _require_finite("z", z)
    branch = Branch(branch)
    if q == 2.0:
        if branch is Branch.UPPER and z > -1.0:
            return z / (1.0 + z)
        return None
    if q == 0.0:
        disc = 1.0 + 4.0 * z
        if disc < 0.0:
            return None
        root = math.sqrt(disc)
        if branch is Branch.UPPER:
            return 0.5 * (-1.0 + root)
        if z < 0.0:
            return 0.5 * (-1.0 - root)
        return None
    return None
