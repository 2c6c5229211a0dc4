"""Numerical cross-checks tying the solver, the closed forms, and the
classifier's exact claims together.

Everything here is an independent route to a value computed elsewhere:
defining-equation residuals, derivative-vs-finite-difference consistency,
the polynomial identity satisfied by W_q(1), branch-point geometry, and an
exhaustive meet-in-the-middle scan for small integer polynomials
annihilating a target (a cheap minimal-polynomial probe: a hit certifies
"algebraic to working precision", a miss is evidence, never proof, of
transcendence).

The fixed grids used by the `verify` CLI command and the acceptance tests
are module constants; internal solves run at a relative tol of 1e-13 so
that grid tolerances measure the mathematics, not solver slack.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass

from .errors import ConfigurationError, NoBranchPointError
from .qexp import exp_q, positivity_domain
from .wq import (DEFAULT_MAX_ITER, DEFAULT_TOL, Branch, branch_domain, branch_point,
                 dwq_dz, wq)

__all__ = [
    "CheckResult",
    "BranchPointReport",
    "ScanReport",
    "residual_defining_eq",
    "check_derivative_fd",
    "eq5_residual",
    "branch_point_check",
    "algebraicity_scan",
    "RESIDUAL_Q_GRID",
    "EQ5_Q_GRID",
    "BRANCH_POINT_Q_GRID",
    "run_residual_suite",
    "run_derivative_suite",
    "run_eq5_suite",
    "run_branch_suite",
    "run_scan_suite",
    "run_all",
]

RESIDUAL_Q_GRID = (0.0, 0.5, 1.0, 1.5, math.sqrt(2.0), 2.0, 2.5, 3.0)
EQ5_Q_GRID = (1.5, math.sqrt(2.0), math.sqrt(3.0), 2.5)
BRANCH_POINT_Q_GRID = (0.0, 0.5, 1.0, 1.5)

# Internal solves use a relative residual well below every suite threshold.
# Where conditioning puts it out of reach, as next to the positivity wall,
# the solver's 4-ulp step test ends the solve instead.
_TIGHT_TOL = 1e-13


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    threshold: float


@dataclass(frozen=True)
class BranchPointReport:
    q: float
    z_b: float
    w_b: float
    consistency: float  # |w_b exp_q(w_b) - z_b|
    is_minimum: bool    # f(w_b +- delta) > z_b on both sides
    tangent_growth: bool  # |dW/dz| grows approaching z_b from above
    passed: bool


@dataclass(frozen=True)
class ScanReport:
    target: float
    degree_max: int
    coeff_max: int
    best_poly: tuple[int, ...]  # leading coefficient first
    best_abs_value: float
    hit: bool


def residual_defining_eq(q: float, z: float, branch: Branch = Branch.UPPER,
                         tol: float = DEFAULT_TOL,
                         max_iter: int = DEFAULT_MAX_ITER) -> float:
    """|w exp_q(w) - z| at the solver's w for this q, z, branch."""
    w = wq(q, z, branch, tol, max_iter).w
    return abs(w * exp_q(q, w) - z)


def check_derivative_fd(q: float, z: float, branch: Branch = Branch.UPPER,
                        h: float | None = None) -> float:
    """Relative gap between the closed-form derivative and a central
    difference of the solver, |analytic - fd| / max(|analytic|, tiny).

    z must sit far enough inside the branch domain for z +- h to remain in
    it.  Default step h = 1e-6 * max(1, |z|).
    """
    if h is None:
        h = 1e-6 * max(1.0, abs(z))
    analytic = dwq_dz(q, z, branch, tol=_TIGHT_TOL)
    w_plus = wq(q, z + h, branch, tol=_TIGHT_TOL).w
    w_minus = wq(q, z - h, branch, tol=_TIGHT_TOL).w
    fd = (w_plus - w_minus) / (2.0 * h)
    return abs(analytic - fd) / max(abs(analytic), 1e-300)


def eq5_residual(q: float, tol: float = DEFAULT_TOL) -> float:
    """Residual of the polynomial identity x^(q-1) - (1-q) x - 1 = 0 at
    x = W_q(1) from the iterative solver (x > 0 always)."""
    x = wq(q, 1.0, Branch.UPPER, tol).w
    power = math.exp((q - 1.0) * math.log(x))
    return abs(power - (1.0 - q) * x - 1.0)


def branch_point_check(q: float, delta: float = 1e-4) -> BranchPointReport:
    """Consistency and local geometry of the branch point.

    Checks that (z_b, w_b) satisfies the defining function, that w exp_q(w)
    has a local minimum at w_b (sampled at w_b +- delta), and that the
    branch derivative grows approaching z_b from above (vertical tangent).
    Raises NoBranchPointError for q >= 2.
    """
    bp = branch_point(q)
    if bp is None:
        raise NoBranchPointError(f"no branch point exists for q = {q:g} >= 2")
    if not (delta > 0.0):
        raise ConfigurationError(f"delta must be positive, got {delta!r}")
    if not positivity_domain(q).contains(bp.w_b - delta):
        raise ConfigurationError(
            f"delta = {delta!r} reaches past the positivity wall for q = {q:g}")
    consistency = abs(bp.w_b * exp_q(q, bp.w_b) - bp.z_b)
    left = (bp.w_b - delta) * exp_q(q, bp.w_b - delta)
    right = (bp.w_b + delta) * exp_q(q, bp.w_b + delta)
    is_minimum = left > bp.z_b and right > bp.z_b
    d_far = abs(dwq_dz(q, bp.z_b + delta, Branch.UPPER, tol=_TIGHT_TOL))
    d_near = abs(dwq_dz(q, bp.z_b + delta / 10.0, Branch.UPPER, tol=_TIGHT_TOL))
    tangent_growth = d_near > d_far
    passed = consistency <= 1e-12 and is_minimum and tangent_growth
    return BranchPointReport(q=q, z_b=bp.z_b, w_b=bp.w_b, consistency=consistency,
                             is_minimum=is_minimum, tangent_growth=tangent_growth,
                             passed=passed)


_U = 2.0 ** -53  # unit roundoff of a double


def _horner(coeffs: tuple[int, ...], x: float) -> float:
    """p(x) by Horner in double precision, leading coefficient first.
    Leading zero coefficients leave the value bit for bit unchanged."""
    v = 0.0
    for c in coeffs:
        v = v * x + c
    return v


def algebraicity_scan(x: float, degree_max: int, coeff_max: int,
                      eps: float = 1e-8) -> ScanReport:
    """Exact minimum of |p(x)| over nonzero integer polynomials with
    degree <= degree_max, |coefficients| <= coeff_max, leading coefficient
    positive, where |p(x)| is the Horner value in double precision.

    Deterministic: the reported polynomial is the first minimizer in
    degree-ascending, then lexicographic order (leading coefficient first).
    hit means best |p(x)| < eps.

    Meet in the middle (Horowitz & Sahni, JACM 21(2), 1974): p = H + L,
    with L the lower m = floor((D+1)/2) coefficients.  The L values are
    sorted once; for each H the polynomials whose split sum H(x) + L(x)
    lies within a rigorous rounding bound of the best Horner value so far
    are found by bisection and evaluated by Horner, so no minimizer and no
    tie is missed.  With n = 2C+1 that takes O(n^(D+1-m) log n) time and
    O(n^m) memory, where a full enumeration visits C n^D polynomials.
    """
    if not (1 <= degree_max <= 4):
        raise ConfigurationError(f"degree_max must be in 1..4, got {degree_max!r}")
    if not (1 <= coeff_max <= 100):
        raise ConfigurationError(f"coeff_max must be in 1..100, got {coeff_max!r}")
    if not (eps > 0.0):
        raise ConfigurationError(f"eps must be positive, got {eps!r}")
    if not math.isfinite(x):
        raise ConfigurationError(f"scan target must be finite, got {x!r}")
    x = float(x)
    if abs(x) > 2 * coeff_max + 2:
        # |p(x)| > |x|^d (1 - C/(|x|-1)) > |x|/2 > 1 for every nonconstant p
        # in the box (also in floating point, overflow included), so the
        # constant 1 wins
        best, poly = 1.0, (1,)
    else:
        best, poly = _scan_min(x, degree_max, coeff_max)
    return ScanReport(target=x, degree_max=degree_max, coeff_max=coeff_max,
                      best_poly=poly, best_abs_value=best, hit=best < eps)


def _scan_min(x: float, degree_max: int, coeff_max: int) -> tuple[float, tuple[int, ...]]:
    """(min |p(x)|, its first minimizer) for |x| <= 2C + 2, where no value
    overflows.  Candidates are compared as (|p(x)|, coefficient vector
    padded with leading zeros to length D+1): for vectors whose first
    nonzero entry is positive, lexicographic order of the padded vector
    is degree-ascending, then lexicographic order."""
    box = range(-coeff_max, coeff_max + 1)
    m = (degree_max + 1) // 2  # coefficients in L
    nh = degree_max + 1 - m    # coefficients in H
    lows = sorted((_horner(c, x), c) for c in itertools.product(box, repeat=m))
    lvals = [v for v, _ in lows]
    n = len(lvals)
    # H = 0: the polynomials of degree < m, whose L value is their Horner value
    best, low = min((abs(v), c) for v, c in lows if c > (0,) * m)
    key = (0,) * nh + low
    # Rounding (Higham, Accuracy and Stability, 2nd ed., sec. 5.1), with
    # T = C sum_{i>=1} |x|^i and u the unit roundoff: the computed H value
    # lies within gamma_2D T of H(x), and the computed L value and the
    # Horner value v of p = H + L lie within gamma_2D T + 2u|L| and
    # gamma_2D T + 2u v of L(x) and |p(x)| (the constant coefficient enters
    # only their last, relative rounding).  A p with v <= best thus has
    # |H + L| <= best (1 + 2u) + 3 gamma_2D T + 2u |L|, where |L| <= T + r.
    # The radius r = best (1 + 8u) + gamma_{8D+8} T + 2^-1000 also covers
    # rounding the search bounds, and 2^-1000 the underflow (below 1e-312
    # for |x| <= 2C + 2).
    k = 8 * degree_max + 8
    err = (k * _U / (1.0 - k * _U) * coeff_max
           * math.fsum(abs(x) ** i for i in range(1, degree_max + 1)) + 2.0 ** -1000)
    xm = math.prod(itertools.repeat(x, m))
    r = best * (1.0 + 8.0 * _U) + err
    # H streams in increasing key order: fewer leading zeros later, then
    # lexicographic, so a zero minimum ends the scan once its H is done
    for lead in range(nh):  # H / x^m has degree `lead`
        pad = (0,) * (nh - 1 - lead)
        heads = (itertools.product(range(1, coeff_max + 1), *[box] * (lead - 1))
                 if lead else [()])
        for head in heads:
            t = _horner(head, x) * x
            for c in (box if lead else range(1, coeff_max + 1)):
                target = -(t + c) * xm
                j = bisect_left(lvals, target - r)
                while j < n and lvals[j] <= target + r:
                    p = pad + head + (c,) + lows[j][1]
                    v = abs(_horner(p, x))
                    if v < best or (v == best and p < key):
                        best, key = v, p
                        r = best * (1.0 + 8.0 * _U) + err
                    j += 1
                if best == 0.0:
                    return best, _strip(key)
    return best, _strip(key)


def _strip(key: tuple[int, ...]) -> tuple[int, ...]:
    """The polynomial without its leading zero coefficients."""
    return tuple(itertools.dropwhile(lambda c: c == 0, key))


def _upper_residual_grid(q: float, n: int = 50) -> list[float]:
    bp = branch_point(q)
    if bp is not None:
        lo, hi = bp.z_b, bp.z_b + 25.0
    elif q == 2.0:
        lo, hi = -0.95, 24.0
    else:
        lo, hi = -20.0, 25.0
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _lower_residual_grid(q: float, n: int = 50) -> list[float] | None:
    bp = branch_point(q)
    if bp is None:
        return None
    lo, hi = bp.z_b, bp.z_b * 1e-3  # both negative; approaches 0- from z_b
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _upper_interior_grid(q: float, n: int = 25) -> list[float]:
    bp = branch_point(q)
    if bp is not None:
        lo, hi = bp.z_b + 0.1, bp.z_b + 10.0
    elif q == 2.0:
        lo, hi = -0.8, 10.0
    else:
        lo, hi = -8.0, 10.0
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def _lower_interior_grid(q: float, n: int = 15) -> list[float] | None:
    bp = branch_point(q)
    if bp is None:
        return None
    lo = bp.z_b + 0.1 * abs(bp.z_b)
    hi = -0.05 * abs(bp.z_b)
    return [lo + i * (hi - lo) / (n - 1) for i in range(n)]


def run_residual_suite() -> list[CheckResult]:
    """Scaled defining-equation residual over the documented z grids."""
    out = []
    for q in RESIDUAL_Q_GRID:
        grids = [(Branch.UPPER, _upper_residual_grid(q)),
                 (Branch.LOWER, _lower_residual_grid(q))]
        for branch, zs in grids:
            if zs is None:
                continue
            worst = max(residual_defining_eq(q, z, branch) / max(1.0, abs(z))
                        for z in zs)
            out.append(CheckResult(f"residual q={q:g} {branch.value}",
                                   worst <= 1e-10, worst, 1e-10))
    return out


def run_derivative_suite() -> list[CheckResult]:
    """Closed-form derivative vs central difference at interior points."""
    out = []
    for q in RESIDUAL_Q_GRID:
        grids = [(Branch.UPPER, _upper_interior_grid(q)),
                 (Branch.LOWER, _lower_interior_grid(q))]
        for branch, zs in grids:
            if zs is None:
                continue
            worst = max(check_derivative_fd(q, z, branch) for z in zs)
            out.append(CheckResult(f"derivative q={q:g} {branch.value}",
                                   worst <= 1e-6, worst, 1e-6))
    return out


def run_eq5_suite() -> list[CheckResult]:
    """Polynomial identity satisfied by W_q(1)."""
    return [CheckResult(f"eq5 q={q:g}", eq5_residual(q) <= 1e-10,
                        eq5_residual(q), 1e-10)
            for q in EQ5_Q_GRID]


def run_branch_suite() -> list[CheckResult]:
    """Branch geometry: monotone upper branch, concavity, monotone-decreasing
    lower branch, branch-point reports, and the q = 2 lower-branch refusal."""
    out = []
    for q in RESIDUAL_Q_GRID:
        zs = _upper_interior_grid(q)
        ws = [wq(q, z, Branch.UPPER, tol=_TIGHT_TOL).w for z in zs]
        worst_mono = max(ws[i] - ws[i + 1] for i in range(len(ws) - 1))
        out.append(CheckResult(f"upper-monotone q={q:g}", worst_mono < 0.0,
                               worst_mono, 0.0))
        worst_curv = -math.inf
        for z in zs:
            h = 0.05 * max(1.0, abs(z))
            second = (wq(q, z + h, Branch.UPPER, tol=_TIGHT_TOL).w
                      - 2.0 * wq(q, z, Branch.UPPER, tol=_TIGHT_TOL).w
                      + wq(q, z - h, Branch.UPPER, tol=_TIGHT_TOL).w) / (h * h)
            worst_curv = max(worst_curv, second)
        out.append(CheckResult(f"upper-concavity q={q:g}", worst_curv <= 1e-8,
                               worst_curv, 1e-8))
        zs_low = _lower_interior_grid(q)
        if zs_low is not None:
            ws_low = [wq(q, z, Branch.LOWER, tol=_TIGHT_TOL).w for z in zs_low]
            worst_dec = max(ws_low[i + 1] - ws_low[i] for i in range(len(ws_low) - 1))
            out.append(CheckResult(f"lower-decreasing q={q:g}", worst_dec < 0.0,
                                   worst_dec, 0.0))
    for q in BRANCH_POINT_Q_GRID:
        report = branch_point_check(q)
        out.append(CheckResult(f"branch-point q={q:g}", report.passed,
                               report.consistency, 1e-12))
    try:
        wq(2.0, -0.5, Branch.LOWER)
        refused = False
    except NoBranchPointError:
        refused = True
    out.append(CheckResult("lower-refused q=2", refused,
                           0.0 if refused else 1.0, 0.0))
    return out


def run_scan_suite(degree_max: int = 3, coeff_max: int = 30,
                   eps: float = 1e-8) -> list[CheckResult]:
    """Minimal-polynomial probe: two pinned hits and the W(1) no-hit
    (bounds for the no-hit target are adjustable)."""
    out = []
    half = algebraicity_scan(0.5, 1, 2)
    out.append(CheckResult("scan 1/2 hits 2x-1",
                           half.hit and half.best_poly == (2, -1),
                           half.best_abs_value, 1e-8))
    root2 = algebraicity_scan(math.sqrt(2.0), 2, 2)
    out.append(CheckResult("scan sqrt2 hits x^2-2",
                           root2.hit and root2.best_poly == (1, 0, -2),
                           root2.best_abs_value, 1e-8))
    omega = wq(1.0, 1.0, Branch.UPPER, tol=_TIGHT_TOL).w
    report = algebraicity_scan(omega, degree_max, coeff_max, eps)
    out.append(CheckResult(
        f"scan W(1) no hit deg<={degree_max} coeff<={coeff_max}",
        not report.hit, report.best_abs_value, eps))
    return out


def run_all() -> list[CheckResult]:
    return (run_residual_suite() + run_derivative_suite() + run_eq5_suite()
            + run_branch_suite() + run_scan_suite())
