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
are module constants.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from bisect import bisect_left
from collections import namedtuple

from .errors import ConfigurationError, MalformedInputError, NoBranchPointError
from .qexp import _require_finite, exp_q
from .wq import Branch, branch_point, dwq_dz, wq

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


# The reports are named tuples: read-only fields; they unpack, index and
# compare like tuples of their fields in the order given.


class CheckResult(namedtuple("CheckResult", "name passed measured threshold")):
    """One named check: passed, the measured value and its threshold."""

    __slots__ = ()


class BranchPointReport(namedtuple(
        "BranchPointReport", "q z_b w_b consistency is_minimum tangent_growth passed")):
    """branch_point_check's findings: consistency = |w_b exp_q(w_b) - z_b|
    / |z_b|; is_minimum: f(w_b +- delta) > z_b on both sides; tangent_growth:
    |dW/dz| grows approaching z_b from above; passed: all three hold."""

    __slots__ = ()


class ScanReport(namedtuple(
        "ScanReport", "target degree_max coeff_max best_poly best_abs_value hit")):
    """algebraicity_scan's result: best_poly (leading coefficient first)
    minimizes |p(target)| in the box, best_abs_value is that minimum, and
    hit means it is below eps."""

    __slots__ = ()


def residual_defining_eq(q: float, z: float, branch: Branch = Branch.UPPER) -> float:
    """|w exp_q(w) - z| at wq's w for this q, z, branch, solved to wq's
    fixed stopping constant DEFAULT_TOL."""
    w = wq(q, z, branch).w
    return abs(w * exp_q(q, w) - z)


def check_derivative_fd(q: float, z: float, branch: Branch = Branch.UPPER) -> float:
    """Relative gap between the closed-form derivative and a central
    difference of the solver, |analytic - fd| / max(|analytic|, tiny),
    with the step h = 1e-6 * max(1, |z|).

    z must sit far enough inside the branch domain for z +- h to remain in
    it.
    """
    h = 1e-6 * max(1.0, abs(z))
    analytic = dwq_dz(q, z, branch)
    w_plus = wq(q, z + h, branch).w
    w_minus = wq(q, z - h, branch).w
    fd = (w_plus - w_minus) / (2.0 * h)
    return abs(analytic - fd) / max(abs(analytic), 1e-300)


def eq5_residual(q: float) -> float:
    """Residual of the polynomial identity x^(q-1) - (1-q) x - 1 = 0 at
    x = W_q(1) from wq, solved to its fixed DEFAULT_TOL (x > 0 always)."""
    x = wq(q, 1.0).w
    power = math.exp((q - 1.0) * math.log(x))
    return abs(power - (1.0 - q) * x - 1.0)


def branch_point_check(q: float) -> BranchPointReport:
    """Consistency and local geometry of the branch point.

    Checks that w_b exp_q(w_b) lies within a relative 1e-12 of z_b (z_b != 0),
    that w exp_q(w) has a local minimum at w_b (sampled at w_b +- delta), and
    that the branch derivative grows approaching z_b from above (vertical
    tangent, sampled at z_b + dz and z_b + dz/10).  delta is 1e-4, or half the
    distance 1/((1-q)(2-q)) from w_b to the positivity wall 1/(q-1) where that
    is smaller (q below about -69), so w_b - delta stays inside it.  dz is
    delta, or 20 ulp of z_b where that is larger (q below about -1e14), so that
    z_b + dz/10 does not round to z_b.  Raises NoBranchPointError for q >= 2.
    """
    bp = branch_point(q)
    if bp is None:
        raise NoBranchPointError(f"no branch point exists for q = {q:g} >= 2")
    delta = 1e-4 if q >= 1.0 else min(1e-4, 0.5 * (bp.w_b - 1.0 / (q - 1.0)))
    consistency = abs(bp.w_b * exp_q(q, bp.w_b) - bp.z_b) / abs(bp.z_b)
    left = (bp.w_b - delta) * exp_q(q, bp.w_b - delta)
    right = (bp.w_b + delta) * exp_q(q, bp.w_b + delta)
    is_minimum = left > bp.z_b and right > bp.z_b
    dz = max(delta, 20.0 * math.ulp(bp.z_b))
    d_far = abs(dwq_dz(q, bp.z_b + dz))
    d_near = abs(dwq_dz(q, bp.z_b + dz / 10.0))
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
    with L the lower m = floor((D+1)/2) coefficients.  The polynomials
    whose split sum H(x) + L(x) lies within a rigorous rounding bound of
    the best Horner value so far are found and evaluated by Horner, so no
    minimizer and no tie is missed.  For odd D each H finds them by one
    bisection of the sorted L values.  For even D, H has one coefficient
    more than L; the L values are also keyed by the fractional part of
    -L(x)/x^m, and each head (H without its last coefficient c) finds every
    (c, L) by one bisection of these keys.  With n = 2C+1 either takes
    O(n^m log n) time and O(n^m) memory, where a full enumeration visits
    C n^D polynomials.  Where x^m is zero or subnormal, or the bound spans a
    large part of a unit of -L(x)/x^m, an even D falls back to one
    bisection per H, O(n^(m+1) log n).

    ConfigurationError unless x is a finite real, degree_max and coeff_max
    are integers (not bools) in 1..4 and 1..100, and eps is a positive real.
    """
    # an int bound and a float eps skip the numbers ABC tests
    for name, bound, top in (("degree_max", degree_max, 4), ("coeff_max", coeff_max, 100)):
        if not (bound.__class__ is int
                or (isinstance(bound, numbers.Integral) and bound.__class__ is not bool)):
            raise ConfigurationError(f"{name} must be an integer, got {bound!r}")
        if not (1 <= bound <= top):
            raise ConfigurationError(f"{name} must be in 1..{top}, got {bound!r}")
    if not ((eps.__class__ is float
             or (isinstance(eps, numbers.Real) and eps.__class__ is not bool))
            and eps > 0.0):
        raise ConfigurationError(f"eps must be a positive real, got {eps!r}")
    try:
        x = _require_finite("scan target", x)
    except MalformedInputError as exc:
        raise ConfigurationError(*exc.args) from None
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
    # Residue lookup, for even D.  Write X = x^m, h = H(x)/X - c for the
    # head's exact value, t for its computed value and s_j = -L_j/xm for the
    # computed keys.  Where xm is normal, |xm - X| <= u|X| (m <= 2); t lies
    # within gamma_2D T/|X| of h (its terms are the upper ones over X), and
    # s_j within (gamma_2D T + 2u|L_j|)/|X| + 4u|s_j| of -L(x)/X.  Since
    # H(x) + L(x) = X (h + c + L(x)/X), the bound above gives every p with
    # v <= best
    #     |t + c - s_j| <= r/|X| + 6u|s_j| + 2^-1000   (the last: underflow).
    # Where rho < 1/4 (rho is taken from r at the head's start; r only
    # shrinks), |t - h| < 1/4 and |h| <= C sum_{1<=i<nh} |x|^i, so such a
    # key has |s_j| <= bound - 1/2, and keys beyond bound are dropped.
    # s % 1.0 is within u of the exact fractional part (fmod is exact, and
    # adding 1 to a negative remainder rounds once), the window ends and
    # f + 1 round by at most 6u, and s_j - t by at most u(C + 1), which
    # leaves round(s_j - t) = c: rho covers all of these even after its own
    # rounding.  keyed holds the (L_j, coefficients) pairs of lows sorted by
    # the fractional part of s_j (recomputed where needed, the same double),
    # twice, and fracs those parts, the second copy plus 1, so the window
    # [f - rho, f + rho], moved up by 1 when it starts at or below 0, is one
    # run found by one bisection.
    keyed = None
    if nh > m and abs(xm) >= sys.float_info.min:
        # ((2C+1)^nh - 1)/2 pairs (head, c) against (2C+1)^m lower values:
        # the lookup does less work by count exactly where nh > m, i.e. even D
        bound = coeff_max * (math.fsum(abs(x) ** i for i in range(1, nh)) + 1.0) + 1.0
        slack = 16.0 * _U * (bound + 1.0) + 2.0 ** -1000
        scale = (1.0 + 8.0 * _U) / abs(xm)
        keyed = sorted([e for e in lows if abs(e[0] / xm) <= bound],
                       key=lambda e: (-e[0] / xm) % 1.0)
        fracs = [(-v / xm) % 1.0 for v, _ in keyed]
        fracs += [f + 1.0 for f in fracs]
        keyed += keyed
    # H streams in increasing key order: fewer leading zeros later, then
    # lexicographic, so a zero minimum ends the scan once its head is done
    for lead in range(nh):  # H / x^m has degree `lead`
        pad = (0,) * (nh - 1 - lead)
        heads = (itertools.product(range(1, coeff_max + 1), *[box] * (lead - 1))
                 if lead else [()])
        cs = box if lead else range(1, coeff_max + 1)
        for head in heads:
            t = _horner(head, x) * x
            if keyed is not None and (rho := r * scale + slack) < 0.25:
                f = t % 1.0
                lo, hi = f - rho, f + rho
                if lo <= 0.0:
                    lo, hi = lo + 1.0, hi + 1.0
                j = bisect_left(fracs, lo)
                while j < len(fracs) and fracs[j] <= hi:
                    v, low = keyed[j]
                    c = round(-v / xm - t)
                    if c in cs:
                        best, key = _keep(pad + head + (c,) + low, x, best, key)
                    j += 1
                r = best * (1.0 + 8.0 * _U) + err
            else:
                for c in cs:
                    target = -(t + c) * xm
                    j = bisect_left(lvals, target - r)
                    while j < n and lvals[j] <= target + r:
                        best, key = _keep(pad + head + (c,) + lows[j][1], x, best, key)
                        r = best * (1.0 + 8.0 * _U) + err
                        j += 1
            if best == 0.0:
                return best, _strip(key)
    return best, _strip(key)


def _keep(p: tuple[int, ...], x: float, best: float,
          key: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """(best, key) updated with the padded candidate p: the smaller of
    (|p(x)|, p) and (best, key)."""
    v = abs(_horner(p, x))
    return (v, p) if v < best or (v == best and p < key) else (best, key)


def _strip(key: tuple[int, ...]) -> tuple[int, ...]:
    """The polynomial without its leading zero coefficients."""
    return tuple(itertools.dropwhile(lambda c: c == 0, key))


def _grids(q: float, interior: bool) -> list[tuple[Branch, list[float]]]:
    """(branch, z grid) pairs for q, upper branch first: the residual
    grids, which start at z_b, or the interior grids of the derivative and
    branch suites, which keep z +- h inside the domain."""
    bp = branch_point(q)
    if bp is None:
        if q == 2.0:
            lo, hi = (-0.8, 10.0) if interior else (-0.95, 24.0)
        else:
            lo, hi = (-8.0, 10.0) if interior else (-20.0, 25.0)
        ends = [(Branch.UPPER, lo, hi, 25 if interior else 50)]
    elif interior:
        ends = [(Branch.UPPER, bp.z_b + 0.1, bp.z_b + 10.0, 25),
                (Branch.LOWER, bp.z_b + 0.1 * abs(bp.z_b), -0.05 * abs(bp.z_b), 15)]
    else:  # the lower grid approaches 0- from z_b
        ends = [(Branch.UPPER, bp.z_b, bp.z_b + 25.0, 50),
                (Branch.LOWER, bp.z_b, bp.z_b * 1e-3, 50)]
    return [(branch, [lo + i * (hi - lo) / (n - 1) for i in range(n)])
            for branch, lo, hi, n in ends]


def _worst_over_grids(name: str, interior: bool, measure, threshold: float) -> list[CheckResult]:
    """One check per q and branch: the largest measure(q, z, branch) over
    the grid against threshold."""
    out = []
    for q in RESIDUAL_Q_GRID:
        for branch, zs in _grids(q, interior):
            worst = max(measure(q, z, branch) for z in zs)
            out.append(CheckResult(f"{name} q={q:g} {branch.value}",
                                   worst <= threshold, worst, threshold))
    return out


def run_residual_suite() -> list[CheckResult]:
    """Scaled defining-equation residual over the documented z grids."""
    return _worst_over_grids(
        "residual", False,
        lambda q, z, branch: residual_defining_eq(q, z, branch) / max(1.0, abs(z)), 1e-10)


def run_derivative_suite() -> list[CheckResult]:
    """Closed-form derivative vs central difference at interior points."""
    return _worst_over_grids("derivative", True, check_derivative_fd, 1e-6)


def run_eq5_suite() -> list[CheckResult]:
    """Polynomial identity satisfied by W_q(1)."""
    residuals = [(q, eq5_residual(q)) for q in EQ5_Q_GRID]
    return [CheckResult(f"eq5 q={q:g}", r <= 1e-10, r, 1e-10) for q, r in residuals]


def run_branch_suite() -> list[CheckResult]:
    """Branch geometry: monotone upper branch, concavity, monotone-decreasing
    lower branch, branch-point reports, and the q = 2 lower-branch refusal."""
    out = []
    for q in RESIDUAL_Q_GRID:
        for branch, zs in _grids(q, interior=True):
            ws = [wq(q, z, branch).w for z in zs]
            if branch is Branch.LOWER:
                worst_dec = max(ws[i + 1] - ws[i] for i in range(len(ws) - 1))
                out.append(CheckResult(f"lower-decreasing q={q:g}", worst_dec < 0.0,
                                       worst_dec, 0.0))
                continue
            worst_mono = max(ws[i] - ws[i + 1] for i in range(len(ws) - 1))
            out.append(CheckResult(f"upper-monotone q={q:g}", worst_mono < 0.0,
                                   worst_mono, 0.0))
            worst_curv = -math.inf
            for z, w in zip(zs, ws):
                h = 0.05 * max(1.0, abs(z))
                second = (wq(q, z + h).w - 2.0 * w + wq(q, z - h).w) / (h * h)
                worst_curv = max(worst_curv, second)
            out.append(CheckResult(f"upper-concavity q={q:g}", worst_curv <= 1e-8,
                                   worst_curv, 1e-8))
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
    omega = wq(1.0, 1.0).w
    report = algebraicity_scan(omega, degree_max, coeff_max, eps)
    out.append(CheckResult(
        f"scan W(1) no hit deg<={degree_max} coeff<={coeff_max}",
        not report.hit, report.best_abs_value, eps))
    return out


def run_all(degree_max: int = 3, coeff_max: int = 30,
            eps: float = 1e-8) -> list[CheckResult]:
    """Every suite; the scan's no-hit bounds as in run_scan_suite."""
    return (run_residual_suite() + run_derivative_suite() + run_eq5_suite()
            + run_branch_suite() + run_scan_suite(degree_max, coeff_max, eps))


# the suite functions by `verify --suite` name; the scan, whose bounds are
# options, is called by its own name
_SUITES = {
    "residual": run_residual_suite,
    "derivative": run_derivative_suite,
    "eq5": run_eq5_suite,
    "branch": run_branch_suite,
    "all": run_all,
}
