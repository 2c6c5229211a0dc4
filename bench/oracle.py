"""High-precision reference values for exp_q, W_q and dW_q/dz.

Everything here is computed with mpmath at ``DPS`` decimal digits, from the
definitions alone; nothing calls the package under test.  Each W_q root is
found by bisection over the ordered set of doubles inside the benchmark's
own analytic bracket, then polished by Newton on the log-form equation at
full precision.  The bisection never looks at a solver's answer.

The sign of f(w) - z is decided in log space, so astronomically large or
small intermediate values cost nothing and never overflow.  Points beyond
an analytic bracket end take the sign of that end, which lets the bisection
run over whole doubles even when the bracket ends (the positivity wall, the
branch point) are not doubles themselves.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mp, mpf

DPS = 50
_MAX = 1.7976931348623157e308


def ord_double(x: float) -> int:
    """Monotone map from doubles to integers: adjacent doubles differ by 1,
    and +0.0 and -0.0 both map to 0."""
    bits = struct.unpack("<q", struct.pack("<d", abs(x)))[0]
    return -bits if x < 0 else bits


def double_from_ord(n: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(n)))[0]
    return -x if n < 0 else x


def floor_double(x) -> float:
    """Largest double <= x (x an mpf); -inf below the double range."""
    if x < -_MAX:
        return -math.inf
    if x > _MAX:
        return _MAX
    d = float(x)
    if mpf(d) > x:
        d = math.nextafter(d, -math.inf)
    return d


def ulp_distance(w: float, ref) -> float:
    """Distance from the double w to the real number ref, counted in doubles.

    Between two adjacent doubles the count is linear, so the distance is 1
    between neighbours on either side of a power of two, and zero and the
    subnormals need no special case.  A reference above the double range
    counts as one step past the largest double, the place of +inf.
    """
    if math.isnan(w):
        return math.inf
    with mp.workdps(DPS + 10):
        ref = mpf(ref)
        if mpmath.isinf(ref) or abs(ref) > _MAX:
            # rounds to an infinity: a correctly saturated result is exact
            if math.isinf(w) and (w > 0) == (ref > 0):
                return 0.0
            edge = ord_double(math.copysign(_MAX, float(mpmath.sign(ref)))) + (
                1 if ref > 0 else -1)
            return float(abs(_ord_of(w) - edge))
        lo = floor_double(ref)
        hi = math.nextafter(lo, math.inf)
        frac = (ref - mpf(lo)) / (mpf(hi) - mpf(lo))
        return float(abs((_ord_of(w) - ord_double(lo)) - frac))


def _ord_of(w: float) -> int:
    if math.isinf(w):
        return ord_double(math.copysign(_MAX, w)) + (1 if w > 0 else -1)
    return ord_double(w)


# ---------------------------------------------------------------------------
# exp_q and the defining function f(w) = w exp_q(w)


def ln_e(q, w):
    """ln exp_q(w) as an mpf: -inf in the cutoff, +inf at a divergent edge."""
    if q == 1:
        return w
    base = 1 + (1 - q) * w
    if base > 0:
        return mpmath.log(base) / (1 - q)
    if base < 0 or q < 1:
        return mpmath.ninf
    return mpmath.inf


def exp_q_ref(q: float, z: float):
    """exp_q(q, z) at DPS digits (0 in the cutoff, +inf at the edge for q > 1)."""
    with mp.workdps(DPS + 10):
        return exp_q_ref_mp(mpf(q), mpf(z))


def exp_q_ref_mp(q, z):
    """exp_q at mpf arguments, in the caller's precision."""
    le = ln_e(q, z)
    if mpmath.isinf(le):
        return mpf(0) if le < 0 else mpmath.inf
    return mpmath.exp(le)


def exp_q_cond(q: float, z: float) -> float:
    """Relative condition number |z exp_q'(z) / exp_q(z)| = |z / (1+(1-q)z)|."""
    with mp.workdps(30):
        base = 1 + (1 - mpf(q)) * mpf(z)
        if base <= 0:
            return 1.0
        return float(abs(mpf(z) / base))


def _g_sign(q, z, w) -> int:
    """Sign of f(w) - z, decided in log space."""
    le = ln_e(q, w)
    if w == 0 or le == mpmath.ninf:
        return -int(mpmath.sign(z))  # f(w) = 0
    sw = int(mpmath.sign(w))
    if le == mpmath.inf:
        return sw
    if z == 0 or sw != int(mpmath.sign(z)):
        return sw
    d = mpmath.log(abs(w)) + le - mpmath.log(abs(z))
    return sw * int(mpmath.sign(d))


@dataclass(frozen=True)
class Root:
    """Reference value of W_q(z) on one branch.

    ``w`` is None when z is outside the branch domain.  ``representable``
    says whether the nearest double to the root is finite and inside the
    positivity domain, i.e. whether a double answer exists at all.
    ``kappa`` is the relative condition number |z W'(z) / W|, ``dwdz`` the
    derivative and ``kappa_d`` its own condition number |z W''(z) / W'(z)|.
    """

    w: object
    representable: bool
    kappa: float
    dwdz: object
    kappa_d: float


def branch_point_ref(q):
    """(z_b, w_b) for q < 2 as mpf, else None."""
    if q >= 2:
        return None
    w_b = 1 / (q - 2)
    return w_b * mpmath.exp(ln_e(q, w_b)), w_b


def bracket(q, z, upper: bool):
    """Analytic bracket (lo, hi, sign of f - z at lo) of the root, or None
    outside the domain.  On the upper branch f increases, on the lower it
    decreases.  An infinite end means the branch is unbounded that way."""
    bp = branch_point_ref(q)
    wall = None if q == 1 else 1 / (q - 1)
    if not upper:
        if bp is None or not (bp[0] <= z < 0):
            return None
        lo = wall if q < 1 else mpmath.ninf
        return lo, bp[1], +1
    if z == 0:
        return mpf(0), mpf(0), 0
    if bp is not None and z < bp[0]:
        return None
    if q == 2 and z <= -1:
        return None
    if z > 0:
        hi = z if wall is None or q < 1 else min(z, wall)
        return mpf(0), hi, -1
    lo = bp[1] if bp is not None else mpmath.ninf
    return lo, mpf(0), -1


def _g_sign_float(q: float, z: float, w: float) -> int:
    """Float twin of _g_sign, used only to narrow the search cheaply; every
    sign it decides is confirmed at full precision afterwards."""
    if q == 1.0:
        le = w
    else:
        # the bracket is formed exactly, so it keeps its digits at the wall
        base = 1 + (1 - Fraction(q)) * Fraction(w)
        if base <= 0:
            return -1 if z > 0 else 1 if z < 0 else 0
        le = (math.log(base.numerator) - math.log(base.denominator)) / (1.0 - q)
    if w == 0.0 or z == 0.0 or (w > 0) != (z > 0):
        return (w > 0) - (w < 0) if w != 0.0 else -((z > 0) - (z < 0))
    d = math.log(abs(w)) + le - math.log(abs(z))
    sw = 1 if w > 0 else -1
    return sw * ((d > 0) - (d < 0))


def wq_ref(q: float, z: float, upper: bool = True) -> Root:
    """Reference root of w exp_q(w) = z on the requested branch."""
    with mp.workdps(DPS + 10):
        qm, zm = mpf(q), mpf(z)
        br = bracket(qm, zm, upper)
        if br is None:
            return Root(None, False, 0.0, None, 0.0)
        lo, hi, s_lo = br
        if s_lo == 0:
            return Root(mpf(0), True, 1.0, mpf(1), 0.0)

        def sign_mp(n: int) -> int:
            return sign_mp_at(qm, zm, mpf(double_from_ord(n)), lo, hi, s_lo)

        def sign_float(n: int) -> int:
            w = double_from_ord(n)
            if w <= lo:
                return s_lo
            if w >= hi:
                return -s_lo
            return _g_sign_float(q, z, w)

        a0 = ord_double(floor_double(lo)) if lo > -_MAX else ord_double(-_MAX)
        b0 = ord_double(-floor_double(-hi)) if hi < _MAX else ord_double(_MAX)
        if sign_mp(a0) != s_lo:
            # the root lies below the most negative double
            return Root(mpmath.ninf, False, math.inf, None, math.inf)
        a, b = _bisect(sign_float, a0, b0, s_lo)
        # confirm the float-narrowed bracket at full precision, widening
        # geometrically where a float sign was wrong
        step = 1
        while a > a0 and sign_mp(a) != s_lo:
            a, step = max(a - step, a0), step * 2
        step = 1
        while b < b0 and sign_mp(b) == s_lo:
            b, step = min(b + step, b0), step * 2
        a, b = _bisect(sign_mp, a, b, s_lo)
        if b - a == 0:
            w = mpf(double_from_ord(a))
        else:
            w = _polish(qm, zm, mpf(double_from_ord(a)), mpf(double_from_ord(b)), lo, hi)
        return _finish(qm, zm, w)


def sign_mp_at(q, z, w, lo, hi, s_lo) -> int:
    """Sign of f(w) - z, continued past the bracket ends with their signs."""
    if w <= lo:
        return s_lo
    if w >= hi:
        return -s_lo
    return _g_sign(q, z, w)


def _bisect(sign, a: int, b: int, s_lo: int) -> tuple[int, int]:
    """Narrow ords [a, b] (sign s_lo at a) to adjacent ords around the root,
    or to a single ord where f(w) = z holds exactly."""
    while b - a > 1:
        m = (a + b) // 2
        s = sign(m)
        if s == 0:
            return m, m
        if s == s_lo:
            a = m
        else:
            b = m
    return a, b


def _polish(q, z, a, b, lo, hi):
    """Anderson-Bjorck regula falsi on psi(w) = +-(ln|f(w)| - ln|z|), whose
    sign is that of f(w) - z, inside the one-ulp bracket [a, b].  Where an
    end sits on the wall or on 0 (psi undefined) it bisects instead, which
    also settles roots closer to the wall than the working precision."""
    a, b = max(a, lo), min(b, hi)
    sz = int(mpmath.sign(z))

    def psi(w):
        le = ln_e(q, w)
        if w == 0 or mpmath.isinf(le):
            return None
        return sz * (mpmath.log(abs(w)) + le - mpmath.log(abs(z)))

    fa, fb = psi(a), psi(b)
    tiny = mpf(10) ** -DPS
    for end, f_end, other in ((a, fa, b), (b, fb, a)):
        if f_end is None and end != 0:
            # a root closer to the wall than the working precision is the wall
            p = end + mpmath.sign(other - end) * tiny * abs(end)
            if _g_sign(q, z, p) == _g_sign(q, z, other):
                return p
    for _ in range(400):
        if fa == 0:
            return a
        if fb == 0:
            return b
        if abs(b - a) <= tiny * max(abs(a), abs(b)):
            return b if fb is not None else a
        c = None
        if fa is not None and fb is not None:
            c = b - fb * (b - a) / (fb - fa)
        fc = psi(c) if c is not None and min(a, b) < c < max(a, b) else None
        if fc is None:  # no usable secant point: bisect by the sign of f - z
            c = (a + b) / 2
            sc = _g_sign(q, z, c)
            if sc == 0:
                return c
            if sc == _g_sign(q, z, a):
                a, fa = c, psi(c)
            else:
                b, fb = c, psi(c)
            continue
        if (fc > 0) == (fb > 0):
            k = 1 - fc / fb
            fa = fa * (k if k > 0 else mpf(0.5))
        else:
            a, fa = b, fb
        b, fb = c, fc
    return b


def _finish(q, z, w) -> Root:
    le = ln_e(q, w)
    near = float(w)
    rep = math.isfinite(near) and (near != 0.0 or w == 0) and (
        q == 1 or 1 + (1 - q) * mpf(near) > 0)
    if mpmath.isinf(le):
        return Root(w, rep, math.inf, None, math.inf)
    fp = mpmath.exp(q * le) * (1 + (2 - q) * w)       # f'(W)
    fpp = mpmath.exp((2 * q - 1) * le) * (2 + (2 - q) * w)  # f''(W)
    if fp == 0:
        return Root(w, rep, math.inf, None, math.inf)
    kappa = abs(z / (w * fp)) if w != 0 else mpf(1)
    kappa_d = abs(z * fpp / (fp * fp))
    return Root(w, rep, _to_float(kappa), 1 / fp, _to_float(kappa_d))


def _to_float(x) -> float:
    return float(x) if abs(x) < _MAX else math.inf


def scipy_w(z: float, upper: bool) -> float:
    """Classical Lambert W from scipy, the second oracle at q = 1."""
    from scipy.special import lambertw
    return float(lambertw(z, 0 if upper else -1).real)
