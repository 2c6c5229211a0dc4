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
relative residual f(w)/z - 1 to first order.  Its ln exp_q(w) is
qexp._ln_exp_q, the one owner of ln exp_q, its cutoff and its overflow
branch.  _root, the solver's one loop, starts inside an analytic bracket,
which _bracket builds by tightening the fixed ends of _ends (0 or z, w_b,
the wall, z/(1+z) and the double range).  On a table, a row after one that
the degree-5 extrapolant through the last six roots started and kept (see
_solve) starts from that extrapolant again, inside the fixed ends alone: on
a 10^4-step grid that is nearly every row, and they skip _bracket's tails
and analytic start.  Where |z| is so small on the upper branch below 0 that
z/(1+z) is within an ulp of W, that end is the start.
The loop falls back to bisection over the ordered doubles, arithmetic on a
narrow bracket and geometric across decades, whenever a step leaves the
bracket or |h| fails to halve in two evaluations, and only bisects after its
first 136 evaluations.  It stops when |h| <= DEFAULT_TOL, the one fixed
stopping constant, or a step is under 4 ulp of w, and returns the point
after that step.  64 halvings close any bracket, so within 200 evaluations
it closes on adjacent doubles at the latest and returns the better end, or
raises the one ConvergenceError when an end is the wall or the end of the
double range: no double approximates the root there.  The closure reuses
|h| at an end the loop evaluated, so it evaluates at most the one analytic
end, and none at the end of the double range.

Next to the wall w = 1/(q-1), on the upper branch for q > 1 past it and on
the lower branch for q < 1, 1 + (1-q) w cancels in h, but the root is
explicit: the bracket b = 1 + (1-q) W solves b = g (1-b)^(q-1), with
g = (z (q-1))^(1-q) the power _wall_tail computes for _bracket.  Where
max(g, |q-1| g) < 2^-20, _wall_root takes one fixed-point step,
b = g exp((q-1) log1p(-g)), whose relative error is ((q-1) g)^2 < 2^-40.
With q = n/d and b = m/k as integer ratios, W = wall (1 - b) is the one
int quotient d (k - m) / ((n - d) k), which Python rounds correctly, so no
rounding of q - 1 or of the wall enters it.  No bracket, Newton step or
evaluation is made, the answer reports iterations 0 and, as its residual,
((q-1) g)^2, the relative residual of b's equation after the step.  Only
where b < 2^-51 can w lie at or past the wall, and there the sign of
1 + (1-q) w, taken from q's and w's ints, decides the last ulp: a w past
the wall gives way to the innermost double inside it.  Where the rounded
root is an exact-double wall, the convention is today's: for q > 1 no double
inside the domain approximates the root and wq raises the ConvergenceError
_root raises, with its text, best_w (the innermost double), residual and
iterations 1, after one evaluation of h; for q < 1 it answers the innermost
double, which is faithful.  An answer may lie outside _ends' fixed ends,
past its rounded wall 1/(q-1), but for q < 1 one at or past w_b falls
through to _root: below about q = -1e15 w_b lies ulps from the wall.
Outside the regime wq makes the one _root call it always made, and its test
costs a comparison of the g _bracket returns.  _solve routes a table row the
same way, so such a row is wq's answer bit for bit: only rows past
_wall_reach, a bound computed once per table, compute their power to test
it.  dwq_dz keeps _root at the wall, where its value underflows or its
oracle is wrong (ROADMAP items 1a and 21c).

dwq_dz evaluates dW/dz = 1/f'(W) = (W/z)^q / (1 + (2-q) W) (Corless et al.,
Adv. Comput. Math. 5 (1996), sec. 4), taking exp_q(W) = z/W from the defining
relation, as the bracket 1 + (1-q) W cancels next to the wall.  It divides in
log space where a factor leaves the normal range.  The power multiplies the
relative error of W/z by |q|; as 1 + (1-q) W = (z/W)^(1-q) at the root, the
rational form

    dW/dz = (W/z) (1 + (1-q) W) / (1 + (2-q) W)

multiplies it by 1 + c instead, c = |(1-q) W / (1 + (1-q) W)| being the
bracket's cancellation.  dwq_dz takes the rational form where |q| > 2 and
1 + c < |q|, dividing both brackets by W where |W| > 1 so that no product
overflows, and the power elsewhere: next to the wall, where the bracket
cancels, and for |q| <= 2, where 1 + c reaches q at the branch point and the
two forms tie.

Inputs are checked once per public call.  _check_settings holds the checks
that need no z (the branch, then lower-branch existence), and the CLI's
table calls it once.  _check_request, which wq and dwq_dz call, checks
that q and z are finite, calls _check_settings and then tests the domain,
computing the branch point only there: z >= 0 on the upper branch lies in
every upper domain and skips both.  _domain is the only case
analysis of the branch domains and always sees the true branch point: z is
compared with its (lo, lo_closed, hi), and branch_domain and a DomainError's
message wrap that in an Interval.  Likewise _ends alone says which fixed
bounds hold a root, and _bracket only tightens them.  _root, which checks
nothing, is the only loop and the only holder of the Newton step, the side
update and the stopping rule: wq and dwq_dz call it once on _bracket's start,
with no generator.  _solve, which solves the CLI table's kept grid in order,
makes one _root call per row other than z = 0 and z_b and yields a plain
(w, residual, iterations) tuple per row.  Only wq builds a SolveResult.
SolveResult and BranchPoint are named tuples: their fields are read-only, and
they unpack, index and compare equal like tuples.
"""

from __future__ import annotations

import math
import struct
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from enum import Enum

from .errors import ConvergenceError, DerivativeSingularError, DomainError, NoBranchPointError
# Interval is re-exported; exp_q is unused here, but bench/spans.py wraps it at this name
from .qexp import Interval, _exp_q, _ln_exp_q, _require_finite, _safe_exp, exp_q  # noqa: F401

__all__ = [
    "DEFAULT_TOL",
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

# the solver's one stopping constant: _root stops once |h| is at most this
DEFAULT_TOL = 1e-12
# _wall_root answers where max(g, |q-1| g) is below _WALL_G
_WALL_G = 2.0 ** -20
# the one refusal's text, for _root and _wall_root
_NO_DOUBLE = ("no double approximates the root for q = %g, z = %r (%s branch): it lies "
              "next to the wall or beyond the double range; best w = %r")
# _root's first 136 evaluations may be Newton points, and it only bisects after
# them: the ordered doubles span under 2^64 places, so 64 halvings close any
# bracket and a solve ends within 200 evaluations, far above the 36 the
# costliest of 88 890 random solves took
_NEWTON_EVALUATIONS = 136


class Branch(Enum):
    UPPER = "upper"
    LOWER = "lower"


# a global costs a tenth of an Enum member lookup, and one wq call makes four or five
_UPPER, _LOWER = Branch.UPPER, Branch.LOWER
# (z_b, w_b) where bp is None: no z equals nan, and nothing reads w_b there
_NO_BRANCH_POINT = (math.nan, math.nan)


class BranchPoint(namedtuple("BranchPoint", "z_b w_b")):
    """z_b = f(w_b), the least value of f(w) = w exp_q(w), at w_b = 1/(q-2).
    A named tuple: read-only fields; unpacks, indexes and compares as (z_b, w_b)."""

    __slots__ = ()


class SolveResult(namedtuple("SolveResult", "w branch residual iterations")):
    """The root w on branch, the relative residual |h| at the last point
    evaluated and the number of the loop's evaluations; the end checks of a
    bracket closed on adjacent doubles are not counted.  Next to the wall,
    where the root is in closed form (see the module notes), iterations is
    0 and residual is ((q-1) g)^2, the relative residual of the bracket's
    equation b = g (1-b)^(q-1) after its one step.  A named tuple:
    read-only fields; unpacks, indexes and compares as (w, branch, residual,
    iterations)."""

    __slots__ = ()


def branch_point(q: float) -> BranchPoint | None:
    """Branch point (z_b, w_b) for q < 2; None for q >= 2.

    At q = 2 no finite branch point exists, and for q > 2 the stationary
    point of the formula falls outside the positivity domain of exp_q.
    """
    return _branch_point(_require_finite("q", q))


def _branch_point(q: float) -> BranchPoint | None:
    """branch_point for a q known to be finite."""
    if q >= 2.0:
        return None
    w_b = 1.0 / (q - 2.0)
    # the bracket 1 + (1-q) w_b is 1/(2-q), so exp_q(w_b) = (2-q)^(-1/(1-q));
    # that form serves below about q = -1e16, where the bracket rounds to 0
    e_b = _exp_q(q, w_b) or math.exp(-math.log(2.0 - q) / (1.0 - q))
    return tuple.__new__(BranchPoint, (w_b * e_b, w_b))  # in C, with no Python __new__


def branch_domain(q: float, branch: Branch = Branch.UPPER) -> Interval:
    """Set of z for which the branch has a real value."""
    q = _require_finite("q", q)
    lo, lo_closed, hi = _domain(q, _as_branch(branch), _branch_point(q))
    return Interval(lo, hi, lo_closed, False)


_BRANCHES = {"upper": _UPPER, "lower": _LOWER}


def _as_branch(branch: Branch | str) -> Branch:
    # members first: Enum.__hash__ is Python-level, so a dict lookup of one is
    # slower.  Only a str reaches the dict, where an unhashable value would raise
    # TypeError; anything else converts, and an unknown value raises ValueError
    if branch.__class__ is Branch:
        return branch
    return (branch.__class__ is str and _BRANCHES.get(branch)) or Branch(branch)


def _domain(q: float, branch: Branch, bp: BranchPoint | None) -> tuple[float, bool, float]:
    """branch_domain as (lo, lo_closed, hi), hi open, for a finite q with
    branch point bp; the empty domain is (inf, False, -inf)."""
    if branch is _UPPER:
        if bp is not None:
            return bp.z_b, True, math.inf
        if q == 2.0:
            # f(w) = w/(1-w) increases from the limit -1 at w -> -inf
            return -1.0, False, math.inf
        # q > 2: image of the strictly increasing f is the whole line
        return -math.inf, False, math.inf
    if bp is not None:
        return bp.z_b, True, 0.0
    return math.inf, False, -math.inf


def _power_tail(q: float, z: float) -> float:
    """The w of z's sign with |w| (|1-q| |w|)^(1/(1-q)) = |z|: the root of
    f once 1 + (1-q) w is replaced by its dominant term (1-q) w.  |f| lies
    above that model for q < 1 and below it for q > 1, so the result bounds
    W on the side _bracket uses it for: |W| is below it for q < 2 and above
    it for q > 2.  It is widened on that side by a bound on its own
    rounding, and saturates at the double range."""
    p = q - 1.0
    d = p - 1.0
    log_z, log_p = math.log(abs(z)), math.log(abs(p))
    e = p * log_z
    if e < math.inf:
        e, t = (e + log_p) / d, (abs(e) + abs(log_p)) / abs(d)
    else:  # p log|z| overflowed, for q past about 1.8e308/log|z|
        a, b = p / d * log_z, log_p / d
        e, t = a + b, abs(a) + abs(b)
    # e = log|tail|, and t = (|p log|z|| + |log|p||)/|p-1| is the size of its
    # terms before they cancel, so |e| <= t.  With u = 2^-53, each +, -, *
    # and / errs by at most u relative, and log and exp by at most 1 ulp, 2u.
    # The steps above err from the e of this p by at most 3u t + 3u |e|; a
    # rounded q - 1, inexact only for q < 1/2 or q >= 2^53, moves e by at
    # most u (2t + 1); the widening's rounding adds u |e| and exp's 2u.  The
    # sum is below 8u (t + |e| + 1) <= 16u t + 8u, so e moves out by that:
    # unwidened, an exp of e near 709 can lie past W (61 ulp at q = 1.7e308,
    # z = -1e308), and the bracket closes on it.  An infinite e (p log|z|
    # overflowed in the first form) stays as it is: it is +inf only for
    # q < 2 and -inf only for q > 2
    t = 2.0 ** -49 * t + 2.0 ** -50
    try:
        m = math.exp(e + t if p < 1.0 else e - t)
    except OverflowError:
        m = sys.float_info.max
    if m < sys.float_info.min:  # a subnormal exp errs by up to half a step, not 2u
        m = math.nextafter(m, math.inf if p < 1.0 else 0.0)
    return math.copysign(m, z)


def _wall_tail(q: float, z: float) -> tuple[float, float]:
    """(w, g): the w with |wall| exp_q(w) = |z| next to the wall 1/(q-1),
    kept at least one double inside it, and the power g = (z (q-1))^(1-q)
    that gives it as wall (1 - g).  Between 0 and the wall |f(w)| < |wall|
    exp_q(w), so w bounds W on the wall's side: from below on the upper
    branch for q > 1 and on the lower branch for q < 1.  z/wall > 0 on both."""
    wall = 1.0 / (q - 1.0)
    g = (z / wall) ** (1.0 - q)
    w = wall * (1.0 - g)
    inner = math.nextafter(wall, 0.0)
    return (min(w, inner) if wall > 0.0 else max(w, inner)), g


def _wall_reach(q: float, branch: Branch) -> float:
    """A z that no root in _wall_root's regime lies below or at: a table row
    at a z past it tests its own power, and no other row can be in the
    regime.  The bound asks g < 2^-10 / max(1, |q-1|), 2^10 times the
    regime's, which covers the rounding of g and of this bound while
    |q-1| < 2^50; past that every z on the wall's side is tested.  inf
    where the branch has no wall."""
    if q == 1.0 or (branch is _UPPER) != (q > 1.0):
        return math.inf
    p, wall = abs(q - 1.0), 1.0 / (q - 1.0)
    if p >= 2.0 ** 50:
        return wall if q > 1.0 else -math.inf
    # g = (z/wall)^(1-q) is below a bound c exactly where z > wall c^(1/(1-q))
    return wall * _safe_exp(math.log(2.0 ** -10 / max(1.0, p)) / (1.0 - q))


def _wall_root(q: float, z: float, g: float, w_b: float) -> tuple[float, float, int] | None:
    """The root next to the wall in closed form, as (w, residual, 0), on the
    upper branch for q > 1 past the wall and on the lower branch for q < 1,
    where g is _wall_tail's power: None where max(g, |q-1| g) >= 2^-20, or
    where q < 1 and w is not below w_b.  w is wall (1 - b), rounded once
    from q's and b's ints (see the module notes).  Raises the
    ConvergenceError _root raises where the rounded root is an exact-double
    wall for q > 1."""
    p = q - 1.0
    if not (g < _WALL_G and abs(p) * g < _WALL_G):
        return None
    # b = 1 + (1-q) W solves b = g (1-b)^(q-1), and one step from g leaves a
    # relative error of ((q-1) g)^2 < 2^-40
    b = g * math.exp(p * math.log1p(-g))
    # with q = n/d and b = m/k, W = wall (1 - b) = d (k - m) / ((n - d) k),
    # which the int division rounds correctly
    n, d = q.as_integer_ratio()
    m, k = b.as_integer_ratio()
    w = d * (k - m) / ((n - d) * k)
    if b < 2.0 ** -51:
        # half an ulp of w is below 2^-51 |wall|, as |wall| > 2^-1024, so
        # only here can w lie at or past the wall: side has the sign of
        # 1 + (1-q) w, times d k > 0
        m, k = w.as_integer_ratio()
        side = d * k + (d - n) * m
        if side <= 0:
            w = math.nextafter(w, 0.0)  # the innermost double
            if side == 0 and q > 1.0:  # the rounded root is the wall itself
                raise ConvergenceError(_NO_DOUBLE, q, z, "upper", w, best_w=w, iterations=1,
                                       residual=abs(_log_residual(q, z, w)[0]))
    # below about q = -1e15 w_b lies ulps from the wall
    if q < 1.0 and not w < w_b:
        return None
    # the relative residual b / (g (1-b)^(q-1)) - 1 of that step, to
    # relative order max(g, |q-1| g)
    return w, (p * g) ** 2, 0


def _ends(q: float, z: float, branch: Branch, w_b: float) -> tuple[float, float]:
    """Fixed ends lo < W < hi of the root, each a comparison or one division
    away: 0 or z, w_b, the wall 1/(q-1), z/(1+z) and the double range.

    z is in the branch's domain and is neither 0 nor z_b (w_b is nan for
    q >= 2).  exp_q(w) > 1 for w > 0 puts W below z, and inside the wall for
    q > 1; exp_q(-s) <= 1/(1+s) for q <= 2 (Bernoulli), so z/(1+z), the root
    at q = 2, bounds W from above for z < 0, and exp_q(w) <= 1 for w < 0
    gives W < z for q > 2.  The lower branch lies below w_b and, for q < 1,
    above the wall.  Every end of _bracket lies inside these."""
    if branch is _UPPER:
        if z > 0.0:
            return 0.0, min(z, 1.0 / (q - 1.0)) if q > 1.0 else z
        if q < 2.0:
            return w_b, z / (1.0 + z)
        return -sys.float_info.max, z / (1.0 + z) if q == 2.0 else z
    return 1.0 / (q - 1.0) if q < 1.0 else -sys.float_info.max, w_b


def _bracket(q: float, z: float, branch: Branch, z_b: float, w_b: float):
    """Analytic bracket lo < W < hi of the root, a start in [lo, hi] and
    _wall_tail's power g where the bracket used the wall tail, inf elsewhere.

    Starts from _ends (same requirements on z) and tightens them; f is never
    evaluated.  For q >= 1, exp_q(w) >= e^w gives W < log|z| where
    |W| >= 1, and s e^(-s) < e^(-s/2) gives W > 2 log|z| on the classical
    lower branch; the tails bound the far ends.  Near z_b the start is the
    root of h's quadratic model h(w_b) = log(z_b/z), h''(w_b) = -(2-q)^3,
    except on the upper branch where |z| is small enough that the end
    z/(1+z) is within an ulp of W, which is then the start.
    """
    lo, hi = _ends(q, z, branch, w_b)
    if z > 0.0:  # upper branch
        # for q >= 1, exp_q(w) >= e^w bounds W by the classical root, which
        # is below log z once z >= e and below 1 before that
        log_end = max(1.0, math.log(z))
        if q > 1.0:
            if hi < z:  # z is past the wall, which is hi
                lo, g = _wall_tail(q, z)
                return lo, min(hi, log_end), lo, g
            # z / (1 + (q-1) z) is the root at q = 2 and stays inside the wall
            hi = min(hi, log_end)
            return lo, hi, min(hi, z / (1.0 + (q - 1.0) * z)), math.inf
        # the tail is within 25% of W once (1-q) W > 4; nearer q = 1, W ~ log z
        if q != 1.0 and z > 1.0:
            hi = min(hi, _power_tail(q, z))
        return lo, hi, hi if (1.0 - q) * hi > 4.0 else min(hi, log_end), math.inf
    g = math.inf
    if branch is _UPPER:
        if q >= 2.0:
            if q > 2.0:
                hi = min(hi, _power_tail(q, z))
            return lo, hi, hi, g
        # W = z/(1+z) (1 - (2-q) z^2/2 + ...), and while |(1-q) z| <= 3/4 the
        # later terms add at most twice the second-order one: once (2-q) z^2 <=
        # 2^-54 the end hi = z/(1+z) is within an ulp of W.  Below about
        # q = -1e16 the quadratic model would start at or next to w_b there,
        # up to 300 decades from the root
        if (1.0 - q) * z >= -0.75 and (2.0 - q) * z * z <= 2.0 ** -54:
            return lo, hi, hi, g
    elif q < 1.0:
        wall, (lo, g) = lo, _wall_tail(q, z)
        if lo - wall < 0.25 * (hi - wall):
            # the tail puts W in the quarter of the bracket next to the wall,
            # where it is the better model and the branch-point quadratic fails
            return lo, hi, lo, g
    else:
        lo = 2.0 * math.log(-z) if q == 1.0 else _power_tail(q, z)
        hi = min(hi, math.log(-z))
        if (q - 1.0) * (2.0 - q) * lo < -4.0:
            # the tail's relative error is about 1/((q-1)(2-q)|W|): under 25%
            return lo, hi, lo, g
    try:
        d = math.sqrt(2.0 * math.log(z_b / z) / (2.0 - q) ** 3)
    except OverflowError:  # q < -5.6e102: d is under an ulp of w_b, about 1/|q|
        d = 0.0
    guess = w_b + d if branch is _UPPER else w_b - d
    return lo, hi, min(hi, max(lo, guess)), g


def _log_residual(q: float, z: float, w: float) -> tuple[float, float]:
    """h(w) = log(w/z) + ln exp_q(w) and its slope h'(w); w and z share a
    sign.  h is zero at the root and equals f(w)/z - 1 to first order."""
    u = (1.0 - q) * w
    if u <= -1.0:
        # at or past the cutoff: -inf where exp_q is 0 for q < 1, and +inf at
        # and past the q > 1 wall, the side where f grows without bound
        return math.copysign(math.inf, q - 1.0), math.nan
    ratio = w / z
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:
        # w/z over- or underflowed: only far from the root, mid-bisection
        log_ratio = math.log(abs(w)) - math.log(abs(z))
    return log_ratio + _ln_exp_q(q, w), 1.0 / w + 1.0 / (1.0 + u)


def _ordinal(x: float) -> int:
    """Position of x among the doubles, order-preserving (+-0.0 share 0)."""
    n = struct.unpack("<q", struct.pack("<d", x))[0]
    return n if n >= 0 else -(n & 0x7FFF_FFFF_FFFF_FFFF)


def _from_ordinal(n: int) -> float:
    x = struct.unpack("<d", struct.pack("<q", abs(n)))[0]
    return x if n >= 0 else -x


def wq(q: float, z: float, branch: Branch = Branch.UPPER) -> SolveResult:
    """Solve w * exp_q(q, w) = z on the requested branch.

    The iteration stops once the relative residual |h| = |log(f(w)/z)| is at
    most DEFAULT_TOL (1e-12), or on a Newton step under 4 ulp of w, where
    conditioning puts that bound out of reach.  SolveResult.residual is |h|
    at the last point evaluated, before the final Newton step.  Next to the
    wall the root is in closed form, with no iteration (see the module
    notes and SolveResult).  Raises
    DomainError outside the branch domain, NoBranchPointError for a
    lower-branch request at q >= 2, and ConvergenceError (with the best
    iterate) only when no double approximates the root.
    """
    q, z, branch, bp = _check_request(q, z, branch)
    z_b, w_b = _NO_BRANCH_POINT if bp is None else bp
    # as a one-point _solve run: its shortcuts, then _bracket's start
    if z == 0.0:  # the lower branch's domain excludes 0
        w, residual, iterations = 0.0, 0.0, 0
    elif z == z_b:  # both branches meet here, where h has a double root
        w, residual, iterations = w_b, 0.0, 0
    else:
        lo, hi, start, g = _bracket(q, z, branch, z_b, w_b)
        # outside the wall kernel's regime g is at least _WALL_G, often inf
        if g < _WALL_G and (found := _wall_root(q, z, g, w_b)):
            w, residual, iterations = found
        else:
            w, residual, iterations = _root(q, z, branch, lo, hi, start)
    # tuple.__new__ builds the record in C; SolveResult(...) runs a Python __new__
    return tuple.__new__(SolveResult, (w, branch, residual, iterations))


def _check_settings(q: float, branch: Branch | str) -> Branch:
    """wq's checks that need no z, in order: the branch and the lower
    branch's existence, for a finite q.  Returns the branch as a Branch."""
    branch = _as_branch(branch)
    if branch is _LOWER and q >= 2.0:
        raise NoBranchPointError(
            "no lower branch for q = %g: the branch point exists only for q < 2", q)
    return branch


def _check_request(q: float, z: float,
                   branch: Branch | str) -> tuple[float, float, Branch, BranchPoint | None]:
    """wq's checks, in order: q and z finite, _check_settings, the branch
    domain.  Returns (q, z, branch, bp) as floats, a Branch and
    branch_point(q), except that bp is None for z >= 0 on the upper branch:
    z_b < 0, so every upper domain holds that z, and neither the shortcuts nor
    _bracket and _ends read z_b or w_b there."""
    q = _require_finite("q", q)
    z = _require_finite("z", z)
    branch = _check_settings(q, branch)
    if z >= 0.0 and branch is _UPPER:
        return q, z, branch, None
    bp = _branch_point(q)
    lo, lo_closed, hi = _domain(q, branch, bp)
    if not ((z >= lo if lo_closed else z > lo) and z < hi):
        raise DomainError("z = %r is outside the %s-branch domain %s for q = %g", z,
                          branch.value, tuple.__new__(Interval, (lo, hi, lo_closed, False)), q)
    return q, z, branch, bp


def _solve(q: float, zs: Iterable[float], branch: Branch,
           bp: BranchPoint | None) -> Iterator[tuple[float, float, int]]:
    """The CLI table's driver of _root, unchecked: every z in zs lies in the
    branch's domain and bp is branch_point(q).
    Solves the points in order and yields a (w, residual, iterations) tuple
    per point, about a tenth of a SolveResult's cost.  A generator, so that a
    table frees each row at once: 10^4 live rows would pass into the garbage
    collector's older generations and be traversed there again and again.
    wq and dwq_dz solve their one point without it.

    A point starts _root from the degree-5 extrapolant through the last six
    roots, 6 w1 - 15 w2 + 20 w3 - 15 w4 + 6 w5 - w6, when the extrapolant
    started the previous point and that point kept it.  Its error is
    O(step^6 W^(6)), and its rounding (the coefficients sum to 63 in
    magnitude, so up to about 32 ulp of W) stays far below DEFAULT_TOL; a
    lower degree misses more often, a higher one gains nothing.  The point
    is then bounded by _ends alone: a comparison or a division per end, and
    no _bracket, whose tails and analytic start cost about as much as the
    evaluation itself.
    Every other point calls _bracket and starts from its analytic start or from
    the extrapolant, whichever landed nearer the root on the last point that
    computed both; the extrapolant only from strictly inside the bracket, and
    one outside the fixed ends goes to _bracket too.

    A point keeps the extrapolant when it stopped at its first evaluation.
    After more evaluations it keeps it only where the analytic start cannot
    have caught up: the last point that computed both found the start farther
    from the root than 64 (d + 64 ulp), d being the extrapolant's distance
    (won_at holds w (1 + (1-q) w) at that root, nan otherwise), and
    w (1 + (1-q) w) is still within a factor 8 of won_at.  That product
    tracks |W| where W is small and W^2 where it is large, and the distance
    to the wall next to it: the scales on which the analytic starts' accuracy
    changes.  Next to the q = 3 wall h' is about 2 500, so a row there takes a
    second evaluation however good its start; the start is some 10^9 ulp off
    there and is not re-checked.  Where it is all but exact, as at q = 2 on
    [-0.999, 1], it keeps winning, and about half the rows of a 10^4-step
    table call _bracket; on the benchmark's other 10^4-step tables 0.1-0.2%
    do, and 1.1-2.4% of 1000-step ones.  The extrapolant needs six roots and
    one point to compare on, so the first seven points of a run take the
    analytic start, as wq does.

    Every point other than z = 0 and z_b is then one _root call from that
    start and those ends, so each evaluates its start once; on a 10^4-step
    table about 96% of the rows stop at that first evaluation."""
    z_b, w_b = _NO_BRANCH_POINT if bp is None else bp
    reach = _wall_reach(q, branch)
    # the last six roots, newest first, and won_at (see above)
    w1 = w2 = w3 = w4 = w5 = w6 = won_at = math.nan
    extrap_nearer = from_extrap = False
    for z in zs:
        if z == 0.0:  # the lower branch's domain excludes 0
            result = (0.0, 0.0, 0)
        elif z == z_b:
            # both branches meet here, where h has a double root
            result = (w_b, 0.0, 0)
        elif z > reach and (found := _wall_root(q, z, _wall_tail(q, z)[1], w_b)):
            result = found
        else:
            # nan before six roots are known, which fails lo < extrap < hi
            extrap = 6.0 * w1 - 15.0 * w2 + 20.0 * w3 - 15.0 * w4 + 6.0 * w5 - w6
            # from_extrap: the extrapolant started the last point and that point
            # kept it, so it starts this one too, inside the fixed ends
            if from_extrap:
                lo, hi = _ends(q, z, branch, w_b)
                from_extrap = lo < extrap < hi
            if from_extrap:
                result = _root(q, z, branch, lo, hi, extrap)
            else:
                lo, hi, start, _ = _bracket(q, z, branch, z_b, w_b)
                inside = lo < extrap < hi  # False while extrap is nan
                from_extrap = inside and extrap_nearer
                result = _root(q, z, branch, lo, hi, extrap if from_extrap else start)
                w, miss = result[0], abs(extrap - result[0])
                extrap_nearer = inside and miss < abs(start - w)
                far = 64.0 * (miss + 64.0 * math.ulp(w)) < abs(start - w)
                won_at = w + (1.0 - q) * w * w if far else math.nan
        w1, w2, w3, w4, w5, w6 = result[0], w1, w2, w3, w4, w5
        # after more than one evaluation, only where the start cannot have caught up
        from_extrap = from_extrap and (result[2] == 1 or abs(won_at)
                                       < 8.0 * abs(w1 + (1.0 - q) * w1 * w1) < 64.0 * abs(won_at))
        yield result


def _root(q: float, z: float, branch: Branch, lo: float, hi: float,
          w: float) -> tuple[float, float, int]:
    """The solver's one loop, unchecked: z lies in branch's domain and is
    neither 0 nor z_b, lo < W < hi brackets its root and the loop starts at
    w in [lo, hi].  Newton on h until |h| <= DEFAULT_TOL, and bisection
    over the ordered doubles as the fallback and after _NEWTON_EVALUATIONS
    evaluations (see the module notes).  Returns (w, residual, iterations), or raises
    ConvergenceError with the best iterate; iterations leaves out the
    closure's end checks."""
    rising = branch is _LOWER or z > 0.0  # h increases through the root
    best_w, best_h = w, math.inf
    h_lo = h_hi = None  # |h| at lo and hi once the loop has evaluated there
    back1 = back2 = math.inf  # |h| one and two evaluations ago
    iters = 0
    while True:  # each bisection halves the bracket, so the closure ends the loop
        h, slope = _log_residual(q, z, w)
        iters += 1
        ah = abs(h)
        if ah < best_h:
            best_w, best_h = w, ah
        # a point at the q < 1 cutoff (h = -inf) lies below the root on
        # either branch, as the wall is the least w of the domain
        if (h < 0.0) == rising or h == -math.inf:
            lo, h_lo = w, ah
        else:
            hi, h_hi = w, ah
        newton = w - h / slope if slope != 0.0 else math.nan  # h' = 0 at w_b
        if newton == w and abs(slope) == math.inf:
            # 1/w in h' overflowed, |w| < 1/DBL_MAX: h/h' is h w to first order
            newton = w - h * w
        step_inside = lo < newton < hi
        if ((ah <= DEFAULT_TOL or abs(w - newton) <= 4.0 * math.ulp(w))
                and (step_inside or newton == w)):
            return newton, ah, iters
        halved = ah <= 0.5 * back2
        back1, back2 = ah, back1
        if step_inside and halved and iters < _NEWTON_EVALUATIONS:
            w = newton
            continue
        a, b = _ordinal(lo), _ordinal(hi)
        if b - a > 1:
            w = _from_ordinal((a + b) // 2)
            continue
        # closed on adjacent doubles: the better end, unless an end is the end
        # of the double range or at the wall.  An analytic end, never
        # evaluated, may be the root; the loop's last w is already one end
        if max(-lo, hi) != sys.float_info.max:
            if h_lo is None:
                h_lo = abs(_log_residual(q, z, lo)[0])
            if h_hi is None:
                h_hi = abs(_log_residual(q, z, hi)[0])
            if not math.isinf(h_lo + h_hi):
                return (lo if h_lo <= h_hi else hi), min(h_lo, h_hi), iters
        raise ConvergenceError(_NO_DOUBLE, q, z, branch.value, best_w, best_w=best_w,
                               residual=best_h, iterations=iters)


def dwq_dz(q: float, z: float, branch: Branch = Branch.UPPER) -> float:
    """Derivative of the branch at z, 1/f'(W) (see the module notes): 1 at
    z = 0, divergent (vertical tangent) at the branch point."""
    q, z, branch, bp = _check_request(q, z, branch)
    z_b, w_b = _NO_BRANCH_POINT if bp is None else bp
    if z == z_b:
        raise DerivativeSingularError(
            "dW/dz diverges at the branch point z_b = %r for q = %g", z_b, q)
    if z == 0.0:
        return 1.0
    lo, hi, start, _ = _bracket(q, z, branch, z_b, w_b)
    w = _root(q, z, branch, lo, hi, start)[0]
    den = 1.0 + (2.0 - q) * w
    if den == 0.0:
        raise DerivativeSingularError("dW/dz diverges at w = %r (q = %g)", w, q)
    ratio = w / z  # positive: w and z share a sign on every branch
    if abs(q) > 2.0:
        # the rational form, with both brackets over W where |W| > 1
        if abs(w) > 1.0:
            r = 1.0 / w
            num, rden = (1.0 - q) + r, (2.0 - q) + r
            c = abs((1.0 - q) / num)
        else:
            u = (1.0 - q) * w
            num, rden = 1.0 + u, den
            c = abs(u / num) if num else math.inf
        if 1.0 + c < abs(q):
            d = ratio * (num / rden)
            if sys.float_info.min <= min(ratio, abs(d)) and max(ratio, abs(d)) < math.inf:
                return d
    try:
        power = ratio ** q
    except OverflowError:
        power = math.inf
    d = power / den
    normal = sys.float_info.min <= ratio < math.inf
    if normal and sys.float_info.min <= min(power, abs(d)) and abs(d) < math.inf:
        return d
    # a factor leaves the normal range: divide in log space, where an
    # infinite den is (2-q) W to within rounding
    log_ratio = math.log(ratio) if normal else math.log(abs(w)) - math.log(abs(z))
    log_den = (math.log(abs(den)) if math.isfinite(den)
               else math.log(abs(2.0 - q)) + math.log(abs(w)))
    return math.copysign(_safe_exp(q * log_ratio - log_den), den)


def wq_closed_form(q: float, z: float, branch: Branch = Branch.UPPER) -> float | None:
    """Closed-form branch values where they exist; None elsewhere.

    q = 2: W(z) = z/(1+z) on z > -1 (single branch).
    q = 0: the defining equation is the quadratic w (1 + w) = z, giving
           (-1 + sqrt(1+4z))/2 upper and (-1 - sqrt(1+4z))/2 lower; the
           lower form is real on this branch only for z in [-1/4, 0).
    q = 3/2: w = 2 (1 - s) with z s^2 + 2 s - 2 = 0, s = exp_q(w)^(-1/2),
           free of cancellation as 2z / (1 + z + sqrt(1+2z)) on the upper
           branch, z >= -1/2, and 2 (1 + z + sqrt(1+2z)) / z on the lower
           branch, z in [-1/2, 0).
    q = 3: w^2 = z^2 (1 - 2w) with w of z's sign, as z / (sqrt(z^2+1) + z)
           for z > 0 and z (sqrt(z^2+1) + |z|) for z <= 0 (single branch),
           with sqrt(z^2+1) as hypot(z, 1), which does not overflow.
    Used as an independent oracle against the iterative solver.
    """
    q = _require_finite("q", q)
    z = _require_finite("z", z)
    branch = _as_branch(branch)
    if q == 2.0:
        if branch is _UPPER and z > -1.0:
            return z / (1.0 + z)
        return None
    if q == 0.0:
        disc = 1.0 + 4.0 * z
        if disc < 0.0:
            return None
        root = math.sqrt(disc)
        if branch is _UPPER:
            return 0.5 * (-1.0 + root)
        if z < 0.0:
            return 0.5 * (-1.0 - root)
        return None
    if q == 1.5:
        if z < -0.5 or (branch is _LOWER and z >= 0.0):
            return None
        # past z = 2^1021, 1 + 2z would overflow; the 1 is below its ulp there
        root = math.sqrt(1.0 + 2.0 * z) if z < 2.0 ** 1021 else math.sqrt(2.0) * math.sqrt(z)
        s = 1.0 + z + root
        return z / (0.5 * s) if branch is _UPPER else 2.0 * s / z
    if q == 3.0:
        if branch is _LOWER:
            return None
        h = math.hypot(z, 1.0)
        return z / (h + z) if z > 0.0 else z * (h - z)
    return None
