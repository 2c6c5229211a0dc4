"""Branch solver: frozen reference values, branch points, domains, the
closed forms at q = 0 and q = 2, derivative, and failure modes.

Reference values were frozen from independent routes before the solver
existed: plain 200-iteration bisection for the classical point, exact
algebra for q in {0, 2} and for W_1.5(1) = 4 - 2 sqrt(3), and 60-digit
arithmetic for the rest.
"""

import importlib
import inspect
import json
import math
import operator
import pickle
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambert_tsallis.classify import Classification, Rule, classify_expq, classify_wq
from lambert_tsallis.cli import main
from lambert_tsallis.errors import (ConvergenceError, DerivativeSingularError, DomainError,
                                    LambertTsallisError, MalformedInputError,
                                    NoBranchPointError)
from lambert_tsallis.exact import (E, ONE, PI, ZERO, ArithmeticClass, Constant,
                                   parse_exact)
from lambert_tsallis.qexp import dlnq_dz, exp_q, ln_q
from lambert_tsallis.verify import CheckResult, algebraicity_scan, branch_point_check
from lambert_tsallis.wq import (DEFAULT_TOL, Branch, BranchPoint, Interval,
                                SolveResult, _bracket, _check_request, _ends, _log_residual,
                                _solve, branch_domain, branch_point, dwq_dz, wq,
                                wq_closed_form)

OMEGA = 0.5671432904097838          # W(1), classical
DW_AT_ONE = 0.3618962566348892      # W'(1) = e^{-W(1)}/(1 + W(1))
W15_AT_ONE = 4.0 - 2.0 * math.sqrt(3.0)


def bisect_oracle(q, z, lo, hi, iters=200):
    """Plain bisection, no reuse of the library's bracketing or Newton."""
    f = lambda w: w * exp_q(q, w) - z
    assert f(lo) * f(hi) < 0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------ pinned solves

def test_w2_at_one_is_half():
    res = wq(2.0, 1.0)
    assert abs(res.w - 0.5) <= 1e-12
    assert res.residual <= 1e-12


def test_classical_omega():
    res = wq(1.0, 1.0)
    assert abs(res.w - OMEGA) <= 1e-12
    assert abs(res.w - bisect_oracle(1.0, 1.0, 0.0, 1.0)) <= 1e-10


def test_q0_upper_closed_form():
    # w(1+w) = z, upper root (-1 + sqrt(1+4z))/2
    assert abs(wq(0.0, 2.0).w - 1.0) <= 1e-12
    assert abs(wq(0.0, 6.0).w - 2.0) <= 1e-12


def test_q0_lower_closed_form():
    assert abs(wq(0.0, -3.0 / 16.0, Branch.LOWER).w - (-0.75)) <= 1e-12


def test_w15_at_one_is_algebraic():
    assert abs(wq(1.5, 1.0).w - W15_AT_ONE) <= 1e-12


def test_zero_maps_to_zero_on_upper():
    for q in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        res = wq(q, 0.0)
        assert res.w == 0.0
        assert res.residual == 0.0


def test_solve_at_branch_point_returns_w_b():
    for q in (0.0, 0.5, 1.0, 1.5):
        bp = branch_point(q)
        for branch in (Branch.UPPER, Branch.LOWER):
            res = wq(q, bp.z_b, branch)
            assert res.w == bp.w_b
            assert res.residual == 0.0


def test_defining_equation_holds():
    for q in (0.0, 0.5, 1.0, 1.5, math.sqrt(2.0), 2.0, 2.5, 3.0):
        for z in (-0.2, 0.3, 1.0, 7.5, 24.0):
            if not branch_domain(q, Branch.UPPER).contains(z):
                continue
            res = wq(q, z)
            assert abs(res.w * exp_q(q, res.w) - z) <= 1e-10 * max(1.0, abs(z))


def test_lower_branch_values_are_below_w_b():
    for q in (0.0, 0.5, 1.0, 1.5):
        bp = branch_point(q)
        z = bp.z_b * 0.5
        up = wq(q, z, Branch.UPPER).w
        low = wq(q, z, Branch.LOWER).w
        assert low < bp.w_b < up


def test_huge_z_on_upper_branch():
    # w grows like log for q = 1 and saturates near the wall for q > 1
    res = wq(1.0, 1e8)
    assert abs(res.w * math.exp(res.w) - 1e8) <= 1e-10 * 1e8
    res = wq(3.0, 25.0)
    assert 0.49 < res.w < 0.5  # wall at 1/(q-1)
    assert res.residual <= 1e-10 * 25.0


def test_unrepresentable_root_raises_honestly():
    # at q = 3, z = 1e8 the root is within one ulp of the wall w = 1/2 and
    # no double gives a residual anywhere near DEFAULT_TOL; the solver must
    # say so
    with pytest.raises(ConvergenceError) as exc:
        wq(3.0, 1e8)
    assert exc.value.best_w < 0.5


def test_deep_lower_branch_classical():
    # z close to 0- sends the classical lower branch to large negative w
    res = wq(1.0, -1e-8, Branch.LOWER)
    assert res.w < -20.0
    assert abs(res.w * math.exp(res.w) - (-1e-8)) <= 1e-10


@pytest.mark.parametrize("q,closed_form", [
    (0.0, lambda z: 2.0 * z / (1.0 + math.sqrt(1.0 + 4.0 * z))),
    (1.0, lambda z: z - z * z),
    (2.0, lambda z: z / (1.0 + z)),
])
def test_tiny_z_keeps_full_relative_accuracy(q, closed_form):
    # an absolute residual test would accept any w below ~1e-12 here
    z = 1e-20
    ref = closed_form(z)
    assert abs(wq(q, z).w - ref) <= 4.0 * math.ulp(ref)


@pytest.mark.parametrize("q,z", [(3.0, 1e3), (2.5, 1e4)])
def test_representable_roots_next_to_the_wall_converge(q, z):
    # f' is 4e9 and 2e10 at these roots, so f jumps 2e-7 and 2e-6 between
    # neighbouring doubles and none meets an absolute residual test of
    # 1e-12 |z|; the roots are still doubles well inside the wall
    res = wq(q, z)
    assert abs(res.w * exp_q(q, res.w) / z - 1.0) <= 1e-8


def test_root_next_to_the_wall_matches_q3_closed_form():
    # at q = 3, w / sqrt(1 - 2w) = z solves to w = 1 / (1 + sqrt(1 + z^-2))
    ref = 1.0 / (1.0 + math.sqrt(1.0 + 1e-6))
    assert abs(wq(3.0, 1e3).w - ref) <= 4.0 * math.ulp(ref)


# ------------------------------------------------------------ the wall kernel

def test_wall_kernel_answers_the_double_inside_an_inexact_wall():
    # the double 0.6666666666666666 lies below the wall 2/3 at q = 2.5 and is
    # the root's nearest double: in w, (1-q) w rounds to -1 there, and wq
    # refused it.  In closed form it is an answer of no evaluation
    assert wq(2.5, 1e200) == (0.6666666666666666, Branch.UPPER, 0.0, 0)
    # at q = 3 the wall 1/2 is a double: the root's nearest double is the
    # wall itself, and wq still refuses with one evaluation (it made two)
    solver = importlib.import_module("lambert_tsallis.wq")
    calls = [0]
    original = solver._log_residual

    def counted(*args):
        calls[0] += 1
        return original(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_log_residual", counted)
        with pytest.raises(ConvergenceError):
            wq(3.0, 1e8)
    assert calls[0] == 1


def test_wall_kernel_explains_the_residual_next_to_the_q0_wall():
    # g = 2.5e-7 is below 2^-20: the lower branch's root is b - 1 with
    # b = g (1 + g + ...), and the residual is ((q-1) g)^2 = 6.25e-14, that of
    # b's own equation.  The w-form solve stopped on its step floor with
    # |h| = 1.6e-10 and nothing to say why
    res = wq(0.0, -2.5e-7, "lower")
    ref = wq_closed_form(0.0, -2.5e-7, "lower")
    assert abs(res.w - ref) <= math.ulp(ref)
    assert (res.residual, res.iterations) == (6.25e-14, 0)
    assert res.residual <= DEFAULT_TOL


def _wall_reference(q, z):
    """W at the wall to 60 digits: b = g (1-b)^(q-1) iterated from g."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        qm, zm = mpmath.mpf(q), mpmath.mpf(z)
        g = (zm * (qm - 1)) ** (1 - qm)
        b = g
        for _ in range(8):  # each step multiplies the error by (q-1) g < 2^-20
            b = g * (1 - b) ** (qm - 1)
        return (1 - b) / (qm - 1)


@pytest.mark.parametrize("q", [2.5, math.sqrt(2.0), 2.75])
def test_wall_kernel_against_mpmath_at_inexact_walls(q):
    # none of these walls 1/(q-1) is a double, so every root next to one has
    # a double inside the domain to answer with.  z is log-uniform from where
    # g = (z (q-1))^(1-q) falls below 2^-21 up to 1e300
    rng = random.Random(f"wall-mpmath:{q!r}")
    z_min = 2.0 ** (21.0 / (q - 1.0)) / (q - 1.0)
    for _ in range(60):
        z = 10.0 ** rng.uniform(math.log10(z_min), 300.0)
        res = wq(q, z)
        ref = _wall_reference(q, z)
        assert res.iterations == 0 and res.residual <= 2.0 ** -40, (q, z, res)
        assert abs(res.w - ref) <= math.ulp(float(ref)), (q, z, res.w, float(ref))


@pytest.mark.parametrize("q, z, w", [
    (-3.3060214076567163, -2.9195406016833574e-174, -0.232232937398281),
    (0.47503597813159276, -2.0352104364939772e-52, -1.9048924466116461)])
def test_wall_kernel_answers_past_the_rounded_wall(capsys, q, z, w):
    # q - 1 is not a double, and _ends' wall 1/(q-1) lies inside the true
    # wall and inside the root's nearest double, which _root, bracketed by
    # _ends, misses by 2.15 and 2.25 ulp.  The closed form answers it
    res = wq(q, z, "lower")
    assert (res.w, res.iterations) == (w, 0)
    assert 1.0 / (q - 1.0) > w
    # a table row at that z is the same answer
    assert main(["table", "wq", "--q", repr(q), f"--z-from={z!r}", f"--z-to={z / 2.0!r}",
                 "--steps", "2", "--branch", "lower", "--format", "json"]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert (row["z"], row["value"], row["residual"]) == (z, w, res.residual)


def _inside(q, w):
    """1 + (1-q) w > 0, decided exactly from q's and w's ints."""
    (n, d), (m, k) = q.as_integer_ratio(), w.as_integer_ratio()
    return d * k + (d - n) * m > 0


def test_wall_kernel_answers_the_innermost_doubles_exactly():
    # q in [-5, 1/2), where q - 1 is not a double, such that _ends' wall
    # 1/(q-1) lies at least one double inside the true wall.  The root is
    # put at the innermost double or one or two further inside, with z from
    # the exact bracket b = 1 + (1-q) w; the root's condition number there is
    # about |q-1| b < 2^-40, so the rounding of z cannot move the answer
    rng = random.Random("wall-innermost")
    hits = 0
    while hits < 200:
        q = rng.uniform(-5.0, 0.5)
        n, d = q.as_integer_ratio()
        inner = d / (n - d)  # the true wall, rounded
        if not _inside(q, inner):
            inner = math.nextafter(inner, 0.0)
        if not inner < 1.0 / (q - 1.0):
            continue
        hits += 1
        w = inner
        for _ in range(rng.randrange(3)):
            w = math.nextafter(w, 0.0)
        b = 1 + (1 - Fraction(q)) * Fraction(w)
        z = w * float(b) ** (1.0 / (1.0 - q))
        assert wq(q, z, "lower").w == w, (q, z, w)


def test_wall_reach_is_a_bound_only_on_the_walls_side():
    solver = importlib.import_module("lambert_tsallis.wq")
    for q, branch in [(1.0, "upper"), (1.0, "lower"), (0.5, "upper"), (1.5, "lower")]:
        assert solver._wall_reach(q, Branch(branch)) == math.inf
    # past |q-1| = 2^50 every z on the wall's side is tested
    assert solver._wall_reach(1e20, Branch.UPPER) == 1.0 / (1e20 - 1.0)
    assert solver._wall_reach(-1e20, Branch.LOWER) == -math.inf
    # otherwise the bound lies past the wall, and g = 2^-10 there at q = 2
    assert solver._wall_reach(2.0, Branch.UPPER) == pytest.approx(2.0 ** 10)


@pytest.mark.parametrize("q, branch, decades", [
    (2.5, "upper", 300.0), (3.0, "upper", 9.0), (1.5, "upper", 33.0), (1e20, "upper", 300.0),
    (1e200, "upper", 300.0), (0.0, "lower", 300.0), (0.3, "lower", 300.0),
    (-2.0, "lower", 300.0)])
def test_table_rows_in_the_wall_kernel_equal_wq(q, branch, decades):
    # _solve tests a row for the kernel only past _wall_reach: no row in the
    # kernel's regime lies before it, and each such row is wq's answer, or
    # its refusal, which ends the table; at q = 3 and 3/2 the roots' nearest
    # double is the exact-double wall from about z = 1e8 and 1e32.  At
    # q = 1e20 and 1e200 q - 1 is not a double, and every row past the wall
    # is tested
    solver = importlib.import_module("lambert_tsallis.wq")
    bp, wall = branch_point(q), 1.0 / (q - 1.0)
    reach = solver._wall_reach(q, Branch(branch))
    rng = random.Random(f"wall-table:{q!r}")  # z on the wall's side, through the regime's edge
    if branch == "upper":
        zs = sorted(wall * 10.0 ** rng.uniform(0.0, decades) for _ in range(400))
    else:
        zs = sorted(-abs(wall) * 10.0 ** -rng.uniform(0.0, 300.0) for _ in range(400))
        zs = [z for z in zs if z > bp.z_b]
    rows, kernel = _solve(q, zs, Branch(branch), bp), 0
    for z in zs:
        try:
            res = wq(q, z, branch)
        except ConvergenceError as e:
            with pytest.raises(ConvergenceError) as row:
                next(rows)
            assert (str(row.value), row.value.best_w) == (str(e), e.best_w)
            break
        row = next(rows)
        if res.iterations == 0:
            kernel += 1
            assert z > reach and row == (res.w, res.residual, 0), (q, z, reach, row, res)
    assert kernel > 50, kernel


# ------------------------------------------------------- branch point, domain

def test_branch_point_classical():
    bp = branch_point(1.0)
    assert abs(bp.z_b - (-1.0 / math.e)) <= 1e-12
    assert bp.w_b == -1.0


@pytest.mark.parametrize("q,z_b,w_b", [
    (0.0, -0.25, -0.5),
    (0.5, -8.0 / 27.0, -2.0 / 3.0),
    (1.5, -0.5, -2.0),
])
def test_branch_point_pinned(q, z_b, w_b):
    bp = branch_point(q)
    assert bp.z_b == pytest.approx(z_b, abs=1e-12)
    assert bp.w_b == pytest.approx(w_b, abs=1e-12)


def test_branch_point_below_q_minus_1e16():
    # 1 + (1-q) w_b = 1/(2-q) rounds to 0 here, where exp_q cuts off; the
    # true z_b = -(2-q)^((q-2)/(1-q)) is -1e-17 to within 4e-16 relative
    assert abs(branch_point(-1e17).z_b + 1e-17) <= 1e-15 * 1e-17


@pytest.mark.parametrize("q", [-2e16, -1e17, -1e100, -1e300])
def test_branch_point_below_q_minus_1e16_against_mpmath(q):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        qv = mpmath.mpf(q)
        z_b = -(2 - qv) ** ((qv - 2) / (1 - qv))
        rel = abs((branch_point(q).z_b - z_b) / z_b)
    assert rel <= 2e-16


def test_wq_just_above_a_branch_point_below_q_minus_1e16():
    # z_b is about -5e-17: z = -1e-17 lies inside the upper-branch domain
    res = wq(-2e16, -1e-17)
    assert res.w == pytest.approx(-1e-17, rel=1e-15)


@pytest.mark.parametrize("branch", ["upper", "lower"])
@pytest.mark.parametrize("solver", [wq, dwq_dz])
def test_branch_point_start_below_q_minus_5e102_does_not_overflow(solver, branch):
    # (2-q)^3 in the branch-point start overflowed past q = -5.6e102 and
    # escaped as a builtin OverflowError; the start's offset from w_b is far
    # under an ulp of w_b there, so the start is w_b.  The lower branch has
    # no double between the wall and w_b; the upper branch's root is -5e-201
    if branch == "lower":
        with pytest.raises(ConvergenceError, match="no double approximates the root"):
            solver(-1e200, -5e-201, branch)
    elif solver is wq:
        assert wq(-1e200, -5e-201).w == -5e-201
    else:  # its value: test_derivative_next_to_the_branch_point_below_q_minus_1e13
        assert math.isfinite(dwq_dz(-1e200, -5e-201))


@pytest.mark.parametrize("q", [-3.2e32, -1e33, -1e50, -1e100, -5e102, -1e200, -1.7e308])
def test_upper_branch_start_at_the_cutoff(q):
    # 1 + (1-q) w_b rounds to the cutoff here, so h(w_b) is -inf; the loop
    # took w_b for the upper end on the upper branch, closed the bracket on
    # [w_b, w_b] and refused.  At z = z_b/2 the root is z to a relative 1/|q|
    z = branch_point(q).z_b / 2.0
    res = wq(q, z)
    assert res.w == z and res.residual <= DEFAULT_TOL


@pytest.mark.parametrize("q, z", [(-1e14, -5e-15), (-2e16, -1e-17), (-1e20, -5e-21),
                                  (-1e200, -5e-201)])
def test_derivative_next_to_the_branch_point_below_q_minus_1e13(q, z):
    # z is z_b/2 (z_b/5 at q = -2e16); 500-digit mpmath gives 1 + 1.7e-14,
    # 1 + 2.4e-17, 1 + 1.7e-20 and 1.  The power form (W/z)^q multiplied the
    # rounding of W/z by |q| and gave 1.0048, 1.25, 2.0 and 2.0
    assert dwq_dz(q, z) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("q, z", [(1.7e308, -1e300), (1e308, -1e300), (1e308, -1e10),
                                  (1.7e308, -1e308)])
def test_derivative_for_q_next_to_the_double_range(q, z):
    # exp_q(W) is 1 to within about log(q |W|)/q here, so W is z and dW/dz is 1
    # to that relative order; the power form gave 0.0 at the first two and inf
    # at the last two
    assert dwq_dz(q, z) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("q, z", [(-1e10, -3e-309), (-1e10, -1e-315), (0.0, 5e-324)])
def test_subnormal_root_is_not_a_false_convergence(q, z):
    # below |w| = 1/DBL_MAX, 1/w in h' overflows, so the Newton step w - h/h'
    # rounded to w and passed the step-floor test: wq(-1e10, -3e-309) gave
    # -4.34e-309 with |h| = 0.37.  The root is z to within 1e-298.  Skipping
    # the step there instead bisects wq(0, 5e-324) down to w = 0, where
    # log(0) raises
    res = wq(q, z)
    assert res.w == z and res.residual <= DEFAULT_TOL
    assert dwq_dz(q, z) == 1.0


@pytest.mark.parametrize("q, z", [
    (-1e33, -5e-34),  # z_b/2
    (-1e60, -1.0000000000000001e-65),  # z_b * 1e-5
    (-1e200, -5e-201),
    (-1e10, -3e-309),
])
def test_tiny_upper_branch_z_starts_at_its_root(monkeypatch, q, z):
    # z/(1+z) is within an ulp of W here, but the start was the branch-point
    # quadratic's, at or next to w_b, and the loop bisected up to 300 decades:
    # 37, 59, 30 and 64 evaluations for the same w, which is z at each
    solver = importlib.import_module("lambert_tsallis.wq")
    original, calls = solver._log_residual, [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, "_log_residual", counted)
    res = wq(q, z)
    assert res.w == z and calls[0] <= 6, (res, calls[0])


def test_power_tail_past_the_double_range():
    # (q-1) log|z| overflows to inf for q = 1.7e308 and z = -1e300; the
    # upper branch's far end saturates instead of reaching -inf
    res = wq(1.7e308, -1e300)
    assert res.w == -1e300 and res.iterations == 1


@pytest.mark.parametrize("q, z", [(1.7e308, -1e308), (1e20, -2.2e-308), (1e300, -1e-200),
                                  (1e50, -1e-300)])
def test_power_tail_is_widened_by_its_rounding(q, z):
    # exp_q(W) is 1 to within about log(q |W|)/q, so W rounds to z and dW/dz
    # to 1.  The power tail, the upper end for q > 2, is an exp of about
    # log|z|, 460 to 709 in size here; unwidened, its rounding put it past W
    # and the bracket closed on it: w was -1.0000000000000136e+308 at the
    # first, and dwq_dz 1.0000000000000135, 1.0000000000000209,
    # 1.0000000000000349 and 1.0000000000000238
    assert wq(q, z).w == z
    assert dwq_dz(q, z) == 1.0


def test_branch_point_absent_at_two_and_beyond():
    for q in (2.0, 2.5, 3.0):
        assert branch_point(q) is None


def test_branch_domain_shapes():
    d = branch_domain(1.0, Branch.UPPER)
    assert d.lo == pytest.approx(-1.0 / math.e, abs=1e-12)
    assert d.lo_closed and d.hi == math.inf

    d = branch_domain(2.0, Branch.UPPER)
    assert d.lo == -1.0 and not d.lo_closed

    d = branch_domain(3.0, Branch.UPPER)
    assert d.lo == -math.inf and d.hi == math.inf

    d = branch_domain(1.0, Branch.LOWER)
    assert d.lo == pytest.approx(-1.0 / math.e, abs=1e-12)
    assert d.hi == 0.0 and not d.hi_closed

    assert branch_domain(2.0, Branch.LOWER).is_empty
    assert branch_domain(2.5, Branch.LOWER).is_empty
    assert str(branch_domain(3.0, "lower")) == "(empty)"


# one z outside each domain shape and its DomainError text, which the
# Interval alone still writes; the whole line has no such z
@pytest.mark.parametrize("q, branch, z_out, message", [
    (0.0, Branch.UPPER, -0.25000000000000006,
     "z = -0.25000000000000006 is outside the upper-branch domain [-0.25, inf) for q = 0"),
    (0.5, Branch.UPPER, -0.29629629629629634,
     "z = -0.29629629629629634 is outside the upper-branch domain [-0.296296, inf) for q = 0.5"),
    (1.0, Branch.UPPER, -0.3678794411714424,
     "z = -0.3678794411714424 is outside the upper-branch domain [-0.367879, inf) for q = 1"),
    (1.5, Branch.UPPER, -0.5000000000000001,
     "z = -0.5000000000000001 is outside the upper-branch domain [-0.5, inf) for q = 1.5"),
    (2.0, Branch.UPPER, -1.0, "z = -1.0 is outside the upper-branch domain (-1, inf) for q = 2"),
    (2.5, Branch.UPPER, None, None),
    (3.0, Branch.UPPER, None, None),
    (0.0, Branch.LOWER, 0.0, "z = 0.0 is outside the lower-branch domain [-0.25, 0) for q = 0"),
    (0.5, Branch.LOWER, 0.0,
     "z = 0.0 is outside the lower-branch domain [-0.296296, 0) for q = 0.5"),
    (1.0, Branch.LOWER, 0.0,
     "z = 0.0 is outside the lower-branch domain [-0.367879, 0) for q = 1"),
    (1.5, Branch.LOWER, 0.0, "z = 0.0 is outside the lower-branch domain [-0.5, 0) for q = 1.5"),
])
def test_domain_check_agrees_with_the_interval(q, branch, z_out, message):
    # _check_request decides the domain by comparisons; branch_domain's
    # Interval is the reference, on every edge a comparison could get wrong
    bp = branch_point(q)
    big = sys.float_info.max
    edges = [0.0, -1.0] + ([] if bp is None else [bp.z_b])
    zs = [-0.0, big, -big] + [math.nextafter(e, t) for e in edges for t in (-big, e, big)]
    dom = branch_domain(q, branch)
    for z in zs:
        try:
            accepted = _check_request(q, z, branch)[2] is branch
        except DomainError:
            accepted = False
        assert accepted == dom.contains(z), z
    if z_out is None:
        assert dom.contains(-big) and dom.contains(big)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _check_request(q, z_out, branch)


def test_interval_str_and_contains():
    d = Interval(-0.25, math.inf, True, False)
    assert str(d) == "[-0.25, inf)"
    assert d.contains(-0.25) and not d.contains(-0.26)


# ------------------------------------------------------------------- errors

def test_domain_error_names_the_interval():
    with pytest.raises(DomainError, match=r"\[-0.5, inf\)"):
        wq(1.5, -9.0)


def test_lower_branch_refused_at_q2():
    with pytest.raises(NoBranchPointError):
        wq(2.0, -0.5, Branch.LOWER)
    with pytest.raises(NoBranchPointError):
        wq(2.5, -0.5, Branch.LOWER)


def test_lower_branch_domain_error_right_of_zero():
    with pytest.raises(DomainError):
        wq(1.0, 0.5, Branch.LOWER)
    with pytest.raises(DomainError):
        wq(1.0, 0.0, Branch.LOWER)


@pytest.mark.parametrize("call", [wq, dwq_dz])
def test_the_solver_takes_no_settings(call):
    # the solve ends by construction and stops at the fixed DEFAULT_TOL, so
    # there is neither an iteration budget nor a tolerance to set
    assert list(inspect.signature(call).parameters) == ["q", "z", "branch"]
    for setting in ({"tol": 1e-9}, {"max_iter": 200}):
        with pytest.raises(TypeError):
            call(1.0, 1.0, **setting)


@pytest.mark.parametrize("q, z", [(0.0, -0.1875), (0.5, -0.1), (1.0, -0.2), (1.5, -0.05)])
def test_branch_as_a_string_or_a_member_gives_one_answer(q, z):
    assert wq(q, z, "lower") == wq(q, z, Branch.LOWER)
    assert repr(dwq_dz(q, z, "lower")) == repr(dwq_dz(q, z, Branch.LOWER))
    assert branch_domain(q, "lower") == branch_domain(q, Branch.LOWER)
    assert wq_closed_form(q, z, "lower") == wq_closed_form(q, z, Branch.LOWER)


@pytest.mark.parametrize("call", [lambda b: wq(1, 1, b), lambda b: dwq_dz(1, 1, b),
                                  lambda b: branch_domain(1, b),
                                  lambda b: wq_closed_form(0, 1, b)])
def test_unknown_branch_raises_value_error(call):
    # a str takes a dict lookup; [] must still give Branch()'s ValueError, not
    # the TypeError of hashing it
    for bad in ("sideways", [], None, "UPPER"):
        text = f"^{re.escape(repr(bad))} is not a valid Branch$"
        with pytest.raises(ValueError, match=text) as e:
            call(bad)
        assert type(e.value) is ValueError


def test_records_are_read_only_named_tuples():
    w, branch, residual, iterations = result = wq(1.5, 1.0)
    assert (w, branch, residual, iterations) == (
        result.w, Branch.UPPER, result.residual, result.iterations)
    bp = branch_point(1.0)
    assert tuple(bp) == (bp.z_b, bp.w_b) == (bp[0], -1.0)
    for record, field in [(result, "w"), (result, "branch"), (bp, "z_b"), (bp, "w_b"),
                          (result, "extra")]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)


def test_every_record_is_a_read_only_named_tuple():
    half, surd2 = parse_exact("1/2"), parse_exact("sqrt(8)")
    pinned = [
        (branch_domain(0.0), (-0.25, math.inf, True, False),
         "Interval(lo=-0.25, hi=inf, lo_closed=True, hi_closed=False)"),
        (half, (1, 0, 2, 0), "Rational(A=1, B=0, D=2, d=0)"),
        (surd2, (0, 2, 1, 2), "QuadSurd(A=0, B=2, D=1, d=2)"),
        (parse_exact("e"), (Constant.E,), "NamedTranscendental(tag=<Constant.E: 'e'>)"),
        (classify_expq(half, ZERO),
         (ArithmeticClass.RATIONAL, Rule.EXACT_VALUE,
          "exp_q(0) = 1 exactly for every deformation q.", ONE),
         "Classification(verdict=<ArithmeticClass.RATIONAL: 'rational'>, "
         "rule=<Rule.EXACT_VALUE: 'exact_value'>, "
         "justification='exp_q(0) = 1 exactly for every deformation q.', "
         "exact_value=Rational(A=1, B=0, D=1, d=0))"),
        (CheckResult("eq5 q=1.5", True, 0.25, 1e-10), ("eq5 q=1.5", True, 0.25, 1e-10),
         "CheckResult(name='eq5 q=1.5', passed=True, measured=0.25, threshold=1e-10)"),
        (branch_point_check(0.0), (0.0, -0.25, -0.5, 0.0, True, True, True),
         "BranchPointReport(q=0.0, z_b=-0.25, w_b=-0.5, consistency=0.0, "
         "is_minimum=True, tangent_growth=True, passed=True)"),
        (algebraicity_scan(0.5, 1, 2), (0.5, 1, 2, (2, -1), 0.0, True),
         "ScanReport(target=0.5, degree_max=1, coeff_max=2, best_poly=(2, -1), "
         "best_abs_value=0.0, hit=True)"),
    ]
    for record, fields, text in pinned:
        assert repr(record) == text
        assert tuple(record) == fields
        assert [record[i] for i in range(len(fields))] == [
            getattr(record, name) for name in record._fields]
        for name in (record._fields[0], record._fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
    assert Classification(ArithmeticClass.UNKNOWN, Rule.GUARD_FALLTHROUGH, "").exact_value is None
    # exact numbers compare equal like tuples but do not order
    assert ONE == (1, 0, 1, 0)
    for x, y in [(surd2, surd2), (surd2, parse_exact("sqrt(3)")), (half, ONE),
                 (half, surd2), (E, PI), (half, 1)]:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        sorted([parse_exact("sqrt(3)"), surd2])


def test_non_finite_inputs_rejected():
    with pytest.raises(MalformedInputError):
        wq(float("nan"), 1.0)
    with pytest.raises(MalformedInputError):
        wq(1.0, float("inf"))


def _no_double(q, z, branch, best_w):
    return (f"no double approximates the root for q = {q}, z = {z} ({branch} branch): it "
            f"lies next to the wall or beyond the double range; best w = {best_w}")


# ConvergenceError's text is built when it is read, from the values it keeps:
# each refusal as (str, best_w, residual, iterations), as they read when the
# text was built at the raise
REFUSALS = [
    ((2.5, -4e219), _no_double("2.5", "-4e+219", "upper", "-1.7976931348623157e+308"),
     -1.7976931348623157e+308, 269.32850216776, 1),
    ((2.5, 1e200), _no_double("2.5", "1e+200", "upper", "0.6666666666666665"),
     0.6666666666666665, 436.8933814475059, 1),
    ((3.0, 1e8), _no_double("3", "100000000.0", "upper", "0.49999999999999994"),
     0.49999999999999994, 0.7454276396737605, 1),
    ((-1e200, -5e-201, "lower"), _no_double("-1e+200", "-5e-201", "lower", "-1e-200"),
     -1e-200, math.inf, 1),
]


@pytest.mark.parametrize("call", [wq, dwq_dz])
@pytest.mark.parametrize("args, text, best_w, residual, iterations", REFUSALS)
def test_refusal_text_and_values_are_pinned(call, args, text, best_w, residual, iterations):
    if call is wq and args == (2.5, 1e200):
        # the double 2/3 lies inside the wall and is the rounded root: wq
        # answers it in closed form, and dwq_dz refuses until ROADMAP item 1a
        assert wq(*args) == (0.6666666666666666, Branch.UPPER, 0.0, 0)
        return
    with pytest.raises(ConvergenceError) as e:
        call(*args)
    err = e.value
    assert (str(err), err.best_w, err.residual, err.iterations) == \
        (text, best_w, residual, iterations)


@pytest.mark.parametrize("call, args, kind, text", [
    (wq, (1.0, -5.0), DomainError,
     "z = -5.0 is outside the upper-branch domain [-0.367879, inf) for q = 1"),
    (dwq_dz, (1.0, 0.5, "lower"), DomainError,
     "z = 0.5 is outside the lower-branch domain [-0.367879, 0) for q = 1"),
    (wq, (2.5, -1.0, "lower"), NoBranchPointError,
     "no lower branch for q = 2.5: the branch point exists only for q < 2"),
    (dwq_dz, (1.0, -0.36787944117144233), DerivativeSingularError,
     "dW/dz diverges at the branch point z_b = -0.36787944117144233 for q = 1"),
    (ln_q, (2.0, -1.0), DomainError, "ln_q is defined for z > 0 only, got z = -1.0"),
    (dlnq_dz, (2.0, Fraction(0)), DomainError,
     "dlnq_dz is defined for z > 0 only, got z = Fraction(0, 1)"),
])
def test_domain_error_text_is_pinned(call, args, kind, text):
    with pytest.raises(DomainError) as e:
        call(*args)
    assert (type(e.value), str(e.value)) == (kind, text)


@pytest.mark.parametrize("raised", [
    lambda: wq(2.5, -4e219),
    lambda: wq(1.0, -5.0),
    lambda: ln_q(2.0, -1.0),
    lambda: classify_wq(parse_exact("2"), parse_exact("-1")),  # text built at the raise
], ids=["no-double", "wq-domain", "lnq-domain", "classify-domain"])
def test_errors_survive_a_pickle_round_trip(raised):
    with pytest.raises(LambertTsallisError) as e:
        raised()
    err = e.value
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is type(err)
    assert (str(back), back.args, back.__dict__) == (str(err), err.args, err.__dict__)


def test_a_closed_bracket_reuses_the_ends_it_evaluated(monkeypatch):
    # the loop's last w is an end of the closed bracket; an end of the double
    # range refuses without an evaluation, and iterations counts only the
    # loop's.  dwq_dz reaches _root at the wall, where wq answers in closed form
    solver = importlib.import_module("lambert_tsallis.wq")
    original, calls = solver._log_residual, [0]

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(solver, "_log_residual", counted)
    for args, evaluations in [((2.5, -4e219), 1), ((2.5, 1e200), 2)]:
        calls[0] = 0
        with pytest.raises(ConvergenceError) as e:
            dwq_dz(*args)
        assert (calls[0], e.value.iterations) == (evaluations, 1), args


# --------------------------------------------------------------- derivative

def test_derivative_pinned_values():
    assert abs(dwq_dz(1.0, 1.0) - DW_AT_ONE) <= 1e-12
    assert abs(dwq_dz(2.0, 1.0) - 0.25) <= 1e-12
    assert abs(dwq_dz(0.0, 2.0) - 1.0 / 3.0) <= 1e-12
    assert all(dwq_dz(q, 0.0) == 1.0 for q in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0))


def test_derivative_singular_at_branch_point():
    # at q = 0.1, 1 + (2-q) w_b rounds to 1.1e-16, not 0: only the z_b check raises
    for q in (0.0, 0.1, 1.0, 1.5):
        bp = branch_point(q)
        with pytest.raises(DerivativeSingularError):
            dwq_dz(q, bp.z_b)
        with pytest.raises(DerivativeSingularError):
            dwq_dz(q, bp.z_b, Branch.LOWER)


def test_derivative_matches_finite_difference():
    for q in (0.0, 1.0, 1.5, 2.0, 3.0):
        for z in (0.5, 1.0, 5.0):
            h = 1e-6 * max(1.0, abs(z))
            fd = (wq(q, z + h).w - wq(q, z - h).w) / (2 * h)
            assert dwq_dz(q, z) == pytest.approx(fd, rel=1e-6)


def test_derivative_deep_on_classical_lower_branch_is_finite():
    # W ~ -697 here: e^(-W) ~ 1e303 is still a double, and equals W/z
    z = -1e-300
    w = wq(1.0, z, Branch.LOWER).w
    d = dwq_dz(1.0, z, Branch.LOWER)
    assert isinstance(d, float)
    assert d == pytest.approx(w / (z * (1.0 + w)), rel=1e-12)


def test_derivative_finite_where_its_numerator_overflows():
    # W ~ -2e240: (W/z)^q ~ 8e360 overflows, the quotient 4e120 does not
    assert dwq_dz(3.0, -1e120) == pytest.approx(4e120, rel=1e-12)


def test_derivative_q2_matches_its_closed_form_to_a_few_ulp():
    # W_2(z) = z/(1+z), so dW/dz = 1/(1+z)^2, here rounded once from the
    # exact rational; the bracket form lost 23% at z = 9999999999999998
    for z in [10.0 ** (k / 10) for k in range(-30, 161)] + [9999999999999998.0]:
        exact = float(1 / (1 + Fraction(z)) ** 2)
        assert abs(dwq_dz(2.0, z) - exact) <= 4 * math.ulp(exact), z


def test_derivative_next_to_the_q_above_one_pole():
    # W_1.5(z) -> 2 as z grows; 1 - W/2 cancels in the bracket form, which
    # gave 6.84e-49 here.  The reference is the derivative of the closed form
    # W = 2 + 2/z - 2 sqrt(2z+1)/z at 120 digits
    ref = 5.000000000000000448e-49
    assert abs(dwq_dz(1.5, 1.9999999999999997e32) - ref) <= 4 * math.ulp(ref)


def test_derivative_next_to_the_q_below_one_wall():
    # q = 0.5: f(w) = w (1 + w/2)^2, and W = -2 + e with e^2 (2 - e) = 4|z|,
    # so dW/dz = 1/f'(W) = 2/(e (3e/2 - 2)) = -1/sqrt(2|z|) (1 + O(e)); the
    # double W is the wall -2 itself, where the bracket form gave -4.5e15
    z = -1.3600403358685677e-140
    ref = -1.0 / math.sqrt(2.0 * abs(z))
    assert abs(dwq_dz(0.5, z, Branch.LOWER) - ref) <= 4 * math.ulp(ref)


def test_derivative_near_the_pole_against_mpmath():
    # 1 + (1-q) W ~ 1e-10: the bracket power lost 1e-5 here
    mpmath = pytest.importorskip("mpmath")
    q, z = 1.1167, 4.46e86
    with mpmath.workdps(60):
        mq, mz = mpmath.mpf(q), mpmath.mpf(z)
        lo, hi = mpmath.mpf(0), 1 / (mq - 1)
        for _ in range(400):  # bisection on f(w) = w exp_q(w), increasing here
            mid = (lo + hi) / 2
            if mid * (1 + (1 - mq) * mid) ** (1 / (1 - mq)) < mz:
                lo = mid
            else:
                hi = mid
        ref = (lo / mz) ** mq / (1 + (2 - mq) * lo)
        assert abs(dwq_dz(q, z) - ref) <= 4e-15 * abs(ref)


def test_log_residual_where_w_over_z_overflows():
    # the lower branch at q = 1.5 starts at w = 4/z, next to the root, and
    # w/z = 4/z^2 overflows there: h falls back to log|w| - log|z|
    q, z, w = 1.5, -1.3720515485065225e-197, -2.91534236039017e+197
    assert math.isinf(w / z)
    h, slope = _log_residual(q, z, w)
    assert math.isfinite(h) and math.isfinite(slope)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        # w (1 - w/2)^(-2) = z is the quadratic (z/4) w^2 - (1+z) w + z = 0;
        # the lower branch is its root of large |w|
        mz = mpmath.mpf(z)
        ref = 2 * (1 + mz + mpmath.sqrt(1 + 2 * mz)) / mz
        # 15 ulp today: the |log z| loss of the log residual
        assert abs((wq(q, z, Branch.LOWER).w - ref) / ref) <= 1e-12


@pytest.mark.parametrize("q, z, w, sentinel", [
    # (1-q) w = -1 exactly, then one double past it: the q < 1 cutoff
    (0.5, -0.1, -2.0, -math.inf),
    (0.5, -0.1, math.nextafter(-2.0, -3.0), -math.inf),
    # the same two places at the q > 1 wall
    (3.0, 1.0, 0.5, math.inf),
    (3.0, 1.0, math.nextafter(0.5, 1.0), math.inf),
])
def test_log_residual_sentinels_at_and_past_the_cutoff(q, z, w, sentinel):
    h, slope = _log_residual(q, z, w)
    assert h == sentinel and math.isnan(slope)


def test_log_residual_where_the_bracket_overflows():
    # (1-q) w = 2e308 overflows; h takes exp_q's own overflow branch
    q, z, w = 3.0, -1e10, -1e308
    assert math.isinf((1.0 - q) * w)
    h, slope = _log_residual(q, z, w)
    assert h == math.log(w / z) + math.log(exp_q(q, w))
    assert math.isfinite(slope)


@pytest.mark.parametrize("q, z, rel", [
    # (W/z)^q ~ 2e310 and 1 + (2-q) W ~ 5e310 both overflow
    (-1000.0, 1e308, 1e-13),
    # the same at large q, where (W/z)^q carries q = 1e10 times the rounding
    # of W/z = 1 + 7e-8 into the value, some 2e-6 here
    (1e10, -1e300, 1e-5),
])
def test_derivative_where_power_and_denominator_both_overflow(q, z, rel):
    # 1/f'(W) = (W/z)^(q-1) / ((2-q) z) (1 + O(1/W)), and
    # (W/z)^(q-1) = (z/W)^(1-q) = 1 + (1-q) W
    w = wq(q, z).w
    ref = (w / z) * (1.0 - q) / (2.0 - q)
    assert abs(dwq_dz(q, z) - ref) <= rel * abs(ref)


def test_lower_branch_derivative_is_negative_classical():
    z = -0.2
    assert dwq_dz(1.0, z, Branch.LOWER) < 0
    assert dwq_dz(1.0, z, Branch.UPPER) > 0


# -------------------------------------------------------------- closed forms

def test_closed_form_q2():
    for z in (-0.5, 0.25, 1.0, 9.0):
        assert wq_closed_form(2.0, z) == pytest.approx(z / (1 + z), rel=1e-15)
        assert wq(2.0, z).w == pytest.approx(z / (1 + z), abs=1e-10)
    assert wq_closed_form(2.0, -1.0) is None
    assert wq_closed_form(2.0, -2.0) is None


def test_closed_form_q0():
    for z in (-0.2, 0.5, 2.0):
        up = wq_closed_form(0.0, z)
        assert up == pytest.approx((-1 + math.sqrt(1 + 4 * z)) / 2, rel=1e-14)
        assert abs(wq(0.0, z).w - up) <= 1e-10
    low = wq_closed_form(0.0, -0.1875, Branch.LOWER)
    assert low == pytest.approx(-0.75, abs=1e-15)
    assert wq_closed_form(0.0, 0.5, Branch.LOWER) is None
    # below z = -1/4 the discriminant 1 + 4z is negative: no real root
    assert wq_closed_form(0.0, -1.0) is None


def test_closed_form_absent_otherwise():
    assert wq_closed_form(1.0, 1.0) is None
    assert wq_closed_form(1.25, 1.0) is None
    # q = 3/2 has a lower branch on [-1/2, 0) only, and q = 3 no lower branch
    assert wq_closed_form(1.5, -0.75) is None
    assert wq_closed_form(1.5, 0.5, "lower") is None
    assert wq_closed_form(3.0, -1.0, "lower") is None


@pytest.mark.parametrize("q, z, branch, w", [
    (1.5, 1.0, "upper", W15_AT_ONE),
    (1.5, -0.5, "upper", -2.0),  # z_b and w_b
    (1.5, -0.5, "lower", -2.0),
    (1.5, -0.375, "lower", -6.0),  # f(w) = w / (1 - w/2)^2
    (3.0, 0.0, "upper", 0.0),
    (3.0, 0.75, "upper", 0.375),  # f(w) = w / sqrt(1 - 2w)
    (3.0, -0.75, "upper", -1.5),
    (1.5, 1e308, "upper", 2.0),  # past z = 2^1021, where 1 + 2z overflows
])
def test_closed_form_q3_2_and_q3_pinned(q, z, branch, w):
    assert wq_closed_form(q, z, branch) == pytest.approx(w, rel=4e-16)


def _closed_form_draws(q, branch, sign, lo, hi):
    """(z, wq's answer or None where it refuses, the closed form) for 300
    seeded z of the given sign with |z| log-uniform in [lo, hi]."""
    rng = random.Random(f"closed-form:{q}:{branch}:{sign}")
    for _ in range(300):
        z = sign * 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))
        try:
            w = wq(q, z, branch).w
        except ConvergenceError:
            w = None
        yield z, w, wq_closed_form(q, z, branch)


@pytest.mark.parametrize("q, branch, sign, lo, hi", [
    (1.5, "upper", 1.0, 1e-300, 1e300),
    (1.5, "upper", -1.0, 1e-300, 0.5),
    (3.0, "upper", 1.0, 1e-300, 1e300),
    (3.0, "upper", -1.0, 1e-300, 0.1),
])
def test_wq_agrees_with_the_q3_2_and_q3_closed_forms(q, branch, sign, lo, hi):
    # the closed forms round three or four times and are up to 1.6 ulp from
    # 60-digit mpmath, wq up to 1.03: so the two are within 1 ulp of each
    # other on nearly every draw and within 2 on all.  Where wq refuses, the
    # root's nearest double is the exact-double wall, and so is the closed form
    wall = 1.0 / (q - 1.0)
    answered = apart = refused = 0
    for z, w, closed in _closed_form_draws(q, branch, sign, lo, hi):
        if w is None:
            assert closed == wall, (q, z)
            refused += 1
            continue
        answered += 1
        apart += abs(w - closed) > math.ulp(closed)
        assert abs(w - closed) <= 2.0 * math.ulp(closed), (q, z, w, closed)
    assert apart <= answered // 100 and answered > 150, (apart, answered)
    assert refused == 0 or sign > 0


@pytest.mark.parametrize("q, branch, sign, lo, hi, most", [
    (1.5, "lower", -1.0, 1e-300, 0.5, 2600.0),
    (3.0, "upper", -1.0, 0.1, 1e150, 6000.0),
])
def test_power_tails_against_the_q3_2_and_q3_closed_forms(q, branch, sign, lo, hi, most):
    # the power tails, ROADMAP item 21b: on the q = 3/2 lower branch and for
    # q = 3 below z = -0.1 the w-form's log residual cancels, and wq is up to
    # 2 415 and 5 113 ulp from the closed forms, which are within 1.6 ulp of
    # mpmath.  The bounds pin that loss; the slice that mends it lowers them
    worst = max(abs(w - closed) / math.ulp(closed)
                for z, w, closed in _closed_form_draws(q, branch, sign, lo, hi))
    assert worst <= most, worst


# --------------------------------------------------------------- properties

@given(q=st.floats(min_value=0.0, max_value=3.0),
       z=st.floats(min_value=-0.2, max_value=50.0))
def test_solver_residual_property(q, z):
    if not branch_domain(q, Branch.UPPER).contains(z):
        return
    res = wq(q, z)
    assert abs(res.w * exp_q(q, res.w) - z) <= 1e-10 * max(1.0, abs(z))


# q is capped below 2: as q -> 2- the lower branch flattens like
# |w|^(-(2-q)) and for z near 0- the root leaves double range entirely
# (see test_unrepresentable_root_raises_honestly)
@given(q=st.floats(min_value=0.0, max_value=1.85),
       t=st.floats(min_value=1e-6, max_value=0.999))
def test_lower_branch_residual_property(q, t):
    bp = branch_point(q)
    z = bp.z_b * t  # inside [z_b, 0)
    res = wq(q, z, Branch.LOWER)
    assert abs(res.w * exp_q(q, res.w) - z) <= 1e-10 * max(1.0, abs(z))
    assert res.w <= bp.w_b + 1e-9


@settings(max_examples=400)
@given(q=st.floats(min_value=-5.0, max_value=5.0),
       exponent=st.floats(min_value=-300.0, max_value=300.0),
       sign=st.sampled_from([-1.0, 1.0]), branch=st.sampled_from(list(Branch)),
       gap=st.one_of(st.none(), st.floats(min_value=1e-16, max_value=0.5)))
def test_bracket_lies_inside_the_fixed_ends(q, exponent, sign, branch, gap):
    # _bracket only tightens _ends, and a table row that skips _bracket is
    # bounded by _ends alone, so they must hold the root too
    z = sign * 10.0 ** exponent
    bp = branch_point(q)
    if gap is not None and bp is not None:  # a relative gap inside z_b
        z = bp.z_b * (1.0 - gap)
    if ((branch is Branch.LOWER and bp is None) or not branch_domain(q, branch).contains(z)
            or (bp is not None and z == bp.z_b)):
        return
    z_b, w_b = (math.nan, math.nan) if bp is None else bp
    lo, hi = _ends(q, z, branch, w_b)
    b_lo, b_hi, start, _ = _bracket(q, z, branch, z_b, w_b)
    assert lo <= b_lo <= start <= b_hi <= hi
    # f is monotone on the branch, so z lies between f at the two ends.  An
    # end at the wall or at the end of the double range stands for f's limit
    # there, as a root beyond the double range needs: at the wall inf for
    # q > 1 and 0 for q < 1; as w -> -inf, 0 on the lower branch, -1 at q = 2
    # and -inf for q > 2
    wall = 1.0 / (q - 1.0) if q != 1.0 else math.nan

    def f(w):
        if w == wall:
            return math.inf if q > 1.0 else 0.0
        if w == -sys.float_info.max:
            return 0.0 if branch is Branch.LOWER else -1.0 if q == 2.0 else -math.inf
        return w * exp_q(q, w)

    f_lo, f_hi = f(lo), f(hi)
    assert min(f_lo, f_hi) <= z <= max(f_lo, f_hi), (lo, hi, f_lo, f_hi)
    try:
        w = wq(q, z, branch).w
    except ConvergenceError:  # no double next to the wall or past the double range
        return
    assert lo <= w <= hi


def test_q_continuity_at_classical_point():
    for z in (0.5, 1.0, 2.0):
        w1 = wq(1.0, z).w
        assert abs(wq(1.0 + 1e-6, z).w - w1) <= 1e-4
        assert abs(wq(1.0 - 1e-6, z).w - w1) <= 1e-4


# ------------------------------------------------------------------ drivers

def _agreement_draws():
    """Seeded (q, z, branch) requests inside the branch domain, with the
    shortcuts, the q < 2 upper branch at z >= 0 and wall refusals among
    them."""
    rng = random.Random("driver-agreement")
    z_b = branch_point(1.0).z_b
    yield from [(2.5, 1e200, "upper"), (3.0, 1e300, "upper"), (-1e200, -5e-201, "lower"),
                (1.0, 0.0, "upper"), (1.0, -0.0, "upper"), (1.0, z_b, "upper"),
                (1.0, z_b, "lower"), (0.5, 2.0, "upper")]
    for _ in range(1500):
        q = rng.choice([rng.uniform(-3.0, 4.0), rng.uniform(0.0, 3.0),
                        rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]),
                        -(10.0 ** rng.uniform(0.0, 300.0))])
        bp = branch_point(q)
        branch = "lower" if bp is not None and rng.random() < 0.3 else "upper"
        kind = rng.random()
        if kind < 0.05 and branch == "upper":
            z = 0.0
        elif kind < 0.1 and bp is not None:
            z = bp.z_b
        elif (kind < 0.4 or branch == "lower") and bp is not None:
            z = bp.z_b * 10.0 ** -rng.uniform(0.0, 300.0)
        elif kind < 0.4 and q > 2.0:
            z = -(10.0 ** rng.uniform(-310.0, 300.0))
        else:
            z = 10.0 ** rng.uniform(-310.0, 300.0)
        if branch_domain(q, branch).contains(z):  # z_b times 1e-300 may underflow to -0.0
            yield q, z, branch


def _outcome(call):
    """repr of a call's result, or its ConvergenceError's text, best_w,
    residual and iterations: equal strings are equal bits."""
    try:
        return repr(call())
    except ConvergenceError as e:
        return repr((str(e), e.best_w, e.residual, e.iterations))


def _unbranched(result):
    return result.w, result.residual, result.iterations


def _one_point_agreement(monkeypatch, most_evaluations):
    """Every _agreement_draws request solved by a one-point _solve run, with
    the branch point _check_request leaves out at z >= 0 on the upper
    branch and with it, by wq and by dwq_dz's _root call: all must agree bit
    for bit, and no _root call may make more than most_evaluations
    _log_residual calls.  Where the wall kernel answers, dwq_dz's _root call
    keeps its own answer; where it refuses, _root refuses alike.  Returns
    the outcomes of dwq_dz's _root calls and the most calls any _root call
    made."""
    solver = importlib.import_module("lambert_tsallis.wq")
    original_root, last = solver._root, [None]
    original_h, calls, most = solver._log_residual, [0], [0]
    original_wall, answered = solver._wall_root, [False]

    def walled(*args):
        found = original_wall(*args)
        answered[0] = answered[0] or found is not None
        return found

    def recorded(*args):
        before = calls[0]
        last[0] = _outcome(lambda: original_root(*args))
        most[0] = max(most[0], calls[0] - before)
        assert most[0] <= most_evaluations, (args, most[0])
        return original_root(*args)

    def counted(*args):
        calls[0] += 1
        return original_h(*args)

    monkeypatch.setattr(solver, "_root", recorded)
    monkeypatch.setattr(solver, "_log_residual", counted)
    monkeypatch.setattr(solver, "_wall_root", walled)
    lazy, closed, outcomes = 0, 0, []
    for q, z, branch in _agreement_draws():
        q, z, branch, bp = _check_request(q, z, branch)
        lazy += bp is None and q < 2.0
        answered[0] = False
        ran = _outcome(lambda: next(_solve(q, (z,), branch, bp)))
        eager = _outcome(lambda: next(_solve(q, (z,), branch, branch_point(q))))
        scalar = _outcome(lambda: _unbranched(wq(q, z, branch)))
        assert ran == eager == scalar, (q, z, branch)
        last[0] = None
        try:
            dwq_dz(q, z, branch)
        except (ConvergenceError, DerivativeSingularError):
            pass
        if last[0] is None:  # dwq_dz's own shortcuts: 1 at 0, and it diverges at z_b
            assert z == 0.0 or z == branch_point(q).z_b
        else:
            outcomes.append(last[0])
            closed += answered[0]
            assert answered[0] or last[0] == ran, (q, z, branch)
    assert lazy > 100 and closed > 100 and len(outcomes) > 1000, (lazy, closed, len(outcomes))
    return outcomes, most[0]


def test_one_point_solve_agrees_with_wq_and_dwq_dz(monkeypatch):
    # the table's driver _solve and the scalar wq and dwq_dz each hold the
    # z = 0 and z = z_b shortcuts and call _root; a one-point run must
    # answer as they do, bit for bit.  These solves take at most 9
    # evaluations, far below the 136 that may be Newton's and the 200 that
    # end every solve
    _one_point_agreement(monkeypatch, 40)


def test_bisection_alone_ends_every_solve_within_67_evaluations(monkeypatch):
    # with no Newton step at all, the start, 64 halvings over the ordered
    # doubles and the closure's two end checks bound every solve; the
    # drivers still agree, and each outcome is an answer or the closure's
    # refusal
    solver = importlib.import_module("lambert_tsallis.wq")
    monkeypatch.setattr(solver, "_NEWTON_EVALUATIONS", 0)
    outcomes, most = _one_point_agreement(monkeypatch, 67)
    assert most > 50, most  # the patch took effect: Newton takes at most 9 here
    refused = [o for o in outcomes if o.startswith("('")]  # an answer is a tuple of numbers
    assert 0 < len(refused) < len(outcomes) // 2, len(refused)
    assert all(o.startswith("('no double approximates the root") for o in refused)


@pytest.mark.parametrize("steps", [1000, 10_000])
def test_solve_rows_past_the_wall_stop_on_the_step_floor(steps):
    # past the wall 2/3 at q = 2.5 conditioning puts DEFAULT_TOL out of reach,
    # and a row stops on the 4-ulp step floor with |h| above it.  Up to
    # z = 5e3, g = (1.5 z)^-1.5 stays above 2^-20, out of the wall kernel's reach
    step = 1e4 / (steps - 1)
    zs = [-5e3 + i * step for i in range(steps)]
    floor = [r for r in _solve(2.5, zs, Branch.UPPER, None) if r[1] > DEFAULT_TOL]
    assert len(floor) > steps // 4, len(floor)


# wq's request faults in check order: each as the arguments it replaces in
# the valid request wq(1, 1) on the upper branch
CHECK_ORDER_FAULTS = [
    {"q": math.nan},
    {"z": math.inf},
    {"branch": "sideways"},
    {"q": 2.5, "branch": "lower"},  # no lower branch at q >= 2
    {"z": -5.0},  # below z_b = -1/e
]


def _fault_text(call, request):
    with pytest.raises(ValueError) as e:
        call(**request)
    return type(e.value), str(e.value)


@pytest.mark.parametrize("call", [wq, dwq_dz])
def test_the_earlier_of_two_request_faults_wins(call):
    base = {"q": 1.0, "z": 1.0, "branch": "upper"}
    pairs = 0
    for i, first in enumerate(CHECK_ORDER_FAULTS):
        alone = _fault_text(call, {**base, **first})
        for later in CHECK_ORDER_FAULTS[i + 1:]:
            if first.keys() & later.keys():
                continue  # the two faults set the same argument
            pairs += 1
            assert _fault_text(call, {**base, **first, **later}) == alone, (first, later)
    assert pairs == 7


def test_domain_sees_only_the_true_branch_point(monkeypatch, capsys):
    # _domain reads a bp of None as "no branch point", which for q < 2 is the
    # whole line on the upper branch: no check may pass it a skipped one
    solver = importlib.import_module("lambert_tsallis.wq")
    original, seen = solver._domain, []

    def checked(q, branch, bp):
        assert bp is not None or q >= 2.0, (q, branch)
        seen.append(q)
        return original(q, branch, bp)

    monkeypatch.setattr(solver, "_domain", checked)
    rng = random.Random("domain-branch-point")
    for _ in range(2000):
        q = rng.choice([rng.uniform(-3.0, 4.0), 1.0, 2.0, -(10.0 ** rng.uniform(0.0, 300.0))])
        z = rng.choice([0.0, -0.0, rng.uniform(-2.0, 2.0), 10.0 ** rng.uniform(-300.0, 300.0),
                        -(10.0 ** rng.uniform(-300.0, 300.0))])
        branch = rng.choice(["upper", "lower"])
        for call in (wq, dwq_dz):
            try:
                call(q, z, branch)
            except (DomainError, ConvergenceError):
                pass
    for q, z_from, z_to, branch in [("1", "0", "3", "upper"), ("1.5", "-1", "2", "upper"),
                                    ("0.5", "-0.2", "-0.01", "lower"), ("1", "1", "2", "lower"),
                                    ("3", "-2", "2", "upper")]:
        code = main(["table", "wq", "--q", q, f"--z-from={z_from}", "--z-to", z_to,
                     "--steps", "20", "--branch", branch])
        capsys.readouterr()
        assert code in (0, 1)
    assert len(seen) > 1000


def test_scalar_records_keep_their_type_and_repr():
    result, bp = wq(2.0, 1.0), branch_point(0.0)
    assert (type(result), type(bp)) == (SolveResult, BranchPoint)
    assert repr(result) == ("SolveResult(w=0.5, branch=<Branch.UPPER: 'upper'>, "
                            "residual=0.0, iterations=1)")
    assert repr(bp) == "BranchPoint(z_b=-0.25, w_b=-0.5)"
