"""Branch solver: frozen reference values, branch points, domains, the
closed forms at q = 0 and q = 2, derivative, and failure modes.

Reference values were frozen from independent routes before the solver
existed: plain 200-iteration bisection for the classical point, exact
algebra for q in {0, 2} and for W_1.5(1) = 4 - 2 sqrt(3), and 60-digit
arithmetic for the rest.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambert_tsallis.errors import (ConfigurationError, ConvergenceError,
                                    DerivativeSingularError, DomainError,
                                    MalformedInputError, NoBranchPointError)
from lambert_tsallis.qexp import exp_q
from lambert_tsallis.wq import (Branch, Interval, _log_residual, branch_domain,
                                branch_point, dwq_dz, wq, wq_closed_form)

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
    # no double gives a residual anywhere near tol; the solver must say so
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


def test_bad_solver_configuration():
    with pytest.raises(ConfigurationError):
        wq(1.0, 1.0, Branch.UPPER, tol=0.0)
    with pytest.raises(ConfigurationError):
        wq(1.0, 1.0, Branch.UPPER, tol=-1e-9)
    with pytest.raises(ConfigurationError):
        wq(1.0, 1.0, Branch.UPPER, max_iter=0)


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
    with pytest.raises(ValueError, match="^'sideways' is not a valid Branch$"):
        call("sideways")


def test_non_finite_inputs_rejected():
    with pytest.raises(MalformedInputError):
        wq(float("nan"), 1.0)
    with pytest.raises(MalformedInputError):
        wq(1.0, float("inf"))


def test_convergence_error_carries_best_iterate():
    # starved iteration budget cannot reach the default tolerance
    with pytest.raises(ConvergenceError) as exc:
        wq(1.0, 1.0, max_iter=3)
    err = exc.value
    assert err.iterations == 3
    assert abs(err.best_w - OMEGA) < 0.2
    assert err.residual < 1.0


# --------------------------------------------------------------- derivative

def test_derivative_pinned_values():
    assert abs(dwq_dz(1.0, 1.0) - DW_AT_ONE) <= 1e-12
    assert abs(dwq_dz(2.0, 1.0) - 0.25) <= 1e-12
    assert abs(dwq_dz(0.0, 2.0) - 1.0 / 3.0) <= 1e-12
    assert all(dwq_dz(q, 0.0) == 1.0 for q in (-1.0, 0.0, 0.5, 1.0, 2.0, 3.0))


def test_derivative_singular_at_branch_point():
    for q in (0.0, 1.0, 1.5):
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


def test_closed_form_absent_otherwise():
    assert wq_closed_form(1.0, 1.0) is None
    assert wq_closed_form(1.5, 1.0) is None


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


def test_q_continuity_at_classical_point():
    for z in (0.5, 1.0, 2.0):
        w1 = wq(1.0, z).w
        assert abs(wq(1.0 + 1e-6, z).w - w1) <= 1e-4
        assert abs(wq(1.0 - 1e-6, z).w - w1) <= 1e-4
