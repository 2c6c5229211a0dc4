"""Deformed exponential and logarithm: pinned values, domains, cutoff
behavior, round trips, continuity in q, finite-difference consistency."""

import math
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambert_tsallis.errors import DomainError, MalformedInputError
from lambert_tsallis.qexp import (Interval, dlnq_dz, exp_q, ln_q,
                                  positivity_domain)
from lambert_tsallis.wq import branch_domain, branch_point, dwq_dz, wq, wq_closed_form

# d/dz ln_q(z) at q = sqrt(2), z = 2 is 2^(-sqrt(2)); value checked against
# 60-digit arithmetic
TWO_POW_MINUS_ROOT2 = 0.3752142272464818


def test_classical_limit_is_exp():
    assert exp_q(1.0, 1.0) == math.e
    assert exp_q(1.0, -2.5) == math.exp(-2.5)
    assert ln_q(1.0, 2.0) == math.log(2.0)


@pytest.mark.parametrize("q,z,expected", [
    (2.0, 0.5, 2.0),        # 1/(1 - 0.5)
    (0.0, 1.0, 2.0),        # 1 + z
    (0.0, -0.25, 0.75),
    (3.0, 0.25, math.sqrt(2.0)),   # (1 - 2z)^(-1/2)
    (0.5, 2.0, 4.0),        # (1 + z/2)^2
])
def test_exp_q_pinned_values(q, z, expected):
    assert exp_q(q, z) == pytest.approx(expected, rel=1e-15)


def test_exp_q_cutoff_is_exact_zero():
    # bracket 1 + (1-q) z < 0 for q < 1
    assert exp_q(0.0, -2.0) == 0.0
    assert exp_q(0.5, -3.0) == 0.0


def test_exp_q_boundary():
    # bracket exactly zero: continuous limit 0 for q < 1, divergence for q > 1
    assert exp_q(0.0, -1.0) == 0.0
    assert exp_q(3.0, 0.5) == math.inf
    assert exp_q(3.0, 1.0) == 0.0  # past the divergence, bracket < 0


def test_exp_q_at_zero_is_one_exactly():
    for q in (0.0, 0.5, 1.0, 1.5, 2.0, math.sqrt(2.0), 3.0):
        assert exp_q(q, 0.0) == 1.0


def test_exp_q_overflow_saturates():
    assert exp_q(1.0, 1e9) == math.inf
    assert exp_q(0.99, 1e9) == math.inf


def test_exp_q_finite_where_the_bracket_overflows():
    # (1-q) z overflows to +inf, but [1 + (1-q) z]^(1/(1-q)) is a double
    assert exp_q(3.0, -1e308) == pytest.approx(7.0710678118654752e-155, rel=1e-12)
    assert exp_q(-1.0, 1e308) == pytest.approx(1.4142135623730951e154, rel=1e-12)
    assert exp_q(-2.0, 1.5e308) == pytest.approx(7.6630943239355311e102, rel=1e-12)


def test_exp_q_cutoff_holds_next_to_the_classical_point():
    # 1 + (1-q) z = -9 < 0 however close q is to 1: the cutoff, not e^z
    assert exp_q(1.0 + 1e-13, 1e14) == 0.0


def test_exp_q_rejects_non_finite():
    with pytest.raises(MalformedInputError):
        exp_q(float("nan"), 1.0)
    with pytest.raises(MalformedInputError):
        exp_q(1.0, float("inf"))


@pytest.mark.parametrize("q,z,expected", [
    (2.0, 2.0, 0.5),        # 1 - 1/z
    (0.0, 3.0, 2.0),        # z - 1
    (1.0, math.e, 1.0),
])
def test_ln_q_pinned_values(q, z, expected):
    assert ln_q(q, z) == pytest.approx(expected, rel=1e-15)


def test_ln_q_overflows_to_a_signed_infinity():
    # z^(1-q) - 1 overflows: +inf for q < 1, and q > 1 at z -> 0+ gives -inf
    assert ln_q(-1.0, 1e300) == math.inf
    assert ln_q(3.0, 1e-300) == -math.inf
    # where the half power z^((1-q)/2) overflows too, the quotient does
    assert ln_q(-1000.0, 1e300) == math.inf
    assert ln_q(1000.0, 1e-300) == -math.inf
    # where 1 - q is not a double too: no correction for its rounding turns
    # the infinity into nan
    for q, z, inf in [(-1.0, 1e300, math.inf), (3.0, 1e-300, -math.inf)]:
        for _ in range(8):
            q = math.nextafter(q, 2.0 * q)
            assert ln_q(q, z) == inf, q


def _power_overflow_points(n):
    """Seeded (q, z) with q in [-5, 12] where z^(1-q) overflows and
    (z^(1-q) - 1)/(1-q) may not: the power's log is drawn between
    log DBL_MAX and log DBL_MAX + log|1-q|."""
    rng = random.Random("ln_q power overflow")
    log_max = math.log(sys.float_info.max)
    while n:
        q = rng.uniform(-5.0, 12.0)
        om = 1.0 - q
        if abs(om) > 1.0:
            z = math.exp((log_max + rng.random() * math.log(abs(om))) / om)
            n -= 1
            yield q, z


def test_ln_q_is_finite_where_only_the_power_overflows():
    # z^(1-q) is past the double range, and the quotient is the half power
    # over 1-q times the half power, which carries the half power's rounding
    # twice
    mpmath = pytest.importorskip("mpmath")
    assert ln_q(8.542798889881638, 1.3056234590106237e-41) == -3.1888235716703897e+307
    assert ln_q(-4.204542595039654, 1.7847346550146315e59) == 4.580958440543166e+307
    points = [(8.542798889881638, 1.3056234590106237e-41),
              (-4.204542595039654, 1.7847346550146315e59), *_power_overflow_points(2000)]
    worst, compared = (0.0, ()), 0
    with mpmath.workdps(60):
        for q, z in points:
            with pytest.raises(OverflowError):
                math.pow(z, 1.0 - q)
            mq = mpmath.mpf(q)
            ref = (mpmath.mpf(z) ** (1 - mq) - 1) / (1 - mq)
            r = float(ref)
            if abs(r) == math.inf:
                assert ln_q(q, z) == r, (q, z)
                continue
            compared += 1
            worst = max(worst, (float(abs(mpmath.mpf(ln_q(q, z)) - ref) / math.ulp(r)), (q, z)))
    assert compared > 1500
    assert worst[0] <= 3.0, worst  # 2.62 on these points


def test_ln_q_rejects_nonpositive():
    for z in (0.0, -1.0):
        with pytest.raises(DomainError):
            ln_q(1.5, z)


def test_ln_q_and_dlnq_dz_accept_exact_reals():
    # Fraction is a numbers.Real, as exp_q and wq already accept
    assert ln_q(2.0, Fraction(1, 2)) == ln_q(2.0, 0.5) == pytest.approx(-1.0, rel=1e-15)
    assert dlnq_dz(2.0, Fraction(1, 2)) == 4.0
    for bad in (Fraction(-1, 2), Fraction(0), math.inf, math.nan):
        with pytest.raises(DomainError, match="defined for z > 0 only"):
            ln_q(2.0, bad)
        with pytest.raises(DomainError, match="defined for z > 0 only"):
            dlnq_dz(2.0, bad)
    # a str is no real number: malformed, as exp_q and wq have it
    for fn in (ln_q, dlnq_dz):
        with pytest.raises(MalformedInputError, match="^z must be a finite real, got '2'$"):
            fn(2.0, "2")


@pytest.mark.parametrize("z, error", [
    (0.0, "DomainError: {name} is defined for z > 0 only, got z = 0.0"),
    (-1.0, "DomainError: {name} is defined for z > 0 only, got z = -1.0"),
    (math.nan, "DomainError: {name} is defined for z > 0 only, got z = nan"),
    (math.inf, "DomainError: {name} is defined for z > 0 only, got z = inf"),
    (5e-324, None),
    (3, None),
    (Fraction(1, 3), None),
    (True, None),
    (1 + 2j, "MalformedInputError: z must be a finite real, got (1+2j)"),
    (Fraction(1, 10 ** 400), "MalformedInputError: {name} needs z within the double "
                             "range, got a z > 0 that rounds to 0"),
])
def test_ln_q_and_dlnq_dz_check_z_alike_for_every_type(z, error):
    # a float takes its own fast test and every other type the numbers.Real
    # path: the same answers as the float of z, or the same error texts
    for fn in (ln_q, dlnq_dz):
        try:
            got = fn(2.5, z)
        except (DomainError, MalformedInputError) as e:
            got = f"{type(e).__name__}: {e}"
        assert got == (fn(2.5, float(z)) if error is None else error.format(name=fn.__name__))


def test_exact_reals_beyond_the_double_range_are_malformed():
    big = 10 ** 400
    for call in (lambda: exp_q(1.0, big), lambda: exp_q(big, 1.0),
                 lambda: wq(1.0, big), lambda: ln_q(2.0, big), lambda: dlnq_dz(2.0, big)):
        with pytest.raises(MalformedInputError, match="double range"):
            call()
    # positive, but 0.0 as a double: not "defined for z > 0 only"
    with pytest.raises(MalformedInputError, match="double range"):
        ln_q(2.0, Fraction(1, big))
    for bad in (-big, -Fraction(1, big)):
        with pytest.raises(DomainError, match="defined for z > 0 only"):
            ln_q(2.0, bad)


# every public entry point that reads q, or q and z, as a real number, with
# arguments inside its domain
REAL_INPUT_CALLS = [
    (exp_q, (0.5, 1.0)), (ln_q, (0.5, 2.0)), (dlnq_dz, (0.5, 2.0)),
    (positivity_domain, (0.5,)), (branch_point, (0.5,)), (branch_domain, (0.5,)),
    (wq, (0.5, 1.0)), (dwq_dz, (0.5, 1.0)), (wq_closed_form, (0.5, 1.0)),
]


@pytest.mark.parametrize("bad", ["1.5", b"1", None, 1j, Decimal("1.5")], ids=repr)
def test_a_non_real_input_is_malformed_everywhere(bad):
    # float() would read a numeric str or bytes, and a Decimal, as a number;
    # a numbers.Real is the one rule, and anything else is malformed
    for call, args in REAL_INPUT_CALLS:
        for i, name in enumerate("qz"[:len(args)]):
            given = list(args)
            given[i] = bad
            with pytest.raises(MalformedInputError) as e:
                call(*given)
            assert str(e.value) == f"{name} must be a finite real, got {bad!r}", call


@pytest.mark.parametrize("exact, value", [(1, 1.0), (Fraction(3, 2), 1.5), (True, 1.0)])
def test_ints_fractions_and_bools_answer_as_their_floats(exact, value):
    for call, args in REAL_INPUT_CALLS:
        for i in range(len(args)):
            given, floats = list(args), list(args)
            given[i], floats[i] = exact, value
            assert repr(call(*given)) == repr(call(*floats)), (call, given)


# 10^(k/4) from 1e-300 to about 5.6e301, and points near 1 where the
# subtraction in ln_q cancels.  For the last three q, 1 - q is not a double,
# and its rounding cost up to 388 ulp
ULP_SWEEP_Q = [-3.0, -1.0, 0.0, 0.5, 1.0 - 1e-13, 1.0, 1.0 + 1e-13, 1.5, math.sqrt(2.0),
               2.0, 2.5, 10.0, -3.1821173921770014, -0.3, 0.1]
ULP_SWEEP_Z = ([10.0 ** (k / 4) for k in range(-1200, 1208, 29)]
               + [0.999, 1.00048828125, 1.5, 2.0, 3.0])


@pytest.mark.parametrize("fn, bound", [(ln_q, 2.0), (dlnq_dz, 1.0)])
def test_ln_q_and_dlnq_dz_ulp_sweep_against_mpmath(fn, bound):
    # log z is rounded, and (1-q) log z or -q log z carried that rounding
    # times |1-q| or |q| into the answer: up to 639 and 838 ulp on this sweep.
    # pow takes z itself.  Values outside the normal range are not compared
    mpmath = pytest.importorskip("mpmath")
    worst, compared = (0.0, ()), 0
    with mpmath.workdps(60):
        for q in ULP_SWEEP_Q:
            mq = mpmath.mpf(q)
            for z in ULP_SWEEP_Z:
                mz = mpmath.mpf(z)
                if fn is dlnq_dz:
                    ref = mz ** -mq
                elif q == 1.0:
                    ref = mpmath.log(mz)
                else:
                    ref = (mz ** (1 - mq) - 1) / (1 - mq)
                r = float(ref)
                if not sys.float_info.min <= abs(r) <= sys.float_info.max:
                    continue
                compared += 1
                ulps = float(abs(mpmath.mpf(fn(q, z)) - ref) / math.ulp(r))
                worst = max(worst, (ulps, (q, z)))
    assert compared > 750
    assert worst[0] <= bound, worst


def test_dlnq_dz_is_power_law():
    assert dlnq_dz(math.sqrt(2.0), 2.0) == pytest.approx(
        TWO_POW_MINUS_ROOT2, abs=1e-15)
    assert dlnq_dz(2.0, 3.0) == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert dlnq_dz(0.0, 5.0) == 1.0
    with pytest.raises(DomainError):
        dlnq_dz(1.5, 0.0)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 1.5, 2.0, math.sqrt(2.0), 3.0])
def test_positivity_domain_contains_zero(q):
    dom = positivity_domain(q)
    assert dom.contains(0.0)
    if q < 1.0:
        assert dom == Interval(1.0 / (q - 1.0), math.inf, False, False)
        assert not dom.contains(1.0 / (q - 1.0))
    elif q == 1.0:
        assert dom == Interval(-math.inf, math.inf, False, False)
    else:
        assert dom == Interval(-math.inf, 1.0 / (q - 1.0), False, False)
        assert not dom.contains(1.0 / (q - 1.0))


@given(q=st.floats(min_value=0.0, max_value=3.0),
       z=st.floats(min_value=0.05, max_value=20.0))
def test_ln_q_inverts_exp_q(q, z):
    y = ln_q(q, z)
    assert exp_q(q, y) == pytest.approx(z, rel=1e-10)


@given(q=st.floats(min_value=0.0, max_value=3.0),
       z=st.floats(min_value=-5.0, max_value=5.0))
def test_exp_q_round_trip_inside_positivity(q, z):
    if not positivity_domain(q).contains(z):
        return
    y = exp_q(q, z)
    if y == math.inf:
        return
    assert ln_q(q, y) == pytest.approx(z, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("z", [-4.0, -1.0, -0.1, 0.0, 0.3, 1.0, 4.9])
def test_q_to_one_collapse_is_seamless(z):
    # values just outside the collapse window must agree with exp to the
    # accuracy the (1-q)-expansion predicts: |exp_q - exp| ~ |1-q| z^2/2 exp(z)
    for q in (1.0 - 1e-8, 1.0 + 1e-8):
        assert abs(exp_q(q, z) - math.exp(z)) <= 1e-6 * math.exp(z)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.5, 2.0, 3.0])
def test_exp_q_matches_finite_difference_of_itself(q):
    # d exp_q/dz = exp_q^q wherever the bracket is positive
    for z in (0.1, 0.5, -0.2, 0.05):
        if not positivity_domain(q).contains(z):
            continue
        h = 1e-6
        if not positivity_domain(q).contains(z + h):
            continue
        fd = (exp_q(q, z + h) - exp_q(q, z - h)) / (2 * h)
        assert fd == pytest.approx(exp_q(q, z) ** q, rel=1e-6)


@pytest.mark.parametrize("q", [0.0, 0.5, 1.5, 2.0, 3.0])
def test_dlnq_matches_finite_difference(q):
    for z in (0.5, 1.0, 2.0, 7.0):
        h = 1e-6 * z
        fd = (ln_q(q, z + h) - ln_q(q, z - h)) / (2 * h)
        assert fd == pytest.approx(dlnq_dz(q, z), rel=1e-6)
