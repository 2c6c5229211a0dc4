"""Deformed exponential and logarithm: pinned values, domains, cutoff
behavior, round trips, continuity in q, finite-difference consistency."""

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambert_tsallis.errors import DomainError, MalformedInputError
from lambert_tsallis.qexp import (Interval, dlnq_dz, exp_q, ln_q,
                                  positivity_domain)
from lambert_tsallis.wq import wq

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


def test_ln_q_rejects_nonpositive():
    for z in (0.0, -1.0):
        with pytest.raises(DomainError):
            ln_q(1.5, z)


def test_ln_q_and_dlnq_dz_accept_exact_reals():
    # Fraction is a numbers.Real, as exp_q and wq already accept
    assert ln_q(2.0, Fraction(1, 2)) == ln_q(2.0, 0.5) == pytest.approx(-1.0, rel=1e-15)
    assert dlnq_dz(2.0, Fraction(1, 2)) == 4.0
    for bad in (Fraction(-1, 2), Fraction(0), math.inf, math.nan, "2"):
        with pytest.raises(DomainError, match="defined for z > 0 only"):
            ln_q(2.0, bad)
        with pytest.raises(DomainError, match="defined for z > 0 only"):
            dlnq_dz(2.0, bad)


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
