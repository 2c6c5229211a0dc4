"""Exact number representations: normalization, field arithmetic, signs,
parsing, rendering."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambert_tsallis.exact import (E, ONE, PI, ZERO, ArithmeticClass, Constant,
                                   NamedTranscendental, QuadSurd, Rational,
                                   add, classify_number, div, is_algebraic,
                                   mul, neg, normalize, parse_exact, rational,
                                   rational_bounds, render_exact, sign, sub,
                                   surd, to_real)
from lambert_tsallis.errors import (MalformedInputError, UnsupportedFieldError,
                                    UnsupportedOperandError)


def test_rational_constructor_reduces():
    r = rational(6, 4)
    assert r == Rational(Fraction(3, 2))


def test_rational_zero_denominator():
    with pytest.raises(MalformedInputError):
        rational(1, 0)


def test_normalize_extracts_square_factor():
    # sqrt(8) = 2 sqrt(2)
    assert surd(0, 1, 8) == QuadSurd(Fraction(0), Fraction(2), 2)


def test_normalize_large_square_factor():
    # 1000003 and 1000033 are prime, and both exceed the cube root of d
    d = 1000003 ** 2 * 1000033
    assert surd(0, 1, d) == QuadSurd(Fraction(0), Fraction(1000003), 1000033)
    assert surd(0, 1, (1000003 * 1000033) ** 2) == Rational(Fraction(1000003 * 1000033))


def test_normalize_large_prime_radicand():
    # 10**16 + 61 is prime; trial division to its square root would not finish
    assert parse_exact("sqrt(10000000000000061)") == QuadSurd(
        Fraction(0), Fraction(1), 10 ** 16 + 61)


def test_normalize_perfect_square_collapses():
    # 3 + 5 sqrt(9) = 18
    assert surd(3, 5, 9) == Rational(Fraction(18))


def test_normalize_zero_surd_part():
    assert surd(7, 0, 2) == Rational(Fraction(7))
    assert surd(7, 3, 0) == Rational(Fraction(7))


def test_normalize_negative_radicand():
    with pytest.raises(MalformedInputError):
        surd(0, 1, -2)


def test_conjugate_product_is_rational():
    x = surd(3, 2, 2)
    y = surd(3, -2, 2)
    assert mul(x, y) == Rational(Fraction(1))


def test_division_by_pure_surd():
    # 1 / sqrt(2) = (1/2) sqrt(2)
    assert div(ONE, surd(0, 1, 2)) == QuadSurd(Fraction(0), Fraction(1, 2), 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        div(ONE, ZERO)


def test_mixed_radicands_rejected():
    with pytest.raises(UnsupportedFieldError):
        add(surd(0, 1, 2), surd(0, 1, 3))


def test_rational_and_surd_mix_freely():
    assert add(rational(1, 2), surd(0, 1, 2)) == QuadSurd(Fraction(1, 2), Fraction(1), 2)
    assert mul(rational(2), surd(1, 1, 5)) == QuadSurd(Fraction(2), Fraction(2), 5)


def test_named_constants_refuse_arithmetic():
    with pytest.raises(UnsupportedOperandError):
        add(E, ONE)
    with pytest.raises(UnsupportedOperandError):
        mul(PI, PI)
    with pytest.raises(UnsupportedOperandError):
        sign(E)


@pytest.mark.parametrize("x,expected", [
    (ZERO, 0),
    (rational(-3, 7), -1),
    (rational(5), 1),
    (surd(0, 1, 2), 1),
    (surd(0, -1, 2), -1),
    # 3 - 2 sqrt(2) > 0 since 9 > 8
    (surd(3, -2, 2), 1),
    # 2 - 2 sqrt(2) < 0 since 4 < 8
    (surd(2, -2, 2), -1),
    (surd(-3, 2, 2), -1),
    (surd(-2, 2, 2), 1),
])
def test_sign_exact(x, expected):
    assert sign(x) == expected


@pytest.mark.parametrize("x,expected", [
    (rational(3, 4), ArithmeticClass.RATIONAL),
    (surd(1, 1, 2), ArithmeticClass.ALGEBRAIC_IRRATIONAL),
    (E, ArithmeticClass.TRANSCENDENTAL),
    (PI, ArithmeticClass.TRANSCENDENTAL),
])
def test_classify_number(x, expected):
    assert classify_number(x) == expected
    assert is_algebraic(x) == (expected is not ArithmeticClass.TRANSCENDENTAL)


def test_to_real_matches_float():
    assert to_real(rational(1, 3)) == 1 / 3
    assert to_real(surd(0, 1, 2)) == 2 ** 0.5
    # the float-route reference has its own ~2 ulp cancellation error
    assert abs(to_real(surd(3, -2, 2)) - (3 - 2 * 2 ** 0.5)) < 5e-16
    assert to_real(E) == pytest.approx(2.718281828459045, abs=1e-15)
    assert to_real(PI) == pytest.approx(3.141592653589793, abs=1e-15)


def test_to_real_survives_cancellation():
    # 665857/470832 is a convergent of sqrt(2) from above: 665857^2 = 2 * 470832^2 + 1,
    # so sqrt(2) - 665857/470832 = -1/(470832^2 (sqrt(2) + 665857/470832)) ~ -1.5949e-12
    x = add(rational(-665857, 470832), surd(0, 1, 2))
    assert to_real(x) == pytest.approx(-1.5949e-12, rel=1e-3)


@pytest.mark.parametrize("text", [f"{10 ** 400}", f"{10 ** 400}+sqrt(2)",
                                  f"-1/{10 ** 400}+{10 ** 400}*sqrt(3)"],
                         ids=["rational", "surd", "surd-coefficient"])
def test_to_real_beyond_the_double_range_is_malformed(text):
    # float() of such a Fraction raises OverflowError
    with pytest.raises(MalformedInputError, match="double range"):
        to_real(parse_exact(text))


# Python caps int <-> str conversions at sys.get_int_max_str_digits() digits
# (4300 by default); 0, or a Python without the function, means no cap
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT,
                                       reason="no int-string digit limit")


@needs_digit_limit
@pytest.mark.parametrize("text", ["1" * (DIGIT_LIMIT + 1), f"1/{'3' * (DIGIT_LIMIT + 1)}",
                                  f"1+2*sqrt({'7' * (DIGIT_LIMIT + 1)})"],
                         ids=["integer", "denominator", "radicand"])
def test_parse_exact_past_the_digit_limit_is_malformed(text):
    with pytest.raises(MalformedInputError, match="limit"):
        parse_exact(text)


@needs_digit_limit
def test_render_exact_past_the_digit_limit_is_malformed():
    big = 10 ** (DIGIT_LIMIT + 1)
    for x in (Rational(Fraction(big, 3)), surd(1, Fraction(1, big), 2)):
        with pytest.raises(MalformedInputError, match="limit"):
            render_exact(x)


def test_rational_bounds_enclose():
    for c in (E, PI):
        lo, hi = rational_bounds(c)
        assert lo < hi
        assert float(lo) <= to_real(c) <= float(hi)
        assert float(hi - lo) < 1e-49


@pytest.mark.parametrize("text,expected", [
    ("3", rational(3)),
    ("-2/5", rational(-2, 5)),
    ("  1/3 ", rational(1, 3)),
    ("sqrt(2)", surd(0, 1, 2)),
    ("-sqrt(5)", surd(0, -1, 5)),
    ("2*sqrt(3)", surd(0, 2, 3)),
    ("1+sqrt(2)", surd(1, 1, 2)),
    ("3-2*sqrt(2)", surd(3, -2, 2)),
    ("1/2+1/3*sqrt(5)", surd(Fraction(1, 2), Fraction(1, 3), 5)),
    ("sqrt(8)", surd(0, 2, 2)),
    ("sqrt(4)", rational(2)),
    ("e", E),
    ("PI", PI),
    ("pi", PI),
])
def test_parse_exact(text, expected):
    assert parse_exact(text) == expected


@pytest.mark.parametrize("text", [
    "", "foo", "sqrt(-1)", "2/0", "1++sqrt(2)", "sqrt(2)+1", "1+-sqrt(2)",
    "2 sqrt(3)", "sqrt()", "e+1", "1.5",
])
def test_parse_exact_rejects(text):
    with pytest.raises(MalformedInputError):
        parse_exact(text)


@pytest.mark.parametrize("text", [
    "3", "-2/5", "sqrt(2)", "-sqrt(5)", "2*sqrt(3)", "1+sqrt(2)",
    "3-2*sqrt(2)", "1/2+1/3*sqrt(5)", "e", "pi",
])
def test_render_round_trips(text):
    x = parse_exact(text)
    assert parse_exact(render_exact(x)) == x


def test_render_canonical_forms():
    assert render_exact(rational(-3, 7)) == "-3/7"
    assert render_exact(surd(0, 1, 2)) == "sqrt(2)"
    assert render_exact(surd(0, -2, 3)) == "-2*sqrt(3)"
    assert render_exact(surd(1, -1, 2)) == "1-sqrt(2)"
    assert render_exact(E) == "e"
    assert render_exact(PI) == "pi"
    assert render_exact(NamedTranscendental(Constant.E)) == "e"


# ---------------------------------------------------------------- properties

fractions_st = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                            max_denominator=10 ** 6)
radicands = st.sampled_from([2, 3, 5, 6, 7, 10, 13])


@st.composite
def surds(draw, d=None):
    a = draw(fractions_st)
    b = draw(fractions_st)
    dd = d if d is not None else draw(radicands)
    return normalize(QuadSurd(a, b, dd))


@given(a=fractions_st, b=fractions_st, d=st.integers(min_value=0, max_value=400))
def test_normalize_is_idempotent(a, b, d):
    x = normalize(QuadSurd(a, b, d))
    assert normalize(x) == x


@given(d=radicands, data=st.data())
def test_field_closure_and_to_real_consistency(d, data):
    x = data.draw(surds(d=d))
    y = data.draw(surds(d=d))
    for op in (add, sub, mul):
        z = op(x, y)
        assert isinstance(z, (Rational, QuadSurd))
        got = to_real(z)
        ref = {add: lambda: to_real(x) + to_real(y),
               sub: lambda: to_real(x) - to_real(y),
               mul: lambda: to_real(x) * to_real(y)}[op]()
        assert got == pytest.approx(ref, rel=1e-9, abs=1e-9)


@given(d=radicands, data=st.data())
def test_arithmetic_results_are_canonical(d, data):
    x = data.draw(surds(d=d))
    y = data.draw(surds(d=d))
    ops = (add, sub, mul) if y == ZERO else (add, sub, mul, div)
    for op in ops:
        z = op(x, y)
        assert normalize(z) == z


@given(d=radicands, data=st.data())
def test_division_inverts_multiplication(d, data):
    x = data.draw(surds(d=d))
    y = data.draw(surds(d=d))
    if y == ZERO:
        return
    assert sub(div(mul(x, y), y), x) == ZERO


@given(x=surds())
def test_sign_matches_float_when_clearly_nonzero(x):
    v = to_real(x)
    if abs(v) > 1e-9:
        assert sign(x) == (1 if v > 0 else -1)


@given(x=surds())
@settings(max_examples=200)
def test_parse_render_round_trip_property(x):
    assert parse_exact(render_exact(x)) == x


@given(x=surds())
def test_neg_is_involutive(x):
    assert neg(neg(x)) == x
    assert add(x, neg(x)) == ZERO
