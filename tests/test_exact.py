"""Exact number representations: normalization, field arithmetic, signs,
parsing, rendering."""

import copy
import math
import pickle
import subprocess
import sys
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambert_tsallis import exact
from lambert_tsallis.classify import Rule, classify_expq, classify_wq
from lambert_tsallis.exact import (E, ONE, PI, ZERO, ArithmeticClass, Constant,
                                   NamedTranscendental, QuadSurd, Rational,
                                   add, classify_number, div, is_algebraic,
                                   mul, neg, parse_exact, rational_bounds,
                                   render_exact, sign, sub, to_real)
from lambert_tsallis.errors import (MalformedInputError, UnsupportedFieldError,
                                    UnsupportedOperandError)


def record(a, b, d):
    """The QuadSurd record (a, b, d) made past the constructor, so that an
    expected value does not run the square split under test."""
    return tuple.__new__(QuadSurd, (Fraction(a), Fraction(b), d))


def test_rational_constructor_reduces():
    r = Rational(6, 4)
    assert r == Rational(Fraction(3, 2))


def test_rational_zero_denominator():
    with pytest.raises(MalformedInputError):
        Rational(1, 0)


def test_rational_zero_denominator_with_a_numerator_too_long_to_print():
    # Fraction's ZeroDivisionError printed the numerator, which str() refuses
    # past the interpreter's int-string digit limit
    with pytest.raises(MalformedInputError, match="^zero denominator in rational with a "
                                                  "numerator of over 40 digits$"):
        Rational(10 ** 5000, 0)


def test_normalize_extracts_square_factor():
    # sqrt(8) = 2 sqrt(2)
    assert QuadSurd(0, 1, 8) == record(0, 2, 2)


def test_normalize_large_square_factor():
    # 1000003 and 1000033 are prime, and both exceed the cube root of d
    d = 1000003 ** 2 * 1000033
    assert QuadSurd(0, 1, d) == record(0, 1000003, 1000033)
    assert QuadSurd(0, 1, (1000003 * 1000033) ** 2) == Rational(Fraction(1000003 * 1000033))


def test_normalize_large_prime_radicand():
    # 10**16 + 61 is prime; trial division to its square root would not finish
    assert parse_exact("sqrt(10000000000000061)") == record(0, 1, 10 ** 16 + 61)


def test_normalize_30_digit_prime_radicand_in_bounded_time():
    # 10**30 + 57 is prime; trial division to its cube root would run for
    # about 1 000 s, so the parse runs in a child process under a time bound
    code = ("from lambert_tsallis.exact import parse_exact; "
            "print(repr(parse_exact('sqrt(1000000000000000000000000000057)')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == ("QuadSurd(a=Fraction(0, 1), b=Fraction(1, 1), "
                           "d=1000000000000000000000000000057)")


def test_each_radicand_is_split_once(monkeypatch):
    # building a QuadSurd splits its radicand once; no operation on a built
    # exact number splits again, and nothing caches the split.  10**16 + 61
    # is a prime (trial division to 2**20); 12 = 2*2*3 has radicand 3
    assert not hasattr(exact._square_split, "cache_info")
    split, calls = exact._square_split, []

    def counting(n):
        calls.append(n)
        return split(n)

    monkeypatch.setattr(exact, "_square_split", counting)
    x = parse_exact("1+sqrt(10000000000000061)")
    y = parse_exact("2-3*sqrt(10000000000000061)")
    r = neg(parse_exact("sqrt(12)"))
    assert calls == [10 ** 16 + 61, 10 ** 16 + 61, 12]
    assert sign(sub(mul(x, y), add(x, div(y, x)))) == -1  # about -3d
    assert classify_number(x) is ArithmeticClass.ALGEBRAIC_IRRATIONAL
    assert exact._check(x) is x and is_algebraic(x) and to_real(r) < 0
    assert render_exact(mul(r, r)) == "12" and sign(r) == -1
    assert classify_expq(r, ONE).verdict is ArithmeticClass.TRANSCENDENTAL
    assert classify_wq(r, ONE).rule is Rule.THEOREM_1
    assert len(calls) == 3


def test_hand_built_surd_is_canonical():
    # the constructor makes the record canonical: Fractions, the square
    # factor split out, and a Rational where the surd part vanishes
    x = QuadSurd(0, 1, 8)
    assert x == record(0, 2, 2) and type(x.a) is Fraction
    assert x == QuadSurd(0, 2, 2) == parse_exact("sqrt(8)")
    assert QuadSurd(a=1, b=Fraction(1, 2), d=12) == record(1, 1, 3)
    for built, value in [(QuadSurd(3, 5, 9), 18), (QuadSurd(7, 0, 2), 7),
                         (QuadSurd(7, 3, 0), 7), (QuadSurd(1, 2, 1), 3)]:
        assert type(built) is Rational and built == Rational(Fraction(value))
    assert QuadSurd._make((3, 5, 9)) == Rational(Fraction(18))
    assert QuadSurd(0, 1, 2)._replace(b=0) == ZERO


@pytest.mark.parametrize("d", [-2, 2.0, "2", None])
def test_bad_radicand_raises_at_construction(d):
    with pytest.raises(MalformedInputError):
        QuadSurd(0, 1, d)


@pytest.mark.parametrize("rebuild", [
    lambda x: x._replace(b=Fraction(1)),
    QuadSurd._make,
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
])
def test_rebuilt_surds_are_canonical(rebuild):
    # a record holding sqrt(8) unsplit can only be made past the constructor;
    # every way namedtuple and pickle rebuild one goes through it again
    assert rebuild(record(0, 1, 8)) == record(0, 2, 2)


def test_named_constant_by_its_text():
    # the tag "e" is the member Constant.E, so to_real reads e, not pi
    assert to_real(NamedTranscendental("e")) == math.e
    assert NamedTranscendental("pi") == PI and NamedTranscendental(Constant.E) == E


def test_rational_reduces_int_and_fraction_parts():
    assert Rational(3, 6) == Rational(Fraction(1, 2))
    assert Rational(Fraction(3, 2), Fraction(-3, 4)) == Rational(-2)
    assert type(Rational(3).value) is Fraction and ZERO == Rational(0)


def test_surd_keeps_a_fraction_part_as_it_is():
    # a Fraction is stored, not copied; an int, a bool or a Fraction subclass
    # is converted to a plain Fraction
    f = Fraction(1, 3)
    assert QuadSurd(f, Fraction(2), 5).a is f

    class Third(Fraction):
        pass

    for a, b in [(Third(1, 3), 2), (1, Third(2)), (True, 2)]:
        x = QuadSurd(a, b, 5)
        assert (type(x.a), type(x.b)) == (Fraction, Fraction)
        assert x == record(a, b, 5)


@pytest.mark.parametrize("build", [
    lambda: NamedTranscendental("x"),
    lambda: NamedTranscendental(None),
    lambda: Rational(float("nan")),
    lambda: Rational(0.5),
    lambda: Rational("1/2"),
    lambda: Rational(None),
    lambda: Rational(1, 0.5),
    lambda: QuadSurd("x", 1, 2),
    lambda: QuadSurd(0.5, 1, 2),
    lambda: QuadSurd(None, 1, 2),
    lambda: QuadSurd(0, float("nan"), 2),
], ids=["tag-x", "tag-None", "nan", "float", "str", "None", "float-denominator",
        "surd-str", "surd-float", "surd-None", "surd-nan"])
def test_malformed_parts_raise_at_construction(build):
    with pytest.raises(MalformedInputError):
        build()


def test_sign_of_an_int_past_the_digit_limit_is_malformed():
    # the message names the type: repr(10**5000) raises ValueError
    with pytest.raises(MalformedInputError, match="^not an exact number: got int$"):
        sign(10 ** 5000)


def test_negative_radicand_past_the_digit_limit_is_malformed():
    with pytest.raises(MalformedInputError, match="^a negative radicand has no real"):
        QuadSurd(0, 1, -10 ** 5000)


def test_rational_bounds_of_a_huge_surd_names_its_type():
    with pytest.raises(UnsupportedOperandError, match="got QuadSurd$"):
        rational_bounds(QuadSurd(10 ** 5000, 1, 2))


@pytest.mark.parametrize("made,canonical", [
    (tuple.__new__(Rational, (2,)), Rational(Fraction(2))),
    (tuple.__new__(NamedTranscendental, ("e",)), E),
], ids=["Rational", "NamedTranscendental"])
@pytest.mark.parametrize("rebuild", [
    lambda x: x._replace(),
    lambda x: type(x)._make(x),
    lambda x: pickle.loads(pickle.dumps(x)),
    copy.copy,
    copy.deepcopy,
], ids=["_replace", "_make", "pickle", "copy", "deepcopy"])
def test_rebuilt_records_are_canonical(rebuild, made, canonical):
    # as test_rebuilt_surds_are_canonical for the other two shapes: an int
    # value and a text tag come back canonical (repr tells 2 from Fraction(2))
    assert repr(rebuild(made)) == repr(canonical)


@pytest.mark.parametrize("plain", [(1, 2, 3), (Fraction(1),), (Constant.E,)])
@pytest.mark.parametrize("op", [sign, classify_number, to_real, render_exact,
                                is_algebraic, lambda x: add(x, ONE), lambda x: mul(ONE, x),
                                neg, lambda x: sub(ONE, x), lambda x: div(x, ONE),
                                exact._check])
def test_plain_tuple_is_not_an_exact_number(op, plain):
    # the records are named tuples, but a plain tuple of the same fields is
    # not read as a QuadSurd, Rational or NamedTranscendental
    with pytest.raises(MalformedInputError):
        op(plain)


@pytest.mark.parametrize("plain", [(1, 2, 3), (Fraction(1),), (Constant.E,)])
@pytest.mark.parametrize("op", [add, sub, mul, div])
def test_plain_tuple_beside_e_is_malformed(op, plain):
    # each operand is type-tested before either is refused as opaque, so a
    # non-number beside e is malformed, on either side
    for x, y in ((E, plain), (plain, E)):
        with pytest.raises(MalformedInputError):
            op(x, y)


def test_repeated_prime_factor_above_the_trial_limit_stays_unsplit():
    # 1048583 and 1048589 are primes above 2**20: p*p*r keeps its square
    # factor, so the record differs from p*sqrt(r), but it names the same
    # field, the arithmetic finds it equal, and its sign stays exact
    p, r = 1048583, 1048589
    x = QuadSurd(0, 1, p * p * r)
    assert x == record(0, 1, p * p * r)
    assert x != QuadSurd(0, p, r)
    assert sub(x, QuadSurd(0, p, r)) == ZERO
    assert sign(sub(x, Rational(p * 1024))) == 1
    assert sign(sub(x, Rational(p * 1025))) == -1


def test_normalize_perfect_square_collapses():
    # 3 + 5 sqrt(9) = 18
    assert QuadSurd(3, 5, 9) == Rational(Fraction(18))


def test_normalize_zero_surd_part():
    assert QuadSurd(7, 0, 2) == Rational(Fraction(7))
    assert QuadSurd(7, 3, 0) == Rational(Fraction(7))


def test_normalize_negative_radicand():
    with pytest.raises(MalformedInputError):
        QuadSurd(0, 1, -2)


def test_conjugate_product_is_rational():
    x = QuadSurd(3, 2, 2)
    y = QuadSurd(3, -2, 2)
    assert mul(x, y) == Rational(Fraction(1))


def test_division_by_pure_surd():
    # 1 / sqrt(2) = (1/2) sqrt(2)
    assert div(ONE, QuadSurd(0, 1, 2)) == record(0, Fraction(1, 2), 2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        div(ONE, ZERO)


def test_mixed_radicands_rejected():
    with pytest.raises(UnsupportedFieldError):
        add(QuadSurd(0, 1, 2), QuadSurd(0, 1, 3))


def test_mixed_field_error_builds_its_text_when_read():
    # the classifiers catch the error and never read its text
    with pytest.raises(UnsupportedFieldError) as info:
        mul(QuadSurd(1, 1, 3), QuadSurd(0, 2, 2))
    err = info.value
    assert err.args == ("cannot combine sqrt(%d) and sqrt(%d) in a single operation", 3, 2)
    assert str(err) == "cannot combine sqrt(3) and sqrt(2) in a single operation"
    back = pickle.loads(pickle.dumps(err))
    assert (type(back), str(back), back.args) == (type(err), str(err), err.args)


def test_rational_and_surd_mix_freely():
    assert add(Rational(1, 2), QuadSurd(0, 1, 2)) == record(Fraction(1, 2), 1, 2)
    assert mul(Rational(2), QuadSurd(1, 1, 5)) == record(2, 2, 5)


def test_named_constants_refuse_arithmetic():
    with pytest.raises(UnsupportedOperandError):
        add(E, ONE)
    with pytest.raises(UnsupportedOperandError):
        mul(PI, PI)
    with pytest.raises(UnsupportedOperandError):
        sign(E)


@pytest.mark.parametrize("x,expected", [
    (ZERO, 0),
    (Rational(-3, 7), -1),
    (Rational(5), 1),
    (QuadSurd(0, 1, 2), 1),
    (QuadSurd(0, -1, 2), -1),
    # 3 - 2 sqrt(2) > 0 since 9 > 8
    (QuadSurd(3, -2, 2), 1),
    # 2 - 2 sqrt(2) < 0 since 4 < 8
    (QuadSurd(2, -2, 2), -1),
    (QuadSurd(-3, 2, 2), -1),
    (QuadSurd(-2, 2, 2), 1),
])
def test_sign_exact(x, expected):
    assert sign(x) == expected


@pytest.mark.parametrize("x,expected", [
    (Rational(3, 4), ArithmeticClass.RATIONAL),
    (QuadSurd(1, 1, 2), ArithmeticClass.ALGEBRAIC_IRRATIONAL),
    (E, ArithmeticClass.TRANSCENDENTAL),
    (PI, ArithmeticClass.TRANSCENDENTAL),
])
def test_classify_number(x, expected):
    assert classify_number(x) == expected
    assert is_algebraic(x) == (expected is not ArithmeticClass.TRANSCENDENTAL)


def test_to_real_matches_float():
    assert to_real(Rational(1, 3)) == 1 / 3
    assert to_real(QuadSurd(0, 1, 2)) == 2 ** 0.5
    # the float-route reference has its own ~2 ulp cancellation error
    assert abs(to_real(QuadSurd(3, -2, 2)) - (3 - 2 * 2 ** 0.5)) < 5e-16
    assert to_real(E) == pytest.approx(2.718281828459045, abs=1e-15)
    assert to_real(PI) == pytest.approx(3.141592653589793, abs=1e-15)


def test_to_real_survives_cancellation():
    # 665857/470832 is a convergent of sqrt(2) from above: 665857^2 = 2 * 470832^2 + 1,
    # so sqrt(2) - 665857/470832 = -1/(470832^2 (sqrt(2) + 665857/470832)) ~ -1.5949e-12
    x = add(Rational(-665857, 470832), QuadSurd(0, 1, 2))
    assert to_real(x) == pytest.approx(-1.5949e-12, rel=1e-3)


@pytest.mark.parametrize("text", [f"{10 ** 400}", f"{10 ** 400}+sqrt(2)",
                                  f"-1/{10 ** 400}+{10 ** 400}*sqrt(3)"],
                         ids=["rational", "surd", "surd-coefficient"])
def test_to_real_beyond_the_double_range_is_malformed(text):
    # both ends of the enclosure round past the largest double
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


@pytest.mark.parametrize("text, message", [
    ("1-3/0*sqrt(2)", "zero denominator in rational 3/0"),
    ("-3/0*sqrt(2)", "zero denominator in rational 3/0"),
    ("1+3/0*sqrt(2)", "zero denominator in rational 3/0"),
    (f"1-{'3' * (DIGIT_LIMIT + 1)}*sqrt(2)",
     f"a {DIGIT_LIMIT + 1}-digit integer is beyond the interpreter's limit"),
], ids=["minus", "leading-minus", "plus", "digit-limit"])
def test_parse_errors_quote_a_surd_coefficient_without_its_sign(text, message):
    # the sign before a coefficient is the operator's, not the coefficient's
    if not DIGIT_LIMIT and "limit" in message:
        pytest.skip("no int-string digit limit")
    with pytest.raises(MalformedInputError) as info:
        parse_exact(text)
    assert str(info.value).startswith(message)


@needs_digit_limit
def test_render_exact_past_the_digit_limit_is_malformed():
    big = 10 ** (DIGIT_LIMIT + 1)
    for x in (Rational(Fraction(big, 3)), QuadSurd(1, Fraction(1, big), 2)):
        with pytest.raises(MalformedInputError, match="limit"):
            render_exact(x)


def test_rational_bounds_enclose():
    for c in (E, PI):
        lo, hi = rational_bounds(c)
        assert lo < hi
        assert float(lo) <= to_real(c) <= float(hi)
        assert float(hi - lo) < 1e-49


@pytest.mark.parametrize("text,expected", [
    ("3", Rational(3)),
    ("-2/5", Rational(-2, 5)),
    ("  1/3 ", Rational(1, 3)),
    ("sqrt(2)", QuadSurd(0, 1, 2)),
    ("-sqrt(5)", QuadSurd(0, -1, 5)),
    ("2*sqrt(3)", QuadSurd(0, 2, 3)),
    ("1+sqrt(2)", QuadSurd(1, 1, 2)),
    ("3-2*sqrt(2)", QuadSurd(3, -2, 2)),
    ("1/2+1/3*sqrt(5)", QuadSurd(Fraction(1, 2), Fraction(1, 3), 5)),
    ("sqrt(8)", QuadSurd(0, 2, 2)),
    ("sqrt(4)", Rational(2)),
    ("e", E),
    ("PI", PI),
    ("pi", PI),
])
def test_parse_exact(text, expected):
    assert parse_exact(text) == expected


@pytest.mark.parametrize("text, expected", [
    ("0*sqrt(2)", Rational(0)),
    ("sqrt(0)", Rational(0)),
    ("3-sqrt(9)", Rational(0)),
    ("5/2-1/2*sqrt(9)", Rational(1)),
    ("sqrt(8)", record(0, 2, 2)),
    ("2/4-6/8*sqrt(12)", record(Fraction(1, 2), Fraction(-3, 2), 3)),
    (" 1 + SQRT( 2 )", record(1, 1, 2)),
    # 1048583 is a prime above 2**20: the split leaves its square in the radicand
    (f"sqrt({1048583 ** 2 * 10000019})", record(0, 1, 1048583 ** 2 * 10000019)),
])
def test_parse_exact_records_are_pinned(text, expected):
    # each part a reduced Fraction, the record equal to one built past the constructor
    x = parse_exact(text)
    assert (type(x), repr(x)) == (type(expected), repr(expected))


@pytest.mark.parametrize("text, message", [
    ("1/0+sqrt(2)", "zero denominator in rational 1/0"),
    ("1+1/0*sqrt(2)", "zero denominator in rational 1/0"),
    ("1/0+sqrt(-2)", "zero denominator in rational 1/0"),
    ("sqrt(-2)", "a negative radicand has no real square root"),
    ("0*sqrt(-2)", "a negative radicand has no real square root"),
    ("1+-sqrt(2)", "cannot parse exact number '1+-sqrt(2)' (double sign)"),
])
def test_parse_exact_error_texts_are_pinned(text, message):
    with pytest.raises(MalformedInputError) as info:
        parse_exact(text)
    assert str(info.value) == message


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
    assert render_exact(Rational(-3, 7)) == "-3/7"
    assert render_exact(QuadSurd(0, 1, 2)) == "sqrt(2)"
    assert render_exact(QuadSurd(0, -2, 3)) == "-2*sqrt(3)"
    assert render_exact(QuadSurd(1, -1, 2)) == "1-sqrt(2)"
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
    return QuadSurd(a, b, dd)


@given(a=fractions_st, b=fractions_st, d=st.integers(min_value=0, max_value=400))
def test_normalize_is_idempotent(a, b, d):
    # the constructor's output is checked by trial division, independent of
    # the split; building again from a canonical record leaves it unchanged
    x = QuadSurd(a, b, d)
    assert type(x)._make(x) == x
    if isinstance(x, Rational):
        assert b == 0 or isqrt(d) ** 2 == d
        assert x.value == a + b * isqrt(d)
        return
    assert x.a == a and x.b ** 2 * x.d == b * b * d and x.b * b > 0
    assert x.d >= 2 and all(x.d % (p * p) for p in range(2, isqrt(x.d) + 1))
    assert QuadSurd(*x) == x and type(QuadSurd(*x)) is QuadSurd


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
        # the arithmetic builds its results past the constructor, which
        # would leave a canonical value unchanged
        assert type(z)._make(z) == z and type(z[0]) is Fraction


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


# ------------------------------------------------------- the integer kernels

# Pell pairs, a*a - 2*b*b = 1, so a - b*sqrt(2) = 1/(a + b*sqrt(2)) is tiny
PELL_30 = (359313438791966819268004696899, 254072969141257218722003304910)
PELL_41 = (18758264276891285681250881852014625703843,
           13264095873479197467931567359068050319018)


@pytest.mark.parametrize("a, b", [PELL_30, PELL_41], ids=["30-digit", "41-digit"])
def test_to_real_is_correctly_rounded_under_deep_cancellation(a, b):
    # a single 128-bit enclosure of sqrt(2) gave 1.717e-10 and 8.96 here
    assert a * a - 2 * b * b == 1
    # 1/(a + b*sqrt(2)) has no cancellation: 256 bits of sqrt(2) give it to
    # a relative 1e-70, so its rounding is the correct one
    reference = float(1 / (a + b * Fraction(isqrt(2 << 512), 1 << 256)))
    assert to_real(parse_exact(f"{a}-{b}*sqrt(2)")) == reference
    assert reference in (1.3915427201415838e-30, 2.6654918206689354e-41)


def test_to_real_refines_an_end_past_the_double_range(monkeypatch):
    # values from T = 2**1024 - 2**970 up round past the largest double;
    # T -+ (a/b - sqrt(2)) lies within 1e-81 of T, so a 128-bit enclosure
    # has one end on each side and only a refined one decides
    a, b = PELL_41
    t = 2 ** 1024 - 2 ** 970
    ends, quotient = [], exact._quotient

    def recording(n, m):
        ends.append(quotient(n, m))
        return ends[-1]

    monkeypatch.setattr(exact, "_quotient", recording)
    assert to_real(QuadSurd(Fraction(t * b - a, b), 1, 2)) == sys.float_info.max
    assert math.inf in ends and sys.float_info.max in ends
    with pytest.raises(MalformedInputError, match="double range"):
        to_real(QuadSurd(Fraction(t * b + a, b), -1, 2))


# 1048583 and 10000019 are primes above 2**20: the split leaves p*p*r whole
P, R = 1048583, 10000019


def test_radicands_naming_one_field_combine():
    # sqrt(p*p*r) = p*sqrt(r): p*p*r * r is a square, so the two are one field
    x, y = parse_exact(f"sqrt({P * P * R})"), parse_exact(f"sqrt({R})")
    assert x.d == P * P * R
    assert render_exact(add(x, y)) == render_exact(add(y, x)) == "1048584*sqrt(10000019)"
    assert render_exact(sub(x, y)) == "1048582*sqrt(10000019)"
    assert render_exact(sub(y, x)) == "-1048582*sqrt(10000019)"
    assert mul(x, y) == Rational(P * R)
    assert div(x, y) == Rational(P) and div(y, x) == Rational(1, P)
    assert sub(x, QuadSurd(0, P, R)) == ZERO
    assert add(x, QuadSurd(1, -P, R)) == ONE
    with pytest.raises(UnsupportedFieldError):
        add(x, QuadSurd(0, 1, 2))


small_ints = st.integers(min_value=-20, max_value=20)
big_ints = st.integers(min_value=-10 ** 50, max_value=10 ** 50)
rational_parts = st.builds(Fraction, small_ints | big_ints,
                           st.integers(1, 12) | st.integers(1, 10 ** 50))


@given(x=st.builds(QuadSurd, rational_parts, rational_parts,
                   st.sampled_from([0, 1, 2, 4, 8, 12, R])))
def test_parse_render_round_trip_of_wide_records(x):
    # 50-digit parts and radicands with a square factor; an unsplit p*p*r
    # takes 0.1 s to split, so test_parse_exact_records_are_pinned has it
    y = parse_exact(render_exact(x))
    assert (type(y), repr(y)) == (type(x), repr(x))


@st.composite
def field_operands(draw, d):
    """A Rational or a surd over d, its parts small or 50-digit."""
    a = draw(rational_parts)
    b = draw(rational_parts) if draw(st.booleans()) else Fraction(0)
    return QuadSurd(a, b, d)


def reference_record(a, b, d):
    return tuple.__new__(Rational, (a,)) if b == 0 else tuple.__new__(QuadSurd, (a, b, d))


def reference_parts(x):
    return (x.value, Fraction(0)) if isinstance(x, Rational) else (x.a, x.b)


def reference_sign(a, b, d):
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa * sb >= 0:
        return sa or sb
    return sa if a * a > b * b * d else sb


def reference_render(a, b, d):
    if b == 0:
        return str(a)
    mag = f"sqrt({d})" if abs(b) == 1 else f"{abs(b)}*sqrt({d})"
    if a == 0:
        return mag if b > 0 else f"-{mag}"
    return f"{a}{'+' if b > 0 else '-'}{mag}"


@given(d=st.sampled_from([2, 3, 5, 6, 7]), data=st.data())
def test_integer_kernels_equal_the_fraction_formulas(d, data):
    x, y = data.draw(field_operands(d)), data.draw(field_operands(d))
    (a1, b1), (a2, b2) = reference_parts(x), reference_parts(y)
    expected = [(add, a1 + a2, b1 + b2), (sub, a1 - a2, b1 - b2),
                (mul, a1 * a2 + b1 * b2 * d, a1 * b2 + a2 * b1)]
    norm = a2 * a2 - b2 * b2 * d
    if norm:
        expected.append((div, (a1 * a2 - b1 * b2 * d) / norm, (b1 * a2 - a1 * b2) / norm))
    for op, a, b in expected:
        assert repr(op(x, y)) == repr(reference_record(a, b, d)), op.__name__
    root = Fraction(isqrt(d << 1024), 1 << 512)
    for v, (a, b) in ((x, (a1, b1)), (y, (a2, b2))):
        assert sign(v) == reference_sign(a, b, d)
        assert render_exact(v) == reference_render(a, b, d)
        assert to_real(v) == float(a + b * root)


FRACTION_OPERATORS = [
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__bool__", "__float__", "__int__", "__trunc__", "__floor__", "__ceil__",
    "__round__"]


def test_exact_kernels_run_no_fraction_operator(monkeypatch):
    # a Fraction operator costs 1-3 us of dispatch and gcd; the kernels
    # compute on the parts' numerators and denominators instead
    texts = ["3/7", "-2", "0", "1/2-3/5*sqrt(7)", "-sqrt(7)", "2+sqrt(28)",
             "sqrt(9)", f"{10 ** 50}/3+7/{10 ** 49}*sqrt(7)", f"sqrt({P * P * R})",
             f"-1/3*sqrt({R})"]

    def outcomes():
        out = []
        xs = [parse_exact(t) for t in texts]
        for x in xs:
            out += [repr(x), sign(x), to_real(x), render_exact(x)]
            for y in xs:
                for op in (add, sub, mul, div):
                    try:
                        out.append(repr(op(x, y)))
                    except (UnsupportedFieldError, ZeroDivisionError) as exc:
                        out.append(type(exc).__name__)
        return out

    expected = outcomes()

    def refuse(*args):
        raise AssertionError("a Fraction operator ran")

    for name in FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name, refuse)
    try:
        got = outcomes()
    finally:
        monkeypatch.undo()
    assert got == expected
    assert "UnsupportedFieldError" in got and "ZeroDivisionError" in got
