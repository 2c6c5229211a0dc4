"""Guarded decision procedure: verdicts, rules, exact values, domain
refusals, and agreement between exact claims and the numeric layer."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lambert_tsallis import classify, exact
from lambert_tsallis.classify import (_ZB_MARGIN, Rule, classify_expq,
                                      classify_lnq_derivative, classify_tower,
                                      classify_wq)
from lambert_tsallis.errors import (ConvergenceError, DomainError, MalformedInputError,
                                    UnsupportedFieldError)
from lambert_tsallis.exact import (ArithmeticClass, QuadSurd, Rational, parse_exact,
                                   render_exact, to_real)
from lambert_tsallis.qexp import dlnq_dz, exp_q
from lambert_tsallis.wq import branch_point, wq

R = ArithmeticClass.RATIONAL
A = ArithmeticClass.ALGEBRAIC_IRRATIONAL
T = ArithmeticClass.TRANSCENDENTAL
U = ArithmeticClass.UNKNOWN


def c_expq(q, z):
    return classify_expq(parse_exact(q), parse_exact(z))


def c_wq(q, z):
    return classify_wq(parse_exact(q), parse_exact(z))


def c_lnq(q, z0):
    return classify_lnq_derivative(parse_exact(q), parse_exact(z0))


def c_tower(r):
    return classify_tower(parse_exact(r))


# The fifteen-case decision table.  Each row pins BOTH the verdict and the
# rule that must produce it.
DECISION_TABLE = [
    (c_expq, ("sqrt(2)", "1"), T, Rule.THEOREM_2, None),
    (c_expq, ("1+sqrt(2)", "1"), R, Rule.CUTOFF_ZERO, "0"),
    (c_expq, ("1/2", "pi"), T, Rule.THEOREM_5, None),
    (c_expq, ("3/2", "1/3"), U, Rule.GUARD_FALLTHROUGH, None),
    (c_wq, ("sqrt(2)", "1"), T, Rule.THEOREM_1, None),
    (c_wq, ("2", "1"), R, Rule.CLOSED_FORM_Q2, "1/2"),
    (c_wq, ("2", "sqrt(2)"), A, Rule.CLOSED_FORM_Q2, "2-sqrt(2)"),
    (c_wq, ("sqrt(3)", "5/7"), T, Rule.THEOREM_3, None),
    (c_wq, ("4/3", "2"), U, Rule.GUARD_FALLTHROUGH, None),
    (c_lnq, ("sqrt(2)", "2"), T, Rule.THEOREM_4, None),
    (c_lnq, ("sqrt(2)", "1"), R, Rule.EXACT_VALUE, "1"),
    (c_lnq, ("3", "2"), R, Rule.EXACT_VALUE, "1/8"),
    (c_tower, ("1/2",), T, Rule.THEOREM_6, None),
    (c_tower, ("2",), U, Rule.GUARD_FALLTHROUGH, None),
    (c_tower, ("3/4",), T, Rule.THEOREM_6, None),
]


@pytest.mark.parametrize("fn,args,verdict,rule,exact", DECISION_TABLE)
def test_decision_table(fn, args, verdict, rule, exact):
    res = fn(*args)
    assert res.verdict is verdict
    assert res.rule is rule
    if exact is None:
        assert res.exact_value is None or verdict is not U
    else:
        assert res.exact_value == parse_exact(exact)
    assert res.justification


def test_unknown_iff_guard_fallthrough():
    for fn, args, verdict, rule, _ in DECISION_TABLE:
        res = fn(*args)
        assert (res.verdict is U) == (res.rule is Rule.GUARD_FALLTHROUGH)


def test_classification_is_deterministic():
    for fn, args, *_ in DECISION_TABLE:
        assert fn(*args) == fn(*args)


# --------------------------------------------------- classical q = 1 rules

def test_classical_exp_rule():
    res = c_expq("1", "2")
    assert res.verdict is T and res.rule is Rule.CLASSICAL_EXP
    res = c_expq("1", "sqrt(2)")
    assert res.verdict is T and res.rule is Rule.CLASSICAL_EXP
    # e^0 = 1 is the exact-value path, not the classical rule
    res = c_expq("1", "0")
    assert res.verdict is R and res.rule is Rule.EXACT_VALUE
    # transcendental exponent: nothing to say
    assert c_expq("1", "pi").rule is Rule.GUARD_FALLTHROUGH


def test_classical_w1_rule():
    res = c_wq("1", "1")
    assert res.verdict is T and res.rule is Rule.CLASSICAL_W1


# ------------------------------------------------------------- expq corners

def test_expq_zero_argument_is_one():
    res = c_expq("7/3", "0")
    assert res.verdict is R and res.rule is Rule.EXACT_VALUE
    assert res.exact_value == Rational(1)


def test_expq_cutoff_with_surd_z():
    # q = 3, z = -sqrt(2): bracket 1 + (1-3)(-sqrt(2)) > 0, no cutoff;
    # q = 3, z = sqrt(2): bracket 1 - 2 sqrt(2) < 0, cutoff to exact zero
    res = c_expq("3", "sqrt(2)")
    assert res.verdict is R and res.rule is Rule.CUTOFF_ZERO
    assert to_real(res.exact_value) == 0.0


def test_expq_bracket_boundary_is_unknown():
    # q = 1+sqrt(2), z = 1/2 sqrt(2): bracket 1 - sqrt(2) (sqrt(2)/2) = 0,
    # the q < 1 / q > 1 boundary split is not decided symbolically here
    res = c_expq("1+sqrt(2)", "1/2*sqrt(2)")
    assert res.verdict is U and res.rule is Rule.GUARD_FALLTHROUGH


def test_expq_theorem5_cutoff_guard():
    # q = 2 puts pi past the cutoff: 1 + (1-2) pi < 0, so the value is the
    # exact zero and the power-form argument must not fire
    res = c_expq("2", "pi")
    assert res.verdict is R and res.rule is Rule.CUTOFF_ZERO
    assert to_real(res.exact_value) == 0.0
    # same shape but e: 1 - e < 0 as well
    res = c_expq("2", "e")
    assert res.verdict is R and res.rule is Rule.CUTOFF_ZERO


def test_expq_named_q_is_unknown():
    assert c_expq("pi", "1").rule is Rule.GUARD_FALLTHROUGH
    assert c_expq("e", "sqrt(2)").rule is Rule.GUARD_FALLTHROUGH


def test_expq_mixed_surd_fields_unknown():
    res = c_expq("sqrt(2)", "sqrt(3)")
    assert res.verdict is U and res.rule is Rule.GUARD_FALLTHROUGH


def test_expq_same_field_surds_classify():
    res = c_expq("sqrt(2)", "3-2*sqrt(2)")
    assert res.verdict is T and res.rule is Rule.THEOREM_2


# --------------------------------------------------------------- wq corners

def test_wq_zero_is_zero():
    res = c_wq("sqrt(5)", "0")
    assert res.verdict is R and res.rule is Rule.EXACT_VALUE
    assert to_real(res.exact_value) == 0.0


def test_wq_q2_closed_form_exactness():
    res = c_wq("2", "1/3")
    assert res.verdict is R
    assert res.exact_value == Rational(1, 4)
    # rational verdict even for surd z when the surd cancels: z = -2+sqrt(2)
    # gives z/(1+z) = (-2+sqrt(2))/(-1+sqrt(2)), still a surd though
    res = c_wq("2", "-2/3+1/3*sqrt(2)")
    assert res.rule is Rule.CLOSED_FORM_Q2


def test_wq_q2_pole_and_beyond_refused():
    with pytest.raises(DomainError):
        c_wq("2", "-1")
    with pytest.raises(DomainError):
        c_wq("2", "-2")
    with pytest.raises(DomainError):
        c_wq("2", "-1-sqrt(2)")


def test_wq_theorem1_needs_z_exactly_one():
    res = c_wq("sqrt(2)", "1")
    assert res.rule is Rule.THEOREM_1
    # any other algebraic z routes through the general rule
    assert c_wq("sqrt(2)", "2").rule is Rule.THEOREM_3


def test_wq_rational_nonclassical_q_unknown():
    assert c_wq("3/2", "1").rule is Rule.GUARD_FALLTHROUGH
    assert c_wq("4/3", "1/2").rule is Rule.GUARD_FALLTHROUGH


def test_wq_named_inputs_unknown():
    assert c_wq("pi", "1").rule is Rule.GUARD_FALLTHROUGH
    assert c_wq("sqrt(2)", "pi").rule is Rule.GUARD_FALLTHROUGH


# ------------------------------------------------------------- z_b guard

@pytest.mark.parametrize("q,z", [("3-2*sqrt(2)", "-10"), ("sqrt(2)", "-100"),
                                 ("1-sqrt(2)", "-1"),
                                 (f"-{10 ** 17}+sqrt(2)", f"-1/{10 ** 16}")])
def test_wq_below_the_branch_point_refused(q, z):
    # z_b is about -0.264, -0.469, -0.222 and -1e-17: no real W_q(z) exists
    with pytest.raises(DomainError, match="below the branch point"):
        c_wq(q, z)


def test_wq_band_around_the_double_branch_point_is_unknown():
    q = parse_exact("sqrt(2)")
    z_b = Fraction(branch_point(to_real(q)).z_b)
    assert classify_wq(q, Rational(z_b)).rule is Rule.GUARD_FALLTHROUGH
    above = Rational(z_b * (1 - 10 * _ZB_MARGIN))
    assert classify_wq(q, above).rule is Rule.THEOREM_3
    with pytest.raises(DomainError):
        classify_wq(q, Rational(z_b * (1 + 10 * _ZB_MARGIN)))


@pytest.mark.parametrize("q", [
    f"2-1/{10 ** 20}*sqrt(2)",       # rounds to 2: no branch point
    f"-{10 ** 400}+sqrt(2)",         # beyond the double range
])
def test_wq_without_a_usable_double_branch_point_is_unknown(q):
    assert c_wq(q, f"-1/{10 ** 30}").rule is Rule.GUARD_FALLTHROUGH


def test_wq_below_q_minus_1e16_is_decided_against_the_branch_point():
    # 1 + (1-q) w_b rounds to 0 at q = -1e17 + sqrt(2), yet the double z_b
    # is about -1e-17, and z = -1e-30 lies above it
    assert c_wq(f"-{10 ** 17}+sqrt(2)", f"-1/{10 ** 30}").rule is Rule.THEOREM_3


def _refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except DomainError:
        return True
    except ConvergenceError:  # a root next to the wall exists
        pass
    return False


@given(a=st.fractions(min_value=-5, max_value=5, max_denominator=12),
       b=st.fractions(min_value=-3, max_value=3, max_denominator=6).filter(bool),
       d=st.sampled_from([2, 3, 5, 7]),
       za=st.fractions(min_value=-50, max_value=50, max_denominator=1000),
       zb=st.sampled_from([0, 1, -1, Fraction(1, 3)]))
def test_wq_refuses_exactly_where_the_numeric_branch_has_no_value(a, b, d, za, zb):
    q, z = QuadSurd(a, b, d), QuadSurd(za, zb, d)
    qf, zf = to_real(q), to_real(z)
    bp = branch_point(qf)
    if bp is not None and abs(zf - bp.z_b) <= 1e-9 * abs(bp.z_b):
        return  # inside a band wider than the guard's
    assert _refuses(classify_wq, q, z) == _refuses(wq, qf, zf)


def test_double_branch_point_is_well_inside_the_guard_margin():
    mpmath = pytest.importorskip("mpmath")
    texts = ["sqrt(2)", "3-2*sqrt(2)", "1-sqrt(2)", "-10+2*sqrt(5)", "1/2-1/3*sqrt(7)",
             "7/3-sqrt(2)", "-99+70*sqrt(2)"]
    for k in range(1, 16):
        texts += [f"1+1/{10 ** k}*sqrt(2)", f"1-1/{10 ** k}*sqrt(3)",
                  f"2-1/{10 ** k}*sqrt(2)", f"-{10 ** k}+sqrt(5)"]
    for text in texts:
        q = parse_exact(text)
        z_b = branch_point(to_real(q)).z_b
        with mpmath.workdps(60):
            qv = (mpmath.mpf(q.a.numerator) / q.a.denominator
                  + mpmath.mpf(q.b.numerator) / q.b.denominator * mpmath.sqrt(q.d))
            exact = -(2 - qv) ** ((qv - 2) / (1 - qv))
            rel = abs((mpmath.mpf(z_b) - exact) / exact)
        assert rel < float(_ZB_MARGIN) / 10, text


# -------------------------------------------------------- lnq-deriv corners

def test_lnq_deriv_nonpositive_z0_refused():
    with pytest.raises(DomainError):
        c_lnq("sqrt(2)", "0")
    with pytest.raises(DomainError):
        c_lnq("sqrt(2)", "-3")


def test_lnq_deriv_base_one_guard():
    # z0 = 1 gives 1^(-q) = 1 for every q; the power-form argument would
    # violate its base-not-one hypothesis here
    res = c_lnq("sqrt(2)", "1")
    assert res.verdict is R and res.exact_value == Rational(1)


def test_lnq_deriv_integer_q_exact_power():
    res = c_lnq("2", "3")
    assert res.verdict is R and res.exact_value == Rational(1, 9)
    res = c_lnq("-2", "5")
    assert res.verdict is R and res.exact_value == Rational(25)
    res = c_lnq("0", "7/2")
    assert res.verdict is R and res.exact_value == Rational(1)


# Python caps int <-> str conversions at sys.get_int_max_str_digits() digits
# (4300 by default); 0, or a Python without the function, means no cap
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT,
                                       reason="no int-string digit limit")


@needs_digit_limit
@pytest.mark.parametrize("q", ["20000", "-20000", "1000000"])
def test_lnq_deriv_power_past_the_digit_limit_is_malformed(q):
    # z0^(-q) would have too many digits to render: refused before the power.
    # Keep q small enough that computing the power stays cheap where it is not
    # refused: the power of a 13-digit q would need terabytes.
    with pytest.raises(MalformedInputError, match="digits"):
        c_lnq(q, "3/2")


@needs_digit_limit
def test_lnq_deriv_power_at_the_digit_limit_is_exact():
    # 10^k has k + 1 digits: exactly the limit is rendered, one more refused
    k = DIGIT_LIMIT - 1
    for q in (-k, k):
        res = c_lnq(str(q), "10")
        assert res.exact_value == Rational(Fraction(10) ** -q)
        assert len(render_exact(res.exact_value)) in (DIGIT_LIMIT, DIGIT_LIMIT + 2)
    with pytest.raises(MalformedInputError):
        c_lnq(str(-DIGIT_LIMIT), "10")


@needs_digit_limit
def test_wq_closed_form_past_the_digit_limit_is_malformed():
    # W_2(z) = z/(1+z) has terms of twice the operands' digits
    sevens = "7" * (DIGIT_LIMIT // 2 + 100)
    with pytest.raises(MalformedInputError, match="limit"):
        c_wq("2", f"{sevens}+{sevens}*sqrt(2)")


def test_lnq_deriv_noninteger_rational_q_unknown():
    assert c_lnq("3/2", "2").rule is Rule.GUARD_FALLTHROUGH


def test_lnq_deriv_surd_z0_same_field():
    res = c_lnq("sqrt(2)", "1+sqrt(2)")
    assert res.verdict is T and res.rule is Rule.THEOREM_4


# ------------------------------------------------------------ tower corners

def test_tower_nonnegative_integers_unknown():
    assert c_tower("0").rule is Rule.GUARD_FALLTHROUGH
    assert c_tower("1").rule is Rule.GUARD_FALLTHROUGH
    assert c_tower("3").rule is Rule.GUARD_FALLTHROUGH


def test_tower_negative_refused():
    with pytest.raises(DomainError):
        c_tower("-1")
    with pytest.raises(DomainError):
        c_tower("-1/2")
    with pytest.raises(DomainError):
        c_tower("-sqrt(2)")


def test_tower_surd_and_named_unknown():
    assert c_tower("sqrt(2)").rule is Rule.GUARD_FALLTHROUGH
    assert c_tower("pi").rule is Rule.GUARD_FALLTHROUGH


# -------------------------------------------- exact vs numeric consistency

def test_exact_values_match_numeric_layer():
    pairs = [
        (c_wq("2", "1"), wq(2.0, 1.0).w),
        (c_wq("2", "sqrt(2)"), wq(2.0, math.sqrt(2.0)).w),
        (c_expq("1+sqrt(2)", "1"), exp_q(1.0 + math.sqrt(2.0), 1.0)),
        (c_lnq("3", "2"), dlnq_dz(3.0, 2.0)),
        (c_lnq("sqrt(2)", "1"), dlnq_dz(math.sqrt(2.0), 1.0)),
        (c_expq("7/3", "0"), exp_q(7.0 / 3.0, 0.0)),
    ]
    for res, numeric in pairs:
        assert res.exact_value is not None
        assert abs(to_real(res.exact_value) - numeric) <= 1e-10


def test_to_record_shape():
    rec = c_wq("2", "sqrt(2)").to_record()
    assert rec["verdict"] == "algebraic_irrational"
    assert rec["rule"] == "closed_form_q2"
    assert rec["exact_value"] == "2-sqrt(2)"
    assert isinstance(rec["justification"], str) and rec["justification"]
    rec = c_wq("4/3", "2").to_record()
    assert rec["verdict"] == "unknown"
    assert rec["exact_value"] is None


def test_justifications_name_the_inputs():
    res = c_wq("sqrt(3)", "5/7")
    assert "sqrt(3)" in res.justification
    assert "5/7" in res.justification
    assert render_exact(parse_exact("sqrt(3)")) == "sqrt(3)"


def test_classify_checks_each_operand_once(monkeypatch):
    # a classify_* checks its two operands at its entry; the field
    # operations, sign, render_exact and to_real it calls check nothing again
    check, calls = exact._check, []

    def counting(x):
        calls.append(x)
        return check(x)

    monkeypatch.setattr(exact, "_check", counting)
    monkeypatch.setattr(classify, "_check", counting)
    q = parse_exact("sqrt(2)")
    for fn, z, rule in ((classify_expq, Rational(3, 7), Rule.THEOREM_2),
                        (classify_wq, Rational(-1, 4), Rule.THEOREM_3)):
        calls.clear()
        assert fn(q, z).rule is rule
        assert calls == [q, z]


def test_wq_below_the_branch_point_of_a_deeply_cancelling_q_is_a_domain_error():
    # q = a - b*sqrt(2) = 1.39e-30 with a*a - 2*b*b = 1: its z_b is about
    # -0.25 - 1.1e-31, so z = -0.25 - 1e-11 has no real W_q(z); a to_real(q)
    # of 1.7e-10 put the double z_b below z and gave Theorem 3
    q = parse_exact("359313438791966819268004696899-254072969141257218722003304910*sqrt(2)")
    with pytest.raises(DomainError, match="below the branch point z_b = -0.25 "):
        classify_wq(q, parse_exact("-25000000001/100000000000"))


@pytest.mark.parametrize("q, z", [
    ("sqrt(10000019)", "1/1048583*sqrt(10995283969889849891)"),
    ("1+sqrt(1048589)", f"sqrt({1048583 ** 2 * 1048589})"),
])
def test_expq_operands_whose_radicands_name_one_field_classify(q, z):
    # sqrt(1048583**2 * r) stays unsplit (1048583 is a prime above 2**20)
    # yet is 1048583*sqrt(r): one field, so the bracket is decided exactly,
    # 1 + sqrt(r) - r < 0 and 1 - 1048583 r < 0
    res = c_expq(q, z)
    assert (res.verdict, res.rule, res.exact_value) == (R, Rule.CUTOFF_ZERO, Rational(0))


# ------------------------------------------------- guards as integer signs

BIG = 10 ** 50
# (q, z, bracket sign); None where q and z lie in two fields
BRACKET_CORPUS = [
    # one field under two radicands: 1048583 and 1048589 are primes above
    # 2**20, so sqrt(1048583**2 * 1048589) stays unsplit and _field_pair
    # rewrites the larger radicand into the smaller one, either way round
    ("1+sqrt(1048589)", f"sqrt({1048583 ** 2 * 1048589})", -1),
    (f"sqrt({1048583 ** 2 * 1048589})", "1+sqrt(1048589)", -1),
    # sqrt(8) and 3-2*sqrt(18) parse to the radicand 2
    ("sqrt(2)", "sqrt(8)", -1),
    ("sqrt(2)", "3-2*sqrt(18)", 1),
    ("3-2*sqrt(18)", "sqrt(2)", 1),
    ("sqrt(8)", "3-2*sqrt(18)", 1),
    # 1 + (1 - 1 - sqrt(2)) sqrt(2)/2 = 0 exactly
    ("1+sqrt(2)", "1/2*sqrt(2)", 0),
    # 50-digit rationals: 1 + (1-q) z with 1-q = -1/BIG and z = BIG, BIG+1
    (f"{BIG + 1}/{BIG}", f"{BIG}", 0),
    (f"{BIG + 1}/{BIG}", f"{BIG + 1}", -1),
    (f"{BIG // 3}/7", f"-{BIG - 1}/{BIG // 9}", 1),
    (f"-{BIG // 7}+1/{BIG}*sqrt(5)", f"1/{BIG // 3}-sqrt(5)", -1),
    ("1/2", "3", 1),
    ("3", "1/2", 0),
    ("sqrt(2)", "sqrt(3)", None),
    ("sqrt(3)", "1+sqrt(2)", None),
    (f"sqrt({1048583 ** 2 * 1048589})", "sqrt(2)", None),
]


def record_bracket_sign(q, z):
    """The sign of 1 + (1-q) z through the field operations' records."""
    try:
        return exact.sign(exact.add(exact.ONE, exact.mul(exact.sub(exact.ONE, q), z)))
    except UnsupportedFieldError:
        return None


@pytest.mark.parametrize("q, z, expected", BRACKET_CORPUS)
def test_bracket_sign_equals_the_records_sign(q, z, expected):
    q, z = parse_exact(q), parse_exact(z)
    assert classify._bracket_sign_algebraic(q, z) == record_bracket_sign(q, z) == expected


same_field_parts = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                max_denominator=10 ** 6) | st.builds(
    Fraction, st.integers(-10 ** 50, 10 ** 50), st.integers(1, 10 ** 50))
# square roots parsed once: splitting 1048583**2 * 1048589 takes 0.1 s
ROOTS = [parse_exact(f"sqrt({d})") for d in (2, 3, 8, 12, 1048589, 1048583 ** 2 * 1048589)]


@given(qa=same_field_parts, qb=same_field_parts, za=same_field_parts, zb=same_field_parts,
       qr=st.sampled_from(ROOTS), zr=st.sampled_from(ROOTS))
def test_bracket_sign_equals_the_records_sign_property(qa, qb, za, zb, qr, zr):
    # the pairs of roots name one field or two; a zero b makes a Rational
    q = exact.add(Rational(qa), exact.mul(Rational(qb), qr))
    z = exact.add(Rational(za), exact.mul(Rational(zb), zr))
    assert classify._bracket_sign_algebraic(q, z) == record_bracket_sign(q, z)


def test_surd_guards_build_no_intermediate_record(monkeypatch):
    # the bracket of classify_expq and q < 2 of classify_wq are each one
    # integer sign: no field operation runs on a same-field pair
    def refuse(*args):
        raise AssertionError("a field operation ran")

    for name in ("add", "sub", "mul"):
        monkeypatch.setattr(classify, name, refuse)
    for q, z, rule in [("sqrt(2)", "3-2*sqrt(2)", Rule.THEOREM_2),
                       ("1+sqrt(2)", "1", Rule.CUTOFF_ZERO),
                       ("1+sqrt(2)", "1/2*sqrt(2)", Rule.GUARD_FALLTHROUGH),
                       ("sqrt(2)", "sqrt(3)", Rule.GUARD_FALLTHROUGH)]:
        assert c_expq(q, z).rule is rule, (q, z)
    # q > 2 with z < 0: the q < 2 test ends the z_b guard
    assert c_wq("2+sqrt(2)", "-1/4").rule is Rule.THEOREM_3
