"""Cross-check harness: scan determinism and hits, residual/derivative
helpers, branch-point reports, suite wiring."""

import bisect
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import lambert_tsallis
from lambert_tsallis import verify
from lambert_tsallis.errors import ConfigurationError, NoBranchPointError
from lambert_tsallis.qexp import exp_q, positivity_domain
from lambert_tsallis.verify import (BRANCH_POINT_Q_GRID, EQ5_Q_GRID,
                                    RESIDUAL_Q_GRID, ScanReport,
                                    algebraicity_scan,
                                    branch_point_check, check_derivative_fd,
                                    eq5_residual, residual_defining_eq,
                                    run_all, run_branch_suite,
                                    run_derivative_suite, run_eq5_suite,
                                    run_residual_suite, run_scan_suite)
from lambert_tsallis.wq import Branch, branch_point, dwq_dz, wq

OMEGA = 0.5671432904097838


# ------------------------------------------------------------------- scan

def test_scan_finds_minimal_poly_of_half():
    rep = algebraicity_scan(0.5, 1, 2)
    assert rep.hit
    assert rep.best_poly == (2, -1)
    assert rep.best_abs_value == 0.0


def test_scan_finds_minimal_poly_of_sqrt2():
    rep = algebraicity_scan(math.sqrt(2.0), 2, 2)
    assert rep.hit
    assert rep.best_poly == (1, 0, -2)
    assert rep.best_abs_value < 1e-15


def test_scan_prefers_lowest_degree_on_ties():
    # x = 1 is annihilated by x - 1 (degree 1) and x^2 - 1 (degree 2);
    # enumeration order must report the degree-1 witness
    rep = algebraicity_scan(1.0, 2, 3)
    assert rep.best_poly == (1, -1)


def test_scan_tie_break_is_lexicographic():
    # x = 0: every polynomial with zero constant term evaluates to 0; the
    # first in enumeration order is x (leading 1, constant 0)
    rep = algebraicity_scan(0.0, 3, 5)
    assert rep.best_poly == (1, 0)


def test_scan_omega_has_no_small_polynomial():
    rep = algebraicity_scan(OMEGA, 3, 30, eps=1e-8)
    assert not rep.hit
    assert rep.best_abs_value > 1e-8


def test_scan_golden_ratio_degree_two():
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    rep = algebraicity_scan(phi, 2, 3)
    assert rep.hit
    assert rep.best_poly == (1, -1, -1)


def test_scan_respects_coefficient_bound():
    # 1/7 needs coefficient 7; with coeff_max 5 nothing annihilates it
    assert not algebraicity_scan(1.0 / 7.0, 1, 5, eps=1e-12).hit
    assert algebraicity_scan(1.0 / 7.0, 1, 7, eps=1e-12).hit


def brute_force_scan(x, degree_max, coeff_max, eps=1e-8):
    """Reference scan: every polynomial in enumeration order (degree
    ascending, then lexicographic, leading coefficient first) evaluated by
    Horner; the first strict minimum wins."""
    best, best_poly = math.inf, ()
    box = range(-coeff_max, coeff_max + 1)
    for deg in range(degree_max + 1):
        for poly in itertools.product(range(1, coeff_max + 1), *[box] * deg):
            value = poly[0]
            for c in poly[1:]:
                value = value * x + c
            if abs(float(value)) < best:
                best, best_poly = abs(float(value)), poly
    return ScanReport(target=x, degree_max=degree_max, coeff_max=coeff_max,
                      best_poly=best_poly, best_abs_value=best, hit=best < eps)


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_RNG = random.Random(20240613)
SCAN_TARGETS = (
    # exact zeros and rounding-level ties among many polynomials
    [0.0, 1.0, -1.0, 0.5, 2.0 / 3.0, 1.0 / 7.0, math.sqrt(2.0), -math.sqrt(2.0), _PHI,
     1.0 - _PHI]
    + [_RNG.uniform(-3.0, 3.0) for _ in range(8)]
    # powers underflow to zero or to subnormals
    + [1e-300, -1e-300, 5e-324, 1e-160]
    # |x| = 2C + 2 on either side for C = 1..3, and high powers overflowing
    + [4.0, -6.0, 8.0, 8.5, -9.0, 1e100, -1e100, 1e154]
)


@pytest.mark.parametrize("x", SCAN_TARGETS)
def test_scan_matches_brute_force(x):
    for degree_max in range(1, 5):
        for coeff_max in range(1, 4):
            rep = algebraicity_scan(x, degree_max, coeff_max)
            ref = brute_force_scan(x, degree_max, coeff_max)
            assert rep == ref, (degree_max, coeff_max)
            assert rep.best_abs_value.hex() == ref.best_abs_value.hex()


@pytest.mark.parametrize("x, degree_max, coeff_max", [
    (8.0 / 3.0, 3, 5),            # equal values at different split sums
    (-math.sqrt(2.0), 3, 5),      # minimizers off the nearest split sum
    (-math.sqrt(2.0), 4, 5),
    (math.sqrt(3.0), 3, 10),
])
def test_scan_matches_brute_force_on_wider_boxes(x, degree_max, coeff_max):
    rep = algebraicity_scan(x, degree_max, coeff_max)
    ref = brute_force_scan(x, degree_max, coeff_max)
    assert rep == ref
    assert rep.best_abs_value.hex() == ref.best_abs_value.hex()


def test_scan_omega_degree_four_is_pinned():
    rep = algebraicity_scan(OMEGA, 4, 30)
    assert rep.best_poly == (23, -16, 22, -8, -2)
    assert rep.best_abs_value == 2.4389017250214806e-08
    assert not rep.hit


# degree 4 at C = 4..6, past SCAN_TARGETS' boxes.  An integer x puts frac(t)
# at 0 for every head, so every residue window wraps past 0 and 1, as some
# do at 2.5, 1.75, 1/7 and phi.  At 0.1 and -1/8 the first heads' windows
# span a large part of a period, so those heads bisect once per last
# coefficient, as every head does where x^2 is subnormal (1e-160) or zero
# (1e-300, 5e-324)
@pytest.mark.parametrize("x", [7.0, -9.0, 2.5, 1.75, 1.0 / 7.0, _PHI, 0.1, -0.125, OMEGA,
                               1e-160, 1e-300, 5e-324])
def test_scan_degree_four_matches_brute_force(x):
    for coeff_max in range(4, 7):
        rep = algebraicity_scan(x, 4, coeff_max)
        ref = brute_force_scan(x, 4, coeff_max)
        assert rep == ref, coeff_max
        assert rep.best_abs_value.hex() == ref.best_abs_value.hex()


def test_scan_degree_four_makes_one_lookup_per_head(monkeypatch):
    # 1 + 30 + 30 * 61 = 1 861 heads (the upper part without its last
    # coefficient); one bisection per upper part made 113 490
    calls = []

    def counted(*args):
        calls.append(args)
        return bisect.bisect_left(*args)

    monkeypatch.setattr(verify, "bisect_left", counted)
    rep = algebraicity_scan(OMEGA, 4, 30)
    assert rep.best_poly == (23, -16, 22, -8, -2)
    assert 1861 <= len(calls) <= 1900


def test_scan_omega_degree_four_coeff_100_is_pinned():
    # a pigeonhole artefact of the double Horner value (ROADMAP item 10)
    rep = algebraicity_scan(OMEGA, 4, 100)
    assert rep.best_poly == (22, -59, -59, -75, 70)
    assert rep.best_abs_value == 2.8191493584017735e-10


@pytest.mark.parametrize("args", [
    (0.5, 2.5, 2), (0.5, 2, 2.5), (0.5, True, 2), (0.5, 2, True),
    ("0.5", 2, 2), (10**400, 2, 2), (None, 2, 2), (1j, 2, 2),
    (0.5, 2, 2, "1e-8"), (0.5, 2, 2, True),
])
def test_scan_arguments_of_the_wrong_type_are_refused(args):
    with pytest.raises(ConfigurationError):
        algebraicity_scan(*args)


def test_scan_takes_other_number_types():
    assert algebraicity_scan(Fraction(1, 2), 1, 2) == algebraicity_scan(0.5, 1, 2)
    rep = algebraicity_scan(1, 1, 2, eps=Fraction(1, 10))
    assert rep.target == 1.0 and rep.target.__class__ is float and rep.hit


def test_scan_configuration_bounds():
    with pytest.raises(ConfigurationError):
        algebraicity_scan(0.5, 0, 2)
    with pytest.raises(ConfigurationError):
        algebraicity_scan(0.5, 5, 2)
    with pytest.raises(ConfigurationError):
        algebraicity_scan(0.5, 2, 0)
    with pytest.raises(ConfigurationError):
        algebraicity_scan(0.5, 2, 101)
    with pytest.raises(ConfigurationError):
        algebraicity_scan(0.5, 2, 2, eps=0.0)
    with pytest.raises(ConfigurationError):
        algebraicity_scan(float("inf"), 2, 2)


def test_scan_report_records_inputs():
    rep = algebraicity_scan(0.25, 2, 4, eps=1e-10)
    assert rep.target == 0.25
    assert rep.degree_max == 2 and rep.coeff_max == 4
    assert rep.hit and rep.best_poly == (4, -1)


# ------------------------------------------------------------ point checks

def test_residual_helper_scales():
    for q in RESIDUAL_Q_GRID:
        assert residual_defining_eq(q, 1.0) <= 1e-10


def test_derivative_fd_helper():
    assert check_derivative_fd(1.0, 1.0) <= 1e-6
    assert check_derivative_fd(1.5, 2.0, Branch.UPPER) <= 1e-6
    assert check_derivative_fd(1.0, -0.2, Branch.LOWER) <= 1e-6


def test_eq5_residual_small_on_grid():
    for q in EQ5_Q_GRID:
        assert eq5_residual(q) <= 1e-11


def test_branch_point_check_passes_on_grid():
    for q in BRANCH_POINT_Q_GRID:
        rep = branch_point_check(q)
        assert rep.passed
        assert rep.consistency <= 1e-12
        assert rep.is_minimum and rep.tangent_growth


def test_branch_point_check_refuses_q_at_least_two():
    for q in (2.0, 2.5):
        with pytest.raises(NoBranchPointError):
            branch_point_check(q)


@pytest.mark.parametrize("q", [-1000.0, -200.0, -99.0])
def test_branch_point_check_passes_next_to_the_wall(monkeypatch, q):
    # w_b lies within 1e-4 of the wall 1/(q-1) here; delta shrinks so that
    # f is sampled inside the positivity domain, where exp_q is not cut off
    sampled = []

    def recording(q_, w):
        sampled.append(w)
        return exp_q(q_, w)

    monkeypatch.setattr(verify, "exp_q", recording)
    assert branch_point_check(q).passed
    assert len(sampled) == 3 and all(positivity_domain(q).contains(w) for w in sampled)


@pytest.mark.parametrize("q", [-1e15, -3e15, -2e16, -1e17, -1e100, -1.7e308])
def test_branch_point_check_below_q_minus_1e15(monkeypatch, q):
    # z_b + delta/10 rounded to z_b here, so dwq_dz raised
    # DerivativeSingularError; the z-side step is now at least 20 ulp of z_b.
    # From q = -1e17 on, 1 + (1-q) w_b rounds to the cutoff, and the tangent
    # solves, which start at w_b, raised ConvergenceError.
    # passed is not asserted: f's minimum over w_b +- delta lies within an
    # ulp of z_b at these q.  Consistency is relative to |z_b|, about 1/|q|: at
    # -2e16 exp_q(w_b) cuts off to 0.0 and misses all of z_b, which the
    # absolute bound |w_b exp_q(w_b) - z_b| <= 1e-12 read as consistent
    sampled = []

    def recording(q_, z, *args, **kwargs):
        sampled.append(z)
        return dwq_dz(q_, z, *args, **kwargs)

    monkeypatch.setattr(verify, "dwq_dz", recording)
    report = branch_point_check(q)
    bp = branch_point(q)
    assert (report.q, report.z_b, report.w_b) == (q, bp.z_b, bp.w_b)
    assert (report.consistency <= 1e-12) == (q > -1e16)
    assert len(sampled) == 2 and sampled[0] > sampled[1] > bp.z_b


# ------------------------------------------------------------------ suites

def test_all_suites_pass():
    checks = run_all()
    failed = [c for c in checks if not c.passed]
    assert not failed, f"failed checks: {[c.name for c in failed]}"


def test_suite_composition():
    assert len(run_eq5_suite()) == len(EQ5_Q_GRID)
    assert len(run_scan_suite()) == 3
    # residual/derivative suites: one upper check per q, lower only below 2
    n_lower = sum(1 for q in RESIDUAL_Q_GRID if q < 2.0)
    assert len(run_residual_suite()) == len(RESIDUAL_Q_GRID) + n_lower
    assert len(run_derivative_suite()) == len(RESIDUAL_Q_GRID) + n_lower


def test_the_q2_lower_refusal_check_fails_when_wq_answers(monkeypatch):
    # a planted fault: wq answers the lower branch at q = 2, which has none
    def answering(q, z, branch=Branch.UPPER):
        if (q, z, Branch(branch)) == (2.0, -0.5, Branch.LOWER):
            return wq(q, z)
        return wq(q, z, branch)

    monkeypatch.setattr(verify, "wq", answering)
    check, = [c for c in run_branch_suite() if c.name == "lower-refused q=2"]
    assert (check.passed, check.measured) == (False, 1.0)


def test_scan_suite_flags_are_honored():
    checks = run_scan_suite(degree_max=2, coeff_max=10, eps=1e-6)
    names = [c.name for c in checks]
    assert any("deg<=2" in n and "coeff<=10" in n for n in names)


def test_check_names_are_unique():
    names = [c.name for c in run_all()]
    assert len(names) == len(set(names))


def test_solver_and_oracle_agree_at_classical_point():
    # independent re-derivation of the pinned W(1) constant used around the
    # test suite: 200 plain bisection steps on [0, 1]
    lo, hi = 0.0, 1.0
    f = lambda w: w * math.exp(w) - 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - OMEGA) < 1e-15
    assert abs(wq(1.0, 1.0).w - OMEGA) <= 1e-12


def test_package_import_leaves_numpy_unloaded():
    # the package has no runtime dependencies; numpy, if installed, would
    # dominate the import time
    code = "import sys, lambert_tsallis; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # every record is a named tuple; dataclasses, with the inspect module it
    # imports, would add about 9 ms to each cold start.  -I ignores
    # PYTHONPATH, so the child is pointed at this package's source
    src = os.path.dirname(os.path.dirname(lambert_tsallis.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import lambert_tsallis.cli; "
            "print(lambert_tsallis.__file__); "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.splitlines() == [lambert_tsallis.__file__, "[]"]


def test_verify_runs_with_numpy_blocked():
    code = ("import sys\n"
            "sys.modules['numpy'] = None  # any import of numpy now fails\n"
            "from lambert_tsallis import cli\n"
            "assert cli.main(['verify', '--suite', 'all']) == 0\n"
            "assert cli.main(['verify', '--suite', 'scan', '--degree-max', '4']) == 0\n")
    subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                   check=True)
