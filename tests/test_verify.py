"""Cross-check harness: scan determinism and hits, residual/derivative
helpers, branch-point reports, suite wiring."""

import math
import subprocess
import sys

import pytest

from lambert_tsallis.errors import ConfigurationError, NoBranchPointError
from lambert_tsallis.verify import (BRANCH_POINT_Q_GRID, EQ5_Q_GRID,
                                    RESIDUAL_Q_GRID, algebraicity_scan,
                                    branch_point_check, check_derivative_fd,
                                    eq5_residual, residual_defining_eq,
                                    run_all, run_branch_suite,
                                    run_derivative_suite, run_eq5_suite,
                                    run_residual_suite, run_scan_suite)
from lambert_tsallis.wq import Branch, wq

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


def test_branch_point_check_delta_guard():
    with pytest.raises(ConfigurationError):
        branch_point_check(1.0, delta=-1e-3)
    # q = 0: wall at -1, w_b = -0.5; delta reaching past the wall is refused
    with pytest.raises(ConfigurationError):
        branch_point_check(0.0, delta=0.6)


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
    # only algebraicity_scan needs numpy, which dominates the import time
    code = "import sys, lambert_tsallis; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
