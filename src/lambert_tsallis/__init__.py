"""Deformed exponentials, their Lambert-style inverse, and exact
arithmetic-nature classification.

Numeric layer: `exp_q` / `ln_q` evaluate the one-parameter deformation of
exp and log (parameter q, classical limit q = 1), `wq` inverts
w * exp_q(w) = z on its real branches and reports the relative residual of
its solve, and `dwq_dz` gives the closed-form derivative.

Exact layer: `parse_exact` builds exact operands (rationals, quadratic
surds, the named constants e and pi) and the `classify_*` functions return
a verdict (rational / algebraic irrational / transcendental / unknown)
with the rule that produced it.  Verdicts come from exact arithmetic, but
for one guard: `classify_wq` compares z with the double branch point z_b.

`verify` holds independent numerical cross-checks; the same suites back
the `lambert-tsallis verify` CLI command.
"""

from .classify import (Classification, Rule, classify_expq,
                       classify_lnq_derivative, classify_tower, classify_wq)
from .errors import (ConfigurationError, ConvergenceError,
                     DerivativeSingularError, DomainError,
                     LambertTsallisError, MalformedInputError,
                     NoBranchPointError, UnsupportedFieldError,
                     UnsupportedOperandError)
from .exact import (ArithmeticClass, Constant, NamedTranscendental, QuadSurd,
                    Rational, add, classify_number, div, is_algebraic, mul,
                    neg, normalize, parse_exact, rational, render_exact, sign,
                    sub, surd, to_real)
from .qexp import dlnq_dz, exp_q, ln_q, positivity_domain
from .verify import (BranchPointReport, CheckResult, ScanReport,
                     algebraicity_scan, branch_point_check,
                     check_derivative_fd, eq5_residual, residual_defining_eq,
                     run_all, run_branch_suite, run_derivative_suite,
                     run_eq5_suite, run_residual_suite, run_scan_suite)
from .wq import (Branch, BranchPoint, Interval, SolveResult, branch_domain,
                 branch_point, dwq_dz, wq, wq_closed_form)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact numbers
    "ArithmeticClass", "Constant", "Rational", "QuadSurd",
    "NamedTranscendental", "rational", "surd", "normalize", "add", "sub",
    "neg", "mul", "div", "sign", "classify_number", "is_algebraic", "to_real",
    "parse_exact", "render_exact",
    # deformed exponential
    "exp_q", "ln_q", "dlnq_dz", "positivity_domain",
    # inverse function
    "Branch", "BranchPoint", "Interval", "SolveResult", "wq", "dwq_dz",
    "branch_point", "branch_domain", "wq_closed_form",
    # classification
    "Classification", "Rule", "classify_expq", "classify_wq",
    "classify_lnq_derivative", "classify_tower",
    # verification
    "CheckResult", "BranchPointReport", "ScanReport", "residual_defining_eq",
    "check_derivative_fd", "eq5_residual", "branch_point_check",
    "algebraicity_scan", "run_residual_suite", "run_derivative_suite",
    "run_eq5_suite", "run_branch_suite", "run_scan_suite", "run_all",
    # errors
    "LambertTsallisError", "MalformedInputError", "UnsupportedFieldError",
    "UnsupportedOperandError", "DomainError", "NoBranchPointError",
    "DerivativeSingularError", "ConvergenceError", "ConfigurationError",
]
