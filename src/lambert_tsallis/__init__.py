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

What loads when: `import lambert_tsallis` loads the numeric layer (`errors`,
`qexp`, `wq`) and nothing else.  The exact layer (`exact`, then `classify`)
and `verify` load at the first read of one of their names, or of the
submodule itself, through the module `__getattr__` (PEP 562), which binds
every name of that submodule here; `from lambert_tsallis import *` loads
them all.
"""

import importlib

from .errors import (ConfigurationError, ConvergenceError,
                     DerivativeSingularError, DomainError,
                     LambertTsallisError, MalformedInputError,
                     NoBranchPointError, UnsupportedFieldError,
                     UnsupportedOperandError)
from .qexp import dlnq_dz, exp_q, ln_q, positivity_domain
from .wq import (Branch, BranchPoint, Interval, SolveResult, branch_domain,
                 branch_point, dwq_dz, wq, wq_closed_form)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # exact numbers
    "ArithmeticClass", "Constant", "Rational", "QuadSurd",
    "NamedTranscendental", "add", "sub", "neg", "mul", "div", "sign",
    "classify_number", "is_algebraic", "to_real", "parse_exact",
    "render_exact",
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

# the names each lazy layer binds here, from the submodule of its name
_LAYERS = {
    "exact": ("ArithmeticClass", "Constant", "NamedTranscendental", "QuadSurd",
              "Rational", "add", "classify_number", "div", "is_algebraic", "mul",
              "neg", "parse_exact", "render_exact", "sign", "sub", "to_real"),
    "classify": ("Classification", "Rule", "classify_expq",
                 "classify_lnq_derivative", "classify_tower", "classify_wq"),
    "verify": ("BranchPointReport", "CheckResult", "ScanReport",
               "algebraicity_scan", "branch_point_check", "check_derivative_fd",
               "eq5_residual", "residual_defining_eq", "run_all",
               "run_branch_suite", "run_derivative_suite", "run_eq5_suite",
               "run_residual_suite", "run_scan_suite"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in (layer, *names)}


def _load(name: str) -> object:
    """A lazy layer's name, or the layer itself: import the layer, bind its
    names here (a name already bound keeps its object) and return name's."""
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{layer}", __name__)
    namespace = globals()
    namespace.setdefault(layer, module)
    for key in _LAYERS[layer]:
        namespace.setdefault(key, getattr(module, key))
    return namespace[name]


def _names() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})


# PEP 562 hooks, which the interpreter calls for a name not bound here and
# for dir(); no module calls them by name
__getattr__, __dir__ = _load, _names
