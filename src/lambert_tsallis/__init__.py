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
submodule itself.  The module `__getattr__` (PEP 562) then imports the
submodule that the table `_LAYER_OF` gives for that name and binds that one
name here; `cli` binds its own lazy names through the same loader and
table.  `from lambert_tsallis import *` loads them all.
"""

import functools
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
_LAYER_OF["_SUITES"] = "verify"  # verify's suites by --suite name, which cli binds


def _bind(namespace: dict[str, object], names: dict[str, str] | tuple[str, ...],
          name: str) -> object:
    """The PEP 562 hook of a module whose lazy names are names: import the
    layer _LAYER_OF gives for name, bind that one name in namespace (a
    layer's own name binds the layer) and return its object.  A name
    already bound keeps its object."""
    if name not in names:
        raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
    layer = _LAYER_OF[name]
    module = importlib.import_module(f".{layer}", __name__)
    return namespace.setdefault(name, module if name == layer else getattr(module, name))


def _names() -> list[str]:
    return sorted({*globals(), *_LAYER_OF})


# PEP 562 hooks, which the interpreter calls for a name not bound here and
# for dir(); no module calls them by name
__getattr__, __dir__ = functools.partial(_bind, globals(), _LAYER_OF), _names
