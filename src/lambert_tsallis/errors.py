"""Exception hierarchy shared by every module in the package.

An error raised with one argument carries its text.  One raised as
Error(template, *values) keeps the values in args and builds its text,
template % values, only when it is read, as logging does: the refusals of
wq, dwq_dz and ln_q name doubles with repr, which costs microseconds at a
three-digit exponent, and a caller that only catches the type never reads
the text, as the classifiers do with exact's mixed-field refusal.  Both
kinds pickle with their text and attributes."""

from __future__ import annotations

__all__ = [
    "LambertTsallisError",
    "MalformedInputError",
    "UnsupportedFieldError",
    "UnsupportedOperandError",
    "DomainError",
    "NoBranchPointError",
    "DerivativeSingularError",
    "ConvergenceError",
    "ConfigurationError",
]


class LambertTsallisError(Exception):
    """Base class for every error raised by this package."""

    def __str__(self) -> str:
        args = self.args
        return args[0] % args[1:] if len(args) > 1 else super().__str__()


class MalformedInputError(LambertTsallisError, ValueError):
    """Structurally invalid input: zero denominator, negative radicand, bad text."""


class UnsupportedFieldError(LambertTsallisError, ValueError):
    """Arithmetic would have to mix two distinct quadratic fields."""


class UnsupportedOperandError(LambertTsallisError, TypeError):
    """Arithmetic or exact sign evaluation requested on an opaque constant."""


class DomainError(LambertTsallisError, ValueError):
    """Argument falls outside the mathematical domain of the operation."""


class NoBranchPointError(DomainError):
    """The requested branch or branch point does not exist for this q."""


class DerivativeSingularError(DomainError):
    """Derivative requested at the branch point, where it diverges."""


class ConvergenceError(LambertTsallisError, RuntimeError):
    """No double approximates the root: it lies next to the positivity wall
    or beyond the double range.  Carries the best iterate found, its
    relative residual |h| and the evaluations made."""

    def __init__(self, message: str, *values, best_w: float | None = None,
                 residual: float | None = None, iterations: int | None = None):
        # BaseException.__new__ has already kept message and values in args
        self.best_w = best_w
        self.residual = residual
        self.iterations = iterations


class ConfigurationError(LambertTsallisError, ValueError):
    """Requested options or bounds lie outside the supported range."""
