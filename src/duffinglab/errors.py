"""Exception taxonomy.

Two broad families matter to callers: validation errors (bad configs, bad
inputs; CLI exit code 2) and numeric failures (an algorithm hit its stated
limits; CLI exit code 3, recorded in errors.json). Every exception carries an
optional ``details`` dict that the harness serializes verbatim.
"""
from __future__ import annotations


class DuffingLabError(Exception):
    """Base class for all package errors."""

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details


class SpecValidationError(DuffingLabError):
    """A function spec, system, or experiment config violates the grammar."""


class UnsupportedExponentError(SpecValidationError):
    """Antiderivative requested for an algebraic tail with exponent 1."""


class InadmissibleFunctionError(SpecValidationError):
    """A function shape is not allowed in the requested role."""


class DegenerateStateError(SpecValidationError):
    """A phase-space input where the requested chart is singular (origin)."""


class NumericFailureError(DuffingLabError):
    """Base class for algorithmic failures (exit code 3)."""


class PrecisionFailureError(NumericFailureError):
    """A quadrature or cross-check could not reach its tolerance."""


class SolverFailureError(NumericFailureError):
    """An iteration or root solve did not converge."""


class StiffnessFailureError(NumericFailureError):
    """Adaptive step size underflowed."""


class ArithmeticFailureError(NumericFailureError):
    """Floating-point arithmetic overflowed or divided by zero."""


class AmplitudeTooLargeError(NumericFailureError):
    """Oscillation amplitude beyond the supported quadrature range."""


class HTooSmallError(NumericFailureError):
    """Energy below the range where an averaged term is defined."""


class FitDegenerateError(NumericFailureError):
    """Not enough usable data to fit a decay law."""
