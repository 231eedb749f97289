"""Exception types shared across the package."""

import math
from numbers import Real


class SympectraError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SympectraError, ValueError):
    """Input violates a documented precondition (bad shape, sign, range)."""


class NumericalError(SympectraError, ArithmeticError):
    """A computation could not be completed or failed its own verification."""


def _check_tol(tol) -> None:
    """DomainError unless tol is a real number (a Python or numpy scalar,
    not an array or a string) with 0 < tol < inf; verdicts scale tol by a
    size.  Anything else is shown by its repr, so an array or a string
    does not read as a number."""
    if type(tol) is float and 0.0 < tol < math.inf:
        return
    if not (isinstance(tol, Real) and 0.0 < tol < math.inf):
        shown = tol if isinstance(tol, Real) else repr(tol)
        raise DomainError(f"tolerance must be positive and finite, got {shown}")
