"""Exception types shared across the package."""


class SympectraError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SympectraError, ValueError):
    """Input violates a documented precondition (bad shape, sign, range)."""


class NumericalError(SympectraError, ArithmeticError):
    """A computation could not be completed or failed its own verification."""


def _check_tol(tol) -> None:
    """DomainError unless 0 < tol < inf; verdicts scale tol by a size."""
    if not 0.0 < tol < float("inf"):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
