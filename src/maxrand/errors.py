"""Exception types shared across the package."""

__all__ = ["MaxrandError", "DomainError", "FeasibilityError", "ConvergenceError"]


class MaxrandError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(MaxrandError, ValueError):
    """A parameter or input violates an operation's preconditions."""


class FeasibilityError(MaxrandError, RuntimeError):
    """A request is valid but too large to compute exactly."""


class ConvergenceError(MaxrandError, ArithmeticError):
    """An iterative numerical routine ran out of iterations."""
