"""Exception types shared across the package.

All errors derive from SigmakLabError. The numeric ones double as
ValueError/RuntimeError so generic callers can catch the builtin types.
"""

import sys
from numbers import Integral

__all__ = ["SigmakLabError", "ConfigError", "PositivityError", "DomainError", "PoleError",
           "ConeDomainError", "ConeBoundaryError", "StepUnderflowError", "NewtonError",
           "PathError"]


class SigmakLabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(SigmakLabError, ValueError):
    """Invalid user-facing configuration (CLI flags, spec fields)."""


def check_positive(name: str, value) -> None:
    """ConfigError unless 0 < value <= the largest float (nan fails both
    comparisons; an int too large to convert to a float fails the second)."""
    if not 0.0 < value <= sys.float_info.max:
        raise ConfigError(f"{name}={value!r} must be positive and finite")


def check_nk(n: int, k: int) -> None:
    """ConfigError unless n and k are integers (not bools), n >= 3 and 1 <= k <= n."""
    for name, value in (("dimension n", n), ("cone index k", k)):
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if n < 3:
        raise ConfigError(f"dimension n={n} must be >= 3")
    if not 1 <= k <= n:
        raise ConfigError(f"cone index k={k} outside 1..{n}")


class PositivityError(SigmakLabError, ValueError):
    """A quantity that must stay strictly positive failed to."""

    def __init__(self, message, where=None, value=None):
        super().__init__(message)
        self.where = where
        self.value = value


class DomainError(SigmakLabError, ValueError):
    """Evaluation requested outside a field's declared domain."""


class PoleError(DomainError):
    """Evaluation at the pole of an inversion."""


class ConeDomainError(SigmakLabError, ValueError):
    """Argument left the admissible cone. Carries the offending margin."""

    def __init__(self, message, margin=None, where=None):
        super().__init__(message)
        self.margin = margin
        self.where = where


class ConeBoundaryError(SigmakLabError, RuntimeError):
    """Integration or iteration ran into the cone boundary."""

    def __init__(self, message, r=None, margin=None):
        super().__init__(message)
        self.r = r
        self.margin = margin


class StepUnderflowError(SigmakLabError, RuntimeError):
    """Adaptive step size shrank below the representable floor, or the
    integration ran out of its step budget."""

    def __init__(self, message, r=None):
        super().__init__(message)
        self.r = r


class NewtonError(SigmakLabError, RuntimeError):
    """Newton iteration failed (max iterations, no admissible step, singular system)."""

    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class PathError(SigmakLabError, RuntimeError):
    """Homotopy path could not be continued to t = 1."""

    def __init__(self, message, last_good_t=None, trace=None):
        super().__init__(message)
        self.last_good_t = last_good_t
        self.trace = trace
