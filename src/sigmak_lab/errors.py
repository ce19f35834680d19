"""Exception types shared across the package, the one home of each input check
(`check_positive`, `check_positive_value`, `check_nk`, `check_count`,
`_require_positive` and `_require_finite`) and of the float traps (`_FloatTraps`).
All errors derive from SigmakLabError; the numeric ones double as
ValueError/RuntimeError/ArithmeticError so generic callers can catch the builtin
types. An error class lists the context its errors carry in `_context`: each name
is a keyword of the constructor and an attribute of the error, None where the
raise does not give it.
"""

import math
import sys
from numbers import Integral

import numpy as np

__all__ = ["SigmakLabError", "ConfigError", "PositivityError", "PoleError", "FloatRangeError",
           "ConeDomainError", "ConeBoundaryError", "StepUnderflowError", "NewtonError",
           "PathError"]


class SigmakLabError(Exception):
    """Base class for every error raised by this package."""

    _context = ()

    def __init__(self, message, **context):
        unknown = context.keys() - self._context
        if unknown:
            raise TypeError(f"{type(self).__name__} got unexpected keyword "
                            f"arguments {sorted(unknown)}")
        super().__init__(message)
        for name in self._context:
            setattr(self, name, context.get(name))


class ConfigError(SigmakLabError, ValueError):
    """Invalid user-facing configuration (CLI flags, spec fields)."""


def check_positive(name: str, value) -> None:
    """ConfigError for a bool (Python's or numpy's) before any comparison, then
    unless 0 < value <= the largest float (nan fails both comparisons; an int
    too large to convert to a float fails the second)."""
    if isinstance(value, (bool, np.bool_)):
        raise ConfigError(f"{name}={value!r} must be a number, not a bool")
    if not 0.0 < value <= sys.float_info.max:
        raise ConfigError(f"{name}={value!r} must be positive and finite")


def check_nk(n: int, k: int) -> None:
    """ConfigError unless n and k are integers (not bools), n >= 3 and 1 <= k <= n."""
    check_count("dimension n", n, 3, math.inf)
    check_count("cone index k", k, 1, n)


def check_count(name: str, value, low: int, cap) -> None:
    """ConfigError unless value is an integer (not a bool) in low..cap; past cap
    the message names it. Sizes that reach numpy are checked against their caps
    before anything is allocated; cap is math.inf where there is none."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value < low:
        raise ConfigError(f"{name}={value!r} must be an integer >= {low}")
    if value > cap:
        raise ConfigError(f"{name}={value} exceeds its cap of {cap}")


class PositivityError(SigmakLabError, ValueError):
    """A quantity that must stay strictly positive failed to."""

    _context = ("where", "value")


def _require_positive(X, u):
    """u, once every entry is checked positive (nan fails); u's last axis runs over
    X's first, X (N, n) points, (N,) radii or (N,) names, and the error names the
    first bad one."""
    if not (u > 0.0).all():
        bad = np.flatnonzero(~(u > 0.0))[0]
        x, val = X[bad % len(X)], u.flat[bad]
        raise PositivityError(f"value {val} is not positive at {x}", where=x, value=val)
    return u


def check_positive_value(name: str, value) -> None:
    """PositivityError unless value > 0 (nan fails), then `check_positive`: a
    bool, checked first, or a value past the float range is a ConfigError."""
    if not isinstance(value, (bool, np.bool_)) and not value > 0.0:
        raise PositivityError(f"{name}={value!r} must be positive", value=value)
    check_positive(name, value)


class PoleError(SigmakLabError, ValueError):
    """Evaluation at the pole of an inversion, where no field is defined: a
    SigmakLabError and, as an input the field cannot take, a ValueError."""


class FloatRangeError(SigmakLabError, ArithmeticError):
    """A result left the float range: an overflow, or a value that is not
    finite where a finite one was due. Carries the offending point or input."""

    _context = ("where",)


class _FloatTraps:
    """`with _FloatTraps():` raises on an overflow, a division by zero or an
    invalid operation, and numpy's FloatingPointError leaves the block as
    FloatRangeError with numpy's message: the CLI's commands and the solvers
    a library caller reaches fail alike."""

    def __enter__(self):
        self._state = np.errstate(over="raise", divide="raise", invalid="raise")
        self._state.__enter__()

    def __exit__(self, kind, exc, tb):
        self._state.__exit__(kind, exc, tb)
        if isinstance(exc, FloatingPointError):
            raise FloatRangeError(str(exc)) from exc


def _require_finite(X, ok, what: str) -> None:
    """FloatRangeError naming the row of X (N, n) of the first False in ok (N,)."""
    if not ok.all():
        x = X[np.flatnonzero(~ok)[0]]
        raise FloatRangeError(f"{what} is not finite at {x}", where=x)


class ConeDomainError(SigmakLabError, ValueError):
    """Argument left the admissible cone. Carries the offending margin."""

    _context = ("margin", "where")


class ConeBoundaryError(SigmakLabError, RuntimeError):
    """Integration or iteration ran into the cone boundary."""

    _context = ("r", "margin")


class StepUnderflowError(SigmakLabError, RuntimeError):
    """Adaptive step size shrank below the representable floor, or the
    integration ran out of its step budget."""

    _context = ("r",)


class NewtonError(SigmakLabError, RuntimeError):
    """Newton iteration failed (max iterations, no admissible step, singular system)."""

    _context = ("iterations", "residual")


class PathError(SigmakLabError, RuntimeError):
    """Homotopy path could not be continued to t = 1; trace lists each solve's TRecord."""

    _context = ("last_good_t", "trace")
