"""The error contract's two shared pieces: the one constructor that stores every
error's context, and the one check of every count and size."""

import math

import numpy as np
import pytest

from sigmak_lab import errors
from sigmak_lab.errors import ConfigError, check_count

# the context each error carries, by the names its raisers and readers use
CONTEXT = {
    errors.PositivityError: ("where", "value"),
    errors.FloatRangeError: ("where",),
    errors.ConeDomainError: ("margin", "where"),
    errors.ConeBoundaryError: ("r", "margin"),
    errors.StepUnderflowError: ("r",),
    errors.NewtonError: ("iterations", "residual"),
    errors.PathError: ("last_good_t", "trace"),
    errors.SigmakLabError: (),
    errors.ConfigError: (),
    errors.DomainError: (),
    errors.PoleError: (),
}


def test_every_error_class_is_listed():
    classes = {getattr(errors, name) for name in errors.__all__}
    assert classes == set(CONTEXT)


@pytest.mark.parametrize("cls, names", CONTEXT.items(), ids=lambda v: getattr(v, "__name__", ""))
def test_unset_context_is_none_and_an_unknown_keyword_is_a_type_error(cls, names):
    exc = cls("went wrong")
    assert str(exc) == "went wrong" and exc.args == ("went wrong",)
    assert all(getattr(exc, name) is None for name in names)
    for i, name in enumerate(names):  # each name alone, the others stay None
        exc = cls("went wrong", **{name: i + 1})
        assert [getattr(exc, other) for other in names] == \
            [i + 1 if other == name else None for other in names]
    with pytest.raises(TypeError, match="unexpected keyword"):
        cls("went wrong", bogus=1)
    assert not hasattr(cls("went wrong"), "bogus")


@pytest.mark.parametrize("low, cap", [(0, 4), (1, 10_000), (16, 65_536), (3, 22), (1, 3)])
def test_check_count_bounds(low, cap):
    for value in (low, low + 1, cap, np.int64(cap), np.uint16(low)):
        check_count("--x", value, low, cap)
    with pytest.raises(ConfigError, match=rf"^--x={low - 1} must be an integer >= {low}$"):
        check_count("--x", low - 1, low, cap)
    for value in (cap + 1, 2 ** 70, np.int64(cap + 1)):
        with pytest.raises(ConfigError, match=rf"^--x={value} exceeds its cap of {cap}$"):
            check_count("--x", value, low, cap)


def test_check_count_without_a_cap():
    for value in (0, 2 ** 70, 10 ** 400, np.int32(7)):
        check_count("--seed", value, 0, math.inf)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), 1.0, 2.5, "3", None, math.inf,
                                   np.float64(3.0)])
def test_check_count_rejects_what_is_no_integer(value):
    # a bool is an Integral, yet no count; numpy's bool and floats are neither
    with pytest.raises(ConfigError, match=r"must be an integer >= 0$"):
        check_count("--x", value, 0, math.inf)


def test_check_nk_is_two_counts():
    errors.check_nk(3, 3)
    errors.check_nk(np.int64(10 ** 6), 1)
    for n, k, text in [(2, 1, "dimension n=2 must be an integer >= 3"),
                       (4, 0, "cone index k=0 must be an integer >= 1"),
                       (4, 5, "cone index k=5 exceeds its cap of 4"),
                       (True, 1, "dimension n=True must be an integer >= 3"),
                       (4, 2.0, "cone index k=2.0 must be an integer >= 1")]:
        with pytest.raises(ConfigError, match=f"^{text}$"):
            errors.check_nk(n, k)
