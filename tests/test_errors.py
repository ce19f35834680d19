"""The error contract's shared pieces: the one constructor that stores every
error's context, the one check of every count and size, and the float traps
that the library's solvers share with the CLI."""

import math
import warnings

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab import bubbles, errors
from sigmak_lab.errors import ConfigError, FloatRangeError, check_count

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


def test_solvers_and_word_draws_keep_the_float_contract_without_the_cli():
    # under numpy's default error state: where the CLI's traps fire, each solver
    # raises FloatRangeError with numpy's message, not a RuntimeWarning; a point
    # past the float range is clear of every pole, and a nan point is refused
    u_b = float(bubbles._bubble(3, 1, 1e100, np.array([[5.0]]))[0][0])
    cases = [(sl.BvpSpec(3, 1, 5.0, u_b, m=32, a_init=1e100), "overflow encountered in multiply"),
             (sl.BvpSpec(3, 1, 1e-300, 1.0, m=32, a_init=1.0),
              "invalid value encountered in divide")]
    far = np.full((1, 3), 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec, message in cases:
            for solve in (sl.continue_path,
                          lambda spec: sl.newton_solve(sl.initial_guess(spec), spec, 0.0)):
                with pytest.raises(FloatRangeError, match=message):
                    solve(spec)
        for seed in (1, 7):
            psi = sl.random_mobius_map_avoiding(np.random.default_rng(seed), 3, far, 1e-2)
            first = sl.random_mobius_map(np.random.default_rng(seed), 3)
            np.testing.assert_array_equal(psi._matrix(3), first._matrix(3))
    with pytest.raises(ConfigError, match="not all finite"):
        sl.random_mobius_map_avoiding(np.random.default_rng(0), 3, np.full((1, 3), np.nan), 1e-2)
