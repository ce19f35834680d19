"""Spec fields under fuzzing: each draw builds a spec or raises ConfigError."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigmak_lab as sl
from sigmak_lab.errors import ConfigError

# ints, bools and floats, nan and +-inf among them
_NUMBER = st.one_of(st.integers(), st.booleans(), st.floats())
# BubbleSpec allocates a center of n entries, so its n and k stay small
_SMALL_NUMBER = st.one_of(st.integers(-2, 12), st.booleans(), st.floats())
_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _fuzzed(valid: dict, **fields):
    """Kwargs of a valid spec with one of its fields redrawn."""
    return st.one_of(*(strategy.map(lambda v, name=name: {**valid, name: v})
                       for name, strategy in fields.items()))


def _build(spec_type, kwargs):
    """The spec, or None when it is rejected with a ConfigError."""
    try:
        return spec_type(**kwargs)
    except ConfigError:
        return None


@_SETTINGS
@given(_fuzzed(dict(n=3, k=2, r_b=5.0, u_b=1.0), n=_NUMBER, k=_NUMBER, r_b=_NUMBER,
               u_b=_NUMBER, m=_NUMBER, t_step=_NUMBER, a_init=_NUMBER))
def test_fuzzed_bvp_spec_builds_a_finite_mesh_or_is_rejected(kwargs):
    spec = _build(sl.BvpSpec, kwargs)
    assert spec is None or not isinstance(spec.n, bool) and not isinstance(spec.k, bool)
    if spec is not None and spec.m <= 4096:
        mesh = spec.mesh
        assert mesh.shape == (spec.m + 1,)
        assert np.all(np.isfinite(mesh))


@_SETTINGS
@given(_fuzzed(dict(n=3, k=1, a=1.0), n=_SMALL_NUMBER, k=_SMALL_NUMBER, a=_NUMBER,
               center=st.lists(st.floats(), min_size=3, max_size=3)
               | st.lists(st.floats(), max_size=4)))
def test_fuzzed_bubble_spec_is_built_or_rejected(kwargs):
    spec = _build(sl.BubbleSpec, kwargs)
    if spec is not None:
        assert not isinstance(spec.n, bool) and not isinstance(spec.k, bool)
        assert spec.center.shape == (spec.n,)
        assert np.all(np.isfinite(spec.center))


@_SETTINGS
@given(_fuzzed(dict(n=3, k=2, t=0.5), n=_NUMBER, k=_NUMBER, t=_NUMBER))
def test_fuzzed_operator_spec_is_built_or_rejected(kwargs):
    spec = _build(sl.OperatorSpec, kwargs)
    if spec is not None:
        assert not isinstance(spec.n, bool) and not isinstance(spec.k, bool)
        assert 0.0 <= spec.t <= 1.0


@pytest.mark.parametrize("build", [
    lambda n, k: sl.BubbleSpec(n, k, 1.0),
    lambda n, k: sl.OperatorSpec(n, k, 0.5),
    lambda n, k: sl.shoot(1.0, n, k, 2.0),
    lambda n, k: sl.RadialProfile([0.0, 1.0], [1.0, 0.5], [0.0, -0.5], n, k),
], ids=["BubbleSpec", "OperatorSpec", "shoot", "RadialProfile"])
def test_bool_dimension_or_cone_index_is_a_configuration_error(build):
    # bool is an Integral, so check_nk names it: k=True once built a spec
    for n, k in [(True, 1), (3, True), (4, False)]:
        with pytest.raises(ConfigError, match="must be an integer"):
            build(n, k)
