"""Spec fields under fuzzing: each draw builds a spec or raises ConfigError."""

import numpy as np
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
        assert spec.center.shape == (spec.n,)
        assert np.all(np.isfinite(spec.center))


@_SETTINGS
@given(_fuzzed(dict(n=3, k=2, t=0.5), n=_NUMBER, k=_NUMBER, t=_NUMBER))
def test_fuzzed_operator_spec_is_built_or_rejected(kwargs):
    spec = _build(sl.OperatorSpec, kwargs)
    if spec is not None:
        assert 0.0 <= spec.t <= 1.0
