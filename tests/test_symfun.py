"""Symmetric-function machinery: spec examples, oracles, and properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigmak_lab as sl
from sigmak_lab.errors import ConeDomainError, ConfigError, check_nk

from fd_oracles import esym_by_enumeration, fd_gradient, sample_gamma_k


def _vec(n, lo=-10.0, hi=10.0):
    return st.lists(st.floats(min_value=lo, max_value=hi,
                              allow_nan=False, allow_infinity=False),
                    min_size=n, max_size=n)


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_examples():
    assert sl.sigma([1.0, 1.0, 1.0, 1.0], 2) == pytest.approx(6.0, abs=0.0)
    assert sl.sigma([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=0.0)
    assert sl.sigma([1.0, 2.0, 3.0], 0) == 1.0


def test_sigma_matches_enumeration_positive_vectors():
    rng = np.random.default_rng(3)
    for n in range(3, 11):
        for _ in range(20):
            lam = rng.uniform(0.1, 2.0, size=n)
            for k in range(1, n + 1):
                ref = esym_by_enumeration(lam, k)
                assert sl.sigma(lam, k) == pytest.approx(ref, rel=1e-12)


def test_sigma_matches_enumeration_signed_vectors_mass_relative():
    # cancellation can make value-relative comparisons meaningless, so the
    # signed check is relative to the total term mass e_k(|lam|)
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(3, 11))
        lam = rng.normal(size=n) * 2.0
        for k in range(1, n + 1):
            ref = esym_by_enumeration(lam, k)
            mass = esym_by_enumeration(np.abs(lam), k)
            assert abs(sl.sigma(lam, k) - ref) <= 1e-13 * max(1.0, mass)


def test_sigma_validation():
    with pytest.raises(ConfigError):
        sl.sigma([1.0, 2.0, 3.0], 4)
    with pytest.raises(ConfigError):
        sl.sigma([1.0, 2.0, 3.0], -1)
    with pytest.raises(ConfigError):
        sl.sigma([1.0, 2.0], 1)          # dimension below 3
    with pytest.raises(ConfigError):
        sl.sigma([1.0, np.inf, 3.0], 1)
    with pytest.raises(ConfigError, match="1-D"):
        sl.sigma(np.ones((2, 3)), 1)
    with pytest.raises(ConfigError, match="spec expects 4"):
        sl.homotopy_vector([1.0, 2.0, 3.0], sl.OperatorSpec(4, 2, 0.5))
    for k in (False, True):  # a bool is no cone index, not even for sigma_0
        with pytest.raises(ConfigError, match="must be an integer"):
            sl.sigma([1.0, 2.0, 3.0], k)


def test_sigma_zero_index_must_be_an_integer():
    lam = [1.0, 2.0, 3.0]
    assert sl.sigma(lam, 0) == 1.0
    with pytest.raises(ConfigError):
        sl.sigma(lam, 0.0)


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8), st.data())
def test_sigma_permutation_invariance(n, data):
    lam = np.array(data.draw(_vec(n, lo=0.01, hi=10.0)))
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(0)
    perm = rng.permutation(n)
    a, b = sl.sigma(lam, k), sl.sigma(lam[perm], k)
    assert abs(a - b) <= 1e-14 * max(1.0, abs(a))


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 8), st.floats(1e-3, 1e3), st.data())
def test_sigma_homogeneity_and_cone_scaling(n, s, data):
    lam = np.array(data.draw(_vec(n, lo=0.01, hi=10.0)))
    k = data.draw(st.integers(1, n))
    assert sl.sigma(s * lam, k) == pytest.approx(s ** k * sl.sigma(lam, k), rel=1e-12)
    assert sl.in_gamma_k(s * lam, k).inside == sl.in_gamma_k(lam, k).inside


# ---------------------------------------------------------------------------
# gradient: f_t at t = 1 is sigma_k, on Gamma_k
# ---------------------------------------------------------------------------

def test_gradient_examples():
    np.testing.assert_array_equal(
        sl.f_homotopy_gradient([1.0, 2.0, 3.0], sl.OperatorSpec(3, 2, 1.0)), [5.0, 4.0, 3.0])
    for n in (3, 5, 8):
        for k in range(1, n + 1):
            grad = sl.f_homotopy_gradient(np.ones(n), sl.OperatorSpec(n, k, 1.0))
            np.testing.assert_allclose(grad, np.full(n, math.comb(n - 1, k - 1)), rtol=1e-14)


def test_gradient_positive_in_cone_and_matches_fd():
    rng = np.random.default_rng(7)
    for n in (3, 4, 6):
        for k in range(1, n + 1):
            for lam in sample_gamma_k(rng, n, k, 10):
                grad = sl.f_homotopy_gradient(lam, sl.OperatorSpec(n, k, 1.0))
                assert np.all(grad > 0.0)
                ref = fd_gradient(lambda v: sl.sigma(v, k), lam)
                np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

def test_in_gamma_k_examples():
    assert sl.in_gamma_k([1.0, 1.0, 1.0], 3).inside
    member2 = sl.in_gamma_k([3.0, 3.0, -1.0], 2)
    assert member2.inside and member2.margin == pytest.approx(3.0)
    member3 = sl.in_gamma_k([3.0, 3.0, -1.0], 3)
    assert not member3.inside and member3.margin == pytest.approx(-9.0)


def _segment_stays_positive(lam, k, coarse=400, fine=4000):
    """Dense-sampling connectivity oracle with local refinement around the
    sampled minimum (tangential crossings slip between coarse samples)."""
    from sigmak_lab.symfun import _esym_all_batch

    one = np.ones(lam.size)

    def sig_on(ts):
        seg = one[None, :] + ts[:, None] * (lam - one)[None, :]
        return _esym_all_batch(seg)[:, k]

    ts = np.linspace(0.0, 1.0, coarse)
    sig = sig_on(ts)
    if np.any(sig <= 0.0):
        return False
    i = int(np.argmin(sig))
    lo, hi = ts[max(0, i - 2)], ts[min(coarse - 1, i + 2)]
    refined = sig_on(np.linspace(lo, hi, fine))
    return bool(np.all(refined > 0.0))


def test_gamma_k_membership_matches_path_connectivity_oracle():
    # Gamma_k is convex, so the straight segment to (1,1,1) stays inside
    # exactly when the point belongs to the component of the positive cone
    rng = np.random.default_rng(11)
    for _ in range(1000):
        lam = rng.normal(scale=1.5, size=3)
        for k in (1, 2, 3):
            assert sl.in_gamma_k(lam, k).inside == _segment_stays_positive(lam, k)


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 7), st.data())
def test_cone_nesting(n, data):
    lam = np.array(data.draw(_vec(n)))
    for k in range(1, n):
        if sl.in_gamma_k(lam, k + 1).inside:
            assert sl.in_gamma_k(lam, k).inside


# ---------------------------------------------------------------------------
# operator family
# ---------------------------------------------------------------------------

def test_operator_spec_validation():
    with pytest.raises(ConfigError):
        sl.OperatorSpec(3, 2, 1.5)
    with pytest.raises(ConfigError):
        sl.OperatorSpec(3, 4, 0.5)


def test_bad_parameters_are_configuration_errors():
    for args in [(2, 1, 0.5), (3, 0, 0.5), (3, 4, 0.5), (3, 2.0, 0.5), (3, 2, -0.1)]:
        with pytest.raises(ConfigError):
            sl.OperatorSpec(*args)
    for k in (-1, 4, 1.0):  # sigma_0 = 1 is defined
        with pytest.raises(ConfigError):
            sl.sigma([1.0, 2.0, 3.0], k)
        with pytest.raises(ConfigError):
            sl.in_gamma_k([1.0, 2.0, 3.0], k)


def test_one_dimension_and_cone_index_check():
    check_nk(np.int64(4), np.int32(2))  # numpy integers are integers
    for n, k in [(4.0, 2), (4, 2.0), ("4", 2), (2, 1), (4, 0), (4, 5)]:
        with pytest.raises(ConfigError):
            check_nk(n, k)
    field = sl.bubble_field(sl.BubbleSpec(3, 2, 1.0))
    with pytest.raises(ConfigError):
        sl.verify_solution(field, 3, 2.0, np.ones((4, 3)))


def test_f_homotopy_endpoints():
    rng = np.random.default_rng(5)
    for n in (3, 5):
        for k in range(1, n + 1):
            lam = rng.uniform(0.1, 2.0, size=n)
            at1 = sl.f_homotopy(lam, sl.OperatorSpec(n, k, 1.0))
            assert at1 == sl.sigma(lam, k)  # t = 1 is exact
            at0 = sl.f_homotopy(lam, sl.OperatorSpec(n, k, 0.0))
            expect = math.comb(n, k) * (lam.sum() / n) ** k
            assert at0 == pytest.approx(expect, rel=1e-12)


def test_f_homotopy_examples():
    assert sl.f_homotopy([1.0, 2.0, 3.0], sl.OperatorSpec(3, 2, 0.0)) \
        == pytest.approx(12.0, rel=1e-14)
    for n in (3, 4, 6):
        for k in range(1, n + 1):
            got = sl.f_homotopy(np.ones(n), sl.OperatorSpec(n, k, 0.5))
            assert got == pytest.approx(math.comb(n, k), rel=1e-13)


def test_f_homotopy_domain_error_carries_margin():
    # f_t and its gradient are evaluated on (Gamma_k)_t only; outside it each
    # names the Gamma_k margin of the mixed vector
    lam = np.array([-1.0, -1.0, -1.0])
    for spec in (sl.OperatorSpec(3, 2, 1.0), sl.OperatorSpec(3, 2, 0.5)):
        margin = sl.in_gamma_k(sl.homotopy_vector(lam, spec), spec.k).margin
        assert margin < 0.0
        for call in (sl.f_homotopy, sl.f_homotopy_gradient):
            with pytest.raises(ConeDomainError) as err:
                call(lam, spec)
            assert err.value.margin == margin
            np.testing.assert_array_equal(err.value.where, lam)


def test_mixed_cone_endpoints():
    # (Gamma_k)_t is the set where the mixed vector lies in Gamma_k
    rng = np.random.default_rng(13)
    for _ in range(300):
        lam = rng.normal(scale=1.5, size=3)
        # t = 1 mixes nothing: the plain cone test, margin and all
        assert sl.in_gamma_k(sl.homotopy_vector(lam, sl.OperatorSpec(3, 2, 1.0)), 2) \
            == sl.in_gamma_k(lam, 2)
        # t = 0 only sees the sign of sigma_1
        assert sl.in_gamma_k(sl.homotopy_vector(lam, sl.OperatorSpec(3, 2, 0.0)), 2).inside \
            == (lam.sum() > 0.0)


# ---------------------------------------------------------------------------
# ellipticity and concavity
# ---------------------------------------------------------------------------

def test_ellipticity_examples():
    # the least entry of the gradient of f_t is its smallest directional
    # derivative, positive where f_t is elliptic
    rng = np.random.default_rng(17)
    for n in (3, 5):
        lam = rng.uniform(0.1, 2.0, size=n)
        assert sl.f_homotopy_gradient(lam, sl.OperatorSpec(n, 1, 1.0)).min() \
            == pytest.approx(1.0)
        for k in range(2, n + 1):
            assert sl.f_homotopy_gradient(lam, sl.OperatorSpec(n, k, 1.0)).min() > 0.0
    with pytest.raises(ConeDomainError):
        sl.f_homotopy_gradient([-1.0, -1.0, -1.0], sl.OperatorSpec(3, 2, 1.0))


def test_f_homotopy_gradient_matches_fd():
    rng = np.random.default_rng(19)
    for n in (3, 5):
        for k in range(1, n + 1):
            for t in (0.0, 0.3, 1.0):
                spec = sl.OperatorSpec(n, k, t)
                lam = rng.uniform(0.2, 2.0, size=n)
                grad = sl.f_homotopy_gradient(lam, spec)
                ref = fd_gradient(lambda v: sl.f_homotopy(v, spec), lam)
                np.testing.assert_allclose(grad, ref, rtol=1e-6, atol=1e-8)


def _root_midpoint_gap(lam, mu, k):
    """sigma_k^{1/k}((lam + mu)/2) - (sigma_k^{1/k}(lam) + sigma_k^{1/k}(mu))/2."""
    def root(v):
        return sl.sigma(v, k) ** (1.0 / k)
    return root(0.5 * (lam + mu)) - 0.5 * (root(lam) + root(mu))


def test_concavity_examples():
    lam = np.array([1.0, 2.0, 3.0])
    assert _root_midpoint_gap(lam, lam, 2) == 0.0  # degenerate segment
    rng = np.random.default_rng(23)
    # sigma_1 is linear: the midpoint inequality is an equality
    for _ in range(50):
        a = rng.uniform(0.1, 2.0, size=4)
        b = rng.uniform(0.1, 2.0, size=4)
        assert abs(_root_midpoint_gap(a, b, 1)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(3, 7), st.data())
def test_sigma_k_root_is_midpoint_concave_on_gamma_k(n, data):
    # Garding: sigma_k^{1/k} is concave on the convex cone Gamma_k, so its
    # value at the midpoint of two members is at least the mean of theirs
    k = data.draw(st.integers(1, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    lam, mu = sample_gamma_k(rng, n, k, 2)
    assert _root_midpoint_gap(lam, mu, k) >= -1e-12
