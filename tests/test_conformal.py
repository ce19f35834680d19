"""Conformal machinery: jets, the flat Schouten matrix, Mobius words."""

import math

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab.errors import PoleError, PositivityError

from fd_oracles import fd_jet_of_field
from field_factories import oscillatory_tail_field, radial_power_field, \
    random_test_field


def _safe_point(rng, psi, n, lo=0.5, hi=2.5, far=40.0):
    """Random point away from the word's poles with a bounded image."""
    poles = psi.poles(n)
    while True:
        x = rng.normal(size=n)
        norm = np.linalg.norm(x)
        if not lo <= norm <= hi:
            continue
        if any(np.linalg.norm(x - p) < 0.15 for p in poles):
            continue
        if np.linalg.norm(psi.apply(x)) > far:
            continue
        return x


# ---------------------------------------------------------------------------
# jets and schouten_flat
# ---------------------------------------------------------------------------

def test_jet_validation():
    with pytest.raises(PositivityError):
        sl.Jet2(np.zeros(3), -1.0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        sl.Jet2(np.zeros(3), 1.0, np.zeros(3),
                np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    jet = sl.Jet2(np.zeros(3), 1.0, np.zeros(3), np.eye(3))
    np.testing.assert_array_equal(jet.hess, jet.hess.T)


def test_schouten_constant_field_vanishes():
    for n in (3, 5):
        jet = sl.constant_field(2.7, n).jet(np.linspace(0.1, 1.0, n))
        np.testing.assert_array_equal(sl.schouten_flat(jet), np.zeros((n, n)))


def test_schouten_output_exactly_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(3, 7))
        h = rng.normal(size=(n, n))
        jet = sl.Jet2(rng.normal(size=n), float(rng.uniform(0.5, 2.0)),
                      rng.normal(size=n), 0.5 * (h + h.T))
        a = sl.schouten_flat(jet)
        np.testing.assert_array_equal(a, a.T)


def test_bubble_jet_isotropic_spectrum():
    rng = np.random.default_rng(3)
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 6)]:
        field = sl.bubble_field(sl.BubbleSpec(n, k, 1.4, center=rng.normal(size=n)))
        expected = math.comb(n, k) ** (-1.0 / k)
        for _ in range(10):
            lam = sl.schouten_spectrum(field.jet(rng.normal(scale=2.0, size=n)))
            np.testing.assert_allclose(lam, expected, atol=1e-9)


def test_trace_identity_for_first_symmetric_function():
    # for the k = 1 family member, sigma_1(lam(A)) = 1 is the same statement
    # as -u^{-(n+2)/(n-2)} lap(u) = (n-2)/2
    rng = np.random.default_rng(5)
    for n in (3, 4, 6):
        field = sl.bubble_field(sl.BubbleSpec(n, 1, 0.8))
        for _ in range(5):
            x = rng.normal(size=n)
            jet = field.jet(x)
            lam = sl.schouten_spectrum(jet)
            assert float(lam.sum()) == pytest.approx(1.0, abs=1e-11)
            lap = float(np.trace(jet.hess))
            assert -jet.u ** (-(n + 2.0) / (n - 2.0)) * lap \
                == pytest.approx((n - 2.0) / 2.0, rel=1e-11)


# ---------------------------------------------------------------------------
# conformal change with a supplied background
# ---------------------------------------------------------------------------

def test_conformal_change_flat_matches_schouten_flat():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 7))
        h = rng.normal(size=(n, n))
        jet = sl.Jet2(rng.normal(size=n), float(rng.uniform(0.3, 3.0)),
                      rng.normal(size=n), 0.5 * (h + h.T))
        a_change = sl.schouten_conformal_change(jet, np.zeros((n, n)))
        a_flat = sl.schouten_flat(jet)
        scale = jet.u ** (4.0 / (n - 2.0))
        np.testing.assert_allclose(a_change, scale * a_flat, rtol=1e-10, atol=1e-13)


def test_conformal_change_identity_factor_returns_background():
    rng = np.random.default_rng(9)
    n = 4
    bg = rng.normal(size=(n, n))
    bg = 0.5 * (bg + bg.T)
    jet = sl.Jet2(np.zeros(n), 1.0, np.zeros(n), np.zeros((n, n)))
    np.testing.assert_array_equal(sl.schouten_conformal_change(jet, bg), bg)


def test_conformal_change_round_background():
    # background with schouten matrix half the metric; a constant factor c
    # rescales the index-raised eigenvalues by c^{-4/(n-2)}
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        c = (math.comb(n, k) * 2.0 ** (-k)) ** ((n - 2.0) / (4.0 * k))
        g0 = np.eye(n)
        jet = sl.Jet2(np.zeros(n), c, np.zeros(n), np.zeros((n, n)))
        terms = sl.MetricTerms(np.zeros(n), np.zeros((n, n)), 0.0, g0)
        a1 = sl.schouten_conformal_change(jet, 0.5 * g0, terms)
        g1 = c ** (4.0 / (n - 2.0)) * g0
        lam = sl.eigenvalues_wrt(a1, g1)
        np.testing.assert_allclose(lam, 0.5 * c ** (-4.0 / (n - 2.0)), rtol=1e-12)
        assert sl.sigma(lam, k) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# mobius words
# ---------------------------------------------------------------------------

def test_mobius_identity_and_dilation():
    x = np.array([0.3, -1.2, 0.7])
    ident = sl.MobiusMap(())
    np.testing.assert_array_equal(ident.apply(x), x)
    assert ident.jacobian_det(x) == 1.0
    dil = sl.MobiusMap((sl.Dilation(2.0),))
    assert dil.jacobian_det(x) == pytest.approx(8.0)


def test_inversion_is_an_involution():
    rng = np.random.default_rng(11)
    twice = sl.MobiusMap((sl.Inversion(), sl.Inversion()))
    for _ in range(50):
        x = rng.normal(size=3)
        np.testing.assert_allclose(twice.apply(x), x, atol=1e-12)


def test_inversion_pole_raises():
    inv = sl.MobiusMap((sl.Inversion(),))
    with pytest.raises(PoleError):
        inv.apply(np.zeros(3))


def test_rotation_validation():
    with pytest.raises(ValueError):
        sl.Rotation(np.array([[1.0, 0.1], [0.0, 1.0]]))


def test_mobius_jet_against_finite_differences():
    rng = np.random.default_rng(13)
    n = 3
    for _ in range(10):
        psi = sl.random_mobius_map(rng, n)
        x = _safe_point(rng, psi, n)
        st = psi.jet(x)
        h = 1e-5
        jac_fd = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            jac_fd[:, j] = (psi.apply(x + e) - psi.apply(x - e)) / (2.0 * h)
        np.testing.assert_allclose(st.jac, jac_fd, rtol=1e-6, atol=1e-6)
        assert abs(abs(np.linalg.det(st.jac)) - psi.jacobian_det(x)) \
            <= 1e-12 * psi.jacobian_det(x)
        grad_fd = np.zeros(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            grad_fd[j] = (math.log(psi.jacobian_det(x + e))
                          - math.log(psi.jacobian_det(x - e))) / (2.0 * h)
        np.testing.assert_allclose(st.grad_log_det, grad_fd, rtol=1e-5, atol=1e-6)


def test_mobius_inverse_and_poles():
    rng = np.random.default_rng(17)
    n = 3
    for _ in range(10):
        psi = sl.random_mobius_map(rng, n)
        x = _safe_point(rng, psi, n)
        back = psi.inverse().apply(psi.apply(x))
        np.testing.assert_allclose(back, x, atol=1e-10)
    shifted = sl.MobiusMap((sl.Translation(np.array([1.0, 0.0, 0.0])),
                            sl.Inversion()))
    poles = shifted.poles(3)
    assert len(poles) == 1
    np.testing.assert_allclose(poles[0], [-1.0, 0.0, 0.0], atol=1e-14)


# ---------------------------------------------------------------------------
# transform_field
# ---------------------------------------------------------------------------

def test_transform_identity_word():
    rng = np.random.default_rng(19)
    u = random_test_field(3, rng)
    v = sl.transform_field(u, sl.MobiusMap(()))
    for _ in range(10):
        x = rng.normal(size=3)
        assert v.value(x) == pytest.approx(u.value(x), rel=1e-14)


def test_inversion_maps_centered_bubble_to_reciprocal_scale():
    for n, k, a in [(3, 1, 1.7), (4, 2, 0.6), (5, 5, 2.5)]:
        u = sl.bubble_field(sl.BubbleSpec(n, k, a))
        v = sl.kelvin_transform(u)
        target = sl.bubble_field(sl.BubbleSpec(n, k, 1.0 / a))
        rng = np.random.default_rng(23)
        for _ in range(20):
            x = rng.normal(size=n)
            if np.linalg.norm(x) < 0.05:
                continue
            assert v.value(x) == pytest.approx(target.value(x), rel=1e-10)


def test_transform_field_jets_match_finite_differences():
    rng = np.random.default_rng(29)
    n = 3
    u = random_test_field(n, rng)
    for _ in range(6):
        psi = sl.random_mobius_map(rng, n)
        x = _safe_point(rng, psi, n)
        v = sl.transform_field(u, psi)
        val, grad, hess = v.raw_jet(x)
        ref_val, ref_grad, ref_hess = fd_jet_of_field(v, x, h=1e-4)
        assert val == pytest.approx(ref_val, rel=1e-12)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-5 * max(1.0, abs(val)))
        np.testing.assert_allclose(hess, ref_hess, atol=1e-4)


def test_spectrum_equivariance_under_words():
    rng = np.random.default_rng(31)
    for n in (3, 4):
        fields = [random_test_field(n, rng) for _ in range(2)]
        for _ in range(8):
            psi = sl.random_mobius_map(rng, n)
            for u in fields:
                v = sl.transform_field(u, psi)
                for _ in range(5):
                    x = _safe_point(rng, psi, n)
                    lam_v = sl.schouten_spectrum(v.jet(x))
                    lam_u = sl.schouten_spectrum(u.jet(psi.apply(x)))
                    np.testing.assert_allclose(lam_v, lam_u, atol=1e-9)


def test_group_closure():
    rng = np.random.default_rng(37)
    n = 3
    u = random_test_field(n, rng)
    for _ in range(6):
        psi1 = sl.random_mobius_map(rng, n, n_atoms=2)
        psi2 = sl.random_mobius_map(rng, n, n_atoms=2)
        chained = sl.transform_field(sl.transform_field(u, psi1), psi2)
        composed = sl.transform_field(u, psi2.then(psi1))
        for _ in range(5):
            x = _safe_point(rng, psi2.then(psi1), n)
            try:
                a = chained.value(x)
            except PoleError:
                continue
            assert a == pytest.approx(composed.value(x), rel=1e-10)


# ---------------------------------------------------------------------------
# kelvin probe
# ---------------------------------------------------------------------------

def test_kelvin_probe_bubble_plausible():
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 1.3))
    report = sl.kelvin_regularity_probe(u)
    assert report.positive and report.monotone and report.plausible
    assert report.max_scaled_grad[-1] < 1e-3
    assert report.sup_v[-1] == pytest.approx(report.inf_v[-1], rel=1e-4)


def test_kelvin_probe_fundamental_solution_constant_image():
    u = radial_power_field(4)
    report = sl.kelvin_regularity_probe(u)
    np.testing.assert_allclose(report.sup_v, 1.0, rtol=1e-12)
    np.testing.assert_allclose(report.inf_v, 1.0, rtol=1e-12)
    assert report.plausible


def test_kelvin_probe_oscillatory_tail_flagged():
    u = oscillatory_tail_field(4)
    report = sl.kelvin_regularity_probe(u)
    assert not report.plausible
    assert report.max_scaled_grad[-1] > 1.0


def test_probe_rejects_nonpositive_fields():
    n = 3

    def evaluator(x):
        val = 0.5 - float(x @ x)  # goes nonpositive away from the origin
        return val, -2.0 * x, -2.0 * np.eye(n)

    bad = sl.ScalarField(n, evaluator)
    with pytest.raises(PositivityError):
        sl.kelvin_regularity_probe(bad)


# ---------------------------------------------------------------------------
# per-point calls are the one-row case of the batch path
# ---------------------------------------------------------------------------

def _lifted_test_field(n, rng):
    """random_test_field behind a per-point evaluator, lifted by ScalarField."""
    batch = random_test_field(n, rng)

    def evaluator(x):
        u, g, h = batch.jets(x[None], 2)
        return u[0], g[0], h[0]

    return sl.ScalarField(n, evaluator, tag="lifted")


def test_single_point_calls_match_batch_rows():
    rng = np.random.default_rng(61)
    n = 4
    psi = sl.MobiusMap((sl.Translation(np.array([0.4, -0.2, 0.1, 0.3])),
                        sl.Inversion(), sl.Dilation(1.7),
                        sl.Rotation(np.linalg.qr(rng.normal(size=(n, n)))[0]),
                        sl.Translation(np.array([-0.5, 0.3, 0.6, 0.0])),
                        sl.Inversion()))
    pts = rng.normal(scale=1.5, size=(200, n))
    bubble = sl.bubble_field(sl.BubbleSpec(n, 2, 1.3))
    fields = [bubble, sl.transform_field(bubble, psi), sl.constant_field(2.5, n),
              _lifted_test_field(n, rng),
              sl.transform_field(random_test_field(n, rng), psi)]
    rtol = 1e-12
    for field in fields:
        u, grad, hess = field.jets(pts, 2)
        np.testing.assert_array_equal(field.values(pts), u)
        for i in (0, 57, 199):
            val, g1, h1 = field.raw_jet(pts[i])
            assert val == pytest.approx(u[i], rel=rtol)
            assert field.value(pts[i]) == pytest.approx(u[i], rel=rtol)
            np.testing.assert_allclose(g1, grad[i], rtol=rtol,
                                       atol=rtol * np.abs(grad[i]).max())
            np.testing.assert_allclose(h1, hess[i], rtol=rtol,
                                       atol=rtol * np.abs(hess[i]).max())
    images = psi.apply(pts)
    dets = psi.jacobian_det(pts)
    assert images.shape == pts.shape and dets.shape == (200,)
    full = psi._walk(pts, 2)
    for i in (0, 57, 199):
        np.testing.assert_allclose(psi.apply(pts[i]), images[i], rtol=rtol)
        assert psi.jacobian_det(pts[i]) == pytest.approx(dets[i], rel=rtol)
        st = psi.jet(pts[i])
        for name in ("y", "jac", "hess", "grad_log_det", "hess_log_det"):
            one, row = getattr(st, name), getattr(full, name)[i]
            np.testing.assert_allclose(one, row, rtol=rtol,
                                       atol=rtol * np.abs(row).max())
        assert st.log_det == pytest.approx(full.log_det[i], rel=rtol, abs=1e-15)


def test_batch_checks_name_the_first_bad_point():
    n = 3

    def evaluator(x):
        val = 0.5 - float(x @ x)
        return val, -2.0 * x, -2.0 * np.eye(n)

    field = sl.ScalarField(n, evaluator)
    pts = np.array([[0.1, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
    with pytest.raises(PositivityError) as err:
        field.values(pts)
    np.testing.assert_array_equal(err.value.where, pts[1])
    with pytest.raises(ValueError):
        field.jets(pts[:, :2])
    ball = sl.ScalarField(n, evaluator, domain=sl.Domain(kind="ball", r_outer=0.5))
    with pytest.raises(sl.DomainError, match=r"\[1\. 0\. 0\.\]"):
        ball.jets(pts)
    skew = sl.ScalarField(n, lambda x: (1.0, np.zeros(n),
                                        np.array([[0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3])))
    with pytest.raises(ValueError, match="asymmetry"):
        sl.verify_solution(skew, n, 1, sample_points=pts)
    with pytest.raises(PoleError):
        sl.kelvin_transform(sl.constant_field(1.0, n)).values(np.vstack([pts, np.zeros(n)]))
