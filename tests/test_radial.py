"""Radial reduction, shooting, and the classification desk check."""

import math

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab.errors import ConeBoundaryError, ConeDomainError, PositivityError
from sigmak_lab.radial import _pair_sigma


def _bubble_r(n, k, a, r):
    m = (n - 2.0) / 2.0
    return sl.c_constant(n, k) * (a / (1.0 + a * a * r * r)) ** m


def _bubble_dr(n, k, a, r):
    m = (n - 2.0) / 2.0
    w = 1.0 + a * a * r * r
    return -2.0 * m * a * a * r * _bubble_r(n, k, a, r) / w


def _bubble_d2r(n, k, a, r):
    m = (n - 2.0) / 2.0
    c = sl.c_constant(n, k)
    w = 1.0 + a * a * r * r
    return -2.0 * m * a * a * c * a ** m * w ** (-m - 2.0) \
        * (w - 2.0 * (m + 1.0) * a * a * r * r)


# ---------------------------------------------------------------------------
# eigen pair
# ---------------------------------------------------------------------------

def test_constant_profile_gives_zero_pair():
    pair = sl.radial_eigenvalues(2.0, 0.0, 0.0, 1.5, 4)
    assert pair.lam_rad == 0.0 and pair.lam_tan == 0.0


def test_bubble_profile_is_isotropic():
    for n, k in [(3, 1), (4, 2), (6, 5)]:
        a = 1.0
        r = 1.0
        pair = sl.radial_eigenvalues(_bubble_r(n, k, a, r), _bubble_dr(n, k, a, r),
                                     _bubble_d2r(n, k, a, r), r, n)
        expected = math.comb(n, k) ** (-1.0 / k)
        assert pair.lam_rad == pytest.approx(expected, rel=1e-12)
        assert pair.lam_tan == pytest.approx(expected, rel=1e-12)


def test_pair_matches_full_matrix_oracle():
    # the stated invariant: 1e4 random states against the dense path; the
    # 1e-11 tolerance is per unit of spectral radius, since dense solves
    # carry eps * |lam| rounding and some sampled states reach |lam| ~ 1e4
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(3, 7))
        u = float(rng.uniform(0.3, 3.0))
        du = float(rng.uniform(-2.0, 2.0))
        d2u = float(rng.uniform(-3.0, 3.0))
        r = float(rng.uniform(0.05, 5.0))
        pair = sl.radial_eigenvalues(u, du, d2u, r, n)
        e = rng.normal(size=n)
        e /= np.linalg.norm(e)
        hess = d2u * np.outer(e, e) + (du / r) * (np.eye(n) - np.outer(e, e))
        lam = sl.schouten_spectrum(sl.Jet2(r * e, u, du * e, hess))
        err = float(np.max(np.abs(np.sort(pair.vector(n)) - lam)))
        worst = max(worst, err / max(1.0, float(np.max(np.abs(lam)))))
    assert worst <= 1e-11


def test_origin_limit_uses_curvature():
    pair = sl.radial_eigenvalues(1.0, 0.0, -0.5, 0.0, 5)
    assert pair.lam_rad == pair.lam_tan


# ---------------------------------------------------------------------------
# curvature solve
# ---------------------------------------------------------------------------

def test_solve_for_u2_reproduces_bubble_curvature():
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 6)]:
        a = 1.3
        for r in (0.0, 0.4, 2.0, 7.0):
            d2u, margin = sl.solve_for_u2(_bubble_r(n, k, a, r),
                                          _bubble_dr(n, k, a, r), r, n, k)
            assert d2u == pytest.approx(_bubble_d2r(n, k, a, r), rel=1e-10)
            assert margin > 0.0


def test_solve_for_u2_linear_case_matches_semilinear_form():
    # k = 1: sigma_1 = lam_rad + (n-1) lam_tan is linear, and the solved
    # curvature satisfies -u'' - (n-1)u'/r = ((n-2)/2) u^{(n+2)/(n-2)}
    n = 4
    rng = np.random.default_rng(59)
    for _ in range(50):
        u = float(rng.uniform(0.3, 2.0))
        du = float(rng.uniform(-1.0, 1.0))
        r = float(rng.uniform(0.1, 4.0))
        d2u, _ = sl.solve_for_u2(u, du, r, n, 1, rhs=1.0)
        lap = d2u + (n - 1.0) * du / r
        assert -lap == pytest.approx((n - 2.0) / 2.0 * u ** ((n + 2.0) / (n - 2.0)),
                                     rel=1e-12)


def test_solve_for_u2_zero_rhs_lands_on_boundary_for_top_cone():
    n = 4
    k = n
    u, du, r = 1.0, -0.2, 1.5
    d2u, margin = sl.solve_for_u2(u, du, r, n, k, rhs=0.0)
    pair = sl.radial_eigenvalues(u, du, d2u, r, n)
    ratio = -math.comb(n - 1, k) / math.comb(n - 1, k - 1)  # zero here: comb=0
    assert pair.lam_rad == pytest.approx(ratio * pair.lam_tan, abs=1e-13)
    assert margin == pytest.approx(0.0, abs=1e-13)


def test_solve_for_u2_degenerate_coefficient():
    # du = 0 away from the origin makes lam_tan vanish, killing the linear
    # coefficient for k >= 2
    with pytest.raises(ConeDomainError):
        sl.solve_for_u2(1.0, 0.0, 1.0, 4, 2)


def test_solve_for_u2_rejects_nonpositive_u():
    with pytest.raises(PositivityError):
        sl.solve_for_u2(0.0, 0.1, 1.0, 3, 1)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_shoot_rejects_bad_inputs():
    with pytest.raises(PositivityError):
        sl.shoot(0.0, 3, 1, 5.0)
    with pytest.raises(ValueError):
        sl.shoot(1.0, 3, 1, -2.0)


def test_shoot_reproduces_family_members():
    for n, k in [(3, 1), (3, 2), (5, 4)]:
        u0 = sl.c_constant(n, k)  # scale a = 1
        profile = sl.shoot(u0, n, k, 10.0)
        report = sl.liouville_report(profile)
        assert report.fitted_a == pytest.approx(1.0, rel=1e-13)
        assert report.max_rel_deviation <= 1e-6
        assert report.tail.sufficient and report.tail.monotone


def test_shoot_scaling_covariance():
    # u0 fixes the scale through a = (u0/c)^{2/(n-2)}; the whole profile
    # must then be the rescaled member, not just the origin value
    n, k = 4, 2
    for u0 in (0.37, 2.0, 9.1):
        profile = sl.shoot(u0, n, k, 8.0)
        report = sl.liouville_report(profile)
        expect_a = (u0 / sl.c_constant(n, k)) ** (2.0 / (n - 2.0))
        assert report.fitted_a == pytest.approx(expect_a, rel=1e-12)
        assert report.max_rel_deviation <= 1e-6


def test_shoot_profile_structure_and_cone_persistence():
    n, k = 4, 3
    profile = sl.shoot(sl.c_constant(n, k), n, k, 6.0)
    assert profile.r[0] == 0.0 and profile.du[0] == 0.0
    assert np.all(np.diff(profile.r) > 0.0)
    margins = []
    for i in range(profile.r.size):
        _, margin = sl.solve_for_u2(float(profile.u[i]), float(profile.du[i]),
                                    float(profile.r[i]), n, k)
        margins.append(margin)
    margins = np.array(margins)
    assert np.all(margins > 0.0)
    assert margins.min() >= 0.5 * margins[0]


def test_shoot_fixed_step_fourth_order():
    n, k = 3, 2
    errs = []
    steps = (0.08, 0.04, 0.02)
    for h in steps:
        profile = sl.shoot(sl.c_constant(n, k), n, k, 5.0, fixed_step=h)
        errs.append(sl.liouville_report(profile).max_rel_deviation)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(steps) - 1)]
    assert min(orders) >= 3.5


def test_shoot_adaptive_tolerance_tracks_error():
    n, k = 4, 2
    dev = []
    for tol in (1e-8, 1e-10, 1e-12):
        profile = sl.shoot(sl.c_constant(n, k), n, k, 8.0, tol=tol)
        dev.append(sl.liouville_report(profile).max_rel_deviation)
    assert dev[2] < dev[1] < dev[0]


def test_shoot_cone_boundary_abort():
    # forcing sigma_k = 0 puts the isotropic origin state on the boundary
    with pytest.raises((ConeBoundaryError, ConeDomainError)):
        sl.shoot(1.0, 3, 3, 5.0, rhs=0.0)


# ---------------------------------------------------------------------------
# liouville report
# ---------------------------------------------------------------------------

def test_liouville_truncated_profile_has_insufficient_tail():
    profile = sl.shoot(sl.c_constant(3, 1), 3, 1, 1.0)
    report = sl.liouville_report(profile)
    assert report.max_rel_deviation <= 1e-8
    assert not report.tail.sufficient


def test_liouville_perturbed_profile_reports_the_perturbation():
    profile = sl.shoot(sl.c_constant(3, 2), 3, 2, 6.0)
    rng = np.random.default_rng(61)
    noisy = sl.RadialProfile(profile.r,
                             profile.u * (1.0 + 1e-3 * rng.uniform(-1.0, 1.0,
                                                                   profile.u.size)),
                             profile.du, 3, 2)
    report = sl.liouville_report(noisy)
    assert 2e-4 <= report.max_rel_deviation <= 5e-3


# ---------------------------------------------------------------------------
# reconstruction and serialization
# ---------------------------------------------------------------------------

def test_profile_field_reproduces_nodes_and_midpoints():
    n, k = 3, 2
    profile = sl.shoot(sl.c_constant(n, k), n, k, 5.0)
    field = sl.profile_to_field(profile)
    rng = np.random.default_rng(67)
    # at mesh radii the jet reproduces the stored state
    for i in (1, len(profile.r) // 2, len(profile.r) - 1):
        d = rng.normal(size=n)
        d /= np.linalg.norm(d)
        x = profile.r[i] * d
        val, grad, _ = field.raw_jet(x)
        assert val == pytest.approx(profile.u[i], rel=1e-13)
        assert float(grad @ d) == pytest.approx(profile.du[i], rel=1e-11, abs=1e-13)
    # between nodes the equation residual stays near the integrator floor
    mids = 0.5 * (profile.r[1:] + profile.r[:-1])
    pts = np.zeros((40, n))
    sel = rng.choice(mids.size, size=40, replace=False)
    for row, i in enumerate(sel):
        d = rng.normal(size=n)
        pts[row] = mids[i] * d / np.linalg.norm(d)
    rep = sl.verify_solution(field, n, k, sample_points=pts)
    assert rep.max_residual <= 1e-7
    assert rep.min_margin > 0.0


def test_profile_csv_schema(tmp_path):
    profile = sl.shoot(sl.c_constant(3, 1), 3, 1, 3.0)
    path = tmp_path / "profile.csv"
    sl.write_profile_csv(profile, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# sigmak-lab v1"
    assert lines[1] == "r,u,du,sigma_residual,cone_margin"
    assert len(lines) == 2 + profile.r.size
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) <= 1e-12          # solve closes at machine level
    assert float(first[4]) > 0.0


def test_pair_sigma_closed_form_matches_generic():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        pair = sl.EigenPair(float(rng.normal()), float(rng.normal()))
        margin, sigma_k = _pair_sigma(pair.lam_rad, pair.lam_tan, n, k)
        generic = [sl.sigma(pair.vector(n), j) for j in range(1, k + 1)]
        assert sigma_k == pytest.approx(generic[-1], rel=1e-12, abs=1e-12)
        assert margin == pytest.approx(min(generic), rel=1e-12, abs=1e-12)
