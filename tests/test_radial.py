"""Radial reduction, shooting, and the classification desk check."""

import math
import time

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab import bubbles, radial
from sigmak_lab.conformal import _checked_jets, _schouten_batch
from sigmak_lab.errors import ConeBoundaryError, ConeDomainError, ConfigError, \
    PositivityError, StepUnderflowError
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
    # the stated invariant: 1e4 random states against the dense path, run
    # as one batch per n; the 1e-11 tolerance is per unit of spectral
    # radius, since dense solves carry eps * |lam| rounding and some sampled
    # states reach |lam| ~ 1e4
    rng = np.random.default_rng(53)
    states = []
    for _ in range(10000):
        n = int(rng.integers(3, 7))
        u = float(rng.uniform(0.3, 3.0))
        du = float(rng.uniform(-2.0, 2.0))
        d2u = float(rng.uniform(-3.0, 3.0))
        r = float(rng.uniform(0.05, 5.0))
        e = rng.normal(size=n)
        states.append((n, u, du, d2u, r, e / np.linalg.norm(e)))
    worst = 0.0
    for n in range(3, 7):
        rows = [s for s in states if s[0] == n]
        u, du, d2u, r = (np.array([s[i] for s in rows]) for i in range(1, 5))
        e = np.array([s[5] for s in rows])
        proj = e[:, :, None] * e[:, None, :]
        hess = d2u[:, None, None] * proj + (du / r)[:, None, None] * (np.eye(n) - proj)
        jets = _checked_jets(r[:, None] * e, u, du[:, None] * e, hess)
        lam = np.linalg.eigvalsh(_schouten_batch(*jets))
        pair = sl.radial_eigenvalues(u, du, d2u, r, n)
        err = np.abs(np.sort(pair.vector(n), axis=-1) - lam).max(axis=1)
        worst = max(worst, float((err / np.maximum(1.0, np.abs(lam).max(axis=1))).max()))
    assert worst <= 1e-11


def test_pair_array_form_matches_the_float_form():
    rng = np.random.default_rng(83)
    u, du, d2u = rng.uniform(0.3, 3.0, 50), rng.uniform(-2.0, 2.0, 50), rng.normal(size=50)
    r = np.concatenate([[0.0], rng.uniform(0.05, 5.0, 49)])
    du[0] = 0.0
    pair = sl.radial_eigenvalues(u, du, d2u, r, 5)
    assert pair.lam_rad.shape == pair.lam_tan.shape == (50,)
    assert pair.lam_rad[0] == pair.lam_tan[0]  # the origin row takes d2u as its slope
    for i in range(50):
        one = sl.radial_eigenvalues(float(u[i]), float(du[i]), float(d2u[i]), float(r[i]), 5)
        assert type(one.lam_rad) is float and type(one.lam_tan) is float
        assert one.lam_rad == pytest.approx(pair.lam_rad[i], rel=1e-14, abs=1e-15)
        assert one.lam_tan == pytest.approx(pair.lam_tan[i], rel=1e-14, abs=1e-15)
    np.testing.assert_array_equal(pair.vector(5)[7], sl.EigenPair(
        float(pair.lam_rad[7]), float(pair.lam_tan[7])).vector(5))
    u[[4, 9]] = [0.0, -1.0]
    with pytest.raises(PositivityError) as info:
        sl.radial_eigenvalues(u, du, d2u, r, 5)
    assert info.value.where == r[4] and info.value.value == 0.0


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
        d2u, _ = sl.solve_for_u2(u, du, r, n, 1)
        lap = d2u + (n - 1.0) * du / r
        assert -lap == pytest.approx((n - 2.0) / 2.0 * u ** ((n + 2.0) / (n - 2.0)),
                                     rel=1e-12)


def test_solve_for_u2_degenerate_coefficient():
    # du = 0 away from the origin makes lam_tan vanish, killing the linear
    # coefficient for k >= 2
    with pytest.raises(ConeDomainError):
        sl.solve_for_u2(1.0, 0.0, 1.0, 4, 2)


def test_solve_for_u2_rejects_nonpositive_u():
    with pytest.raises(PositivityError):
        sl.solve_for_u2(0.0, 0.1, 1.0, 3, 1)


def test_bad_dimension_or_cone_index_is_a_configuration_error():
    with pytest.raises(ConfigError):
        sl.radial_eigenvalues(1.0, -0.1, -0.2, 1.0, 2)
    for n, k in [(2, 1), (4, 0), (4, 5)]:
        with pytest.raises(ConfigError):
            sl.solve_for_u2(1.0, -0.1, 1.0, n, k)
        with pytest.raises(ConfigError):
            sl.shoot(1.0, n, k, 2.0)


@pytest.mark.parametrize("r, u, du", [
    ([0.0, 1.0], [1.0, 1.0], [0.0, 0.0, 0.0]),   # shapes differ
    ([0.5, 1.0], [1.0, 1.0], [0.0, 0.0]),        # mesh not starting at 0
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # not strictly increasing
    ([0.0, 1.0], [1.0, 1.0], [0.1, 0.0]),        # du[0] != 0
])
def test_bad_radial_profile_is_a_configuration_error(r, u, du):
    with pytest.raises(ConfigError):
        sl.RadialProfile(r, u, du, 3, 1)


def test_radial_profile_rejects_nan_values():
    with pytest.raises(PositivityError):
        sl.RadialProfile([0.0, 1.0], [1.0, np.nan], [0.0, 0.0], 3, 1)


def test_solve_for_u2_slope_at_the_origin_is_a_configuration_error():
    with pytest.raises(ConfigError):
        sl.solve_for_u2(1.0, 1e-3, 0.0, 3, 1)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_shoot_rejects_bad_inputs():
    with pytest.raises(PositivityError):
        sl.shoot(0.0, 3, 1, 5.0)
    with pytest.raises(ValueError):
        sl.shoot(1.0, 3, 1, -2.0)


@pytest.mark.parametrize("option", [{"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}])
def test_shoot_rejects_a_bad_tolerance_or_step(option):
    with pytest.raises(ConfigError):
        sl.shoot(1.0, 3, 1, 5.0, **option)


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
    # must then be the rescaled member, not just the origin value. At
    # u0 = 2000 (a ~ 900) the series start has to move in to r_s = 1e-3 / a
    n, k = 4, 2
    for u0 in (0.37, 2.0, 9.1, 2000.0):
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


def test_shoot_fixed_step_eighth_order():
    # shoot's DOP853 step on a uniform t-mesh from the exact chart state of
    # the a = 1 member, xi = log(c)/m + t - log(1 + e^{2t}), s = 1 + tanh t;
    # below dt ~ 0.1 the error reaches the rounding floor
    n, k = 3, 2
    m = (n - 2.0) / 2.0
    rhs = radial._t_kernel(n, k)

    def exact(t):
        return math.log(sl.c_constant(n, k)) / m + t - math.log1p(math.exp(2.0 * t)), \
            1.0 + math.tanh(t)
    t0 = math.log(1e-3)
    errs = []
    steps = (0.4, 0.2, 0.1)
    for h in steps:
        xi, s = exact(t0)
        err = 0.0
        for i in range(1, round(8.0 / h) + 1):
            xi, s, _, _ = radial._dop853_step(rhs, xi, s, 1.0, rhs(xi, s, 1.0), h)
            err = max(err, abs(xi - exact(t0 + i * h)[0]))
        errs.append(err)
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(len(steps) - 1)]
    assert min(orders) >= 7.0


def test_shoot_adaptive_tolerance_tracks_error():
    n, k = 4, 2
    dev = []
    for tol in (1e-8, 1e-10, 1e-12):
        profile = sl.shoot(sl.c_constant(n, k), n, k, 8.0, tol=tol)
        dev.append(sl.liouville_report(profile).max_rel_deviation)
    assert dev[2] < dev[1] < dev[0]


def test_shoot_tolerance_below_the_floor_fails_at_once():
    # under radial._TOL_FLOOR the error estimate is rounding noise: such a
    # tol once ran the whole 200,000-step budget (about 10 s) before failing
    c = sl.c_constant(3, 3)
    start = time.perf_counter()
    with pytest.raises(ConfigError, match="below the floor"):
        sl.shoot(c, 3, 3, 10.0, tol=1e-22)
    assert time.perf_counter() - start < 0.1
    # the floor itself is met: 198 nodes to r = 10, within 1e-13 of the member
    profile = sl.shoot(c, 3, 3, 10.0, tol=radial._TOL_FLOOR)
    assert sl.liouville_report(profile).max_rel_deviation <= 1e-13


def test_shoot_cone_boundary_abort(monkeypatch):
    # the isotropic start has margin 1; a floor above it stops the first step
    monkeypatch.setattr(radial, "_MARGIN_FLOOR", 2.0)
    with pytest.raises(ConeBoundaryError):
        sl.shoot(1.0, 3, 3, 5.0)


def test_shoot_step_budget_is_a_step_underflow(monkeypatch):
    # a shot to r = 5 takes about 80 steps; a budget of 5 runs out near the
    # series start and names the radius of the last node
    monkeypatch.setattr(radial, "_MAX_STEPS", 5)
    with pytest.raises(StepUnderflowError) as info:
        sl.shoot(1.0, 3, 2, 5.0)
    assert 1e-3 <= info.value.r < 5.0
    assert f"r={info.value.r}" in str(info.value)


def test_shoot_inadmissible_accepted_node_is_a_boundary_error(monkeypatch):
    # the 40th step is accepted onto a state past the cone, s = -1/4 so
    # lam_tan = e^{-2 xi} s (2 - s) / 2 < 0: the equation at that node has no
    # admissible value, a documented ConeBoundaryError with the node's r and
    # lam_tan as the margin. The first 40 steps are all accepted, so that
    # node is the unpatched shot's 40th past r_s
    n, k = 4, 2
    expect_r = sl.shoot(sl.c_constant(n, k), n, k, 10.0).r[41]
    real_step = radial._dop853_step
    steps = [0]

    def bad_step(*args):
        steps[0] += 1
        xi, s, e5, e3 = real_step(*args)
        return xi, (-0.25 if steps[0] == 40 else s), e5, e3

    monkeypatch.setattr(radial, "_dop853_step", bad_step)
    with pytest.raises(ConeBoundaryError) as info:
        sl.shoot(sl.c_constant(n, k), n, k, 10.0)
    assert steps[0] == 40
    assert info.value.r == expect_r
    assert info.value.margin < 0.0


def test_t_kernel_solves_the_radial_equation():
    # xi'' of the t chart, mapped back to u'' = m u (m (xi'-1)^2 + xi'' - (xi'-1)) / r^2,
    # closes sigma_k = 1 on the r-chart pair, on random states either side
    # of the turning point within 20% of H = 0, where A = 2 lam0 e^{2 xi}
    rng = np.random.default_rng(89)
    for n in range(3, 7):
        m = (n - 2.0) / 2.0
        for k in range(1, n + 1):
            rhs = radial._t_kernel(n, k)
            lam0 = math.comb(n, k) ** (-1.0 / k)
            for _ in range(5):
                xi, side = rng.uniform(-3.0, -0.5), rng.choice([-1.0, 1.0])
                a = 2.0 * lam0 * math.exp(2.0 * xi) * rng.uniform(0.8, 1.2)
                s, r = a / (1.0 + math.sqrt(1.0 - a)), rng.uniform(0.1, 5.0)
                d1, ds = rhs(xi, s, side)
                assert d1 == side * (1.0 - s)
                u = math.exp(m * (xi - math.log(r)))
                d2u = m * u * (m * (d1 - 1.0) ** 2 - side * ds - (d1 - 1.0)) / (r * r)
                pair = sl.radial_eigenvalues(u, m * u * (d1 - 1.0) / r, d2u, r, n)
                assert sl.sigma(pair.vector(n), k) == pytest.approx(1.0, rel=1e-11)


def test_t_kernel_stage_failures_are_cone_errors():
    # a stage that would divide by A = 0, overflow e^{2 xi} or leave the
    # cone raises ConeDomainError, which the shooter answers by halving
    rhs = radial._t_kernel(5, 4)
    for xi, s in [(0.0, 0.0), (0.0, 2.0), (400.0, 0.5), (0.0, -0.1), (math.nan, 0.5)]:
        with pytest.raises(ConeDomainError):
            rhs(xi, s, 1.0)
    assert radial._t_kernel(5, 1)(0.0, 0.0, -1.0) == (-1.0, -1.0)  # k = 1 needs no A > 0


def test_shoot_node_budget():
    # the error control alone sets the mesh: 100 to 185 nodes to r = 100,
    # every profile within 5.4e-12 of the member
    for n in range(3, 7):
        for k in range(1, n + 1):
            profile = sl.shoot(sl.c_constant(n, k), n, k, 100.0)
            assert profile.r.size <= 200
            assert sl.liouville_report(profile).max_rel_deviation <= 1e-10


def test_series_coefficients_match_the_bubble_taylor_coefficients():
    # u = c a^m (1 + a^2 r^2)^{-m} = u0 (1 - m a^2 r^2 + m (m+1) a^4 r^4 / 2 - ...)
    for n in range(3, 7):
        m = (n - 2.0) / 2.0
        for k in range(1, n + 1):
            for a in (0.3, 1.0, 2.7):
                u0 = sl.c_constant(n, k) * a ** m
                u2, u4 = radial._series_coefficients(u0, n, k)
                assert u2 == pytest.approx(-2.0 * m * a * a * u0, rel=1e-13)
                assert u4 == pytest.approx(12.0 * m * (m + 1.0) * a ** 4 * u0, rel=1e-13)


def test_shoot_reuses_k1(monkeypatch):
    # per attempted step 11 right-hand sides (DOP853's first stage is the
    # previous node's), plus 1 per accepted node, which also gives that
    # node's margin and is the next step's first stage; 1 more at r_s
    calls = [0]
    steps = [0]
    real_kernel, real_step = radial._t_kernel, radial._dop853_step

    def counting_kernel(n, k):
        rhs = real_kernel(n, k)

        def counted(*args):
            calls[0] += 1
            return rhs(*args)
        return counted

    def counting_step(*args):
        steps[0] += 1
        return real_step(*args)

    monkeypatch.setattr(radial, "_t_kernel", counting_kernel)
    monkeypatch.setattr(radial, "_dop853_step", counting_step)
    profile = sl.shoot(sl.c_constant(4, 2), 4, 2, 1e4)  # 167 nodes
    accepted = profile.r.size - 2
    assert steps[0] >= accepted > 100
    assert calls[0] == 11 * steps[0] + accepted + 1


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


def _bubble_tail_profile(wobble):
    """The (4, 2) family member of scale 1 times wobble(r) = (w, w'), with
    exact derivatives, on nodes reaching r = 1e6 (Kelvin radius 1e-6)."""
    r = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 400)])
    u, grad, _ = bubbles._bubble_jets(4, 2, 1.0, 0.0, r[:, None], 2)
    w, dw = wobble(r)
    return sl.RadialProfile(r, u * w, grad[:, 0] * w + u * dw, 4, 2)


def test_tail_evidence_of_the_family_member_is_a_constant_image():
    tail = sl.liouville_report(_bubble_tail_profile(
        lambda r: (np.ones_like(r), np.zeros_like(r)))).tail
    assert tail.sufficient and tail.monotone
    assert tail.scaled_grad[-1] < 1e-10


def test_tail_evidence_flags_an_oscillatory_tail():
    tail = sl.liouville_report(_bubble_tail_profile(
        lambda r: (2.0 + np.cos(r), -np.sin(r)))).tail
    assert tail.sufficient and not tail.monotone
    assert tail.scaled_grad[-1] > 1.0


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


def test_profile_field_matches_a_per_point_reference_loop():
    # the reference interpolates point by point: in r on [0, r_1], and past
    # r_1 in the shooting chart, eta = log(u / u(0)) / m matched in value
    # and three derivatives in t = log r, then mapped back to (u, u', u'');
    # eta''' from the differentiated t-chart equation, u''' at r_1 by the chain rule
    n, k = 4, 2
    m, g1 = (n - 2.0) / 2.0, (n - 2.0 * k) / (2.0 * k)
    profile = sl.shoot(sl.c_constant(n, k), n, k, 2.0)
    field = sl.profile_to_field(profile)
    r_nodes, u_nodes, du_nodes = profile.r, profile.u, profile.du
    d2u = radial._node_solves(r_nodes, u_nodes, du_nodes, n, k)[0]
    assert not np.any(np.isnan(d2u))  # every node solves, so no fallback runs
    u0 = u_nodes[0]

    def log(v):  # the batch's log and exp: the libm ones may differ by an ulp,
        return float(np.log(np.array([v]))[0])  # which the O(1/h^2) terms amplify

    def chart(i):  # (eta, eta', eta'', eta''') at node i >= 1
        u, du, r = u_nodes[i], du_nodes[i], r_nodes[i]
        eta = float(np.log1p(np.array([(u - u0) / u0]))[0]) if abs(u - u0) < 0.5 * u0 \
            else log(u / u0)
        eta1 = r * du / (m * u)
        eta2 = r * r * d2u[i] / (m * u) - m * eta1 * eta1 + eta1
        a = -eta1 * (2.0 + eta1)
        assert a > 0.0  # so no node falls back to finite differences
        eta3 = -2.0 * (1.0 + eta1) * (k * g1 * a + k * (g1 - 1.0) * eta2
                                      - (k - 1.0) * eta2 * eta2 / a)
        return eta / m, eta1, eta2, eta3

    _, e1, e2, e3 = chart(1)
    r1 = r_nodes[1]
    d3u1 = m * u_nodes[1] * (e3 + 3.0 * m * e1 * e2 + m * m * e1 * e1 * e1
                             - 3.0 * (e2 + m * e1 * e1) + 2.0 * e1) / (r1 * r1 * r1)

    def reference(x):
        rr = float(np.linalg.norm(x[None], axis=1)[0])  # the batch's norm, for the same reason
        if rr < 1e-12:
            return u0, np.zeros(n), d2u[0] * np.eye(n)
        i = int(np.searchsorted(r_nodes, rr, side="right")) - 1
        i = min(max(i, 0), r_nodes.size - 2)
        if i == 0:
            h = r_nodes[1]
            val, der, cur = radial._hermite7(rr / h, h, (u0, 0.0, d2u[0], 0.0),
                                             (u_nodes[1], du_nodes[1], d2u[1], d3u1), 2)
        else:
            t0, t1 = log(r_nodes[i]), log(r_nodes[i + 1])
            e, e1, e2 = radial._hermite7((log(rr) - t0) / (t1 - t0), t1 - t0,
                                         chart(i), chart(i + 1), 2)
            val = u0 * float(np.exp(np.array([m * e]))[0])
            der = m * val * e1 / rr
            cur = m * val * (m * e1 * e1 + e2 - e1) / (rr * rr)
        xhat = x / rr
        proj = np.outer(xhat, xhat)
        return val, der * xhat, cur * proj + (der / rr) * (np.eye(n) - proj)

    rng = np.random.default_rng(73)
    pts = rng.normal(size=(60, n))
    pts *= (rng.uniform(0.0, 2.0, 60) / np.linalg.norm(pts, axis=1))[:, None]
    pts[0], pts[1], pts[2] = 0.0, [1e-13, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0, 0.0]
    pts[3] = [5e-4, 0.0, 0.0, 0.0]  # inside the first interval
    u, grad, hess = field.jets(pts, 2)
    np.testing.assert_array_equal(field.values(pts), u)
    for i, x in enumerate(pts):
        val, g, hs = reference(x)
        assert u[i] == pytest.approx(val, rel=1e-15)
        np.testing.assert_allclose(grad[i], g, rtol=1e-15, atol=1e-15)
        np.testing.assert_allclose(hess[i], hs, rtol=1e-15, atol=1e-15)


def test_profile_field_reconstruction_is_of_eighth_order():
    # profiles of the exact member (u and u' of the closed form) on uniform
    # t-grids over [-3, 3]: the septic's value error at the interval midpoints
    # falls by 2^7.8 per halving of h, a quintic's by 2^5.9, so 7.5 tells them apart
    for n, k in [(3, 2), (5, 3), (6, 6)]:
        errs = []
        for h in (0.2, 0.1):
            t = np.linspace(-3.0, 3.0, round(6.0 / h) + 1)
            r = np.concatenate([[0.0], np.exp(t)])
            u, grad, _ = bubbles._bubble_jets(n, k, 1.0, 0.0, r[:, None], 1)
            field = sl.profile_to_field(sl.RadialProfile(r, u, grad[:, 0], n, k))
            x = np.zeros((t.size - 1, n))
            x[:, 0] = np.exp(0.5 * (t[1:] + t[:-1]))
            exact = bubbles._bubble_jets(n, k, 1.0, 0.0, x[:, :1], 0)[0]
            errs.append(float(np.max(np.abs(field.values(x) - exact) / exact)))
        assert math.log2(errs[0] / errs[1]) >= 7.5


def test_profile_field_hessian_is_stable_under_one_ulp_of_radius():
    # the curvature's 1/h^2 multiplies node differences, not node values,
    # so an ulp of |x| (h = 1e-3 at the first nodes) barely moves it
    n, k = 4, 2
    field = sl.profile_to_field(sl.shoot(sl.c_constant(n, k), n, k, 2.0))
    rng = np.random.default_rng(79)
    pts = rng.normal(size=(2000, n))
    radii = np.concatenate([rng.uniform(0.0, 0.02, 1000), rng.uniform(0.0, 1.99, 1000)])
    pts *= (radii / np.linalg.norm(pts, axis=1))[:, None]
    _, _, hess = field.jets(pts, 2)
    _, _, moved = field.jets(pts * (1.0 + 2.0 ** -52), 2)
    assert float(np.abs(moved - hess).max()) <= 1e-10


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


def test_node_solves_match_the_per_node_solve():
    # the array pass against the generic sigma of the pair it solved for:
    # sigma_k = 1 and the margin is min_j sigma_j, node by node; at the
    # origin against the isotropic solve u'' = -lam0 / (b u^e1),
    # lam0 = C(n,k)^{-1/k}
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 6)]:
        profile = sl.shoot(sl.c_constant(n, k), n, k, 10.0)
        d2u, margin, res = radial._node_solves(profile.r, profile.u, profile.du, n, k)
        lam = sl.radial_eigenvalues(profile.u, profile.du, d2u, profile.r, n).vector(n)
        sig = np.array([[sl.sigma(row, j) for j in range(1, k + 1)] for row in lam])
        np.testing.assert_allclose(sig[:, -1], 1.0, rtol=1e-11)
        np.testing.assert_allclose(margin, sig.min(axis=1), rtol=1e-12)
        lam0 = math.comb(n, k) ** (-1.0 / k)
        b, e1 = 2.0 / (n - 2.0), -(n + 2.0) / (n - 2.0)
        assert d2u[0] == pytest.approx(-lam0 / (b * profile.u[0] ** e1), rel=1e-12)
        isotropic = min(sl.sigma(np.full(n, lam0), j) for j in range(1, k + 1))
        assert margin[0] == pytest.approx(isotropic, rel=1e-14)
        assert np.all(res <= 1e-11)


def _pinned_rows():
    """Eight nodes of the (4, 2) family member a = 1 at fixed radii, four of
    them with no admissible solve: du = 0 degenerates the linear coefficient
    (nodes 3 and 7, the last), du = +0.5 solves onto a negative margin
    (node 5), and u = 1e-100 overflows u^{-2n/(n-2)} (node 6, with
    du = -1e-100 so that r u'/u stays of order one)."""
    r = np.array([0.0, 1e-3, 0.1, 0.25, 0.4, 0.6, 0.8, 1.0])
    u, du = _bubble_r(4, 2, 1.0, r), _bubble_dr(4, 2, 1.0, r)
    du[3] = du[7] = 0.0
    du[5] = 0.5
    u[6], du[6] = 1e-100, -1e-100
    return r, u, du


# the margin of node 5; 40-digit mpmath evaluation of the same solve
# gives -2.0010226713131068079
_NODE5_MARGIN = -2.0010226713131068


def test_solve_for_u2_raises_on_the_rows_with_no_admissible_solve():
    # the failure rows pinned below, one node at a time: the one-node case
    # raises with the margin the array pass writes
    r, u, du = (a.tolist() for a in _pinned_rows())
    with pytest.raises(ConeDomainError) as info:
        sl.solve_for_u2(u[3], du[3], r[3], 4, 2)
    assert info.value.margin == 0.0 and math.copysign(1.0, info.value.margin) == -1.0
    assert info.value.where == r[3]
    with pytest.raises(ConeDomainError) as info:
        sl.solve_for_u2(u[5], du[5], r[5], 4, 2)
    assert info.value.margin == pytest.approx(_NODE5_MARGIN, rel=1e-14)
    with pytest.raises(ConeDomainError):
        sl.solve_for_u2(u[6], du[6], r[6], 4, 2)


def test_profile_csv_pins_the_rows_with_no_admissible_solve(tmp_path):
    profile = sl.RadialProfile(*_pinned_rows(), 4, 2)
    path = tmp_path / "profile.csv"
    sl.write_profile_csv(profile, path)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in path.read_text().splitlines()[2:]])
    np.testing.assert_array_equal(rows[:, 0], profile.r)
    np.testing.assert_array_equal(rows[:, 1], profile.u)
    np.testing.assert_array_equal(rows[:, 2], profile.du)
    res, margin = rows[:, 3], rows[:, 4]
    failed = [3, 5, 6, 7]
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(res)), failed)
    np.testing.assert_array_equal(np.flatnonzero(np.isnan(margin)), [6])
    assert np.all(res[[0, 1, 2, 4]] <= 1e-15)
    np.testing.assert_allclose(margin[[0, 1, 2, 4]], 1.0, rtol=1e-14)
    # the degenerate rows report lam_tan, which is -0.0 at du = 0
    for i in (3, 7):
        assert margin[i] == 0.0 and math.copysign(1.0, margin[i]) == -1.0
    assert margin[5] == pytest.approx(_NODE5_MARGIN, rel=1e-14)
    # failed rows fall back to finite differences: three-point u'' in the
    # interior, the central du difference at the last node; the field
    # reproduces them at the nodes through the chart map and back (node 6,
    # at u = 1e-100, keeps 13 digits of the round trip)
    r, u, du = profile.r, profile.u, profile.du
    i = np.array([3, 5, 6])
    h1, h2 = r[i] - r[i - 1], r[i + 1] - r[i]
    expect = list(2.0 * (h1 * u[i + 1] - (h1 + h2) * u[i] + h2 * u[i - 1])
                  / (h1 * h2 * (h1 + h2))) + [(du[7] - du[5]) / (r[7] - r[5])]
    field = sl.profile_to_field(profile)
    x = np.zeros((len(failed), 4))
    x[:, 0] = r[failed]
    curvature = field.jets(x, 2)[2][:, 0, 0]
    np.testing.assert_allclose(curvature, expect, rtol=1e-13)


def test_pair_sigma_closed_form_matches_generic():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        pair = sl.EigenPair(float(rng.normal()), float(rng.normal()))
        combs = [math.comb(n - 1, j) for j in range(k + 1)]
        margin, sigma_k = _pair_sigma(pair.lam_rad, pair.lam_tan, combs)
        generic = [sl.sigma(pair.vector(n), j) for j in range(1, k + 1)]
        assert sigma_k == pytest.approx(generic[-1], rel=1e-12, abs=1e-12)
        assert margin == pytest.approx(min(generic), rel=1e-12, abs=1e-12)
        # the array form agrees with the float form (numpy powers may differ by an ulp)
        arr = _pair_sigma(np.array([pair.lam_rad]), np.array([pair.lam_tan]), combs)
        assert arr[0][0] == pytest.approx(margin, rel=1e-14, abs=1e-15)
        assert arr[1][0] == pytest.approx(sigma_k, rel=1e-14, abs=1e-15)
