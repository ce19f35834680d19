"""Radial reduction, shooting, and the classification desk check."""

import math
import re
import time
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sigmak_lab as sl
from sigmak_lab import bubbles, cli, radial
from sigmak_lab.conformal import _checked_jets, _checked_schouten
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
        points = r[:, None] * e
        jets = _checked_jets(points, u, du[:, None] * e, hess)
        lam = np.linalg.eigvalsh(_checked_schouten(points, *jets))
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

def test_node_solves_reproduce_bubble_curvature():
    r = np.array([0.0, 0.4, 2.0, 7.0])
    for n, k in [(3, 1), (4, 2), (5, 3), (6, 6)]:
        a = 1.3
        d2u, margin, _ = radial._node_solves(r, _bubble_r(n, k, a, r),
                                             _bubble_dr(n, k, a, r), n, k)
        np.testing.assert_allclose(d2u, _bubble_d2r(n, k, a, r), rtol=1e-10)
        assert np.all(margin > 0.0)


def test_node_solves_linear_case_matches_semilinear_form():
    # k = 1: sigma_1 = lam_rad + (n-1) lam_tan is linear, and the solved
    # curvature satisfies -u'' - (n-1)u'/r = ((n-2)/2) u^{(n+2)/(n-2)}
    n = 4
    rng = np.random.default_rng(59)
    u, du, r = rng.uniform([0.3, -1.0, 0.1], [2.0, 1.0, 4.0], size=(50, 3)).T
    d2u, _, _ = radial._node_solves(r, u, du, n, 1)
    lap = d2u + (n - 1.0) * du / r
    np.testing.assert_allclose(-lap, (n - 2.0) / 2.0 * u ** ((n + 2.0) / (n - 2.0)),
                               rtol=1e-12)


def test_bad_dimension_or_cone_index_is_a_configuration_error():
    with pytest.raises(ConfigError):
        sl.radial_eigenvalues(1.0, -0.1, -0.2, 1.0, 2)
    for n, k in [(2, 1), (4, 0), (4, 5), (3.0, 1), (3, 1.0)]:
        with pytest.raises(ConfigError):
            sl.shoot(1.0, n, k, 2.0)
        with pytest.raises(ConfigError):
            sl.RadialProfile([0.0, 1.0], [1.0, 0.5], [0.0, -0.5], n, k)


@pytest.mark.parametrize("r, u, du", [
    ([0.0, 1.0], [1.0, 1.0], [0.0, 0.0, 0.0]),   # shapes differ
    ([0.5, 1.0], [1.0, 1.0], [0.0, 0.0]),        # mesh not starting at 0
    ([0.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # not strictly increasing
    ([0.0, 1.0], [1.0, 1.0], [0.1, 0.0]),        # du[0] != 0
    ([], [], []),                                # empty
    (0.0, 1.0, 0.0),                             # 0-d
    ([[0.0, 1.0]], [[1.0, 1.0]], [[0.0, 0.0]]),  # 2-D
    ([0.0, np.nan, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # nan mesh
    ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]),  # inf mesh
    ([0.0, 1.0], [1.0, np.inf], [0.0, 0.0]),     # inf u
    ([0.0, 1.0], [1.0, 1.0], [0.0, np.nan]),     # nan du
    ([0.0, 1.0], [1.0, 1.0], [0.0, -np.inf]),    # inf du
    (["0", "x"], [1.0, 1.0], [0.0, 0.0]),        # not numbers
    ([0.0, 1.0], [[1.0], 1.0], [0.0, 0.0]),      # ragged
])
def test_bad_radial_profile_is_a_configuration_error(r, u, du):
    with pytest.raises(ConfigError):
        sl.RadialProfile(r, u, du, 3, 1)


def test_radial_profile_rejects_nan_values():
    # the first value that is not positive, nan included, is named at its radius
    r = [0.0, 0.5, 1.0, 1.5]
    for u, bad in (([1.0, np.nan, -1.0, 1.0], 1), ([1.0, 2.0, 0.0, np.nan], 2),
                   ([1.0, 2.0, 3.0, np.nan], 3)):
        with pytest.raises(PositivityError, match="is not positive at") as info:
            sl.RadialProfile(r, u, [0.0] * 4, 3, 1)
        assert info.value.where == r[bad]
        np.testing.assert_array_equal(info.value.value, u[bad])


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_shoot_rejects_bad_inputs():
    # one check of u0: not positive (nan included) is a PositivityError that
    # carries the value, past the float range a ConfigError
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(PositivityError, match="initial value u0") as info:
            sl.shoot(bad, 3, 1, 5.0)
        assert info.value.value is bad
    for bad in (math.inf, 10 ** 400):
        with pytest.raises(ConfigError, match="must be positive and finite"):
            sl.shoot(bad, 3, 1, 5.0)
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
    # u0 = 2000 (a ~ 900) the series start has to move in to r_s = 1e-2 / a
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
    _, margins, _ = radial._node_solves(profile.r, profile.u, profile.du, n, k)
    assert np.all(margins > 0.0)
    assert margins.min() >= 0.5 * margins[0]


def _loop_dop853_step(rhs, xi, s, side, f, h):
    """Reference DOP853 step: every stage sum a loop over the full tableau row."""
    kx, ks = [f[0]], [f[1]]
    for row in radial._DOP_A:
        fx, fs = rhs(xi + h * sum(map(mul, row, kx)), s + h * sum(map(mul, row, ks)), side)
        kx.append(fx)
        ks.append(fs)
    return (xi + h * sum(map(mul, radial._DOP_B, kx)), s + h * sum(map(mul, radial._DOP_B, ks)),
            (sum(map(mul, radial._DOP_E5, kx)), sum(map(mul, radial._DOP_E5, ks))),
            (sum(map(mul, radial._DOP_E3, kx)), sum(map(mul, radial._DOP_E3, ks))))


def test_dop853_step_is_bit_identical_to_the_loop_over_full_rows():
    # the compiled step drops the tableau's zero entries but keeps every sum
    # in its order, so on admissible states within 20% of H = 0, either side
    # of the turning point, of every bench pair 3 <= n <= 6, it returns the
    # loop's (xi, s, e5, e3) exactly, with the same 11 right-hand sides; a
    # step whose stage leaves the cone fails the same way in both
    rng = np.random.default_rng(853)
    compared = failed = 0
    for n in range(3, 7):
        for k in range(1, n + 1):
            rhs = radial._t_kernel(n, k)
            lam0 = math.comb(n, k) ** (-1.0 / k)
            for side in (1.0, -1.0):
                done = 0
                while done < 6:
                    xi = rng.uniform(-3.0, -0.5)
                    a = 2.0 * lam0 * math.exp(2.0 * xi) * rng.uniform(0.8, 1.2)
                    s, h = a / (1.0 + math.sqrt(1.0 - a)), rng.uniform(0.005, 0.5)
                    f, calls = rhs(xi, s, side), []

                    def counted(*args):
                        calls.append(args)
                        return rhs(*args)
                    try:
                        want = _loop_dop853_step(rhs, xi, s, side, f, h)
                    except ConeDomainError as exc:
                        with pytest.raises(ConeDomainError, match=re.escape(str(exc))):
                            radial._dop853_step(rhs, xi, s, side, f, h)
                        failed += 1
                        continue
                    assert radial._dop853_step(counted, xi, s, side, f, h) == want
                    assert len(calls) == 11
                    done += 1
                    compared += 1
    assert compared == 216 and failed < compared


def test_dop853_tableau_matches_the_published_nodes_and_weights():
    # Hairer, Norsett and Wanner, Solving ODEs I, II.5 (dop853.f): the row
    # sums of a are the nodes c2..c12; b sums to 1 and both error weight
    # vectors (b - bhat of orders 5 and 3) to 0
    nodes = (0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1,
             0.118350341907227396726757197510, 0.281649658092772603273242802490,
             0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
             0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
    assert [len(row) for row in radial._DOP_A] == list(range(1, 12))
    for row, c in zip(radial._DOP_A, nodes):
        assert abs(math.fsum(row) - c) <= 1e-14
    assert len(radial._DOP_B) == len(radial._DOP_E5) == len(radial._DOP_E3) == 12
    assert abs(math.fsum(radial._DOP_B) - 1.0) <= 1e-15
    assert abs(math.fsum(radial._DOP_E5)) <= 1e-15
    assert abs(math.fsum(radial._DOP_E3)) <= 1e-15


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
    # the floor itself is met: 147 nodes to r = 10, within 1e-13 of the member
    profile = sl.shoot(c, 3, 3, 10.0, tol=radial._TOL_FLOOR)
    assert sl.liouville_report(profile).max_rel_deviation <= 1e-13


def test_shoot_cone_boundary_abort(monkeypatch):
    # the isotropic start has margin 1; a floor above it stops the first step
    monkeypatch.setattr(radial, "_MARGIN_FLOOR", 2.0)
    with pytest.raises(ConeBoundaryError):
        sl.shoot(1.0, 3, 3, 5.0)


@pytest.mark.parametrize("e", [[math.nan, 1.0], [1.0, math.nan]])
def test_shoot_node_margin_keeps_a_nan(monkeypatch, e):
    # builtin min may skip a nan (min(1.0, nan) is 1.0); a node's cone
    # margin keeps it, as np.minimum does, and the shot stops there. Only the
    # nodes' float calls see e; the array path of the origin solve does not
    real = radial._pair_e
    monkeypatch.setattr(radial, "_pair_e", lambda lam_rad, lam_tan, combs: e
                        if type(lam_tan) is float else real(lam_rad, lam_tan, combs))
    with pytest.raises(ConeBoundaryError, match="cone margin nan below floor") as info:
        sl.shoot(1.0, 3, 2, 5.0)
    assert math.isnan(info.value.margin)


def test_shoot_step_budget_is_a_step_underflow(monkeypatch):
    # a shot to r = 5 takes about 60 steps; a budget of 5 runs out near the
    # series start and names the radius of the last node
    monkeypatch.setattr(radial, "_MAX_STEPS", 5)
    with pytest.raises(StepUnderflowError) as info:
        sl.shoot(1.0, 3, 2, 5.0)
    assert 1e-3 <= info.value.r < 5.0
    assert f"r={info.value.r}" in str(info.value)


def test_shoot_inadmissible_accepted_node_is_a_boundary_error(monkeypatch):
    # the 20th step is accepted onto a state past the cone, s = -1/4 so
    # lam_tan = e^{-2 xi} s (2 - s) / 2 < 0: the equation at that node has no
    # admissible value, a documented ConeBoundaryError with the node's r and
    # lam_tan as the margin. The first 33 steps are all accepted, well before
    # the turning point at node 48, so that node is the unpatched shot's 20th
    # past r_s
    n, k = 4, 2
    expect_r = sl.shoot(sl.c_constant(n, k), n, k, 10.0).r[21]
    real_step = radial._dop853_step
    steps = [0]

    def bad_step(*args):
        steps[0] += 1
        xi, s, e5, e3 = real_step(*args)
        return xi, (-0.25 if steps[0] == 20 else s), e5, e3

    monkeypatch.setattr(radial, "_dop853_step", bad_step)
    with pytest.raises(ConeBoundaryError) as info:
        sl.shoot(sl.c_constant(n, k), n, k, 10.0)
    assert steps[0] == 20
    assert info.value.r == expect_r
    assert info.value.margin < 0.0


def _failing_after(calls, failure):
    """A DOP853 step that runs the real one for the first calls steps, then fails."""
    real_step, count = radial._dop853_step, [0]

    def step(*args):
        count[0] += 1
        return real_step(*args) if count[0] <= calls else failure(*args)
    return step


def test_shoot_stage_failures_halve_into_a_boundary_error(monkeypatch):
    # from the 11th step on every stage has no admissible value: the step
    # halves from its trial size below 1e-12 and the shot stops at the
    # last node, the unpatched shot's 10th past r_s (its first 33 steps are
    # all accepted), with the stage's margin
    n, k = 4, 2
    expect_r = sl.shoot(sl.c_constant(n, k), n, k, 10.0).r[11]

    def no_stage(*args):
        raise ConeDomainError("stage left the cone", margin=-0.25)

    monkeypatch.setattr(radial, "_dop853_step", _failing_after(10, no_stage))
    with pytest.raises(ConeBoundaryError, match="cone boundary reached") as info:
        sl.shoot(sl.c_constant(n, k), n, k, 10.0)
    assert info.value.r == expect_r and info.value.margin == -0.25


def test_shoot_error_control_underflow_is_a_step_underflow(monkeypatch):
    # from the 11th step on the error estimate is 1/h, so no step passes and
    # the error control shrinks h below 1e-12; the error names the last node
    n, k = 4, 2
    expect_r = sl.shoot(sl.c_constant(n, k), n, k, 10.0).r[11]

    def rough(rhs, xi, s, side, f, h):
        return xi, s, (1.0 / h, 1.0 / h), (1.0 / h, 1.0 / h)

    monkeypatch.setattr(radial, "_dop853_step", _failing_after(10, rough))
    with pytest.raises(StepUnderflowError, match="step size underflow") as info:
        sl.shoot(sl.c_constant(n, k), n, k, 10.0)
    assert info.value.r == expect_r


def test_series_coefficient_overflow_is_a_cone_domain_error():
    # u4 = 3 n u2^2 / ((n-2) u0) with u2 ~ u0^{(n+2)/(n-2)}: at u0 = 1e40, n = 3,
    # u4 ~ u0^9 leaves the float range (the CLI case is in test_cli)
    with pytest.raises(ConeDomainError, match="series coefficient u4=inf") as info:
        sl.shoot(1e40, 3, 1, 1.0)
    assert info.value.where == 0.0


def test_series_curvature_that_is_not_finite_is_a_cone_domain_error():
    # u2 = -lam0 / (b u0^{-(n+2)/(n-2)}): at u0 = 1e70, n = 3, u0^-5 underflows
    # to 0, so the solve at the origin has no finite u2 and gives nan
    with pytest.raises(ConeDomainError, match=r"series coefficient u2=nan .* is not finite") \
            as info:
        sl.shoot(1e70, 3, 1, 1.0)
    assert info.value.where == 0.0


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
    # the error control alone sets the mesh: 85 to 148 nodes to r = 100,
    # every profile within 2.7e-12 of the member
    for n in range(3, 7):
        for k in range(1, n + 1):
            profile = sl.shoot(sl.c_constant(n, k), n, k, 100.0)
            assert profile.r.size <= 160
            assert sl.liouville_report(profile).max_rel_deviation <= 1e-10


def test_series_coefficients_match_the_bubble_taylor_coefficients():
    # u = c a^m (1 + a^2 r^2)^{-m}
    #   = u0 (1 - m a^2 r^2 + m (m+1) a^4 r^4 / 2 - m (m+1) (m+2) a^6 r^6 / 6 + ...)
    for n in range(3, 9):
        m = (n - 2.0) / 2.0
        for k in range(1, n + 1):
            for a in (0.3, 1.0, 2.7):
                u0 = sl.c_constant(n, k) * a ** m
                u2, u4, u6 = radial._series_coefficients(u0, n, k)
                assert u2 == pytest.approx(-2.0 * m * a * a * u0, rel=1e-13)
                assert u4 == pytest.approx(12.0 * m * (m + 1.0) * a ** 4 * u0, rel=1e-13)
                assert u6 == pytest.approx(-120.0 * m * (m + 1.0) * (m + 2.0) * a ** 6 * u0,
                                           rel=1e-13)


def _series_residual(u0, n, k, r, coefficients):
    """|sigma_k - 1| of the truncated series u0 + u2 r^2/2 + u4 r^4/24 + u6 r^6/720
    at r, its pair from radial_eigenvalues and its sigma_k from the generic sigma."""
    u2, u4, u6 = coefficients
    u = u0 + u2 * r ** 2 / 2.0 + u4 * r ** 4 / 24.0 + u6 * r ** 6 / 720.0
    du = u2 * r + u4 * r ** 3 / 6.0 + u6 * r ** 5 / 120.0
    d2u = u2 + u4 * r ** 2 / 2.0 + u6 * r ** 4 / 24.0
    return abs(sl.sigma(sl.radial_eigenvalues(u, du, d2u, r, n).vector(n), k) - 1.0)


def test_series_u6_is_the_equations_own_coefficient():
    # no closed form involved: the sigma_k residual of the series polynomial,
    # at r and 2r near the sextic start, falls as r^6 with u6 and as r^4
    # without it, for every pair with n <= 8
    r = 1e-2
    for n in range(3, 9):
        for k in range(1, n + 1):
            u0 = sl.c_constant(n, k)
            u2, u4, u6 = radial._series_coefficients(u0, n, k)
            for coefficients, low, high in (((u2, u4, u6), 5.5, 6.5), ((u2, u4, 0.0), 3.5, 4.5)):
                near, far = (_series_residual(u0, n, k, x, coefficients) for x in (r, 2.0 * r))
                assert low <= math.log2(far / near) <= high


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
    profile = sl.shoot(sl.c_constant(4, 2), 4, 2, 1e4)  # 143 nodes
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
    u, w2, amp = bubbles._bubble(4, 2, 1.0, r[:, None])
    du = -2.0 * amp * w2 ** -2.0 * r  # u' = -2 m a^2 c a^m w^(-m-1) r at m = a = 1
    w, dw = wobble(r)
    return sl.RadialProfile(r, u * w, du * w + u * dw, 4, 2)


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


@pytest.mark.parametrize("r_max", [10.0, 1e12, 1e40])
@pytest.mark.parametrize("scale", [0.3, 1.0])
@pytest.mark.parametrize("n, k", [(3, 1), (4, 2), (6, 6), (8, 3)])
def test_far_field_of_exact_members_decays_monotonically(n, k, scale, r_max):
    # the tail starts where (n-2) + r u'/u <= 1/2, i.e. a^2 r^2 >= 2n - 5 on
    # the family; of these shots only (3, 1) at a = 0.09 to r_max = 10 never
    # gets there (a r_max = 0.9)
    report = sl.liouville_report(sl.shoot(scale * sl.c_constant(n, k), n, k, r_max))
    assert report.tail.sufficient or (n, scale, r_max) == (3, 0.3, 10.0)
    assert report.tail.monotone or not report.tail.sufficient
    if scale == 1.0:
        assert report.max_rel_deviation <= 1e-12


def test_far_field_past_the_power_range_of_r():
    # r^3 overflows past r = 6e102; the evidence forms no power of r
    tail = sl.liouville_report(sl.shoot(sl.c_constant(4, 2), 4, 2, 1e140)).tail
    assert tail.sufficient and tail.monotone


@pytest.mark.parametrize("r_max", [5e-3, 1e-2])
@pytest.mark.parametrize("n, k", [(3, 2), (6, 6), (8, 3)])
def test_shot_inside_the_series_start(n, k, r_max):
    # an r_max at or below r_s takes at most one step: the series alone is
    # the profile, exact to rounding
    profile = sl.shoot(sl.c_constant(n, k), n, k, r_max)
    assert profile.r.size <= 3 and profile.r[-1] == r_max
    assert sl.liouville_report(profile).max_rel_deviation <= 1e-14


@pytest.mark.parametrize("gap", [1e-8, 1e-5, 1e-3, 0.019, 0.021, 0.03])
@pytest.mark.parametrize("n, k", [(3, 2), (6, 6), (8, 3)])
def test_shot_just_past_the_series_start_takes_no_sliver_step(n, k, gap):
    # an r_max less than half the first trial step (0.02 in t) past r_s = 1e-2
    # is the series node itself, so no step is shorter than 0.02 in t
    r_max = 1e-2 * math.exp(gap)
    profile = sl.shoot(sl.c_constant(n, k), n, k, r_max)
    assert profile.r[-1] == r_max and profile.r.size == (2 if gap < 0.02 else 3)
    assert np.diff(np.log(profile.r[1:])).min(initial=np.inf) >= 0.02
    assert sl.liouville_report(profile).max_rel_deviation <= 1e-14


def test_writing_to_a_directory_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigError, match=f"cannot write {re.escape(str(tmp_path))}: "):
        cli._write_text(tmp_path, "text\n")


def test_profile_csv_schema():
    profile = sl.shoot(sl.c_constant(3, 1), 3, 1, 3.0)
    lines = cli._profile_csv(profile).splitlines()
    assert lines[0] == "# sigmak-lab v1"
    assert lines[1] == "r,u,du,sigma_residual,cone_margin"
    assert len(lines) == 2 + profile.r.size
    first = lines[2].split(",")
    assert float(first[0]) == 0.0
    assert float(first[3]) <= 1e-12          # solve closes at machine level
    assert float(first[4]) > 0.0


def _reference_profile_csv(profile) -> bytes:
    """The profile CSV written field by field: one f-string per row with
    `repr` of every float, and the origin row's du as +0.0."""
    _, margin, res = radial._node_solves(profile.r, profile.u, profile.du, profile.n, profile.k)
    du = [0.0] + profile.du.tolist()[1:]
    rows = zip(profile.r.tolist(), profile.u.tolist(), du, res.tolist(), margin.tolist())
    lines = [f"{r!r},{u!r},{d!r},{s!r},{c!r}\n" for r, u, d, s, c in rows]
    return ("# sigmak-lab v1\nr,u,du,sigma_residual,cone_margin\n" + "".join(lines)).encode()


def _homotopy_profile():
    n, k = 4, 2
    spec = sl.BvpSpec(n, k, 5.0, _bubble_r(n, k, 1.0, 5.0), m=256, a_init=1.0)
    return sl.continue_path(spec)[0]


@pytest.mark.parametrize("make", [
    lambda: sl.RadialProfile(*_pinned_rows(), 4, 2),
    lambda: sl.shoot(sl.c_constant(5, 3), 5, 3, 10.0),
    _homotopy_profile,
], ids=["pinned", "shot", "homotopy"])
def test_profile_csv_is_the_repr_of_every_field(make):
    profile = make()
    assert cli._profile_csv(profile).encode() == _reference_profile_csv(profile)


# bit patterns at repr's edges: signed zeros and infinities, subnormals,
# nans of either sign and several payloads, and both sides of the switches
# to exponent notation at 1e16 and below 1e-4
_EDGE_FLOATS = np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308 / 3.0,
                         1e16, np.nextafter(1e16, 0.0), 1e-4, np.nextafter(1e-4, 0.0),
                         1e-5, 2.220446049250313e-16, 1.0, -1.0])
_NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
             0x7FF8DEAD00000001, 0xFFFFFFFFFFFFFFFF]
_FLOAT_BITS = st.one_of(
    st.sampled_from(_EDGE_FLOATS.view(np.int64).tolist()),
    st.sampled_from(np.array(_NAN_BITS, dtype=np.uint64).view(np.int64).tolist()),
    st.integers(-2 ** 63, 2 ** 63 - 1),
    st.floats().map(lambda v: int(np.float64(v).view(np.int64))))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(_FLOAT_BITS, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=40)))
def test_reprs_is_the_repr_of_every_entry(bits):
    a = np.array(bits, dtype=np.int64).view(np.float64)
    assert cli._reprs(a) == [repr(v) for v in a.tolist()]
    assert cli._reprs(a[::2]) == [repr(v) for v in a[::2].tolist()]


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


def test_profile_csv_pins_the_rows_with_no_admissible_solve():
    profile = sl.RadialProfile(*_pinned_rows(), 4, 2)
    rows = np.array([[float(v) for v in line.split(",")]
                     for line in cli._profile_csv(profile).splitlines()[2:]])
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


def test_pair_sigma_matches_the_term_by_term_powers():
    # on arrays, from the caller's table of lam_tan powers, the margin and
    # e_k of `_pair_e`'s term-by-term powers, bit for bit
    rng = np.random.default_rng(73)
    for k in range(1, 7):
        combs = [math.comb(6, j) for j in range(k + 1)]
        lam_rad, lam_tan = rng.normal(size=(2, 50))
        margin, sigma_k = _pair_sigma(lam_rad, [lam_tan ** j for j in range(k + 1)], combs)
        e = radial._pair_e(lam_rad, lam_tan, combs)
        np.testing.assert_array_equal(margin, np.min(e, axis=0))
        np.testing.assert_array_equal(sigma_k, e[-1])


def test_pair_sigma_closed_form_matches_generic():
    rng = np.random.default_rng(71)
    for _ in range(100):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        pair = sl.EigenPair(float(rng.normal()), float(rng.normal()))
        combs = [math.comb(n - 1, j) for j in range(k + 1)]
        margin, sigma_k = _pair_sigma(pair.lam_rad, [pair.lam_tan ** j for j in range(k + 1)],
                                      combs)
        generic = [sl.sigma(pair.vector(n), j) for j in range(1, k + 1)]
        assert sigma_k == pytest.approx(generic[-1], rel=1e-12, abs=1e-12)
        assert margin == pytest.approx(min(generic), rel=1e-12, abs=1e-12)
        # the array form agrees with the float form (numpy powers may differ by an ulp)
        lam_tan = np.array([pair.lam_tan])
        arr = _pair_sigma(np.array([pair.lam_rad]), [lam_tan ** j for j in range(k + 1)], combs)
        assert arr[0][0] == pytest.approx(margin, rel=1e-14, abs=1e-15)
        assert arr[1][0] == pytest.approx(sigma_k, rel=1e-14, abs=1e-15)
