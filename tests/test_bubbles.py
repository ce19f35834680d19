"""Closed-form family, residual verification, and the Harnack functional."""

import math
import re
import warnings

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab import bubbles
from sigmak_lab.errors import ConfigError, FloatRangeError, PoleError, \
    PositivityError, SigmakLabError, check_count
from sigmak_lab.halton import box_points, sphere_directions

from fd_oracles import fd_jet_of_field, sweep_rows_mp
from field_factories import centered_bubble


def _bubble_value(n, k, a, r):
    return sl.c_constant(n, k) * (a / (1.0 + a * a * r * r)) ** ((n - 2.0) / 2.0)


# ---------------------------------------------------------------------------
# c_constant
# ---------------------------------------------------------------------------

def test_c_constant_values():
    assert sl.c_constant(3, 1) == pytest.approx(6.0 ** 0.25, rel=1e-15)
    assert sl.c_constant(3, 1) == pytest.approx(1.56508, abs=5e-6)
    assert sl.c_constant(4, 1) == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert sl.c_constant(4, 2) == pytest.approx(math.sqrt(2.0) * 6.0 ** 0.25,
                                                rel=1e-15)
    # k = 1 collapses to (2n)^{(n-2)/4}
    for n in range(3, 9):
        assert sl.c_constant(n, 1) == pytest.approx((2.0 * n) ** ((n - 2.0) / 4.0),
                                                    rel=1e-14)


def test_c_constant_validation():
    for n, k in [(2, 1), (4, 0), (4, 5), (4.0, 2), (4, 2.0)]:
        with pytest.raises(ConfigError):
            sl.c_constant(n, k)


@pytest.mark.parametrize("n, k", [(100_000, 1), (3000, 1500), (424, 1)])
def test_c_constant_past_the_float_range_names_n_and_k(n, k):
    # 2^{(n-2)/4} overflows, C(n, k) is no float, and both factors fit but not
    # their product (once a silent inf)
    with pytest.raises(FloatRangeError, match=rf"at n={n}, k={k}$") as info:
        sl.c_constant(n, k)
    assert info.value.where == (n, k)


def test_c_constant_closes_the_isotropic_equation():
    for n in range(3, 9):
        for k in range(1, n + 1):
            lam = np.full(n, math.comb(n, k) ** (-1.0 / k))
            assert sl.sigma(lam, k) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# bubble_field
# ---------------------------------------------------------------------------

def test_bubble_center_value_and_decay():
    for n, k, a in [(3, 1, 1.0), (4, 2, 2.5), (6, 3, 0.3)]:
        center = np.linspace(-0.4, 0.4, n)
        u = centered_bubble(sl.BubbleSpec(n, k, a), center)
        m = (n - 2.0) / 2.0
        assert u.values(center[None])[0] == pytest.approx(sl.c_constant(n, k) * a ** m,
                                                          rel=1e-14)
        far = center + 1e3 * np.ones(n) / math.sqrt(n)
        rho = np.linalg.norm(far - center)
        assert rho ** (n - 2.0) * u.values(far[None])[0] \
            == pytest.approx(sl.c_constant(n, k) * a ** (-m), rel=1e-4)


def test_bubble_jets_match_finite_differences():
    u = centered_bubble(sl.BubbleSpec(4, 2, 1.3), [0.1, -0.2, 0.0, 0.4])
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = rng.normal(size=4)
        val, grad, hess = u.raw_jet(x)
        ref_val, ref_grad, ref_hess = fd_jet_of_field(u, x)
        assert val == pytest.approx(ref_val, rel=1e-13)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-6)
        np.testing.assert_allclose(hess, ref_hess, atol=1e-4)


def test_bubble_spec_validation():
    with pytest.raises(ConfigError):
        sl.BubbleSpec(2, 1, 1.0)
    with pytest.raises(ConfigError):
        sl.BubbleSpec(3, 1, -1.0)
    with pytest.raises(ConfigError):
        sl.BubbleSpec(3, 4, 1.0)


# ---------------------------------------------------------------------------
# verify_solution
# ---------------------------------------------------------------------------

def test_verify_bubble_residual_floor():
    for n in (3, 5):
        for k in (1, n):
            u = sl.bubble_field(sl.BubbleSpec(n, k, 1.2))
            rep = sl.verify_solution(u, n, k, box_points(1000, n))
            assert rep.max_residual <= 1e-8
            assert rep.min_margin > 0.0
            assert rep.cone_violations == 0


def test_verify_far_samples():
    # residual floor survives samples far from the concentration scale
    u = sl.bubble_field(sl.BubbleSpec(4, 2, 1.0))
    far = np.vstack([np.full(4, 500.0), np.full(4, -500.0),
                     np.array([1e3, 0.0, 0.0, 0.0])])
    rep = sl.verify_solution(u, 4, 2, sample_points=far)
    assert rep.max_residual <= 1e-8


def test_verify_constant_field_boundary_case():
    u = sl.constant_field(1.0, 3)
    rep = sl.verify_solution(u, 3, 2, box_points(50, 3))
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.min_margin == 0.0
    assert rep.cone_violations == 50
    assert rep.first_violation is not None


def test_verify_mobius_image_of_bubble():
    rng = np.random.default_rng(43)
    u = sl.bubble_field(sl.BubbleSpec(3, 2, 1.0))
    psi = sl.random_mobius_map(rng, 3)
    pts = []
    while len(pts) < 200:
        x = rng.normal(scale=1.5, size=3)
        if all(np.linalg.norm(x - p) > 0.05 for p in psi.poles(3)):
            pts.append(x)
    rep = sl.verify_solution(sl.transform_field(u, psi), 3, 2,
                             sample_points=np.array(pts))
    assert rep.max_residual <= 1e-8
    assert rep.min_margin > 0.0


def test_verify_reports_are_reproducible():
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 2.0))
    r1 = sl.verify_solution(u, 3, 1, box_points(100, 3))
    r2 = sl.verify_solution(u, 3, 1, box_points(100, 3))
    assert r1.max_residual == r2.max_residual
    np.testing.assert_array_equal(r1.worst_point, r2.worst_point)


def _same_report(got, want):
    """Two SolutionReports equal bit for bit, points included."""
    for name, value in vars(want).items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(getattr(got, name), value)
        else:
            assert getattr(got, name) == value, name


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_verify_images_equals_each_image_verified_alone(seed):
    # one stacked pass over u and three word images against verify_solution of
    # u and of each transform_field(u, psi), bit for bit, every pair n <= 8
    rng = np.random.default_rng(seed)
    for n in range(3, 9):
        pts = box_points(40, n, halfwidth=2.5)
        words = [sl.random_mobius_map_avoiding(rng, n, pts, 1e-2) for _ in range(3)]
        for k in range(1, n + 1):
            u = sl.bubble_field(sl.BubbleSpec(n, k, float(rng.uniform(0.3, 3.0))))
            reports = sl.verify_images(u, words, n, k, pts)
            alone = [sl.verify_solution(u, n, k, pts)] + [
                sl.verify_solution(sl.transform_field(u, psi), n, k, pts) for psi in words]
            assert len(reports) == 4
            for got, want in zip(reports, alone):
                _same_report(got, want)
                assert want.max_residual <= 1e-7 and want.cone_violations == 0


def test_verify_images_of_no_words_is_the_field_alone():
    pts = box_points(30, 4)
    for u in (sl.bubble_field(sl.BubbleSpec(4, 2, 1.3)), sl.constant_field(1.0, 4)):
        reports = [sl.verify_images(u, words, 4, 2, pts) for words in ((), [])]
        assert [len(r) for r in reports] == [1, 1]
        _same_report(reports[0][0], reports[1][0])
        _same_report(reports[0][0], sl.verify_solution(u, 4, 2, pts))


def _first_error(calls):
    for call in calls:
        try:
            call()
        except SigmakLabError as exc:
            return exc
    raise AssertionError("no call raised")


def test_verify_images_raises_the_first_error_of_the_fields_verified_one_by_one():
    # u is positive only on the ball of radius 3: the second word doubles the
    # samples and its images leave the ball first; a third word has its pole
    # at a sample
    n = 3
    bubble = bubbles.bubble_field(sl.BubbleSpec(n, 2, 1.0))

    def jets(X):
        val, grad, hess = bubble._jets(X)
        return np.where(np.linalg.norm(X, axis=1) > 3.0, 0.0, val), grad, hess

    u = sl.ScalarField(n, jets=jets)
    pts = box_points(60, n, halfwidth=1.5)
    shrink, grow = sl.MobiusMap((sl.Dilation(0.5),)), sl.MobiusMap((sl.Dilation(2.0),))
    at_pole = sl.MobiusMap((sl.Translation(-pts[7]), sl.Inversion()))

    def one_by_one(words):
        return _first_error([lambda: sl.verify_solution(u, n, 2, pts)] + [
            lambda psi=psi: sl.verify_solution(sl.transform_field(u, psi), n, 2, pts)
            for psi in words])

    with pytest.raises(PositivityError) as info:
        sl.verify_images(u, [shrink, grow], n, 2, pts)
    before = one_by_one([shrink, grow])
    assert type(info.value) is type(before) and str(info.value) == str(before)
    first = np.flatnonzero(np.linalg.norm(2.0 * pts, axis=1) > 3.0)[0]
    assert str(2.0 * pts[first]) in str(before)
    with pytest.raises(PoleError, match="hit its pole"):
        sl.verify_images(u, [shrink, at_pole], n, 2, pts)
    assert isinstance(one_by_one([shrink, at_pole]), PoleError)


@pytest.mark.parametrize("a, error", [(1e200, PositivityError), (1e-200, FloatRangeError),
                                      (1e-300, FloatRangeError)])
def test_verify_past_the_float_range_raises_without_a_warning(a, error):
    # at a = 1e200 a^2 |x|^2 overflows and the values fall to 0; at 1e-200 and
    # 1e-300 the values are finite but u^{-(n+2)/(n-2)} overflows in A(u); with
    # or without a word image, no float warning escapes and the error names a sample
    pts = box_points(100, 3)
    u = sl.bubble_field(sl.BubbleSpec(3, 2, a))
    word = sl.random_mobius_map_avoiding(np.random.default_rng(3), 3, pts, 1e-2)
    for words in ((), (word,)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                sl.verify_images(u, words, 3, 2, pts)
        assert any(np.array_equal(info.value.where, x) for x in pts)


def test_verify_names_the_first_sample_where_sigma_k_overflows():
    # u = 1e-40 with hessian -I: A(u) = (2 / (n-2)) 1e200 I is finite, but
    # sigma_2 of its eigenvalues is not; sigma_1 alone is a finite report
    n, pts = 3, box_points(6, 3)

    def jets(X):
        return np.full(len(X), 1e-40), np.zeros(X.shape), np.tile(-np.eye(n), (len(X), 1, 1))

    u = sl.ScalarField(n, jets=jets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatRangeError, match="sigma_1..sigma_k is not finite") as info:
            sl.verify_solution(u, n, 2, pts)
        rep = sl.verify_solution(u, n, 1, pts)
    np.testing.assert_array_equal(info.value.where, pts[0])
    assert rep.max_residual == pytest.approx(6e200, rel=1e-12)


def test_bubble_amplitude_past_the_float_range_names_the_scale():
    # c a^m with m = 3 overflows a float at a = 1e110: an error that names a, not
    # a builtin OverflowError, and not a configuration error
    for a in (1e110, 10 ** 110):
        field = sl.bubble_field(sl.BubbleSpec(8, 2, a))
        with pytest.raises(FloatRangeError, match=re.escape(f"a={a!r}")) as info:
            field.values(np.zeros((1, 8)))
        assert not isinstance(info.value, ConfigError) and info.value.where == a
    with pytest.raises(FloatRangeError):
        bubbles._bubble(8, 2, 1e103, np.zeros((1, 8)))  # c a^3 alone overflows
    assert np.isfinite(bubbles._bubble(8, 2, 1e100, np.zeros((1, 8)))[0]).all()


# ---------------------------------------------------------------------------
# kelvin self-duality (field-level check lives here with the family)
# ---------------------------------------------------------------------------

def test_kelvin_self_duality_of_the_family():
    rng = np.random.default_rng(47)
    for n, k, a in [(3, 1, 0.5), (5, 2, 3.0)]:
        u = sl.transform_field(sl.bubble_field(sl.BubbleSpec(n, k, a)),
                               sl.MobiusMap((sl.Inversion(),)))
        dual = sl.bubble_field(sl.BubbleSpec(n, k, 1.0 / a))
        X = rng.normal(size=(25, n))
        X = X[np.linalg.norm(X, axis=1) >= 0.05]
        assert u.values(X) == pytest.approx(dual.values(X), rel=1e-10)


# ---------------------------------------------------------------------------
# harnack product
# ---------------------------------------------------------------------------

def test_harnack_centered_bubble_matches_analytic_extrema():
    for n, k in [(3, 1), (4, 2)]:
        for a in (0.5, 1.0, 20.0):
            u = sl.bubble_field(sl.BubbleSpec(n, k, a))
            rep = sl.harnack_product(u, 1.0)
            exact = _bubble_value(n, k, a, 0.0) * _bubble_value(n, k, a, 2.0)
            assert rep.product_scaled == pytest.approx(exact, rel=1e-12)
            limit = sl.c_constant(n, k) ** 2 * 2.0 ** (2.0 - n)
            assert rep.product_scaled <= limit * (1.0 + 1e-12)


def test_harnack_limit_at_large_scale():
    n, k = 3, 1
    limit = sl.c_constant(n, k) ** 2 * 0.5
    u = sl.bubble_field(sl.BubbleSpec(n, k, 1e4))
    rep = sl.harnack_product(u, 1.0)
    assert rep.product_scaled == pytest.approx(limit, rel=1e-6)


def test_harnack_constant_field_flagged_as_non_solution():
    u = sl.constant_field(3.0, 3)
    rep = sl.harnack_product(u, 2.0)
    assert rep.product_scaled == pytest.approx(9.0 * 2.0)
    # the report holds no verdict; the residual check flags the field
    assert sl.verify_solution(u, 3, 1, box_points(8, 3, halfwidth=2.0)).max_residual > 1e-6
    # and the product grows with R, unlike for solutions
    rep2 = sl.harnack_product(u, 4.0)
    assert rep2.product_scaled > rep.product_scaled


@pytest.mark.parametrize("field", ["R", "max_br", "min_2br", "product_scaled"])
def test_harnack_report_names_the_entry_that_is_not_positive(field):
    entries = {"R": 1.0, "max_br": 2.0, "min_2br": 0.5, "product_scaled": 1.0}
    x = np.zeros(3)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(PositivityError, match=f"is not positive at {field}") as info:
            sl.HarnackReport(**{**entries, field: bad}, argmax=x, argmin=x)
        assert info.value.where == field
    sl.HarnackReport(**{**entries, field: math.inf}, argmax=x, argmin=x)  # inf is positive


def test_harnack_off_center_bubble():
    n, k, a = 3, 1, 1.0
    u = centered_bubble(sl.BubbleSpec(n, k, a), [4.0, 0.0, 0.0])  # outside B_2R
    rep = sl.harnack_product(u, 1.0)
    # extrema sit on the segment through the off-center peak
    assert rep.max_br == pytest.approx(_bubble_value(n, k, a, 3.0), rel=1e-10)
    assert rep.min_2br == pytest.approx(_bubble_value(n, k, a, 6.0), rel=1e-10)


def test_harnack_rejects_nonpositive_fields():
    n = 3

    def evaluator(x):
        return 1.0 - float(x @ x), -2.0 * x, -2.0 * np.eye(n)

    u = sl.ScalarField(n, evaluator)
    with pytest.raises(PositivityError):
        sl.harnack_product(u, 1.0)


def test_sweep_names_a_point_where_the_family_underflows():
    # at a = 1e-200, n = 6 the values c a^2 W^-2 underflow to 0; every row is
    # checked, so the sweep raises and names a point
    with pytest.raises(PositivityError, match="is not positive at") as info:
        sl.harnack_sweep(6, 3, [1e-200], [1.0], mobius_words=1)
    assert info.value.where.shape == (6,) and info.value.value == 0.0


def test_harnack_grid_directions_built_once_per_size(monkeypatch):
    bubbles._grid_directions.cache_clear()
    calls = []

    def counting(count, dim):
        calls.append((count, dim))
        return sphere_directions(count, dim)

    monkeypatch.setattr(bubbles, "sphere_directions", counting)
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 2.0))
    for R in (0.5, 1.0, 2.0):
        sl.harnack_product(u, R, n_radial=8, n_angular=4)
    assert calls == [(8, 3)]
    bubbles._grid_directions.cache_clear()


def test_sweep_walks_each_word_a_fixed_number_of_times(monkeypatch):
    # the sweep reads each word's matrix and walks no point, however many
    # scales share the word: the same calls for 25 scales as for 2
    calls = []
    walk, matrix = sl.MobiusMap._walk, sl.MobiusMap._matrix

    def counting_walk(self, X):
        calls.append(("walk", len(X)))
        return walk(self, X)

    def counting_matrix(self, n):
        calls.append(("matrix", n))
        return matrix(self, n)

    monkeypatch.setattr(sl.MobiusMap, "_walk", counting_walk)
    monkeypatch.setattr(sl.MobiusMap, "_matrix", counting_matrix)

    def walks(a_count):
        calls.clear()
        rows = sl.harnack_sweep(3, 1, np.geomspace(1e-2, 1e4, a_count), [1.0, 2.0],
                                mobius_words=2)
        assert len(rows) == 3 * 2 * a_count
        return list(calls)

    many = walks(25)
    assert many == walks(2)
    assert many and set(many) == {("matrix", 3)}


@pytest.mark.parametrize("n,k", [(3, 2), (5, 5), (6, 3)])
def test_sweep_rows_do_not_depend_on_the_block_size(n, k):
    # one scale per sweep against all 25 scales in one array expression:
    # equal bits, row for row
    a_grid, r_grid = np.geomspace(1e-2, 1e4, 25), [0.5, 1.0]

    def rows(scales):
        return sl.harnack_sweep(n, k, scales, r_grid, mobius_words=2, seed=5)

    whole = rows(a_grid)
    single = [rows([a]) for a in a_grid]  # each label-major: 3 labels, then R
    assert len(whole) == 3 * 25 * 2
    assert all(len(part) == 3 * len(r_grid) for part in single)
    assert whole == [row for j in range(3) for part in single
                     for row in part[j * len(r_grid):(j + 1) * len(r_grid)]]


def _full_grid(n, R, n_radial, n_angular):
    # the reference grid points about the origin: B_R's shells, then every one
    # of them doubled
    shell = (np.linspace(0.0, R, n_radial)[:, None, None]
             * bubbles._grid_directions(n, n_angular)).reshape(-1, n)
    return (np.array([1.0, 2.0])[:, None, None] * shell).reshape(-1, n)


def _full_scan(values, pts):
    # the reference scan, a loop: the first largest value over the first
    # half of the points, then the first least over the second
    half = len(pts) // 2
    return pts[[max(range(half), key=values.__getitem__),
                min(range(half, len(pts)), key=values.__getitem__)]]


def _with_full_scan(monkeypatch, run):
    with monkeypatch.context() as patch:
        patch.setattr(bubbles, "_harnack_grid", _full_grid)
        patch.setattr(bubbles, "_grid_extrema", _full_scan)
        return run()


@pytest.mark.parametrize("n_radial", [1, 2, 3, 48, 99])
@pytest.mark.parametrize("n,k", [(3, 2), (5, 5), (6, 3)])
def test_sweep_rows_equal_the_full_grid_scan(n, k, n_radial):
    # every field of the sweep valued in full on the reference grid of each
    # radius: the bubble rows equal its extrema (the grid holds the origin
    # and, from two radii on, B_2R's sphere), and no word image's grid
    # extrema pass the exact rows. Each grid is walked once per word, and an
    # image's values are |det J|^((n-2)/(2n)) u(psi(x)), bit for bit those of
    # transform_field, without the hessians its jets form
    a_grid, r_grid, words, seed = np.geomspace(1e-2, 1e4, 7), [0.5, 1.0, 2.5], 2, 7
    rows = iter(sl.harnack_sweep(n, k, a_grid, r_grid, mobius_words=words, seed=seed))
    rng = np.random.default_rng(seed)
    clearance = 3.0 * max(r_grid) + 0.5
    psis = [None] + [sl.random_mobius_map_avoiding(rng, n, np.zeros(n), clearance)
                     for _ in range(words)]
    grids = [_full_grid(n, R, n_radial, 16) for R in r_grid]
    for psi in psis:
        images = [(pts, 1.0) for pts in grids] if psi is None else [
            (st.y, np.exp((n - 2.0) / (2.0 * n) * st.log_det)) for st in map(psi._walk, grids)]
        for a in a_grid:
            for R, pts, (y, c) in zip(r_grid, grids, images):
                row, vals = next(rows), c * bubbles._bubble(n, k, a, y)[0]
                half = len(pts) // 2
                grid_max, grid_min = vals[:half].max(), vals[half:].min()
                assert (row.a, row.R) == (a, R)
                assert grid_max <= row.max_br * (1.0 + 1e-14)
                assert grid_min >= row.min_2br * (1.0 - 1e-14)
                if psi is None:
                    assert abs(grid_max - row.max_br) <= 2e-15 * row.max_br
                    if n_radial > 1:
                        assert abs(grid_min - row.min_2br) <= 2e-15 * row.min_2br
    assert next(rows, None) is None


@pytest.mark.parametrize("target", [1.0, np.linspace(0.0, 1.0, 99)[40], None],
                         ids=["edge", "shared", "constant"])
def test_harnack_product_equals_the_full_grid_scan(monkeypatch, target):
    # u = 1e-300 + (x_0 - target)^2 (constant 2 for None) around the origin,
    # R = 1, 99 radii: the least grid value on B_2 sits on
    # B_2R's shell 49 along e_0 (radius 2 rho_49 = 1 - 2^-53, not B_R's
    # radius 1), on its shell 20 (B_R's shell 40), or everywhere (the first
    # point wins). harnack_product keys every doubled shell with u's values,
    # so its grid extrema are the reference's. The hessian is singular, so
    # the polish keeps the grid extrema and the reports must agree to the bit.
    n = 3

    def jets(X):
        val = np.full(len(X), 2.0) if target is None else 1e-300 + (X[:, 0] - target) ** 2
        grad, hess = np.zeros((len(X), n)), np.zeros((len(X), n, n))
        if target is not None:
            grad[:, 0], hess[:, 0, 0] = 2.0 * (X[:, 0] - target), 2.0
        return val, grad, hess

    field = sl.ScalarField(n, jets=jets)

    def product():
        return sl.harnack_product(field, 1.0, n_radial=99, n_angular=16)

    rep, ref = product(), _with_full_scan(monkeypatch, product)
    grid_min = {1.0: [1.0 - 2.0 ** -53, 0.0, 0.0], None: np.zeros(n)}.get(target, [target, 0.0, 0.0])
    np.testing.assert_array_equal(rep.argmin, grid_min)
    assert (rep.R, rep.max_br, rep.min_2br, rep.product_scaled) \
        == (ref.R, ref.max_br, ref.min_2br, ref.product_scaled)
    np.testing.assert_array_equal(rep.argmax, ref.argmax)
    np.testing.assert_array_equal(rep.argmin, ref.argmin)


def _polish_rule_fields(n):
    # u = 1 + |x - p|^2 / 2: every Newton step lands on p, which projects
    # onto 2 p_hat, the exact minimum over B_2 and no grid point
    p = 10.0 * np.ones(n) / math.sqrt(n)

    def quadratic(X):
        d = X - p
        val = 1.0 + 0.5 * np.einsum("ij,ij->i", d, d)
        return val, d, np.broadcast_to(np.eye(n), (len(X), n, n))

    def overflowing(X):
        # u = 2 + x_0 / 10 with a hessian so small that the step overflows
        val = 2.0 + 0.1 * X[:, 0]
        return val, np.tile(np.eye(n)[0] * 0.1, (len(X), 1)), \
            np.broadcast_to(1e-320 * np.eye(n), (len(X), n, n))

    exact_min = 1.0 + 0.5 * 8.0 ** 2
    return [sl.constant_field(2.0, n), sl.ScalarField(n, jets=overflowing),
            sl.ScalarField(n, jets=quadratic)], exact_min


def test_harnack_polish_rules_per_field():
    # the constant field's hessian is singular, so the solve raises and both
    # grid extrema stay; the overflowing step keeps its grid values; the
    # quadratic's step reaches the exact minimum over B_2R, no grid point
    n, R = 3, 1.0
    (constant, overflowing, quadratic), exact_min = _polish_rule_fields(n)

    def product(field):
        return sl.harnack_product(field, R, n_radial=3, n_angular=2)

    rep = product(constant)
    assert (rep.max_br, rep.min_2br) == (2.0, 2.0)
    np.testing.assert_array_equal(rep.argmax, np.zeros(n))
    np.testing.assert_array_equal(rep.argmin, np.zeros(n))
    # the overflowing field's extrema are the grid points R e_0 and -2R e_0
    rep = product(overflowing)
    assert (rep.max_br, rep.min_2br) == (2.0 + 0.1 * R, 2.0 + 0.1 * (-2.0 * R))
    np.testing.assert_array_equal(rep.argmax, R * np.eye(n)[0])
    np.testing.assert_array_equal(rep.argmin, -2.0 * R * np.eye(n)[0])
    rep = product(quadratic)
    assert rep.min_2br == pytest.approx(exact_min, rel=1e-14)
    np.testing.assert_allclose(rep.argmin, 2.0 * R * np.ones(n) / math.sqrt(n), rtol=1e-15)


def test_harnack_grid_directions_are_read_only():
    dirs = bubbles._grid_directions(4, 6)
    assert dirs.shape == (2 * 4 + 6 * 3, 4)
    with pytest.raises(ValueError):
        dirs[0, 0] = 2.0


_DOUBLE_BALL_CASES = [(3, 1, 1.0), (3, 2, 1.0), (4, 2, 1.0), (5, 3, 1.0)] + [
    (n, k, R) for R in (0.75, 1.25, 1.5) for n, k in [(3, 1), (4, 2), (5, 3)]]


@pytest.mark.parametrize("n,k,R", _DOUBLE_BALL_CASES, ids=[
    f"{n}-{k}" if R == 1.0 else f"{n}-{k}-R{R}" for n, k, R in _DOUBLE_BALL_CASES])
def test_harnack_of_a_profile_on_exactly_the_double_ball(n, k, R):
    # the bubble's least value on B_2R lies on its edge sphere: the grid's
    # outer shell, fl(2 fl(R d)), and the polish trial points projected onto
    # it sit a few ulps to either side (1 to 63 grid points past 2R here)
    rep = sl.harnack_product(sl.bubble_field(sl.BubbleSpec(n, k, 1.0)), R)
    exact = _bubble_value(n, k, 1.0, 0.0) * _bubble_value(n, k, 1.0, 2.0 * R) \
        * R ** (n - 2.0)
    assert rep.product_scaled == pytest.approx(exact, rel=1e-14)
    assert float(np.linalg.norm(rep.argmin)) == pytest.approx(2.0 * R, rel=1e-15)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_grid():
    assert sl.harnack_sweep(3, 1, [], [1.0]) == []
    assert sl.harnack_sweep(3, 1, [1.0], []) == []


def test_sweep_scale_invariance():
    # the scaled product of the centered family depends on a*R only
    rows_1 = sl.harnack_sweep(3, 1, [2.0], [1.0])
    rows_2 = sl.harnack_sweep(3, 1, [1.0], [2.0])
    assert rows_1[0].product_scaled == pytest.approx(rows_2[0].product_scaled,
                                                     rel=1e-12)


def test_sweep_supremum_approaches_limit():
    rows = sl.harnack_sweep(3, 1, np.geomspace(1e-2, 1e4, 25), [1.0])
    sup = max(row.product_scaled for row in rows)
    limit = sl.c_constant(3, 1) ** 2 * 0.5
    assert sup <= limit * 1.01
    assert sup == pytest.approx(limit, rel=0.01)


def test_sweep_with_word_images_stays_bounded():
    rows = sl.harnack_sweep(3, 2, [0.5, 1.0], [1.0], mobius_words=2, seed=5)
    labels = {row.label for row in rows}
    assert "bubble" in labels and "mobius0" in labels and "mobius1" in labels
    limit = sl.c_constant(3, 2) ** 2 * 0.5
    # images are again solutions, so the same bound holds, to rounding
    assert all(row.product_scaled <= limit * (1.0 + 1e-12) for row in rows)


def test_sweep_deterministic_order():
    rows_a = sl.harnack_sweep(3, 1, [0.5, 1.0], [1.0, 2.0])
    rows_b = sl.harnack_sweep(3, 1, [0.5, 1.0], [1.0, 2.0])
    assert rows_a == rows_b
    assert [(r.a, r.R) for r in rows_a] == [(0.5, 1.0), (0.5, 2.0),
                                            (1.0, 1.0), (1.0, 2.0)]


def _assert_sweep_is_exact(rows, n, k, a_grid, r_grid, mobius_words, seed):
    """Every row in order, within 1e-12 relative of the 50-digit oracle, and
    at or below the Harnack bound c(n,k)^2 2^(2-n) to 1e-12, word rows included."""
    want = sweep_rows_mp(n, k, a_grid, r_grid, mobius_words, seed)
    labels = ["bubble"] + [f"mobius{j}" for j in range(mobius_words)]
    assert [(row.label, row.n, row.k, row.a, row.R) for row in rows] == [
        (label, n, k, float(a), float(R)) for label in labels for a in a_grid for R in r_grid]
    got = np.array([(row.max_br, row.min_2br, row.product_scaled) for row in rows])
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert got[:, 2].max() <= sl.c_constant(n, k) ** 2 * 2.0 ** (2.0 - n) * (1.0 + 1e-12)


@pytest.mark.parametrize("seed", [5, 11])
def test_sweep_rows_match_the_50_digit_oracle(seed):
    # all 18 pairs with n <= 6, at the bench's settings (25 scales, R = 1,
    # two words) and at the CLI's defaults (a = R = 1, no word)
    for n in range(3, 7):
        for k in range(1, n + 1):
            for a_grid, mobius_words in ((np.geomspace(1e-2, 1e4, 25), 2), ([1.0], 0)):
                rows = sl.harnack_sweep(n, k, a_grid, [1.0], mobius_words=mobius_words,
                                        seed=seed)
                _assert_sweep_is_exact(rows, n, k, a_grid, [1.0], mobius_words, seed)


def test_sweep_rows_match_the_oracle_across_radii():
    # several radii, so B_R holds the image's peak for some rows and not others
    a_grid, r_grid = [0.3, 1.0, 40.0], [0.25, 0.75, 1.0, 3.0]
    for n, k in [(3, 2), (5, 3), (8, 8)]:
        rows = sl.harnack_sweep(n, k, a_grid, r_grid, mobius_words=3, seed=7)
        _assert_sweep_is_exact(rows, n, k, a_grid, r_grid, 3, 7)


@pytest.mark.parametrize("a", [1e200, 1e155, 1e-200],
                         ids=["overflow", "max-overflows-alone", "underflow"])
def test_sweep_past_the_float_range_raises_without_a_warning(a):
    # at 1e155 (n = 6) the max overflows while the min stays a subnormal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SigmakLabError):
            sl.harnack_sweep(6, 3, [a], [1.0], mobius_words=1)


# harnack_product's grid sizes: its defaults, fewer directions, a coarse grid
_ORACLE_CASES = [(3, 2, 64, 64), (5, 3, 64, 64), (3, 2, 64, 40), (5, 3, 12, 6)]


@pytest.mark.parametrize("n,k,n_radial,n_angular", _ORACLE_CASES)
def test_sweep_rows_match_per_cell_harnack_products(n, k, n_radial, n_angular):
    # one transformed field and one harnack_product per cell: the bubble
    # rows (the untransformed field) agree, and the grid extrema of a word
    # image, polished or not, never pass the exact ones
    a_grid, r_grid, seed = [0.3, 1.0, 40.0], [0.75, 1.0], 11
    rows = sl.harnack_sweep(n, k, a_grid, r_grid, mobius_words=2, seed=seed)
    rng = np.random.default_rng(seed)
    clearance = 3.0 * max(r_grid) + 0.5
    words = [None] + [sl.random_mobius_map_avoiding(rng, n, np.zeros(n), clearance)
                      for _ in range(2)]
    assert len(rows) == len(words) * len(a_grid) * len(r_grid)
    cells = iter(rows)
    for psi in words:
        for a in a_grid:
            u = sl.bubble_field(sl.BubbleSpec(n, k, a))
            fld = u if psi is None else sl.transform_field(u, psi)
            for R in r_grid:
                row = next(cells)
                rep = sl.harnack_product(fld, R, n_radial=n_radial, n_angular=n_angular)
                assert (row.a, row.R) == (a, R)
                if psi is None:
                    for got, want in ((row.max_br, rep.max_br), (row.min_2br, rep.min_2br),
                                      (row.product_scaled, rep.product_scaled)):
                        assert abs(got - want) <= 2e-15 * want
                else:
                    assert rep.max_br <= row.max_br * (1.0 + 1e-14)
                    assert rep.min_2br >= row.min_2br * (1.0 - 1e-14)


def test_verify_dimension_mismatch_is_a_configuration_error():
    u = sl.bubble_field(sl.BubbleSpec(3, 2, 1.0))
    with pytest.raises(ConfigError, match="field dimension 3 does not match n=4"):
        sl.verify_solution(u, 4, 2, np.ones((2, 4)))


def test_negative_harnack_counts_are_configuration_errors():
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 1.0))
    with pytest.raises(ConfigError, match="n_angular=-4"):
        sl.harnack_product(u, 1.0, n_radial=4, n_angular=-4)
    with pytest.raises(ConfigError, match="mobius_words=-2"):
        sl.harnack_sweep(3, 1, [1.0], [1.0], mobius_words=-2)


def test_sweep_word_count_and_seed_must_be_nonnegative_integers():
    # one check_count for both: a float, a bool, a string or None is no count,
    # where numpy integers are
    for value in (1.5, True, False, -1, "1", None):
        for name in ("mobius_words", "seed"):
            with pytest.raises(ConfigError, match=rf"{name}=.* must be an integer >= 0"):
                sl.harnack_sweep(3, 1, [1.0], [1.0], **{name: value})
    rows = sl.harnack_sweep(3, 1, [1.0], [1.0], mobius_words=np.int64(1), seed=np.uint8(2))
    assert rows == sl.harnack_sweep(3, 1, [1.0], [1.0], mobius_words=1, seed=2)
    for value in (0, np.int32(7), 2 ** 70):
        check_count("--seed", value, 0, math.inf)
    with pytest.raises(ConfigError, match="--images=-2 must be an integer >= 0"):
        check_count("--images", -2, 0, math.inf)


def test_verify_rejects_empty_sample_set():
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 1.0))
    with pytest.raises(ConfigError):
        sl.verify_solution(u, 3, 1, sample_points=np.empty((0, 3)))
    with pytest.raises(ConfigError):
        sl.verify_solution(u, 3, 1, box_points(0, 3))


def test_verify_ties_go_to_the_first_sample():
    # a constant field has the same residual and a zero margin everywhere
    pts = sl.halton.box_points(20, 3)
    rep = sl.verify_solution(sl.constant_field(1.0, 3), 3, 2, sample_points=pts)
    for where in (rep.worst_point, rep.margin_point, rep.first_violation):
        np.testing.assert_array_equal(where, pts[0])


def test_verify_matches_a_per_point_reference_loop():
    rng = np.random.default_rng(47)
    pts = sl.halton.box_points(60, 4, halfwidth=2.0)
    u = sl.bubble_field(sl.BubbleSpec(4, 3, 0.8))
    psi = sl.random_mobius_map_avoiding(rng, 4, pts, 0.1)
    v = sl.transform_field(u, psi)
    rep = sl.verify_solution(v, 4, 3, sample_points=pts)
    lams = [sl.schouten_spectrum(v.jet(x)) for x in pts]
    res = [abs(sl.sigma(lam, 3) - 1.0) for lam in lams]
    margins = [sl.in_gamma_k(lam, 3).margin for lam in lams]
    assert rep.max_residual == pytest.approx(max(res), abs=1e-13)
    assert rep.min_margin == pytest.approx(min(margins), rel=1e-12)
    assert rep.cone_violations == 0 and rep.first_violation is None
