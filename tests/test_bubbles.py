"""Closed-form family, residual verification, and the Harnack functional."""

import math

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab import bubbles
from sigmak_lab.errors import ConfigError, PositivityError
from sigmak_lab.halton import sphere_directions

from fd_oracles import fd_jet_of_field


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
    for n, k in [(2, 1), (4, 0), (4, 5)]:
        with pytest.raises(ValueError):
            sl.c_constant(n, k)


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
        u = sl.bubble_field(sl.BubbleSpec(n, k, a, center=center))
        m = (n - 2.0) / 2.0
        assert u.value(center) == pytest.approx(sl.c_constant(n, k) * a ** m,
                                                rel=1e-14)
        far = center + 1e3 * np.ones(n) / math.sqrt(n)
        rho = np.linalg.norm(far - center)
        assert rho ** (n - 2.0) * u.value(far) \
            == pytest.approx(sl.c_constant(n, k) * a ** (-m), rel=1e-4)


def test_bubble_jets_match_finite_differences():
    u = sl.bubble_field(sl.BubbleSpec(4, 2, 1.3, center=[0.1, -0.2, 0.0, 0.4]))
    rng = np.random.default_rng(41)
    for _ in range(5):
        x = rng.normal(size=4)
        val, grad, hess = u.raw_jet(x)
        ref_val, ref_grad, ref_hess = fd_jet_of_field(u, x)
        assert val == pytest.approx(ref_val, rel=1e-13)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-6)
        np.testing.assert_allclose(hess, ref_hess, atol=1e-4)


def test_bubble_spec_validation():
    with pytest.raises(ValueError):
        sl.BubbleSpec(2, 1, 1.0)
    with pytest.raises(ValueError):
        sl.BubbleSpec(3, 1, -1.0)
    with pytest.raises(ValueError):
        sl.BubbleSpec(3, 4, 1.0)


# ---------------------------------------------------------------------------
# verify_solution
# ---------------------------------------------------------------------------

def test_verify_bubble_residual_floor():
    for n in (3, 5):
        for k in (1, n):
            u = sl.bubble_field(sl.BubbleSpec(n, k, 1.2))
            rep = sl.verify_solution(u, n, k)
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
    rep = sl.verify_solution(u, 3, 2, n_samples=50)
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
    r1 = sl.verify_solution(u, 3, 1, n_samples=100)
    r2 = sl.verify_solution(u, 3, 1, n_samples=100)
    assert r1.max_residual == r2.max_residual
    np.testing.assert_array_equal(r1.worst_point, r2.worst_point)


# ---------------------------------------------------------------------------
# kelvin self-duality (field-level check lives here with the family)
# ---------------------------------------------------------------------------

def test_kelvin_self_duality_of_the_family():
    rng = np.random.default_rng(47)
    for n, k, a in [(3, 1, 0.5), (5, 2, 3.0)]:
        u = sl.kelvin_transform(sl.bubble_field(sl.BubbleSpec(n, k, a)))
        dual = sl.bubble_field(sl.BubbleSpec(n, k, 1.0 / a))
        for _ in range(25):
            x = rng.normal(size=n)
            if np.linalg.norm(x) < 0.05:
                continue
            assert u.value(x) == pytest.approx(dual.value(x), rel=1e-10)


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
    rep = sl.harnack_product(u, 2.0, residual_check=1)
    assert rep.product_scaled == pytest.approx(9.0 * 2.0)
    assert rep.solution_like is False
    # and the product grows with R, unlike for solutions
    rep2 = sl.harnack_product(u, 4.0, residual_check=1)
    assert rep2.product_scaled > rep.product_scaled


def test_harnack_off_center_bubble():
    n, k, a = 3, 1, 1.0
    center = np.zeros(n)
    far = np.array([4.0, 0.0, 0.0])  # family member centered outside B_2R
    u = sl.bubble_field(sl.BubbleSpec(n, k, a, center=far))
    rep = sl.harnack_product(u, 1.0, center=center)
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


def test_harnack_grid_directions_built_once_per_sweep(monkeypatch):
    bubbles._grid_directions.cache_clear()
    calls = []

    def counting(count, dim):
        calls.append((count, dim))
        return sphere_directions(count, dim)

    monkeypatch.setattr(bubbles, "sphere_directions", counting)
    rows = sl.harnack_sweep(3, 1, np.geomspace(1e-2, 1e4, 25), [1.0],
                            n_radial=8, n_angular=4)
    assert len(rows) == 25
    assert calls == [(8, 3)]
    bubbles._grid_directions.cache_clear()


def test_harnack_grid_directions_are_read_only():
    dirs = bubbles._grid_directions(4, 6)
    assert dirs.shape == (2 * 4 + 6 * 3, 4)
    with pytest.raises(ValueError):
        dirs[0, 0] = 2.0


def test_harnack_polish_keeps_grid_value_outside_the_domain():
    # u = 1 + |x - p|^2 / 2: every Newton step lands on p, which projects
    # onto 2 p_hat, the exact minimum over B_2. A ball domain shifted
    # against p_hat holds every grid point but not 2 p_hat.
    n = 3
    p_hat = np.ones(n) / math.sqrt(n)
    p = 10.0 * p_hat

    def jets(X, order):
        d = X - p
        val = 1.0 + 0.5 * np.einsum("ij,ij->i", d, d)
        if not order:
            return val, None, None
        return val, d, np.broadcast_to(np.eye(n), (len(X), n, n))

    shift = -0.5 * p_hat
    grid = 2.0 * np.linspace(0.0, 1.0, 3)[:, None, None] \
        * bubbles._grid_directions(n, 2)[None]
    reach = np.linalg.norm(grid.reshape(-1, n) - shift, axis=1).max()
    rho = 0.5 * (reach + 2.5)
    assert reach < rho < 2.5
    grid_min = 1.0 + 0.5 * np.min(np.sum((grid.reshape(-1, n) - p) ** 2, axis=1))
    exact_min = 1.0 + 0.5 * 8.0 ** 2

    whole = sl.ScalarField(n, jets=jets)
    rep = sl.harnack_product(whole, 1.0, n_radial=3, n_angular=2)
    assert rep.min_2br == pytest.approx(exact_min, rel=1e-14)
    assert rep.min_2br < grid_min

    shifted = sl.ScalarField(n, jets=jets, domain=sl.Domain(
        kind="ball", center=shift, r_outer=rho))
    rep = sl.harnack_product(shifted, 1.0, n_radial=3, n_angular=2)
    assert rep.min_2br == pytest.approx(grid_min, rel=1e-14)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_harnack_of_a_profile_on_exactly_the_double_ball(n, k):
    # the reconstructed field's domain is exactly B_2R: the grid's outer
    # shell and the polish trial points projected onto it sit on its edge
    c = sl.c_constant(n, k)
    field = sl.profile_to_field(sl.shoot(c, n, k, 2.0))
    rep = sl.harnack_product(field, 1.0)
    exact = _bubble_value(n, k, 1.0, 0.0) * _bubble_value(n, k, 1.0, 2.0)
    assert rep.product_scaled == pytest.approx(exact, rel=1e-9)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_empty_grid():
    assert sl.harnack_sweep(3, 1, [], [1.0]) == []
    assert sl.harnack_sweep(3, 1, [1.0], []) == []


def test_sweep_scale_invariance():
    # the scaled product of the centered family depends on a*R only
    rows_1 = sl.harnack_sweep(3, 1, [2.0], [1.0], n_radial=32, n_angular=16)
    rows_2 = sl.harnack_sweep(3, 1, [1.0], [2.0], n_radial=32, n_angular=16)
    assert rows_1[0].product_scaled == pytest.approx(rows_2[0].product_scaled,
                                                     rel=1e-12)


def test_sweep_supremum_approaches_limit():
    rows = sl.harnack_sweep(3, 1, np.geomspace(1e-2, 1e4, 25), [1.0],
                            n_radial=32, n_angular=16)
    sup = sl.sweep_supremum(rows)
    limit = sl.c_constant(3, 1) ** 2 * 0.5
    assert sup <= limit * 1.01
    assert sup == pytest.approx(limit, rel=0.01)


def test_sweep_with_word_images_stays_bounded():
    rows = sl.harnack_sweep(3, 2, [0.5, 1.0], [1.0], n_radial=24,
                            n_angular=12, mobius_words=2, seed=5)
    labels = {row.label for row in rows}
    assert "bubble" in labels and "mobius0" in labels and "mobius1" in labels
    limit = sl.c_constant(3, 2) ** 2 * 0.5
    # images are again solutions, so the same bound holds (grid slack 1%)
    assert sl.sweep_supremum(rows) <= limit * 1.01


def test_sweep_deterministic_order():
    rows_a = sl.harnack_sweep(3, 1, [0.5, 1.0], [1.0, 2.0], n_radial=16,
                              n_angular=8)
    rows_b = sl.harnack_sweep(3, 1, [0.5, 1.0], [1.0, 2.0], n_radial=16,
                              n_angular=8)
    assert rows_a == rows_b
    assert [(r.a, r.R) for r in rows_a] == [(0.5, 1.0), (0.5, 2.0),
                                            (1.0, 1.0), (1.0, 2.0)]


def test_verify_rejects_empty_sample_set():
    u = sl.bubble_field(sl.BubbleSpec(3, 1, 1.0))
    with pytest.raises(ConfigError):
        sl.verify_solution(u, 3, 1, sample_points=np.empty((0, 3)))
    with pytest.raises(ConfigError):
        sl.verify_solution(u, 3, 1, n_samples=0)


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
