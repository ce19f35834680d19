"""Discrete Dirichlet solver and continuation along the operator family."""

import json
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import sigmak_lab as sl
from sigmak_lab import continuation
from sigmak_lab.continuation import initial_guess
from sigmak_lab.errors import ConeDomainError, ConfigError, NewtonError, PathError, \
    PositivityError

from fd_oracles import fd_jacobian


def _family_values(n, k, a, r):
    m = (n - 2.0) / 2.0
    return sl.c_constant(n, k) * (a / (1.0 + a * a * r * r)) ** m


def _spec(n, k, m=64, a=1.0, r_b=5.0, **kw):
    return sl.BvpSpec(n, k, r_b, _family_values(n, k, a, r_b), m=m,
                      a_init=a, **kw)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_bvp_spec_validation():
    for m in (8, 16.5, 64.0, math.nan, True):  # m counts intervals: an int >= 16
        with pytest.raises(ConfigError):
            sl.BvpSpec(3, 2, 5.0, 0.5, m=m)
    with pytest.raises(ConfigError):  # no float holds this radius
        sl.BvpSpec(3, 2, 10 ** 400, 0.5)
    assert np.all(np.isfinite(sl.BvpSpec(3, 2, 2 ** 64, 0.5).mesh))
    spec = sl.BvpSpec(3, 2, 5.0, 0.5)  # the mesh is formed once, read-only
    assert spec.mesh is spec.mesh and not spec.mesh.flags.writeable
    with pytest.raises(ConfigError):
        sl.BvpSpec(3, 2, 5.0, -0.5)
    for t_step in (0.0, -0.1, 1.5, math.nan):
        with pytest.raises(ConfigError):
            sl.BvpSpec(3, 2, 5.0, 0.5, t_step=t_step)
    with pytest.raises(ConfigError):  # no family member has a scale <= 0
        sl.BvpSpec(3, 2, 5.0, 0.5, a_init=-1.0)
    with pytest.raises(ConfigError):  # a state vector of the wrong length
        sl.assemble_residual(np.ones(5), sl.BvpSpec(3, 2, 5.0, 0.5), 1.0)


def test_initial_guess_branches():
    spec = _spec(3, 2, a=1.0)
    guess = initial_guess(spec)
    np.testing.assert_allclose(guess, _family_values(3, 2, 1.0, spec.mesh),
                               rtol=1e-14)
    # without a_init the small-scale branch is picked deterministically
    free = sl.BvpSpec(3, 2, 5.0, _family_values(3, 2, 1.0, 5.0), m=64)
    got = initial_guess(free)
    assert got[0] < guess[0]  # flatter member
    # a boundary value no family member attains is rejected by the guess
    with pytest.raises(ConfigError):
        initial_guess(sl.BvpSpec(3, 2, 5.0, 10.0, m=64))


@pytest.mark.parametrize("n, k", [(3, 1), (5, 3), (6, 6)])
@pytest.mark.parametrize("u_b", [1e-3, 1e-5, 1e-7])
def test_initial_guess_meets_a_small_boundary_value(n, k, u_b):
    # the small root of the scale quadratic is taken in its rationalized
    # form; 1 - sqrt(disc) cancelled to 4e-8 relative at u_b = 1e-3 and to
    # a zero guess at u_b = 1e-5
    guess = initial_guess(sl.BvpSpec(n, k, 5.0, u_b, m=64))
    assert guess[-1] == pytest.approx(u_b, rel=1e-14, abs=0.0)


def test_homotopy_parameter_outside_the_unit_interval_is_a_configuration_error():
    spec = _spec(3, 2)
    u = initial_guess(spec)
    with pytest.raises(ConfigError):
        sl.assemble_residual(u, spec, 1.5)
    with pytest.raises(ConfigError):
        sl.newton_solve(u, spec, -0.1)


# ---------------------------------------------------------------------------
# residual assembly
# ---------------------------------------------------------------------------

def test_residual_second_order_on_family_samples():
    # the uniform mix leaves the bubble's isotropic pair unchanged, so the
    # sampled bubble solves every f_t up to the same O(h^2) truncation
    for n, k in [(3, 2), (5, 3), (6, 6)]:
        norms = {}
        for t in (0.0, 0.37, 1.0):
            norms[t] = []
            for m in (64, 128, 256):
                spec = _spec(n, k, m=m)
                res = sl.assemble_residual(initial_guess(spec), spec, t)
                norms[t].append(float(np.abs(res).max()))
            ratios = [norms[t][i] / norms[t][i + 1] for i in range(2)]
            assert all(3.7 <= q <= 4.3 for q in ratios), (n, k, t, ratios)
            np.testing.assert_allclose(norms[t], norms[0.0], rtol=1e-3)


def test_residual_at_t0_matches_sigma1_type_formula():
    n, k = 3, 2
    spec = _spec(n, k, m=64)
    u = initial_guess(spec)
    res = sl.assemble_residual(u, spec, 0.0)
    assert float(np.abs(res).max()) <= 4.0 * spec.h ** 2  # O(h^2) at the member
    # the interior rows equal C(n,k) (sigma_1/n)^k - 1 computed directly
    h = spec.h
    r = spec.mesh[1:-1]
    up = (u[2:] - u[:-2]) / (2.0 * h)
    upp = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / h ** 2
    direct = np.empty(r.size)
    for i in range(r.size):
        pair = sl.radial_eigenvalues(float(u[i + 1]), float(up[i]),
                                     float(upp[i]), float(r[i]), n)
        s1 = pair.lam_rad + (n - 1) * pair.lam_tan
        direct[i] = math.comb(n, k) * (s1 / n) ** k - 1.0
    np.testing.assert_allclose(res[1:-1], direct, rtol=1e-12, atol=1e-14)


def test_residual_constant_profile_is_minus_one_inside():
    spec = sl.BvpSpec(4, 2, 3.0, 1.0, m=32)
    values = np.ones(33)
    with pytest.raises(ConeDomainError):
        # constant profiles sit on the cone boundary: margin zero
        sl.assemble_residual(values, spec, 1.0)
    # the raw interior rows are still well defined and equal -1
    from sigmak_lab.continuation import _NodeState
    state = _NodeState(values, spec, 1.0)
    np.testing.assert_allclose(state.residual()[1:-1], -1.0, atol=1e-14)
    assert float(state.margins.min()) == 0.0


def test_cone_exit_names_the_first_bad_node():
    # a bump that leaves the cone over a run of nodes, deepest well past the
    # first: residual and Jacobian name the same first node, at its radius
    # and by its index in the message; Newton refuses
    from sigmak_lab.continuation import _NodeState
    spec = _spec(3, 2, m=128)
    u = initial_guess(spec) * (1.0 + 0.05 * np.exp(-(((spec.mesh - 2.0) / 2.0) ** 2)))
    margins = _NodeState(u, spec, 1.0).margins
    first = int(np.flatnonzero(margins <= 0.0)[0]) + 1
    assert first < int(np.argmin(margins)) + 1
    for assemble in (sl.assemble_residual, sl.assemble_jacobian):
        with pytest.raises(ConeDomainError) as info:
            assemble(u, spec, 1.0)
        assert info.value.where == spec.mesh[first] and info.value.margin == margins[first - 1]
        assert f"node {first} " in str(info.value)
    with pytest.raises(NewtonError):
        sl.newton_solve(u, spec, 1.0)


def test_nonpositive_node_is_named_at_its_radius():
    # the first node in mesh order that is not positive, nan included, not
    # the smallest value
    from sigmak_lab.continuation import _NodeState
    spec = _spec(3, 2, m=32)
    for bad in ([-1.0, -2.0], [np.nan, -1.0], [np.nan, 1.0]):
        u = initial_guess(spec)
        u[[5, 9]] = bad
        with pytest.raises(PositivityError) as info:
            _NodeState(u, spec, 1.0)
        assert info.value.where == spec.mesh[5]
        np.testing.assert_array_equal(info.value.value, bad[0])


def _generic_node_quantities(u, spec, t):
    """f_t, margins and the f_t gradient from the full (N, n) eigenvalue
    matrix through the generic esym kernels: the oracle for the pair form."""
    from sigmak_lab.symfun import _cone_margin, _esym_all_batch, _esym_gradient_batch, \
        _uniform_chain, _uniform_mix
    n, k, h = spec.n, spec.k, spec.h
    r = spec.mesh[1:-1]
    up = (u[2:] - u[:-2]) / (2.0 * h)
    upp = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / h ** 2
    lam = np.array([sl.radial_eigenvalues(float(u[i + 1]), float(up[i]), float(upp[i]),
                                          float(r[i]), n).vector(n)
                    for i in range(r.size)])
    mixed = _uniform_mix(lam, t)
    e = _esym_all_batch(mixed)
    grad = _uniform_chain(_esym_gradient_batch(mixed, k), t)
    return e[:, k], _cone_margin(e, k), grad


def _pair_sigma_node_state(u, spec, t):
    """(margins, f, f_rad, f_tan) of u at t the long way: the pair from
    `radial_eigenvalues`, `_pair_sigma` on a table of bt's powers for the
    margins and f and on another for e_{k-1} of (a, bt x n-2), and a power of
    its own for g_rad."""
    from sigmak_lab.radial import _pair_sigma
    n, k, h = spec.n, spec.k, spec.h
    up = (u[2:] - u[:-2]) / (2.0 * h)
    upp = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / h ** 2
    lam_rad, lam_tan = sl.radial_eigenvalues(u[1:-1], up, upp, spec.mesh[1:-1], n)
    mix = (1.0 - t) * (lam_rad + (n - 1.0) * lam_tan) * (1.0 / n)
    a, bt = t * lam_rad + mix, t * lam_tan + mix
    margins, f = _pair_sigma(a, [bt ** j for j in range(k + 1)],
                             [math.comb(n - 1, j) for j in range(k + 1)])
    g_rad = math.comb(n - 1, k - 1) * bt ** (k - 1)
    g_tan = _pair_sigma(a, [bt ** j for j in range(k)],
                        [math.comb(n - 2, j) for j in range(k)])[1] if k > 1 else 1.0
    mean = (g_rad + (n - 1.0) * g_tan) * (1.0 / n)
    return margins, f, t * g_rad + (1.0 - t) * mean, t * g_tan + (1.0 - t) * mean


@pytest.mark.parametrize("t", [0.0, 0.3, 0.37, 1.0])
def test_node_state_pair_form_matches_the_full_matrix_oracle(t):
    # also bit for bit against the long way, from a vector and from an
    # iterate carried from another t
    from sigmak_lab.continuation import _Iterate, _NodeState
    for n in range(3, 9):
        for k in range(1, n + 1):
            spec = _spec(n, k, m=32, r_b=3.0)
            u = initial_guess(spec) * (1.0 + 0.02 * np.sin(2.0 * spec.mesh))
            carried = _Iterate(u, spec)
            _NodeState(carried, spec, 0.5)
            for state in (_NodeState(carried, spec, t), _NodeState(u, spec, t)):
                got = (state.margins, state.f, state.f_rad, state.f_tan)
                for x, y in zip(got, _pair_sigma_node_state(u, spec, t), strict=True):
                    np.testing.assert_array_equal(x, y)
            f, margins, grad = _generic_node_quantities(u, spec, t)
            np.testing.assert_allclose(state.residual()[1:-1], f - 1.0, rtol=1e-12,
                                       atol=1e-12)
            np.testing.assert_allclose(state.margins, margins, rtol=1e-12)
            assert state.ellipticity() == pytest.approx(float(grad.min()), rel=1e-12)
            # every tangential partial is the same; the Jacobian reads one of them
            np.testing.assert_allclose(grad[:, 1:], grad[:, 1:2] * np.ones(n - 1),
                                       rtol=1e-12)
            band = state.band()
            scale = max(float(np.abs(band).max()), 2.0 / spec.h)  # the largest |J_ij|
            state.f_rad = grad[:, 0]
            state.f_tan = grad[:, 1:].sum(axis=1) / (n - 1.0)
            for got, want in zip(band, state.band(), strict=True):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


def test_jacobian_matches_finite_differences():
    # the wobble stays tiny: (Gamma_k)_t margins shrink about 25-fold
    # faster than multiplicative perturbations of u for n = 3
    for n, k, t in [(3, 2, 1.0), (3, 3, 0.4), (4, 2, 0.0)]:
        spec = _spec(n, k, m=24, r_b=4.0)
        base = initial_guess(spec)
        wobble = 1.0 + 1e-3 * np.sin(2.0 * np.pi * spec.mesh / spec.r_b)
        u = base * wobble
        jac = sl.assemble_jacobian(u, spec, t)
        ref = fd_jacobian(lambda v: sl.assemble_residual(v, spec, t), u)
        np.testing.assert_allclose(jac, ref, rtol=2e-6, atol=2e-6)
        # the dense form is the u'(0) stencil, the diagonals of the interior
        # rows and the Dirichlet identity, placed row by row
        lower, diag, upper = continuation._admissible_state(u, spec, t).band()
        placed = np.zeros_like(jac)
        placed[0, :3] = np.array([-1.5, 2.0, -0.5]) / spec.h
        for i in range(1, spec.m):
            placed[i, i - 1:i + 2] = lower[i - 1], diag[i - 1], upper[i - 1]
        placed[spec.m, spec.m] = 1.0
        np.testing.assert_array_equal(jac, placed)


def test_residual_floor_is_the_largest_row_of_abs_j_times_abs_u():
    # 2 eps max_i sum_j |J_ij| |u_j| over the dense oracle; a nan partial
    # anywhere makes the floor nan, so Newton falls back to _NEWTON_TOL
    eps = float(np.finfo(float).eps)
    for n, k, t in [(3, 2, 1.0), (3, 3, 0.4), (4, 2, 0.0), (6, 4, 0.7)]:
        spec = _spec(n, k, m=24, r_b=4.0)
        u = initial_guess(spec) * (1.0 + 1e-3 * np.sin(2.0 * np.pi * spec.mesh / spec.r_b))
        state = continuation._admissible_state(u, spec, t)
        floor = continuation._attainable_residual(state.band(), u, spec.h)
        want = 2.0 * eps * float((np.abs(state.jacobian_dense()) @ np.abs(u)).max())
        assert floor == pytest.approx(want, rel=1e-15, abs=0.0)
        for row in (0, spec.m - 2):  # the first and the last interior row
            for part in range(3):
                band = [d.copy() for d in state.band()]
                band[part][row] = np.nan
                floor = continuation._attainable_residual(tuple(band), u, spec.h)
                assert math.isnan(floor)
                assert max(continuation._NEWTON_TOL, floor) == continuation._NEWTON_TOL


# ---------------------------------------------------------------------------
# newton
# ---------------------------------------------------------------------------

def test_newton_from_exact_member_converges_fast():
    spec = _spec(3, 2, m=256)
    x, record = sl.newton_solve(initial_guess(spec), spec, 1.0)
    assert record.converged and record.iters <= 2
    assert record.cone_margin > 0.0 and record.ellipticity > 0.0


def _bumped(n, k, m=128):
    """A spec and the 1 percent bump of its exact member that Newton recovers from."""
    spec = _spec(n, k, m=m)
    return spec, initial_guess(spec) * (1.0 + 0.01 * np.exp(-(((spec.mesh - 2.0) / 2.0) ** 2)))


def test_newton_recovers_from_smooth_perturbation():
    # the perturbation must stay inside (Gamma_k)_t: the n = 3 exponents
    # amplify multiplicative bumps about 25-fold in eigenvalue space, so a
    # 1 percent bump is the honest admissible version of this check
    n, k = 3, 2
    spec, start = _bumped(n, k)
    x, record = sl.newton_solve(start, spec, 1.0)
    model = _family_values(n, k, 1.0, spec.mesh)
    err = float(np.max(np.abs(x - model)))
    assert err <= 5.0 * (spec.h) ** 2  # back to the discrete solution
    assert record.converged


def test_newton_rejects_bump_that_exits_the_cone():
    n, k = 3, 2
    spec = _spec(n, k, m=128)
    bump = 1.0 + 0.05 * np.exp(-(((spec.mesh - 2.0) / 2.0) ** 2))
    with pytest.raises(NewtonError):
        sl.newton_solve(initial_guess(spec) * bump, spec, 1.0)


def test_newton_rejects_inadmissible_initial():
    spec = sl.BvpSpec(3, 2, 3.0, 1.0, m=32)
    with pytest.raises(NewtonError):
        sl.newton_solve(np.ones(33), spec, 1.0)


def test_newton_refuses_a_start_with_no_ellipticity_certificate(monkeypatch):
    # an admissible start whose smallest f_t partial is not positive
    from sigmak_lab.continuation import _NodeState
    spec = _spec(3, 2, m=32)
    monkeypatch.setattr(_NodeState, "ellipticity", lambda self: 0.0)
    with pytest.raises(NewtonError, match="no ellipticity certificate"):
        sl.newton_solve(initial_guess(spec), spec, 1.0)


def test_newton_out_of_iterations_carries_its_count_and_residual(monkeypatch):
    spec, start = _bumped(3, 2)
    _, record = sl.newton_solve(start, spec, 1.0)
    assert record.iters >= 2
    monkeypatch.setattr(continuation, "_MAX_NEWTON_ITER", 1)
    with pytest.raises(NewtonError) as info:
        sl.newton_solve(start, spec, 1.0)
    assert info.value.iterations == 1
    assert continuation._NEWTON_TOL < info.value.residual < np.inf
    assert f"{info.value.residual:.3e}" in str(info.value)


def test_line_search_halves_past_inadmissible_trials(monkeypatch):
    # every trial state is reported outside the cone: the line search halves
    # from alpha = 1 down to 2^-30, 31 trials, then gives up with the start's
    # residual
    spec, start = _bumped(3, 2)
    res0 = float(np.abs(sl.assemble_residual(start, spec, 1.0)).max())
    real = continuation._admissible_state
    calls = []

    def reject_trials(u, spec, t):
        calls.append(t)
        if len(calls) > 1:
            raise ConeDomainError("trial left the cone", margin=-1.0, where=1)
        return real(u, spec, t)

    monkeypatch.setattr(continuation, "_admissible_state", reject_trials)
    with pytest.raises(NewtonError, match="no admissible Newton step") as info:
        sl.newton_solve(start, spec, 1.0)
    assert len(calls) == 1 + 31
    assert info.value.iterations == 0 and info.value.residual == res0
    # rejecting only the first full step costs one halving: Newton still
    # reaches the discrete solution
    calls.clear()

    def reject_first_trial(u, spec, t):
        calls.append(t)
        if len(calls) == 2:
            raise ConeDomainError("trial left the cone", margin=-1.0, where=1)
        return real(u, spec, t)

    monkeypatch.setattr(continuation, "_admissible_state", reject_first_trial)
    x, record = sl.newton_solve(start, spec, 1.0)
    monkeypatch.setattr(continuation, "_admissible_state", real)
    np.testing.assert_allclose(x, sl.newton_solve(start, spec, 1.0)[0], rtol=1e-9)
    assert record.converged


@pytest.mark.parametrize("defect", ["singular", "zero pivot"])
def test_singular_jacobian_is_a_newton_error_with_or_without_float_traps(defect, monkeypatch):
    # "singular" zeroes interior rows 1..m-1; "zero pivot" zeroes the
    # interior diagonal, which the unpivoted elimination divides by
    real = continuation._NodeState.band

    def defective(state):
        lower, diag, upper = real(state)
        zero = np.zeros_like(diag)
        return (zero, zero, zero) if defect == "singular" else (lower, zero, upper)

    monkeypatch.setattr(continuation._NodeState, "band", defective)
    spec, start = _bumped(3, 2)
    for traps in ("ignore", "raise"):
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(over=traps, divide=traps, invalid=traps):
            warnings.simplefilter("always")
            with pytest.raises(NewtonError, match="singular Jacobian") as info:
                sl.newton_solve(start, spec, 1.0)
        assert not caught
        assert info.value.iterations == 0


# ---------------------------------------------------------------------------
# the banded step solve against LAPACK
# ---------------------------------------------------------------------------

_STENCIL = np.array([-1.5, 2.0, -0.5])  # row 0 of the Jacobian, times h


def _lapack(band, h):
    """The Jacobian with interior diagonals band in LAPACK's (4, m + 1) gbsv
    layout, J[i, j] = ab[2 + i - j, j]: the input of scipy.linalg.solve_banded."""
    lower, diag, upper = band
    m = len(diag) + 1
    ab = np.zeros((4, m + 1))
    ab[2, 0], ab[1, 1], ab[0, 2] = _STENCIL / h
    ab[3, :m - 1], ab[2, 1:m], ab[1, 2:] = lower, diag, upper
    ab[2, m] = 1.0
    return ab


def _dense(band, h):
    """The matrix of the Jacobian with interior diagonals band."""
    ab = _lapack(band, h)
    return scipy.sparse.dia_matrix((ab, [2, 1, 0, -1]), shape=(ab.shape[1],) * 2).toarray()


def _band_times(band, h, x, stencil=_STENCIL):
    """The product of the Jacobian with interior diagonals band (row 0 the
    stencil / h, row m the identity) with x."""
    lower, diag, upper = band
    return np.concatenate(([stencil @ x[:3] / h], lower * x[:-2] + diag * x[1:-1]
                           + upper * x[2:], x[-1:]))


def _rel(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("m", [16, 17, 1000, 1023, 1024, 4096])
def test_band_solve_matches_lapack_on_random_bands(m):
    # the u'(0) stencil, diagonally dominant interior rows with random
    # off-diagonals, the Dirichlet identity; odd, even and 2^p sizes
    rng = np.random.default_rng(m)
    h = 1.0 / m
    lower, upper = rng.uniform(0.5, 1.5, (2, m - 1)) / h ** 2
    band = (lower, -(lower + upper) * rng.uniform(1.0, 1.5, m - 1), upper)
    rhs = rng.standard_normal(m + 1)
    inputs = [v.copy() for v in (*band, rhs)]
    x = continuation._solve_band(band, rhs, h)
    for got, want in zip((*band, rhs), inputs):  # the solve leaves its inputs alone
        np.testing.assert_array_equal(got, want)
    assert _rel(x, scipy.linalg.solve_banded((1, 2), _lapack(band, h), rhs)) <= 1e-14
    if m <= 1024:  # a dense 4097^2 solve costs 134 MB for no extra evidence
        assert _rel(x, np.linalg.solve(_dense(band, h), rhs)) <= 1e-14


def test_band_solve_matches_lapack_on_every_bench_newton_iterate(monkeypatch):
    # the 18 pairs n <= 6 at m = 1024, a = 1, first t-step 1/40. These
    # Jacobians have condition numbers near 1e10: solve_banded and the dense
    # LU differ from each other by up to 8e-12 relative on them, so the
    # forward bound is 1e-11, and the backward error (the residual against
    # the band, relative to |J| |x| + |rhs|) must stay below one ulp
    real, calls = continuation._solve_band, []

    def recorded(band, rhs, h):
        x = real(band, rhs, h)
        calls.append((band, rhs, h, x))
        return x

    monkeypatch.setattr(continuation, "_solve_band", recorded)
    firsts = []
    for n in range(3, 7):
        for k in range(1, n + 1):
            firsts.append(len(calls))
            continuation.continue_path(_spec(n, k, m=1024, t_step=1.0 / 40.0))
    assert len(calls) > 2 * len(firsts)
    eps = np.finfo(float).eps
    for j, (band, rhs, h, x) in enumerate(calls):
        scale = _band_times(np.abs(band), h, np.abs(x), np.abs(_STENCIL)).max() \
            + np.abs(rhs).max()
        assert np.abs(_band_times(band, h, x) - rhs).max() <= eps * scale
        assert _rel(x, scipy.linalg.solve_banded((1, 2), _lapack(band, h), rhs)) <= 1e-11
        if j in firsts:
            assert _rel(x, np.linalg.solve(_dense(band, h), rhs)) <= 1e-11


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

def test_continue_path_reaches_target_and_matches_family():
    n, k = 3, 2
    spec = _spec(n, k, m=256)
    profile, trace = sl.continue_path(spec)
    assert all(r.converged for r in trace.records)
    assert trace.records[-1].t == 1.0
    model = _family_values(n, k, 1.0, profile.r)
    err = float(np.max(np.abs(profile.u - model)))
    assert err <= 5.0 * spec.h ** 2
    # admissibility certificates are recorded at every accepted t
    assert min(r.cone_margin for r in trace.records) > 0.0
    assert min(r.ellipticity for r in trace.records) > 0.0


def test_continue_path_k1_is_uniform_in_t():
    spec = _spec(3, 1, m=64)
    profile, trace = sl.continue_path(spec)
    iters = [r.iters for r in trace.records]
    assert max(iters[1:]) <= 1  # every later t sees the same equation


def test_path_consistency_between_discretizations():
    n, k = 3, 3
    coarse = _spec(n, k, m=64, t_step=0.1)
    fine = _spec(n, k, m=64, t_step=0.01)
    prof_c, _ = sl.continue_path(coarse)
    prof_f, _ = sl.continue_path(fine)
    assert float(np.max(np.abs(prof_c.u - prof_f.u))) <= 1e-8


def test_single_jump_path_is_deterministic():
    n, k = 3, 3
    spec = _spec(n, k, m=64, t_step=1.0)
    p1, t1 = sl.continue_path(spec)
    p2, t2 = sl.continue_path(spec)
    np.testing.assert_array_equal(p1.u, p2.u)
    assert [r.t for r in t1.records] == [r.t for r in t2.records]


def test_endpoint_equivalence_with_rescaled_first_order_problem():
    # at t = 0 the equation is C(n,k)(sigma_1/n)^k = 1; its solutions are
    # the k = 1 solutions of sigma_1 = 1 rescaled by s = (n C^{-1/k})^{-(n-2)/4}
    n, k = 3, 2
    rho = n * math.comb(n, k) ** (-1.0 / k)
    s = rho ** (-(n - 2.0) / 4.0)
    spec_t0 = _spec(n, k, m=64)
    x0, _ = sl.newton_solve(initial_guess(spec_t0), spec_t0, 0.0)
    spec_k1 = sl.BvpSpec(n, 1, spec_t0.r_b, spec_t0.u_b / s, m=64,
                         a_init=1.0)
    x1, _ = sl.newton_solve(initial_guess(spec_k1), spec_k1, 1.0)
    np.testing.assert_allclose(x0, s * x1, atol=1e-9)


def _newton_failing_past(t_fail, fail_once=False):
    """newton_solve that raises NewtonError at every t > t_fail (at the
    first such t only, with fail_once), and records the targets it saw."""
    real, seen = continuation.newton_solve, []

    def solve(x, spec, t):
        seen.append(t)
        if t > t_fail and not (fail_once and any(s > t_fail for s in seen[:-1])):
            raise NewtonError("forced failure", iterations=3, residual=0.5)
        return real(x, spec, t)
    return solve, seen


def test_failed_solve_bisects_and_keeps_its_record(monkeypatch):
    # 0 and 1/4 converge, the doubled step to 3/4 fails once, its midpoint
    # 1/2 converges, and the doubled step from there reaches 1
    solve, seen = _newton_failing_past(0.5, fail_once=True)
    monkeypatch.setattr(continuation, "newton_solve", solve)
    spec = _spec(3, 2, m=32, t_step=0.25)
    _, trace = sl.continue_path(spec)
    assert seen == [0.0, 0.25, 0.75, 0.5, 1.0]
    assert [(r.t, r.converged) for r in trace.records] == [
        (0.0, True), (0.25, True), (0.75, False), (0.5, True), (1.0, True)]
    failed = trace.records[2]
    assert failed.iters == 3 and failed.residual == 0.5 and math.isnan(failed.cone_margin)


def test_stalled_path_names_the_last_good_t(monkeypatch):
    solve, _ = _newton_failing_past(0.5)
    monkeypatch.setattr(continuation, "newton_solve", solve)
    spec = _spec(3, 2, m=32, t_step=0.5)
    with pytest.raises(PathError) as info:
        sl.continue_path(spec)
    assert info.value.last_good_t == 0.5
    records = info.value.trace.records
    assert len(records) == 2 + continuation._MAX_BISECT + 1
    assert not any(r.converged for r in records[2:])
    assert all(0.5 < r.t <= 1.0 for r in records[2:])


def test_step_control_shrinks_and_grows_again(monkeypatch):
    # inside 0.3 < t < 0.6 only steps of at most 0.04 from the last good t
    # converge: the step halves into that stretch and doubles again past it
    real, seen, good = continuation.newton_solve, [], [0.0]

    def solve(x, spec, t):
        seen.append(t)
        if 0.3 < t < 0.6 and t - good[-1] > 0.04:
            raise NewtonError("forced failure", iterations=4, residual=0.5)
        x, rec = real(x, spec, t)
        good.append(t)
        return x, rec
    monkeypatch.setattr(continuation, "newton_solve", solve)
    _, trace = sl.continue_path(_spec(3, 2, m=32, t_step=0.1))
    assert [r.t for r in trace.records] == seen  # failed attempts keep their record
    assert not all(r.converged for r in trace.records)
    assert trace.records[-1].t == 1.0 and trace.records[-1].converged
    steps = np.diff([r.t for r in trace.records if r.converged])
    shortest = int(np.argmin(steps))
    assert steps[shortest] <= 0.04 and steps[0] == 0.1
    assert steps[-1] > 2.0 * steps[shortest]  # grown again past the stretch


def test_slow_solves_keep_the_step_and_land_on_one(monkeypatch):
    # solves slower than _FAST_ITERS never grow the step; ten rounded steps
    # of 0.1 sum to 1 - 1.1e-16, which must not leave a sliver step behind
    real = continuation.newton_solve

    def solve(x, spec, t):
        x, rec = real(x, spec, t)
        rec.iters = continuation._FAST_ITERS + 1
        return x, rec
    monkeypatch.setattr(continuation, "newton_solve", solve)
    _, trace = sl.continue_path(_spec(3, 2, m=32, t_step=0.1))
    ts = [r.t for r in trace.records]
    assert len(ts) == 11 and ts[-1] == 1.0
    np.testing.assert_allclose(ts, np.linspace(0.0, 1.0, 11), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_first_step_of_one_fortieth_takes_at_most_seven_solves(n, monkeypatch):
    # every solve is fast, so the step doubles each time: t = 0, 1/40, 3/40,
    # 7/40, 15/40, 31/40, 1, where a fixed walk took 41 solves
    real, calls = continuation.newton_solve, []

    def solve(x, spec, t):
        calls.append(t)
        return real(x, spec, t)
    monkeypatch.setattr(continuation, "newton_solve", solve)
    for k in range(1, n + 1):
        calls.clear()
        _, trace = sl.continue_path(_spec(n, k, m=256, t_step=1.0 / 40.0))
        assert len(calls) <= 7, (n, k, calls)
        assert trace.records[-1].t == 1.0 and trace.records[-1].converged


@pytest.mark.parametrize("n,k", [(3, 2), (5, 3), (6, 6)])
def test_carried_iterates_give_the_path_of_rebuilt_ones(n, k, monkeypatch):
    # handing each converged iterate to the next t changes no bit of the
    # profile or the trace against a path that rebuilds every start state
    # from its vector
    spec = _spec(n, k, m=256, t_step=1.0 / 40.0)
    carried, carried_trace = sl.continue_path(spec)
    real = continuation.newton_solve

    def rebuilt(x, spec, t):
        return real(continuation._Iterate(x.u.copy(), spec), spec, t)
    monkeypatch.setattr(continuation, "newton_solve", rebuilt)
    fresh, fresh_trace = sl.continue_path(spec)
    for name in ("r", "u", "du"):
        np.testing.assert_array_equal(getattr(carried, name), getattr(fresh, name))
    assert carried_trace.to_json() == fresh_trace.to_json()


def test_a_path_forms_each_pair_once_per_iterate(monkeypatch):
    # the pair is formed once per vector Newton tries: a converged iterate
    # starts the next solve without forming it again
    real, seen = continuation._schouten_pair, []

    def counted(q1, q2, du, d2u, r, n):
        seen.append(q1.tobytes() + du.tobytes() + d2u.tobytes())
        return real(q1, q2, du, d2u, r, n)
    monkeypatch.setattr(continuation, "_schouten_pair", counted)
    _, trace = sl.continue_path(_spec(5, 3, m=256, t_step=1.0 / 40.0))
    solves = len(trace.records)
    assert solves >= 5 and all(r.converged for r in trace.records)
    assert len(seen) == len(set(seen))
    # one start and at least one accepted step per solve that iterates
    assert len(seen) >= 1 + sum(r.iters for r in trace.records)


def test_trace_serializes_to_json():
    spec = _spec(3, 2, m=32, t_step=1.0 / 3.0)
    _, trace = sl.continue_path(spec)
    payload = json.loads(trace.to_json())
    assert len(payload) == len(trace.records)
    assert set(payload[0]) == {"t", "converged", "iters", "residual",
                               "cone_margin", "ellipticity"}


def test_trace_json_is_each_records_fields_in_order():
    # a converged path, and the one failed solve of a path that cannot start
    # (n = 6 at m = 64 fails at t = 0) with its nan certificates
    _, trace = sl.continue_path(_spec(3, 2, m=32, t_step=1.0 / 3.0))
    with pytest.raises(PathError) as info:
        sl.continue_path(_spec(6, 3, m=64, t_step=0.1))
    failed = info.value.trace
    assert math.isnan(failed.records[-1].cone_margin)
    for tr in (trace, failed):
        assert tr.to_json() == json.dumps([asdict(r) for r in tr.records], indent=2) + "\n"
