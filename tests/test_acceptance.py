"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them). The
tolerances here are pinned; loosening any of them is a contract change,
not a calibration.
"""

import itertools
import math
import time

import numpy as np
import pytest

import sigmak_lab as sl
from sigmak_lab.conformal import _checked_jets, _checked_schouten
from sigmak_lab.continuation import initial_guess
from sigmak_lab.symfun import _esym_all_batch

from field_factories import random_test_field


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. symmetric-function oracle
# ---------------------------------------------------------------------------

def test_acceptance_sigma_oracle():
    """sigma matches exhaustive subset enumeration, 1 <= k <= n <= 12,
    1e3 random vectors, relative 1e-12, under 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in range(3, 13):
        subsets = {k: np.array(list(itertools.combinations(range(n), k)))
                   for k in range(1, n + 1)}
        for _ in range(100):
            lam = rng.uniform(0.05, 2.0, size=n)
            for k in range(1, n + 1):
                enum = float(lam[subsets[k]].prod(axis=1).sum())
                rel = abs(sl.sigma(lam, k) - enum) / abs(enum)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    _report("sigma-oracle", worst <= 1e-12 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f} s (budget 10 s)")


# ---------------------------------------------------------------------------
# 2. cone suite
# ---------------------------------------------------------------------------

def _gamma_members(rng, n, k, count):
    out = np.empty((0, n))
    while out.shape[0] < count:
        draw = np.where(rng.uniform(size=(count, 1)) < 0.5,
                        rng.uniform(0.05, 2.0, size=(count, n)),
                        rng.normal(loc=0.6, scale=0.8, size=(count, n)))
        e = _esym_all_batch(draw)
        inside = e[:, 1:k + 1].min(axis=1) > 0.0
        out = np.vstack([out, draw[inside]])
    return out[:count]


def test_acceptance_cone_suite():
    """Nesting, gradient positivity, and midpoint concavity: 1e4 samples
    per (n, k), n <= 6, zero violations."""
    rng = np.random.default_rng(202)
    nest_bad = grad_bad = conc_bad = 0
    for n in range(3, 7):
        for k in range(1, n + 1):
            # nesting on unconstrained scatter
            lam = rng.normal(loc=0.3, scale=1.2, size=(10000, n))
            e = _esym_all_batch(lam)
            if k < n:
                in_next = e[:, 1:k + 2].min(axis=1) > 0.0
                in_this = e[:, 1:k + 1].min(axis=1) > 0.0
                nest_bad += int(np.sum(in_next & ~in_this))
            # gradient positivity on members
            members = _gamma_members(rng, n, k, 10000)
            grad_cols = np.empty_like(members)
            for i in range(n):
                reduced = np.delete(members, i, axis=1)
                grad_cols[:, i] = _esym_all_batch(reduced)[:, k - 1]
            grad_bad += int(np.sum(grad_cols.min(axis=1) <= 0.0))
            # midpoint concavity of sigma_k^{1/k} on member pairs
            a = _gamma_members(rng, n, k, 10000)
            b = _gamma_members(rng, n, k, 10000)
            root = 1.0 / k
            mid = _esym_all_batch(0.5 * (a + b))[:, k] ** root
            avg = 0.5 * (_esym_all_batch(a)[:, k] ** root
                         + _esym_all_batch(b)[:, k] ** root)
            conc_bad += int(np.sum(mid < avg - 1e-12))
    ok = nest_bad == 0 and grad_bad == 0 and conc_bad == 0
    _report("cone-suite", ok,
            f"violations: nesting {nest_bad}, gradient {grad_bad}, "
            f"concavity {conc_bad} (1e4 samples per (n,k), n<=6)")


# ---------------------------------------------------------------------------
# 3. conformal invariance
# ---------------------------------------------------------------------------

def _admissible_points(rng, psi, n, count):
    """count normal draws with 0.4 <= |x| <= 2.5, 0.15 or more from the
    word's pole and with |psi(x)| <= 40, drawn in batches of count."""
    pts = np.empty((0, n))
    while len(pts) < count:
        x = rng.normal(size=(count, n))
        norm = np.linalg.norm(x, axis=1)
        x = x[(0.4 <= norm) & (norm <= 2.5)]
        for p in psi.poles(n):
            x = x[np.linalg.norm(x - p, axis=1) >= 0.15]
        x = x[np.linalg.norm(psi._walk(x).y, axis=1) <= 40.0]
        pts = np.vstack([pts, x])
    return pts[:count]


def _spectra(field, pts):
    """Ascending Schouten spectra of a field at the rows of pts."""
    return np.linalg.eigvalsh(_checked_schouten(pts, *_checked_jets(pts, *field.jets(pts))))


def test_acceptance_conformal_invariance():
    """50 random words x 5 random positive fields, n in {3,4,5}: sorted
    spectra of the transported and composed operators agree to 1e-9
    absolute at 100 points each, under 60 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for n in (3, 4, 5):
        fields = [random_test_field(n, rng) for _ in range(5)]
        for _ in range(50):
            psi = sl.random_mobius_map(rng, n)
            pts = _admissible_points(rng, psi, n, 100)
            images = psi._walk(pts).y
            for u in fields:
                v = sl.transform_field(u, psi)
                lam_v = _spectra(v, pts)
                lam_u = _spectra(u, images)
                worst = max(worst, float(np.max(np.abs(lam_v - lam_u))))
    elapsed = time.perf_counter() - start
    _report("conformal-invariance", worst <= 1e-9 and elapsed < 60.0,
            f"worst spectral gap {worst:.2e}, {elapsed:.1f} s (budget 60 s)")


# ---------------------------------------------------------------------------
# 4. closed-form solution verification
# ---------------------------------------------------------------------------

def test_acceptance_bubble_verification():
    """All (n, k) with 3 <= n <= 6: residual <= 1e-8 and positive cone
    margin at 1e3 deterministic sample points, word images included."""
    rng = np.random.default_rng(404)
    worst_res = 0.0
    worst_margin = math.inf
    for n in range(3, 7):
        pts = sl.halton.box_points(1000, n, halfwidth=3.0)
        for k in range(1, n + 1):
            u = sl.bubble_field(sl.BubbleSpec(n, k, 1.0))
            cases = [u]
            for _ in range(2):
                psi = sl.random_mobius_map_avoiding(rng, n, pts, 5e-2)
                cases.append(sl.transform_field(u, psi))
            for fld in cases:
                rep = sl.verify_solution(fld, n, k, sample_points=pts)
                worst_res = max(worst_res, rep.max_residual)
                worst_margin = min(worst_margin, rep.min_margin)
    ok = worst_res <= 1e-8 and worst_margin > 0.0
    _report("bubble-verification", ok,
            f"worst residual {worst_res:.2e}, worst margin {worst_margin:.2e}")


# ---------------------------------------------------------------------------
# 5. radial desk check
# ---------------------------------------------------------------------------

def test_acceptance_liouville_desk_check():
    """Shooting reproduces the family on [0, 10] to 1e-6 relative for all
    (n, k), n in {3..6}, and the scale covariance law holds to 1e-6."""
    worst_dev = 0.0
    worst_law = 0.0
    for n in range(3, 7):
        for k in range(1, n + 1):
            c = sl.c_constant(n, k)
            for factor in (1.0, 0.6, 2.3):
                u0 = factor * c
                profile = sl.shoot(u0, n, k, 10.0)
                report = sl.liouville_report(profile)
                worst_dev = max(worst_dev, report.max_rel_deviation)
                law = (u0 / c) ** (2.0 / (n - 2.0))
                worst_law = max(worst_law,
                                abs(report.fitted_a - law) / law)
    ok = worst_dev <= 1e-6 and worst_law <= 1e-6
    _report("liouville-desk-check", ok,
            f"worst profile deviation {worst_dev:.2e}, "
            f"worst covariance defect {worst_law:.2e}")


def test_acceptance_shooting_reaches_1e8():
    """Shooting from u0 in {1, 0.6, 2.3} c(n, k) reaches r = 1e8 for all
    (n, k), n in {3..6}, and stays within 1e-6 relative of the family on
    the whole mesh: no cone exit along an exact entire solution."""
    worst = 0.0
    for n in range(3, 7):
        for k in range(1, n + 1):
            for factor in (1.0, 0.6, 2.3):
                profile = sl.shoot(factor * sl.c_constant(n, k), n, k, 1e8)
                assert profile.r[-1] == 1e8
                worst = max(worst, sl.liouville_report(profile).max_rel_deviation)
    _report("shooting-to-1e8", worst <= 1e-6, f"worst profile deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. harnack bound
# ---------------------------------------------------------------------------

def test_acceptance_harnack_bound():
    """Centered-family sweep: the scaled product never exceeds
    c(n,k)^2 2^{2-n} by more than 1 percent, and the large-scale limit
    matches that value within 1 percent."""
    a_grid = np.geomspace(1e-2, 1e4, 25)
    worst_excess = 0.0
    worst_limit_gap = 0.0
    for n in range(3, 7):
        for k in range(1, n + 1):
            bound = sl.c_constant(n, k) ** 2 * 2.0 ** (2.0 - n)
            rows = sl.harnack_sweep(n, k, a_grid, [1.0])
            sup = sl.sweep_supremum(rows)
            worst_excess = max(worst_excess, sup / bound - 1.0)
            tail = max(row.product_scaled for row in rows if row.a >= 1e3)
            worst_limit_gap = max(worst_limit_gap, abs(tail - bound) / bound)
    ok = worst_excess <= 0.01 and worst_limit_gap <= 0.01
    _report("harnack-bound", ok,
            f"worst excess over bound {worst_excess:.2e}, "
            f"large-scale limit gap {worst_limit_gap:.2e}")


# ---------------------------------------------------------------------------
# 7. homotopy continuation
# ---------------------------------------------------------------------------

def test_acceptance_homotopy_continuation():
    """continue_path reaches t = 1 for n = 3, k in {2, 3}, R_b = 5,
    m = 256; the final error against the closed form decays at observed
    order >= 1.8 across m in {64, 128, 256, 512}; under 5 minutes."""
    start = time.perf_counter()
    ok = True
    details = []
    for k in (2, 3):
        errs = []
        meshes = (64, 128, 256, 512)
        for m in meshes:
            u_b = sl.c_constant(3, k) * (1.0 / 26.0) ** 0.5
            spec = sl.BvpSpec(3, k, 5.0, u_b, m=m, a_init=1.0)
            profile, trace = sl.continue_path(spec)
            if m == 256 and not (trace.records[-1].t == 1.0
                                 and all(r.converged for r in trace.records)):
                ok = False
            model = sl.c_constant(3, k) / np.sqrt(1.0 + profile.r ** 2)
            errs.append(float(np.max(np.abs(profile.u - model))))
        hs = np.log([5.0 / m for m in meshes])
        slope = float(np.polyfit(hs, np.log(errs), 1)[0])
        details.append(f"k={k} order {slope:.2f}")
        if slope < 1.8:
            ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report("homotopy-continuation", ok,
            ", ".join(details) + f", {elapsed:.1f} s (budget 300 s)")


# ---------------------------------------------------------------------------
# 8. derivative checks
# ---------------------------------------------------------------------------

def test_acceptance_derivative_checks():
    """Analytic operator gradients and the Newton Jacobian match central
    finite differences to 1e-6 relative on 1e3 random admissible states."""
    rng = np.random.default_rng(808)
    worst_grad = 0.0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        k = int(rng.integers(1, n + 1))
        t = float(rng.uniform())
        spec = sl.OperatorSpec(n, k, t)
        lam = rng.uniform(0.2, 2.0, size=n)
        grad = sl.f_homotopy_gradient(lam, spec)
        h = 1e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (sl.f_homotopy(lam + e, spec) - sl.f_homotopy(lam - e, spec)) / (2.0 * h)
            worst_grad = max(worst_grad,
                             abs(grad[i] - fd) / max(abs(fd), abs(grad[i])))
    worst_jac = 0.0

    def fd_column(u, spec, t, j, h):
        e = np.zeros(u.size)
        e[j] = h
        return (sl.assemble_residual(u + e, spec, t)
                - sl.assemble_residual(u - e, spec, t)) / (2.0 * h)

    for n, k, t in [(3, 2, 1.0), (3, 3, 0.5), (4, 2, 0.0), (5, 4, 0.8)]:
        u_b = sl.c_constant(n, k) * (1.0 / 17.0) ** ((n - 2.0) / 2.0)
        spec = sl.BvpSpec(n, k, 4.0, u_b, m=24, a_init=1.0)
        base = initial_guess(spec)
        wobble = 1.0 + 1e-3 * np.sin(2.0 * np.pi * spec.mesh / spec.r_b)
        u = base * wobble
        jac = sl.assemble_jacobian(u, spec, t)
        h = 2e-6
        for j in range(u.size):
            # Richardson-extrapolated central difference: the 1/h_mesh^2
            # stencil amplifies the cubic truncation term of a plain
            # quotient past the tolerance being verified
            col = (4.0 * fd_column(u, spec, t, j, 0.5 * h)
                   - fd_column(u, spec, t, j, h)) / 3.0
            scale = np.maximum(np.abs(col), np.abs(jac[:, j]))
            mask = scale > 1e-8  # skip structurally-zero entries
            if np.any(mask):
                worst_jac = max(worst_jac, float(np.max(
                    np.abs(jac[mask, j] - col[mask]) / scale[mask])))
    ok = worst_grad <= 1e-6 and worst_jac <= 1e-6
    _report("derivative-checks", ok,
            f"worst gradient gap {worst_grad:.2e}, "
            f"worst jacobian gap {worst_jac:.2e} (rel)")
