"""Per-call timings of single layers, next to the ROADMAP item 1 baseline table.

Each probe repeats its call REPEATS times and reports the median. Inputs
come from the benchmark seed and fixed Halton sets.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REPEATS = 7
POINTS = 200
N, K = 5, 3

# metric -> (ROADMAP row, baseline there)
BASELINE = {
    "probe.mobius_jet_us": ("_mobius_jet (MobiusMap.jet)", "~15 us"),
    "probe.raw_jet_us": ("raw test-field jet", "~110 us"),
    "probe.transformed_jet_us": ("transformed-field jet", "~180 us/point"),
    "probe.schouten_spectrum_us": ("schouten_spectrum", "~26 us"),
    "probe.verify_us_per_point": ("verify_solution", "~84 us/point"),
    "probe.shoot_ms": ("shoot(n=5, k=3, r_max=10)", "~77 ms"),
    "probe.shoot_nodes": ("shoot(n=5, k=3, r_max=10) nodes", "922 nodes"),
    "probe.continue_path_ms": ("continue_path(m=512)", "~17 ms"),
    "probe.harnack_product_ms": ("harnack_product (defaults)", "~4 ms"),
}


def _median_time(fn, per: int = 1) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) / per)
    return statistics.median(times)


def _bump_field(sl, n: int, rng):
    """Positive quadratic-plus-Gaussian field with analytic jets, the kind of
    general (non-radial) field the baseline's raw jet was timed on. Kept here
    rather than imported from the test suite, so tests can change freely."""
    gammas = rng.uniform(0.0, 0.15, size=2)
    vs = rng.normal(size=(2, n))
    ds = rng.normal(size=2)
    alphas = rng.uniform(0.2, 1.0, size=3)
    betas = rng.uniform(0.3, 1.5, size=3)
    centers = rng.normal(scale=1.2, size=(3, n))

    def evaluator(x):
        val, grad, hess = 2.0, np.zeros(n), np.zeros((n, n))
        for g, v, d in zip(gammas, vs, ds):
            lin = float(v @ x) + d
            val += g * lin * lin
            grad += 2.0 * g * lin * v
            hess += 2.0 * g * np.outer(v, v)
        for a, b, c in zip(alphas, betas, centers):
            dx = x - c
            e = a * np.exp(-b * float(dx @ dx))
            val += e
            grad += -2.0 * b * e * dx
            hess += e * (4.0 * b * b * np.outer(dx, dx) - 2.0 * b * np.eye(n))
        return val, grad, hess

    return sl.ScalarField(n, evaluator, tag="bump")


def run_probes(sl, seed: int) -> dict[str, tuple[float, str]]:
    """Time each baseline row once per REPEATS; returns metric -> (value, unit)."""
    rng = np.random.default_rng(seed)
    pts = sl.halton.box_points(POINTS, N, halfwidth=2.0)
    psi = sl.MobiusMap((sl.Translation(rng.normal(size=N)), sl.Inversion(),
                        sl.Dilation(float(rng.uniform(0.5, 2.0)))))
    poles = psi.poles(N)
    pts = pts[np.min([np.linalg.norm(pts - p, axis=1) for p in poles], axis=0) > 0.1]
    field = _bump_field(sl, N, rng)
    moved = sl.transform_field(field, psi)
    bubble = sl.bubble_field(sl.BubbleSpec(N, K, 1.0))
    jets = [bubble.jet(x) for x in pts]
    c = sl.c_constant(N, K)
    # the homotopy subcommand's defaults: r_b = 5, target scale a = 1
    spec = sl.BvpSpec(N, K, 5.0, c * (1.0 / 26.0) ** ((N - 2.0) / 2.0), m=512,
                      a_init=1.0)
    shot = sl.shoot(c, N, K, 10.0, tol=1e-12)

    def each(fn, items):
        def run():
            for x in items:
                fn(x)
        return run

    us, ms = 1e6, 1e3
    count = len(pts)
    return {
        "probe.mobius_jet_us": (us * _median_time(each(psi.jet, pts), count), "us"),
        "probe.raw_jet_us": (us * _median_time(each(field.raw_jet, pts), count), "us"),
        "probe.transformed_jet_us": (
            us * _median_time(each(moved.raw_jet, pts), count), "us"),
        "probe.schouten_spectrum_us": (
            us * _median_time(each(sl.schouten_spectrum, jets), count), "us"),
        "probe.verify_us_per_point": (us * _median_time(
            lambda: sl.verify_solution(bubble, N, K, sample_points=pts), count), "us"),
        "probe.shoot_ms": (ms * _median_time(lambda: sl.shoot(c, N, K, 10.0, tol=1e-12)), "ms"),
        "probe.shoot_nodes": (float(shot.r.size), "count"),
        "probe.continue_path_ms": (ms * _median_time(lambda: sl.continue_path(spec)), "ms"),
        "probe.harnack_product_ms": (
            ms * _median_time(lambda: sl.harnack_product(bubble, 1.0)), "ms"),
    }
