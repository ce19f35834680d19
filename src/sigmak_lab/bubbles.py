"""The closed-form spherical solution family and its verification harness.

For every dimension n >= 3 and cone index 1 <= k <= n the field

    u(x) = c(n, k) (a / (1 + a^2 |x|^2))^{(n-2)/2},
    c(n, k) = 2^{(n-2)/4} C(n, k)^{(n-2)/(4k)},

solves sigma_k(lambda(A(u))) = 1 with eigenvalues inside Gamma_k; indeed
A(u) is C(n,k)^{-1/k} times the identity at every point. A member centered
at x0 is the image of u under the translation x -> x - x0, one of the Mobius
words of `conformal`, so the family here is centered at the origin. This module
provides the family, residual verification against the equation on
deterministic sample sets, and the Harnack product functional

    (max over B_R of u) * (min over B_{2R} of u) * R^{n-2},

whose supremum over the family is finite. Every Mobius image of a member is
again a bubble, so the sweep reads each of its rows exactly off the image's
quadratic u^{-2/(n-2)}, whose constant term is fixed by the invariant
beta = a^2 / alpha (see `harnack_sweep`); the supremum of the rows over the
sampled scales and words is a lower bound for the sharp constant, with no
sharpness claim. `harnack_product` takes any field, on a grid.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .conformal import MobiusMap, ScalarField, _checked_jets, \
    _checked_schouten, _pullback, _walk_words, random_mobius_map_avoiding
from .errors import ConfigError, FloatRangeError, _require_finite, _require_positive, \
    check_count, check_nk, check_positive
from .halton import sphere_directions
from .symfun import _cone_margin, _esym_all_batch

__all__ = [
    "BubbleSpec",
    "SolutionReport",
    "HarnackReport",
    "SweepRow",
    "c_constant",
    "bubble_field",
    "verify_solution",
    "verify_images",
    "harnack_product",
    "harnack_sweep",
]


def c_constant(n: int, k: int) -> float:
    """Normalization constant 2^{(n-2)/4} C(n,k)^{(n-2)/(4k)} of the family.

    At k = 1 this reduces to (2n)^{(n-2)/4}.
    """
    check_nk(n, k)
    try:
        c = 2.0 ** ((n - 2.0) / 4.0) * math.comb(n, k) ** ((n - 2.0) / (4.0 * k))
    except OverflowError:
        c = math.inf
    if c == math.inf:
        raise FloatRangeError(f"c(n, k) leaves the float range at n={n}, k={k}", where=(n, k))
    return c


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters (n, k, scale a) of one member of the family, centered at the
    origin; translate its field for another center."""

    n: int
    k: int
    a: float

    def __post_init__(self):
        check_nk(self.n, self.k)
        check_positive("scale a", self.a)


def _power(a: float, p: float) -> float:
    """a ** p, or inf where the float power overflows."""
    try:
        return a ** p
    except OverflowError:
        return math.inf


def _bubble(n: int, k: int, a, X):
    """(u, w, c a^m) of the family member of scale a at the rows of X (N, d),
    points (d = n) or radii (d = 1): u = c a^m w^-m, w = 1 + a^2 |x|^2. An
    amplitude c a^m past the float range is a FloatRangeError that names a."""
    m = (n - 2.0) / 2.0
    amp = c_constant(n, k) * _power(a, m)
    if not amp < math.inf:
        raise FloatRangeError(f"amplitude c a^m of scale a={a!r} overflows at n={n}", where=a)
    w = 1.0 + a * a * np.einsum("...j,...j->...", X, X)
    return amp * w ** (-m), w, amp


def bubble_field(spec: BubbleSpec) -> ScalarField:
    """The closed-form field with analytic first and second derivatives."""
    n, k, a = spec.n, spec.k, spec.a
    m = (n - 2.0) / 2.0

    def jets(X):
        u, w, amp = _bubble(n, k, a, X)
        # u' factors: grad = -2 m a^2 amp w^{-m-1} x
        f1 = -2.0 * m * a * a * amp * w ** (-m - 1.0)
        f2 = 4.0 * m * (m + 1.0) * _power(a, 4) * amp * w ** (-m - 2.0)
        return u, f1[..., None] * X, f1[..., None, None] * np.eye(n) \
            + f2[..., None, None] * (X[..., :, None] * X[..., None, :])

    tag = f"bubble(n={n},k={k},a={a:g})"
    return ScalarField(n, tag=tag, jets=jets)


# ---------------------------------------------------------------------------
# residual verification
# ---------------------------------------------------------------------------

@dataclass
class SolutionReport:
    """Worst-case equation residual and cone margin over a sample set.

    Cone violations are reported, not raised: margin <= 0 at some sample
    marks the first offending location and bumps the violation count.
    """

    n: int
    k: int
    n_samples: int
    max_residual: float
    worst_point: np.ndarray
    min_margin: float
    margin_point: np.ndarray
    cone_violations: int
    first_violation: np.ndarray | None


def verify_solution(u: ScalarField, n: int, k: int, sample_points) -> SolutionReport:
    """Check |sigma_k(lambda(A(u))) - 1| and the Gamma_k margin at each row of
    sample_points (N, n): the one-field case of `verify_images`, under its
    rules; for bench probes and tests only."""
    return verify_images(u, (), n, k, sample_points)[0]


def verify_images(u: ScalarField, words, n: int, k: int, sample_points) -> list[SolutionReport]:
    """Reports for u, then for each Mobius word psi of words its image
    `transform_field(u, psi)`, on the rows of sample_points (N, n), all in one
    batch: one walk of the stacked words, one jet call of u at the samples and
    their W N images, then one Schouten spectrum of the (1 + W) N rows.

    Deterministic samples (such as `halton.box_points`) make reports
    reproducible bit for bit. All jets are analytic; no differencing. Ties
    go to the first sample: for the worst residual, the smallest margin and
    the first violation alike. The batch runs with numpy's float warnings
    off: a word at its pole raises PoleError, and u's jets raise as
    `ScalarField.jets` does at the first offending sample or image; then a
    value that is not positive (nan included) raises PositivityError, and a
    jet, Schouten matrix or sigma_1..sigma_k that is not finite
    FloatRangeError, each naming the first such sample of the first such field.
    """
    if u.n != n:
        raise ConfigError(f"field dimension {u.n} does not match n={n}")
    check_nk(n, k)
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != n or len(pts) == 0:
        raise ConfigError(f"verification needs a nonempty (N, {n}) sample set")
    npts, fields = len(pts), 1 + len(words)
    rows = np.tile(pts, (fields, 1))
    with np.errstate(all="ignore"):
        st = _walk_words(np.array([psi._matrix(n) for psi in words]).reshape(-1, n + 2, n + 2),
                         pts)
        jets = u.jets(np.concatenate([pts, st.y]))
        images = _pullback(st, *(part[npts:] for part in jets))
        uu, grad, hess = _checked_jets(rows, *(np.concatenate([part[:npts], image])
                                               for part, image in zip(jets, images)))
        e = _esym_all_batch(np.linalg.eigvalsh(_checked_schouten(rows, uu, grad, hess)))
        _require_finite(rows, np.isfinite(e[:, 1:k + 1]).all(axis=1), "sigma_1..sigma_k")
    res = np.abs(e[:, k] - 1.0).reshape(fields, npts)
    margin = _cone_margin(e, k).reshape(fields, npts)
    worst, low = res.argmax(axis=1).tolist(), margin.argmin(axis=1).tolist()
    bad = margin <= 0.0
    first = bad.argmax(axis=1).tolist()
    return [SolutionReport(n, k, npts, float(res[f, worst[f]]), pts[worst[f]],
                           float(margin[f, low[f]]), pts[low[f]], int(bad[f].sum()),
                           pts[first[f]] if bad[f, first[f]] else None)
            for f in range(fields)]


# ---------------------------------------------------------------------------
# Harnack product
# ---------------------------------------------------------------------------

@dataclass
class HarnackReport:
    """Extrema of u over B_R and B_{2R} with the scaled product.

    product_scaled = max_BR * min_2BR * R^{n-2} is the quantity that stays
    bounded on solutions of the sigma_k equation.
    """

    R: float
    max_br: float
    min_2br: float
    product_scaled: float
    argmax: np.ndarray
    argmin: np.ndarray

    def __post_init__(self):
        names = ("R", "max_br", "min_2br", "product_scaled")
        _require_positive(np.array(names), np.array([getattr(self, f) for f in names]))


@functools.lru_cache
def _grid_directions(n: int, n_angular: int) -> np.ndarray:
    """Read-only grid directions: the 2n axes, then max(1, n_angular*(n-1)) Halton ones."""
    dirs = np.vstack([np.eye(n), -np.eye(n),
                      sphere_directions(max(1, n_angular * (n - 1)), n)])
    dirs.flags.writeable = False
    return dirs


def _harnack_grid(n: int, R: float, n_radial: int, n_angular: int) -> np.ndarray:
    """The grid points (2 n_radial D, n) about the origin: B_R's shells, the radii
    rho = linspace(0, R, n_radial) times the D `_grid_directions`, then B_2R's,
    all of rho doubled."""
    check_positive("radius R", R)
    check_count("n_radial", n_radial, 1, math.inf)
    check_count("n_angular", n_angular, 0, math.inf)
    rho = np.linspace(0.0, R, n_radial)
    rho = np.concatenate([rho, 2.0 * rho])
    return (rho[:, None, None] * _grid_directions(n, n_angular)).reshape(-1, n)


def _grid_extrema(values, pts) -> np.ndarray:
    """The grid points (2, n) of the first largest of values (N,) over B_R's half of
    pts (N, n), then of the first least over B_2R's half, in grid order."""
    half = len(pts) // 2
    return pts[[values[:half].argmax(), values[half:].argmin() + half]]


def harnack_product(u: ScalarField, R: float, *,
                    n_radial: int = 64, n_angular: int = 64) -> HarnackReport:
    """Scaled Harnack product of u around the origin; translate the field for
    another center.

    One batch evaluation of u on the grid over B_R and all of B_2R's doubled
    shells (`_harnack_grid`) picks the grid maximum over B_R and minimum over
    B_2R; like every field evaluation it forms u's full 2-jet, of which the
    scan reads the values. One Newton step from each, projected into its
    ball, then wins where it is strictly better. A singular hessian (LinAlgError, the only error
    caught) keeps both grid extrema, and a row with a non-finite step keeps
    its grid value. The product is bounded only on solutions; whether u is
    one is for `verify_solution` to say. No workflow calls it; it waits on
    the bench probes moving to `harnack_sweep`.
    """
    pts = _harnack_grid(u.n, R, n_radial, n_angular)
    x = _grid_extrema(u.values(pts), pts)
    v, grad, hess = u.jets(x)
    v = v.copy()
    try:
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.full_like(x, np.nan)
    rows = np.flatnonzero(np.isfinite(step).all(axis=1))
    x_try = x[rows] + step[rows]
    limit = np.array([R, 2.0 * R])[rows]
    dist = np.linalg.norm(x_try, axis=1)
    out = dist > limit
    x_try[out] *= (limit[out] / dist[out])[:, None]
    if rows.size:
        v_try, sign = u.values(x_try), np.array([1.0, -1.0])[rows]
        better = sign * v_try > sign * v[rows]
        x[rows[better]], v[rows[better]] = x_try[better], v_try[better]
    hi, lo = v.tolist()
    return HarnackReport(R, hi, lo, hi * lo * R ** (u.n - 2.0), x[0], x[1])


@dataclass(frozen=True)
class SweepRow:
    """One Harnack product evaluation over the family sweep."""

    label: str
    n: int
    k: int
    a: float
    R: float
    max_br: float
    min_2br: float
    product_scaled: float


def harnack_sweep(n: int, k: int, a_grid, R_grid, *,
                  mobius_words: int = 0, seed: int = 0) -> list[SweepRow]:
    """Exact Harnack products over the (a, R) grid of family members centered
    at the origin, around the origin.

    With mobius_words > 0, additional rows sweep random word images of
    each member; words whose poles land inside B_{3R+1/2} of the origin,
    R the largest radius, are redrawn, since the product is only
    meaningful for fields that are smooth and positive on the full ball.
    Each image is again a bubble, c a^m W^-m with m = (n-2)/2 and
    W = (M_0 + a^2 M_{n+1}) (1, x, |x|^2) = alpha |x - x0|^2 + beta, M the
    word's matrix (the identity for the bubble rows). Every atom's matrix
    preserves the form |x|^2 - X_0 X_{n+1}, so rows 0 and n+1 of M are null and
    pair to a constant: 4 alpha gamma - |b|^2 = 4 a^2 for W's coefficients
    (gamma, b, alpha), and beta = a^2 / alpha has no cancellation. The rows
    are read off V = W / a = alpha' |x - x0|^2 + 1 / alpha', alpha' = alpha / a,
    in which no a^2 under- or overflows: u = c V^-m and, with d = |x0|,
    - max over B_R = c (alpha' max(0, d - R)^2 + 1 / alpha')^-m, at x0 clipped to B_R;
    - min over B_2R = c (alpha' (2R + d)^2 + 1 / alpha')^-m, at -2R x0 / d.
    A value that is not positive and finite raises PositivityError at its
    point, and no floating-point warning escapes. Rows come back in fixed
    order (label-major, then a-major, then R); their supremum is a lower
    bound for the sharp constant. Empty grids give an empty list, a bool grid a ConfigError.
    """
    if bool in (np.asarray(a_grid).dtype, np.asarray(R_grid).dtype):  # dtype=float would hide it
        raise ConfigError("the scale and radius grids must be numbers, not bools")
    a_vals = np.atleast_1d(np.asarray(a_grid, dtype=float))
    r_vals = np.atleast_1d(np.asarray(R_grid, dtype=float))
    if not a_vals.size or not r_vals.size:
        return []
    for name, grid in (("scale a", a_vals), ("radius R", r_vals)):
        for v in grid.tolist():
            check_positive(name, v)
    check_count("seed", seed, 0, math.inf)
    check_count("mobius_words", mobius_words, 0, math.inf)
    c, m = c_constant(n, k), (n - 2.0) / 2.0
    rng = np.random.default_rng(seed)
    clearance = 3.0 * r_vals.max() + 0.5
    words = [("bubble", MobiusMap(()))] + [
        (f"mobius{j}", random_mobius_map_avoiding(rng, n, np.zeros(n), clearance))
        for j in range(mobius_words)]
    M = np.stack([psi._matrix(n)[[0, n + 1]] for _, psi in words])
    a, R = a_vals[:, None], r_vals  # axes (word, a, R)
    with np.errstate(all="ignore"):
        coef = M[:, None, 0] / a + a * M[:, None, 1]  # V's (gamma', b', alpha')
        alpha = coef[..., -1:]
        x0 = coef[..., 1:-1] / (-2.0 * alpha)
        d = np.linalg.norm(x0, axis=-1, keepdims=True)
        hi = c * (alpha * np.maximum(0.0, d - R) ** 2 + 1.0 / alpha) ** -m
        lo = c * (alpha * (2.0 * R + d) ** 2 + 1.0 / alpha) ** -m
        vals = np.stack([hi, lo, hi * lo * R ** (n - 2.0)])
        toward = np.where(d > 0.0, x0 / d, np.eye(n)[0])[:, :, None]
    at_hi = toward * np.minimum(d, R)[..., None]
    where = np.stack([at_hi, -2.0 * R[:, None] * toward, at_hi]).reshape(-1, n)
    _require_positive(where, np.where(vals < np.inf, vals, np.nan).ravel())  # inf fails as nan
    cells = itertools.product([label for label, _ in words], a_vals.tolist(), r_vals.tolist())
    return [SweepRow(label, n, k, a, R, *row) for (label, a, R), row
            in zip(cells, zip(*(v.ravel().tolist() for v in vals)))]
