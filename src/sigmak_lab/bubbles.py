"""The closed-form spherical solution family and its verification harness.

For every dimension n >= 3 and cone index 1 <= k <= n the field

    u(x) = c(n, k) (a / (1 + a^2 |x - center|^2))^{(n-2)/2},
    c(n, k) = 2^{(n-2)/4} C(n, k)^{(n-2)/(4k)},

solves sigma_k(lambda(A(u))) = 1 with eigenvalues inside Gamma_k; indeed
A(u) is C(n,k)^{-1/k} times the identity at every point. This module
provides the family, residual verification against the equation on
deterministic sample sets, and the Harnack product functional

    (max over B_R of u) * (min over B_{2R} of u) * R^{n-2},

whose supremum over the family is finite; the sweep reports the empirical
supremum as a lower bound for the sharp constant, with no sharpness claim.
"""

from __future__ import annotations

import contextlib
import functools
import math
from dataclasses import dataclass

import numpy as np

from .conformal import Domain, MobiusMap, ScalarField, _checked_jets, _lifted, _pullback, \
    _schouten_batch, random_mobius_map_avoiding
from .errors import ConfigError, PositivityError, _require_positive, check_nk, check_positive
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
    "harnack_product",
    "harnack_sweep",
    "sweep_supremum",
]


def c_constant(n: int, k: int) -> float:
    """Normalization constant 2^{(n-2)/4} C(n,k)^{(n-2)/(4k)} of the family.

    At k = 1 this reduces to (2n)^{(n-2)/4}.
    """
    check_nk(n, k)
    return 2.0 ** ((n - 2.0) / 4.0) * math.comb(n, k) ** ((n - 2.0) / (4.0 * k))


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters (n, k, scale a, center) of one member of the family."""

    n: int
    k: int
    a: float
    center: np.ndarray | None = None

    def __post_init__(self):
        check_nk(self.n, self.k)
        check_positive("scale a", self.a)
        c = np.zeros(self.n) if self.center is None else np.asarray(self.center, dtype=float)
        if c.shape != (self.n,) or not np.all(np.isfinite(c)):
            raise ConfigError(f"center must be a finite vector of shape ({self.n},)")
        object.__setattr__(self, "center", c)


def _bubble_jets(n: int, k: int, a, center, X, order: int):
    """Jets of the family member of scale a and center at the rows of X
    (..., n); an array a broadcasts against the leading axes of X."""
    m = (n - 2.0) / 2.0
    d = X - center
    amp = c_constant(n, k) * a ** m
    w = 1.0 + a * a * np.einsum("...j,...j->...", d, d)
    val = amp * w ** (-m)
    if not order:
        return val, None, None
    # u' factors: grad = -2 m a^2 amp w^{-m-1} d
    f1 = -2.0 * m * a * a * amp * w ** (-m - 1.0)
    grad = f1[..., None] * d
    f2 = 4.0 * m * (m + 1.0) * a ** 4 * amp * w ** (-m - 2.0)
    hess = f1[..., None, None] * np.eye(n) \
        + f2[..., None, None] * (d[..., :, None] * d[..., None, :])
    return val, grad, hess


def bubble_field(spec: BubbleSpec) -> ScalarField:
    """The closed-form field with analytic first and second derivatives."""
    jets = functools.partial(_bubble_jets, spec.n, spec.k, spec.a, spec.center)
    tag = f"bubble(n={spec.n},k={spec.k},a={spec.a:g})"
    return ScalarField(spec.n, domain=Domain(), tag=tag, jets=jets)


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
    sample_points (N, n).

    Deterministic samples (such as `halton.box_points`) make reports
    reproducible bit for bit. All jets are analytic; no differencing. Ties
    go to the first sample: for the worst residual, the smallest margin and
    the first violation alike.
    """
    if u.n != n:
        raise ConfigError(f"field dimension {u.n} does not match n={n}")
    check_nk(n, k)
    pts = np.asarray(sample_points, dtype=float)
    if pts.ndim != 2 or len(pts) == 0:
        raise ConfigError("verification needs a nonempty (N, n) sample set")
    lam = np.linalg.eigvalsh(_schouten_batch(*_checked_jets(pts, *u.jets(pts, 2))))
    e = _esym_all_batch(lam)
    res = np.abs(e[:, k] - 1.0)
    margin = _cone_margin(e, k)
    worst = int(np.argmax(res))
    low = int(np.argmin(margin))
    violations = np.flatnonzero(margin <= 0.0)
    return SolutionReport(n, k, len(pts), float(res[worst]), pts[worst],
                          float(margin[low]), pts[low], int(violations.size),
                          pts[violations[0]] if violations.size else None)


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
        if not (self.R > 0.0 and self.max_br > 0.0 and self.min_2br > 0.0
                and self.product_scaled > 0.0):
            raise PositivityError("Harnack report entries must all be positive")


_BLOCK_VALUES = 2 ** 15  # grid keys of the family held at once by a sweep


@functools.lru_cache
def _grid_directions(n: int, n_angular: int) -> np.ndarray:
    """Read-only grid directions: the 2n axes, then max(1, n_angular*(n-1)) Halton ones."""
    dirs = np.vstack([np.eye(n), -np.eye(n),
                      sphere_directions(max(1, n_angular * (n - 1)), n)])
    dirs.flags.writeable = False
    return dirs


def _harnack_grid(center: np.ndarray, R: float, n_radial: int, n_angular: int, sphere: bool):
    """(center, R, n_radial, shells): shells (S, D, n) holds B_R's shells, the radii
    rho = linspace(0, R, n_radial) times the D `_grid_directions`, then B_2R's: all
    of rho doubled or, with sphere (the sweep only), its sphere |x| = 2 rho[-1]."""
    check_positive("radius R", R)
    if n_radial < 1:
        raise ConfigError(f"n_radial={n_radial} must be >= 1")
    if n_angular < 0:
        raise ConfigError(f"n_angular={n_angular} must be >= 0")
    rho = np.linspace(0.0, R, n_radial)
    rho = np.concatenate([rho, 2.0 * (rho[-1:] if sphere else rho)])
    shells = rho[:, None, None] * _grid_directions(center.size, n_angular)
    shells += center
    return center, R, n_radial, shells


def _grid_extrema(grid_keys, grid):
    """Per cell the grid point of its first largest key over B_R, then of its first
    least key over B_2R's shells (the sweep's: its sphere), in grid order. Keys
    rank points as values do: the values (`harnack_product`) or -W (`_family`)."""
    _, _, n_radial, shells = grid
    pts, inner = shells.reshape(-1, shells.shape[2]), n_radial * shells.shape[1]
    idx = [np.stack([keys[:, :inner].argmax(axis=1), keys[:, inner:].argmin(axis=1) + inner],
                    axis=1) for keys in grid_keys(pts)]
    return pts[np.concatenate(idx).ravel()]


def _harnack_cells(grid_keys, jets, domain: Domain, grid):
    """Harnack reports of a stack of fields (cells) on one `_harnack_grid`.

    grid_keys(X) yields the keys (`_grid_extrema`) of consecutive cells at the
    rows of X (N, n) in blocks (B, N), each valid only until the next one is
    drawn; jets(X, order, cells) gives the jets of cell cells[i] at row i, so
    the values at the best grid points too. From them one stacked Newton
    step, projected into its ball, wins where strictly better. A singular hessian
    (LinAlgError, the only error caught) keeps both grid extrema of its own
    cell; a trial point with a non-finite step or outside the domain keeps
    its grid value.
    """
    center, R, n = grid[0], grid[1], grid[0].size
    sign, radius = np.array([1.0, -1.0]), np.array([R, 2.0 * R])
    x = _grid_extrema(grid_keys, grid)
    cells, ball = np.divmod(np.arange(len(x)), 2)
    v, grad, hess = jets(x, 2, cells)
    v, grad, hess = v.copy(), grad.reshape(-1, 2, n, 1), hess.reshape(-1, 2, n, n)
    try:
        step = -np.linalg.solve(hess, grad)
    except np.linalg.LinAlgError:
        step = np.full_like(grad, np.nan)
        for c in range(len(hess)):
            with contextlib.suppress(np.linalg.LinAlgError):
                step[c] = -np.linalg.solve(hess[c], grad[c])
    step = step.reshape(-1, n)
    rows = np.flatnonzero(np.isfinite(step).all(axis=1))
    x_try = x[rows] + step[rows]
    offset, limit = x_try - center, radius[ball[rows]]
    dist = np.linalg.norm(offset, axis=1)
    out = dist > limit
    x_try[out] = center + offset[out] * (limit[out] / dist[out])[:, None]
    inside = domain.contains(x_try)
    rows, x_try = rows[inside], x_try[inside]
    if rows.size:
        v_try = jets(x_try, 0, cells[rows])[0]
        better = sign[ball[rows]] * v_try > sign[ball[rows]] * v[rows]
        x[rows[better]], v[rows[better]] = x_try[better], v_try[better]
    return [HarnackReport(R, hi, lo, hi * lo * R ** (n - 2.0), xa, xb)
            for (xa, xb), (hi, lo) in zip(x.reshape(-1, 2, n), v.reshape(-1, 2).tolist())]


def harnack_product(u: ScalarField, R: float, center=None, *,
                    n_radial: int = 64, n_angular: int = 64) -> HarnackReport:
    """Scaled Harnack product of u around a center (the origin if None).

    The one-cell case of `_harnack_cells`: one batch evaluation of the grid
    over B_R and all of B_2R's doubled shells, its values the keys, then one
    batched polish step, under its rules. The product is bounded only on
    solutions; whether u is one is for `verify_solution` to say.
    """
    center = np.zeros(u.n) if center is None else np.asarray(center, dtype=float)
    return _harnack_cells(lambda X: [u.values(X)[None]],
                          lambda X, order, cells: u.jets(X, order),
                          u.domain, _harnack_grid(center, R, n_radial, n_angular, False))[0]


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


def _family(n: int, k: int, scales: np.ndarray, psi: MobiusMap):
    """(grid_keys, jets) for `_harnack_cells` of the word images
    |J_psi|^p (u_a o psi) of the centered family over the scales a. Rows 0
    and n+1 of the word's matrix M give lam = |det J_psi|^(-1/n) and
    q = lam |psi(x)|^2 (`MobiusMap._walk`); |J_psi|^p = lam^-m, so
    u = amp (lam + a^2 q)^-m falls strictly as W = lam + a^2 q rises: -W is
    the key. Per grid lam and q come from one two-row product, per block of
    scales (at most _BLOCK_VALUES keys, in one reused buffer) only -W, by two
    ufuncs; no power and no positivity check. Values come from jets
    (`_pullback` of `_bubble_jets`, checked positive) at the points the keys pick."""
    def grid_keys(X):
        lam, q = _lifted(psi._matrix(n)[[0, n + 1]], X).T
        block = max(1, _BLOCK_VALUES // len(X))
        buf = np.empty((min(block, scales.size), len(X)))
        for lo in range(0, scales.size, block):
            a = scales[lo:lo + block, None]
            key = np.multiply(-(a * a), q, out=buf[:scales.size - lo])
            yield np.subtract(key, lam, out=key)

    def jets(X, order, cells):
        st = psi._walk(X, order)
        u, grad, hess = _pullback(st, *_bubble_jets(n, k, scales[cells], 0.0, st.y, order))
        return _require_positive(X, u), grad, hess
    return grid_keys, jets


def harnack_sweep(n: int, k: int, a_grid, R_grid, *,
                  n_radial: int = 64, n_angular: int = 64,
                  mobius_words: int = 0, seed: int = 0) -> list[SweepRow]:
    """Harnack products over the (a, R) grid of family members centered at
    the origin, around the origin.

    With mobius_words > 0, additional rows sweep random word images of
    each member; words whose poles land inside B_{3R+1/2} of the origin,
    R the largest radius, are redrawn, since the product is only
    meaningful for fields that are smooth and positive on the full ball.
    Each (word, R) pair is one `_harnack_cells` stack over all scales on R's
    one `_harnack_grid` (`_family`: lam and q once per pair, the key -W once
    per block of scales), the bubble rows that of the empty word. B_2R's grid
    is its sphere |x| = 2R: W = (M_0 + a^2 M_{n+1}) (1, x, |x|^2), M the word's
    matrix, is a quadratic alpha |x|^2 + b.x + gamma, alpha >= 0 as W > 0 off
    the pole, convex along each grid ray, its largest grid value at the center
    or on the sphere, and on the axis +-e_i with +-b_i >= 0 the sphere has
    W >= W(0) = gamma. So u's least grid value on B_2R lies on the sphere, for
    these fields only: `harnack_product` takes any field and keeps every
    doubled shell. Rows come back in fixed order (label-major, then a-major,
    then R), and the empirical supremum is a lower bound for the sharp
    constant. Empty grids give an empty list.
    """
    a_vals = np.atleast_1d(np.asarray(a_grid, dtype=float)).tolist()
    r_vals = np.atleast_1d(np.asarray(R_grid, dtype=float)).tolist()
    if not a_vals or not r_vals:
        return []
    for a in a_vals:
        check_positive("scale a", a)
    if seed < 0:
        raise ConfigError(f"seed={seed} must be nonnegative")
    if mobius_words < 0:
        raise ConfigError(f"mobius_words={mobius_words} must be nonnegative")
    rng = np.random.default_rng(seed)
    clearance = 3.0 * max(r_vals) + 0.5
    words = [("bubble", MobiusMap(()))] + [
        (f"mobius{j}", random_mobius_map_avoiding(rng, n, np.zeros(n), clearance))
        for j in range(mobius_words)]
    grids = [_harnack_grid(np.zeros(n), R, n_radial, n_angular, True) for R in r_vals]
    rows = []
    for label, psi in words:
        family = _family(n, k, np.array(a_vals), psi)
        reps = [_harnack_cells(*family, Domain(), grid) for grid in grids]
        rows += [SweepRow(label, n, k, a, R, rep.max_br, rep.min_2br, rep.product_scaled)
                 for a, by_r in zip(a_vals, zip(*reps)) for R, rep in zip(r_vals, by_r)]
    return rows


def sweep_supremum(rows: list[SweepRow]) -> float:
    """Largest scaled product in the sweep (the empirical lower bound)."""
    if not rows:
        raise ConfigError("cannot take the supremum of an empty sweep")
    return max(row.product_scaled for row in rows)
