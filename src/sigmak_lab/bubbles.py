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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .conformal import ScalarField, Domain, _checked_jets, _schouten_batch, \
    random_mobius_map_avoiding, transform_field
from .errors import ConfigError, PositivityError
from .halton import box_points, sphere_directions
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
    if not (isinstance(n, (int, np.integer)) and n >= 3):
        raise ValueError(f"dimension n={n!r} must be an integer >= 3")
    if not (isinstance(k, (int, np.integer)) and 1 <= k <= n):
        raise ValueError(f"cone index k={k!r} outside 1..{n}")
    return 2.0 ** ((n - 2.0) / 4.0) * math.comb(n, k) ** ((n - 2.0) / (4.0 * k))


@dataclass(frozen=True)
class BubbleSpec:
    """Parameters (n, k, scale a, center) of one member of the family."""

    n: int
    k: int
    a: float
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"dimension n={self.n} must be >= 3")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"cone index k={self.k} outside 1..{self.n}")
        if not self.a > 0.0:
            raise ConfigError(f"scale a={self.a} must be positive")
        c = np.zeros(self.n) if self.center is None else np.asarray(self.center, dtype=float)
        if c.shape != (self.n,):
            raise ConfigError(f"center must have shape ({self.n},)")
        object.__setattr__(self, "center", c)


def bubble_field(spec: BubbleSpec) -> ScalarField:
    """The closed-form field with analytic first and second derivatives."""
    n, a, x0 = spec.n, spec.a, spec.center
    m = (n - 2.0) / 2.0
    amp = c_constant(n, spec.k) * a ** m

    def jets(X, order):
        d = X - x0
        w = 1.0 + a * a * np.einsum("ij,ij->i", d, d)
        val = amp * w ** (-m)
        if not order:
            return val, None, None
        # u' factors: grad = -2 m a^2 amp w^{-m-1} d
        f1 = -2.0 * m * a * a * amp * w ** (-m - 1.0)
        grad = f1[:, None] * d
        f2 = 4.0 * m * (m + 1.0) * a ** 4 * amp * w ** (-m - 2.0)
        hess = f1[:, None, None] * np.eye(n) \
            + f2[:, None, None] * (d[:, :, None] * d[:, None, :])
        return val, grad, hess

    tag = f"bubble(n={n},k={spec.k},a={a:g})"
    return ScalarField(n, domain=Domain(), tag=tag, jets=jets)


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


def verify_solution(u: ScalarField, n: int, k: int, sample_points=None, *,
                    n_samples: int = 1000) -> SolutionReport:
    """Check |sigma_k(lambda(A(u))) - 1| and the Gamma_k margin pointwise.

    Samples default to a Halton set in the box [-3, 3]^n, so reports are
    reproducible bit for bit. All jets are analytic; no differencing. Ties
    go to the first sample: for the worst residual, the smallest margin and
    the first violation alike.
    """
    if u.n != n:
        raise ValueError(f"field dimension {u.n} does not match n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside 1..{n}")
    if sample_points is None:
        sample_points = box_points(n_samples, n, halfwidth=3.0)
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
    equation_residual: float | None = None
    solution_like: bool | None = None

    def __post_init__(self):
        if not (self.R > 0.0 and self.max_br > 0.0 and self.min_2br > 0.0
                and self.product_scaled > 0.0):
            raise PositivityError("Harnack report entries must all be positive")


@functools.lru_cache
def _grid_directions(n: int, n_angular: int) -> np.ndarray:
    """Read-only grid directions: the 2n axes, then n_angular*(n-1) Halton ones
    stepped inward to a computed norm <= 1 (a shell 2R = 2 fits a ball of radius 2)."""
    dirs = np.vstack([np.eye(n), -np.eye(n),
                      sphere_directions(max(1, n_angular * (n - 1)), n)])
    while (over := np.linalg.norm(dirs, axis=1) > 1.0).any():
        dirs[over] = np.nextafter(dirs[over], 0.0)
    dirs.flags.writeable = False
    return dirs


def _harnack_cell(u: ScalarField, center: np.ndarray, R: float, n_radial: int,
                  n_angular: int):
    """Points (argmax over B_R, argmin over B_2R) and their values (max, min):
    one grid of shells for both balls, scaled exactly by 2 for B_2R, and a
    Newton step from each best grid point, projected into its ball, that
    wins where strictly better."""
    sign, radius = np.array([1.0, -1.0]), np.array([R, 2.0 * R])
    dirs = _grid_directions(center.size, n_angular)
    shell = (np.linspace(0.0, R, n_radial)[:, None, None] * dirs).reshape(-1, center.size)
    pts = center + np.array([1.0, 2.0])[:, None, None] * shell
    vals = u.values(pts.reshape(-1, center.size)).reshape(2, -1)
    idx = np.argmax(sign[:, None] * vals, axis=1)
    x_best, v_best = pts[[0, 1], idx], vals[[0, 1], idx]
    _, grad, hess = u.jets(x_best, 2)
    try:
        step = -np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        return x_best, v_best
    rows = np.flatnonzero(np.isfinite(step).all(axis=1))
    x_try = x_best[rows] + step[rows]
    offset, limit = x_try - center, radius[rows]
    dist = np.linalg.norm(offset, axis=1)
    out = dist > limit
    x_try[out] = center + offset[out] * (limit[out] / dist[out])[:, None]
    inside = u.domain.contains(x_try)
    rows, x_try = rows[inside], x_try[inside]
    if rows.size:
        v_try = u.values(x_try)
        better = sign[rows] * v_try > sign[rows] * v_best[rows]
        x_best[rows[better]], v_best[rows[better]] = x_try[better], v_try[better]
    return x_best, v_best


def harnack_product(u: ScalarField, R: float, center=None, *,
                    n_radial: int = 64, n_angular: int = 64,
                    residual_check: int | None = None) -> HarnackReport:
    """Scaled Harnack product of u around a center.

    Extrema come from one batch evaluation of a deterministic grid (n_radial
    shells times the 2n axes and n_angular*(n-1) Halton directions) over B_R
    and, scaled by 2, over B_{2R}, then one batched polish step. A singular
    hessian (LinAlgError, the only error caught) keeps both grid extrema; a
    trial point with a non-finite Newton step or outside u's domain keeps
    its grid value. With residual_check=k, the sigma_k residual of u is
    spot-checked on a few points and the report flags whether u looks like
    a solution at all; the product of a non-solution is bounded by nothing.
    """
    if not R > 0.0:
        raise ConfigError(f"radius R={R} must be positive")
    if n_radial < 1:
        raise ConfigError(f"n_radial={n_radial} must be >= 1")
    n = u.n
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    (argmax, argmin), vals = _harnack_cell(u, center, R, n_radial, n_angular)
    max_br, min_2br = map(float, vals)
    residual = looks_like = None
    if residual_check is not None:
        spots = box_points(8, n, halfwidth=R, center=center, start=57)
        rep = verify_solution(u, n, int(residual_check), sample_points=spots)
        residual = rep.max_residual
        looks_like = residual <= 1e-6 and rep.min_margin > 0.0
    return HarnackReport(R, max_br, min_2br, max_br * min_2br * R ** (n - 2.0),
                         argmax, argmin, residual, looks_like)


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


def harnack_sweep(n: int, k: int, a_grid, R_grid, *, center=None,
                  n_radial: int = 64, n_angular: int = 64,
                  mobius_words: int = 0, seed: int = 0) -> list[SweepRow]:
    """Harnack products over the (a, R) grid of centered family members.

    With mobius_words > 0, additional rows sweep random word images of the
    a = 1 member; words whose poles land inside B_{3R+1/2} of the probe
    center, R the largest radius, are redrawn, since the product is only
    meaningful for fields that are smooth and positive on the full ball.
    Rows come back in fixed order (label-major, then a-major, then R), and
    the empirical supremum is a lower bound for the sharp constant. Empty
    grids give an empty list.
    """
    a_vals = np.atleast_1d(np.asarray(a_grid, dtype=float)).tolist()
    r_vals = np.atleast_1d(np.asarray(R_grid, dtype=float)).tolist()
    if not a_vals or not r_vals:
        return []
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float)

    rng = np.random.default_rng(seed)
    clearance = 3.0 * max(r_vals) + 0.5
    fields = [("bubble", None)] + [
        (f"mobius{j}", random_mobius_map_avoiding(rng, n, center, clearance))
        for j in range(mobius_words)]

    rows = []
    for label, psi in fields:
        for a in a_vals:
            base = bubble_field(BubbleSpec(n, k, a, center=center))
            fld = base if psi is None else transform_field(base, psi)
            for R in r_vals:
                rep = harnack_product(fld, R, center=center,
                                      n_radial=n_radial, n_angular=n_angular)
                rows.append(SweepRow(label, n, k, a, R, rep.max_br, rep.min_2br,
                                     rep.product_scaled))
    return rows


def sweep_supremum(rows: list[SweepRow]) -> float:
    """Largest scaled product in the sweep (the empirical lower bound)."""
    if not rows:
        raise ValueError("cannot take the supremum of an empty sweep")
    return max(row.product_scaled for row in rows)
