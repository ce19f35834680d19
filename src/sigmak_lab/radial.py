"""Radial reduction of the sigma_k equation and the shooting desk check.

For a radial factor u(r) the hessian splits as

    hess u = u'' P_rad + (u'/r) P_tan,

with P_rad, P_tan the projections along and across the radius, so the
Schouten-type matrix has exactly two eigenvalues:

    lam_rad = -b q1 u'' + (n-1) d q2 u'^2          (multiplicity 1)
    lam_tan = -b q1 u'/r - d q2 u'^2               (multiplicity n-1)

where b = 2/(n-2), d = 2/(n-2)^2, q1 = u^{-(n+2)/(n-2)},
q2 = u^{-2n/(n-2)}. At r = 0 the quotient u'/r is replaced by its limit
u''. This reduction is derived here, not imported; a full-matrix oracle in
the tests compares it against `conformal.schouten_flat` mechanically.

sigma_k of the pair is linear in lam_rad,

    sigma_k = C(n-1, k-1) lam_tan^{k-1} lam_rad + C(n-1, k) lam_tan^k,

so the curvature u'' demanded by sigma_k = 1 is a linear solve and no
root-branch ambiguity exists: shooting suffices. A constant right-hand side
c would be no more general: A_{s u} = s^{-4/(n-2)} A_u, so c^{-(n-2)/(4k)} u
solves sigma_k = c exactly when u solves sigma_k = 1. Integration uses a
classic fourth-order Runge-Kutta scheme, adaptive by step doubling, with a
series start at the origin (u'/r is not directly evaluable there). The
solve has two forms. `_node_solves` solves an array of nodes in one pass,
isotropically where r = 0, on the pair of `radial_eigenvalues`: a finished
profile's nodes, or the single node of `solve_for_u2`. `_u2_kernel(n, k)`
is its scalar form for the sequential RK stages; a step reuses its k1 for
the half step, and the margin solve at an accepted node is the next
step's k1. The run aborts cleanly when positivity or the cone margin is
lost; past the cone boundary the operator is no longer elliptic and the
computed branch is meaningless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bubbles import _bubble_jets, c_constant
from .conformal import Domain, ScalarField
from .errors import ConeBoundaryError, ConeDomainError, ConfigError, PositivityError, \
    SigmakLabError, StepUnderflowError, check_nk, check_positive

__all__ = [
    "EigenPair",
    "RadialProfile",
    "TailEvidence",
    "LiouvilleReport",
    "radial_eigenvalues",
    "solve_for_u2",
    "shoot",
    "liouville_report",
    "profile_to_field",
    "write_profile_csv",
]

_MARGIN_FLOOR = 1e-10  # integration halts when the cone margin drops below this
_MAX_STEPS = 200000  # step budget of one shot
_TAIL_POINTS = 12  # tail nodes sampled for the Kelvin-image evidence


class EigenPair(NamedTuple):
    """The two eigenvalues of the radial Schouten matrix (floats, or arrays)."""

    lam_rad: float | np.ndarray
    lam_tan: float | np.ndarray

    def vector(self, n: int) -> np.ndarray:
        """lam_rad once and lam_tan n-1 times, along the last axis."""
        return np.stack([self.lam_rad] + [self.lam_tan] * (n - 1), axis=-1)


def _coeffs(n: int):
    b = 2.0 / (n - 2.0)
    d = 2.0 / (n - 2.0) ** 2
    e1 = -(n + 2.0) / (n - 2.0)
    e2 = -2.0 * n / (n - 2.0)
    return b, d, e1, e2


def radial_eigenvalues(u, du, d2u, r, n: int) -> EigenPair:
    """Eigenvalue pair of the Schouten matrix for radial data at radius r.

    u, du, d2u and r are floats, giving a pair of floats, or arrays of one
    shape, giving a pair of arrays. Where r = 0 the tangential slope u'/r
    is replaced by d2u (smooth radial profiles have du = 0 there). A
    non-positive u raises PositivityError naming the first such node.
    """
    check_nk(n, 1)
    u, du, d2u, r = (np.asarray(a, dtype=float) for a in (u, du, d2u, r))
    if not u.min(initial=math.inf) > 0.0:
        bad = np.argmin(u > 0.0)  # the first node that is not positive
        u0, r0 = float(u.flat[bad]), float(r.flat[bad])
        raise PositivityError(f"radial value u={u0} not positive at r={r0}",
                              where=r0, value=u0)
    b, d, e1, e2 = _coeffs(n)
    q1 = u ** e1
    q2 = u ** e2
    slope = np.divide(du, r, out=d2u.copy(), where=r != 0.0)
    lam_tan = -b * q1 * slope - d * q2 * du * du
    lam_rad = -b * q1 * d2u + (n - 1.0) * d * q2 * du * du
    pair = EigenPair(lam_rad, lam_tan)
    return EigenPair(*map(float, pair)) if u.ndim == 0 else pair


def _pair_sigma(lam_rad, lam_tan, combs):
    """(min_j e_j, e_k) of (lam_rad, lam_tan x m), combs = C(m, 0..k), from
    e_j = C(m, j) lam_tan^j + C(m, j-1) lam_tan^{j-1} lam_rad."""
    margin = math.inf
    for j in range(1, len(combs)):
        s = combs[j] * lam_tan ** j + combs[j - 1] * lam_tan ** (j - 1) * lam_rad
        margin = np.minimum(margin, s)
    return margin, s


@functools.lru_cache(maxsize=None)
def _u2_kernel(n: int, k: int):
    """kernel(u, du, r) -> (u'', margin): `solve_for_u2` at r > 0 for a
    valid (n, k) in scalar arithmetic, its constants and binomials computed
    once, for the sequential RK stages."""
    b, d, e1, e2 = _coeffs(n)
    combs = tuple(math.comb(n - 1, j) for j in range(k + 1))
    c_lin, c_top = combs[k - 1], combs[k]

    def kernel(u, du, r):
        if not u > 0.0:
            raise PositivityError(f"radial value u={u} not positive at r={r}",
                                  where=r, value=u)
        try:
            q1, q2 = u ** e1, u ** e2
            lam_tan = -b * q1 * (du / r) - d * q2 * du * du
            coeff = c_lin * lam_tan ** (k - 1)
            if abs(coeff) < 1e-14:
                raise ConeDomainError(
                    f"tangential eigenvalue {lam_tan:.3e} degenerates the linear solve "
                    f"for u'' at r={r}", margin=lam_tan, where=r)
            lam_rad = (1.0 - c_top * lam_tan ** k) / coeff
            d2u = ((n - 1.0) * d * q2 * du * du - lam_rad) / (b * q1)
            margin = math.inf  # _pair_sigma in scalar arithmetic, inlined: it is the hot loop
            for j in range(1, k + 1):
                s = combs[j] * lam_tan ** j + combs[j - 1] * lam_tan ** (j - 1) * lam_rad
                if s < margin:
                    margin = s
            if margin < 0.0:
                raise ConeDomainError(
                    f"solved eigenpair leaves Gamma_{k} at r={r}", margin=margin, where=r)
            return d2u, margin
        except OverflowError as exc:  # a power of u or lam_tan left the float range
            raise ConeDomainError(f"eigenvalue powers overflow at r={r}", where=r) from exc
    return kernel


def _node_solves(r, u, du, n: int, k: int):
    """(u'', cone margin, sigma_k residual) at nodes (r, u, du), in one array pass.

    u'' solves sigma_k = 1 as `_u2_kernel` does, isotropically where r = 0;
    the residual is |sigma_k - 1| of `radial_eigenvalues` at it. A node with
    no admissible solve gets u'' and residual nan, and as margin lam_tan if
    the linear coefficient degenerates, the negative margin if the pair
    leaves Gamma_k, nan if the result is not finite.
    """
    b, _, e1, _ = _coeffs(n)
    combs = [math.comb(n - 1, j) for j in range(k + 1)]
    lam0 = (1.0 / math.comb(n, k)) ** (1.0 / k)  # the isotropic pair at the origin
    origin = r == 0.0
    with np.errstate(all="ignore"):
        # lam_rad is affine in u'' with slope -b u^e1; lam_tan is free of it for r > 0
        lam_rad0, lam_tan = radial_eigenvalues(u, du, np.zeros_like(r), r, n)
        lam_tan = np.where(origin, lam0, lam_tan)
        coeff = combs[k - 1] * lam_tan ** (k - 1)
        lam_rad = np.where(origin, lam0, (1.0 - combs[k] * lam_tan ** k) / coeff)
        d2u = (lam_rad0 - lam_rad) / (b * u ** e1)
        margin = _pair_sigma(lam_rad, lam_tan, combs)[0]
        degenerate = np.abs(coeff) < 1e-14
        finite = np.isfinite(d2u) & np.isfinite(margin)
        margin = np.where(degenerate, lam_tan, np.where(finite, margin, np.nan))
        ok = ~degenerate & finite & (margin >= 0.0)
        d2u = np.where(ok, d2u, np.nan)
        pair = radial_eigenvalues(u[ok], du[ok], d2u[ok], r[ok], n)
        res = np.full_like(r, np.nan)
        res[ok] = np.abs(_pair_sigma(*pair, combs)[1] - 1.0)
    return d2u, margin, res


def solve_for_u2(u: float, du: float, r: float, n: int, k: int) -> tuple[float, float]:
    """The unique u'' making sigma_k of the radial eigenpair equal 1.

    Returns (u'', cone margin of the resulting pair): the one-node case of
    `_node_solves`. A node with no admissible solve (a vanishing linear
    coefficient lam_tan^{k-1} = 0 with k >= 2, a solved pair with strictly
    negative margin, or a result that is not finite) raises
    ConeDomainError carrying the margin `_node_solves` reports. A zero
    margin (boundary) is returned, not raised. A nonzero du at the origin
    is a ConfigError.
    """
    check_nk(n, k)
    if r == 0.0 and abs(du) > 1e-9:
        raise ConfigError(f"du={du} must vanish at the origin")
    d2u, margin, _ = (float(v[0]) for v in _node_solves(
        *np.array([[r], [u], [du]], dtype=float), n, k))
    if math.isnan(d2u):
        raise ConeDomainError(f"no admissible solve for u'' at r={r}", margin=margin, where=r)
    return d2u, margin


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

@dataclass
class RadialProfile:
    """Radial mesh with values and first derivatives of a positive profile."""

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.u = np.asarray(self.u, dtype=float)
        self.du = np.asarray(self.du, dtype=float)
        if not (self.r.shape == self.u.shape == self.du.shape):
            raise ConfigError("mesh, values and derivatives must share a shape")
        if self.r[0] != 0.0:
            raise ConfigError("mesh must start at r = 0")
        if np.any(np.diff(self.r) <= 0.0):
            raise ConfigError("mesh must be strictly increasing")
        if not np.all(self.u > 0.0):
            raise PositivityError("profile values must be positive")
        if self.du[0] != 0.0:
            raise ConfigError("smoothness at the origin requires du[0] = 0")

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


def _rk4_step(kernel, r, u, p, k1p, h):
    """Classic RK4 step of (u, p)' = (p, kernel(u, p, r)[0]); k1p is u'' at (r, u, p)."""
    k1u = p
    k2u = p + 0.5 * h * k1p
    k2p = kernel(u + 0.5 * h * k1u, k2u, r + 0.5 * h)[0]
    k3u = p + 0.5 * h * k2p
    k3p = kernel(u + 0.5 * h * k2u, k3u, r + 0.5 * h)[0]
    k4u = p + h * k3p
    k4p = kernel(u + h * k3u, k4u, r + h)[0]
    return (u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def shoot(u0: float, n: int, k: int, r_max: float, *,
          tol: float = 1e-12, fixed_step: float | None = None) -> RadialProfile:
    """Integrate the radial equation from the origin out to r_max.

    Starts from u(0) = u0, u'(0) = 0 with the curvature solving the
    isotropic equation at the origin. The first node comes from the
    quartic Taylor expansion (the fourth derivative is recovered from the
    equation itself), every later node from fourth-order Runge-Kutta. With
    fixed_step set, the mesh is uniform and no error control runs, which
    is what the convergence-order study wants; otherwise steps adapt by
    step doubling against tol (k1 reused, see the module docstring).

    Aborts with ConeBoundaryError (carrying r and the margin) when the cone
    margin falls below 1e-10 or a node has no admissible solve,
    PositivityError when u stops being positive, StepUnderflowError when
    no admissible step remains; a bad (n, k), tol or fixed_step is a
    ConfigError. The isotropic start has margin 1 (its sigma_j is
    C(n,j) C(n,k)^{-j/k} >= 1 for j <= k, as C(n,j)^{1/j} falls with j), so
    the origin itself is never at the boundary.
    """
    if not u0 > 0.0:
        raise PositivityError(f"initial value u0={u0} must be positive", value=u0)
    check_positive("initial value u0", u0)
    check_positive("r_max", r_max)
    check_positive("tol", tol)
    if fixed_step is not None:
        check_positive("fixed_step", fixed_step)
    check_nk(n, k)
    kernel = _u2_kernel(n, k)

    def node_solve(r, u, p):  # (u'', margin) at a node; no solve is a boundary hit
        try:
            return kernel(u, p, r)
        except ConeDomainError as exc:
            raise ConeBoundaryError(f"cone boundary reached: {exc}",
                                    r=r, margin=exc.margin) from exc

    # series start: u ~ u0 + u2 r^2/2 + u4 r^4/24, odd terms vanish
    u2_0, _ = solve_for_u2(u0, 0.0, 0.0, n, k)
    delta = 1e-3
    g_probe, _ = node_solve(delta, u0 + 0.5 * u2_0 * delta * delta, u2_0 * delta)
    u4_0 = 2.0 * (g_probe - u2_0) / (delta * delta)

    h = fixed_step if fixed_step is not None else 1e-3
    h_max = max(r_max / 50.0, h)
    r1 = min(h, r_max)
    u1 = u0 + 0.5 * u2_0 * r1 * r1 + u4_0 * r1 ** 4 / 24.0
    p1 = u2_0 * r1 + u4_0 * r1 ** 3 / 6.0

    rs = [0.0, r1]
    us = [u0, u1]
    ps = [0.0, p1]
    r, u, p = r1, u1, p1
    k1, _ = node_solve(r, u, p)
    steps = 0
    while r < r_max * (1.0 - 1e-14):
        if steps >= _MAX_STEPS:
            raise SigmakLabError(f"step budget {_MAX_STEPS} exhausted at r={r}")
        steps += 1
        h = min(h, r_max - r)
        try:
            if fixed_step is not None:
                u_new, p_new = _rk4_step(kernel, r, u, p, k1, h)
                accept = True
            else:
                u_full, p_full = _rk4_step(kernel, r, u, p, k1, h)
                u_h, p_h = _rk4_step(kernel, r, u, p, k1, 0.5 * h)
                r_h = r + 0.5 * h
                u_new, p_new = _rk4_step(kernel, r_h, u_h, p_h, kernel(u_h, p_h, r_h)[0],
                                         0.5 * h)
                su = abs(u) + abs(h * p) + 1e-12 * us[0]
                sp = abs(p) + abs(h * u2_0) + 1e-12
                est = max(abs(u_new - u_full) / su, abs(p_new - p_full) / sp) / 15.0
                accept = est <= tol
        except (ConeDomainError, PositivityError) as exc:
            if fixed_step is not None:
                raise ConeBoundaryError(
                    f"fixed-step integration failed at r={r}: {exc}", r=r) from exc
            h *= 0.5
            if h < 1e-14 * max(1.0, r_max):
                if isinstance(exc, PositivityError):
                    raise PositivityError(
                        f"positivity lost near r={r}", where=r) from exc
                raise ConeBoundaryError(
                    f"cone boundary reached near r={r}",
                    r=r, margin=getattr(exc, "margin", None)) from exc
            continue
        if not accept:
            h *= max(0.2, 0.9 * (tol / est) ** 0.2)
            if h < 1e-14 * max(1.0, r_max):
                raise StepUnderflowError(f"step size underflow at r={r}", r=r)
            continue
        r, u, p = r + h, u_new, p_new
        if not u > 0.0:
            raise PositivityError(f"positivity lost at r={r}", where=r, value=u)
        k1, margin = node_solve(r, u, p)
        if margin < _MARGIN_FLOOR:
            raise ConeBoundaryError(f"cone margin {margin:.3e} below floor at r={r}",
                                    r=r, margin=margin)
        rs.append(r)
        us.append(u)
        ps.append(p)
        if fixed_step is None:
            grow = 5.0 if est == 0.0 else min(5.0, max(0.2, 0.9 * (tol / est) ** 0.2))
            h = min(h * grow, h_max)
    return RadialProfile(np.array(rs), np.array(us), np.array(ps), n, k)


# ---------------------------------------------------------------------------
# desk check against the closed form
# ---------------------------------------------------------------------------

@dataclass
class TailEvidence:
    """Kelvin-image samples computed from the profile tail.

    rho = 1/r for the tail nodes; v is the image value and scaled_grad is
    rho |v'(rho)|. sufficient is False when the profile does not reach far
    enough (fewer than four nodes with r >= 2) to say anything.
    """

    rho: np.ndarray
    v: np.ndarray
    scaled_grad: np.ndarray
    monotone: bool
    sufficient: bool


@dataclass
class LiouvilleReport:
    """Deviation of a shot profile from the closed-form family member."""

    fitted_a: float
    max_rel_deviation: float
    worst_r: float
    tail: TailEvidence


def _tail_evidence(profile: RadialProfile) -> TailEvidence:
    n = profile.n
    mask = profile.r >= 2.0
    idx = np.nonzero(mask)[0]
    if idx.size < 4:
        empty = np.empty(0)
        return TailEvidence(empty, empty, empty, False, False)
    if idx.size > _TAIL_POINTS:
        take = np.unique(np.geomspace(idx[0] + 1, idx[-1] + 1, _TAIL_POINTS).astype(int) - 1)
    else:
        take = idx
    r = profile.r[take]
    u = profile.u[take]
    du = profile.du[take]
    rho = 1.0 / r
    v = r ** (n - 2.0) * u
    scaled = np.abs((2.0 - n) * r ** (n - 2.0) * u - r ** (n - 1.0) * du)
    monotone = bool(np.all(scaled[1:] <= scaled[:-1] * (1.0 + 1e-9)))
    return TailEvidence(rho, v, scaled, monotone, True)


def liouville_report(profile: RadialProfile) -> LiouvilleReport:
    """Fit the family scale from u(0) and report the worst relative deviation.

    The scale is a = (u(0) / c(n, k))^{2/(n-2)}. Tail evidence for
    regularity at infinity is computed directly from the stored (r, u, u')
    samples.
    """
    n, k = profile.n, profile.k
    a = float((profile.u[0] / c_constant(n, k)) ** (2.0 / (n - 2.0)))
    model = _bubble_jets(n, k, a, 0.0, profile.r[:, None], 0)[0]
    rel = np.abs(profile.u - model) / model
    worst = int(np.argmax(rel))
    return LiouvilleReport(a, float(rel[worst]), float(profile.r[worst]),
                           _tail_evidence(profile))


# ---------------------------------------------------------------------------
# reconstruction and serialization
# ---------------------------------------------------------------------------

def _hermite5(s, h, left, right, order):
    """Two-point quintic Hermite matching value, slope and curvature.

    left and right hold (value, slope, curvature) at the ends of intervals
    of length h; s in [0, 1] is the position inside. Returns (value, slope,
    curvature), or (value, None, None) for order 0. The values enter through
    their difference f1 - f0 (the value basis is 1 - psi0 and psi0), so the
    1/h^2 of the curvature scales terms of size O(h), not O(1).
    """
    (f0, g0, c0), (f1, g1, c1) = left, right
    df = f1 - f0
    s2, s3 = s * s, s * s * s
    s4, s5 = s3 * s, s3 * s * s
    psi0 = 10.0 * s3 - 15.0 * s4 + 6.0 * s5
    phi1 = s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5
    phi2 = 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5
    psi1 = -4.0 * s3 + 7.0 * s4 - 3.0 * s5
    psi2 = 0.5 * s3 - s4 + 0.5 * s5
    val = f0 + df * psi0 + h * (g0 * phi1 + g1 * psi1) + h * h * (c0 * phi2 + c1 * psi2)
    if not order:
        return val, None, None
    dpsi0 = 30.0 * s2 - 60.0 * s3 + 30.0 * s4
    dphi1 = 1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4
    dphi2 = s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4
    dpsi1 = -12.0 * s2 + 28.0 * s3 - 15.0 * s4
    dpsi2 = 1.5 * s2 - 4.0 * s3 + 2.5 * s4
    der = (df * dpsi0 + h * (g0 * dphi1 + g1 * dpsi1)
           + h * h * (c0 * dphi2 + c1 * dpsi2)) / h
    d2psi0 = 60.0 * s - 180.0 * s2 + 120.0 * s3
    d2phi1 = -36.0 * s + 96.0 * s2 - 60.0 * s3
    d2phi2 = 1.0 - 9.0 * s + 18.0 * s2 - 10.0 * s3
    d2psi1 = -24.0 * s + 84.0 * s2 - 60.0 * s3
    d2psi2 = 3.0 * s - 12.0 * s2 + 10.0 * s3
    cur = (df * d2psi0 + h * (g0 * d2phi1 + g1 * d2psi1)
           + h * h * (c0 * d2phi2 + c1 * d2psi2)) / (h * h)
    return val, der, cur


def profile_to_field(profile: RadialProfile) -> ScalarField:
    """C^2 radial field reconstructed from a profile by quintic interpolation.

    Node curvatures come from the equation itself, so at mesh radii the
    reconstructed jet reproduces the integrator's state exactly; between
    nodes the interpolation error is the only addition. Points within
    1e-12 of the origin get the origin's jet.
    """
    n = profile.n
    r_nodes, u_nodes, du_nodes = profile.r, profile.u, profile.du
    d2u_nodes = _node_solves(r_nodes, u_nodes, du_nodes, n, profile.k)[0]
    # nodes with no admissible solve: three-point u'' inside, central du' at the ends
    bad = np.flatnonzero(np.isnan(d2u_nodes))
    i = bad[(bad > 0) & (bad < r_nodes.size - 1)]
    h1, h2 = r_nodes[i] - r_nodes[i - 1], r_nodes[i + 1] - r_nodes[i]
    d2u_nodes[i] = 2.0 * (h1 * u_nodes[i + 1] - (h1 + h2) * u_nodes[i] + h2 * u_nodes[i - 1]) \
        / (h1 * h2 * (h1 + h2))
    i = bad[(bad == 0) | (bad == r_nodes.size - 1)]
    j = np.clip(i, 1, r_nodes.size - 2)
    d2u_nodes[i] = (du_nodes[j + 1] - du_nodes[j - 1]) / (r_nodes[j + 1] - r_nodes[j - 1])
    eye = np.eye(n)

    def jets(X, order):
        rr = np.linalg.norm(X, axis=1)
        # the domain check capped rr near r_max; clamp the interval index
        i = np.clip(np.searchsorted(r_nodes, rr, side="right") - 1, 0, r_nodes.size - 2)
        h = r_nodes[i + 1] - r_nodes[i]
        val, der, cur = _hermite5((rr - r_nodes[i]) / h, h,
                                  (u_nodes[i], du_nodes[i], d2u_nodes[i]),
                                  (u_nodes[i + 1], du_nodes[i + 1], d2u_nodes[i + 1]),
                                  order)
        origin = rr < 1e-12
        val[origin] = u_nodes[0]
        if not order:
            return val, None, None
        rr[origin] = 1.0  # any nonzero radius; these rows are overwritten below
        xhat = X / rr[:, None]
        proj = xhat[:, :, None] * xhat[:, None, :]
        grad = der[:, None] * xhat
        hess = cur[:, None, None] * proj + (der / rr)[:, None, None] * (eye - proj)
        grad[origin] = 0.0
        hess[origin] = d2u_nodes[0] * eye
        return val, grad, hess

    dom = Domain(kind="ball", center=np.zeros(n), r_outer=profile.r_max)
    return ScalarField(n, domain=dom, tag=f"radial-profile(n={n},k={profile.k})",
                       jets=jets)


def write_profile_csv(profile: RadialProfile, path):
    """Serialize a profile with per-node residual and cone margin columns.

    sigma_residual measures how exactly the equation's curvature solve
    closes at each node (machine-level along shot profiles); cone_margin
    is the Gamma_k margin of the node's eigenpair. Nodes where the solve
    fails get nan residual and the failing margin (see `_node_solves`).
    """
    _, margin, res = _node_solves(profile.r, profile.u, profile.du, profile.n, profile.k)
    du = [0.0] + profile.du.tolist()[1:]  # the origin row as +0.0
    rows = zip(profile.r.tolist(), profile.u.tolist(), du, res.tolist(), margin.tolist())
    lines = ["# sigmak-lab v1", "r,u,du,sigma_residual,cone_margin"]
    lines += [f"{r!r},{u!r},{du!r},{res!r},{margin!r}" for r, u, du, res, margin in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
