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

so the curvature u'' demanded by sigma_k = rhs is a linear solve and no
root-branch ambiguity exists: shooting suffices. Integration uses a
classic fourth-order Runge-Kutta scheme, adaptive by step doubling, with a
series start at the origin (u'/r is not directly evaluable there). The
run aborts cleanly when positivity or the cone margin is lost; past the
cone boundary the operator is no longer elliptic and the computed branch
is meaningless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bubbles import BubbleSpec, bubble_field, c_constant
from .conformal import Domain, ScalarField
from .errors import ConeBoundaryError, ConeDomainError, PositivityError, \
    SigmakLabError, StepUnderflowError

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


@dataclass(frozen=True)
class EigenPair:
    """The two eigenvalues of the radial Schouten matrix."""

    lam_rad: float
    lam_tan: float

    def vector(self, n: int) -> np.ndarray:
        """Full eigenvalue vector (lam_rad once, lam_tan with multiplicity n-1)."""
        out = np.full(n, self.lam_tan)
        out[0] = self.lam_rad
        return out


def _coeffs(n: int):
    b = 2.0 / (n - 2.0)
    d = 2.0 / (n - 2.0) ** 2
    e1 = -(n + 2.0) / (n - 2.0)
    e2 = -2.0 * n / (n - 2.0)
    return b, d, e1, e2


def radial_eigenvalues(u: float, du: float, d2u: float, r: float, n: int) -> EigenPair:
    """Eigenvalue pair of the Schouten matrix for radial data at radius r.

    At r = 0 the tangential slope u'/r is replaced by d2u (smooth radial
    profiles have du = 0 there).
    """
    if n < 3:
        raise ValueError(f"dimension n={n} must be >= 3")
    if not u > 0.0:
        raise PositivityError(f"radial value u={u} not positive at r={r}",
                              where=r, value=u)
    b, d, e1, e2 = _coeffs(n)
    q1 = u ** e1
    q2 = u ** e2
    slope = d2u if r == 0.0 else du / r
    lam_tan = -b * q1 * slope - d * q2 * du * du
    lam_rad = -b * q1 * d2u + (n - 1.0) * d * q2 * du * du
    return EigenPair(lam_rad, lam_tan)


def _pair_sigma(lam_rad: float, lam_tan: float, n: int, k: int) -> tuple[float, float]:
    """sigma_j(lam_rad, lam_tan x (n-1)) in closed form, for j = 1..k.

    Returns (min over j, the cone margin; the j = k value, sigma_k).
    """
    margin = math.inf
    c_prev = 1  # C(n-1, j-1)
    for j in range(1, k + 1):
        c = math.comb(n - 1, j)
        s = c * lam_tan ** j + c_prev * lam_tan ** (j - 1) * lam_rad
        if s < margin:
            margin = s
        c_prev = c
    return margin, s


def solve_for_u2(u: float, du: float, r: float, n: int, k: int,
                 rhs: float = 1.0) -> tuple[float, float]:
    """The unique u'' making sigma_k of the radial eigenpair equal rhs.

    Returns (u'', cone margin of the resulting pair). A vanishing linear
    coefficient (lam_tan^{k-1} = 0 with k >= 2) is a cone-boundary failure;
    a solved pair with strictly negative margin means the demanded value
    sits on an inadmissible branch; these and a float overflow raise
    ConeDomainError. A zero margin (boundary) is returned, not raised.
    """
    if n < 3:
        raise ValueError(f"dimension n={n} must be >= 3")
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside 1..{n}")
    if not u > 0.0:
        raise PositivityError(f"radial value u={u} not positive at r={r}",
                              where=r, value=u)
    try:
        b, d, e1, e2 = _coeffs(n)
        q1 = u ** e1
        q2 = u ** e2
        if r == 0.0:
            if abs(du) > 1e-9:
                raise ValueError(f"du={du} must vanish at the origin")
            if rhs < 0.0:
                raise ConeDomainError("negative right-hand side has no admissible "
                                      "isotropic state", margin=rhs)
            lam0 = (rhs / math.comb(n, k)) ** (1.0 / k)
            d2u = -lam0 / (b * q1)
            return d2u, _pair_sigma(lam0, lam0, n, k)[0]
        lam_tan = -b * q1 * (du / r) - d * q2 * du * du
        coeff = math.comb(n - 1, k - 1) * lam_tan ** (k - 1)
        if abs(coeff) < 1e-14 * max(1.0, abs(rhs)):
            raise ConeDomainError(
                f"tangential eigenvalue {lam_tan:.3e} degenerates the linear solve "
                f"for u'' at r={r}", margin=lam_tan, where=r)
        lam_rad = (rhs - math.comb(n - 1, k) * lam_tan ** k) / coeff
        d2u = ((n - 1.0) * d * q2 * du * du - lam_rad) / (b * q1)
        margin, _ = _pair_sigma(lam_rad, lam_tan, n, k)
        if margin < 0.0:
            raise ConeDomainError(
                f"solved eigenpair leaves Gamma_{k} at r={r}", margin=margin, where=r)
        return d2u, margin
    except OverflowError as exc:  # a power of u or lam_tan left the float range
        raise ConeDomainError(f"eigenvalue powers overflow at r={r}", where=r) from exc


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
            raise ValueError("mesh, values and derivatives must share a shape")
        if self.r[0] != 0.0:
            raise ValueError("mesh must start at r = 0")
        if np.any(np.diff(self.r) <= 0.0):
            raise ValueError("mesh must be strictly increasing")
        if np.any(self.u <= 0.0):
            raise PositivityError("profile values must be positive")
        if self.du[0] != 0.0:
            raise ValueError("smoothness at the origin requires du[0] = 0")

    @property
    def r_max(self) -> float:
        return float(self.r[-1])


def _rk4_step(g, r, u, p, h):
    k1u = p
    k1p = g(r, u, p)
    k2u = p + 0.5 * h * k1p
    k2p = g(r + 0.5 * h, u + 0.5 * h * k1u, k2u)
    k3u = p + 0.5 * h * k2p
    k3p = g(r + 0.5 * h, u + 0.5 * h * k2u, k3u)
    k4u = p + h * k3p
    k4p = g(r + h, u + h * k3u, k4u)
    return (u + h / 6.0 * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
            p + h / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def shoot(u0: float, n: int, k: int, r_max: float, *, rhs: float = 1.0,
          tol: float = 1e-12, fixed_step: float | None = None) -> RadialProfile:
    """Integrate the radial equation from the origin out to r_max.

    Starts from u(0) = u0, u'(0) = 0 with the curvature solving the
    isotropic equation at the origin. The first node comes from the
    quartic Taylor expansion (the fourth derivative is recovered from the
    equation itself), every later node from fourth-order Runge-Kutta. With
    fixed_step set, the mesh is uniform and no error control runs, which
    is what the convergence-order study wants; otherwise steps adapt by
    step doubling against tol.

    Aborts with ConeBoundaryError when the cone margin falls below 1e-10,
    PositivityError when u does, StepUnderflowError when no admissible
    step remains.
    """
    if not u0 > 0.0:
        raise PositivityError(f"initial value u0={u0} must be positive", value=u0)
    if not r_max > 0.0:
        raise ValueError(f"r_max={r_max} must be positive")
    if n < 3 or not 1 <= k <= n:
        raise ValueError(f"bad (n, k) = ({n}, {k})")

    def g(r, u, p):
        return solve_for_u2(u, p, r, n, k, rhs)[0]

    # series start: u ~ u0 + u2 r^2/2 + u4 r^4/24, odd terms vanish
    u2_0, margin0 = solve_for_u2(u0, 0.0, 0.0, n, k, rhs)
    delta = 1e-3
    g_probe = g(delta, u0 + 0.5 * u2_0 * delta * delta, u2_0 * delta)
    u4_0 = 2.0 * (g_probe - u2_0) / (delta * delta)

    if margin0 < _MARGIN_FLOOR:
        raise ConeBoundaryError("cone margin vanishes already at the origin",
                                r=0.0, margin=margin0)

    h = fixed_step if fixed_step is not None else 1e-3
    h_max = max(r_max / 50.0, h)
    r1 = min(h, r_max)
    u1 = u0 + 0.5 * u2_0 * r1 * r1 + u4_0 * r1 ** 4 / 24.0
    p1 = u2_0 * r1 + u4_0 * r1 ** 3 / 6.0

    rs = [0.0, r1]
    us = [u0, u1]
    ps = [0.0, p1]
    r, u, p = r1, u1, p1
    steps = 0
    while r < r_max * (1.0 - 1e-14):
        if steps >= _MAX_STEPS:
            raise SigmakLabError(f"step budget {_MAX_STEPS} exhausted at r={r}")
        steps += 1
        h = min(h, r_max - r)
        try:
            if fixed_step is not None:
                u_new, p_new = _rk4_step(g, r, u, p, h)
                accept = True
            else:
                u_full, p_full = _rk4_step(g, r, u, p, h)
                u_h, p_h = _rk4_step(g, r, u, p, 0.5 * h)
                u_new, p_new = _rk4_step(g, r + 0.5 * h, u_h, p_h, 0.5 * h)
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
        _, margin = solve_for_u2(u, p, r, n, k, rhs)
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


def _tail_evidence(profile: RadialProfile, max_points: int = 12) -> TailEvidence:
    n = profile.n
    mask = profile.r >= 2.0
    idx = np.nonzero(mask)[0]
    if idx.size < 4:
        empty = np.empty(0)
        return TailEvidence(empty, empty, empty, False, False)
    if idx.size > max_points:
        take = np.unique(np.geomspace(idx[0] + 1, idx[-1] + 1, max_points).astype(int) - 1)
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


def liouville_report(profile: RadialProfile, rhs: float = 1.0) -> LiouvilleReport:
    """Fit the family scale from u(0) and report the worst relative deviation.

    The scale is a = (u(0) / c_eff)^{2/(n-2)} where c_eff absorbs a
    non-unit right-hand side. Tail evidence for regularity at infinity is
    computed directly from the stored (r, u, u') samples.
    """
    n, k = profile.n, profile.k
    c_eff = c_constant(n, k) * rhs ** (-(n - 2.0) / (4.0 * k))
    a = float((profile.u[0] / c_eff) ** (2.0 / (n - 2.0)))
    w = 1.0 + (a * profile.r) ** 2
    model = c_eff * a ** ((n - 2.0) / 2.0) * w ** (-(n - 2.0) / 2.0)
    rel = np.abs(profile.u - model) / model
    worst = int(np.argmax(rel))
    return LiouvilleReport(a, float(rel[worst]), float(profile.r[worst]),
                           _tail_evidence(profile))


# ---------------------------------------------------------------------------
# reconstruction and serialization
# ---------------------------------------------------------------------------

def _hermite5(s, h, f0, g0, c0, f1, g1, c1):
    """Two-point quintic Hermite matching value, slope and curvature."""
    s2, s3 = s * s, s * s * s
    s4, s5 = s3 * s, s3 * s * s
    phi0 = 1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5
    phi1 = s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5
    phi2 = 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5
    psi0 = 10.0 * s3 - 15.0 * s4 + 6.0 * s5
    psi1 = -4.0 * s3 + 7.0 * s4 - 3.0 * s5
    psi2 = 0.5 * s3 - s4 + 0.5 * s5
    val = f0 * phi0 + h * g0 * phi1 + h * h * c0 * phi2 \
        + f1 * psi0 + h * g1 * psi1 + h * h * c1 * psi2
    dphi0 = -30.0 * s2 + 60.0 * s3 - 30.0 * s4
    dphi1 = 1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4
    dphi2 = s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4
    dpsi0 = 30.0 * s2 - 60.0 * s3 + 30.0 * s4
    dpsi1 = -12.0 * s2 + 28.0 * s3 - 15.0 * s4
    dpsi2 = 1.5 * s2 - 4.0 * s3 + 2.5 * s4
    der = (f0 * dphi0 + h * g0 * dphi1 + h * h * c0 * dphi2
           + f1 * dpsi0 + h * g1 * dpsi1 + h * h * c1 * dpsi2) / h
    d2phi0 = -60.0 * s + 180.0 * s2 - 120.0 * s3
    d2phi1 = -36.0 * s + 96.0 * s2 - 60.0 * s3
    d2phi2 = 1.0 - 9.0 * s + 18.0 * s2 - 10.0 * s3
    d2psi0 = 60.0 * s - 180.0 * s2 + 120.0 * s3
    d2psi1 = -24.0 * s + 84.0 * s2 - 60.0 * s3
    d2psi2 = 3.0 * s - 12.0 * s2 + 10.0 * s3
    cur = (f0 * d2phi0 + h * g0 * d2phi1 + h * h * c0 * d2phi2
           + f1 * d2psi0 + h * g1 * d2psi1 + h * h * c1 * d2psi2) / (h * h)
    return val, der, cur


def _node_curvatures(profile: RadialProfile, rhs: float) -> np.ndarray:
    """u'' at the mesh nodes from the equation, finite differences as fallback."""
    r, u, du = profile.r, profile.u, profile.du
    out = np.empty_like(r)
    for i in range(r.size):
        try:
            out[i], _ = solve_for_u2(u[i], du[i] if i else 0.0, r[i],
                                     profile.n, profile.k, rhs)
        except (ConeDomainError, PositivityError):
            if 0 < i < r.size - 1:
                h1, h2 = r[i] - r[i - 1], r[i + 1] - r[i]
                out[i] = 2.0 * (h1 * u[i + 1] - (h1 + h2) * u[i] + h2 * u[i - 1]) \
                    / (h1 * h2 * (h1 + h2))
            else:
                j = min(max(i, 1), r.size - 2)
                out[i] = (du[j + 1] - du[j - 1]) / (r[j + 1] - r[j - 1])
    return out


def profile_to_field(profile: RadialProfile, rhs: float = 1.0) -> ScalarField:
    """C^2 radial field reconstructed from a profile by quintic interpolation.

    Node curvatures come from the equation itself, so at mesh radii the
    reconstructed jet reproduces the integrator's state exactly; between
    nodes the interpolation error is the only addition.
    """
    n = profile.n
    r_nodes = profile.r
    u_nodes = profile.u
    du_nodes = profile.du
    d2u_nodes = _node_curvatures(profile, rhs)

    def radial_jet(r):
        # domain checks already capped r at r_max; clamp the interval index
        i = int(np.searchsorted(r_nodes, r, side="right")) - 1
        i = min(max(i, 0), r_nodes.size - 2)
        h = r_nodes[i + 1] - r_nodes[i]
        s = (r - r_nodes[i]) / h
        return _hermite5(s, h, u_nodes[i], du_nodes[i], d2u_nodes[i],
                         u_nodes[i + 1], du_nodes[i + 1], d2u_nodes[i + 1])

    def evaluator(x):
        rr = float(np.linalg.norm(x))
        if rr < 1e-12:
            return u_nodes[0], np.zeros(n), d2u_nodes[0] * np.eye(n)
        val, der, cur = radial_jet(rr)
        xhat = x / rr
        proj = np.outer(xhat, xhat)
        grad = der * xhat
        hess = cur * proj + (der / rr) * (np.eye(n) - proj)
        return val, grad, hess

    dom = Domain(kind="ball", center=np.zeros(n), r_outer=profile.r_max)
    return ScalarField(n, evaluator, domain=dom,
                       tag=f"radial-profile(n={n},k={profile.k})")


def write_profile_csv(profile: RadialProfile, path, rhs: float = 1.0):
    """Serialize a profile with per-node residual and cone margin columns.

    sigma_residual measures how exactly the equation's curvature solve
    closes at each node (machine-level along shot profiles); cone_margin
    is the Gamma_k margin of the node's eigenpair. Nodes where the solve
    fails get nan residual and the failing margin.
    """
    lines = ["# sigmak-lab v1", "r,u,du,sigma_residual,cone_margin"]
    n, k = profile.n, profile.k
    for i in range(profile.r.size):
        r = float(profile.r[i])
        u = float(profile.u[i])
        du = float(profile.du[i]) if i else 0.0
        try:
            d2u, margin = solve_for_u2(u, du, r, n, k, rhs)
            pair = radial_eigenvalues(u, du, d2u, r, n)
            res = abs(_pair_sigma(pair.lam_rad, pair.lam_tan, n, k)[1] - rhs)
        except (ConeDomainError, PositivityError) as exc:
            res = float("nan")
            margin = getattr(exc, "margin", float("nan"))
            margin = float("nan") if margin is None else float(margin)
        lines.append(f"{r!r},{u!r},{du!r},{res!r},{margin!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

