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
solves sigma_k = c exactly when u solves sigma_k = 1. `_node_solves` solves
an array of nodes (r, u, u') in one pass, isotropically where r = 0;
`solve_for_u2` is its one-node case.

Shooting integrates in the log-cylinder chart t = log r, e^xi = r u^{2/(n-2)}
(the variable of Caffarelli, Gidas and Spruck; the reduction of Chang, Han
and Yang), where xi' = dxi/dt = 1 + (2/(n-2)) r u'/u and the pair reads

    lam_tan = e^{-2 xi} A / 2,    lam_rad = e^{-2 xi} (-xi'' - A / 2),    A = 1 - xi'^2.

sigma_k = 1 is the autonomous equation

    xi'' = (n - 2k)/(2k) A - 2^{k-1} e^{2 xi} (e^{2 xi} / A)^{k-1} / C(n-1, k-1)

with the first integral H = e^{(n-2k) xi} A^k - (2^k / C(n,k)) e^{n xi}
= 2^k e^{n xi} (lam_tan^k - lam0^k), lam0 = C(n,k)^{-1/k}. Every solution
regular at the origin has H = 0, since H -> 0 as r -> 0: lam_tan = lam0,
and with it lam_rad = lam0, along the whole profile. The entire solution is
the H = 0 separatrix, and drift off it reaches the cone boundary at a
finite radius, so past the turning point, where xi' <= -1/2, each accepted
node is projected back onto H = 0 by resetting xi' (Hairer, Lubich and
Wanner, Geometric Numerical Integration, IV.4). The state is (xi, s) with
s the small factor of A = s (2 - s): s = 1 - xi' up to the turning point
xi' = 0 and s = 1 + xi' past it, so A keeps its digits both near the
origin (xi' -> 1) and far out (xi' -> -1). Steps use the embedded
8(5,3) Dormand-Prince pair DOP853 of Hairer, Norsett and Wanner, whose
tableau is kept below; its error control alone sets the mesh. Every node is
mapped back to (r, u, u'), and `profile_to_field` interpolates in the same
chart by a septic Hermite, with the equation differentiated once for
xi''' = -2 xi' (k g1 A + k (g1 - 1) xi'' - (k - 1) xi''^2 / A), g1 = (n-2k)/(2k).
The run aborts cleanly when the cone margin is lost; past the cone boundary
the operator is no longer elliptic and the computed branch is meaningless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

import numpy as np
from numpy.polynomial import polynomial as npoly

from .bubbles import _bubble_jets, c_constant
from .conformal import Domain, ScalarField
from .errors import ConeBoundaryError, ConeDomainError, ConfigError, PositivityError, \
    StepUnderflowError, check_nk, check_positive

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
_TOL_FLOOR = 1e-15  # smallest shot tol: a shot at it is already off by ~1e-13 from rounding
_R_START = 1e-3  # the series start's node at scale a <= 1, where the t chart begins
_DT_FIRST = 0.04  # the first trial step in t; the error control sets every later one
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


def _lam0(n: int, k: int) -> float:
    """C(n,k)^{-1/k}: both eigenvalues of every member of the family."""
    return (1.0 / math.comb(n, k)) ** (1.0 / k)


def _pair_sigma(lam_rad, lam_tan, combs):
    """(min_j e_j, e_k) of (lam_rad, lam_tan x m), combs = C(m, 0..k), from
    e_j = C(m, j) lam_tan^j + C(m, j-1) lam_tan^{j-1} lam_rad."""
    margin = math.inf
    for j in range(1, len(combs)):
        s = combs[j] * lam_tan ** j + combs[j - 1] * lam_tan ** (j - 1) * lam_rad
        margin = np.minimum(margin, s)
    return margin, s


def _node_solves(r, u, du, n: int, k: int):
    """(u'', cone margin, sigma_k residual) at nodes (r, u, du), in one array pass.

    u'' solves sigma_k = 1 by the linear solve of the module docstring,
    isotropically where r = 0; the residual is |sigma_k - 1| of
    `radial_eigenvalues` at it. A node with no admissible solve gets u''
    and residual nan, and as margin lam_tan if the linear coefficient
    degenerates, the negative margin if the pair leaves Gamma_k, nan if the
    result is not finite.
    """
    b, _, e1, _ = _coeffs(n)
    combs = [math.comb(n - 1, j) for j in range(k + 1)]
    lam0 = _lam0(n, k)  # the isotropic pair at the origin
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


# DOP853 (Hairer, Norsett and Wanner, Solving ODEs I, II.5): the stage rows
# a_{i,0..i-1} for i = 1..11, the 8th-order weights, and the weights of the
# 5th-order error estimate and of the 3rd-order one, b - bhh
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
          4.45031289275240888144113950566, 1.89151789931450038304281599044,
          -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
          -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
          4.47106157277725905176885569043e-2)
_DOP_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
           0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
           0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1)
_DOP_E3 = tuple(b - bhh for b, bhh in zip(_DOP_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0, 0.220588235294117647058823529412e-1)))


@functools.lru_cache(maxsize=None)
def _t_kernel(n: int, k: int):
    """rhs(xi, s, side) -> (xi', s') of sigma_k = 1 in the t chart for a
    valid (n, k), its constants computed once. side is +1 where s = 1 - xi'
    and -1 where s = 1 + xi', so xi' = side (1 - s) and s' = -side xi''.
    A stage with no admissible value (A <= 0 for k >= 2, an overflow or a
    result that is not finite) raises ConeDomainError, which the shooter
    answers by halving the step."""
    g1 = (n - 2.0 * k) / (2.0 * k)
    g2 = 2.0 ** (k - 1) / math.comb(n - 1, k - 1)

    def rhs(xi, s, side):
        a = s * (2.0 - s)
        try:
            y = math.exp(2.0 * xi)
            if k == 1:
                xi2 = g1 * a - g2 * y
            elif a > 0.0:
                xi2 = g1 * a - g2 * y * (y / a) ** (k - 1)
            else:
                raise ConeDomainError(f"lam_tan = {0.5 * a / y:.3e} left the cone at xi={xi}",
                                      margin=0.5 * a / y)
        except ArithmeticError as exc:  # e^{2 xi} or a power left the float range
            raise ConeDomainError(f"t-chart powers leave the float range at xi={xi}") from exc
        if not -math.inf < xi2 < math.inf:
            raise ConeDomainError(f"t-chart curvature {xi2} not finite at xi={xi}")
        return side * (1.0 - s), -side * xi2
    return rhs


def _dop853_step(rhs, xi, s, side, f, h):
    """One DOP853 step of length h from (xi, s), f = rhs(xi, s, side).

    Returns (xi, s) of the 8th-order solution and the two error vectors
    (e5, e3) of Hairer's estimate, each a pair over (xi, s) still to be
    scaled by h. Eleven right-hand sides: the first stage is f.
    """
    kx, ks = [f[0]], [f[1]]
    for row in _DOP_A:
        fx, fs = rhs(xi + h * sum(map(mul, row, kx)), s + h * sum(map(mul, row, ks)), side)
        kx.append(fx)
        ks.append(fs)
    return (xi + h * sum(map(mul, _DOP_B, kx)), s + h * sum(map(mul, _DOP_B, ks)),
            (sum(map(mul, _DOP_E5, kx)), sum(map(mul, _DOP_E5, ks))),
            (sum(map(mul, _DOP_E3, kx)), sum(map(mul, _DOP_E3, ks))))


def _series_coefficients(u0: float, n: int, k: int) -> tuple[float, float]:
    """(u2, u4) of u = u0 + u2 r^2/2 + u4 r^4/24 + O(r^6), the solution regular at the origin.

    u2 solves the isotropic equation at the origin. u4 = 3 n u2^2 / ((n-2) u0)
    makes the order-r^2 term of sigma_k = 1 vanish: every eigenvalue starts
    at lam0, sigma_k is symmetric, so that term is proportional to
    dlam_rad + (n-1) dlam_tan = -b u0^{-(n+2)/(n-2)} ((n+2) u4 / 6
    - n (n+2) u2^2 / (2 (n-2) u0)), free of k (checked with sympy for
    3 <= n <= 6). A coefficient that leaves the float range is a
    ConeDomainError.
    """
    u2, _ = solve_for_u2(u0, 0.0, 0.0, n, k)
    u4 = 3.0 * n * u2 * (u2 / u0) / (n - 2.0)
    if not abs(u4) < math.inf:
        raise ConeDomainError(f"series coefficient u4={u4} of u0={u0} overflows", where=0.0)
    return u2, u4


def shoot(u0: float, n: int, k: int, r_max: float, *, tol: float = 1e-12) -> RadialProfile:
    """Integrate the radial equation from the origin out to r_max.

    Starts from u(0) = u0, u'(0) = 0. The node r_s = 1e-3 / max(1, a), a
    the scale of the family member through u0, comes from the quartic
    Taylor expansion of `_series_coefficients`. Past r_s the state (xi, s)
    of the t = log r chart (see the module docstring) is advanced by the
    DOP853 pair, and past the turning point every accepted node with
    xi' <= -1/2 is projected onto the first integral H = 0 by resetting s
    from xi. Each node is stored as (r, u, u'); the last lies at r_max
    exactly.

    tol is the accuracy asked of the profile and the one accuracy control:
    a step is accepted when Hairer's error estimate is at most tol, absolute
    in xi (relative in u) and relative in s, and the error control sets
    every step after a first trial step of 0.04 in t.

    Aborts with ConeBoundaryError (carrying r and the margin) when a node's
    cone margin falls below 1e-10, and when halving cannot get a step past
    stages with no admissible value; StepUnderflowError when the error
    control shrinks the step below 1e-12 in t or the shot runs out of its
    step budget; a bad (n, k) or a tol outside [_TOL_FLOOR, inf) is a
    ConfigError at once, a bad u0 a PositivityError, and a u0 whose series
    coefficients leave the float range a ConeDomainError. The isotropic
    start has margin 1 (its sigma_j is C(n,j) C(n,k)^{-j/k} >= 1 for j <= k,
    as C(n,j)^{1/j} falls with j), so the origin itself is never at the
    boundary.
    """
    if not u0 > 0.0:
        raise PositivityError(f"initial value u0={u0} must be positive", value=u0)
    check_positive("initial value u0", u0)
    check_positive("r_max", r_max)
    check_positive("tol", tol)
    if tol < _TOL_FLOOR:
        raise ConfigError(f"tol={tol!r} is below the floor {_TOL_FLOOR} double precision can meet")
    check_nk(n, k)
    u0, r_max = float(u0), float(r_max)
    m = (n - 2.0) / 2.0
    lam0 = _lam0(n, k)
    combs = [math.comb(n - 1, j) for j in range(k + 1)]
    rhs = _t_kernel(n, k)

    u2, u4 = _series_coefficients(u0, n, k)
    # the series runs in powers of (a r)^2, a^2 = -u2 / ((n-2) u0) the family's scale
    r1 = min(_R_START / max(1.0, math.sqrt(-u2 / ((n - 2.0) * u0))), r_max)
    u1 = u0 + 0.5 * u2 * r1 * r1 + u4 * r1 ** 4 / 24.0
    p1 = r1 * (u2 + u4 * r1 * r1 / 6.0)
    rs, us, ps = [0.0, r1], [u0, u1], [0.0, p1]

    t, t_end = math.log(r1), math.log(r_max)
    xi, s, side = t + math.log(u1) / m, -r1 * p1 / (m * u1), 1.0

    def node(xi, s, side, r):
        """(s, side, right-hand side) of a new node, its cone margin checked."""
        try:
            if side > 0.0 and s > 1.0:  # past the turning point xi' = 0: carry 1 + xi'
                side, s = -1.0, 2.0 - s
            y = math.exp(2.0 * xi)
            a = 2.0 * lam0 * y  # A on H = 0, where lam_tan = lam0
            if side < 0.0 and s <= 0.5 and a < 1.0:  # xi' <= -1/2: project onto H = 0
                s = a / (1.0 + math.sqrt(1.0 - a))
            f = rhs(xi, s, side)
            a = s * (2.0 - s)
            margin = float(_pair_sigma((side * f[1] - 0.5 * a) / y, 0.5 * a / y, combs)[0])
        except (ConeDomainError, ArithmeticError) as exc:
            raise ConeBoundaryError(f"cone boundary reached: {exc}", r=r,
                                    margin=getattr(exc, "margin", None)) from exc
        if not margin >= _MARGIN_FLOOR:
            raise ConeBoundaryError(f"cone margin {margin:.3e} below floor at r={r}",
                                    r=r, margin=margin)
        return s, side, f

    s, side, f = node(xi, s, side, r1)
    h = _DT_FIRST
    steps = 0
    while t < t_end:
        if steps >= _MAX_STEPS:
            raise StepUnderflowError(f"step budget {_MAX_STEPS} exhausted at r={rs[-1]}",
                                     r=rs[-1])
        steps += 1
        last = h >= (t_end - t) * (1.0 - 1e-9)
        if last:
            h = t_end - t
        elif 2.0 * h > t_end - t:
            h = 0.5 * (t_end - t)  # no sliver of a last step
        try:
            xi_new, s_new, e5, e3 = _dop853_step(rhs, xi, s, side, f, h)
        except ConeDomainError as exc:
            h *= 0.5
            if h < 1e-12:
                raise ConeBoundaryError(f"cone boundary reached near r={rs[-1]}",
                                        r=rs[-1], margin=exc.margin) from exc
            continue
        x5, x3 = e5[0] / tol, e3[0] / tol
        sc_s = max(abs(s), abs(s_new), 1e-300)
        s5, s3 = e5[1] / sc_s / tol, e3[1] / sc_s / tol
        n5, n3 = x5 * x5 + s5 * s5, x3 * x3 + s3 * s3
        err = h * n5 / math.sqrt(2.0 * (n5 + 0.01 * n3)) if n5 != 0.0 else 0.0
        if not err <= 1.0:
            h *= max(0.2, 0.9 * err ** -0.125) if err < math.inf else 0.5
            if h < 1e-12:
                raise StepUnderflowError(f"step size underflow at r={rs[-1]}", r=rs[-1])
            continue
        grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err ** -0.125)
        t = t_end if last else t + h
        r = r_max if last else math.exp(t)
        xi = xi_new
        s, side, f = node(xi, s_new, side, r)
        u = math.exp(m * (xi - t))
        rs.append(r)
        us.append(u)
        ps.append(m * u * (-s if side > 0.0 else s - 2.0) / r)
        h *= grow
    return RadialProfile(np.array(rs), np.array(us), np.array(ps), n, k)


# ---------------------------------------------------------------------------
# desk check against the closed form
# ---------------------------------------------------------------------------

@dataclass
class TailEvidence:
    """Kelvin-image samples computed from the profile tail.

    This is the lab's one check of regularity at infinity: the Kelvin image
    v(rho) = r^{n-2} u(r), rho = 1/r, should settle as rho -> 0. rho holds
    1/r at the tail nodes, v the image values and scaled_grad
    rho |v'(rho)|. sufficient is False when the profile does not reach far
    enough (fewer than four nodes with r >= 2) to say anything. It is
    evidence, not a certificate: no finite sample decides C^2 extendability.
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
    regularity at infinity, the lab's one Kelvin-image check, is computed
    directly from the stored (r, u, u') samples.
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

# the septic Hermite basis on [0, 1], ascending powers of s: the right value's
# (the left one's is 1 minus it), then left and right slope, curvature and third
# derivative, times j! so that the coefficients, and the values at 0 and 1, are exact
_SEPTIC = np.array([[0, 0, 0, 0, 35, -84, 70, -20], [0, 1, 0, 0, -20, 45, -36, 10],
                    [0, 0, 0, 0, -15, 39, -34, 10], [0, 0, 1, 0, -10, 20, -15, 4],
                    [0, 0, 0, 0, 5, -14, 13, -4], [0, 0, 0, 1, -4, 6, -4, 1],
                    [0, 0, 0, 0, -1, 3, -3, 1]], dtype=float).T
_SEPTIC_DER = (_SEPTIC, npoly.polyder(_SEPTIC), npoly.polyder(_SEPTIC, 2))


def _hermite7(s, h, left, right, order):
    """Two-point septic Hermite matching value, slope, curvature and third derivative.

    left and right hold (value, slope, curvature, third derivative) at the
    ends of intervals of length h; s in [0, 1] is the position inside.
    Returns (value, slope, curvature), or (value, None, None) for order 0.
    The values enter through f1 - f0 only, so the 1/h^2 of the curvature
    scales terms of size O(h), not O(1).
    """
    (f0, *lo), (f1, *hi) = left, right
    weights, hj = [f1 - f0], 1.0
    for j, pair in enumerate(zip(lo, hi), 1):
        hj = hj * h / j  # h^j / j!
        weights += [hj * v for v in pair]
    val, *ders = (sum(map(mul, weights, npoly.polyval(s, basis)))
                  for basis in _SEPTIC_DER[:3 if order else 1])
    return (f0 + val, ders[0] / h, ders[1] / (h * h)) if order else (f0 + val, None, None)


def _central(y, x, i):
    """dy/dx at nodes i by a central difference, taken at the nearest interior node at the ends."""
    j = np.clip(i, 1, x.size - 2)
    return (y.take(j + 1, mode="clip") - y.take(j - 1, mode="clip")) \
        / (x.take(j + 1, mode="clip") - x.take(j - 1, mode="clip"))


def profile_to_field(profile: RadialProfile) -> ScalarField:
    """C^2 radial field reconstructed from a profile by septic interpolation.

    Node curvatures and third derivatives come from the equation itself, so
    at mesh radii the reconstructed jet reproduces the integrator's state
    exactly; between nodes the interpolation error, O(h^8) in value, is the
    only addition. The first interval [0, r_1] is interpolated in r, with
    u''' = 0 at the origin. Past r_1 the interpolant lives in the shooting
    chart: eta = log(u / u(0)) / m, m = (n-2)/2, which is
    xi - t - log(u(0)) / m, is matched in value and three derivatives in
    t = log r, and (u, u', u'') follow analytically:

        u = u(0) e^{m eta},   u' = m u eta' / r,
        u'' = m u (m eta'^2 + eta'' - eta') / r^2.

    eta''' = xi''' is the t-chart equation differentiated once, its power
    term written as T = g1 A - xi'', g1 = (n - 2k)/(2k):

        xi''' = -2 xi' (k g1 A + k (g1 - 1) xi'' - (k - 1) xi''^2 / A),
        xi' = 1 + eta',   A = -eta' (2 + eta'),   xi'' = eta'',

    and at r_1 the chain rule gives u''' = m u (eta''' + 3 m eta' eta''
    + m^2 eta'^3 - 3 (eta'' + m eta'^2) + 2 eta') / r^3. A node with no
    admissible solve gets u'' by finite differences; it, and a node with
    A <= 0, gets eta''' as the central difference of eta'' in t. eta is
    measured from u(0) so that near the origin, where it is O(r^2), its node
    differences keep their digits. Points within 1e-12 of the origin get
    the origin's jet.
    """
    n, k = profile.n, profile.k
    r_nodes, u_nodes, du_nodes = profile.r, profile.u, profile.du
    d2u_nodes = _node_solves(r_nodes, u_nodes, du_nodes, n, k)[0]
    # nodes with no admissible solve: three-point u'' inside, central du' at the ends
    failed = np.isnan(d2u_nodes)
    bad = np.flatnonzero(failed)
    i = bad[(bad > 0) & (bad < r_nodes.size - 1)]
    h1, h2 = r_nodes[i] - r_nodes[i - 1], r_nodes[i + 1] - r_nodes[i]
    d2u_nodes[i] = 2.0 * (h1 * u_nodes[i + 1] - (h1 + h2) * u_nodes[i] + h2 * u_nodes[i - 1]) \
        / (h1 * h2 * (h1 + h2))
    i = bad[(bad == 0) | (bad == r_nodes.size - 1)]
    d2u_nodes[i] = _central(du_nodes, r_nodes, i)
    # the chart's node data past the origin
    m, u0 = (n - 2.0) / 2.0, u_nodes[0]
    r_out, u_out = r_nodes[1:], u_nodes[1:]
    t_nodes = np.log(r_out)
    eta = np.log(u_out / u0)
    near = np.abs(u_out - u0) < 0.5 * u0
    eta[near] = np.log1p((u_out[near] - u0) / u0)
    eta /= m
    eta1 = r_out * du_nodes[1:] / (m * u_out)
    eta2 = r_out * r_out * d2u_nodes[1:] / (m * u_out) - m * eta1 * eta1 + eta1
    a, g1 = -eta1 * (2.0 + eta1), (n - 2.0 * k) / (2.0 * k)
    with np.errstate(all="ignore"):
        eta3 = -2.0 * (1.0 + eta1) * (k * g1 * a + k * (g1 - 1.0) * eta2
                                      - (k - 1.0) * eta2 * eta2 / a)
    i = np.flatnonzero(failed[1:] | ~(a > 0.0))
    eta3[i] = _central(eta2, t_nodes, i)
    e1, e2, r1 = eta1[0], eta2[0], r_out[0]
    d3u1 = m * u_out[0] * (eta3[0] + 3.0 * m * e1 * e2 + m * m * e1 * e1 * e1
                           - 3.0 * (e2 + m * e1 * e1) + 2.0 * e1) / (r1 * r1 * r1)
    eye = np.eye(n)

    def jets(X, order):
        rr = np.linalg.norm(X, axis=1)
        # the domain check capped rr near r_max; clamp the interval index
        i = np.clip(np.searchsorted(r_nodes, rr, side="right") - 1, 0, r_nodes.size - 2)
        val, der, cur = np.empty_like(rr), np.empty_like(rr), np.empty_like(rr)
        first = i == 0
        h = r_nodes[1]
        v, d, c = _hermite7(rr[first] / h, h, (u0, du_nodes[0], d2u_nodes[0], 0.0),
                            (u_nodes[1], du_nodes[1], d2u_nodes[1], d3u1), order)
        val[first] = v
        j, ro = i[~first] - 1, rr[~first]
        h = t_nodes[j + 1] - t_nodes[j]
        e, e1, e2 = _hermite7((np.log(ro) - t_nodes[j]) / h, h,
                              (eta[j], eta1[j], eta2[j], eta3[j]),
                              (eta[j + 1], eta1[j + 1], eta2[j + 1], eta3[j + 1]), order)
        uo = u0 * np.exp(m * e)
        val[~first] = uo
        origin = rr < 1e-12
        val[origin] = u0
        if not order:
            return val, None, None
        der[first], cur[first] = d, c
        der[~first] = m * uo * e1 / ro
        cur[~first] = m * uo * (m * e1 * e1 + e2 - e1) / (ro * ro)
        rr[origin] = 1.0  # any nonzero radius; these rows are overwritten below
        xhat = X / rr[:, None]
        proj = xhat[:, :, None] * xhat[:, None, :]
        grad = der[:, None] * xhat
        hess = cur[:, None, None] * proj + (der / rr)[:, None, None] * (eye - proj)
        grad[origin] = 0.0
        hess[origin] = d2u_nodes[0] * eye
        return val, grad, hess

    dom = Domain(kind="ball", center=np.zeros(n), r_outer=profile.r_max)
    return ScalarField(n, domain=dom, tag=f"radial-profile(n={n},k={k})",
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
