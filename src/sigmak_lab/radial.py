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
the tests compares it against `conformal`'s flat Schouten matrix mechanically.

sigma_k of the pair is linear in lam_rad,

    sigma_k = C(n-1, k-1) lam_tan^{k-1} lam_rad + C(n-1, k) lam_tan^k,

so the curvature u'' demanded by sigma_k = 1 is a linear solve and no
root-branch ambiguity exists: shooting suffices. A constant right-hand side
c would be no more general: A_{s u} = s^{-4/(n-2)} A_u, so c^{-(n-2)/(4k)} u
solves sigma_k = c exactly when u solves sigma_k = 1. `_node_solves` solves
an array of nodes (r, u, u') in one pass, isotropically where r = 0;
the series start takes u''(0) from it as a one-node array.

Shooting starts from the sextic Taylor series of the solution regular at
the origin, evaluated at r_s = 1e-2 (moved in for a family scale above 1),
and integrates on in the log-cylinder chart t = log r, e^xi = r u^{2/(n-2)}
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
tableau is kept below; its error control alone sets the mesh. The step is
compiled from it with zero entries dropped and each sum in the tableau's
order, which keeps every profile bit for bit. Every node is mapped back
to (r, u, u'). The run aborts cleanly when the cone margin is lost; past
the cone boundary the operator is no longer elliptic and the computed
branch is meaningless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bubbles import _bubble_jets, c_constant
from .errors import ConeBoundaryError, ConeDomainError, ConfigError, StepUnderflowError, \
    _require_positive, check_nk, check_positive, check_positive_value

__all__ = [
    "EigenPair",
    "RadialProfile",
    "TailEvidence",
    "LiouvilleReport",
    "radial_eigenvalues",
    "shoot",
    "liouville_report",
    "write_profile_csv",
]

_MARGIN_FLOOR = 1e-10  # integration halts when the cone margin drops below this
_MAX_STEPS = 200000  # step budget of one shot
_TOL_FLOOR = 1e-15  # smallest shot tol: a shot at it is already off by ~1e-13 from rounding
_R_START = 1e-2  # the sextic series start's node at scale a <= 1, where the t chart begins
_DT_FIRST = 0.04  # the first trial step in t; the error control sets every later one


class EigenPair(NamedTuple):
    """The two eigenvalues of the radial Schouten matrix (floats, or arrays)."""

    lam_rad: float | np.ndarray
    lam_tan: float | np.ndarray

    def vector(self, n: int) -> np.ndarray:
        """lam_rad once and lam_tan n-1 times, along the last axis: a tests' oracle."""
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
    is replaced by d2u (smooth radial profiles have du = 0 there). A u that
    is not positive, or nan, raises PositivityError at the first such node's radius.
    No workflow calls it: the tests' generic-sigma oracles `_series_residual` and
    `_generic_node_quantities` are built from it.
    """
    check_nk(n, 1)
    u, du, d2u, r = (np.asarray(a, dtype=float) for a in (u, du, d2u, r))
    _require_positive(r.ravel(), u.ravel())
    _, _, e1, e2 = _coeffs(n)
    pair = _schouten_pair(u ** e1, u ** e2, du, d2u, r, n)
    return EigenPair(*map(float, pair)) if u.ndim == 0 else pair


def _schouten_pair(q1, q2, du, d2u, r, n: int) -> EigenPair:
    """`radial_eigenvalues` of unchecked arrays, given q1 = u^e1 and q2 = u^e2 (`_coeffs`)."""
    b, d, _, _ = _coeffs(n)
    slope = np.divide(du, r, out=d2u.copy(), where=r != 0.0)
    return EigenPair(-b * q1 * d2u + (n - 1.0) * d * q2 * du * du,
                     -b * q1 * slope - d * q2 * du * du)


def _lam0(n: int, k: int) -> float:
    """C(n,k)^{-1/k}: both eigenvalues of every member of the family."""
    return (1.0 / math.comb(n, k)) ** (1.0 / k)


def _pair_e(lam_rad, lam_tan, combs):
    """[e_1, ..., e_k] of (lam_rad, lam_tan x m), combs = C(m, 0..k), from
    e_j = C(m, j) lam_tan^j + C(m, j-1) lam_tan^{j-1} lam_rad, for shoot's float node:
    two powers per j and builtin `min` beat `_pair_sigma`, 9.3% slower there."""
    return [combs[j] * lam_tan ** j + combs[j - 1] * lam_tan ** (j - 1) * lam_rad
            for j in range(1, len(combs))]


def _powers_e(lam_rad, tan_pow, combs):
    """`_pair_e` from the powers tan_pow[j] = lam_tan^j, each formed once."""
    return [combs[j] * tan_pow[j] + combs[j - 1] * tan_pow[j - 1] * lam_rad
            for j in range(1, len(combs))]


def _pair_sigma(lam_rad, tan_pow, combs):
    """(cone margin min_j e_j, e_k) of `_powers_e` on arrays, nan where any e_j is nan."""
    e = _powers_e(lam_rad, tan_pow, combs)
    return functools.reduce(np.minimum, e, math.inf), e[-1]


def _node_solves(r, u, du, n: int, k: int):
    """(u'', cone margin, sigma_k residual) at nodes (r, u, du), in one array pass.

    u'' solves sigma_k = 1 by the linear solve of the module docstring,
    isotropically where r = 0, with one table of lam_tan powers for the solve
    and the margin; the residual is |sigma_k - 1| at it. A node with no
    admissible solve gets u'' and residual nan, and as margin lam_tan if the
    linear coefficient degenerates, the negative margin if the pair leaves
    Gamma_k, nan if the result is not finite. u > 0 is the callers' job.
    """
    b, _, e1, e2 = _coeffs(n)
    combs = [math.comb(n - 1, j) for j in range(k + 1)]
    lam0 = _lam0(n, k)  # the isotropic pair at the origin
    origin = r == 0.0
    with np.errstate(all="ignore"):
        q1, q2 = u ** e1, u ** e2
        # lam_rad is affine in u'' with slope -b q1; lam_tan is free of it for r > 0
        lam_rad0, lam_tan = _schouten_pair(q1, q2, du, np.zeros_like(r), r, n)
        lam_tan = np.where(origin, lam0, lam_tan)
        tan_pow = [lam_tan ** j for j in range(k + 1)]
        coeff = combs[k - 1] * tan_pow[k - 1]
        lam_rad = np.where(origin, lam0, (1.0 - combs[k] * tan_pow[k]) / coeff)
        d2u = (lam_rad0 - lam_rad) / (b * q1)
        margin = _pair_sigma(lam_rad, tan_pow, combs)[0]
        degenerate = np.abs(coeff) < 1e-14
        finite = np.isfinite(d2u) & np.isfinite(margin)
        margin = np.where(degenerate, lam_tan, np.where(finite, margin, np.nan))
        ok = ~degenerate & finite & (margin >= 0.0)
        d2u = np.where(ok, d2u, np.nan)
        lam_rad, lam_tan = _schouten_pair(q1, q2, du, d2u, r, n)  # nan where d2u is
        res = np.abs(_powers_e(lam_rad, [lam_tan ** (k - 1), lam_tan ** k], combs[k - 1:])[0] - 1.0)
    return d2u, margin, res


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

@dataclass
class RadialProfile:
    """Radial mesh with values and first derivatives of a profile checked positive.

    A bad (n, k), inputs that are not 1-D, nonempty arrays of numbers of one
    shape, a mesh that does not rise strictly from r = 0, entries that are
    not finite or a nonzero du at the origin are a ConfigError; a u that is
    not positive (nan included) is a PositivityError at its radius, checked
    before finiteness.
    """

    r: np.ndarray
    u: np.ndarray
    du: np.ndarray
    n: int
    k: int

    def __post_init__(self):
        check_nk(self.n, self.k)
        try:
            self.r, self.u, self.du = (np.asarray(a, float) for a in (self.r, self.u, self.du))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"profile arrays must hold numbers: {exc}") from exc
        if self.r.ndim != 1 or not self.r.size or not self.r.shape == self.u.shape == self.du.shape:
            raise ConfigError("mesh, values and derivatives must be 1-D, nonempty and of one shape")
        if self.r[0] != 0.0:
            raise ConfigError("mesh must start at r = 0")
        if np.any(np.diff(self.r) <= 0.0):
            raise ConfigError("mesh must be strictly increasing")
        _require_positive(self.r, self.u)
        if not np.isfinite([self.r, self.u, self.du]).all():
            raise ConfigError("mesh, values and derivatives must be finite")
        if self.du[0] != 0.0:
            raise ConfigError("smoothness at the origin requires du[0] = 0")


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


def _weighted(w, k):
    """Source of the sum of w[j] * k<j>, left to right, the zero weights dropped."""
    return " + ".join(f"{c!r} * {k}{j}" for j, c in enumerate(w) if c != 0.0)


exec('''def _dop853_step(rhs, xi, s, side, f, h):
    """One DOP853 step of length h from (xi, s), f = rhs(xi, s, side).

    Returns (xi, s) of the 8th-order solution and the two error vectors
    (e5, e3) of Hairer's estimate, each a pair over (xi, s) still to be
    scaled by h. Eleven right-hand sides: the first stage is f. Compiled from
    the tableau, zeros dropped and sums in its order: bit for bit a loop's.
    """
    x0, s0 = f
{}
    return (xi + h * ({}), s + h * ({}), ({}, {}), ({}, {}))'''.format("\n".join(
    f"    x{i}, s{i} = rhs(xi + h * ({_weighted(a, 'x')}), s + h * ({_weighted(a, 's')}), side)"
    for i, a in enumerate(_DOP_A, 1)),
    *(_weighted(w, k) for w in (_DOP_B, _DOP_E5, _DOP_E3) for k in "xs")), globals())


def _series_coefficients(u0: float, n: int, k: int) -> tuple[float, float, float]:
    """(u2, u4, u6) of u = u0 + u2 r^2/2 + u4 r^4/24 + u6 r^6/720 + O(r^8), the
    solution regular at the origin.

    u2 solves the isotropic equation at the origin. u4 = 3 n u2^2 / ((n-2) u0)
    makes the order-r^2 term of sigma_k = 1 vanish: every eigenvalue starts
    at lam0, sigma_k is symmetric, so that term is proportional to
    dlam_rad + (n-1) dlam_tan = -b u0^{-(n+2)/(n-2)} ((n+2) u4 / 6
    - n (n+2) u2^2 / (2 (n-2) u0)), free of k (checked with sympy for
    3 <= n <= 6). u6 = 15 (m+1) (m+2) u2^3 / (m^2 u0^2), m = (n-2)/2, makes
    the order-r^4 term vanish, again for every k (checked with mpmath for
    3 <= n <= 8). A coefficient that is not finite is a ConeDomainError at
    the origin, checked in the order u2, u4, u6; u2 is nan where u0's powers
    leave the float range (at u0 = 1e70 and n = 3, u0^e1 underflows).
    """
    u2 = float(_node_solves(np.zeros(1), np.array([u0]), np.zeros(1), n, k)[0][0])
    m = (n - 2.0) / 2.0
    u4 = 3.0 * n * u2 * (u2 / u0) / (n - 2.0)
    u6 = 15.0 * (m + 1.0) * (m + 2.0) * u2 * (u2 / u0) * (u2 / u0) / (m * m)
    for name, value in (("u2", u2), ("u4", u4), ("u6", u6)):
        if not abs(value) < math.inf:
            raise ConeDomainError(f"series coefficient {name}={value} of u0={u0} is not finite",
                                  where=0.0)
    return u2, u4, u6


def shoot(u0: float, n: int, k: int, r_max: float, *, tol: float = 1e-12) -> RadialProfile:
    """Integrate the radial equation from the origin out to r_max.

    Starts from u(0) = u0, u'(0) = 0. The node r_s = 1e-2 / max(1, a), a the
    scale of the family member through u0, comes from the sextic Taylor
    expansion of `_series_coefficients`, whose relative truncation error
    |C(-m, 4)| (a r_s)^8, m = (n-2)/2, is 5e-16 at n = 6 and 2e-14 at n = 16.
    An r_max below r_s e^0.02, less than half the first trial step past r_s
    in t, is taken as r_s itself (at most 1.2 times that error), so no step
    is a sliver. Past r_s the state (xi, s) of the t = log r chart
    (see the module docstring) is advanced by the DOP853 pair, and past
    the turning point every accepted node with xi' <= -1/2 is projected
    onto the first integral H = 0 by resetting s from xi. Each node is
    stored as (r, u, u'); the last lies at r_max exactly, so a shot with
    r_max = r_s takes no step.

    tol is the accuracy asked of the profile and the one accuracy control:
    a step is accepted when Hairer's error estimate is at most tol, absolute
    in xi (relative in u) and relative in s, and the error control sets
    every step after a first trial step of 0.04 in t.

    Aborts with ConeBoundaryError (carrying r and the margin) when a node's
    cone margin falls below 1e-10, and when halving cannot get a step past
    stages with no admissible value; StepUnderflowError when the error
    control shrinks the step below 1e-12 in t or the shot runs out of its
    step budget; a bad (n, k) or a tol outside [_TOL_FLOOR, inf) is a
    ConfigError at once, a u0 that is not positive a PositivityError (one
    past the float range a ConfigError), and a u0 whose series
    coefficients leave the float range a ConeDomainError. The isotropic
    start has margin 1 (its sigma_j is C(n,j) C(n,k)^{-j/k} >= 1 for j <= k,
    as C(n,j)^{1/j} falls with j), so the origin itself is never at the
    boundary.
    """
    check_positive_value("initial value u0", u0)
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

    u2, u4, u6 = _series_coefficients(u0, n, k)
    # the series runs in powers of (a r)^2, a^2 = -u2 / ((n-2) u0) the family's scale
    r1 = _R_START / max(1.0, math.sqrt(-u2 / ((n - 2.0) * u0)))
    if r_max <= r1 * math.exp(0.5 * _DT_FIRST):  # no sliver of a first step
        r1 = r_max
    q = r1 * r1
    u1 = u0 + q * (0.5 * u2 + q * (u4 / 24.0 + q * u6 / 720.0))
    p1 = r1 * (u2 + q * (u4 / 6.0 + q * u6 / 120.0))
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
            e = _pair_e((side * f[1] - 0.5 * a) / y, 0.5 * a / y, combs)
            margin = math.nan if any(map(math.isnan, e)) else min(e)  # min may skip a nan
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
    """Kelvin-image evidence computed from the profile tail.

    This is the lab's one check of regularity at infinity: the Kelvin image
    v(rho) = r^{n-2} u(r), rho = 1/r, should settle as rho -> 0. The tail
    is every node past the origin with D = (n-2) + r u'/u = -rho v'/v <= 1/2
    and a normal-float u' (below that u' has lost its digits); on the family
    D = (n-2) / (1 + a^2 r^2), so the tail lies past the peak of rho |v'| at
    every scale a. rho holds 1/r there, v = exp(log u + (n-2) log r) and
    scaled_grad rho |v'| = v |D|, with no power of r. monotone allows a rise
    of 64 eps (n-2) v, the rounding floor of D, from node to node;
    sufficient needs four tail nodes. It is evidence, not a certificate:
    no finite sample decides C^2 extendability.
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
    n, r, u, du = profile.n, profile.r[1:], profile.u[1:], profile.du[1:]
    d = (n - 2.0) + r * du / u  # D = -rho v'(rho) / v, with no power of r
    tail = (d <= 0.5) & (np.abs(du) >= np.finfo(float).tiny)
    if np.count_nonzero(tail) < 4:
        empty = np.empty(0)
        return TailEvidence(empty, empty, empty, False, False)
    r, d = r[tail], d[tail]
    v = np.exp(np.log(u[tail]) + (n - 2.0) * np.log(r))
    scaled = v * np.abs(d)
    floor = 64.0 * np.finfo(float).eps * (n - 2.0) * v[1:]
    monotone = bool(np.all(scaled[1:] <= scaled[:-1] + floor))
    return TailEvidence(1.0 / r, v, scaled, monotone, True)


def liouville_report(profile: RadialProfile) -> LiouvilleReport:
    """Fit the family scale from u(0) and report the worst relative deviation.

    The scale is a = (u(0) / c(n, k))^{2/(n-2)}. Tail evidence for
    regularity at infinity, the lab's one Kelvin-image check, is computed
    from the nodes with (n-2) + r u'/u <= 1/2, down to a rounding floor
    of 64 eps (n-2) v (see `TailEvidence`).
    """
    n, k = profile.n, profile.k
    a = float((profile.u[0] / c_constant(n, k)) ** (2.0 / (n - 2.0)))
    model = _bubble_jets(n, k, a, 0.0, profile.r[:, None], 0)[0]
    rel = np.abs(profile.u - model) / model
    worst = int(np.argmax(rel))
    return LiouvilleReport(a, float(rel[worst]), float(profile.r[worst]),
                           _tail_evidence(profile))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def write_profile_csv(profile: RadialProfile, path):
    """Serialize a profile with per-node residual and cone margin columns.

    sigma_residual measures how exactly the equation's curvature solve
    closes at each node (machine-level along shot profiles); cone_margin
    is the Gamma_k margin of the node's eigenpair. Nodes where the solve
    fails get nan residual and the failing margin (see `_node_solves`).
    Every field is `repr` of its value as a Python float, except that the
    origin row's du is always +0.0 (`0.0`). The two certificate columns
    repeat few values, so `_reprs` formats each distinct one of them once.
    """
    _, margin, res = _node_solves(profile.r, profile.u, profile.du, profile.n, profile.k)
    du = [0.0] + profile.du.tolist()[1:]  # the origin row as +0.0
    text = _reprs(np.concatenate([res, margin]))
    rows = zip(profile.r.tolist(), profile.u.tolist(), du, text[:res.size], text[res.size:])
    lines = ["r,u,du,sigma_residual,cone_margin"]
    lines += [f"{r!r},{u!r},{du!r},{res},{margin}" for r, u, du, res, margin in rows]
    write_csv(path, lines)


def _reprs(a: np.ndarray) -> list[str]:
    """`repr` of every entry of the float array a, formatting each distinct
    bit pattern once: by bits, not by value, -0.0 stays apart from 0.0 and
    every nan finds itself."""
    keys, inverse = np.unique(np.ascontiguousarray(a, dtype=float).view(np.int64),
                              return_inverse=True)
    text = np.array([repr(v) for v in keys.view(float).tolist()], dtype=object)
    return text[inverse].tolist()


def write_csv(path, lines: list[str]):
    """Write CSV lines under the versioned header line every CSV of the lab starts with."""
    write_text(path, "\n".join(["# sigmak-lab v1"] + lines) + "\n")


def write_text(path, text: str):
    """Write text to path; a path that cannot be written is a ConfigError."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
