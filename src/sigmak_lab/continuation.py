"""Radial Dirichlet solver for the interpolated operator family, with
continuation in the interpolation parameter.

The discrete problem lives on a uniform mesh over [0, R_b]: second-order
central differences for u' and u'' at interior nodes, a second-order
one-sided stencil enforcing u'(0) = 0, and a Dirichlet value at R_b. The
nonlinear system f_t(lambda(A(u))) = 1 is solved by damped Newton with an
analytically assembled Jacobian. Its interior rows are tridiagonal and held
as three diagonals (_NodeState.band); the u'(0) row, whose stencil reaches
x_2, and the Dirichlet row are constants. Each Newton step substitutes
those two rows into the interior ones and solves the tridiagonal rest by
cyclic reduction (Hockney, J. ACM 12, 1965; Buzbee, Golub and Nielson,
SIAM J. Numer. Anal. 7, 1970); see _solve_band. The node state is a
closed-form pair: each node has lam_rad once and lam_tan n-1 times, so has
the uniform mix (a, b), and e_1..e_k of the mix and the two distinct
partials of f_t come from one table of the powers b^j, with no (nodes x n)
eigenvalue matrix. What u alone fixes (the checks, the differences, the
pair and its partials) is an _Iterate, formed once per vector; a _NodeState
adds one t, and continue_path hands each converged iterate to the next t.

Continuation walks t from 0 (a sigma_1-type equation) to 1 (pure sigma_k),
seeding each solve with the last converged solution; the t-step starts at
spec.t_step, doubles after a solve of at most _FAST_ITERS Newton iterations
and halves on failure. On the bubble data the walk does little work: the
uniform mix leaves an isotropic pair (lam0, lam0) unchanged, so every f_t
has the same exact radial solutions and each step only tracks the O(h^2)
drift of the discrete solution. Every accepted Newton iterate is kept
strictly inside (Gamma_k)_t with a positive ellipticity certificate; this
is checked at every step, never assumed.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import _bubble_jets, c_constant
from .errors import ConeDomainError, ConfigError, NewtonError, PathError, \
    PositivityError, _FloatTraps, _require_positive, check_count, check_nk, check_positive
from .radial import RadialProfile, _coeffs, _pair_sigma, _powers_e, _schouten_pair

__all__ = [
    "BvpSpec",
    "TRecord",
    "ContinuationTrace",
    "assemble_residual",
    "assemble_jacobian",
    "newton_solve",
    "continue_path",
    "initial_guess",
]

_NEWTON_TOL = 1e-10     # residual infinity norm at which Newton stops
_MAX_NEWTON_ITER = 30   # Newton iterations per solve
_MAX_BISECT = 10        # t-step bisections before continuation gives up
_FAST_ITERS = 3         # Newton iterations at or below which the t-step doubles


@dataclass(frozen=True)
class BvpSpec:
    """Discrete two-point problem: mesh, boundary data, and the first t-step.

    m is the number of mesh intervals (m + 1 nodes). a_init selects which
    member of the closed-form family seeds the path; a given boundary
    value is shared by two members (a small-a and a large-a branch), so
    the intent cannot be inferred from u_b alone. t_step in (0, 1] is
    continue_path's first step. Newton solves f_t - 1 = 0 at the interior
    nodes.
    """

    n: int
    k: int
    r_b: float
    u_b: float
    m: int = 256
    t_step: float = 0.1
    a_init: float | None = None

    def __post_init__(self):
        check_nk(self.n, self.k)
        check_positive("domain radius r_b", self.r_b)
        check_positive("boundary value u_b", self.u_b)
        if self.a_init is not None:
            check_positive("family scale a_init", self.a_init)
        check_count("mesh size m", self.m, 16, math.inf)
        if not 0.0 < self.t_step <= 1.0:
            raise ConfigError(f"first t-step t_step={self.t_step} must lie in (0, 1]")

    @functools.cached_property
    def mesh(self) -> np.ndarray:
        """The m + 1 nodes, formed once per spec and read-only."""
        mesh = np.linspace(0.0, float(self.r_b), self.m + 1)
        mesh.flags.writeable = False
        return mesh

    @property
    def h(self) -> float:
        return self.r_b / self.m


@dataclass
class TRecord:
    """One continuation step: convergence data and admissibility certificates."""

    t: float
    converged: bool
    iters: int
    residual: float
    cone_margin: float
    ellipticity: float


@dataclass
class ContinuationTrace:
    """Ordered records of every attempted solve along the t-path."""

    records: list[TRecord] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps([vars(r) for r in self.records], indent=2) + "\n"


class _Iterate:
    """A state vector u and what it alone fixes, formed on first use: `nodes`
    checks u, then holds r, u, u', u'', q1 = u^e1, q2 = u^e2 (`_coeffs`), the
    pair and its sigma_1 at the interior nodes; `partials` the pair's derivatives."""

    def __init__(self, u, spec: BvpSpec):
        self.u, self.spec = np.array(u, dtype=float), spec

    @functools.cached_property
    def nodes(self) -> tuple:
        spec, u, h = self.spec, self.u, self.spec.h
        if u.shape != (spec.m + 1,):
            raise ConfigError(f"state vector must have {spec.m + 1} nodes")
        _require_positive(spec.mesh, u)
        r, ui = spec.mesh[1:-1], u[1:-1]
        up = (u[2:] - u[:-2]) / (2.0 * h)
        # difference of first differences: rounding ~ eps |u'| / h instead of
        # eps |u| / h^2, which would put the 1e-10 residual target out of
        # reach on fine meshes once u^{-(n+2)/(n-2)} amplifies it
        upp = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / h ** 2
        _, _, e1, e2 = _coeffs(spec.n)
        q1, q2 = ui ** e1, ui ** e2
        lam_rad, lam_tan = _schouten_pair(q1, q2, up, upp, r, spec.n)
        return r, ui, up, upp, q1, q2, lam_rad, lam_tan, lam_rad + (spec.n - 1.0) * lam_tan

    @functools.cached_property
    def partials(self) -> tuple:
        """d lam_rad / d(u, u', u'') and d lam_tan / d(u, u') at the interior nodes."""
        n = self.spec.n
        b, d, e1, e2 = _coeffs(n)
        r, ui, up, upp, q1, q2 = self.nodes[:6]
        dq1 = e1 * ui ** (e1 - 1.0)
        dq2 = e2 * ui ** (e2 - 1.0)
        up2 = up ** 2
        return (-b * dq1 * upp + (n - 1.0) * d * dq2 * up2, 2.0 * (n - 1.0) * d * q2 * up,
                -b * q1, -b * dq1 * up / r - d * dq2 * up2, -b * q1 / r - 2.0 * d * q2 * up)


class _NodeState:
    """An _Iterate at t (built from u when u is a vector): the residual and
    Jacobian quantities on the closed-form pair, see the module docstring."""

    def __init__(self, u, spec: BvpSpec, t: float):
        it = u if isinstance(u, _Iterate) else _Iterate(u, spec)
        lam_rad, lam_tan, sigma1 = it.nodes[6:]
        if not 0.0 <= t <= 1.0:
            raise ConfigError(f"homotopy parameter t={t} outside [0, 1]")
        n, k = spec.n, spec.k
        mix = (1.0 - t) * sigma1 * (1.0 / n)
        a, bt = t * lam_rad + mix, t * lam_tan + mix
        pw = [bt ** j for j in range(k + 1)]  # serves the margins, f and both partials
        self.margins, self.f = _pair_sigma(a, pw, [math.comb(n - 1, j) for j in range(k + 1)])
        # sigma_k partials: e_{k-1} of (bt x n-1), radial, and of (a, bt x n-2),
        # tangential, the latter alone from the table's rows k-2 and k-1
        g_rad = math.comb(n - 1, k - 1) * pw[k - 1]
        g_tan = _powers_e(a, pw[k - 2:k], [math.comb(n - 2, k - 2), math.comb(n - 2, k - 1)])[0] \
            if k > 1 else 1.0
        mean = (g_rad + (n - 1.0) * g_tan) * (1.0 / n)
        self.f_rad = t * g_rad + (1.0 - t) * mean
        self.f_tan = t * g_tan + (1.0 - t) * mean
        self.iterate, self.spec, self.t, self.u = it, spec, t, it.u

    def residual(self) -> np.ndarray:
        spec, h = self.spec, self.spec.h
        u = self.u
        res = np.empty(spec.m + 1)
        # 4(u1-u0) - (u2-u0) = -3u0 + 4u1 - u2, assembled from small differences
        res[0] = (4.0 * (u[1] - u[0]) - (u[2] - u[0])) / (2.0 * h)
        res[1:-1] = self.f - 1.0
        res[-1] = u[-1] - spec.u_b
        return res

    def ellipticity(self) -> float:
        """Smallest partial of f_t over the nodes (the n-1 tangential ones are equal)."""
        return float(min(self.f_rad.min(), self.f_tan.min()))

    def band(self) -> tuple:
        """(lower, diag, upper): J[i, i-1], J[i, i] and J[i, i+1] of interior rows
        i = 1..m-1. Row 0 is the u'(0) stencil (-1.5, 2, -0.5) / h on x_0..x_2 and
        row m the Dirichlet identity; both are constants where they are read."""
        n, h = self.spec.n, self.spec.h
        dlr_du, dlr_dp, dlr_ds, dlt_du, dlt_dp = self.iterate.partials
        f_rad, f_tan = self.f_rad, (n - 1.0) * self.f_tan
        du_ = f_rad * dlr_du + f_tan * dlt_du
        dp_ = f_rad * dlr_dp + f_tan * dlt_dp
        ds_ = f_rad * dlr_ds
        return (-dp_ / (2.0 * h) + ds_ / h ** 2, du_ - 2.0 * ds_ / h ** 2,
                dp_ / (2.0 * h) + ds_ / h ** 2)

    def jacobian_dense(self) -> np.ndarray:
        m, h = self.spec.m, self.spec.h
        jac = np.zeros((m + 1, m + 1))
        jac[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
        i = np.arange(1, m)
        jac[i, i - 1], jac[i, i], jac[i, i + 1] = self.band()
        jac[m, m] = 1.0
        return jac


def _attainable_residual(band: tuple, u: np.ndarray, h: float) -> float:
    """Resolution floor of the discrete residual at the float lattice of u.

    Perturbing any node by one ulp moves residual row i by about
    eps sum_j |J_ij| |u_j|; below twice the largest such row no float
    vector can be distinguished from an exact root. A nan row gives nan.
    """
    lower, diag, upper = band
    au = np.abs(u)
    s = np.abs(diag) * au[1:-1] + np.abs(lower) * au[:-2] + np.abs(upper) * au[2:]
    edge = 1.5 / h * au[0] + 2.0 / h * au[1] + 0.5 / h * au[2]
    return 2.0 * float(np.finfo(float).eps) * float(np.max((s.max(), edge, au[-1])))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _solve_band(band: tuple, rhs: np.ndarray, h: float) -> np.ndarray:
    """Solve J x = rhs for the Jacobian whose interior rows are band (see
    _NodeState.band) on a mesh of width h.

    Row m is the Dirichlet identity, so x_m = rhs_m moves to the right side.
    Row 0 (the u'(0) stencil) loses its x_2 entry against row 1 and then
    gives x_0 in terms of x_1, which row 1 absorbs. What remains is
    tridiagonal in x_1..x_{m-1}, solved by cyclic reduction: each level
    eliminates the even-indexed unknowns from the odd-indexed rows, after
    one dummy row y = 0 when the level has an even size. Nothing pivots, so
    a zero pivot returns inf or nan entries, never a warning or a trap.
    """
    lower, diag, upper = band
    m = len(diag) + 1
    xm = rhs[m]
    # rows 1..m-1 as -s y_{i-1} + b y_i - c y_{i+1} = d in y = x_1..x_{m-1}
    s, b, c, d = -lower, diag.copy(), -upper, rhs[1:m].copy()
    d[-1] += c[-1] * xm
    c[-1] = 0.0
    # row 0 minus (its x_2 entry / row 1's) times row 1: p x_0 + q x_1 = r0
    f = -0.5 / h / c[0]
    p, q, r0 = -1.5 / h - f * s[0], 2.0 / h + f * b[0], rhs[0] + f * d[0]
    g = s[0] / p
    b[0] += g * q
    d[0] += g * r0
    s[0] = 0.0
    levels = []
    while len(b) > 1:
        if len(b) % 2 == 0:
            s, b, c, d = np.append(s, 0.0), np.append(b, 1.0), np.append(c, 0.0), np.append(d, 0.0)
        levels.append((s, b, c, d))
        al, ga = s[1::2] / b[:-1:2], c[1::2] / b[2::2]
        s, b, c, d = (al * s[:-1:2], b[1::2] - al * c[:-1:2] - ga * s[2::2],
                      ga * c[2::2], d[1::2] + al * d[:-1:2] + ga * d[2::2])
    y = d / b
    for s, b, c, d in reversed(levels):
        # z = (0, y, 0): the odd unknowns come from the level below
        z = np.zeros(len(b) + 2)
        z[2:-1:2] = y[:len(b) // 2]
        np.divide(d[::2] + s[::2] * z[:-2:2] + c[::2] * z[2::2], b[::2], out=z[1::2])
        y = z[1:-1]
    x = np.empty(m + 1)
    x[1:m], x[m] = y[:m - 1], xm
    x[0] = (r0 - q * x[1]) / p
    return x


def _admissible_state(u, spec: BvpSpec, t: float) -> _NodeState:
    """The node state of u, raising ConeDomainError at the first node whose
    (Gamma_k)_t margin is not positive."""
    state = _NodeState(u, spec, t)
    if not np.all(state.margins > 0.0):
        node = int(np.argmin(state.margins > 0.0)) + 1
        raise ConeDomainError(f"node {node} left (Gamma_{spec.k})_t at t={t}",
                              margin=float(state.margins[node - 1]),
                              where=float(spec.mesh[node]))
    return state


def assemble_residual(initial, spec: BvpSpec, t: float) -> np.ndarray:
    """Discrete residual of a nodal state: u'(0) row, interior equation rows,
    boundary row; a tests' oracle. Raises ConeDomainError when a node leaves (Gamma_k)_t."""
    return _admissible_state(initial, spec, t).residual()


def assemble_jacobian(initial, spec: BvpSpec, t: float) -> np.ndarray:
    """Dense Jacobian of the discrete residual (for verification); raises as above."""
    return _admissible_state(initial, spec, t).jacobian_dense()


def newton_solve(initial, spec: BvpSpec, t: float) -> tuple[np.ndarray, TRecord]:
    """Damped Newton for the discrete problem at fixed t.

    The line search halves the step on positivity loss, cone-margin loss,
    or a non-decreasing residual norm. Converges when the residual
    infinity norm drops below _NEWTON_TOL, or below the float-lattice
    resolution of the residual (on fine meshes the 1/h^2 stencil amplifies
    one ulp of u past any fixed tolerance; see _attainable_residual).
    Raises NewtonError on an inadmissible initial state, a singular
    Jacobian, a stalled line search, or iteration exhaustion. The step
    solve (_solve_band, on the three diagonals of _NodeState.band) does not
    pivot: a singular Jacobian, or a zero pivot of the elimination, shows up
    as a non-finite step, which is the one singular-Jacobian path. initial
    may also be an _Iterate, as continue_path passes its last solution; the
    solution is then one too.
    """
    with _FloatTraps():
        try:
            state = _admissible_state(initial, spec, t)
        except (PositivityError, ConeDomainError) as exc:
            raise NewtonError(f"inadmissible initial state: {exc}") from exc
        if state.ellipticity() <= 0.0:
            raise NewtonError("inadmissible initial state: no ellipticity certificate")

        x, h = state.u, spec.h
        res = state.residual()
        rnorm = float(np.abs(res).max())
        iters = 0
        while True:
            band = state.band()
            tol = max(_NEWTON_TOL, _attainable_residual(band, x, h))
            if rnorm < tol:
                break
            if iters >= _MAX_NEWTON_ITER:
                raise NewtonError(f"Newton did not converge in {_MAX_NEWTON_ITER} "
                                  f"iterations (residual {rnorm:.3e})",
                                  iterations=iters, residual=rnorm)
            step = _solve_band(band, -res, h)
            if not np.all(np.isfinite(step)):
                raise NewtonError("singular Jacobian (non-finite step)",
                                  iterations=iters, residual=rnorm)
            alpha = 1.0
            accepted = None
            while alpha >= 2.0 ** -30:
                trial = x + alpha * step
                try:
                    cand = _admissible_state(trial, spec, t)
                except (PositivityError, ConeDomainError):
                    alpha *= 0.5
                    continue
                cand_res = cand.residual()
                cand_norm = float(np.abs(cand_res).max())
                if cand_norm < rnorm or cand_norm < tol:
                    accepted = (trial, cand, cand_res, cand_norm)
                    break
                alpha *= 0.5
            if accepted is None:
                raise NewtonError("no admissible Newton step (cone exit or stall)",
                                  iterations=iters, residual=rnorm)
            x, state, res, rnorm = accepted
            iters += 1
        record = TRecord(t, True, iters, rnorm, float(state.margins.min()),
                         state.ellipticity())
        return (state.iterate if isinstance(initial, _Iterate) else x), record


def initial_guess(spec: BvpSpec) -> np.ndarray:
    """Family member matching the boundary value, sampled on the mesh.

    With a_init unset, the smaller of the two scales sharing the boundary
    value is chosen. A boundary value no family member attains is a
    configuration error.
    """
    with _FloatTraps():
        n, k = spec.n, spec.k
        if spec.a_init is not None:
            a = float(spec.a_init)
        else:
            # u_b = c (a / (1 + a^2 r_b^2))^m is a quadratic in a with discriminant
            # 1 - p^2, p = 2 r_b q, q = (u_b / c)^{1/m}; past the float range p is inf
            with np.errstate(over="ignore"):
                q = np.float64(spec.u_b / c_constant(n, k)) ** (2.0 / (n - 2.0))
                p = 2.0 * (spec.r_b * q)
                disc = 1.0 - p * p
            if not disc >= 0.0:
                raise ConfigError(
                    f"boundary value u_b={spec.u_b} exceeds every family member "
                    f"on a domain of radius {spec.r_b}")
            a = float(2.0 * q / (1.0 + math.sqrt(disc)))  # the small root, free of cancellation
        return _bubble_jets(n, k, a, 0.0, spec.mesh[:, None], 0)[0]


def continue_path(spec: BvpSpec) -> tuple[RadialProfile, ContinuationTrace]:
    """Walk t from the sigma_1-type endpoint to pure sigma_k with step control.

    Each converged solution seeds the next solve. The first step is
    spec.t_step. After a t-step whose solve converged in at most _FAST_ITERS
    Newton iterations the step doubles, capped at the distance to t = 1, so
    a first step of 1/40 visits t = 0, 1/40, 3/40, 7/40, 15/40, 31/40, 1. A
    failed solve halves the step towards the last good t, up to _MAX_BISECT
    times in a row; exhaustion raises PathError carrying the last good t.
    Returns the t = 1 profile and the full trace (failed attempts included).
    """
    with _FloatTraps():
        trace = ContinuationTrace()
        x = _Iterate(initial_guess(spec), spec)
        # Python floats, so "last good t" prints plainly; no solve has converged yet
        cur_t, tgt, step, depth = None, 0.0, float(spec.t_step), 0
        while cur_t != 1.0:
            try:
                x_new, rec = newton_solve(x, spec, tgt)
            except NewtonError as exc:
                trace.records.append(TRecord(tgt, False, exc.iterations or 0,
                                             exc.residual if exc.residual is not None
                                             else float("nan"),
                                             float("nan"), float("nan")))
                if cur_t is None:
                    raise PathError(f"no solution at the starting parameter t={tgt}",
                                    last_good_t=None, trace=trace) from exc
                depth += 1
                if depth > _MAX_BISECT:
                    raise PathError(
                        f"continuation stalled between t={cur_t} and t={tgt} "
                        f"after {_MAX_BISECT} bisections",
                        last_good_t=cur_t, trace=trace) from exc
                step = 0.5 * (tgt - cur_t)
                tgt = cur_t + step
                continue
            trace.records.append(rec)
            if cur_t is not None and rec.iters <= _FAST_ITERS:
                step *= 2.0
            x, cur_t, depth = x_new, tgt, 0
            tgt = 1.0 if cur_t + step > 1.0 - 1e-9 * step else cur_t + step  # no rounding sliver
        u = x.u
        du = np.empty_like(u)
        du[0] = 0.0
        du[1:-1] = x.nodes[2]  # the central difference the last solve used
        du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * spec.h)
        profile = RadialProfile(spec.mesh, u, du, spec.n, spec.k)
        return profile, trace
