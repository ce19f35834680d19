"""Radial Dirichlet solver for the interpolated operator family, with
continuation in the interpolation parameter.

The discrete problem lives on a uniform mesh over [0, R_b]: second-order
central differences for u' and u'' at interior nodes, a second-order
one-sided stencil enforcing u'(0) = 0, and a Dirichlet value at R_b. The
nonlinear system f_t(lambda(A(u))) = 1 is solved by damped Newton with an
analytically assembled Jacobian; the matrix is banded (one sub-diagonal,
two super-diagonals, the extra one coming from the u'(0) row) and is
factored with a banded LU.

Continuation marches t from 0 (a sigma_1-type equation) to 1 (pure
sigma_k), reusing each converged solution as the next initial guess and
bisecting the t-step on failure. Every accepted Newton iterate is kept
strictly inside (Gamma_k)_t with a positive ellipticity certificate; this
is checked at every step, never assumed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .bubbles import c_constant
from .errors import ConeDomainError, ConfigError, NewtonError, PathError, \
    PositivityError
from .radial import RadialProfile, _coeffs
from .symfun import OperatorSpec, _cone_margin, _esym_all_batch, _esym_gradient_batch

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


@dataclass(frozen=True)
class BvpSpec:
    """Discrete two-point problem: mesh, boundary data, and the t-path.

    m is the number of mesh intervals (m + 1 nodes). a_init selects which
    member of the closed-form family seeds the path; a given boundary
    value is shared by two members (a small-a and a large-a branch), so
    the intent cannot be inferred from u_b alone. use_kth_root switches
    the residual to the concave k-th-root form of the operator for
    conditioning comparisons.
    """

    n: int
    k: int
    r_b: float
    u_b: float
    m: int = 256
    t_path: np.ndarray | None = None
    use_kth_root: bool = False
    a_init: float | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ConfigError(f"dimension n={self.n} must be >= 3")
        if not 1 <= self.k <= self.n:
            raise ConfigError(f"cone index k={self.k} outside 1..{self.n}")
        if not self.r_b > 0.0:
            raise ConfigError(f"domain radius r_b={self.r_b} must be positive")
        if not self.u_b > 0.0:
            raise ConfigError(f"boundary value u_b={self.u_b} must be positive")
        if self.m < 16:
            raise ConfigError(f"mesh size m={self.m} must be >= 16")
        path = np.linspace(0.0, 1.0, 11) if self.t_path is None \
            else np.asarray(self.t_path, dtype=float)
        if path.size < 2 or path[0] != 0.0 or path[-1] != 1.0 \
                or np.any(np.diff(path) <= 0.0):
            raise ConfigError("t_path must increase strictly from 0 to 1")
        object.__setattr__(self, "t_path", path)

    @property
    def mesh(self) -> np.ndarray:
        return np.linspace(0.0, self.r_b, self.m + 1)

    @property
    def h(self) -> float:
        return self.r_b / self.m

    def operator(self, t: float) -> OperatorSpec:
        return OperatorSpec(self.n, self.k, t)


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
        payload = [{"t": r.t, "converged": r.converged, "iters": r.iters,
                    "residual": r.residual, "cone_margin": r.cone_margin,
                    "ellipticity": r.ellipticity} for r in self.records]
        return json.dumps(payload, indent=2) + "\n"


def _values_from(initial) -> np.ndarray:
    if isinstance(initial, RadialProfile):
        return np.array(initial.u, dtype=float)
    return np.array(initial, dtype=float)


class _NodeState:
    """Interior-node quantities shared by residual and Jacobian assembly."""

    def __init__(self, u: np.ndarray, spec: BvpSpec, t: float):
        n, k, h = spec.n, spec.k, spec.h
        if u.shape != (spec.m + 1,):
            raise ValueError(f"state vector must have {spec.m + 1} nodes")
        if np.any(u <= 0.0):
            bad = int(np.argmin(u))
            raise PositivityError(f"nonpositive node value u[{bad}]={u[bad]}",
                                  where=bad, value=float(u[bad]))
        op = spec.operator(t)
        r = spec.mesh[1:-1]
        ui = u[1:-1]
        up = (u[2:] - u[:-2]) / (2.0 * h)
        # difference of first differences: rounding ~ eps |u'| / h instead of
        # eps |u| / h^2, which would put the 1e-10 residual target out of
        # reach on fine meshes once u^{-(n+2)/(n-2)} amplifies it
        upp = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / h ** 2
        b, d, e1, e2 = _coeffs(n)
        q1 = ui ** e1
        q2 = ui ** e2
        lam_tan = -b * q1 * up / r - d * q2 * up ** 2
        lam_rad = -b * q1 * upp + (n - 1.0) * d * q2 * up ** 2
        lam = np.empty((r.size, n))
        lam[:, 0] = lam_rad
        lam[:, 1:] = lam_tan[:, None]
        w = op.weight
        mixed = t * lam + (1.0 - t) * lam.sum(axis=1)[:, None] * w[None, :]
        e = _esym_all_batch(mixed)
        self.spec, self.t, self.op = spec, t, op
        self.u, self.r, self.ui, self.up, self.upp = u, r, ui, up, upp
        self.q1, self.q2, self.lam_tan, self.lam_rad = q1, q2, lam_tan, lam_rad
        self.mixed, self.esym = mixed, e
        self.f = e[:, k].copy()
        self.margins = _cone_margin(e, k)

    def residual(self) -> np.ndarray:
        spec, h = self.spec, self.spec.h
        u = self.u
        res = np.empty(spec.m + 1)
        # 4(u1-u0) - (u2-u0) = -3u0 + 4u1 - u2, assembled from small differences
        res[0] = (4.0 * (u[1] - u[0]) - (u[2] - u[0])) / (2.0 * h)
        if spec.use_kth_root:
            res[1:-1] = np.sign(self.f) * np.abs(self.f) ** (1.0 / spec.k) - 1.0
        else:
            res[1:-1] = self.f - 1.0
        res[-1] = u[-1] - spec.u_b
        return res

    def df_dlam(self) -> np.ndarray:
        """Row-wise gradient of f_t w.r.t. the eigenvalue vector."""
        op = self.op
        g = _esym_gradient_batch(self.mixed, op.k)
        return op.t * g + (1.0 - op.t) * (g @ op.weight)[:, None]

    def ellipticity(self) -> float:
        return float(self.df_dlam().min())

    def jacobian_banded(self) -> np.ndarray:
        spec = self.spec
        n, k, h = spec.n, spec.k, spec.h
        b, d, e1, e2 = _coeffs(n)
        ui, up, upp, r = self.ui, self.up, self.upp, self.r
        q1, q2 = self.q1, self.q2
        dq1 = e1 * ui ** (e1 - 1.0)
        dq2 = e2 * ui ** (e2 - 1.0)
        dlt_du = -b * dq1 * up / r - d * dq2 * up ** 2
        dlt_dp = -b * q1 / r - 2.0 * d * q2 * up
        dlr_du = -b * dq1 * upp + (n - 1.0) * d * dq2 * up ** 2
        dlr_dp = 2.0 * (n - 1.0) * d * q2 * up
        dlr_ds = -b * q1
        dfl = self.df_dlam()
        f_rad = dfl[:, 0]
        f_tan = dfl[:, 1:].sum(axis=1)
        du_ = f_rad * dlr_du + f_tan * dlt_du
        dp_ = f_rad * dlr_dp + f_tan * dlt_dp
        ds_ = f_rad * dlr_ds
        if spec.use_kth_root:
            scale = (1.0 / k) * self.f ** (1.0 / k - 1.0)
            du_, dp_, ds_ = scale * du_, scale * dp_, scale * ds_
        lower = -dp_ / (2.0 * h) + ds_ / h ** 2
        diag = du_ - 2.0 * ds_ / h ** 2
        upper = dp_ / (2.0 * h) + ds_ / h ** 2
        m = spec.m
        ab = np.zeros((4, m + 1))
        ab[2, 0] = -1.5 / h
        ab[1, 1] = 2.0 / h
        ab[0, 2] = -0.5 / h
        ab[3, 0:m - 1] = lower
        ab[2, 1:m] = diag
        ab[1, 2:m + 1] = upper
        ab[2, m] = 1.0
        return ab

    def jacobian_dense(self) -> np.ndarray:
        ab = self.jacobian_banded()
        m = self.spec.m
        jac = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in range(max(0, i - 1), min(m + 1, i + 3)):
                jac[i, j] = ab[2 + i - j, j]
        return jac


def _attainable_residual(ab: np.ndarray, u: np.ndarray) -> float:
    """Resolution floor of the discrete residual at the float lattice of u.

    Perturbing any node by one ulp moves residual row i by about
    eps sum_j |J_ij| |u_j|; below twice the largest such row no float
    vector can be distinguished from an exact root.
    """
    au = np.abs(u)
    s = np.abs(ab[2]) * au
    s[1:] += np.abs(ab[3, :-1]) * au[:-1]
    s[:-1] += np.abs(ab[1, 1:]) * au[1:]
    s[:-2] += np.abs(ab[0, 2:]) * au[2:]
    return 2.0 * float(np.finfo(float).eps) * float(s.max())


def assemble_residual(initial, spec: BvpSpec, t: float) -> np.ndarray:
    """Discrete residual of a nodal state: u'(0) row, interior equation rows,
    boundary row. Raises ConeDomainError when a node leaves (Gamma_k)_t."""
    state = _NodeState(_values_from(initial), spec, t)
    worst = float(state.margins.min())
    if worst <= 0.0:
        node = int(np.argmin(state.margins)) + 1
        raise ConeDomainError(f"node {node} left (Gamma_{spec.k})_t at t={t}",
                              margin=worst, where=node)
    return state.residual()


def assemble_jacobian(initial, spec: BvpSpec, t: float) -> np.ndarray:
    """Dense Jacobian of the discrete residual (for verification)."""
    state = _NodeState(_values_from(initial), spec, t)
    if float(state.margins.min()) <= 0.0:
        raise ConeDomainError(f"state outside (Gamma_{spec.k})_t",
                              margin=float(state.margins.min()))
    return state.jacobian_dense()


def newton_solve(initial, spec: BvpSpec, t: float) -> tuple[np.ndarray, TRecord]:
    """Damped Newton for the discrete problem at fixed t.

    The line search halves the step on positivity loss, cone-margin loss,
    or a non-decreasing residual norm. Converges when the residual
    infinity norm drops below _NEWTON_TOL, or below the float-lattice
    resolution of the residual (on fine meshes the 1/h^2 stencil amplifies
    one ulp of u past any fixed tolerance; see _attainable_residual).
    Raises NewtonError on an inadmissible initial state, a singular
    Jacobian, a stalled line search, or iteration exhaustion.
    """
    x = _values_from(initial)
    try:
        state = _NodeState(x, spec, t)
    except PositivityError as exc:
        raise NewtonError(f"inadmissible initial state: {exc}") from exc
    if float(state.margins.min()) <= 0.0:
        raise NewtonError("inadmissible initial state: cone margin "
                          f"{float(state.margins.min()):.3e} not positive")
    if state.ellipticity() <= 0.0:
        raise NewtonError("inadmissible initial state: no ellipticity certificate")

    res = state.residual()
    rnorm = float(np.abs(res).max())
    iters = 0
    while True:
        ab = state.jacobian_banded()
        tol = max(_NEWTON_TOL, _attainable_residual(ab, x))
        if rnorm < tol:
            break
        if iters >= _MAX_NEWTON_ITER:
            raise NewtonError(f"Newton did not converge in {_MAX_NEWTON_ITER} "
                              f"iterations (residual {rnorm:.3e})",
                              iterations=iters, residual=rnorm)
        try:
            step = scipy.linalg.solve_banded((1, 2), ab, -res)
        except np.linalg.LinAlgError as exc:
            raise NewtonError("singular Jacobian", iterations=iters,
                              residual=rnorm) from exc
        if not np.all(np.isfinite(step)):
            raise NewtonError("singular Jacobian (non-finite step)",
                              iterations=iters, residual=rnorm)
        alpha = 1.0
        accepted = None
        while alpha >= 2.0 ** -30:
            trial = x + alpha * step
            try:
                cand = _NodeState(trial, spec, t)
            except PositivityError:
                alpha *= 0.5
                continue
            if float(cand.margins.min()) <= 0.0:
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
    return x, record


def initial_guess(spec: BvpSpec) -> np.ndarray:
    """Family member matching the boundary value, sampled on the mesh.

    With a_init unset, the smaller of the two scales sharing the boundary
    value is chosen. A boundary value no family member attains is a
    configuration error.
    """
    n, k = spec.n, spec.k
    if spec.a_init is not None:
        a = float(spec.a_init)
    else:
        c = c_constant(n, k)
        q = (spec.u_b / c) ** (2.0 / (n - 2.0))
        disc = 1.0 - 4.0 * spec.r_b ** 2 * q * q
        if disc < 0.0:
            raise ConfigError(
                f"boundary value u_b={spec.u_b} exceeds every family member "
                f"on a domain of radius {spec.r_b}")
        a = (1.0 - math.sqrt(disc)) / (2.0 * spec.r_b ** 2 * q)
    m_exp = (n - 2.0) / 2.0
    r = spec.mesh
    return c_constant(n, k) * (a / (1.0 + a * a * r * r)) ** m_exp


def continue_path(spec: BvpSpec) -> tuple[RadialProfile, ContinuationTrace]:
    """March the t-path from the sigma_1-type endpoint to pure sigma_k.

    Each converged solution seeds the next solve. A failed solve bisects
    the current t-step, up to _MAX_BISECT times; exhaustion raises
    PathError carrying the last good t. Returns the t = 1 profile and the
    full trace (failed attempts included).
    """
    trace = ContinuationTrace()
    x = initial_guess(spec)
    path = list(spec.t_path)
    cur_t = path[0]
    try:
        x, rec = newton_solve(x, spec, cur_t)
        trace.records.append(rec)
    except NewtonError as exc:
        trace.records.append(TRecord(cur_t, False, exc.iterations or 0,
                                     exc.residual if exc.residual is not None
                                     else float("nan"), float("nan"), float("nan")))
        raise PathError(f"no solution at the starting parameter t={cur_t}",
                        last_good_t=None, trace=trace) from exc
    targets = path[1:]
    depth = 0
    while targets:
        tgt = targets[0]
        try:
            x_new, rec = newton_solve(x, spec, tgt)
        except NewtonError as exc:
            trace.records.append(TRecord(tgt, False, exc.iterations or 0,
                                         exc.residual if exc.residual is not None
                                         else float("nan"),
                                         float("nan"), float("nan")))
            depth += 1
            if depth > _MAX_BISECT:
                raise PathError(
                    f"continuation stalled between t={cur_t} and t={tgt} "
                    f"after {_MAX_BISECT} bisections",
                    last_good_t=cur_t, trace=trace) from exc
            targets.insert(0, 0.5 * (cur_t + tgt))
            continue
        x = x_new
        cur_t = tgt
        targets.pop(0)
        depth = 0
        trace.records.append(rec)
    h = spec.h
    du = np.empty_like(x)
    du[0] = 0.0
    du[1:-1] = (x[2:] - x[:-2]) / (2.0 * h)
    du[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * h)
    profile = RadialProfile(spec.mesh, x, du, spec.n, spec.k)
    return profile, trace
