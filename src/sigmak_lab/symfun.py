"""Elementary symmetric functions, their cones, and the interpolating operator family.

sigma(lam, k) is the k-th elementary symmetric function of the entries of
lam. Gamma_k is the open convex cone where sigma_1, ..., sigma_k are all
positive; it is the ellipticity domain of the sigma_k operator. The family

    f_t(lam) = sigma_k(t lam + (1 - t) sigma_1(lam) w),    t in [0, 1],

interpolates between a sigma_1-type operator at t = 0 and pure sigma_k at
t = 1. The mixing weight w is a positive vector summing to one (uniform by
default); its domain (Gamma_k)_t is the pullback of Gamma_k under the mix.

Everything here is a pure function of small dense vectors. sigma is
evaluated through the characteristic-polynomial recurrence

    e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m e_{k-1}(x_1..x_{m-1}),

which involves no divisions and stays well behaved next to cone boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConeDomainError

__all__ = [
    "ConeMembership",
    "OperatorSpec",
    "sigma",
    "sigma_gradient",
    "in_gamma_k",
    "homotopy_vector",
    "f_homotopy",
    "f_homotopy_gradient",
    "in_gamma_t",
    "check_ellipticity",
    "check_concavity",
]


class ConeMembership(NamedTuple):
    """Cone test outcome: the decision plus the margin min_j sigma_j.

    The margin is returned so solvers can backtrack against the cone
    boundary instead of reacting to a bare boolean.
    """

    inside: bool
    margin: float


def _as_lambda(values) -> np.ndarray:
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1:
        raise ValueError(f"eigenvalue vector must be 1-D, got shape {lam.shape}")
    if lam.size < 3:
        raise ValueError(f"eigenvalue vector needs dimension n >= 3, got {lam.size}")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue vector has non-finite entries")
    return lam


def _check_cone_index(k: int, n: int):
    if not isinstance(k, (int, np.integer)):
        raise ValueError(f"cone index must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise ValueError(f"cone index k={k} outside 1..{n}")


def _esym_all_batch(lams: np.ndarray) -> np.ndarray:
    """Row-wise e_0..e_n (e_0 = 1) for a (N, n) batch; returns shape (N, n+1)."""
    lams = np.asarray(lams, dtype=float)
    npts, n = lams.shape
    e = np.zeros((npts, n + 1))
    e[:, 0] = 1.0
    for m in range(1, n + 1):
        x = lams[:, m - 1]
        for j in range(m, 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e


def _cone_margin(e: np.ndarray, k: int):
    """Gamma_k margin min_{j=1..k} e_j from e_0..e_n along the last axis."""
    return e[..., 1:k + 1].min(axis=-1)


def _esym_gradient_batch(lams: np.ndarray, k: int) -> np.ndarray:
    """Row-wise gradient of e_k: entry i is e_{k-1} of the row with entry i removed.

    Prefix/suffix polynomial products, no divisions.
    """
    lams = np.asarray(lams, dtype=float)
    npts, n = lams.shape
    pref = np.zeros((n + 1, npts, k))
    pref[0, :, 0] = 1.0
    for i in range(1, n + 1):
        pref[i] = pref[i - 1]
        if k > 1:
            pref[i, :, 1:] += lams[:, i - 1, None] * pref[i - 1, :, :-1]
    suf = np.zeros((n + 1, npts, k))
    suf[n, :, 0] = 1.0
    for i in range(n - 1, -1, -1):
        suf[i] = suf[i + 1]
        if k > 1:
            suf[i, :, 1:] += lams[:, i, None] * suf[i + 1, :, :-1]
    grad = np.empty((npts, n))
    for i in range(n):
        grad[:, i] = np.einsum("nj,nj->n", pref[i], suf[i + 1][:, ::-1])
    return grad


def sigma(lam, k: int) -> float:
    """k-th elementary symmetric function of the entries of lam.

    sigma_0 is 1 by convention. Raises ValueError when k is outside
    0..len(lam) or the vector is malformed.
    """
    lam = _as_lambda(lam)
    n = lam.size
    if k == 0:
        return 1.0
    _check_cone_index(k, n)
    return float(_esym_all_batch(lam[None])[0, k])


def sigma_gradient(lam, k: int) -> np.ndarray:
    """Gradient of sigma_k: component i is sigma_{k-1} of lam with entry i deleted."""
    lam = _as_lambda(lam)
    n = lam.size
    _check_cone_index(k, n)
    return _esym_gradient_batch(lam[None, :], k)[0]


def in_gamma_k(lam, k: int) -> ConeMembership:
    """Test lam against Gamma_k: sigma_j(lam) > 0 for every j = 1..k.

    Gamma_k is the component of {sigma_k > 0} containing the positive cone;
    the sigma_1..sigma_k positivity characterization of that component is
    the criterion adopted throughout the package.
    """
    lam = _as_lambda(lam)
    _check_cone_index(k, lam.size)
    margin = float(_cone_margin(_esym_all_batch(lam[None])[0], k))
    return ConeMembership(margin > 0.0, margin)


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters of the interpolating operator family f_t.

    weight is the positive mixing vector (entries sum to one); the uniform
    default makes the isotropic ray a fixed point of the mix, so one family
    of model solutions serves every t.
    """

    n: int
    k: int
    t: float
    weight: np.ndarray | None = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"dimension n={self.n} must be >= 3")
        _check_cone_index(self.k, self.n)
        if not 0.0 <= self.t <= 1.0:
            raise ValueError(f"homotopy parameter t={self.t} outside [0, 1]")
        if self.weight is None:
            w = np.full(self.n, 1.0 / self.n)
        else:
            w = np.asarray(self.weight, dtype=float)
            if w.shape != (self.n,):
                raise ValueError(f"weight must have shape ({self.n},)")
            if np.any(w <= 0.0):
                raise ValueError("weight entries must be strictly positive")
            if abs(float(w.sum()) - 1.0) > 1e-12:
                raise ValueError("weight entries must sum to 1 within 1e-12")
        object.__setattr__(self, "weight", w)


def homotopy_vector(lam, spec: OperatorSpec) -> np.ndarray:
    """The mixed argument t*lam + (1-t)*sigma_1(lam)*weight."""
    lam = _as_lambda(lam)
    if lam.size != spec.n:
        raise ValueError(f"vector has dimension {lam.size}, spec expects {spec.n}")
    return spec.t * lam + (1.0 - spec.t) * float(lam.sum()) * spec.weight


def _mixed_esym(lam, spec: OperatorSpec, check_domain: bool):
    """The mixed vector and its e_0..e_n; with check_domain, ConeDomainError
    (carrying the margin) when lam lies outside (Gamma_k)_t."""
    mixed = homotopy_vector(lam, spec)
    e = _esym_all_batch(mixed[None])[0]
    if check_domain:
        margin = float(_cone_margin(e, spec.k))
        if margin <= 0.0:
            raise ConeDomainError(
                f"argument outside (Gamma_{spec.k})_t at t={spec.t}",
                margin=margin, where=np.asarray(lam, dtype=float))
    return mixed, e


def in_gamma_t(lam, spec: OperatorSpec) -> ConeMembership:
    """Membership of lam in (Gamma_k)_t, i.e. of the mixed vector in Gamma_k."""
    margin = float(_cone_margin(_mixed_esym(lam, spec, False)[1], spec.k))
    return ConeMembership(margin > 0.0, margin)


def f_homotopy(lam, spec: OperatorSpec, check_domain: bool = True) -> float:
    """Evaluate f_t(lam) = sigma_k of the mixed vector.

    At t = 1 this is sigma_k(lam) exactly; at t = 0 with the uniform weight
    it collapses to C(n,k) (sigma_1(lam)/n)^k. With check_domain the
    argument must lie in (Gamma_k)_t, otherwise ConeDomainError is raised
    with the violating margin attached.
    """
    return float(_mixed_esym(lam, spec, check_domain)[1][spec.k])


def f_homotopy_gradient(lam, spec: OperatorSpec, check_domain: bool = True) -> np.ndarray:
    """Gradient of f_t with respect to lam.

    Chain rule through the mix: d f_t / d lam_i = t g_i + (1-t) <g, w>,
    where g is the sigma_k gradient at the mixed vector.
    """
    mixed, _ = _mixed_esym(lam, spec, check_domain)
    g = _esym_gradient_batch(mixed[None, :], spec.k)[0]
    return spec.t * g + (1.0 - spec.t) * float(g @ spec.weight)


def check_ellipticity(spec: OperatorSpec, lam) -> float:
    """Smallest directional derivative of f_t at lam.

    A positive return value certifies ellipticity of the operator at this
    eigenvalue vector. Requires lam in (Gamma_k)_t.
    """
    member = in_gamma_t(lam, spec)
    if not member.inside:
        raise ConeDomainError(
            f"ellipticity queried outside (Gamma_{spec.k})_t",
            margin=member.margin, where=np.asarray(lam, dtype=float))
    return float(np.min(f_homotopy_gradient(lam, spec, check_domain=False)))


def check_concavity(k: int, lam, mu) -> bool:
    """Midpoint concavity of sigma_k^{1/k} on the segment [lam, mu] in Gamma_k.

    Verifies sigma_k^{1/k}((lam+mu)/2) >= (sigma_k^{1/k}(lam) + sigma_k^{1/k}(mu))/2 - 1e-12.
    Both endpoints must lie in Gamma_k.
    """
    lam = _as_lambda(lam)
    mu = _as_lambda(mu)
    if lam.size != mu.size:
        raise ValueError("endpoints have mismatched dimensions")
    for name, vec in (("lam", lam), ("mu", mu)):
        member = in_gamma_k(vec, k)
        if not member.inside:
            raise ConeDomainError(f"{name} outside Gamma_{k}",
                                  margin=member.margin, where=vec)
    root = 1.0 / k
    mid = sigma(0.5 * (lam + mu), k) ** root
    avg = 0.5 * (sigma(lam, k) ** root + sigma(mu, k) ** root)
    return bool(mid >= avg - 1e-12)
