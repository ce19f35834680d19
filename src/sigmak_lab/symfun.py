"""Elementary symmetric functions, their cones, and the interpolating operator family.

sigma(lam, k) is the k-th elementary symmetric function of the entries of
lam. Gamma_k is the open convex cone where sigma_1, ..., sigma_k are all
positive; it is the ellipticity domain of the sigma_k operator. The family

    f_t(lam) = sigma_k(t lam + (1 - t) sigma_1(lam) w),    t in [0, 1],

interpolates between a sigma_1-type operator at t = 0 and pure sigma_k at
t = 1. The mixing weight w is the uniform vector (1/n, ..., 1/n), which
makes the isotropic ray a fixed point of the mix, so one family of model
solutions serves every t. The domain (Gamma_k)_t of f_t is the pullback of
Gamma_k under the mix.

Everything here is a pure function of small dense vectors. sigma is
evaluated through the characteristic-polynomial recurrence

    e_k(x_1..x_m) = e_k(x_1..x_{m-1}) + x_m e_{k-1}(x_1..x_{m-1}),

which involves no divisions and stays well behaved next to cone boundaries.
The workflows run only the batch form (`_esym_all_batch`, `_cone_margin`); the
per-vector functions and `OperatorSpec` are the tests' oracles for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConeDomainError, ConfigError, check_count, check_nk

__all__ = [
    "ConeMembership",
    "OperatorSpec",
    "sigma",
    "in_gamma_k",
    "homotopy_vector",
    "f_homotopy",
    "f_homotopy_gradient",
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
        raise ConfigError(f"eigenvalue vector must be 1-D, got shape {lam.shape}")
    check_nk(lam.size, 1)
    if not np.all(np.isfinite(lam)):
        raise ConfigError("eigenvalue vector has non-finite entries")
    return lam


def _esym_all_batch(lams: np.ndarray) -> np.ndarray:
    """Row-wise e_0..e_n (e_0 = 1) for a (N, n) batch; returns shape (N, n+1),
    a transposed view of the (n+1, N) buffer that one slice update per entry
    fills: e_j += lam_m e_{j-1} for all j at once, from the old e_{j-1}."""
    lams = np.asarray(lams, dtype=float)
    npts, n = lams.shape
    e = np.zeros((n + 1, npts))
    e[0] = 1.0
    for m in range(1, n + 1):
        e[1:m + 1] += lams[:, m - 1] * e[:m]
    return e.T


def _cone_margin(e: np.ndarray, k: int):
    """Gamma_k margin min_{j=1..k} e_j from e_0..e_n along the last axis."""
    return e[..., 1:k + 1].min(axis=-1)


def _esym_gradient_batch(lams: np.ndarray, k: int) -> np.ndarray:
    """Row-wise gradient of e_k: entry i is e_{k-1} of the row with entry i
    removed, from `_esym_all_batch` over the n deleted rows; no divisions."""
    lams = np.asarray(lams, dtype=float)
    npts, n = lams.shape
    deleted = lams[:, (np.arange(1, n) + np.arange(n)[:, None]) % n]
    return _esym_all_batch(deleted.reshape(-1, n - 1))[:, k - 1].reshape(npts, n)


def sigma(lam, k: int) -> float:
    """k-th elementary symmetric function of the entries of lam.

    sigma_0 is 1 by convention. Raises ConfigError when k is not an integer
    (a bool is not) in 0..len(lam), ValueError when the vector is malformed.
    """
    lam = _as_lambda(lam)
    check_count("cone index k", k, 0, lam.size)
    return float(_esym_all_batch(lam[None])[0, k])


def in_gamma_k(lam, k: int) -> ConeMembership:
    """Test lam against Gamma_k: sigma_j(lam) > 0 for every j = 1..k.

    Gamma_k is the component of {sigma_k > 0} containing the positive cone;
    the sigma_1..sigma_k positivity characterization of that component is
    the criterion adopted throughout the package.
    """
    lam = _as_lambda(lam)
    check_nk(lam.size, k)
    margin = float(_cone_margin(_esym_all_batch(lam[None])[0], k))
    return ConeMembership(margin > 0.0, margin)


@dataclass(frozen=True)
class OperatorSpec:
    """Parameters (n, k, t) of the interpolating operator family f_t."""

    n: int
    k: int
    t: float

    def __post_init__(self):
        check_nk(self.n, self.k)
        if not 0.0 <= self.t <= 1.0:
            raise ConfigError(f"homotopy parameter t={self.t} outside [0, 1]")


def _uniform_mix(lams: np.ndarray, t: float) -> np.ndarray:
    """t*lam + (1-t)*sigma_1(lam)/n for a vector (n,) or each row of (N, n)."""
    n = lams.shape[-1]
    return t * lams + ((1.0 - t) * lams.sum(axis=-1) * (1.0 / n))[..., None]


def _uniform_chain(g: np.ndarray, t: float) -> np.ndarray:
    """Gradient t g_i + (1-t) <g, w> of f_t, w the uniform vector, from the
    sigma_k gradient g at the mixed vector (n,) or at each row of (N, n)."""
    n = g.shape[-1]
    return t * g + (1.0 - t) * (g @ np.full(n, 1.0 / n))[..., None]


def homotopy_vector(lam, spec: OperatorSpec) -> np.ndarray:
    """The mixed argument t*lam + (1-t)*sigma_1(lam)/n."""
    lam = _as_lambda(lam)
    if lam.size != spec.n:
        raise ConfigError(f"vector has dimension {lam.size}, spec expects {spec.n}")
    return _uniform_mix(lam, spec.t)


def _mixed_esym(lam, spec: OperatorSpec):
    """The mixed vector and its e_0..e_n; ConeDomainError (carrying the
    margin) when lam lies outside (Gamma_k)_t, the domain of f_t."""
    mixed = homotopy_vector(lam, spec)
    e = _esym_all_batch(mixed[None])[0]
    margin = float(_cone_margin(e, spec.k))
    if margin <= 0.0:
        raise ConeDomainError(f"argument outside (Gamma_{spec.k})_t at t={spec.t}",
                              margin=margin, where=np.asarray(lam, dtype=float))
    return mixed, e


def f_homotopy(lam, spec: OperatorSpec) -> float:
    """Evaluate f_t(lam) = sigma_k of the mixed vector, on (Gamma_k)_t only.

    At t = 1 this is sigma_k(lam) exactly; at t = 0 it collapses to
    C(n,k) (sigma_1(lam)/n)^k. Outside (Gamma_k)_t ConeDomainError is
    raised with the violating margin attached.
    """
    return float(_mixed_esym(lam, spec)[1][spec.k])


def f_homotopy_gradient(lam, spec: OperatorSpec) -> np.ndarray:
    """Gradient of f_t with respect to lam, on (Gamma_k)_t only.

    Chain rule through the mix: d f_t / d lam_i = t g_i + (1-t) <g, w>,
    where g is the sigma_k gradient at the mixed vector and w the uniform
    weight. Outside (Gamma_k)_t ConeDomainError carries the margin.
    """
    mixed, _ = _mixed_esym(lam, spec)
    return _uniform_chain(_esym_gradient_batch(mixed[None, :], spec.k)[0], spec.t)
