"""Conformal geometry over a flat background, evaluated on batches of points.

The central object is the symmetric matrix built from the 2-jet of a
positive factor u on R^n (n >= 3):

    A(u) = -2/(n-2) u^{-(n+2)/(n-2)} Hess(u)
           + 2n/(n-2)^2 u^{-2n/(n-2)} grad(u) x grad(u)
           - 2/(n-2)^2 u^{-2n/(n-2)} |grad(u)|^2 I.

Its eigenvalue vector feeds the symmetric-function machinery in `symfun`.
Mobius transformations of R^n (words in translations, rotations, dilations
and the unit inversion) act on fields through

    u_psi = |J_psi|^{(n-2)/(2n)} (u o psi),

and the spectrum of A is equivariant under that action: the eigenvalues of
A(u_psi) at x equal those of A(u) at psi(x). Jets of transformed fields are
propagated analytically, one chain-rule step per generator; finite
differences appear only in tests.

Every evaluation runs on a stack of N points at once (`ScalarField.jets`,
`MobiusMap._walk`, `_schouten_batch`); the per-point calls are its N = 1
case.

The Kelvin transform (pure inversion word) encodes behavior at infinity as
behavior at the origin; `kelvin_regularity_probe` collects numerical
evidence for whether a field's Kelvin image extends nicely, without
pretending a finite sample can decide C^2 extendability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .errors import DomainError, PoleError, PositivityError
from .halton import sphere_directions

__all__ = [
    "Jet2",
    "MetricTerms",
    "Translation",
    "Rotation",
    "Dilation",
    "Inversion",
    "MobiusMap",
    "Domain",
    "ScalarField",
    "KelvinProbeReport",
    "schouten_flat",
    "schouten_spectrum",
    "schouten_conformal_change",
    "eigenvalues_wrt",
    "random_mobius_map",
    "random_mobius_map_avoiding",
    "transform_field",
    "kelvin_transform",
    "kelvin_regularity_probe",
    "constant_field",
]


# ---------------------------------------------------------------------------
# jets and the flat Schouten matrix
# ---------------------------------------------------------------------------

def _checked_jets(points, u, grad, hess):
    """Validate a stack of N 2-jets and return (u, grad, symmetrized hess).

    Shapes must be (N, n), (N,), (N, n) and (N, n, n); u must be positive
    and every hessian symmetric to 1e-12 relative. Errors name the first
    offending point.
    """
    points = np.asarray(points, dtype=float)
    u = np.asarray(u, dtype=float)
    grad = np.asarray(grad, dtype=float)
    hess = np.asarray(hess, dtype=float)
    npts, n = points.shape
    if u.shape != (npts,) or grad.shape != (npts, n) or hess.shape != (npts, n, n):
        raise ValueError("jet component shapes do not match the point dimension")
    bad = np.flatnonzero(~(u > 0.0))
    if bad.size:
        i = bad[0]
        raise PositivityError(f"jet value u={u[i]} is not positive at {points[i]}",
                              where=points[i], value=u[i])
    hess_t = hess.swapaxes(1, 2)
    asym = np.abs(hess - hess_t).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(hess).max(axis=(1, 2), initial=0.0))
    bad = np.flatnonzero(asym > 1e-12 * scale)
    if bad.size:
        i = bad[0]
        raise ValueError(f"hessian asymmetry {asym[i]:.3e} exceeds tolerance "
                         f"at {points[i]}")
    return u, grad, 0.5 * (hess + hess_t)


@dataclass
class Jet2:
    """Pointwise 2-jet (u, grad u, hess u) of a positive scalar field."""

    point: np.ndarray
    u: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self):
        self.point = np.asarray(self.point, dtype=float)
        _, grad, hess = _checked_jets(self.point[None], [self.u],
                                      np.asarray(self.grad)[None],
                                      np.asarray(self.hess)[None])
        self.grad, self.hess = grad[0], hess[0]


def _schouten_batch(u, g, h) -> np.ndarray:
    """Flat Schouten matrices A(u) of N 2-jets, shape (N, n, n).

    The jets must have passed `_checked_jets`. Each result is exactly
    symmetric: every term is assembled from the symmetrized hessian, an
    outer product, and a multiple of the identity.
    """
    n = g.shape[1]
    if n < 3:
        raise ValueError(f"dimension n={n} must be >= 3")
    q1 = u ** (-(n + 2.0) / (n - 2.0))
    q2 = u ** (-2.0 * n / (n - 2.0))
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    gg = np.einsum("ij,ij->i", g, g)
    return (-c1 * q1)[:, None, None] * h \
        + (c2 * q2)[:, None, None] * (g[:, :, None] * g[:, None, :]) \
        - (c3 * q2 * gg)[:, None, None] * np.eye(n)


def schouten_flat(jet: Jet2, n: int | None = None) -> np.ndarray:
    """Schouten-type matrix A(u) of a 2-jet over the flat background."""
    if n is not None and n != jet.point.size:
        raise ValueError(f"dimension tag {n} does not match the jet point")
    if not jet.u > 0.0:
        raise PositivityError("schouten_flat requires u > 0", where=jet.point, value=jet.u)
    return _schouten_batch(np.array([jet.u], dtype=float), jet.grad[None],
                           jet.hess[None])[0]


def schouten_spectrum(jet: Jet2, n: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the flat Schouten matrix at a jet."""
    return np.linalg.eigvalsh(schouten_flat(jet, n))


@dataclass
class MetricTerms:
    """Covariant data of u in a background metric g0.

    grad and hess are the gradient and covariant hessian of u, grad_norm2
    is |grad u|^2 measured in g0, metric is the matrix of g0 itself.
    """

    grad: np.ndarray
    hess: np.ndarray
    grad_norm2: float
    metric: np.ndarray


def schouten_conformal_change(jet: Jet2, background: np.ndarray,
                              metric_terms: MetricTerms | None = None) -> np.ndarray:
    """Schouten matrix of the metric u^{4/(n-2)} g0 from the one of g0.

    background is the Schouten matrix of g0 at the point. When
    metric_terms is omitted, g0 is taken to be the flat metric and the
    covariant derivatives come straight from the jet. In that flat case
    with background zero, the result equals u^{4/(n-2)} times the matrix
    from schouten_flat.
    """
    n = jet.point.size
    if n < 3:
        raise ValueError(f"dimension n={n} must be >= 3")
    if not jet.u > 0.0:
        raise PositivityError("conformal change requires u > 0",
                              where=jet.point, value=jet.u)
    if metric_terms is None:
        metric_terms = MetricTerms(jet.grad, jet.hess,
                                   float(jet.grad @ jet.grad), np.eye(n))
    bg = np.asarray(background, dtype=float)
    g0 = np.asarray(metric_terms.metric, dtype=float)
    hess = np.asarray(metric_terms.hess, dtype=float)
    grad = np.asarray(metric_terms.grad, dtype=float)
    for name, m in (("background", bg), ("metric", g0), ("hessian", hess)):
        if m.shape != (n, n):
            raise ValueError(f"{name} must be {n}x{n}")
        if float(np.max(np.abs(m - m.T))) > 1e-12 * max(1.0, float(np.max(np.abs(m)))):
            raise ValueError(f"{name} matrix is not symmetric")
    u = jet.u
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    return (-c1 / u) * hess + (c2 / u ** 2) * np.outer(grad, grad) \
        - (c3 / u ** 2 * metric_terms.grad_norm2) * g0 + bg


def eigenvalues_wrt(matrix: np.ndarray, metric: np.ndarray | None = None) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, optionally w.r.t. a metric.

    With a metric g this solves the pencil A v = lam g v, i.e. the
    index-raised eigenvalues of the (0,2)-tensor A.
    """
    a = np.asarray(matrix, dtype=float)
    if metric is None:
        return np.linalg.eigvalsh(a)
    g = np.asarray(metric, dtype=float)
    return scipy.linalg.eigh(a, g, eigvals_only=True)


# ---------------------------------------------------------------------------
# Mobius words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Translation:
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))


@dataclass(frozen=True)
class Rotation:
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ValueError("rotation matrix must be square")
        if float(np.max(np.abs(mat.T @ mat - np.eye(n)))) > 1e-12:
            raise ValueError("rotation matrix is not orthogonal to 1e-12")
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class Dilation:
    s: float

    def __post_init__(self):
        if not self.s > 0.0:
            raise ValueError(f"dilation scale must be positive, got {self.s}")


@dataclass(frozen=True)
class Inversion:
    """x -> x / |x|^2, the unit-sphere inversion."""


_Atom = Translation | Rotation | Dilation | Inversion


@dataclass(frozen=True)
class _TransportState:
    """Jet of a word at N points: image points and log |Jacobian|, and at
    order 2 also the first/second derivatives of both w.r.t. the original
    coordinates. MobiusMap.jet returns the one-point slice, without the
    leading axis."""

    y: np.ndarray
    log_det: np.ndarray
    jac: np.ndarray | None = None
    hess: np.ndarray | None = None       # hess[..., i, j, k] = d^2 y_i / dx_j dx_k
    grad_log_det: np.ndarray | None = None
    hess_log_det: np.ndarray | None = None


@dataclass(frozen=True)
class MobiusMap:
    """A Mobius transformation as a word of generators, applied left to right."""

    word: tuple

    def __post_init__(self):
        word = tuple(self.word)
        for atom in word:
            if not isinstance(atom, (Translation, Rotation, Dilation, Inversion)):
                raise ValueError(f"unsupported atom {atom!r}")
        object.__setattr__(self, "word", word)

    def _walk(self, X, order: int = 0) -> _TransportState:
        """Carry the rows of X (N, n) through the word.

        order=0 tracks the image points and log |det J|; order=2 adds the
        Jacobian, the second derivatives of the word and the gradient and
        hessian of log |det J|, as needed to chain-rule a 2-jet.
        """
        if order not in (0, 2):
            raise ValueError(f"transport order must be 0 or 2, got {order}")
        y = np.array(X, dtype=float)
        npts, n = y.shape
        log_det = np.zeros(npts)
        if order:
            jac = np.tile(np.eye(n), (npts, 1, 1))
            hess = np.zeros((npts, n, n, n))
            gld = np.zeros((npts, n))
            hld = np.zeros((npts, n, n))
        for atom in self.word:
            if isinstance(atom, Translation):
                y = y + atom.b
            elif isinstance(atom, Rotation):
                y = y @ atom.mat.T
                if order:
                    jac = atom.mat @ jac
                    hess = np.einsum("ia,najk->nijk", atom.mat, hess)
            elif isinstance(atom, Dilation):
                y = atom.s * y
                log_det += n * math.log(atom.s)
                if order:
                    jac = atom.s * jac
                    hess = atom.s * hess
            else:
                r2 = np.einsum("ij,ij->i", y, y)
                if np.any(r2 == 0.0):
                    raise PoleError("mobius word hit an inversion pole")
                log_det -= n * np.log(r2)
                if order:
                    # with q = 1/r2, w = J^T y, M = J^T J and Y = y . d^2y
                    # (J, d^2y of the partial word), the chain rule through
                    # the inversion gives, in this order:
                    #   grad log|det| += -2n q w
                    #   hess log|det| += -2n q (M + Y - 2q w w^T)
                    #   d^2y_ijk <- q (d^2y_ijk + 8q^2 y_i w_j w_k
                    #                  - 2q (y_i (Y + M)_jk + J_ij w_k + w_j J_ik))
                    #   J <- q (J - 2q y w^T)
                    q = 1.0 / r2
                    q1, q2, q3 = q[:, None], q[:, None, None], q[:, None, None, None]
                    w = np.einsum("na,naj->nj", y, jac)
                    big_y = np.einsum("na,najk->njk", y, hess)
                    jtj = np.einsum("naj,nak->njk", jac, jac)
                    ww = w[:, :, None] * w[:, None, :]
                    gld = gld - (2.0 * n) * q1 * w
                    hld = hld - (2.0 * n) * q2 * (jtj + big_y - 2.0 * q2 * ww)
                    hess = q3 * (
                        hess + 8.0 * q3 * q3 * y[:, :, None, None] * ww[:, None]
                        - 2.0 * q3 * (y[:, :, None, None] * (big_y + jtj)[:, None]
                                      + jac[:, :, :, None] * w[:, None, None, :]
                                      + w[:, None, :, None] * jac[:, :, None, :]))
                    jac = q2 * (jac - 2.0 * q2 * y[:, :, None] * w[:, None, :])
                y = y / r2[:, None]
        if not order:
            return _TransportState(y, log_det)
        return _TransportState(y, log_det, jac, hess, gld, hld)

    # -- the action at a point or on the rows of a batch -------------------

    def apply(self, x) -> np.ndarray:
        """Image of a point (n,), or of each row of a batch (N, n)."""
        x = np.asarray(x, dtype=float)
        return self._walk(np.atleast_2d(x)).y.reshape(x.shape)

    def jacobian_det(self, x):
        """|det J| at a point (a float), or at each row of a batch (N, n)."""
        x = np.asarray(x, dtype=float)
        det = np.exp(self._walk(np.atleast_2d(x)).log_det)
        return float(det[0]) if x.ndim == 1 else det

    def jet(self, x) -> _TransportState:
        """Image point with all derivatives needed to chain-rule a 2-jet."""
        st = self._walk(np.asarray(x, dtype=float)[None], 2)
        return _TransportState(*(field[0] for field in vars(st).values()))

    def jacobian(self, x) -> np.ndarray:
        """Jacobian matrix of the word at x."""
        return self.jet(x).jac

    # -- group structure ---------------------------------------------------

    def then(self, other: "MobiusMap") -> "MobiusMap":
        """The composite map applying self first, then other."""
        return MobiusMap(self.word + other.word)

    def inverse(self) -> "MobiusMap":
        inv = []
        for atom in reversed(self.word):
            if isinstance(atom, Translation):
                inv.append(Translation(-atom.b))
            elif isinstance(atom, Rotation):
                inv.append(Rotation(atom.mat.T))
            elif isinstance(atom, Dilation):
                inv.append(Dilation(1.0 / atom.s))
            else:
                inv.append(Inversion())
        return MobiusMap(tuple(inv))

    def poles(self, n: int) -> list[np.ndarray]:
        """Finite points where the word passes through infinity."""
        out = []
        origin = np.zeros(n)
        for j, atom in enumerate(self.word):
            if isinstance(atom, Inversion):
                prefix = MobiusMap(self.word[:j])
                try:
                    out.append(prefix.inverse().apply(origin))
                except PoleError:
                    # preimage of the pole is the point at infinity
                    continue
        return out


def random_mobius_map(rng: np.random.Generator, n: int, n_atoms: int = 3) -> MobiusMap:
    """Draw a random word of n_atoms generators: each is an inversion with
    probability 0.35, a standard normal translation or a log-uniform
    dilation in [1/2, 2] with 0.25 each, and otherwise a random rotation."""
    atoms = []
    for _ in range(n_atoms):
        u = rng.uniform()
        if u < 0.35:
            atoms.append(Inversion())
        elif u < 0.35 + 0.25:
            atoms.append(Translation(rng.normal(size=n)))
        elif u < 0.35 + 0.5:
            atoms.append(Dilation(float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))))
        else:
            q, r = np.linalg.qr(rng.normal(size=(n, n)))
            q = q * np.sign(np.diag(r))
            atoms.append(Rotation(q))
    return MobiusMap(tuple(atoms))


def random_mobius_map_avoiding(rng: np.random.Generator, n: int, points,
                               clearance: float) -> MobiusMap:
    """Draw random words (default parameters) until one has every pole
    farther than clearance from every row of points; return that word."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    while True:
        psi = random_mobius_map(rng, n)
        if all(float(np.min(np.linalg.norm(points - p, axis=1))) > clearance
               for p in psi.poles(n)):
            return psi


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """Where a field is defined: all of R^n, a ball, an annulus, or an exterior."""

    kind: str = "rn"
    center: np.ndarray | None = None
    r_inner: float = 0.0
    r_outer: float = math.inf

    def contains(self, x):
        """Membership of a point (n,), or of each row of a batch (N, n)."""
        x = np.asarray(x, dtype=float)
        if self.kind == "rn":
            return np.full(x.shape[:-1], True)
        c = self.center if self.center is not None else np.zeros(x.shape[-1])
        r = np.linalg.norm(x - c, axis=-1)
        if self.kind == "ball":
            return r <= self.r_outer
        if self.kind == "annulus":
            return (self.r_inner <= r) & (r <= self.r_outer)
        if self.kind == "exterior":
            return r >= self.r_inner
        raise ValueError(f"unknown domain kind {self.kind!r}")


def _lift(evaluator: Callable, n: int) -> Callable:
    """Batch form of a per-point evaluator x -> (u, grad, hess), by a loop."""
    def jets(X, order):
        u = np.empty(len(X))
        grad = np.empty((len(X), n))
        hess = np.empty((len(X), n, n))
        for i, x in enumerate(X):
            u[i], grad[i], hess[i] = evaluator(x)
        return (u, grad, hess) if order else (u, None, None)
    return jets


class ScalarField:
    """A positive C^2 field on a domain, evaluated through one batch evaluator.

    jets(X, order) receives the rows of X (N, n), all inside the domain,
    and returns (u[N], grad[N, n], hess[N, n, n]); with order=0 it returns
    (u[N], None, None) and may skip the derivatives. A per-point evaluator
    x -> (u, grad, hess), passed positionally instead, is lifted into that
    form by a loop. Fields carry no mutable state. Every other method is a
    slice of `jets`: `values` is its order-0 part, `raw_jet`, `jet` and
    `value` its one-row case.
    """

    def __init__(self, n: int, evaluator: Callable | None = None,
                 domain: Domain | None = None, tag: str | None = None,
                 jets: Callable | None = None):
        if n < 3:
            raise ValueError(f"dimension n={n} must be >= 3")
        if (evaluator is None) == (jets is None):
            raise ValueError("give exactly one of evaluator and jets")
        self.n = n
        self._jets = jets if jets is not None else _lift(evaluator, n)
        self.domain = domain if domain is not None else Domain()
        self.tag = tag

    def jets(self, X, order: int = 2):
        """(u, grad, hess) at the rows of X (N, n); order=0 gives (u, None, None).

        Raises DomainError or PositivityError naming the first point
        outside the domain or with a nonpositive value.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError(f"points must have shape (N, {self.n})")
        if order not in (0, 2):
            raise ValueError(f"jet order must be 0 or 2, got {order}")
        outside = np.flatnonzero(~self.domain.contains(X))
        if outside.size:
            x = X[outside[0]]
            raise DomainError(f"point {x} outside field domain ({self.domain.kind})")
        u, grad, hess = self._jets(X, order)
        u = np.asarray(u, dtype=float)
        if u.shape != (len(X),):
            raise ValueError("field values do not match the number of points")
        bad = np.flatnonzero(~(u > 0.0))
        if bad.size:
            x, val = X[bad[0]], u[bad[0]]
            raise PositivityError(f"field value {val} is not positive at {x}",
                                  where=x, value=val)
        if order:
            grad = np.asarray(grad, dtype=float)
            hess = np.asarray(hess, dtype=float)
            if grad.shape != X.shape or hess.shape != X.shape + (self.n,):
                raise ValueError("jet component shapes do not match the point dimension")
        return u, grad, hess

    def _row(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point must have shape ({self.n},)")
        return x[None]

    def raw_jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        u, grad, hess = self.jets(self._row(x), 2)
        return float(u[0]), grad[0], hess[0]

    def jet(self, x) -> Jet2:
        u, grad, hess = self.raw_jet(x)
        return Jet2(np.asarray(x, dtype=float), u, grad, hess)

    def value(self, x) -> float:
        return float(self.jets(self._row(x), 0)[0][0])

    def values(self, pts) -> np.ndarray:
        return self.jets(pts, 0)[0]


def constant_field(value: float, n: int) -> ScalarField:
    """The constant positive field; its Schouten matrix vanishes."""
    if not value > 0.0:
        raise PositivityError(f"constant field value {value} must be positive")

    def jets(X, order):
        u = np.full(len(X), float(value))
        if not order:
            return u, None, None
        return u, np.zeros((len(X), n)), np.zeros((len(X), n, n))

    return ScalarField(n, tag=f"const({value})", jets=jets)


def transform_field(u: ScalarField, psi: MobiusMap) -> ScalarField:
    """The conformal pullback |J_psi|^{(n-2)/(2n)} (u o psi) with analytic jets.

    First and second derivatives are chain-ruled through the transported
    word jet, so the returned field is exactly as smooth as u away from the
    word's poles.
    """
    n = u.n
    p = (n - 2.0) / (2.0 * n)

    def jets(X, order):
        st = psi._walk(X, order)
        uy, gy, hy = u.jets(st.y, order)
        # conformal factor c = |J|^p
        c = np.exp(p * st.log_det)
        if not order:
            return c * uy, None, None
        jac, hword, gld = st.jac, st.hess, st.grad_log_det
        # v = u o psi and its jet
        jac_t = jac.swapaxes(1, 2)
        gv = (jac_t @ gy[:, :, None])[:, :, 0]
        hv = jac_t @ hy @ jac + np.einsum("na,najk->njk", gy, hword)
        # the jet of c
        gc = (p * c)[:, None] * gld
        hc = c[:, None, None] * (p * st.hess_log_det
                                 + (p * p) * (gld[:, :, None] * gld[:, None, :]))
        grad = c[:, None] * gv + uy[:, None] * gc
        hess = c[:, None, None] * hv + gc[:, :, None] * gv[:, None, :] \
            + gv[:, :, None] * gc[:, None, :] + uy[:, None, None] * hc
        return c * uy, grad, hess

    tag = f"mobius*{u.tag}" if u.tag else "mobius"
    return ScalarField(n, domain=Domain(), tag=tag, jets=jets)


def kelvin_transform(u: ScalarField) -> ScalarField:
    """|x|^{2-n} u(x / |x|^2), as the pullback under the pure inversion word."""
    return transform_field(u, MobiusMap((Inversion(),)))


# ---------------------------------------------------------------------------
# regularity at infinity, probed
# ---------------------------------------------------------------------------

@dataclass
class KelvinProbeReport:
    """Numerical evidence about the Kelvin image v near the origin.

    For each probe radius: sup and inf of v on the sphere, and the maximum
    of |x| |grad v|. `plausible` records whether the weak decay condition
    (|x| |grad v| decreasing toward zero) holds across the sequence; it is
    evidence, not a certificate.
    """

    radii: np.ndarray
    sup_v: np.ndarray
    inf_v: np.ndarray
    max_scaled_grad: np.ndarray
    positive: bool
    monotone: bool
    below_threshold: bool
    plausible: bool


def kelvin_regularity_probe(u: ScalarField) -> KelvinProbeReport:
    """Probe the Kelvin image of u on 12 radii from 0.5 down to 1e-3.

    u must be defined outside a compact set (probing v at radius rho reads
    u at radius 1/rho). Each radius is probed in 16 Halton directions. The
    decision threshold 1e-3 on |x||grad v| at the smallest radius is a
    pragmatic cutoff, not a theorem.
    """
    radii = np.geomspace(0.5, 1e-3, 12)
    v = kelvin_transform(u)
    dirs = sphere_directions(16, u.n)
    pts = (radii[:, None, None] * dirs[None, :, :]).reshape(-1, u.n)
    vals, grads, _ = v.jets(pts, 2)
    vals = vals.reshape(radii.size, -1)
    scaled = radii[:, None] * np.linalg.norm(grads, axis=1).reshape(radii.size, -1)
    sup_v = vals.max(axis=1)
    inf_v = vals.min(axis=1)
    max_sg = scaled.max(axis=1)
    positive = bool(np.all(inf_v > 0.0))
    # absolute floor keeps rounding noise on exactly-constant images from
    # breaking the decrease test
    monotone = bool(np.all(max_sg[1:] <= max_sg[:-1] * (1.0 + 1e-9) + 1e-12))
    below = bool(max_sg[-1] < 1e-3)
    return KelvinProbeReport(radii, sup_v, inf_v, max_sg, positive, monotone,
                             below, positive and monotone and below)
