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
A(u_psi) at x equal those of A(u) at psi(x). A word acts linearly on the
lifts (1, x, |x|^2) of points (Liouville), so it is one (n+2) x (n+2)
matrix, and its image points, |det J|, J and grad log|det J| are read off
that matrix times the lifts. Jets of transformed fields are analytic: J and
grad log|det J| fix the word's second derivatives by conformality; finite
differences appear only in tests.

Every evaluation runs on a stack of N points at once and is a full 2-jet
(`ScalarField.jets`, `_checked_schouten`); the equation is a condition on the
2-jet of u, and every workflow checks it there. A word walk runs on a stack
of W words as well (`_walk_words`, on the stacked matrices) and always
carries J and grad log|det J|; `MobiusMap._walk` is the W = 1 case. The
per-point calls are the N = 1 case, and no workflow runs them: they wait on
the bench probes that time them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, PoleError, _require_finite, _require_positive, \
    check_nk, check_positive, check_positive_value

__all__ = [
    "Jet2",
    "Translation",
    "Rotation",
    "Dilation",
    "Inversion",
    "MobiusMap",
    "ScalarField",
    "schouten_flat",
    "schouten_spectrum",
    "random_mobius_map",
    "random_mobius_map_avoiding",
    "transform_field",
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
        raise ConfigError("jet component shapes do not match the point dimension")
    _require_positive(points, u)
    hess_t = hess.swapaxes(1, 2)
    asym = np.abs(hess - hess_t).max(axis=(1, 2), initial=0.0)
    scale = np.maximum(1.0, np.abs(hess).max(axis=(1, 2), initial=0.0))
    bad = np.flatnonzero(asym > 1e-12 * scale)
    if bad.size:
        i = bad[0]
        raise ConfigError(f"hessian asymmetry {asym[i]:.3e} exceeds tolerance "
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


def _checked_schouten(points, u, g, h) -> np.ndarray:
    """Flat Schouten matrices A(u), (N, n, n), of N 2-jets that passed
    `_checked_jets`, at the rows of points (N, n). Each is exactly symmetric:
    every term is assembled from the symmetrized hessian, an outer product and
    a multiple of the identity. A value or matrix that is not finite raises
    FloatRangeError at its first point, so `eigvalsh` never sees one (on a nan
    matrix it returns finite garbage or raises a bare LinAlgError)."""
    n = g.shape[1]
    check_nk(n, 1)
    q1 = u ** (-(n + 2.0) / (n - 2.0))
    q2 = u ** (-2.0 * n / (n - 2.0))
    c1 = 2.0 / (n - 2.0)
    c2 = 2.0 * n / (n - 2.0) ** 2
    c3 = 2.0 / (n - 2.0) ** 2
    gg = np.einsum("ij,ij->i", g, g)
    schouten = (-c1 * q1)[:, None, None] * h \
        + (c2 * q2)[:, None, None] * (g[:, :, None] * g[:, None, :]) \
        - (c3 * q2 * gg)[:, None, None] * np.eye(n)
    _require_finite(points, np.isfinite(schouten).all(axis=(1, 2)) & (u < np.inf),
                    "the jet or Schouten matrix")
    return schouten


def schouten_flat(jet: Jet2) -> np.ndarray:
    """Schouten-type matrix A(u) of a 2-jet over the flat background: the
    one-jet case of `_checked_schouten`, with numpy's float warnings off.
    No workflow calls it; the tests use it as the one-jet oracle."""
    points = jet.point[None]
    u = _require_positive(points, np.array([jet.u], dtype=float))
    with np.errstate(all="ignore"):
        return _checked_schouten(points, u, jet.grad[None], jet.hess[None])[0]


def schouten_spectrum(jet: Jet2) -> np.ndarray:
    """Ascending eigenvalues of `schouten_flat`: bench probes and tests only."""
    return np.linalg.eigvalsh(schouten_flat(jet))


# ---------------------------------------------------------------------------
# Mobius words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Translation:
    b: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=float)
        if b.ndim != 1 or not np.isfinite(b).all():
            raise ConfigError(f"translation vector must be 1-D and finite, got {b}")
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class Rotation:
    mat: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.mat, dtype=float)
        n = mat.shape[0]
        if mat.shape != (n, n):
            raise ConfigError("rotation matrix must be square")
        if not float(np.max(np.abs(mat.T @ mat - np.eye(n)))) <= 1e-12:  # nan fails
            raise ConfigError("rotation matrix is not orthogonal to 1e-12")
        object.__setattr__(self, "mat", mat)


@dataclass(frozen=True)
class Dilation:
    s: float

    def __post_init__(self):
        check_positive("dilation scale", self.s)


@dataclass(frozen=True)
class Inversion:
    """x -> x / |x|^2, the unit-sphere inversion."""


@dataclass(frozen=True)
class _TransportState:
    """Jet of a word at N points: image points, log |det J|, J and
    grad log |det J| w.r.t. the original coordinates, which fix the word's
    second derivatives (`_pullback`); all read off the word's matrix
    (`_walk_words`). MobiusMap.jet returns the one-point slice, without the
    leading axis."""

    y: np.ndarray
    log_det: np.ndarray
    jac: np.ndarray
    grad_log_det: np.ndarray


def _lifted(M, X) -> np.ndarray:
    """M (..., m, n+2) times the lift (1, x, |x|^2) of each row x of X (N, n): (..., N, m)."""
    return X @ M[..., 1:-1].swapaxes(-1, -2) + M[..., None, :, 0] \
        + np.einsum("ij,ij->i", X, X)[:, None] * M[..., None, :, -1]


def _pole(M, n: int) -> np.ndarray | None:
    """The zero p of lam = M[0] (1, x, |x|^2) if the word has a pole: alpha = M[0, n+1] != 0
    and row 0 null, M[0, 0] = alpha |p|^2 to 1e-8 relative. Words with a pole read at most
    3.4e-14 there; psi then psi.inverse(), whose alpha may be rounding noise, about 1."""
    alpha = M[0, n + 1]
    if alpha == 0.0:
        return None
    p = -M[0, 1:n + 1] / (2.0 * alpha)
    c, cp = M[0, 0], alpha * (p @ p)
    return p if abs(c - cp) <= 1e-8 * (abs(c) + abs(cp)) else None


@dataclass(frozen=True)
class MobiusMap:
    """A Mobius transformation as a word of generators, applied left to right."""

    word: tuple

    def __post_init__(self):
        word = tuple(self.word)
        for atom in word:
            if not isinstance(atom, (Translation, Rotation, Dilation, Inversion)):
                raise ConfigError(f"unsupported atom {atom!r}")
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "_matrices", {})

    def _matrix(self, n: int) -> np.ndarray:
        """The word's (n+2) x (n+2) matrix, its atoms' product on the lifts
        (1, x, |x|^2), where Mobius maps act linearly (Liouville): translation
        t [[1, 0, 0], [t, I, 0], [|t|^2, 2t^T, 1]], rotation Q diag(1, Q, 1),
        dilation s diag(1/s, I, s); inversion swaps the first and last rows.
        Formed once per n and read-only."""
        M = self._matrices.get(n)
        if M is None:
            M = np.eye(n + 2)
            for atom in self.word:
                if isinstance(atom, Translation):
                    t = atom.b
                    M[n + 1] += 2.0 * (t @ M[1:n + 1]) + (t @ t) * M[0]
                    M[1:n + 1] += t[:, None] * M[0]
                elif isinstance(atom, Rotation):
                    M[1:n + 1] = atom.mat @ M[1:n + 1]
                elif isinstance(atom, Dilation):
                    M[0] /= atom.s
                    M[n + 1] *= atom.s
                else:
                    M[[0, n + 1]] = M[[n + 1, 0]]
            M.flags.writeable = False
            self._matrices[n] = M
        return M

    def _walk(self, X) -> _TransportState:
        """The one-word case of `_walk_words`: the rows x of X (N, n) through the word."""
        X = np.asarray(X, dtype=float)
        return _walk_words(self._matrix(X.shape[1])[None], X)

    def jet(self, x) -> _TransportState:
        """Image point, log |det J|, J and grad log |det J| at a point: all
        that a 2-jet's chain rule needs, since the word is conformal; the
        one-point `_walk`, for bench probes and tests only."""
        st = self._walk(np.asarray(x, dtype=float)[None])
        return _TransportState(*(field[0] for field in vars(st).values()))

    # -- group structure: no workflow composes words; the tests' oracles ---

    def then(self, other: "MobiusMap") -> "MobiusMap":
        """The composite map applying self first, then other."""
        return MobiusMap(self.word + other.word)

    def inverse(self) -> "MobiusMap":
        """The word that undoes self, atom by atom."""
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
        """The finite point where the word passes through infinity, if any (`_pole`)."""
        return [p for p in [_pole(self._matrix(n), n)] if p is not None]


def _walk_words(Ms, X) -> _TransportState:
    """Carry the rows x of X (N, n) through W words at once, Ms (W, n+2, n+2)
    their matrices; the state's rows are word-major, row w N + i holding x_i
    under word w. Per word M: M (1, x, |x|^2) = lam (1, y, |y|^2),
    lam = |det J|^(-1/n) > 0 off the pole p (`_pole`), about which lam is formed
    as alpha |x - p|^2, alpha = M[0, n+1]; a PoleError where lam <= 0 or nan.
    With y and log |det J| come J = (B + 2 q x^T - y grad lam^T) / lam, B and q
    the blocks M[1:n+1, 1:n+1] and M[1:n+1, n+1], and grad log |det J| =
    -n grad lam / lam: what `_pullback` needs. A point whose |x|^2 overflows is
    a FloatRangeError naming it, not a false pole (inf 0 in the lift is nan)."""
    n = X.shape[1]
    with np.errstate(over="ignore"):
        sq = np.einsum("ij,ij->i", X, X)
    _require_finite(X, ~np.isinf(sq), "|x|^2 of the point")  # a nan point's lam is nan
    y = _lifted(Ms[:, 1:n + 1], X)
    lam, grad_lam = np.empty(y.shape[:2]), np.empty(y.shape)
    for w, M in enumerate(Ms):
        p = _pole(M, n)
        if p is None:
            lam[w], grad_lam[w] = _lifted(M[:1], X)[:, 0], M[0, 1:n + 1] + 2.0 * M[0, n + 1] * X
        else:  # near p the terms of M[0] (1, x, |x|^2) cancel; alpha |x - p|^2 does not
            d = X - p
            lam[w], grad_lam[w] = M[0, n + 1] * np.einsum("ij,ij->i", d, d), 2.0 * M[0, n + 1] * d
    if not np.all(lam > 0.0):
        raise PoleError("mobius word hit its pole")
    y /= lam[..., None]
    log_det = -n * np.log(lam)
    jac = Ms[:, None, 1:n + 1, 1:n + 1] + 2.0 * Ms[:, None, 1:n + 1, n + 1, None] * X[:, None, :] \
        - y[..., None] * grad_lam[..., None, :]
    return _TransportState(y.reshape(-1, n), log_det.ravel(),
                           (jac / lam[..., None, None]).reshape(-1, n, n),
                           (-n * grad_lam / lam[..., None]).reshape(-1, n))


def random_mobius_map(rng: np.random.Generator, n: int) -> MobiusMap:
    """Draw a random word of 3 generators: each is an inversion with
    probability 0.35, a standard normal translation or a log-uniform
    dilation in [1/2, 2] with 0.25 each, and otherwise a random rotation."""
    atoms = []
    for _ in range(3):
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
    """Draw random words (`random_mobius_map`) until one has its pole, if
    any, farther than clearance from every row of points; return that word.
    Points that are not all finite are a ConfigError; a distance past the
    float range is inf, so that point is clear."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.isfinite(points).all():
        raise ConfigError("the points a word must avoid are not all finite")
    while True:
        psi = random_mobius_map(rng, n)
        with np.errstate(over="ignore"):
            if all(float(np.min(np.linalg.norm(points - p, axis=1), initial=np.inf)) > clearance
                   for p in psi.poles(n)):
                return psi


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------

def _lift(evaluator: Callable, n: int) -> Callable:
    """Batch form of a per-point evaluator x -> (u, grad, hess), by a loop; a
    bench probe's field is its last user outside the tests."""
    def jets(X):
        u = np.empty(len(X))
        grad = np.empty((len(X), n))
        hess = np.empty((len(X), n, n))
        for i, x in enumerate(X):
            u[i], grad[i], hess[i] = evaluator(x)
        return u, grad, hess
    return jets


class ScalarField:
    """A positive C^2 field on R^n, evaluated through one batch evaluator.

    Every field the lab builds is a bubble or a Mobius image of one, defined
    everywhere but at its word's pole, where the word walk raises PoleError.
    jets(X) receives the rows of X (N, n) and returns the full 2-jet (u[N],
    grad[N, n], hess[N, n, n]). A per-point evaluator x -> (u, grad, hess),
    passed positionally instead, is lifted into that form by a loop. Fields
    carry no mutable state. Every other method is a slice of `jets`: `values`
    is its value part, `raw_jet` and `jet` its one-row case, for bench
    probes and tests only.
    """

    def __init__(self, n: int, evaluator: Callable | None = None,
                 tag: str | None = None, jets: Callable | None = None):
        check_nk(n, 1)
        if (evaluator is None) == (jets is None):
            raise ConfigError("give exactly one of evaluator and jets")
        self.n = n
        self._jets = jets if jets is not None else _lift(evaluator, n)
        self.tag = tag

    def jets(self, X):
        """(u, grad, hess) at the rows of X (N, n).

        Raises PositivityError naming the first point with a nonpositive
        value; the field's own evaluator may raise first (PoleError at a pole).
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ConfigError(f"points must have shape (N, {self.n})")
        u, grad, hess = self._jets(X)
        u = np.asarray(u, dtype=float)
        if u.shape != (len(X),):
            raise ConfigError("field values do not match the number of points")
        _require_positive(X, u)
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if grad.shape != X.shape or hess.shape != X.shape + (self.n,):
            raise ConfigError("jet component shapes do not match the point dimension")
        return u, grad, hess

    def _row(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ConfigError(f"point must have shape ({self.n},)")
        return x[None]

    def raw_jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        u, grad, hess = self.jets(self._row(x))
        return float(u[0]), grad[0], hess[0]

    def jet(self, x) -> Jet2:
        u, grad, hess = self.raw_jet(x)
        return Jet2(np.asarray(x, dtype=float), u, grad, hess)

    def values(self, pts) -> np.ndarray:
        return self.jets(pts)[0]


def constant_field(value: float, n: int) -> ScalarField:
    """The constant positive field; its Schouten matrix vanishes. A value that is
    not positive is a PositivityError, one past the float range a ConfigError.
    No workflow calls it; it is the tests' zero-Schouten field."""
    check_positive_value("constant field value", value)

    def jets(X):
        return np.full(len(X), float(value)), np.zeros((len(X), n)), np.zeros((len(X), n, n))

    return ScalarField(n, tag=f"const({value})", jets=jets)


def _pullback(st: _TransportState, uy, gy, hy):
    """Jet of |J_psi|^p (u o psi), p = (n-2)/(2n), from the transported word
    jet st and u's full 2-jet (uy, gy, hy) at the image points st.y.

    psi pulls |dy|^2 back to e^{2 sigma} |dx|^2, sigma = log|det J| / n. With
    mu = grad sigma and s = (n-2)/2, so that |J|^p = e^{s sigma}, two facts of
    that metric fix every second derivative from J and mu:
    - its Christoffel symbols are the word's second derivatives,
      d^2 y_a / dx_j dx_k = J_aj mu_k + J_ak mu_j - delta_jk (J mu)_a;
    - it is flat, so its Schouten tensor vanishes: hess sigma = mu mu^T - |mu|^2 I / 2
      (in this module's terms, A(|J|^p) = 0, |J|^p being the pullback of 1).
    With c = |J|^p, grad c = s c mu and gv = J^T gy, the product rule
    hess(c uy) = c hess(u o psi) + grad c gv^T + gv grad c^T + uy hess c
    then collapses to
      grad = c (gv + s uy mu),
      hess = c (J^T hy J + (n/2) (w mu^T + mu w^T) - (w . mu) I),  w = gv + s uy mu / 2.
    """
    n = st.y.shape[1]
    c, s = np.exp((n - 2.0) / (2.0 * n) * st.log_det), (n - 2.0) / 2.0
    jac, mu = st.jac, st.grad_log_det / n
    jac_t = jac.swapaxes(1, 2)
    gv = (jac_t @ gy[:, :, None])[:, :, 0]
    w = gv + (0.5 * s * uy)[:, None] * mu
    wm = w[:, :, None] * mu[:, None, :]
    hess = jac_t @ hy @ jac + (0.5 * n) * (wm + wm.swapaxes(1, 2)) \
        - np.einsum("ij,ij->i", w, mu)[:, None, None] * np.eye(n)
    return c * uy, c[:, None] * (gv + (s * uy)[:, None] * mu), c[:, None, None] * hess


def transform_field(u: ScalarField, psi: MobiusMap) -> ScalarField:
    """The conformal pullback |J_psi|^{(n-2)/(2n)} (u o psi) with analytic jets.

    Each evaluation walks the points through the word once and chain-rules
    u's full 2-jet at their images through the word's jet (`_pullback`), so
    the returned field is exactly as smooth as u away from the word's poles;
    the inversion word gives the Kelvin transform.
    No workflow calls it: it is the subject of the conformal-invariance
    acceptance test, and a bench probe times its jets.
    """
    def jets(X):
        st = psi._walk(X)
        return _pullback(st, *u.jets(st.y))

    tag = f"mobius*{u.tag}" if u.tag else "mobius"
    return ScalarField(u.n, tag=tag, jets=jets)

