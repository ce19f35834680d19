"""Finite-difference, enumeration and high-precision oracles, kept
independent of the implementation paths they check."""

import itertools
import math

import mpmath
import numpy as np


def esym_by_enumeration(lam, k: int) -> float:
    """sigma_k as a literal sum over k-subsets."""
    if k == 0:
        return 1.0
    return float(sum(math.prod(c) for c in itertools.combinations(lam, k)))


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_jet_of_field(field, x, h: float = 1e-4):
    """Value, gradient and hessian of a ScalarField at a point from central
    differences of its values, the whole stencil in one `values` call."""
    x = np.asarray(x, dtype=float)
    n = x.size
    e = h * np.eye(n)
    i, j = np.triu_indices(n, 1)
    ei, ej = e[i], e[j]
    v = field.values(np.vstack([x[None], x + e, x - e,
                                x + ei + ej, x + ei - ej, x - ei + ej, x - ei - ej]))
    u0, up, um = v[0], v[1:n + 1], v[n + 1:2 * n + 1]
    pp, pm, mp, mm = v[2 * n + 1:].reshape(4, -1)
    hess = np.diag((up - 2.0 * u0 + um) / h ** 2)
    hess[i, j] = hess[j, i] = (pp - pm - mp + mm) / (4.0 * h * h)
    return float(u0), (up - um) / (2.0 * h), hess


def fd_jacobian(f, x, h: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector function of a vector."""
    x = np.asarray(x, dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.stack(cols, axis=1)


def _rotation_mp(mat, n: int):
    """The orthogonal polar factor of a float rotation matrix at the working
    precision: three Newton-Schulz steps Q <- Q (3I - Q^T Q) / 2 from 1e-12."""
    rot = mpmath.matrix(mat.tolist())
    for _ in range(3):
        rot = rot * (3 * mpmath.eye(n) - rot.T * rot) / 2
    return rot


def mobius_walk_mp(word, x, dps: int = 50):
    """(y, log|det J|, J, grad log|det J|) of a Mobius word at the point x,
    carried atom by atom at dps digits: each inversion y -> y / |y|^2 maps
    J to (I - 2 y y^T / |y|^2) J / |y|^2 and adds -n log|y|^2 to log|det J|
    and -2n J^T y / |y|^2 to its gradient. A rotation is the orthogonal polar
    factor of its float matrix (`_rotation_mp`), so the walked map is Mobius
    to dps digits: near an inner inversion's pole the float matrix's
    departure from orthogonality would be amplified. Returned as floats."""
    from sigmak_lab import Dilation, Inversion, Rotation, Translation
    n = len(x)
    with mpmath.workdps(dps):
        y = mpmath.matrix([mpmath.mpf(float(v)) for v in x])
        jac, log_det, grad = mpmath.eye(n), mpmath.mpf(0), mpmath.zeros(n, 1)
        for atom in word:
            if isinstance(atom, Translation):
                y += mpmath.matrix(atom.b.tolist())
            elif isinstance(atom, Rotation):
                rot = _rotation_mp(atom.mat, n)
                y, jac = rot * y, rot * jac
            elif isinstance(atom, Dilation):
                s = mpmath.mpf(atom.s)
                y, jac, log_det = s * y, s * jac, log_det + n * mpmath.log(s)
            else:
                assert isinstance(atom, Inversion)
                r2 = (y.T * y)[0]
                grad += (-2 * n / r2) * (jac.T * y)
                jac = (mpmath.eye(n) - (2 / r2) * (y * y.T)) * jac / r2
                log_det -= n * mpmath.log(r2)
                y /= r2
        return (np.array(y.tolist(), dtype=float)[:, 0], float(log_det),
                np.array(jac.tolist(), dtype=float), np.array(grad.tolist(), dtype=float)[:, 0])


def harnack_rows_mp(n: int, k: int, word, a_grid, R_grid, dps: int = 50):
    """(max over B_R, min over B_2R, scaled product) of the word image
    |J|^((n-2)/(2n)) (u_a o psi) of the centered bubble, for a in a_grid (major)
    and R in R_grid, at dps digits and returned as floats.

    u = c a^m w^-m, m = (n-2)/2, where w = alpha |y|^2 + b.y + gamma starts as
    (a^2, 0, 1). Pulling w back through one atom, the last one first, maps its
    coefficients linearly: a translation t to (alpha, b + 2 alpha t,
    alpha |t|^2 + b.t + gamma), a rotation Q (`_rotation_mp`) b to Q^T b, a
    dilation s to (alpha s, b, gamma / s), and the inversion swaps alpha and
    gamma. With d = |b| / (2 alpha) and beta = gamma - |b|^2 / (4 alpha), the
    max is c a^m (alpha max(0, d - R)^2 + beta)^-m and the min
    c a^m (alpha (2R + d)^2 + beta)^-m."""
    from sigmak_lab import Dilation, Inversion, Rotation, Translation
    with mpmath.workdps(dps):
        m = mpmath.mpf(n - 2) / 2
        c = mpmath.mpf(2) ** (mpmath.mpf(n - 2) / 4) \
            * mpmath.mpf(math.comb(n, k)) ** (mpmath.mpf(n - 2) / (4 * k))
        atoms = [_rotation_mp(atom.mat, n) if isinstance(atom, Rotation) else atom
                 for atom in word]
        rows = []
        for a in a_grid:
            a = mpmath.mpf(float(a))
            alpha, b, gamma = a * a, mpmath.zeros(n, 1), mpmath.mpf(1)
            for atom in reversed(atoms):
                if isinstance(atom, Translation):
                    t = mpmath.matrix(atom.b.tolist())
                    alpha, b, gamma = alpha, b + 2 * alpha * t, \
                        alpha * (t.T * t)[0] + (b.T * t)[0] + gamma
                elif isinstance(atom, Dilation):
                    s = mpmath.mpf(atom.s)
                    alpha, gamma = alpha * s, gamma / s
                elif isinstance(atom, Inversion):
                    alpha, gamma = gamma, alpha
                else:
                    b = atom.T * b
            d = mpmath.sqrt((b.T * b)[0]) / (2 * alpha)
            beta = gamma - (b.T * b)[0] / (4 * alpha)
            for R in R_grid:
                R = mpmath.mpf(float(R))
                hi = c * a ** m * (alpha * max(0, d - R) ** 2 + beta) ** -m
                lo = c * a ** m * (alpha * (2 * R + d) ** 2 + beta) ** -m
                rows.append((float(hi), float(lo), float(hi * lo * R ** (n - 2))))
        return rows


def sweep_rows_mp(n: int, k: int, a_grid, R_grid, mobius_words: int, seed: int):
    """The rows (max, min, scaled product) of harnack_sweep in its order, from
    `harnack_rows_mp`: the empty word, then the words drawn as the sweep draws
    them (one generator from seed, poles beyond 3 max(R) + 1/2 of the origin)."""
    from sigmak_lab import random_mobius_map_avoiding
    rng = np.random.default_rng(seed)
    clearance = 3.0 * max(R_grid) + 0.5
    words = [()] + [random_mobius_map_avoiding(rng, n, np.zeros(n), clearance).word
                    for _ in range(mobius_words)]
    return [row for word in words for row in harnack_rows_mp(n, k, word, a_grid, R_grid)]


def sample_gamma_k(rng: np.random.Generator, n: int, k: int, count: int,
                   scale: float = 1.0) -> np.ndarray:
    """Rejection-sample vectors in Gamma_k: positive-cone draws plus signed
    perturbations that happen to stay inside."""
    from sigmak_lab import in_gamma_k
    out = []
    while len(out) < count:
        if rng.uniform() < 0.5:
            lam = rng.uniform(0.1, 2.0, size=n) * scale
        else:
            lam = rng.normal(loc=0.6, scale=0.8, size=n) * scale
        if in_gamma_k(lam, k).inside:
            out.append(lam)
    return np.array(out)
