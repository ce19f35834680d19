"""Shared field constructors for the test suite."""

import numpy as np

from sigmak_lab import Domain, ScalarField


def random_test_field(n: int, rng: np.random.Generator, n_bumps: int = 3,
                      base: float = 2.0) -> ScalarField:
    """Positive polynomial-plus-Gaussian field with analytic jets.

    u = base + sum_j gamma_j (v_j . x + d_j)^2 + sum_i alpha_i exp(-beta_i |x - c_i|^2),
    every coefficient nonnegative, so u > base everywhere.
    """
    gammas = rng.uniform(0.0, 0.15, size=2)
    vs = rng.normal(size=(2, n))
    ds = rng.normal(size=2)
    alphas = rng.uniform(0.2, 1.0, size=n_bumps)
    betas = rng.uniform(0.3, 1.5, size=n_bumps)
    centers = rng.normal(scale=1.2, size=(n_bumps, n))

    def jets(X, order):
        val = np.full(len(X), base)
        grad = np.zeros((len(X), n))
        hess = np.zeros((len(X), n, n))
        for g, v, d in zip(gammas, vs, ds):
            lin = X @ v + d
            val += g * lin * lin
            grad += (2.0 * g * lin)[:, None] * v
            hess += 2.0 * g * np.outer(v, v)
        for a, b, c in zip(alphas, betas, centers):
            dx = X - c
            e = a * np.exp(-b * np.einsum("ij,ij->i", dx, dx))
            val += e
            grad += (-2.0 * b * e)[:, None] * dx
            hess += e[:, None, None] * (4.0 * b * b * (dx[:, :, None] * dx[:, None, :])
                                        - 2.0 * b * np.eye(n))
        return (val, grad, hess) if order else (val, None, None)

    return ScalarField(n, tag="poly+gauss", jets=jets)


def radial_power_field(n: int, r_inner: float = 0.4) -> ScalarField:
    """u(x) = |x|^{2-n}, defined outside a small ball; its Kelvin image is 1."""
    alpha = (2.0 - n) / 2.0
    return _radial_s_field(n, alpha, extra=None, r_inner=r_inner,
                           tag="fundamental")


def oscillatory_tail_field(n: int, r_inner: float = 0.4) -> ScalarField:
    """u(x) = |x|^{2-n} (2 + sin |x|^2): decays at the right rate but its
    Kelvin image oscillates without settling, so scaled gradients blow up."""
    alpha = (2.0 - n) / 2.0
    return _radial_s_field(n, alpha, extra="sin", r_inner=r_inner,
                           tag="oscillatory")


def _radial_s_field(n, alpha, extra, r_inner, tag):
    def fs(s):
        if extra is None:
            return s ** alpha, alpha * s ** (alpha - 1.0), \
                alpha * (alpha - 1.0) * s ** (alpha - 2.0)
        base = 2.0 + np.sin(s)
        f = s ** alpha * base
        f1 = alpha * s ** (alpha - 1.0) * base + s ** alpha * np.cos(s)
        f2 = alpha * (alpha - 1.0) * s ** (alpha - 2.0) * base \
            + 2.0 * alpha * s ** (alpha - 1.0) * np.cos(s) - s ** alpha * np.sin(s)
        return f, f1, f2

    def evaluator(x):
        s = float(x @ x)
        f, f1, f2 = fs(s)
        grad = 2.0 * f1 * x
        hess = 2.0 * f1 * np.eye(n) + 4.0 * f2 * np.outer(x, x)
        return f, grad, hess

    dom = Domain(kind="exterior", center=np.zeros(n), r_inner=r_inner)
    return ScalarField(n, evaluator, domain=dom, tag=tag)
