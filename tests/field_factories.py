"""Shared field constructors for the test suite."""

import numpy as np

from sigmak_lab import ScalarField


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

    def jets(X):
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
        return val, grad, hess

    return ScalarField(n, tag="poly+gauss", jets=jets)
