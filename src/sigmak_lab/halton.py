"""Deterministic low-discrepancy sampling.

Verification reports must be bit-reproducible, so every sample set used by
the library comes from a Halton sequence with a fixed start offset rather
than from a stateful RNG. Sphere directions push Halton points through
the standard normal quantile of the standard library's
`statistics.NormalDist` (Wichura's AS241, accurate to about 1e-16).
"""

import math
from statistics import NormalDist

import numpy as np

from .errors import check_count

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_STANDARD_NORMAL = NormalDist()


def halton_sequence(count: int, dim: int, start: int = 20) -> np.ndarray:
    """`count` points of the `dim`-dimensional Halton sequence in (0,1)^dim.

    The first `start` indices are skipped; the early entries of the
    sequence are badly correlated across bases.
    """
    check_count("count", count, 0, math.inf)
    check_count("start", start, 0, math.inf)
    check_count("dim", dim, 1, len(_PRIMES))
    # Van der Corput radical inverses, one digit of every index per pass;
    # an index with no digits left adds 0.0
    bases = np.array(_PRIMES[:dim])
    index = np.repeat(np.arange(start, start + count)[:, None], dim, axis=1)
    pts = np.zeros((count, dim))
    scale = 1.0 / bases
    while index.any():
        index, digit = np.divmod(index, bases)
        pts += digit * scale
        scale /= bases
    return pts


def box_points(count: int, dim: int, halfwidth: float = 3.0) -> np.ndarray:
    """Halton points mapped affinely into the cube [-halfwidth, halfwidth]^dim."""
    return (2.0 * halton_sequence(count, dim) - 1.0) * halfwidth


def sphere_directions(count: int, dim: int) -> np.ndarray:
    """Deterministic, roughly equidistributed unit vectors.

    Halton points are pushed through the normal quantile and normalized;
    the image of a spherically symmetric law is uniform on the sphere.
    """
    z = _normal_quantile(halton_sequence(count, dim, start=101))
    return z / np.linalg.norm(z, axis=1)[:, None]


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Standard normal quantile of p clipped to [1e-12, 1 - 1e-12], elementwise."""
    flat = np.clip(p, 1e-12, 1.0 - 1e-12).ravel().tolist()
    return np.fromiter(map(_STANDARD_NORMAL.inv_cdf, flat), float, len(flat)).reshape(p.shape)
