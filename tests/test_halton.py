"""Halton sampling against a per-index reference loop, and the normal
quantile of the sphere directions against mpmath."""

import mpmath
import numpy as np
import pytest

from sigmak_lab.errors import ConfigError
from sigmak_lab.halton import _PRIMES, _normal_quantile, halton_sequence, sphere_directions


def _radical_inverse(index: int, base: int) -> float:
    """Van der Corput radical inverse of one index, digit by digit."""
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        index, digit = divmod(index, base)
        inv += digit * scale
        scale /= base
    return inv


@pytest.mark.parametrize("count, dim, start", [
    (0, 3, 20), (1, 1, 0), (300, 6, 20), (200, 15, 101), (2500, 3, 20)])
def test_halton_sequence_matches_the_per_index_loop_bit_for_bit(count, dim, start):
    pts = halton_sequence(count, dim, start)
    ref = np.array([[_radical_inverse(i, _PRIMES[j]) for j in range(dim)]
                    for i in range(start, start + count)]).reshape(count, dim)
    assert pts.shape == (count, dim) and pts.flags.c_contiguous
    assert pts.tobytes() == ref.tobytes()


@pytest.mark.parametrize("count, dim, start", [(-1, 3, 20), (5, 3, -1), (5, 16, 20),
                                               (5, 0, 20), (2.0, 3, 20), (5, True, 20)])
def test_halton_sequence_rejects_bad_sizes(count, dim, start):
    with pytest.raises(ConfigError):
        halton_sequence(count, dim, start)


def test_sphere_directions_match_a_30_digit_normal_quantile():
    # the Harnack grid's inputs at 16 angular directions, n = 3..8: each n
    # uses 16 (n - 1) points of the first n bases, a corner of n = 8's set
    u = halton_sequence(16 * 7, 8, start=101)
    with mpmath.workdps(30):
        ref = np.array([[float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1))
                         for p in row] for row in u])
    for n in range(3, 9):
        count = 16 * (n - 1)
        z = _normal_quantile(halton_sequence(count, n, start=101))
        assert np.abs(z - ref[:count, :n]).max() <= 1e-15
        dirs = sphere_directions(count, n)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() <= 1e-15
        exact = ref[:count, :n] / np.linalg.norm(ref[:count, :n], axis=1)[:, None]
        assert np.abs(dirs - exact).max() <= 1e-15
