"""Halton sampling against a per-index reference loop."""

import numpy as np
import pytest

from sigmak_lab.errors import ConfigError
from sigmak_lab.halton import _PRIMES, halton_sequence


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


@pytest.mark.parametrize("count, dim, start", [(-1, 3, 20), (5, 3, -1), (5, 16, 20)])
def test_halton_sequence_rejects_bad_sizes(count, dim, start):
    with pytest.raises(ConfigError):
        halton_sequence(count, dim, start)
