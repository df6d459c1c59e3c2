"""Tests of the shared random-draw helpers in cqbc.rng."""

import math

import numpy as np
import pytest

from cqbc.errors import ParameterError
from cqbc.rng import _uniform_bytes, substream


def test_negative_master_seed_is_refused():
    with pytest.raises(ParameterError):
        substream(-1)


@pytest.mark.parametrize("size", [0, 1, 7, 8, 9, 65535])
def test_uniform_bytes_are_the_words_least_significant_byte_first(size):
    rng, reference_rng = substream(301, size), substream(301, size)
    got = _uniform_bytes(rng, size)
    words = reference_rng.integers(0, 2**64, math.ceil(size / 8),
                                   dtype=np.uint64)
    shifts = np.arange(0, 64, 8, dtype=np.uint64)
    expected = ((words[:, None] >> shifts) & 0xFF).ravel()[:size]
    assert got.dtype == np.uint8
    assert got.shape == (size,)
    assert np.array_equal(got, expected)
    assert rng.bit_generator.state == reference_rng.bit_generator.state


@pytest.mark.parametrize("bit_generator", [np.random.MT19937,
                                           np.random.Philox])
def test_uniform_bytes_fill_every_value_under_other_bit_generators(
        bit_generator):
    # MT19937 makes 32-bit raw outputs: bytes taken from them as if they
    # were 64-bit words would be 0 in every upper half.
    draws = 1 << 16
    got = _uniform_bytes(np.random.Generator(bit_generator(302)), draws)
    counts = np.bincount(got, minlength=256)
    expect = draws / 256
    sigma = math.sqrt(expect * (1 - 1 / 256))
    assert counts.size == 256
    assert (np.abs(counts - expect) < 5 * sigma).all(), counts
