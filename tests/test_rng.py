"""The samplers' generator against numpy's: the same doubles and bits from
the same seed, in any interleaving of the two draws."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from transversals._rng import Generator

CALLS = st.lists(st.tuples(st.sampled_from(["random", "integers"]), st.integers(0, 9)), max_size=24)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**128 - 1), CALLS)
@example(0, [("random", 3)])
@example(2**64 + 5, [("integers", 3), ("random", 2), ("integers", 1), ("integers", 4)])
@example(2**128 - 1, [("integers", 1), ("random", 1), ("integers", 1)])
def test_generator_matches_numpy(seed, calls):
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for name, k in calls:
        want = theirs.random(k) if name == "random" else theirs.integers(0, 2, size=k)
        assert getattr(ours, name)(k) == want.tolist()


@pytest.mark.parametrize("seed", [0, 1, 7, 12345, 2**31 - 1, 2**32, 2**64 + 5, 2**100 + 3, 2**160 + 7])
def test_generator_matches_numpy_over_a_long_stream(seed):
    # a seed of more than four 32-bit words mixes the rest into the pool;
    # an odd-length integers call leaves a half-word that the next one reads first
    ours, theirs = Generator(seed), np.random.default_rng(seed)
    for _ in range(20):
        assert ours.integers(7) == theirs.integers(0, 2, size=7).tolist()
        assert ours.random(5) == theirs.random(5).tolist()


def test_generator_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        Generator(-1)
