"""The Philox keys of ``rng.stream_keys`` against numpy's ``SeedSequence``, and the re-keyed generator."""

import numpy as np
import pytest

import selbounds as sb
from selbounds.rng import derive_rng, keyed_rngs, stream_keys

#: One- to three-word seeds and one of five words (2**128 <= seed < 2**160).
SEEDS = [0, 1, 2**32, 2**64 + 5, 2**130 + 3]
#: No tag to three, with tags of two words (at least 2**32).
TAGS = [(), (7,), (2**32,), (0, 2**40 + 1), (1, 2, 3), (9, 2**33, 0)]


def numpy_key(seed, tags):
    return np.random.SeedSequence(entropy=seed, spawn_key=tags).generate_state(2, np.uint64)


def seed_sequence_rng(seed, *tags):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=tags)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tags", TAGS, ids=lambda t: "+".join(map(str, t)) or "none")
def test_key_equals_seed_sequence(seed, tags):
    keys = stream_keys(seed, tags)
    assert keys.dtype == np.uint64 and keys.shape == (1, 2)
    assert keys[0].tolist() == numpy_key(seed, tags).tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("tags", TAGS[1:], ids=lambda t: "+".join(map(str, t)))
def test_keys_over_the_last_tag_equal_seed_sequence(seed, tags):
    last = np.array([tags[-1], 0, 1, 2**32 - 1, 2**32, 2**63 + 11], dtype=np.uint64)
    keys = stream_keys(seed, tags[:-1], last)
    assert keys.shape == (last.size, 2)
    want = [numpy_key(seed, (*tags[:-1], t)).tolist() for t in last.tolist()]
    assert keys.tolist() == want


@pytest.mark.parametrize("seed, tags", [(0, ()), (42, (1,)), (2**33 + 5, (3, 2**32))])
def test_derive_rng_draws_as_seed_sequence(seed, tags):
    got = derive_rng(seed, *tags).standard_gamma(0.4, size=64)
    assert got.tobytes() == seed_sequence_rng(seed, *tags).standard_gamma(0.4, size=64).tobytes()


@pytest.mark.parametrize("seed", [1, 42])
def test_rekeyed_generator_draws_as_derive_rng(seed):
    keys = stream_keys(seed, (3,), np.arange(40))
    for i, rng in enumerate(keyed_rngs(keys)):
        got = rng.standard_gamma(1.0, size=1 + i % 9)
        assert got.tobytes() == derive_rng(seed, 3, i).standard_gamma(1.0, size=1 + i % 9).tobytes()
        # leave a buffered word and a 32-bit half behind for the next key to clear
        rng.integers(0, 2**32, size=3, dtype=np.uint32)


def test_negative_seed_and_tags_are_refused():
    with pytest.raises(sb.BadConfigError, match="seed must be a non-negative integer, got -1"):
        stream_keys(-1)
    with pytest.raises(sb.BadConfigError):
        derive_rng(-3, 0)
    with pytest.raises(ValueError):
        stream_keys(1, (-2,))
    with pytest.raises(ValueError):
        stream_keys(1, (), np.array([3, -1]))
