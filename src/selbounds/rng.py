"""Deterministic, order-independent random streams.

Every randomized component derives its own counter-based Philox stream
from ``(seed, *stream_tags)``, so results are reproducible bit-for-bit
and independent of scheduling/evaluation order.  The stream is the one
``Philox(SeedSequence(entropy=seed, spawn_key=stream_tags))`` draws: its
key comes from :func:`stream_keys`, numpy's ``SeedSequence`` hash written
out, which takes any number of values of the last tag in one call.  The
sweep derives the keys of all of a shape's scenarios that way and
re-keys one Philox per scenario (:func:`keyed_rngs`), about 2.5 us each,
where building a ``SeedSequence``, a ``Philox`` and a ``Generator`` per
scenario took 20-29 us.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

from .errors import BadConfigError

# The constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _words(value: int) -> list[int]:
    """``SeedSequence``'s 32-bit words of an integer, least significant first; ``[0]`` for 0."""
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


# The hash steps take Python integers below 2**32 or uint32 arrays, whose
# products and differences wrap modulo 2**32 as the C code's do.

def _hash(value, const: int, mult: int):
    """One hash step of ``value`` at constant ``const``; returns it and the next constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _absorb(pool: list, word, const: int) -> tuple[list, int]:
    """Mix one entropy word into every pool word, as ``SeedSequence`` mixes those past the pool's."""
    for dst in range(_POOL_SIZE):
        hashed, const = _hash(word, const, _MULT_A)
        pool[dst] = _mix(pool[dst], hashed)
    return pool, const


def stream_keys(seed: int, stream: Sequence[int] = (), last=None) -> np.ndarray:
    """Philox keys of ``(seed, *stream, t)`` for each ``t`` of ``last``, one uint64 row of 2 each.

    Row ``i`` is ``SeedSequence(entropy=seed, spawn_key=(*stream,
    last[i])).generate_state(2, np.uint64)``; with no ``last``, one row,
    for ``spawn_key=stream``.  The seed's and ``stream``'s words are mixed
    into the pool once, in Python integers; then the words of ``last``, a
    1-D array of non-negative integers below ``2**64``, in uint32 arrays
    with one element per tag.

    Raises:
        BadConfigError: ``seed`` is negative.
    """
    if seed < 0:
        raise BadConfigError(f"seed must be a non-negative integer, got {seed}")
    entropy = _words(seed)
    if (stream or last is not None) and len(entropy) < _POOL_SIZE:
        entropy += [0] * (_POOL_SIZE - len(entropy))  # as SeedSequence pads before a spawn key
    for tag in stream:
        entropy += _words(tag)
    pool, const = [], _INIT_A
    for i in range(_POOL_SIZE):
        hashed, const = _hash(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(hashed)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    for word in entropy[_POOL_SIZE:]:
        pool, const = _absorb(pool, word, const)
    if last is not None:
        last = np.asarray(last)
        if (last < 0).any():
            raise ValueError("expected non-negative stream tags")
        last = last.astype(np.uint64)
        pool = [np.full(last.size, word, np.uint32) for word in pool]
        pool, const = _absorb(pool, (last & _MASK32).astype(np.uint32), const)
        high = (last >> 32).astype(np.uint32)
        if high.any():  # a tag of two words has its high word mixed in too
            longer, _ = _absorb(list(pool), high, const)
            pool = [np.where(high > 0, b, a) for a, b in zip(pool, longer)]
    state, const = [], _INIT_B
    for word in pool:  # generate_state(2, np.uint64): the pool's 4 words, hashed
        hashed, const = _hash(word, const, _MULT_B)
        state.append(np.asarray(hashed, np.uint64))
    return np.column_stack([state[0] | state[1] << 32, state[2] | state[3] << 32])


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by a seed plus integer stream tags.

    Raises:
        BadConfigError: ``seed`` is negative.
    """
    key = stream_keys(int(seed), [int(s) for s in stream])[0]
    return np.random.Generator(np.random.Philox(key=key))


def keyed_rngs(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row of :func:`stream_keys`, a generator that draws as ``derive_rng`` would.

    The same generator is yielded each time, its Philox re-keyed through
    the ``state`` setter to counter 0 and an empty buffer, so each one is
    good until the next is taken.
    """
    bits = np.random.Philox(key=0)
    rng = np.random.Generator(bits)
    state = bits.state  # counter 0, empty buffer: as a fresh Philox starts
    for key in keys:
        state["state"]["key"] = key
        bits.state = state
        yield rng
