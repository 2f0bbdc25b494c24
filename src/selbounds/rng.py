"""Deterministic, order-independent random streams.

Every randomized component derives its own counter-based Philox stream
from ``(seed, *stream_tags)``, so results are reproducible bit-for-bit
and independent of scheduling/evaluation order.
"""

from __future__ import annotations

import numpy as np

from .errors import BadConfigError


def derive_rng(seed: int, *stream: int) -> np.random.Generator:
    """Philox generator keyed by a seed plus integer stream tags.

    Raises:
        BadConfigError: ``seed`` is negative.
    """
    if seed < 0:
        raise BadConfigError(f"seed must be a non-negative integer, got {seed}")
    ss = np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(s) for s in stream)
    )
    return np.random.Generator(np.random.Philox(ss))
