"""Deterministic RNG streams keyed by integer tuples.

Every random draw in the package comes from a stream derived here, so a
(seed, purpose, ...) key always yields the same generator regardless of
call order elsewhere.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def stream(*keys: int) -> np.random.Generator:
    """Independent generator for a (seed, purpose, ...) key tuple."""
    if not keys:
        raise ValueError("at least one key is required")
    return np.random.default_rng(np.random.SeedSequence([int(k) & _MASK64 for k in keys]))
