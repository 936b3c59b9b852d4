"""Deterministic derivation of independent RNG streams.

Every Monte Carlo routine in the package draws from generators created
here.  A stream is addressed by (seed, *path) where the path encodes the
layer and block index; the mapping is pure, so results never depend
on scheduling or worker count.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError


def derive_rng(seed: int, *path: int) -> np.random.Generator:
    """Independent PCG64 generator for the stream (seed, *path)."""
    if seed < 0:
        raise DomainError("seed must be a non-negative integer")
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
