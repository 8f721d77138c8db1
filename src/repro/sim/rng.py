"""Deterministic, stream-isolated random number generation.

Every stochastic element of an experiment derives its generator from a
single root seed plus a string path (e.g. ``("traffic", "module3")``),
so adding a new consumer never perturbs the draws of existing ones —
the standard reproducibility discipline for simulation studies.
"""

from __future__ import annotations

import zlib
from typing import Dict, Sequence

import numpy as np


def _stream_key(parts: Sequence[str]) -> int:
    """Stable 32-bit key for a stream path (Python's hash() is salted)."""
    return zlib.crc32("/".join(parts).encode("utf-8"))


def make_rng(seed: int, *stream: str) -> np.random.Generator:
    """Return a PCG64 generator for ``seed`` specialized to a named
    stream."""
    ss = np.random.SeedSequence([seed & 0xFFFFFFFF, _stream_key(stream)])
    return np.random.Generator(np.random.PCG64(ss))


def spawn_rngs(seed: int, names: Sequence[str], *prefix: str) -> Dict[str, np.random.Generator]:
    """Create one independent generator per name under a common prefix."""
    return {name: make_rng(seed, *prefix, name) for name in names}
