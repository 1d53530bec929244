"""Deterministic random-number helpers.

All stochastic behaviour in the package flows through two primitives:

* ``make_rng(seed)`` -- a named, fixed generator (PCG64) for sequential
  draws (graph generation, move sampling, replay sampling).
* ``mix64`` -- a stateless splitmix64-style hash for counter-based
  draws, used where a value must be reproducible from its coordinates
  alone (for example the random neighbour picked for vertex ``i`` at
  message iteration ``t``), independent of evaluation order.

The generator name is part of the on-disk config so checkpoints pin it.
"""

from __future__ import annotations

import numpy as np

# Name recorded in configs/checkpoints. Changing the algorithm would
# silently break reproducibility, so it is asserted at load time.
GENERATOR_NAME = "pcg64"

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard generator seeded with ``seed``."""
    return np.random.Generator(np.random.PCG64(seed))


def mix64(*words: int | np.ndarray) -> np.ndarray | np.uint64:
    """Hash one or more 64-bit words into a single uniform 64-bit value.

    Splitmix64 finalizer applied after folding each word in. Accepts numpy
    arrays for vectorized use; scalars come back as ``np.uint64``.
    """
    if not words:
        raise ValueError("mix64 needs at least one word")
    with np.errstate(over="ignore"):
        acc = np.uint64(0)
        for w in words:
            acc = acc + np.asarray(w).astype(np.uint64) * _GOLDEN
            z = acc + _GOLDEN
            z = (z ^ (z >> np.uint64(30))) * _MIX1
            z = (z ^ (z >> np.uint64(27))) * _MIX2
            acc = z ^ (z >> np.uint64(31))
    if np.ndim(acc) == 0:
        return np.uint64(acc)
    return acc

