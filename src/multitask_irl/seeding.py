"""Deterministic random substreams derived from one master seed.

Every sampler and experiment in this package draws its randomness from a
single 64-bit master seed expanded into named substreams, so results are
reproducible and independent of iteration order (per-task streams are keyed
by task id, per-chain streams by chain index, and so on).
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["subseed", "substream"]


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        if key < 0:
            raise ValueError(f"substream keys must be non-negative, got {key}")
        return int(key)
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"substream keys must be ints or strings, got {type(key).__name__}")


def subseed(seed, *key) -> np.random.SeedSequence:
    """Return the named child seed of ``seed``.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; in the latter
    case the new keys are appended to its existing key path, so derivations
    nest without colliding.  ``key`` is a sequence of ints and/or short
    strings naming the child, e.g. ``subseed(seed, "task", 3)``.
    """
    if isinstance(seed, np.random.SeedSequence):
        entropy = seed.entropy
        base = tuple(seed.spawn_key)
    else:
        entropy = int(seed)
        if entropy < 0:
            raise ValueError(f"master seed must be non-negative, got {seed}")
        base = ()
    spawn_key = base + tuple(_key_to_int(k) for k in key)
    return np.random.SeedSequence(entropy, spawn_key=spawn_key)


def substream(seed, *key) -> np.random.Generator:
    """Return a generator for the named substream of ``seed``.

    The same (seed, key) pair always yields an identical stream; distinct
    keys yield independent streams.
    """
    return np.random.default_rng(subseed(seed, *key))
