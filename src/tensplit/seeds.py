"""Deterministic named random streams.

All randomness flows from one base seed; sub-procedures draw from named
streams so any stage can be reproduced in isolation.  Stream names are
hashed with crc32, which is stable across platforms and Python versions.
"""

from __future__ import annotations

import zlib

import numpy as np

from .core import _is_number

_MASK64 = (1 << 64) - 1


def seed_sequence(base: int, *names) -> np.random.SeedSequence:
    """The stream `names` of an integer base seed; a bool or a fraction raises ValueError."""
    if not _is_number(base, integral=True):
        raise ValueError(f"seed must be an integer, got {base!r}")
    keys = tuple(zlib.crc32(str(n).encode("utf-8")) for n in names)
    return np.random.SeedSequence(entropy=int(base) & _MASK64, spawn_key=keys)


def derive_seed(base: int, *names) -> int:
    """A 64-bit seed for the stream identified by `names`."""
    return int(seed_sequence(base, *names).generate_state(1, np.uint64)[0])


def make_rng(base: int, *names) -> np.random.Generator:
    return np.random.default_rng(seed_sequence(base, *names))
