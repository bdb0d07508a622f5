"""Named deterministic RNG streams.

Every stochastic component (parameter init, epoch shuffling, dropout,
synthetic text) draws from its own stream derived from the run seed plus a
stream name, so adding draws to one component never shifts another.  The
derivation must be stable across processes and platforms, hence crc32 of the
name rather than Python's salted hash().
"""

from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError

# streams are keyed on 32-bit words: a seed of 2**SEED_BITS or more
# would read as another seed's streams
SEED_BITS = 32


def check_seed(seed: int) -> None:
    """Raise ConfigError naming `seed` unless 0 <= seed < 2**SEED_BITS."""
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if seed >= 1 << SEED_BITS:
        raise ConfigError(f"seed must be below 2**{SEED_BITS}, got {seed}")


def rng_for(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for stream `name` under `seed`.

    Extra integers (e.g. an epoch index) extend the entropy key, giving one
    independent stream per (seed, name, *extra) tuple.
    """
    key = [int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode("utf-8"))]
    key.extend(int(x) & 0xFFFFFFFF for x in extra)
    return np.random.default_rng(key)
