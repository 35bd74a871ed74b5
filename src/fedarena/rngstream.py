"""Deterministic per-operation random streams.

Each stochastic operation draws from its own generator derived from the
experiment seed plus a tag, so reordering operations (or running them in
parallel) never changes what any single operation sees. Tags are hashed
with blake2b because Python's builtin hash() is salted per process.
"""

import hashlib

import numpy as np


def derive_seed(seed: int, *tags) -> int:
    """Collapse (seed, tags) to one stable integer seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update(repr(int(seed)).encode())
    for tag in tags:
        h.update(repr(tag).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _words(n: int) -> list[int]:
    """A non-negative integer as numpy's SeedSequence reads entropy: 32-bit
    words, least significant first, one word for n below 2**32."""
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    n >>= 32
    while n:
        words.append(n & 0xFFFFFFFF)
        n >>= 32
    return words


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator keyed by (seed, tags), stable across processes.

    It is np.random.default_rng([seed, derive_seed(seed, *tags)]), with the
    entropy handed over as the uint32 words numpy would split it into,
    which skips numpy's per-integer coercion.
    """
    seed = int(seed)
    words = _words(seed) + _words(derive_seed(seed, *tags))
    return np.random.default_rng(np.array(words, dtype=np.uint32))
