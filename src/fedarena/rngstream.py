"""Deterministic per-operation random streams.

Each stochastic operation draws from its own generator derived from the
experiment seed plus a tag, so reordering operations (or running them in
parallel) never changes what any single operation sees. Tags are hashed
with blake2b because Python's builtin hash() is salted per process.

The training loops read many small streams: each round's participants,
a batch per client per round and, in async runs, a delay per
participant. A numpy Generator per stream costs more to build than its
few draws, so the engine draws a block of rounds at a time, each kind in
one vectorised pass over many streams: `sorted_choices` and `integers`,
fed by `keyed_words`. Each returns what the stream's own Generator
would, bit for bit. They run numpy's `SeedSequence` mixing (grouped by
entropy length), `PCG64`'s seeding and XSL-RR output in fixed-width
uint64 arithmetic, the 32-bit Lemire bound of `Generator.integers` and
`Generator.choice`, and Floyd's selection of `choice(..., replace=False)`.
A stream that reaches another of numpy's branches is drawn through its
own Generator instead: a draw Lemire rejects (numpy draws again), a
tail-shuffle selection (pop > 10000 and size > pop // 50) and a range of
2**32 - 1 or more.
"""

import hashlib

import numpy as np


def _tag_bytes(tags) -> bytes:
    return b"".join([repr(tag).encode() + b"\x1f" for tag in tags])


def derive_seed(seed: int, *tags) -> int:
    """Collapse (seed, tags) to one stable integer seed."""
    h = hashlib.blake2b(repr(int(seed)).encode() + _tag_bytes(tags), digest_size=8)
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


def stream_words(seed: int, *tags) -> list[int]:
    """The entropy words of the stream keyed by (seed, tags): the uint32
    words numpy makes of [seed, derive_seed(seed, *tags)]."""
    seed = int(seed)
    return _words(seed) + _words(derive_seed(seed, *tags))


def keyed_words(seed: int, tag, keys) -> list[list[int]]:
    """`stream_words(seed, tag, *key)` for each tuple `key` of `keys`, with
    the blake2b state of the shared (seed, tag) prefix hashed once."""
    seed = int(seed)
    head = _words(seed)
    prefix = hashlib.blake2b(repr(seed).encode() + _tag_bytes((tag,)), digest_size=8)
    out = []
    for key in keys:
        h = prefix.copy()
        h.update(_tag_bytes(key))
        derived = int.from_bytes(h.digest(), "big")  # below 2**64: _words, inlined
        out.append(head + ([derived & 0xFFFFFFFF, derived >> 32] if derived >> 32 else [derived]))
    return out


def substream(seed: int, *tags) -> np.random.Generator:
    """Return a Generator keyed by (seed, tags), stable across processes.

    It is np.random.default_rng([seed, derive_seed(seed, *tags)]), with the
    entropy handed over as the uint32 words numpy would split it into,
    which skips numpy's per-integer coercion.
    """
    return _generator(stream_words(seed, *tags))


def _generator(words) -> np.random.Generator:
    return np.random.default_rng(np.array(words, dtype=np.uint32))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_U32 = np.uint32
_U64 = np.uint64


def _shift16(v: np.ndarray) -> np.ndarray:
    return v ^ (v >> _U32(16))


def _seed_pool(words: np.ndarray) -> list[np.ndarray]:
    """SeedSequence.mix_entropy over the rows of `words` (n, L uint32): the
    four pool words of each row. The hash constant advances the same way
    for every row, so it stays a Python integer."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ _U32(h)
        h = (h * _MULT_A) & _M32
        return _shift16(value * _U32(h))

    def mix(x, y):
        return _shift16(_U32(_MIX_MULT_L) * x - _U32(_MIX_MULT_R) * y)

    n, length = words.shape
    zero = np.zeros(n, dtype=_U32)
    pool = [hashmix(words[:, i] if i < length else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, length):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    return pool


def _seed_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.generate_state(4, np.uint64) from the pool words."""
    h = _INIT_B
    out = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ _U32(h)
        h = (h * _MULT_B) & _M32
        out.append(_shift16(value * _U32(h)).astype(_U64))
    return [out[2 * i] | (out[2 * i + 1] << _U64(32)) for i in range(_POOL_SIZE)]


def _mul64(a, b):
    """Full 128-bit products of uint64 arrays, as (high, low) halves."""
    m = _U64(_M32)
    a0, a1, b0, b1 = a & m, a >> _U64(32), b & m, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & m) + (p10 & m)
    high = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return high, a * b


def _mul128(ah, al, bh, bl):
    high, low = _mul64(al, bl)
    return high + ah * bl + al * bh, low


def _add128(ah, al, bh, bl):
    low = al + bl
    return ah + bh + (low < al), low


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    return (
        np.array([v >> 64 for v in values], dtype=_U64),
        np.array([v & 0xFFFFFFFFFFFFFFFF for v in values], dtype=_U64),
    )


def _pcg64_uint32s(entropy, count: int) -> np.ndarray:
    """The first `count` next_uint32 values (as uint64) of the PCG64 seeded
    by each stream's entropy words, one row per stream: numpy's
    SeedSequence, grouped by word count, then the low and the high half
    of each 64-bit output in turn."""
    n = len(entropy)
    lengths = np.array([len(w) for w in entropy])
    seeds = [np.empty(n, dtype=_U64) for _ in range(_POOL_SIZE)]
    for length in set(lengths.tolist()):
        rows = np.flatnonzero(lengths == length)
        words = np.array([entropy[r] for r in rows], dtype=_U32).reshape(rows.size, length)
        for out, word in zip(seeds, _seed_words(_seed_pool(words))):
            out[rows] = word
    # pcg64_set_seed: the increment is (seed[2]:seed[3] << 1) | 1; the state
    # steps once from 0, adds seed[0]:seed[1] and steps again
    inc = (seeds[2] << _U64(1)) | (seeds[3] >> _U64(63)), (seeds[3] << _U64(1)) | _U64(1)
    mult = _halves([_PCG_MULT])
    state = _add128(*_mul128(*_add128(*inc, seeds[0], seeds[1]), *mult), *inc)
    # output k is drawn from the state k steps on: state * MULT**k + inc *
    # (1 + MULT + ... + MULT**(k-1)), every k in one pass
    outputs = (count + 1) // 2
    powers, sums = [], []
    power, total = 1, 0
    for _ in range(outputs):
        total = (total + power) & _M128
        power = (power * _PCG_MULT) & _M128
        powers.append(power)
        sums.append(total)
    col = np.s_[:, None]
    high, low = _add128(
        *_mul128(state[0][col], state[1][col], *_halves(powers)),
        *_mul128(inc[0][col], inc[1][col], *_halves(sums)),
    )
    # XSL-RR: high ^ low, rotated right by the state's top 6 bits
    rot = high >> _U64(58)
    x = high ^ low
    out = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    values = np.empty((n, 2 * outputs), dtype=_U64)
    values[:, 0::2] = out & _U64(_M32)
    values[:, 1::2] = out >> _U64(32)
    return values[:, :count]


def _lemire(values: np.ndarray, rng: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """numpy's 32-bit Lemire bound of next_uint32 `values` onto [0, rng]
    (uint64, each below 2**32 - 1): the draws and whether each would be
    rejected, where numpy draws again."""
    excl = rng + _U64(1)
    m = values * excl
    rejected = (m & _U64(_M32)) < (_U64(1 << 32) - excl) % excl
    return (m >> _U64(32)).astype(np.int64), rejected


def sorted_choices(entropy, pops, size: int) -> np.ndarray:
    """Row i is np.sort(Generator.choice(pops[i], size, replace=False)) of
    the Generator seeded by the entropy words `entropy[i]` (see
    `stream_words`), as an (n, size) int64 array."""
    pops = np.asarray(pops, dtype=np.int64)
    if size < 0 or np.any(pops < size):
        raise ValueError(f"expected 0 <= size <= pop, got size {size}")
    # numpy shuffles a tail of arange(pop) instead of running Floyd's
    # selection when pop > 10000 and size > pop // 50
    slow = ((pops > 10000) & (size > pops // 50)) | (pops - 1 >= _M32)
    fast = np.flatnonzero(~slow)
    # Floyd's selection: step i draws on [0, j], j = pop - size + i; a j of 0
    # draws nothing, so a stream with pop == size reads value i - 1 at step i
    steps = np.arange(size)
    pop = pops[fast, None]
    j = pop - size + steps
    col = np.maximum(steps - (pop == size), 0)
    values = _pcg64_uint32s([entropy[i] for i in fast], size)
    chosen, rejected = _lemire(np.take_along_axis(values, col, axis=1), j.astype(_U64))
    for i in range(1, size):
        # a value already chosen is replaced by j, which never was
        seen = (chosen[:, :i] == chosen[:, i, None]).any(axis=1)
        chosen[:, i] = np.where(seen, j[:, i], chosen[:, i])
    out = np.empty((pops.size, size), dtype=np.int64)
    out[fast] = np.sort(chosen, axis=1)
    for i in np.flatnonzero(slow).tolist() + fast[rejected.any(axis=1)].tolist():
        out[i] = np.sort(_generator(entropy[i]).choice(pops[i], size, replace=False))
    return out


def integers(entropy, highs) -> np.ndarray:
    """Per stream i (entropy words `entropy[i]`), the int64
    Generator.integers(0, highs[i]) of the Generator seeded by those words."""
    highs = np.asarray(highs, dtype=np.int64)
    if np.any(highs < 1):
        raise ValueError("expected high >= 1 for every stream")
    slow = highs - 1 >= _M32
    fast = np.flatnonzero(~slow)
    values = _pcg64_uint32s([entropy[i] for i in fast], 1)[:, 0]
    out = np.empty(highs.size, dtype=np.int64)
    out[fast], rejected = _lemire(values, (highs[fast] - 1).astype(_U64))
    for i in np.flatnonzero(slow).tolist() + fast[rejected].tolist():
        out[i] = _generator(entropy[i]).integers(0, highs[i])
    return out
