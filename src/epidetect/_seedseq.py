"""Philox keys as `numpy.random.SeedSequence` derives them: the one key derivation of `rng`.

`stream_key` gives the key of `SeedSequence(master_seed, spawn_key=path)`,
and `span_keys` those of the spawn keys `path + (j,)`, j in lo..hi-1, at
once. Both run numpy's pool mixing and `generate_state(2, uint64)` in
`_philox_keys`, on Python ints; for a span, the lowest word of j is a uint64
array. `SpawnedKey` hands a key to Philox. The tests check every key bit for
bit against `SeedSequence`.

`rng` imports this module on first use, so that importing the package does
not import `numpy.random`.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# the constants of numpy's SeedSequence
_MASK = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


class SpawnedKey(ISeedSequence):
    """Hands `Philox` the key that its `SeedSequence` would have generated."""

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key  # Philox asks for (2, uint64), its key


def stream_key(master_seed: int, path: tuple[int, ...]) -> SpawnedKey:
    """The key of `SeedSequence(master_seed, spawn_key=path)`."""
    return SpawnedKey(_philox_keys(master_seed, [w for k in path for w in _words(k)]))


def span_keys(master_seed: int, path: tuple[int, ...], lo: int,
              hi: int) -> Iterator[tuple[int, SpawnedKey]]:
    """`(j, key)` for j in lo..hi-1, where `key` is the key of
    `SeedSequence(master_seed, spawn_key=path + (j,))`."""
    head = [w for k in path for w in _words(k)]
    while lo < hi:
        low, *high = _words(lo)  # refuses a negative index, as SeedSequence does
        stop = min(hi, (lo | _MASK) + 1)  # every j up to here has lo's high words
        words = head + [np.arange(low, low + stop - lo, dtype=np.uint64), *high]
        yield from zip(range(lo, stop), map(SpawnedKey, _philox_keys(master_seed, words)))
        lo = stop


def _words(n: int) -> list[int]:
    """`n` as SeedSequence reads it: 32-bit words, least significant first."""
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _MASK]
    while n > _MASK:
        n >>= 32
        words.append(n & _MASK)
    return words


def _philox_keys(master_seed: int, path_words: list) -> np.ndarray:
    """The key `generate_state(2, uint64)` gives once numpy has mixed the
    words of `master_seed` and then `path_words` into its pool.

    A path word is a Python int, or a uint64 array that holds that word of n
    spawn keys; the result is then the (n, 2) keys rather than one (2,) key.
    uint64 holds every product of two words below 2**32, so `& _MASK`
    reduces modulo 2**32 on arrays as on ints, as numpy's C code does.
    """
    words = _words(master_seed)
    # numpy pads a seed only before a spawn key; without one, its pool
    # hashes a zero for each missing word, which comes to the same
    words += [0] * (_POOL_SIZE - len(words)) + path_words
    pool, hash_a = words[:_POOL_SIZE], _INIT_A
    for i, word in enumerate(pool):
        pool[i], hash_a = _hash(word, hash_a, _MULT_A)
    for src in range(_POOL_SIZE):
        hash_a = _mix_in(pool, pool[src], hash_a, skip=src)
    for word in words[_POOL_SIZE:]:
        hash_a = _mix_in(pool, word, hash_a)
    hash_b = _INIT_B
    for i, word in enumerate(pool):  # two 32-bit state words per uint64 key word
        pool[i], hash_b = _hash(word, hash_b, _MULT_B)
    return np.array([pool[0] | pool[1] << 32, pool[2] | pool[3] << 32], dtype=np.uint64).T


def _hash(value, hash_const: int, mult: int) -> tuple:
    """numpy's hashmix of `value` under `hash_const`, and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK
    value = value * hash_const & _MASK
    return value ^ value >> 16, hash_const


def _mix_in(pool: list, word, hash_a: int, skip: int = -1) -> int:
    """Mix numpy's hashes of `word` into every pool word but `skip`; returns
    the next hash constant."""
    for dst in range(_POOL_SIZE):
        if dst != skip:
            value, hash_a = _hash(word, hash_a, _MULT_A)
            value = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * value & _MASK
            pool[dst] = value ^ value >> 16
    return hash_a
