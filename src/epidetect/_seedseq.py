"""Philox keys as `numpy.random.SeedSequence` derives them, for a span at once.

`span_keys` gives the keys of the spawn keys `path + (j,)`, j in lo..hi-1,
computing numpy's pool mixing and `generate_state(2, uint64)` for the whole
span in uint32 numpy arithmetic. `SpawnedKey` hands one of them to Philox.
The tests check the result bit for bit against `SeedSequence`.

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


def span_keys(master_seed: int, path: tuple[int, ...], lo: int,
              hi: int) -> Iterator[tuple[int, np.ndarray]]:
    """`(j, key)` for j in lo..hi-1, where `key` is the Philox key of
    `SeedSequence(master_seed, spawn_key=path + (j,))`."""
    head = _words(master_seed)
    head += [0] * (_POOL_SIZE - len(head))  # a seed with a spawn key is padded
    for k in path:
        head += _words(k)
    while lo < hi:
        n_words = len(_words(lo))  # refuses a negative index, as SeedSequence does
        stop = min(hi, 1 << 32 * n_words)  # every j up to here has n_words words
        tail = [np.array([j >> 32 * w & _MASK for j in range(lo, stop)], dtype=np.uint32)
                for w in range(n_words)]
        yield from zip(range(lo, stop), _philox_keys(head + tail))
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


def _philox_keys(entropy: list) -> np.ndarray:
    """The (n, 2) uint64 keys `generate_state(2, uint64)` gives for n
    entropy sequences.

    `entropy` holds at least `_POOL_SIZE` words, each a Python int shared by
    all n sequences or a uint32 array of n words, at least one of them an
    array. Every product is reduced modulo 2**32, as in numpy's C code.
    """
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * _MULT_A & _MASK
        value = value * hash_a & _MASK
        return value ^ (value >> 16)

    def mix(x, y):
        result = ((_MIX_MULT_L * x & _MASK) - (_MIX_MULT_R * y & _MASK)) & _MASK
        return result ^ (result >> 16)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b = _INIT_B
    state = []
    for word in pool:  # four uint32 state words, two per uint64 key word
        word = word ^ hash_b
        hash_b = hash_b * _MULT_B & _MASK
        word = word * hash_b & _MASK
        state.append(np.asarray(word ^ (word >> 16), dtype=np.uint64))
    return np.stack([state[0] | state[1] << 32, state[2] | state[3] << 32], axis=1)
