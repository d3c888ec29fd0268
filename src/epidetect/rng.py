"""Deterministic splittable random streams for reproducible Monte Carlo.

Every random draw in the package flows from a single master seed through
`RngStream`. A stream is addressed by an integer path; deriving the same
path from the same master seed always yields the same stream, no matter
where, when, or on which worker the derivation happens. Scenario `n` of
solver iteration `t` therefore consumes exactly the same random numbers
under serial and parallel execution.

Every stream's Philox key comes from `_seedseq`, which gives the key that
`numpy.random.SeedSequence(master_seed, spawn_key=path)` would generate:
for one stream from the constructor, and for a span of sibling streams in
one pass from `derive_span`. The tests check every key bit for bit against
`SeedSequence`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


class RngStream:
    """A counter-based random stream addressable by (master_seed, *path).

    The address selects the stream's key by `SeedSequence`'s spawn-key
    mixing, on top of the counter-based Philox bit generator, so derived
    streams are statistically independent and fully determined by their
    address.
    """

    __slots__ = ("master_seed", "path", "_gen")

    def __init__(self, master_seed: int, path: Sequence[int] = (), key=None):
        """`key`, if given, is the `_seedseq` key of this address, and `path`
        a tuple of ints; `derive_span` passes both."""
        self.master_seed = int(master_seed)
        if key is not None:
            self.path = path
        else:
            self.path = tuple(map(int, path))
            # imported here, not with the package: it loads numpy.random
            from ._seedseq import stream_key
            key = stream_key(self.master_seed, self.path)
        self._gen = np.random.Generator(np.random.Philox(key))

    def derive(self, *path: int) -> "RngStream":
        """Child stream at `self.path + path`; independent of draw order."""
        return RngStream(self.master_seed, self.path + path)

    def derive_span(self, prefix: Sequence[int], lo: int, hi: int) -> list["RngStream"]:
        """`[self.derive(*prefix, j) for j in range(lo, hi)]`, with the keys
        of the whole span derived in one pass."""
        from ._seedseq import span_keys

        path = self.path + tuple(map(int, prefix))
        return [RngStream(self.master_seed, path + (j,), key)
                for j, key in span_keys(self.master_seed, path, int(lo), int(hi))]

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (for hot loops)."""
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, path={self.path})"
