"""Deterministic splittable random streams for reproducible Monte Carlo.

Every random draw in the package flows from a single master seed through
`RngStream`. A stream is addressed by an integer path; deriving the same
path from the same master seed always yields the same stream, no matter
where, when, or on which worker the derivation happens. Scenario `n` of
solver iteration `t` therefore consumes exactly the same random numbers
under serial and parallel execution.

`RngStream.derive_span` gives a span of sibling streams in one pass. Its
Philox keys reproduce `numpy.random.SeedSequence` for the whole span at
once (`_seedseq`); the tests check them bit for bit against `derive`,
which stays on `SeedSequence`.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np


class RngStream:
    """A counter-based random stream addressable by (master_seed, *path).

    Splitting is done with `numpy.random.SeedSequence` spawn keys on top of
    the counter-based Philox bit generator, so derived streams are
    statistically independent and fully determined by their address.
    """

    __slots__ = ("master_seed", "path", "_gen")

    def __init__(self, master_seed: int, path: tuple[int, ...] = ()):
        self.master_seed = int(master_seed)
        self.path = tuple(int(k) for k in path)
        seq = np.random.SeedSequence(self.master_seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def derive(self, *path: int) -> "RngStream":
        """Child stream at `self.path + path`; independent of draw order."""
        return RngStream(self.master_seed, self.path + tuple(int(k) for k in path))

    def derive_span(self, prefix: Sequence[int], lo: int, hi: int) -> list["RngStream"]:
        """`[self.derive(*prefix, j) for j in range(lo, hi)]`, in one pass.

        The streams hold the same keys, so they give the same draws.
        """
        # imported here, not with the package: it loads numpy.random
        from ._seedseq import SpawnedKey, span_keys

        path = self.path + tuple(int(k) for k in prefix)
        streams = []
        for j, key in span_keys(self.master_seed, path, int(lo), int(hi)):
            stream = RngStream.__new__(RngStream)
            stream.master_seed, stream.path = self.master_seed, path + (j,)
            stream._gen = np.random.Generator(np.random.Philox(SpawnedKey(key)))
            streams.append(stream)
        return streams

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (for hot loops)."""
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, path={self.path})"
