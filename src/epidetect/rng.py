"""Deterministic splittable random streams for reproducible Monte Carlo.

Every random draw in the package flows from a single master seed through
`RngStream`. A stream is addressed by an integer path; deriving the same
path from the same master seed always yields the same stream, no matter
where, when, or on which worker the derivation happens. Scenario `n` of
solver iteration `t` therefore consumes exactly the same random numbers
under serial and parallel execution.
"""
from __future__ import annotations

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

    @property
    def generator(self) -> np.random.Generator:
        """The underlying numpy Generator (for hot loops)."""
        return self._gen

    def __repr__(self) -> str:
        return f"RngStream(master_seed={self.master_seed}, path={self.path})"
