"""Experimental-design machinery: Latin hypercube candidates and acquisition.

The solver grows its simulation design adaptively: candidate locations come
from Latin hypercube sampling over the regression domain, each candidate is
scored by the probability that the surrogate currently misclassifies the
announce/wait sign there, and new batches are drawn multinomially in
proportion to the acquisition weight min(p, 1 - p) of that probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngStream


@dataclass(frozen=True)
class StateBox:
    """Axis-aligned regression domain with per-coordinate integer flags."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    integer: tuple[bool, ...]

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(v) for v in self.lower))
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))
        object.__setattr__(self, "integer", tuple(bool(v) for v in self.integer))
        if not len(self.lower) == len(self.upper) == len(self.integer):
            raise ValueError("lower, upper, integer must have equal lengths")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"need lower < upper per coordinate, got [{lo}, {hi}]")

    @property
    def dim(self) -> int:
        return len(self.lower)


def lhs(box: StateBox, count: int, rng: RngStream) -> np.ndarray:
    """Latin hypercube sample of `count` locations in `box`.

    Per coordinate the samples occupy each of the `count` equal-width bins
    exactly once; integer-flagged coordinates are then rounded to the
    nearest integer (which may create duplicates when the integer range is
    narrower than `count`).
    """
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    gen = rng.generator
    out = np.empty((count, box.dim))
    for j in range(box.dim):
        cells = gen.permutation(count)
        u = gen.random(count)
        frac = (cells + u) / count
        col = box.lower[j] + frac * (box.upper[j] - box.lower[j])
        if box.integer[j]:
            col = np.clip(np.rint(col), box.lower[j], box.upper[j])
        out[:, j] = col
    return out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def normal_tail(z):
    """Standard normal upper tail P(Z > z) = erfc(z / sqrt(2)) / 2, elementwise.

    A float for scalar `z`, else a float array of its shape.
    """
    tail = 0.5 * np.asarray(_erfc(np.divide(z, math.sqrt(2.0))), dtype=float)
    return float(tail) if tail.ndim == 0 else tail


def boundary_probability(qhat, stderr, d):
    """Probability that the estimated sign of qhat - d is wrong.

    Treats the surrogate value as Gaussian with mean `qhat` and standard
    deviation `stderr`: returns Phi(-|qhat - d| / stderr). With stderr = 0
    the sign is certain (0) unless qhat = d exactly (0.5). Vectorized.
    """
    qhat = np.asarray(qhat, dtype=float)
    stderr = np.asarray(stderr, dtype=float)
    gap = np.abs(qhat - d)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, gap / np.where(stderr > 0, stderr, 1.0), np.inf)
    p = np.where((stderr == 0) & (gap == 0), 0.5, normal_tail(z))
    if p.ndim == 0:
        return float(p)
    return p


def acquisition_weight(p):
    """Sampling preference min(p, 1 - p) for boundary probability `p`.

    Maximal at p = 0.5 and zero at p in {0, 1}. Vectorized.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise ValueError("boundary probabilities must lie in [0, 1]")
    w = np.minimum(p, 1.0 - p)
    if w.ndim == 0:
        return float(w)
    return w


def sample_indices(
    weights: np.ndarray, batch: int, rng: RngStream
) -> tuple[np.ndarray, bool]:
    """Indices of `batch` multinomial draws proportional to `weights`.

    If every weight is zero the draw falls back to uniform sampling; the
    second return value flags that fallback.
    """
    weights = np.asarray(weights, dtype=float)
    if batch < 1:
        raise ValueError(f"batch must be positive, got {batch}")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite and nonnegative")
    total = weights.sum()
    fallback = not total > 0
    if fallback:
        probs = np.full(weights.shape[0], 1.0 / weights.shape[0])
    else:
        probs = weights / total
    idx = rng.generator.choice(weights.shape[0], size=batch, replace=True, p=probs)
    return idx, fallback
