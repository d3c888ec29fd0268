"""The exact lp2d detection problem by backward induction, as a test oracle.

On the state (I1, P) the lp2d variant moves I1 as a linear birth-death
process and P to clamp(P + alpha beta I1 (1 - P) + delta, 0, 1), with delta
Gaussian of standard deviation sigma and P = 1 absorbing. Announcing costs
d(P) = C_FA (1 - P); a stage of waiting costs C_Delay P. With t stages
left the optimal cost is

    V_0 = d,    V_t(I, P) = min(d(P), C_Delay P + E V_{t-1}(I', P')),

and the map's margin qhat - d is m_t = C_Delay P + E V_{t-1} - d, positive
where announcing is optimal. Everything here is numpy only and shares no
code with the package:

  * the one-ancestor law of a stage comes from its own pmf code (Kendall
    1948): no descendant with probability a, otherwise a geometric number
    n >= 1 with ratio b. The transition rows are repeated convolutions of
    that pmf, I1 runs over 0..n_max and counts above n_max are lumped onto
    n_max;
  * I' and delta are independent and the drift reads the incoming I1, so a
    stage first sums A = T V over I' and then reads A(I, .) at the nodes
    clamp(P + drift + delta_j) by linear interpolation on the P grid, with
    41 Gauss-Hermite nodes for delta. The reads run over chunks of I1 rows,
    which bounds the interpolation arrays.

`margins` is cached per process, so a test session solves each grid once.
"""
from __future__ import annotations

import functools
import math

import numpy as np

# the case study: beta, gamma, alpha, sigma_delta, C_FA, C_Delay
CASE = (0.75, 0.5, 0.01, 0.01, 20.0, 1.0)
NODES = 41  # Gauss-Hermite nodes for delta
_CHUNK_ENTRIES = 1 << 19  # interpolation entries (rows x P x nodes) per chunk


def one_ancestor_pmf(beta: float, gamma: float, n_max: int) -> np.ndarray:
    """pmf of one ancestor's line after one stage on 0..n_max (at least 1), the
    tail on n_max."""
    rate = beta - gamma
    tau = math.expm1(rate) / rate if rate != 0.0 else 1.0
    a, b = gamma * tau / (1.0 + beta * tau), beta * tau / (1.0 + beta * tau)
    pmf = np.empty(n_max + 1)
    pmf[0] = a
    pmf[1:] = (1.0 - a) * (1.0 - b) * b ** np.arange(n_max)
    pmf[n_max] = (1.0 - a) * b ** (n_max - 1)  # P(n >= n_max)
    return pmf


def transition(beta: float, gamma: float, n_max: int) -> np.ndarray:
    """T[i, j] = P(I' = j | I = i) over 0..n_max, counts above n_max on n_max.

    Row i is row i - 1 convolved with the one-ancestor pmf; a lumped count
    stays at or above n_max after any convolution, so lumping each row is
    exact for min(I', n_max).
    """
    pmf = one_ancestor_pmf(beta, gamma, n_max)
    T = np.zeros((n_max + 1, n_max + 1))
    T[0, 0] = 1.0
    for i in range(1, n_max + 1):
        row = np.convolve(T[i - 1], pmf)
        T[i] = row[:n_max + 1]
        T[i, n_max] += row[n_max + 1:].sum()
    return T


@functools.lru_cache(maxsize=None)
def margins(stages: int, n_max: int, p_steps: int) -> np.ndarray:
    """m_t(I, P) of the case study for t = 1..stages, I = 0..n_max and
    P = k / p_steps.

    Returns a (stages, n_max + 1, p_steps + 1) array; V_t = d + min(m_t, 0).
    """
    beta, gamma, alpha, sigma, c_fa, c_delay = CASE
    p = np.arange(p_steps + 1) / p_steps
    d = c_fa * (1.0 - p)
    drifted = p + alpha * beta * np.arange(n_max + 1)[:, None] * (1.0 - p)
    x, wts = np.polynomial.hermite.hermgauss(NODES)
    delta, wts = math.sqrt(2.0) * sigma * x, wts / math.sqrt(math.pi)
    T = transition(beta, gamma, n_max)
    chunk = max(1, _CHUNK_ENTRIES // ((p_steps + 1) * NODES))

    out = np.empty((stages, n_max + 1, p_steps + 1))
    value = np.broadcast_to(d, (n_max + 1, p_steps + 1))
    expected = np.empty((n_max + 1, p_steps + 1))
    for t in range(stages):
        A = T @ value
        for lo in range(0, n_max + 1, chunk):
            rows = A[lo:lo + chunk]
            pos = np.clip(drifted[lo:lo + chunk, :, None] + delta, 0.0, 1.0) * p_steps
            left = np.minimum(pos.astype(np.intp), p_steps - 1)
            frac = pos - left
            left += (np.arange(rows.shape[0]) * (p_steps + 1))[:, None, None]
            flat = rows.ravel()
            expected[lo:lo + chunk] = (flat[left] * (1.0 - frac) + flat[left + 1] * frac) @ wts
        expected[:, -1] = A[:, -1]  # P = 1 is absorbing: no noise there
        out[t] = c_delay * p + expected - d
        value = d + np.minimum(out[t], 0.0)
    out.flags.writeable = False  # cached: shared by every caller
    return out


def value(stages: int, i1: int, p: float, n_max: int, p_steps: int) -> float:
    """V_stages(i1, p) of the case study at a P on the grid."""
    k = round(p * p_steps)
    d = CASE[4] * (1.0 - k / p_steps)
    return d + min(margins(stages, n_max, p_steps)[stages - 1, i1, k], 0.0)


def boundary(margin: np.ndarray) -> np.ndarray:
    """The announce boundary in P on each line of a margin table (rows over P).

    The first root of the margin in P, where it turns from wait (< 0) to
    announce (>= 0), by linear interpolation between grid points; 0 on a
    line that announces at P = 0.
    """
    p_steps = margin.shape[-1] - 1
    first = np.argmax(margin >= 0.0, axis=-1)
    rows = np.arange(margin.shape[0])
    lo = np.maximum(first - 1, 0)
    m0, m1 = margin[rows, lo], margin[rows, first]
    frac = np.where(first > 0, -m0 / np.where(first > 0, m1 - m0, 1.0), 0.0)
    return (lo + frac) / p_steps
