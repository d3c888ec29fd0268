"""Exact event-driven simulation of a K-pool stochastic SIR model.

Each pool mixes homogeneously inside and is weakly coupled to the others
through traveling infecteds. Three kinds of reaction channels drive the
continuous-time Markov jump dynamics:

  infection     S(k) + I(k)  -> 2 I(k)        rate  beta * I(k) * S(k) / M(k)
  transmission  S(k) + I(k') -> I(k) + I(k')  rate  alpha * beta * I(k') * S(k) / M(k)
  recovery      I(k)         -> (removed)     rate  gamma * I(k)

`simulate_interval` lists the channels once, in a reaction table of rate
laws and (pool, dS, dI) moves, in this order: the infections k = 0..K-1,
the transmissions (k, k') for k = 0..K-1 and then k' != k, the recoveries
k = 0..K-1.

A state is plain counts, one susceptible and one infected count per pool;
recovered counts are implicit: R(k) = M(k) - S(k) - I(k). Simulation is
the exact stochastic simulation algorithm (Gillespie direct method) with
exponential holding times; rates are recomputed after every event.

Draw protocol of both kernels, per interval: while an event can still
happen (the total rate is positive), the kernel takes its draws from a
chunk, `_CHUNK` standard exponentials and then `_CHUNK` uniforms, each
drawn in one numpy call; event k of the chunk uses exponential k for its
holding time and uniform k to pick its channel, and a new chunk is drawn
when one runs out. A frozen state draws nothing. The draws left in the
last chunk when the interval ends are discarded: they are independent of
the path, and holding times are memoryless, so the law stays exact.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

from .rng import RngStream

# event draws per chunk: timed on the intervals of a case-study solve (2-core
# x86-64, numpy 2.4), 64 and 128 tie, and 32 and 256 cost 5-10 % more
_CHUNK = 64


@dataclass(frozen=True)
class EpidemicParams:
    """Outbreak parameters shared by the full and reduced models.

    Attributes:
        beta: within-pool contact rate per unit time.
        gamma: recovery rate per unit time.
        alpha: traveler fraction; cross-pool contacts happen at alpha * beta.
        pool_sizes: fixed population of each pool.
        sigma_delta: standard deviation of the pseudo-posterior noise used
            by the reduced detection model.
    """

    beta: float
    gamma: float
    alpha: float
    pool_sizes: tuple[int, ...]
    sigma_delta: float = 0.0

    def __post_init__(self):
        if len(self.pool_sizes) < 1 or any(m < 1 or m % 1 for m in self.pool_sizes):
            raise ValueError(f"pool_sizes must be positive integers, got {self.pool_sizes}")
        object.__setattr__(self, "pool_sizes", tuple(int(m) for m in self.pool_sizes))
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        if self.sigma_delta < 0:
            raise ValueError(f"sigma_delta must be nonnegative, got {self.sigma_delta}")
        for name in ("beta", "gamma", "sigma_delta"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")

    @property
    def n_pools(self) -> int:
        return len(self.pool_sizes)


def single_pool_interval(
    s: int, i: int, m: int, beta: float, gamma: float, duration: float,
    gen,
) -> tuple[int, int]:
    """Advance one isolated SIR pool by `duration` time units.

    Tight kernel of the reduced detection model's Pool-1 dynamics; on one
    pool, `simulate_interval` makes the same draws in the same order. Draws
    follow the module's chunk protocol: a chunk is drawn only while I > 0,
    and each event takes one exponential for its holding time and one
    uniform for its channel (infection scanned before recovery).
    Raises ValueError unless S >= 0, I >= 0 and S + I <= M; the events keep
    that invariant, since S falls only by infection (rate 0 at S = 0), I
    falls only while I > 0, and S + I never rises.

    The loop keeps S, I and M as floats and returns ints. The counts stay
    far below 2**53, so every product, comparison and draw is the one the
    int state makes; the float state only spares each product its int
    conversion.
    """
    if s < 0 or i < 0 or s + i > m:
        raise ValueError(f"pool state S={s}, I={i} does not fit pool size {m}")
    s, i, m = float(s), float(i), float(m)
    t = 0.0
    while i > 0:
        exps = gen.standard_exponential(_CHUNK).tolist()
        us = gen.random(_CHUNK).tolist()
        for e, u in zip(exps, us):
            r_inf = beta * i * s / m
            total = r_inf + gamma * i
            t += e / total
            if t > duration:
                return int(s), int(i)
            if u * total < r_inf:
                s -= 1.0
                i += 1.0
            else:
                i -= 1.0
                if i == 0.0:
                    break
    return int(s), int(i)


def simulate_interval(
    s: Sequence[int],
    i: Sequence[int],
    params: EpidemicParams,
    duration: float,
    rng: RngStream,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Exact SSA evolution of the pools' counts over `duration` time units.

    `s` and `i` hold one susceptible and one infected count per pool; the
    result is the pair (s, i) of count tuples after `duration`. Waiting
    times are exponential with the total rate. An event's uniform times the
    total picks the first channel of the reaction table whose running rate
    sum exceeds it (the last if rounding leaves none), and the channel
    moves one individual. Draws follow the module's chunk protocol. If the
    total rate hits zero the remaining interval passes without events or
    further draws. Raises ValueError unless there is one count pair per
    pool and every pool has S >= 0, I >= 0 and S + I <= M.
    """
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    K = params.n_pools
    sizes = params.pool_sizes
    n = len(s) if len(s) != K else len(i)
    if n != K:
        raise ValueError(f"state has {n} pools, params expect {K}")
    for sk, ik, m in zip(s, i, sizes):
        if sk < 0 or ik < 0 or sk + ik > m:
            raise ValueError(f"pool state S={sk}, I={ik} does not fit pool size {m}")
    gen = rng.generator
    beta, gamma = params.beta, params.gamma
    # The state x = (S(0..K-1), I(0..K-1), 1) and the reaction table: channel
    # j has rate c * x[a] * x[b] / m by its row (c, a, b, m) of `laws`, and
    # its (pool, dS, dI) row of `moves` moves one individual. A recovery's
    # rate gamma * I(k) * 1 / 1 is the float gamma * I(k).
    x = [*s, *i, 1]
    contacts = [(beta, K + k, k, sizes[k]) for k in range(K)] + [
        (params.alpha * beta, K + kp, k, sizes[k]) for k in range(K) for kp in range(K) if kp != k]
    laws = contacts + [(gamma, K + k, 2 * K, 1) for k in range(K)]
    moves = [(k, -1, 1) for _, _, k, _ in contacts] + [(k, 0, -1) for k in range(K)]
    last = len(moves) - 1
    t = 0.0
    exps, us, used = [], [], 0
    while True:
        acc = list(accumulate([c * x[a] * x[b] / m for c, a, b, m in laws]))
        total = acc[-1]
        if total <= 0.0:
            break
        if used == len(exps):
            exps = gen.standard_exponential(_CHUNK).tolist()
            us = gen.random(_CHUNK).tolist()
            used = 0
        t += exps[used] / total
        if t > duration:
            break
        k, ds, di = moves[bisect_right(acc, us[used] * total, 0, last)]  # hi clamps
        used += 1
        x[k] += ds
        x[K + k] += di
    return tuple(x[:K]), tuple(x[K:-1])


def outbreak_time(i2: Sequence[int]) -> Optional[int]:
    """First integer epoch at which Pool 2 holds infecteds.

    `i2` holds Pool 2's infected counts at epochs t = 0, 1, 2, ... . Returns
    the smallest t with i2[t] > 0, so 0 if Pool 2 is infected from the start
    (any later first positive count follows a zero), and None if Pool 2
    never gets infected within the trajectory.
    """
    return next((t for t, infected in enumerate(i2) if infected > 0), None)
