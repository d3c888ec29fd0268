"""Reduced Markov detection state: Pool-1 counts plus an outbreak pseudo-posterior.

The detection problem runs on the 3-D state (S1, I1, P) observed at integer
stages. S1 and I1 follow the one-pool stochastic SIR dynamics; P tracks the
probability that the outbreak has reached the unobserved second pool. Per
stage, P gains the cross-infection drift alpha * beta * I1 * (1 - P) plus
i.i.d. noise and is clamped to [0, 1]; P = 1 is absorbing.

A 2-D large-population variant drops S1 and advances I1 as a linear
birth-death (branching) process with birth rate beta * I1 and death rate
gamma * I1, which is accurate while S1 / M1 is close to one. Its law over a
stage has a closed form (Kendall 1948), so a stage is one exact draw at any
I1 instead of one draw per birth or death.

`step` advances plain numbers; `solver.run_scenarios` keeps the states of
a block of paths in arrays. `ReducedState` is only the checked start state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .rng import RngStream
from .sir import EpidemicParams, single_pool_interval


class ModelVariant(str, Enum):
    """Which Pool-1 dynamics drive the detection state."""

    FULL3D = "full3d"  # (S1, I1, P) with exact single-pool SIR
    LP2D = "lp2d"      # (I1, P) branching approximation; S1 is frozen


@dataclass(frozen=True)
class ReducedState:
    """Checked start state of a detection path: whole counts >= 0, P in [0, 1]."""

    s1: int
    i1: int
    p: float

    def __post_init__(self):
        if self.s1 < 0 or self.i1 < 0:
            raise ValueError(f"negative count in reduced state: {self}")
        if self.s1 % 1 or self.i1 % 1:
            raise ValueError(f"fractional count in reduced state: {self}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"outbreak probability must lie in [0, 1], got {self.p}")


def drift(i1: int, p: float, params: EpidemicParams) -> float:
    """One-stage upward drift of P: alpha * beta * I1 * (1 - P)."""
    return params.alpha * params.beta * i1 * (1.0 - p)


def branching_law(beta: float, gamma: float, duration: float) -> tuple[float, float]:
    """(a, b) of the linear birth-death process over `duration` (Kendall 1948).

    One ancestor leaves no descendant with probability a; otherwise it leaves
    a geometric number n >= 1 of them, P(n) = (1 - b) b^(n - 1). With
    tau = expm1((beta - gamma) t) / (beta - gamma), or tau = t when
    beta = gamma, a = gamma tau / (1 + beta tau) and b = beta tau / (1 + beta tau).
    """
    rate = beta - gamma
    tau = math.expm1(rate * duration) / rate if rate != 0.0 else duration
    return gamma * tau / (1.0 + beta * tau), beta * tau / (1.0 + beta * tau)


def _branching_unit(i: int, beta: float, gamma: float, duration: float, gen) -> int:
    """Linear birth-death process over `duration` from `i` ancestors, in one exact draw.

    K ~ Bin(i, 1 - a) ancestors leave descendants, and K geometric families
    on n >= 1 sum to K + NegBin(K, 1 - b), with (a, b) from `branching_law`.
    I1 = 0, and K = 0, draw nothing further.
    """
    if i == 0:
        return 0
    a, b = branching_law(beta, gamma, duration)
    k = gen.binomial(i, 1.0 - a)
    return k + gen.negative_binomial(k, 1.0 - b) if k > 0 else 0


def update_p(i1: int, p: float, params: EpidemicParams, gen) -> float:
    """One stage of P from the incoming I1 and P, with delta drawn from `gen`.

    P' = clamp(P + alpha*beta*I1*(1-P) + delta, 0, 1), with delta drawn
    from the centered Gaussian of standard deviation params.sigma_delta.
    P = 1 is absorbing and consumes no noise draw.
    """
    if p == 1.0:
        return 1.0
    p_next = p + drift(i1, p, params) + gen.normal(0.0, params.sigma_delta)
    if p_next <= 0.0:
        return 0.0
    return 1.0 if p_next >= 1.0 else p_next


def step(s1: int, i1: int, p: float, params: EpidemicParams, variant: ModelVariant,
         rng: RngStream) -> tuple[int, int, float]:
    """Advance the detection state (s1, i1, p) of Python ints and a float by one stage.

    Pool-1 counts move first (SIR kernel or branching, by variant), then P
    moves by `update_p`, with the drift evaluated at the incoming state.
    A stage whose counts nobody reads, the horizon stage of a solver
    scenario, takes `update_p` alone (see `solver.scenario_costs`).
    """
    gen = rng.generator
    if variant is ModelVariant.FULL3D:
        s1_next, i1_next = single_pool_interval(
            s1, i1, params.pool_sizes[0], params.beta, params.gamma, 1.0, gen
        )
    elif variant is ModelVariant.LP2D:
        s1_next = s1
        i1_next = _branching_unit(i1, params.beta, params.gamma, 1.0, gen)
    else:
        raise ValueError(f"unknown model variant: {variant!r}")
    return s1_next, i1_next, update_p(i1, p, params, gen)
