"""Reference SSA oracles for the tests: the K-pool reaction channels, their
rates, a one-event Gillespie draw, the chunk draw protocol, and the
scalar-draw single-pool sampler.

`simulate_interval` reads the same channel order from its reaction table
and makes the same draws; these readable versions check it rate by rate
and draw by draw.
"""
from typing import NamedTuple, Optional, Sequence

from epidetect import EpidemicParams, RngStream
from epidetect.sir import _CHUNK


class Channel(NamedTuple):
    """Identifier of one reaction channel."""

    kind: str  # "infection" | "transmission" | "recovery"
    pool: int  # pool whose compartments change
    source: Optional[int] = None  # infecting pool, transmission only


def transition_rates(
    s: Sequence[int], i: Sequence[int], params: EpidemicParams
) -> list[tuple[Channel, float]]:
    """All 2K + K(K-1) channel rates at the per-pool counts `s`, `i`.

    Order: infections for k = 0..K-1, transmissions for ordered pairs
    (k, k') with k' != k, recoveries for k = 0..K-1. All rates are
    nonnegative; every rate is zero once no pool has infecteds.
    """
    beta, gamma, alpha = params.beta, params.gamma, params.alpha
    sizes = params.pool_sizes
    K = params.n_pools

    rates: list[tuple[Channel, float]] = []
    for k in range(K):
        rates.append((Channel("infection", k), beta * i[k] * s[k] / sizes[k]))
    for k in range(K):
        for kp in range(K):
            if kp != k:
                rates.append(
                    (Channel("transmission", k, kp), alpha * beta * i[kp] * s[k] / sizes[k])
                )
    for k in range(K):
        rates.append((Channel("recovery", k), gamma * i[k]))
    return rates


class ChunkDraws:
    """The event draws of one interval, by the kernels' chunk protocol.

    `next()` returns event k's (exponential, uniform). The first call, and
    the first after every `_CHUNK` events, draws `_CHUNK` standard
    exponentials and then `_CHUNK` uniforms from the generator.
    """

    def __init__(self, rng: RngStream):
        self.gen = rng.generator
        self.exps, self.us, self.k = (), (), 0

    def next(self) -> tuple[float, float]:
        if self.k == len(self.exps):
            self.exps = self.gen.standard_exponential(_CHUNK)
            self.us = self.gen.random(_CHUNK)
            self.k = 0
        self.k += 1
        return float(self.exps[self.k - 1]), float(self.us[self.k - 1])


def first_event(
    s: Sequence[int], i: Sequence[int], params: EpidemicParams, rng: RngStream,
    draws: Optional[ChunkDraws] = None,
) -> Optional[tuple[Channel, float, tuple[int, ...], tuple[int, ...]]]:
    """Draw the next reaction: (channel, waiting time, new s, new i).

    Returns None, drawing nothing, when the total rate is zero (frozen
    state). Uses the same draw protocol as `simulate_interval`: the next
    (exponential, uniform) of `draws` gives the holding time and the
    uniform scanned against the `transition_rates` order. `draws` holds the
    chunk of the interval in progress; the default starts a new interval
    on `rng`.
    """
    pairs = transition_rates(s, i, params)
    total = 0.0
    for _, r in pairs:
        total += r
    if total <= 0.0:
        return None
    e, u = (draws or ChunkDraws(rng)).next()
    dt = e / total
    u = u * total
    acc = 0.0
    chosen = pairs[-1][0]
    for ch, r in pairs:
        acc += r
        if u < acc:
            chosen = ch
            break
    s, i = list(s), list(i)
    if chosen.kind == "recovery":
        i[chosen.pool] -= 1
    else:  # infection or transmission both move one susceptible to infected
        s[chosen.pool] -= 1
        i[chosen.pool] += 1
    return chosen, dt, tuple(s), tuple(i)


def scalar_single_pool_interval(
    s: int, i: int, m: int, beta: float, gamma: float, duration: float,
    gen,
) -> tuple[int, int]:
    """The single-pool SSA with one scalar numpy call per draw.

    The reference sampler for the chunked `single_pool_interval`: the same
    law from a different draw protocol, one standard exponential and then
    one uniform per event.
    """
    t = 0.0
    next_exp = gen.standard_exponential
    next_u = gen.random
    while i > 0:
        r_inf = beta * i * s / m
        total = r_inf + gamma * i
        t += next_exp() / total
        if t > duration:
            break
        if next_u() * total < r_inf:
            s -= 1
            i += 1
        else:
            i -= 1
    return s, i
