"""Reference SSA oracles for the tests: the K-pool reaction channels, their
rates, and a one-event Gillespie draw.

`simulate_interval` inlines the same channel order and draw protocol for
speed; these readable versions check it rate by rate and draw by draw.
"""
from typing import NamedTuple, Optional, Sequence

from epidetect import EpidemicParams, RngStream


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


def first_event(
    s: Sequence[int], i: Sequence[int], params: EpidemicParams, rng: RngStream
) -> Optional[tuple[Channel, float, tuple[int, ...], tuple[int, ...]]]:
    """Draw the next reaction: (channel, waiting time, new s, new i).

    Returns None when the total rate is zero (frozen state). Uses the same
    draw protocol as `simulate_interval`: one standard exponential for the
    holding time, one uniform scanned against the `transition_rates` order.
    """
    pairs = transition_rates(s, i, params)
    total = 0.0
    for _, r in pairs:
        total += r
    if total <= 0.0:
        return None
    gen = rng.generator
    dt = gen.standard_exponential() / total
    u = gen.random() * total
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
