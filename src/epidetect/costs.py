"""Detection costs expressed through the outbreak probability P.

Announcing while the second pool is clean costs C_FA in expectation
C_FA * (1 - P); every stage spent waiting after the outbreak arrived
costs C_Delay, in expectation C_Delay * P per stage. Both variants of
the detection state share these functions because only the P coordinate
enters the costs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class CostParams:
    """False-alarm penalty and per-stage delay cost."""

    c_fa: float
    c_delay: float

    def __post_init__(self):
        if not self.c_fa > 0:
            raise ValueError(f"c_fa must be positive, got {self.c_fa}")
        if not self.c_delay > 0:
            raise ValueError(f"c_delay must be positive, got {self.c_delay}")
        for name in ("c_fa", "c_delay"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {value}")


def immediate_cost(p, costs: CostParams):
    """Expected cost of announcing now at outbreak probability `p`.

    Accepts a scalar or ndarray; returns C_FA * (1 - p).
    """
    return costs.c_fa * (1.0 - p)


def pathwise_cost(p_path: Sequence[float], tau: int, costs: CostParams) -> float:
    """Realized cost of announcing at stage `tau` along a P trajectory.

    Sum of per-stage delay costs C_Delay * P_s for s = 0..tau-1 plus the
    false-alarm term C_FA * (1 - P_tau).
    """
    n = len(p_path)
    if not 0 <= tau < n:
        raise ValueError(f"tau={tau} out of range for path of length {n}")
    waiting = 0.0
    for s in range(tau):
        waiting += p_path[s]
    return costs.c_delay * waiting + costs.c_fa * (1.0 - p_path[tau])
