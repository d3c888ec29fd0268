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

import numpy as np


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


def pathwise_cost(p, tau, costs: CostParams) -> np.ndarray:
    """Realized cost of announcing at stage `tau[n]` along row n of the P block `p`.

    `p` holds one path per row, stages 0..H in its columns; `tau` one stop
    stage per row. Row n costs the delay C_Delay * P_s summed left to right
    over s = 0..tau[n]-1, plus the false-alarm term C_FA * (1 - P_tau[n]).
    Stages after tau[n] are never read, so they may hold NaN. Raises
    `ValueError` for a stage outside 0..H.
    """
    p = np.asarray(p, dtype=float)
    tau = np.asarray(tau)
    if np.any((tau < 0) | (tau >= p.shape[1])):
        raise ValueError(f"stop stage outside 0..{p.shape[1] - 1} in {tau}")
    rows = np.arange(p.shape[0])
    waiting = np.where(tau > 0, np.cumsum(p, axis=1)[rows, tau - 1], 0.0)
    return costs.c_delay * waiting + costs.c_fa * (1.0 - p[rows, tau])
