"""Optimal epidemic-detection policies for a two-pool stochastic SIR model.

The package simulates a coupled two-pool stochastic SIR outbreak, reduces
detection to a 3-D Markov state (Pool-1 counts plus an outbreak
pseudo-posterior), solves the resulting optimal-stopping problem by
sequential regression Monte Carlo, and benchmarks the fitted detection
maps against threshold baselines on frozen scenario sets.

The root exports the README library example's names; the rest live in modules.
"""

from .costs import CostParams
from .reduced import ModelVariant, ReducedState
from .rng import RngStream
from .sir import EpidemicParams
from .solver import SrmcConfig, solve
from .strategy import MapPolicy, ThresholdP, evaluate_on, paired_compare, simulate_paths

__version__ = "0.1.0"
