"""Optimal epidemic-detection policies for a two-pool stochastic SIR model.

The package simulates a coupled two-pool stochastic SIR outbreak, reduces
detection to a 3-D Markov state (Pool-1 counts plus an outbreak
pseudo-posterior), solves the resulting optimal-stopping problem by
sequential regression Monte Carlo, and benchmarks the fitted detection
maps against threshold baselines on frozen scenario sets.
"""

from .costs import CostParams, immediate_cost, pathwise_cost
from .design import (
    AcquisitionKind,
    StateBox,
    acquisition_weight,
    boundary_probability,
    lhs,
)
from .loess import LoessConfig, LoessModel, LoessPrediction, fit
from .reduced import (
    ModelVariant,
    ReducedState,
    drift,
    step,
)
from .rng import RngStream
from .sir import (
    EpidemicParams,
    MultiPoolState,
    PoolState,
    outbreak_time,
    simulate_interval,
)
from .solver import (
    DetectionMap,
    MapSequence,
    SrmcConfig,
    build_map,
    default_box,
    path_and_cost,
    solve,
)
from .strategy import (
    FrozenPaths,
    MapPolicy,
    PairedComparison,
    Policy,
    StrategyReport,
    ThresholdP,
    ThresholdT,
    evaluate_on,
    paired_compare,
    simulate_paths,
)

__version__ = "0.1.0"
