"""Sequential regression Monte Carlo solver for the detection problem.

The solver builds one detection map per forward-time iteration t. A map is
a loess surrogate qhat(t, .) for the costs-to-go of waiting one more stage,
fitted and queried on `surrogate_inputs`, where I1 reads as log1p(I1);
announcing is optimal wherever qhat exceeds the immediate false-alarm cost.
The one exception is the extinct line I1 = 0, where Pool 1 has died out:
there the sign of qhat - d is decided by the exact one-stage look-ahead
(`extinct_margin`) instead of by the surrogate, which would otherwise smooth
across the extinction cliff and wait where waiting can only add cost. The
rule is exact for the one-stage problem, so only for the map of iteration
1. With k stages left the optimum on I1 = 0 announces later: above P =
0.0161 / 0.0231 / 0.0287 / 0.0338 / 0.0382 for k = 2 / 5 / 10 / 20 / 50 at
the case-study parameters, against 0.0118 for the rule. A map of iteration
t >= 2 thus announces on I1 = 0 for P between about 0.012 and the t-stage
root, where waiting is cheaper. On P = 1, which is absorbing, announcing
is exact and the map decides so without the surrogate.
Iteration t simulates scenarios that stop at the first stage s whose state
falls in the iteration-(t-s) announce region (with the convention that the
iteration-0 region covers everything, so every scenario stops by stage t).
Past a configurable switch the scenario stopping rule freezes to the most
recent map (receding horizon), and the iteration loop terminates once the
announce boundary stops moving: `trace_distance`, the sup distance in P
between the boundary traces of consecutive maps, falls below a tolerance.
Scenarios run in blocks through `run_scenarios`, the one stepping loop of
the package, which also steps the evaluation paths of `strategy`: each
stage asks the stop rule once for all live scenarios of the block. A
scenario of iteration t runs through it for stages 1..t-1 only. Stage t
stops every scenario still live without reading its counts, and the
realized cost reads only P, so there a scenario takes the P update alone,
with delta drawn from its own stream where its stage-t Pool-1 draws would
have started: Pool 1 is never simulated at the horizon stage, and every
cost keeps its law.

Designs grow sequentially: an initial Latin hypercube design is augmented
in batches drawn toward the current announce/wait boundary, where the sign
of qhat - d is still statistically ambiguous.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import parallel
from .costs import CostParams, immediate_cost, pathwise_cost
from .design import (
    StateBox,
    acquisition_weight,
    boundary_probability,
    lhs,
    normal_tail,
    sample_indices,
)
from .loess import LoessConfig, LoessModel
from .loess import fit as loess_fit
from .reduced import ModelVariant, ReducedState, step, update_p
from .rng import RngStream
from .sir import EpidemicParams

# Stream-address labels under (master_seed, t, label, index).
LABEL_SCENARIO = 0
LABEL_DESIGN = 1
LABEL_BATCH = 2

# Format 2 fits the surrogate on `surrogate_inputs`; format-1 documents were
# fitted on raw I1, so `from_dict` refuses them.
MAP_FORMAT = "epidetect-map/2"
# Next to the `LoessConfig` fields, the `loess` section of a map document
# records the one fit there is, local-linear tricube loess on log1p(I1) with
# the basis size as neighborhood floor; `from_dict` refuses any other value.
MAP_LOESS_FIXED = {"degree": 1, "min_neighbors": None, "kernel": "tricube",
                   "i1_warp": "log1p"}

# The state coordinates a map of each variant reads, in column order. I1 is
# always second to last and P last, which `on_extinct_line`,
# `score_locations`, `boundary_trace`, `build_map` and `surrogate_inputs`
# rely on.
MAP_COORDS = {ModelVariant.FULL3D: ("s1", "i1", "p"), ModelVariant.LP2D: ("i1", "p")}


def surrogate_inputs(locs) -> np.ndarray:
    """Surrogate inputs of map locations: a copy with I1 replaced by log1p(I1).

    The boundary is close to linear in log1p(I1) next to extinction, where it
    bends too fast in I1 for a local-linear fit. Every surrogate fit and
    query goes through this warp; the map keeps its locations raw.
    """
    inputs = np.array(locs, dtype=float)
    inputs[..., -2] = np.log1p(inputs[..., -2])
    return inputs


@dataclass(frozen=True)
class SrmcConfig:
    """Solver knobs: design sizes, iteration control, seed."""

    master_seed: int
    n0: int = 200
    n_batch: int = 200
    n_end: int = 2000
    d_candidates: int = 2500
    t_max: int = 20
    mpc_switch: int = 5
    tol: float = 0.0  # boundary shift in P that ends the solve; 0: run to t_max
    loess: LoessConfig = field(default_factory=LoessConfig)
    trace_s1: Optional[int] = None  # S1 of 3-D trace lines, at most M1 - I1; None: M1 - 10

    def __post_init__(self):
        if self.n0 < 1 or self.n_end < self.n0:
            raise ValueError(f"need 1 <= n0 <= n_end, got n0={self.n0}, n_end={self.n_end}")
        if self.n_batch < 1:
            raise ValueError(f"n_batch must be positive, got {self.n_batch}")
        if (self.n_end - self.n0) % self.n_batch != 0:
            raise ValueError(
                f"n_end - n0 = {self.n_end - self.n0} not divisible by n_batch = {self.n_batch}"
            )
        if self.d_candidates < 1:
            raise ValueError(f"d_candidates must be positive, got {self.d_candidates}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be at least 1, got {self.t_max}")
        if self.mpc_switch < 1:
            raise ValueError(f"mpc_switch must be at least 1, got {self.mpc_switch}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be nonnegative, got {self.tol}")

    @property
    def sequential(self) -> bool:
        return self.n_end > self.n0


def check_solvable(config: SrmcConfig, params: EpidemicParams, variant: ModelVariant) -> None:
    """Raise `ValueError` for an n0 below the local-linear basis size or a trace_s1 off the
    S1 axis."""
    variant, m1 = ModelVariant(variant), params.pool_sizes[0]
    if config.n0 < (basis := len(MAP_COORDS[variant]) + 1):
        raise ValueError(f"n0 must be at least {basis}, the local-linear basis size of "
                         f"a {variant.value} map, got {config.n0}")
    if config.trace_s1 is not None and not m1 // 2 <= config.trace_s1 <= m1:
        raise ValueError(f"trace_s1 must lie on the S1 axis [{m1 // 2}, {m1}] of the "
                         f"regression box, got {config.trace_s1}")


def default_box(params: EpidemicParams, variant: ModelVariant) -> StateBox:
    """Regression domain on the `MAP_COORDS` of `variant`: detection happens while I1 is small.

    I1 spans up to a fifth of the pool; S1 spans the upper half of the pool;
    P spans [0, 0.999] since P = 1 forces announcement.
    """
    m1 = params.pool_sizes[0]
    axes = {"s1": (m1 // 2, m1, True), "i1": (0.0, max(1, m1 // 5), True),
            "p": (0.0, 0.999, False)}
    lower, upper, integer = zip(*(axes[c] for c in MAP_COORDS[ModelVariant(variant)]))
    return StateBox(lower=lower, upper=upper, integer=integer)


def draw_design(
    box: StateBox,
    count: int,
    rng: RngStream,
    params: EpidemicParams,
    variant: ModelVariant,
) -> np.ndarray:
    """LHS locations in `box`, repaired so S1 + I1 never exceeds the pool."""
    locs = lhs(box, count, rng)
    if "s1" in MAP_COORDS[ModelVariant(variant)]:
        m1 = params.pool_sizes[0]
        np.minimum(locs[:, 0], m1 - locs[:, 1], out=locs[:, 0])
    return locs


_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def on_extinct_line(locs):
    """Whether locations lie on the extinct line I1 = 0 (second to last of `MAP_COORDS`)."""
    return np.asarray(locs)[..., -2] == 0.0


def extinct_margin(p, epidemic: EpidemicParams, costs: CostParams):
    """qhat - d on the extinct line I1 = 0 by the exact one-stage look-ahead.

    I1 = 0 is absorbing in both variants and the drift of P vanishes there,
    so a stage of waiting costs C_Delay * P and can gain only the clamp of
    the Gaussian noise at P = 0: E[max(P + delta, 0)] = P + g(P) with
    g(P) = sigma phi(P / sigma) - P Phi(-P / sigma), sigma = sigma_delta.
    Waiting one stage and then announcing therefore exceeds announcing now
    by C_Delay * P - C_FA * g(P) (plain C_Delay * P when sigma = 0).
    That is the exact margin of the one-stage problem only; with more stages
    left the optimum announces at a larger P (see the module docstring).
    Accepts a scalar or ndarray of P values.
    """
    margin = costs.c_delay * p
    sigma = epidemic.sigma_delta
    if sigma > 0:
        z = p / sigma
        gain = sigma * _INV_SQRT_2PI * np.exp(-0.5 * z * z) - p * normal_tail(z)
        margin = margin - costs.c_fa * gain
    return margin


class DetectionMap:
    """Announce/wait partition induced by a fitted surrogate at one iteration.

    A location is announced where qhat - d > 0: the surrogate decides off
    the extinct line, the exact one-stage look-ahead `extinct_margin`
    decides on I1 = 0, and P = 1 always announces. For a map of iteration
    t >= 2 the rule on I1 = 0 announces earlier than the t-stage optimum
    would. `locations` holds the design in map coordinates; `surrogate` is
    fitted on their `surrogate_inputs` and is queried the same way.
    """

    def __init__(
        self,
        locations: np.ndarray,
        surrogate: LoessModel,
        costs: CostParams,
        variant: ModelVariant,
        iteration: int,
        domain: StateBox,
        epidemic: EpidemicParams,
        master_seed: int,
        build_info: Optional[dict] = None,
    ):
        self.locations = locations
        self.surrogate = surrogate
        self.costs = costs
        self.variant = ModelVariant(variant)
        self.iteration = int(iteration)
        self.domain = domain
        self.epidemic = epidemic
        self.master_seed = int(master_seed)
        self.build_info = build_info or {}

    def location(self, s1, i1, p) -> np.ndarray:
        """Map coordinates of scalar states, or one row per state for arrays."""
        state = {"s1": s1, "i1": i1, "p": p}
        return np.stack([state[c] for c in MAP_COORDS[self.variant]], axis=-1, dtype=float)

    def score_location(self, loc) -> float:
        """qhat(loc) - d(loc); positive means announce."""
        return float(self.score_locations(np.asarray(loc, dtype=float)[None])[0])

    def score_locations(self, locs) -> np.ndarray:
        """qhat - d at each row of `locs`, any number of rows, 0 included.

        P = 1 is absorbing and lies outside the regression box; there the
        score is the exact margin C_Delay, the cost of one stage of waiting
        before a free announcement.
        """
        locs = np.asarray(locs, dtype=float)
        certain = locs[:, -1] == 1.0
        line = on_extinct_line(locs) & ~certain
        fitted = ~line & ~certain
        scores = np.full(locs.shape[0], self.costs.c_delay)
        if line.any():  # the exact margin costs about 13 us even on no rows
            scores[line] = extinct_margin(locs[line, -1], self.epidemic, self.costs)
        scores[fitted] = (self.surrogate.predict_mean_many(surrogate_inputs(locs[fitted]))
                          - immediate_cost(locs[fitted, -1], self.costs))
        return scores

    def announce(self, x: ReducedState) -> bool:
        return self.score_location(self.location(x.s1, x.i1, x.p)) > 0.0

    # -- persistence ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "format": MAP_FORMAT,
            "iteration": self.iteration,
            "variant": self.variant.value,
            "master_seed": self.master_seed,
            "epidemic": asdict(self.epidemic),
            "costs": asdict(self.costs),
            "loess": {**asdict(self.surrogate.config), **MAP_LOESS_FIXED},
            "domain": asdict(self.domain),
            "design": {
                "locations": self.locations.tolist(),
                "responses": self.surrogate.responses.tolist(),
            },
            "build_info": self.build_info,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "DetectionMap":
        if doc.get("format") != MAP_FORMAT:
            raise ValueError(f"unsupported map document format: {doc.get('format')!r} "
                             f"(this version reads {MAP_FORMAT!r}; re-run solve)")
        loess = dict(doc["loess"])
        for key, fixed in MAP_LOESS_FIXED.items():
            if (value := loess.pop(key, fixed)) != fixed:
                raise ValueError(f"unsupported map loess {key} {value!r}: "
                                 f"only {fixed!r} is fitted")
        locations = np.array(doc["design"]["locations"], dtype=float)
        surrogate = loess_fit(
            surrogate_inputs(locations),
            np.array(doc["design"]["responses"], dtype=float),
            LoessConfig(**loess),
        )
        return cls(
            locations=locations,
            surrogate=surrogate,
            costs=CostParams(**doc["costs"]),
            variant=ModelVariant(doc["variant"]),
            iteration=doc["iteration"],
            domain=StateBox(**doc["domain"]),
            epidemic=EpidemicParams(**doc["epidemic"]),
            master_seed=doc["master_seed"],
            build_info=doc.get("build_info", {}),
        )

    @classmethod
    def load(cls, path) -> "DetectionMap":
        return cls.from_dict(json.loads(Path(path).read_text()))


# `stops(s, rows, s1, i1, p)` gets the block rows still live after stage s
# (1..horizon) and their stage-s states as arrays; returns which stop at s
StopRule = Callable[[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def run_scenarios(
    starts: tuple,
    streams: Sequence[RngStream],
    horizon: int,
    params: EpidemicParams,
    variant: ModelVariant,
    stops: Optional[StopRule] = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step a block of scenarios stage by stage until each one stops.

    `starts = (s1, i1, p)` holds the unchecked stage-0 counts and P, each a
    scalar or one value per scenario. Scenario j draws only from
    `streams[j]`, stage after stage, so its states do not depend on the
    block around it; `step` gets them as Python numbers. After each stage
    s in 1..horizon, `stops` decides which of the live scenarios stop at s
    (None: none do); any left stop at the horizon. Returns `s1`, `i1`
    (int64) and `p` (float64), each of shape (len(streams), horizon + 1), and
    `last`, the stage at which each scenario stopped. The stages past `last`
    were never simulated: they hold -1 in the counts and NaN in `p`.
    """
    m = len(streams)
    s1 = np.full((m, horizon + 1), -1, dtype=np.int64)
    i1 = np.full((m, horizon + 1), -1, dtype=np.int64)
    p = np.full((m, horizon + 1), np.nan)
    last = np.full(m, horizon, dtype=np.int64)
    s1[:, 0], i1[:, 0], p[:, 0] = starts
    states = list(zip(s1[:, 0].tolist(), i1[:, 0].tolist(), p[:, 0].tolist()))
    live = np.arange(m)
    for s in range(1, horizon + 1):
        for j in live.tolist():
            x = states[j] = step(*states[j], params, variant, streams[j])
            s1[j, s], i1[j, s], p[j, s] = x
        if stops is None:
            continue
        stop = stops(s, live, s1[live, s], i1[live, s], p[live, s])
        last[live[stop]] = s
        live = live[~stop]
        if live.size == 0:
            break
    return s1, i1, p, last


def scenario_costs(
    starts: tuple,
    streams: Sequence[RngStream],
    t: int,
    maps: Sequence[DetectionMap],
    params: EpidemicParams,
    costs: CostParams,
    variant: ModelVariant,
    *,
    mpc_switch: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate a block of scenarios under the iteration-t stopping rule.

    A scenario stops at the first stage s in 1..t whose state lies in the
    announce region of map t - s; map 0 announces everywhere, so s = t stops
    every live scenario without a query. With `mpc_switch` set and t beyond
    it, stages s < t ask the single latest map instead. Each stage asks its
    map once, for all live scenarios of the block. `starts = (s1, i1, p)` as
    in `run_scenarios`. Returns the stopping stages and their realized
    costs, scored in one `pathwise_cost` pass over the block.

    Stages 1..t-1 run through `run_scenarios`. Stage t reads no counts, and
    the cost reads only P, so the scenarios live there take only the P
    update (`update_p`, from the stage-(t-1) I1 and P) and never simulate
    Pool 1: delta comes from the scenario's stream where its stage-t Pool-1
    draws would have started, so every cost keeps its law.
    """
    if t < 1:
        raise ValueError(f"iteration t must be at least 1, got {t}")
    if len(maps) < t - 1:
        raise ValueError(f"iteration {t} needs {t - 1} earlier maps, got {len(maps)}")
    mpc = mpc_switch is not None and t > mpc_switch
    stopped = np.zeros(len(streams), dtype=bool)

    def stops(s, rows, s1, i1, p):
        dmap = maps[t - 2] if mpc else maps[t - s - 1]
        stop = dmap.score_locations(dmap.location(s1, i1, p)) > 0.0
        stopped[rows[stop]] = True
        return stop

    _, i1, p, taus = run_scenarios(starts, streams, t - 1, params, variant, stops)
    live = np.flatnonzero(~stopped)
    p = np.column_stack([p, np.full(len(streams), np.nan)])
    p[live, t] = [update_p(i, q, params, streams[j].generator)
                  for j, i, q in zip(live.tolist(), i1[live, t - 1].tolist(),
                                     p[live, t - 1].tolist())]
    taus[live] = t
    return taus, pathwise_cost(p, taus, costs)


def path_and_cost(
    x0: ReducedState,
    t: int,
    maps: Sequence[DetectionMap],
    params: EpidemicParams,
    costs: CostParams,
    variant: ModelVariant,
    rng: RngStream,
    *,
    mpc_switch: Optional[int] = None,
) -> tuple[int, float]:
    """`scenario_costs` for the one scenario from `x0` on stream `rng`.

    Returns (tau, realized pathwise cost).
    """
    taus, q = scenario_costs((x0.s1, x0.i1, x0.p), [rng], t, maps, params, costs,
                             variant, mpc_switch=mpc_switch)
    return int(taus[0]), float(q[0])


def build_map(
    t: int,
    maps: Sequence[DetectionMap],
    config: SrmcConfig,
    params: EpidemicParams,
    costs: CostParams,
    variant: ModelVariant,
    *,
    workers: int = 1,
) -> DetectionMap:
    """One sequential-design iteration: simulate, fit, augment toward the boundary.

    Starts from an LHS design of n0 scenario launch points, simulates their
    stopping costs under the maps built so far, fits the loess surrogate,
    then repeatedly scores a fresh LHS candidate set by the probability of
    sign error in qhat - d, draws n_batch new points multinomially by the
    acquisition weight min(p, 1 - p), simulates and refits, until the design
    holds n_end points. Candidates on the extinct line I1 = 0 carry no sign
    error (`extinct_margin` decides them): a round of only those draws uniformly.
    Scenario n of iteration t always consumes the random stream derived from
    (master_seed, t, n), so results do not depend on batch scheduling or
    worker count. A scenario starts at its `draw_design` row (integer counts
    within the pool), with S1 = M1 - I1 where the map has no S1 axis.
    """
    variant = ModelVariant(variant)
    box = default_box(params, variant)
    root = RngStream(config.master_seed)

    def simulate_block(locs: np.ndarray, start: int) -> np.ndarray:
        def run(lo: int, hi: int) -> parallel.Block:
            rows = locs[lo:hi]
            i1 = rows[:, -2]
            s1 = rows[:, 0] if "s1" in MAP_COORDS[variant] else params.pool_sizes[0] - i1
            streams = root.derive_span((t, LABEL_SCENARIO), start + lo, start + hi)
            return scenario_costs(
                (s1, i1, rows[:, -1]), streams, t, maps, params, costs, variant,
                mpc_switch=config.mpc_switch,
            )

        return parallel.indexed_map(run, locs.shape[0], workers)[1]

    design = draw_design(box, config.n0, root.derive(t, LABEL_DESIGN, 0), params, variant)
    responses = simulate_block(design, 0)
    model = loess_fit(surrogate_inputs(design), responses, config.loess)

    rounds: list[dict] = []
    n = config.n0
    rnd = 1
    while n < config.n_end:
        cands = draw_design(
            box, config.d_candidates, root.derive(t, LABEL_DESIGN, rnd), params, variant
        )
        # extinct_margin decides the extinct line exactly: no sign error there
        off = ~on_extinct_line(cands)
        mu, se = model.predict_many(surrogate_inputs(cands[off]))
        pb = np.zeros(cands.shape[0])
        pb[off] = boundary_probability(mu, se, immediate_cost(cands[off, -1], costs))
        weights = acquisition_weight(pb)
        idx, fallback = sample_indices(
            weights, config.n_batch, root.derive(t, LABEL_BATCH, rnd)
        )
        new_locs = cands[idx]
        new_resp = simulate_block(new_locs, n)
        design = np.vstack([design, new_locs])
        responses = np.concatenate([responses, new_resp])
        model = loess_fit(surrogate_inputs(design), responses, config.loess)
        rounds.append({
            "round": rnd,
            "added": int(config.n_batch),
            "uniform_fallback": bool(fallback),
            # fraction of the batch inside the p >= 0.1 ambiguity band of
            # the fit that guided the draw (design-concentration audit)
            "frac_band_p10": float(np.mean(pb[idx] >= 0.1)),
        })
        n += config.n_batch
        rnd += 1

    return DetectionMap(
        locations=design,
        surrogate=model,
        costs=costs,
        variant=variant,
        iteration=t,
        domain=box,
        epidemic=params,
        master_seed=config.master_seed,
        build_info={"rounds": rounds, "n_design": int(design.shape[0]),
                    "sequential": config.sequential},
    )


def lattice(box: StateBox, per_axis: int) -> np.ndarray:
    """Rows of the lattice with `per_axis` evenly spaced values on each axis of `box`.

    `box.integer` is ignored, so count axes get non-integer values too.
    """
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in zip(box.lower, box.upper)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def audit_grid(box: StateBox, variant: ModelVariant) -> np.ndarray:
    """Fixed lattice of the regression box whose I1 values are the trace lines.

    Built by `lattice`, so its I1 values need not be integer (8.1633 =
    400 / 49 on the 2-D grid).
    """
    return lattice(box, 20 if variant is ModelVariant.FULL3D else 50)


def boundary_trace(dmap: DetectionMap, lines: np.ndarray) -> np.ndarray:
    """Announce-boundary crossing in P along each row of `lines`, to 1e-3.

    Row j of `lines` fixes the leading coordinates ([S1,] I1) of line j,
    which runs over the P range of `dmap.domain`. Bisects the sign of
    qhat - d on every line at once, scoring the midpoints of all lines
    still open with one `score_locations` call per step. A line gets the
    bottom of the range when announcing holds on the whole line and NaN
    when waiting holds everywhere below its top.
    """
    lines = np.asarray(lines, dtype=float)
    n = lines.shape[0]

    def announces(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
        return dmap.score_locations(np.column_stack([lines[rows], p])) > 0

    out = np.full(n, math.nan)
    lo, hi = (np.full(n, float(end[-1])) for end in (dmap.domain.lower, dmap.domain.upper))
    at_lo = announces(np.arange(n), lo)
    out[at_lo] = lo[at_lo]
    rows = np.flatnonzero(~at_lo)
    done = rows = rows[announces(rows, hi[rows])]  # the others wait everywhere: NaN
    while (rows := rows[hi[rows] - lo[rows] > 1e-3]).size:
        mid = 0.5 * (lo[rows] + hi[rows])
        up = announces(rows, mid)
        hi[rows[up]] = mid[up]
        lo[rows[~up]] = mid[~up]
    out[done] = 0.5 * (lo[done] + hi[done])
    return out


def trace_distance(trace_a: np.ndarray, trace_b: np.ndarray) -> float:
    """Sup distance in P between two boundary traces.

    Lines where waiting holds everywhere (NaN) count as a boundary at 1.
    """
    a = np.where(np.isnan(trace_a), 1.0, trace_a)
    b = np.where(np.isnan(trace_b), 1.0, trace_b)
    return float(np.max(np.abs(a - b)))


@dataclass
class MapSequence:
    """Solve result: one map per iteration plus the convergence record."""

    maps: list[DetectionMap]
    sup_diffs: list[float]            # trace_distance of maps t - 1 and t, t >= 2
    traces: list[np.ndarray]          # boundary trace per iteration
    trace_lines: np.ndarray           # leading coordinates ([S1,] I1) of each trace line
    converged: bool
    warning: Optional[str] = None

    @property
    def iterations(self) -> int:
        return len(self.maps)

    def final(self) -> DetectionMap:
        return self.maps[-1]


def solve(
    config: SrmcConfig,
    params: EpidemicParams,
    costs: CostParams,
    variant: ModelVariant,
    *,
    workers: int = 1,
    progress=None,
) -> MapSequence:
    """Iterate map building until the announce boundary settles or t_max is hit.

    Each map is traced by `boundary_trace` along the I1 lines of the audit
    grid, at S1 = min(trace_s1, M1 - I1) in 3-D so that every line holds
    states that can exist. Convergence is declared when `trace_distance`
    between the traces of consecutive maps drops below `config.tol`, in P
    units (0 disables the check; the traces resolve P to 1e-3).
    `progress(t, shift)` is called once per iteration, with shift = NaN at
    t = 1. Raises `ValueError` from `check_solvable` before any scenario.
    """
    variant = ModelVariant(variant)
    check_solvable(config, params, variant)
    box = default_box(params, variant)
    lines = np.unique(audit_grid(box, variant)[:, -2])[:, None]
    if "s1" in MAP_COORDS[variant]:
        s_top = box.upper[0] - 10 if config.trace_s1 is None else config.trace_s1
        lines = np.column_stack([np.minimum(float(s_top), params.pool_sizes[0] - lines), lines])

    maps: list[DetectionMap] = []
    traces: list[np.ndarray] = []
    sup_diffs: list[float] = []
    converged = False

    for t in range(1, config.t_max + 1):
        dmap = build_map(t, maps, config, params, costs, variant, workers=workers)
        maps.append(dmap)
        traces.append(boundary_trace(dmap, lines))
        shift = math.nan if t == 1 else trace_distance(traces[-2], traces[-1])
        if progress is not None:
            progress(t, shift)
        if t > 1:
            sup_diffs.append(shift)
        if shift < config.tol:  # never at t = 1 (NaN) or with tol = 0
            converged = True
            break

    warning = None
    if not converged and config.tol > 0:
        compared = (f"last boundary shift {sup_diffs[-1]:.4g} vs tol {config.tol:.4g}"
                    if sup_diffs else f"no earlier boundary was compared; tol {config.tol:.4g}")
        warning = f"boundary not converged after {len(maps)} iterations ({compared})"
    return MapSequence(
        maps=maps,
        sup_diffs=sup_diffs,
        traces=traces,
        trace_lines=lines,
        converged=converged,
        warning=warning,
    )
