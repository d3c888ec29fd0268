"""Detection policies and the frozen-path Monte Carlo evaluation harness.

Policies decide, at each integer stage, whether to announce the outbreak.
Because every policy here is a functional of the trajectory (none alters
the dynamics), all policies are scored against the same frozen set of
trajectories: common random numbers make scenario-by-scenario comparisons
meaningful. A frozen set stores its trajectories as three
(n_paths, horizon + 1) arrays, and a policy decides one stage at a time for
every path that has not announced yet. Simulated for a set of policies, a
path is stepped only until every one of them has announced on it, since
no later stage is read; simulated without policies, it runs to the horizon.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import parallel
from .costs import CostParams, pathwise_cost
# `step` is not called here (`solver.run_scenarios` steps every path); it stays
# a module attribute because bench/spans.py traces `strategy.step`
from .reduced import ModelVariant, ReducedState, step  # noqa: F401
from .rng import RngStream
from .sir import EpidemicParams
from .solver import DetectionMap, StopRule, run_scenarios


@dataclass(frozen=True)
class ThresholdP:
    """Announce as soon as the outbreak probability reaches `p_bar`."""

    p_bar: float

    def __post_init__(self):
        if not 0.0 < self.p_bar < 1.0:
            raise ValueError(f"p_bar must lie in (0, 1), got {self.p_bar}")

    @property
    def name(self) -> str:
        return f"threshold_p_{self.p_bar:g}"

    def decide(self, s1: np.ndarray, i1: np.ndarray, p: np.ndarray, t: int) -> np.ndarray:
        return p >= self.p_bar


@dataclass(frozen=True)
class ThresholdT:
    """Announce at the fixed stage `t_bar` regardless of the state."""

    t_bar: int

    def __post_init__(self):
        if self.t_bar < 1:
            raise ValueError(f"t_bar must be at least 1, got {self.t_bar}")

    @property
    def name(self) -> str:
        return f"threshold_t_{self.t_bar}"

    def decide(self, s1: np.ndarray, i1: np.ndarray, p: np.ndarray, t: int) -> np.ndarray:
        return np.full(p.shape, t >= self.t_bar)


@dataclass(frozen=True)
class MapPolicy:
    """Stationary detection-map policy: announce where qhat - d > 0.

    On the extinct line I1 = 0 the map decides by the exact one-stage
    look-ahead (`solver.extinct_margin`) rather than by the surrogate. That
    is the exact rule for a map of iteration 1 only; a map of iteration
    t >= 2 announces there earlier than the t-stage optimum.

    A 2-D map (built on the large-population variant) reads only (I1, P)
    and therefore also applies to full 3-D states.
    """

    dmap: DetectionMap
    label: Optional[str] = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        tag = "optimal_map" if self.dmap.variant is ModelVariant.FULL3D else "lp_map"
        return tag

    def decide(self, s1: np.ndarray, i1: np.ndarray, p: np.ndarray, t: int) -> np.ndarray:
        return self.dmap.score_locations(self.dmap.location(s1, i1, p)) > 0.0


# `decide(s1, i1, p, t)` takes the stage-t states of a block of paths as
# arrays and returns one boolean announce decision per path
Policy = Union[ThresholdP, ThresholdT, MapPolicy]


@dataclass
class FrozenPaths:
    """A reusable batch of detection-state trajectories.

    Row n of `s1`, `i1` (int64) and `p` (float64), each of shape
    (n_paths, horizon + 1), is path n at stages 0..horizon, simulated up to
    its stage `last[n]`. The stages after it were never simulated and hold
    -1 in the counts and NaN in `p`, so a stray read shows. `announced`
    pairs each policy the paths were simulated with and the stage at which
    it announced on each path, 0 where it never did (a cap hit).
    """

    s1: np.ndarray
    i1: np.ndarray
    p: np.ndarray
    last: np.ndarray
    x0: ReducedState
    horizon: int
    variant: ModelVariant
    params: EpidemicParams
    master_seed: int
    stream_path: tuple[int, ...]
    announced: tuple[tuple[Policy, np.ndarray], ...] = ()

    @property
    def n_paths(self) -> int:
        return self.p.shape[0]

    def fingerprint(self) -> tuple:
        """Identity of the scenario set; evaluations are only comparable
        when their fingerprints agree. A set cut short for some policies
        holds the same scenarios as the full-horizon set, so they share it."""
        return (
            self.master_seed,
            self.stream_path,
            self.n_paths,
            self.horizon,
            (self.x0.s1, self.x0.i1, self.x0.p),
            self.variant.value,
            (self.params.beta, self.params.gamma, self.params.alpha,
             self.params.pool_sizes, self.params.sigma_delta),
        )


def _announced_by_all(policies: Sequence[Policy], size: int) -> tuple[StopRule, np.ndarray]:
    """Stop rule of a block of `size` paths: a path stops once every policy
    has announced on it. Also returns the (len(policies), size) stages at
    which each policy announced on each path, which the rule fills in; 0
    marks a policy still waiting (past the horizon, a cap hit)."""
    announced = np.zeros((len(policies), size), dtype=np.int64)

    def stops(t, rows, s1, i1, p):
        for policy, stage in zip(policies, announced):
            ask = np.flatnonzero(stage[rows] == 0)
            if ask.size:
                said = policy.decide(s1[ask], i1[ask], p[ask], t)
                stage[rows[ask[said]]] = t
        return announced[:, rows].all(axis=0)

    return stops, announced


def simulate_paths(
    x0: ReducedState,
    n_paths: int,
    horizon: int,
    params: EpidemicParams,
    variant: ModelVariant,
    rng: RngStream,
    *,
    workers: int = 1,
    policies: Sequence[Policy] = (),
) -> FrozenPaths:
    """Simulate `n_paths` trajectories of up to `horizon` stages from `x0`.

    Path n draws from `rng.derive(n)`, so the set is reproducible for any
    worker count and paths can be regenerated individually. With
    `policies`, path n stops at the largest stopping stage among them
    (the horizon where one never announces); its stages up to there are
    those of the full-horizon path, and `announced` records the stage at
    which each policy announced (0 for a cap hit), so `evaluate_on` asks it
    nothing more. Without, every path runs to the horizon.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be positive, got {n_paths}")
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    variant = ModelVariant(variant)
    policies = tuple(policies)

    def run(lo: int, hi: int) -> parallel.Block:
        stops, announced = _announced_by_all(policies, hi - lo)
        streams = rng.derive_span((), lo, hi)
        return run_scenarios((x0.s1, x0.i1, x0.p), streams, horizon, params,
                             variant, stops if policies else None) + (announced.T,)

    s1, i1, p, last, announced = parallel.indexed_map(run, n_paths, workers)
    return FrozenPaths(
        s1=s1, i1=i1, p=p, last=last,
        x0=x0,
        horizon=horizon,
        variant=variant,
        params=params,
        master_seed=rng.master_seed,
        stream_path=rng.path,
        announced=tuple(zip(policies, announced.T)),
    )


@dataclass
class StrategyReport:
    """Summary statistics of one policy over a frozen scenario set."""

    policy_name: str
    n_paths: int
    mean_tau: float
    sd_tau: float
    mean_cost: float
    sd_cost: float
    pfa: float                      # mean of 1 - P_tau
    cap_hits: int                   # paths force-announced at the horizon
    horizon: int
    taus: np.ndarray = field(repr=False)
    costs: np.ndarray = field(repr=False)
    p_taus: np.ndarray = field(repr=False)
    fingerprint: tuple = field(default=(), repr=False)

    def summary_dict(self) -> dict:
        return {
            "policy": self.policy_name,
            "n_paths": self.n_paths,
            "mean_tau": self.mean_tau,
            "sd_tau": self.sd_tau,
            "mean_cost": self.mean_cost,
            "sd_cost": self.sd_cost,
            "pfa": self.pfa,
            "cap_hits": self.cap_hits,
            "horizon": self.horizon,
        }


def evaluate_on(policy: Policy, paths: FrozenPaths, costs: CostParams) -> StrategyReport:
    """Apply `policy` to every frozen path and aggregate the outcomes.

    The stopping stage is the first t >= 1 where the policy announces,
    force-announcing at the horizon (counted as a cap hit) if it never
    does. The stages of a policy the paths were simulated with are read
    from `paths.announced`; any other is asked by the same stop rule, once
    per stage for the paths still waiting. Raises `ValueError` when it waits
    on a path past its last simulated stage: simulate the paths with the
    policy among `policies`.
    """
    horizon, n_paths = paths.horizon, paths.n_paths
    stages = next((st for known, st in paths.announced if known is policy), None)
    if stages is None:
        stops, (stages,) = _announced_by_all([policy], n_paths)
        rows = np.arange(n_paths)
        for t in range(1, horizon + 1):
            if (short := rows[paths.last[rows] < t]).size:
                n = int(short[0])
                raise ValueError(
                    f"policy {policy.name} is still waiting on path {n} at stage {t}, "
                    f"past its last simulated stage {int(paths.last[n])}"
                )
            rows = rows[~stops(t, rows, paths.s1[rows, t], paths.i1[rows, t], paths.p[rows, t])]
    tau = np.where(stages > 0, stages, horizon)

    taus = tau.astype(float)
    costs_out = pathwise_cost(paths.p, tau, costs)
    p_taus = paths.p[np.arange(n_paths), tau]
    return StrategyReport(
        policy_name=policy.name,
        n_paths=n_paths,
        mean_tau=float(np.mean(taus)),
        sd_tau=float(np.std(taus, ddof=1)) if n_paths > 1 else 0.0,
        mean_cost=float(np.mean(costs_out)),
        sd_cost=float(np.std(costs_out, ddof=1)) if n_paths > 1 else 0.0,
        pfa=float(np.mean(1.0 - p_taus)),
        cap_hits=int(np.count_nonzero(stages == 0)),
        horizon=horizon,
        taus=taus,
        costs=costs_out,
        p_taus=p_taus,
        fingerprint=paths.fingerprint(),
    )


@dataclass
class PairedComparison:
    """Scenario-by-scenario cost differences between two policies."""

    name_a: str
    name_b: str
    diffs: np.ndarray            # cost_a - cost_b per scenario
    frac_a_better: float         # strict wins of a
    frac_b_better: float
    mean_diff: float


def paired_compare(report_a: StrategyReport, report_b: StrategyReport) -> PairedComparison:
    """Compare two reports computed on the same frozen scenario set."""
    if report_a.fingerprint != report_b.fingerprint:
        raise ValueError(
            "reports were not evaluated on the same frozen scenarios: "
            f"{report_a.fingerprint} vs {report_b.fingerprint}"
        )
    diffs = report_a.costs - report_b.costs
    return PairedComparison(
        name_a=report_a.policy_name,
        name_b=report_b.policy_name,
        diffs=diffs,
        frac_a_better=float(np.mean(diffs < 0)),
        frac_b_better=float(np.mean(diffs > 0)),
        mean_diff=float(np.mean(diffs)),
    )

