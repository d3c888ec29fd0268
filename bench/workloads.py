"""The benchmark's workloads: inputs made from a seed, set-up, a timed unit, gates.

Every workload solves or evaluates the case-study outbreak (beta 0.75,
gamma 0.5, alpha 0.01, two pools of 2000, sigma_delta 0.01, C_FA 20,
C_Delay 1). The seed becomes the program's master seed, so the same seed
always gives the same inputs and, the program being deterministic, the
same outputs. Why each workload exists is in `bench/README.md`.

A workload's unit is the timed part. `check` turns the unit's outputs into
one list of problems per program operation; an empty list is a pass.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import math
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from epidetect import cli, config, solver, strategy
from epidetect.reduced import ReducedState
from epidetect.rng import RngStream
from epidetect.solver import DetectionMap

EPIDEMIC = {"beta": 0.75, "gamma": 0.5, "alpha": 0.01,
            "pool_sizes": [2000, 2000], "sigma_delta": 0.01}
COSTS = {"c_fa": 20.0, "c_delay": 1.0}
X0 = [1990, 10, 0.1]
THRESHOLDS = [{"kind": "threshold_p", "p_bar": 0.8},
              {"kind": "threshold_t", "t_bar": 8}]
DECISIONS = 1000   # online decisions timed after each unit


@dataclass
class Outcome:
    """What one run of a unit produced, reduced to what the gates need."""

    problems: dict[str, list[str]]          # operation -> gate failures
    final_map: Optional[DetectionMap] = None
    mean_costs: dict[str, float] = field(default_factory=dict)  # policy -> cost
    paths_digest: str = ""                  # per-path (tau, cost) of every policy
    extra: dict = field(default_factory=dict)

    @functools.cached_property
    def qhat(self) -> np.ndarray:
        """Final-map predictions on the solver's audit grid."""
        grid = solver.audit_grid(self.final_map.domain, self.final_map.variant)
        return self.final_map.surrogate.predict_mean_many(grid)

    def digest(self) -> str:
        """Per-path outcomes plus the final map's design data.

        The map's predictions are a deterministic function of its design,
        so equal digests mean equal maps without an audit-grid pass.
        """
        h = hashlib.sha256(self.paths_digest.encode())
        if self.final_map is not None:
            h.update(self.final_map.surrogate.inputs.tobytes())
            h.update(self.final_map.surrogate.responses.tobytes())
        return h.hexdigest()[:16]


# -- gates -------------------------------------------------------------------


def report_problems(name: str, taus, costs, p_taus, cap_hits: int,
                    n_paths: int, horizon: int) -> list[str]:
    out = []
    taus, costs, p_taus = (np.asarray(a, dtype=float) for a in (taus, costs, p_taus))
    if not len(taus) == len(costs) == len(p_taus) == n_paths:
        out.append(f"{name}: {len(taus)} path records for {n_paths} paths")
    if not np.all(np.isfinite(costs)):
        out.append(f"{name}: non-finite realized cost")
    if not np.all((p_taus >= 0.0) & (p_taus <= 1.0)):
        out.append(f"{name}: p_tau outside [0, 1]")
    if not np.all((taus >= 1) & (taus <= horizon)):
        out.append(f"{name}: stopping stage outside 1..{horizon}")
    if not 0 <= cap_hits <= n_paths:
        out.append(f"{name}: cap_hits={cap_hits} exceeds n_paths={n_paths}")
    return out


def sequence_problems(iterations, t_max: int, sup_diffs) -> list[str]:
    out = []
    if list(iterations) != list(range(1, t_max + 1)):
        out.append(f"expected one map per iteration 1..{t_max}, got {list(iterations)}")
    if len(sup_diffs) != t_max - 1:
        out.append(f"{len(sup_diffs)} sup-diffs for {t_max} iterations")
    if not all(math.isfinite(v) for v in sup_diffs):
        out.append(f"non-finite sup-diff in {sup_diffs}")
    return out


def roundtrip_problems(dmap: DetectionMap, qhat: np.ndarray) -> list[str]:
    """The map must survive to_dict/JSON/from_dict bit for bit on the audit grid,
    where it predicted `qhat`."""
    grid = solver.audit_grid(dmap.domain, dmap.variant)
    back = DetectionMap.from_dict(json.loads(json.dumps(dmap.to_dict())))
    a = qhat
    b = back.surrogate.predict_mean_many(grid)
    if a.tobytes() != b.tobytes():
        return [f"map round trip changed qhat by up to {np.max(np.abs(a - b)):.3g}"]
    return []


def paths_digest(records: list[tuple[str, np.ndarray, np.ndarray]]) -> str:
    h = hashlib.sha256()
    for name, taus, costs in records:
        h.update(name.encode())
        h.update(np.asarray(taus, dtype=float).tobytes())
        h.update(np.asarray(costs, dtype=float).tobytes())
    return h.hexdigest()[:16]


# -- workloads ---------------------------------------------------------------


class Workload:
    name: str
    workers: int            # worker processes the user path runs with
    map_name: str           # policy label of the map among the evaluated policies

    def raw_config(self, seed: int, out_dir: Path) -> dict:
        raise NotImplementedError

    def setup(self, seed: int, scratch: Path, workers: int):
        """Everything before the timed unit; returns the prepared state."""
        raise NotImplementedError

    def setup_digest(self, prep) -> str:
        """Identity of the prepared inputs; every set-up must give the same."""
        return prep.cfg.config_hash()

    def reset(self, prep) -> None:
        """Untimed clean-up before each unit."""

    def run(self, prep, workers: int) -> Outcome:
        """The timed unit."""
        raise NotImplementedError

    def check(self, prep, outcome: Outcome) -> None:
        """Untimed gates on one unit's outputs; fills `outcome.problems`."""
        raise NotImplementedError

    def finish(self, prep, outcome: Outcome) -> dict[str, list[str]]:
        """Untimed once-per-run work on the last unit: quality and its gates."""
        return {"map.roundtrip": roundtrip_problems(outcome.final_map, outcome.qhat)}

    def quality(self, mean_costs: dict[str, float]) -> dict[str, float]:
        """map_cost, its gap to the best threshold policy, and their ratio."""
        best = min(v for k, v in mean_costs.items() if k != self.map_name)
        cost = mean_costs[self.map_name]
        return {"map_cost": cost, "map_cost_gap": cost - best,
                "map_cost_ratio": cost / best}

    def decision_states(self, prep, outcome: Outcome, seed: int) -> list[ReducedState]:
        """States for the online decision phase, uniform over the map's domain."""
        dmap = outcome.final_map
        gen = np.random.default_rng([seed, 1])
        lo, hi = dmap.domain.lower, dmap.domain.upper
        m1 = dmap.epidemic.pool_sizes[0]
        states = []
        for _ in range(DECISIONS):
            i1 = int(gen.integers(lo[-2], hi[-2] + 1))
            s1 = m1 - i1 if len(lo) == 2 else int(gen.integers(lo[0], m1 - i1 + 1))
            states.append(ReducedState(s1, i1, float(gen.uniform(lo[-1], hi[-1]))))
        return states


def _base_config(seed: int, variant: str, srmc: dict, evaluate: dict, out_dir: Path) -> dict:
    return {"master_seed": seed, "variant": variant, "epidemic": dict(EPIDEMIC),
            "costs": dict(COSTS), "srmc": srmc, "evaluate": evaluate,
            "output": {"dir": str(out_dir)}}


@dataclass
class QuickLpPrep:
    config_path: Path
    out_dir: Path
    cfg: config.RunConfig


class QuickLp(Workload):
    """README pipeline through `cli.main`: lp2d `solve`, then `evaluate --map`."""

    name = "quick-lp"
    workers = 2
    map_name = "lp_map"
    t_max = 4

    def raw_config(self, seed: int, out_dir: Path) -> dict:
        srmc = {"n0": 150, "n_batch": 150, "n_end": 600, "d_candidates": 800,
                "t_max": self.t_max, "mpc_switch": 5, "tol": 0.0}
        final = out_dir / "maps" / f"map_t{self.t_max:02d}.json"
        evaluate = {"x0": X0, "n_paths": 200, "horizon": 20,
                    "policies": [{"kind": "map", "path": str(final),
                                  "name": self.map_name}] + THRESHOLDS}
        return _base_config(seed, "lp2d", srmc, evaluate, out_dir)

    def setup(self, seed: int, scratch: Path, workers: int) -> QuickLpPrep:
        out_dir = scratch / self.name
        out_dir.mkdir(parents=True, exist_ok=True)
        path = scratch / f"{self.name}.json"
        path.write_text(json.dumps(self.raw_config(seed, out_dir), indent=2))
        return QuickLpPrep(path, out_dir, config.load_config(path))

    def reset(self, prep: QuickLpPrep) -> None:
        shutil.rmtree(prep.out_dir, ignore_errors=True)

    def run(self, prep: QuickLpPrep, workers: int) -> Outcome:
        args = ["--config", str(prep.config_path), "--workers", str(workers)]
        with redirect_stdout(io.StringIO()):
            rc_solve = cli.main(["solve", *args])
            rc_eval = cli.main(["evaluate", *args])
        return Outcome(problems={}, extra={"rc": (rc_solve, rc_eval)})

    def check(self, prep: QuickLpPrep, outcome: Outcome) -> None:
        """Reads the CLI's output files back, as a user would."""
        out, t_max = prep.out_dir, self.t_max
        rc_solve, rc_eval = outcome.extra["rc"]
        solve_p = [] if rc_solve == 0 else [f"solve exited {rc_solve}"]
        eval_p = [] if rc_eval == 0 else [f"evaluate exited {rc_eval}"]
        outcome.problems = {"cli.solve": solve_p, "cli.evaluate": eval_p}
        if solve_p or eval_p:
            return
        maps = sorted(p.name for p in (out / "maps").glob("map_t*.json"))
        expected = [f"map_t{t:02d}.json" for t in range(1, t_max + 1)]
        if maps != expected:
            solve_p.append(f"map files {maps}, expected {expected}")
        for name in ("boundaries.csv", "convergence.json", "eval_summary.csv",
                     "eval_summary.json"):
            if not (out / name).is_file():
                (eval_p if name.startswith("eval") else solve_p).append(f"missing {name}")
        if solve_p or eval_p:
            return
        conv = json.loads((out / "convergence.json").read_text())
        solve_p += sequence_problems(range(1, conv["iterations"] + 1), t_max,
                                     conv["sup_diffs"])
        outcome.final_map = DetectionMap.load(out / "maps" / expected[-1])

        summary = json.loads((out / "eval_summary.json").read_text())
        records = []
        for pol in summary["policies"]:
            name = pol["policy"]
            csv_path = out / f"paths_{name}.csv"
            if not csv_path.is_file():
                eval_p.append(f"missing {csv_path.name}")
                continue
            with csv_path.open() as fh:
                rows = list(csv.reader(fh))[2:]
            taus = np.array([float(r[1]) for r in rows])
            costs = np.array([float(r[2]) for r in rows])
            p_taus = np.array([float(r[3]) for r in rows])
            eval_p += report_problems(name, taus, costs, p_taus, pol["cap_hits"],
                                      summary["n_paths"], summary["horizon"])
            if not math.isclose(float(np.mean(costs)), pol["mean_cost"], rel_tol=1e-12):
                eval_p.append(f"{name}: summary mean_cost disagrees with per-path costs")
            records.append((name, taus, costs))
            outcome.mean_costs[name] = pol["mean_cost"]
        if self.map_name not in outcome.mean_costs or len(outcome.mean_costs) < 2:
            eval_p.append(f"policies evaluated: {sorted(outcome.mean_costs)}")
        outcome.paths_digest = paths_digest(records)


@dataclass
class SolvePrep:
    cfg: config.RunConfig


class CaseSolve(Workload):
    """`solve` on the full3d case-study problem, cut short, serial."""

    name = "case-solve"
    workers = 1
    map_name = "map"
    t_max = 2

    def raw_config(self, seed: int, out_dir: Path) -> dict:
        srmc = {"n0": 200, "n_batch": 200, "n_end": 1000, "d_candidates": 2500,
                "acquisition": "min", "t_max": self.t_max, "mpc_switch": 5,
                "tol": 0.0, "span": 0.4, "degree": 1, "trace_s1": 1990}
        evaluate = {"x0": X0, "n_paths": 500, "horizon": 30, "policies": THRESHOLDS}
        return _base_config(seed, "full3d", srmc, evaluate, out_dir)

    def setup(self, seed: int, scratch: Path, workers: int) -> SolvePrep:
        return SolvePrep(config.parse_config(self.raw_config(seed, scratch)))

    def run(self, prep: SolvePrep, workers: int) -> Outcome:
        cfg = prep.cfg
        seq = solver.solve(cfg.srmc, cfg.epidemic, cfg.costs, cfg.variant, workers=workers)
        return Outcome(problems={}, final_map=seq.final(), extra={"seq": seq})

    def check(self, prep: SolvePrep, outcome: Outcome) -> None:
        seq = outcome.extra.pop("seq")
        problems = sequence_problems([m.iteration for m in seq.maps], self.t_max,
                                     seq.sup_diffs)
        n_end = prep.cfg.srmc.n_end
        for m in seq.maps:
            if m.surrogate.n_points != n_end:
                problems.append(f"map {m.iteration} holds {m.surrogate.n_points} points")
        outcome.problems = {"solver.solve": problems}

    def finish(self, prep: SolvePrep, outcome: Outcome) -> dict[str, list[str]]:
        """Scores the final map on frozen paths, as `epidetect evaluate` would."""
        cfg = prep.cfg
        ev = cfg.evaluate
        frozen = strategy.simulate_paths(
            ev.x0, ev.n_paths, ev.horizon, cfg.epidemic, cfg.variant,
            RngStream(cfg.master_seed).derive(*cli.EVAL_STREAM), workers=1)
        problems = []
        records = []
        policies = [strategy.MapPolicy(outcome.final_map, label=self.map_name),
                    strategy.ThresholdP(0.8), strategy.ThresholdT(8)]
        for pol in policies:
            rep = strategy.evaluate_on(pol, frozen, cfg.costs)
            problems += report_problems(rep.policy_name, rep.taus, rep.costs, rep.p_taus,
                                        rep.cap_hits, ev.n_paths, ev.horizon)
            outcome.mean_costs[rep.policy_name] = rep.mean_cost
            records.append((rep.policy_name, rep.taus, rep.costs))
        outcome.paths_digest = paths_digest(records)
        return {"quality.evaluate": problems, **super().finish(prep, outcome)}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (QuickLp(), CaseSolve())}
