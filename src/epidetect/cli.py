"""Command-line front end: solve, evaluate, simulate, export-map.

All randomness flows from the single master seed through derived streams;
there is no ambient entropy, so identical invocations produce identical
output bytes. Every output file embeds the config hash and master seed.

Exit codes: 0 success, 2 configuration error, 3 solver/runtime error;
-v/--verbose prints the traceback of a runtime error.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import traceback
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import parallel
from .config import ConfigError, RunConfig, load_config
from .costs import immediate_cost
from .rng import RngStream
from .sir import outbreak_time, simulate_interval
from .solver import MAP_COORDS, DetectionMap, lattice, solve, surrogate_inputs
from .strategy import (
    MapPolicy,
    Policy,
    StrategyReport,
    ThresholdP,
    ThresholdT,
    evaluate_on,
    paired_compare,
    simulate_paths,
)

# Stream addresses reserved for CLI-level simulation (solver owns t >= 1).
EVAL_STREAM = (0, 0)
SIM_REDUCED_STREAM = (0, 1)
SIM_TWO_POOL_STREAM = (0, 2)


def _write_csv(path: Path, header: Sequence[str], rows, config_hash: str, seed: int) -> None:
    with path.open("w", newline="") as fh:
        fh.write(f"# config_hash={config_hash} master_seed={seed}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _make_dir(path: Path) -> None:
    """Create the output directory `path`; a file in its way is a config error."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"cannot make output directory {path}: a file is in the way") from None


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


# ---------------------------------------------------------------- solve --


def cmd_solve(cfg: RunConfig, workers: int) -> None:
    out = cfg.output_dir
    maps_dir = out / "maps"
    _make_dir(maps_dir)
    chash = cfg.config_hash()

    method = "SRMC (sequential)" if cfg.srmc.sequential else "RMC (non-sequential)"
    print(f"solve: variant={cfg.variant.value} method={method} "
          f"n_end={cfg.srmc.n_end} t_max={cfg.srmc.t_max} seed={cfg.master_seed}")

    def progress(t: int, shift: float) -> None:
        if np.isnan(shift):
            print(f"  iteration {t:3d}")
        else:
            print(f"  iteration {t:3d}  boundary shift in P = {shift:.4f}")

    result = solve(
        cfg.srmc, cfg.epidemic, cfg.costs, cfg.variant,
        workers=workers, progress=progress,
    )

    for dmap in result.maps:
        doc = dmap.to_dict()
        doc["config_hash"] = chash
        (maps_dir / f"map_t{dmap.iteration:02d}.json").write_text(json.dumps(doc))

    rows = [[dmap.iteration, *map(_fmt, line), "" if np.isnan(p) else _fmt(float(p))]
            for dmap, trace in zip(result.maps, result.traces)
            for line, p in zip(result.trace_lines.tolist(), trace)]
    _write_csv(out / "boundaries.csv", ["t", *MAP_COORDS[cfg.variant][:-1], "p_boundary"],
               rows, chash, cfg.master_seed)

    report = {
        "config_hash": chash,
        "master_seed": cfg.master_seed,
        "variant": cfg.variant.value,
        "method": method,
        "iterations": result.iterations,
        "converged": result.converged,
        "tol": cfg.srmc.tol,
        "sup_diffs": result.sup_diffs,
        "warning": result.warning,
        "final_map": f"maps/map_t{result.final().iteration:02d}.json",
        "config": cfg.raw,
    }
    (out / "convergence.json").write_text(json.dumps(report, indent=2))
    if result.warning:
        print(f"warning: {result.warning}")
    print(f"solve: wrote {result.iterations} maps to {maps_dir}")


# ------------------------------------------------------------- evaluate --


def _params_match(dmap: DetectionMap, cfg: RunConfig,
                  ignore_costs: bool = False) -> Optional[str]:
    """None when compatible, else a message citing both parameter sets."""
    if dmap.epidemic == cfg.epidemic and (ignore_costs or dmap.costs == cfg.costs):
        return None
    return (
        "map was built under different parameters than the config: "
        f"map epidemic={dmap.epidemic}, costs={dmap.costs}; "
        f"config epidemic={cfg.epidemic}, costs={cfg.costs} "
        "(pass --allow-param-mismatch to evaluate anyway)"
    )


def _load_map(path, source: str) -> DetectionMap:
    """A missing or unreadable map file is a configuration error; a malformed one is not."""
    try:
        return DetectionMap.load(path)
    except FileNotFoundError:
        raise ConfigError(f"{source} names a map file that does not exist: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{source} names a map file that cannot be read: {exc}") from None


def _build_policies(cfg: RunConfig, map_paths: Sequence[str],
                    allow_mismatch: bool, per_map_costs: bool) -> list[Policy]:
    policies: list[Policy] = []
    specs = list(cfg.evaluate.policies) if cfg.evaluate else []

    def load_map(path, label, source):
        dmap = _load_map(path, source)
        mismatch = _params_match(dmap, cfg, ignore_costs=per_map_costs)
        if mismatch and not allow_mismatch:
            raise ConfigError(mismatch)
        return MapPolicy(dmap, label=label)

    for spec in specs:  # each checked and cast by the config
        if spec["kind"] == "map":
            policies.append(load_map(spec["path"], spec.get("name"), f"policy entry {spec}"))
        elif spec["kind"] == "threshold_p":
            policies.append(ThresholdP(spec["p_bar"]))
        else:
            policies.append(ThresholdT(spec["t_bar"]))
    for path in map_paths:
        policies.append(load_map(path, Path(path).stem, "--map"))
    if not policies:
        raise ConfigError("no policies to evaluate: config 'evaluate.policies' "
                          "is empty and no --map was given")
    names = [policy.name for policy in policies]
    for name in names:
        if names.count(name) > 1:  # each policy writes paths_<name>.csv
            raise ConfigError(f"two policies are named {name!r}: give each a distinct "
                              "name (a --map is named after its file stem)")
    return policies


def cmd_evaluate(cfg: RunConfig, map_paths: Sequence[str], allow_mismatch: bool,
                 per_map_costs: bool, workers: int) -> None:
    if cfg.evaluate is None:
        raise ConfigError("config has no 'evaluate' section")
    policies = _build_policies(cfg, map_paths, allow_mismatch, per_map_costs)
    out = cfg.output_dir
    _make_dir(out)
    chash = cfg.config_hash()

    ev = cfg.evaluate
    print(f"evaluate: {len(policies)} policies on {ev.n_paths} frozen paths "
          f"(variant={cfg.variant.value}, horizon={ev.horizon})")
    rng = RngStream(cfg.master_seed).derive(*EVAL_STREAM)
    # each path is stepped only until every policy has announced on it
    paths = simulate_paths(
        ev.x0, ev.n_paths, ev.horizon, cfg.epidemic, cfg.variant, rng,
        workers=workers, policies=policies,
    )

    reports: list[StrategyReport] = []
    for policy in policies:
        # penalty sweeps score each map under the costs it was solved for
        costs = (policy.dmap.costs
                 if per_map_costs and isinstance(policy, MapPolicy) else cfg.costs)
        report = evaluate_on(policy, paths, costs)
        reports.append(report)
        print(f"  {report.policy_name:>20s}: mean_tau={report.mean_tau:.2f} "
              f"sd_tau={report.sd_tau:.2f} mean_cost={report.mean_cost:.3f} "
              f"sd_cost={report.sd_cost:.2f} pfa={100 * report.pfa:.1f}% "
              f"cap_hits={report.cap_hits}")

    summaries = [r.summary_dict() for r in reports]
    _write_csv(out / "eval_summary.csv", list(summaries[0]),
               [[_fmt(v) for v in row.values()] for row in summaries], chash, cfg.master_seed)

    # scenario-by-scenario comparison of the first policy against the rest
    paired = []
    for other in reports[1:]:
        cmp = paired_compare(reports[0], other)
        paired.append({
            "a": cmp.name_a,
            "b": cmp.name_b,
            "frac_a_better": cmp.frac_a_better,
            "frac_b_better": cmp.frac_b_better,
            "mean_diff": cmp.mean_diff,
        })
        print(f"  paired {cmp.name_a} vs {cmp.name_b}: "
              f"a strictly better on {100 * cmp.frac_a_better:.1f}% "
              f"(mean diff {cmp.mean_diff:+.3f})")

    summary = {
        "config_hash": chash,
        "master_seed": cfg.master_seed,
        "variant": cfg.variant.value,
        "x0": [ev.x0.s1, ev.x0.i1, ev.x0.p],
        "n_paths": ev.n_paths,
        "horizon": ev.horizon,
        "policies": summaries,
        "paired": paired,
        "config": cfg.raw,
    }
    (out / "eval_summary.json").write_text(json.dumps(summary, indent=2))

    for report in reports:
        rows = [[n, _fmt(float(report.taus[n])), _fmt(float(report.costs[n])),
                 _fmt(float(report.p_taus[n]))]
                for n in range(report.n_paths)]
        _write_csv(out / f"paths_{report.policy_name}.csv",
                   ["path", "tau", "cost", "p_tau"], rows, chash, cfg.master_seed)
    print(f"evaluate: wrote summary and per-path records to {out}")


# ------------------------------------------------------------- simulate --


def cmd_simulate(cfg: RunConfig, workers: int) -> None:
    if cfg.simulate is None:
        raise ConfigError("config has no 'simulate' section")
    sim = cfg.simulate
    out = cfg.output_dir
    _make_dir(out)
    chash = cfg.config_hash()

    rng = RngStream(cfg.master_seed).derive(*SIM_REDUCED_STREAM)
    frozen = simulate_paths(
        sim.x0, sim.n_paths, sim.horizon, cfg.epidemic, cfg.variant, rng, workers=workers
    )
    rows = []
    for n in range(frozen.n_paths):
        # tolist() gives Python ints and floats, so `_fmt` prints reprs, not np.float64(...)
        stages = zip(frozen.s1[n].tolist(), frozen.i1[n].tolist(), frozen.p[n].tolist())
        for t, (s1, i1, p) in enumerate(stages):
            rows.append([n, t, s1, i1, _fmt(p)])
    _write_csv(out / "trajectories.csv", ["path", "t", "s1", "i1", "p"],
               rows, chash, cfg.master_seed)
    print(f"simulate: wrote {sim.n_paths} reduced trajectories to {out / 'trajectories.csv'}")

    if sim.two_pool:
        m2 = cfg.epidemic.pool_sizes[1]
        root = RngStream(cfg.master_seed).derive(*SIM_TWO_POOL_STREAM)

        def ground_truth(lo: int, hi: int) -> list:
            trajs = []
            for stream in root.derive_span((), lo, hi):
                traj = [((sim.x0.s1, m2), (sim.x0.i1, 0))]  # (s, i) count pairs per epoch
                for _ in range(sim.horizon):
                    traj.append(simulate_interval(*traj[-1], cfg.epidemic, 1.0, stream))
                trajs.append(traj)
            return trajs

        rows = []
        for n, traj in enumerate(parallel.indexed_map(ground_truth, sim.n_paths, workers)):
            theta = outbreak_time([i[1] for _s, i in traj])
            for t, ((s1, s2), (i1, i2)) in enumerate(traj):
                rows.append([n, t, s1, i1, s2, i2, "" if theta is None else theta])
        _write_csv(out / "two_pool.csv",
                   ["path", "t", "s1", "i1", "s2", "i2", "theta"],
                   rows, chash, cfg.master_seed)
        print(f"simulate: wrote ground-truth trajectories to {out / 'two_pool.csv'}")


# ----------------------------------------------------------- export-map --


def cmd_export_map(map_path: str, out_dir: str, grid_n: int) -> None:
    dmap = _load_map(map_path, "--map")
    out = Path(out_dir)
    _make_dir(out)
    doc_hash = hashlib.sha256(Path(map_path).read_bytes()).hexdigest()[:16]

    grid = lattice(dmap.domain, grid_n)
    means, stderrs = dmap.surrogate.predict_many(surrogate_inputs(grid))
    # the map's own decision, by the one-stage look-ahead on the extinct line I1 = 0
    announce = dmap.score_locations(grid) > 0.0
    rows = [[*(_fmt(float(v)) for v in loc), _fmt(float(mu)), _fmt(float(se)),
             _fmt(immediate_cost(float(loc[-1]), dmap.costs)), int(a)]
            for loc, mu, se, a in zip(grid, means, stderrs, announce)]
    name = Path(map_path).stem
    _write_csv(out / f"{name}_grid.csv",
               [*MAP_COORDS[dmap.variant], "qhat", "stderr", "d", "announce"],
               rows, doc_hash, dmap.master_seed)
    print(f"export-map: wrote {out / (name + '_grid.csv')}")


# ----------------------------------------------------------------- main --


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to the JSON run config")
    p.add_argument("--seed", type=int, default=None,
                   help="master seed (overrides the config)")
    p.add_argument("--out", default=None, help="output directory (overrides the config)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes, this one included "
                        "(default: available cores)")
    p.add_argument("--variant", choices=["full3d", "lp2d"], default=None,
                   help="model variant (overrides the config)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epidetect",
        description="Optimal epidemic-detection policies for a two-pool "
                    "stochastic SIR model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="build detection maps")
    _add_common(p_solve)

    p_eval = sub.add_parser("evaluate", help="score policies on frozen scenarios")
    _add_common(p_eval)
    p_eval.add_argument("--map", action="append", default=[], dest="maps",
                        help="detection-map JSON to evaluate (repeatable)")
    p_eval.add_argument("--allow-param-mismatch", action="store_true",
                        help="evaluate maps built under different parameters")
    p_eval.add_argument("--per-map-costs", action="store_true",
                        help="score each map under the costs stored in it "
                             "(penalty sweeps over shared scenarios)")

    p_sim = sub.add_parser("simulate", help="write sample trajectories")
    _add_common(p_sim)

    p_exp = sub.add_parser("export-map", help="export a map as a prediction grid CSV")
    p_exp.add_argument("--map", required=True, help="detection-map JSON")
    p_exp.add_argument("--out", default="out", help="output directory")
    p_exp.add_argument("--grid", type=int, default=20, help="grid points per axis")

    for p in (p_solve, p_eval, p_sim, p_exp):
        p.add_argument("-v", "--verbose", action="store_true",
                       help="print the traceback of a runtime error (exit 3)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag in ("grid", "workers"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            parser.error(f"argument --{flag}: expected at least 1, got {value}")
    try:
        if args.command == "export-map":
            cmd_export_map(args.map, args.out, args.grid)
            return 0
        cfg = load_config(
            args.config,
            seed_override=args.seed,
            out_override=args.out,
            variant_override=args.variant,
        )
        workers = args.workers if args.workers is not None else parallel.default_workers()
        if args.command == "solve":
            cmd_solve(cfg, workers)
        elif args.command == "evaluate":
            cmd_evaluate(cfg, args.maps, args.allow_param_mismatch,
                         args.per_map_costs, workers)
        elif args.command == "simulate":
            cmd_simulate(cfg, workers)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # solver/runtime failure
        if args.verbose:
            traceback.print_exc()
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
