"""In-memory span tracing of calls into epidetect's modules, from outside.

A `Tracer` replaces a module attribute or class method with a wrapper that
records one span per call: name, layer, start, end and the index of the
enclosing span. Each name is patched where its caller looks it up (for
example `epidetect.solver.step`, not `epidetect.reduced.step`), so the
program itself is unchanged. Optional hooks turn a call's arguments and
result into counts at the same boundary.

Spans stay in memory and are written out once, after the run.
"""
from __future__ import annotations

import functools
import json
import pathlib
import types
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import numpy as np

Hook = Callable[["Tracer", tuple, dict, object], None]


class Tracer:
    """Records spans for patched callables; `uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []   # (name, layer, start, end, parent)
        self.counts: Counter = Counter()
        self.values: defaultdict = defaultdict(list)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        # a class keeps its own descriptor (function, classmethod) for restoring
        old = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, layer: str,
             hook: Optional[Hook] = None) -> None:
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, layer, t0, t1, parent)
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        self.replace(owner, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def closed_spans(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def write(self, path: Path) -> None:
        """Spans as JSON lines: name, layer, start, end, parent index."""
        with path.open("w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(s) + "\n")


def _count(key: str) -> Hook:
    def hook(tr: Tracer, args, kwargs, out) -> None:
        tr.counts[key] += 1
    return hook


def _rows(key: str) -> Hook:
    def hook(tr: Tracer, args, kwargs, out) -> None:
        tr.counts[key] += np.atleast_2d(np.asarray(args[1])).shape[0]
    return hook


def _sir_events(tr: Tracer, args, kwargs, out) -> None:
    # one event moves S->I (s drops by 1, i rises by 1) or I->R (i drops by 1)
    s0, i0 = args[0], args[1]
    s1, i1 = out
    tr.counts["sir.events"] += 2 * (s0 - s1) + i0 - i1


def _boundary_rows(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["design.candidates"] += np.asarray(args[0]).size


def _fallback(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["design.uniform_fallbacks"] += int(bool(out[1]))


def _scenario(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["solver.scenarios"] += 1
    tr.counts["solver.scenario_stages"] += int(out[0])


def _built_map(tr: Tracer, args, kwargs, out) -> None:
    for rnd in out.build_info.get("rounds", []):
        tr.values["design.band"].append(rnd["frac_band_p10"])


def _frozen(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["strategy.paths"] += out.n_paths


def _report(tr: Tracer, args, kwargs, out) -> None:
    # evaluate_on asks the policy once per stage t = 1..tau on every path
    tr.counts["strategy.decisions"] += int(np.sum(out.taus))
    tr.counts["strategy.cap_hits"] += int(out.cap_hits)


def _items(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["parallel.items"] += int(args[1])


def _written(tr: Tracer, args, kwargs, out) -> None:
    tr.counts["cli.bytes_written"] += Path(args[0]).stat().st_size


def install_indexed_map_probe(tracer: Tracer) -> None:
    """Spans for `parallel.indexed_map` and a count of pools it starts."""
    from epidetect import parallel

    tracer.wrap(parallel, "indexed_map", "parallel.indexed_map", "parallel", _items)
    tracer.wrap(parallel, "ProcessPoolExecutor", "parallel.pool", "parallel",
                _count("parallel.pools"))


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the workloads cross."""
    from epidetect import cli, loess, reduced, rng, solver, strategy

    tracer.wrap(reduced, "single_pool_interval", "sir.single_pool_interval", "sir",
                _sir_events)
    tracer.wrap(solver, "step", "reduced.step", "reduced")
    tracer.wrap(strategy, "step", "reduced.step", "reduced")

    tracer.wrap(solver, "loess_fit", "loess.fit", "loess")
    tracer.wrap(loess.LoessModel, "predict_many", "loess.predict_many", "loess",
                _rows("loess.se_queries"))
    tracer.wrap(loess.LoessModel, "predict_mean_many", "loess.predict_mean_many",
                "loess", _rows("loess.batch_queries"))
    tracer.wrap(loess.LoessModel, "predict_mean", "loess.predict_mean", "loess")

    tracer.wrap(solver, "lhs", "design.lhs", "design")
    tracer.wrap(solver, "boundary_probability", "design.boundary_probability",
                "design", _boundary_rows)
    tracer.wrap(solver, "acquisition_weight", "design.acquisition_weight", "design")
    tracer.wrap(solver, "sample_indices", "design.sample_indices", "design", _fallback)

    tracer.wrap(solver, "solve", "solver.solve", "solver")
    tracer.wrap(cli, "solve", "solver.solve", "solver")
    tracer.wrap(solver, "build_map", "solver.build_map", "solver", _built_map)
    tracer.wrap(solver, "path_and_cost", "solver.path_and_cost", "solver", _scenario)
    tracer.wrap(solver, "boundary_trace", "solver.boundary_trace", "solver")
    tracer.wrap(solver.DetectionMap, "announce", "solver.announce", "solver")
    tracer.wrap(solver.DetectionMap, "score_location", "solver.score_location", "solver")
    tracer.wrap(solver.DetectionMap, "to_dict", "solver.to_dict", "solver")

    for owner in (strategy, cli):
        tracer.wrap(owner, "simulate_paths", "strategy.simulate_paths", "strategy",
                    _frozen)
        tracer.wrap(owner, "evaluate_on", "strategy.evaluate_on", "strategy", _report)

    install_indexed_map_probe(tracer)
    tracer.wrap(rng.RngStream, "derive", "rng.derive", "rng")

    for owner in (solver, strategy):
        tracer.wrap(owner, "pathwise_cost", "costs.pathwise_cost", "costs")
    tracer.wrap(solver, "immediate_cost", "costs.immediate_cost", "costs")

    tracer.wrap(cli, "main", "cli.main", "cli")
    tracer.wrap(cli, "_write_csv", "cli.write_csv", "cli", _written)
    # cli serialises with `json.dumps` and writes with `Path.write_text`
    json_proxy = types.ModuleType("json")
    json_proxy.__dict__.update(cli.json.__dict__)
    tracer.replace(cli, "json", json_proxy)
    tracer.wrap(json_proxy, "dumps", "cli.json_dumps", "cli")
    tracer.wrap(pathlib.Path, "write_text", "cli.write_text", "cli", _written)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts, busy and self times from one traced pass."""
    spans = tracer.closed_spans()
    names = [s[0] for s in spans]
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for s, d in zip(spans, dur):
        if s[4] >= 0:
            child[s[4]] += d
    busy: Counter = Counter()
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for s, d, c in zip(spans, dur, child):
        busy[s[0]] += d
        calls[s[0]] += 1
        self_s[s[1]] += d - c

    def under(name: str, parent: str) -> list[int]:
        return [j for j, s in enumerate(spans)
                if s[0] == name and s[4] >= 0 and names[s[4]] == parent]

    cnt = tracer.counts
    audit = under("loess.predict_mean_many", "solver.solve")
    band = tracer.values["design.band"]
    return {
        "sir.calls": calls["sir.single_pool_interval"],
        "sir.events": cnt["sir.events"],
        "sir.busy_s": busy["sir.single_pool_interval"],
        "sir.events_per_s": _ratio(cnt["sir.events"], busy["sir.single_pool_interval"]),
        "reduced.steps": calls["reduced.step"],
        "reduced.self_s": self_s["reduced"],
        "loess.fits": calls["loess.fit"],
        "loess.fit_s": busy["loess.fit"],
        "loess.se_queries": cnt["loess.se_queries"],
        "loess.se_s": busy["loess.predict_many"],
        "loess.se_us_per_query": 1e6 * _ratio(busy["loess.predict_many"],
                                              cnt["loess.se_queries"]),
        "loess.batch_queries": cnt["loess.batch_queries"],
        "loess.batch_s": busy["loess.predict_mean_many"],
        "loess.batch_us_per_query": 1e6 * _ratio(busy["loess.predict_mean_many"],
                                                 cnt["loess.batch_queries"]),
        "loess.point_queries": calls["loess.predict_mean"],
        "loess.point_s": busy["loess.predict_mean"],
        "loess.point_us_per_query": 1e6 * _ratio(busy["loess.predict_mean"],
                                                 calls["loess.predict_mean"]),
        "loess.self_s": self_s["loess"],
        "design.candidates": cnt["design.candidates"],
        "design.acquire_s": self_s["design"],
        "design.uniform_fallbacks": cnt["design.uniform_fallbacks"],
        "design.band_ratio": float(np.mean(band)) if band else 0.0,
        "solver.scenarios": cnt["solver.scenarios"],
        "solver.scenario_stages": cnt["solver.scenario_stages"],
        "solver.simulate_s": busy["solver.path_and_cost"],
        "solver.map_queries": len(under("solver.announce", "solver.path_and_cost")),
        "solver.audit_s": sum(dur[j] for j in audit),
        "solver.trace_s": busy["solver.boundary_trace"],
        "solver.trace_queries": len(under("solver.score_location",
                                          "solver.boundary_trace")),
        "solver.self_s": self_s["solver"],
        "strategy.paths": cnt["strategy.paths"],
        "strategy.simulate_paths_s": busy["strategy.simulate_paths"],
        "strategy.evaluate_on_s": busy["strategy.evaluate_on"],
        "strategy.decisions": cnt["strategy.decisions"],
        "strategy.cap_hits": cnt["strategy.cap_hits"],
        "strategy.self_s": self_s["strategy"],
        "parallel.calls": calls["parallel.indexed_map"],
        "parallel.items": cnt["parallel.items"],
        "parallel.self_s": self_s["parallel"],
        "rng.derives": calls["rng.derive"],
        "rng.derive_s": busy["rng.derive"],
        "costs.calls": calls["costs.pathwise_cost"] + calls["costs.immediate_cost"],
        "costs.busy_s": self_s["costs"],
        "cli.bytes_written": cnt["cli.bytes_written"],
        "cli.write_s": (busy["cli.write_csv"] + busy["cli.json_dumps"]
                        + busy["cli.write_text"]),
        "cli.self_s": self_s["cli"],
        "trace.spans": len(spans),
    }


def parallel_metrics(serial: Tracer, parallel_run: Tracer, workers: int) -> dict[str, float]:
    """Pool use at the workload's worker count, against the serial pass.

    efficiency = serial time inside `indexed_map` / (workers * parallel time).
    """
    def inside(tr: Tracer) -> float:
        return sum(s[3] - s[2] for s in tr.closed_spans()
                   if s[0] == "parallel.indexed_map")

    wall = inside(parallel_run)
    return {
        "parallel.wall_s": wall,
        "parallel.pools": parallel_run.counts["parallel.pools"],
        "parallel.efficiency": _ratio(inside(serial), workers * wall),
    }
