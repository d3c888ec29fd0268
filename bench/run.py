"""epidetect benchmark: run one workload from one seed and print one JSON result.

    python3 bench/run.py --workload quick-lp --seed 1 --seconds 45 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
The program is imported from `src/`; nothing needs installing.

--trace 0 sets up the workload five times (median = setup_s), runs one
untimed warm-up unit, then repeats its timed unit until --seconds would be
exceeded (median = wall_s), checks every unit's outputs, times single online
decisions on the unit's final map after each unit (printed as decide_p50_us /
decide_p99_us) and scores the final map. --trace 1 runs the unit three times instead: serial and at the
workload's worker count with only `parallel.indexed_map` probed, then
serial with every layer boundary traced (see spans.py); it reports the
per-layer metrics and writes the spans to bench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; a
full result with machine info and the final-map fingerprint goes to
bench/out/<workload>-seed<seed>-trace<t>.json (compare two with compare.py).
Exit code 0 when every gate passed, 1 when a gate failed, 2 when the
program cannot be imported or the arguments are invalid.
"""
from __future__ import annotations

import os

# BLAS/OpenMP pools must be pinned before numpy loads: worker processes
# times threads would otherwise exceed the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("quick-lp", "case-solve")


class Tally:
    """Operations attempted and failed; a failed gate fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: dict[str, list[str]]) -> None:
        for op, found in problems.items():
            self.attempted += 1
            if found:
                self.failed += 1
                self.problems += [f"{op}: {p}" for p in found]


def cold_import() -> None:
    """A fresh interpreter importing the CLI: what every command-line call pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import epidetect.cli"], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)


def machine_info(workers: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0   # ru_maxrss is in KiB on Linux


class Bench:
    def __init__(self, workload, seed: int, scratch: Path, workers: int):
        self.wl = workload
        self.seed = seed
        self.scratch = scratch
        self.workers = workers
        self.tally = Tally()
        self.info: dict = {}

    def setup(self, repeats: int):
        times, digests, prep = [], [], None
        for _ in range(repeats):
            t0 = perf_counter()
            cold_import()
            prep = self.wl.setup(self.seed, self.scratch, self.workers)
            times.append(perf_counter() - t0)
            digests.append(self.wl.setup_digest(prep))
        self.tally.record({"setup": [] if len(set(digests)) == 1
                           else [f"set-ups disagree: {digests}"]})
        self.info["setup_times_s"] = times
        return median(times), prep

    def unit(self, prep, workers: int):
        self.wl.reset(prep)
        gc.collect()   # garbage of the previous unit is not this unit's time
        t0 = perf_counter()
        outcome = self.wl.run(prep, workers)
        wall = perf_counter() - t0
        self.wl.check(prep, outcome)
        self.tally.record(outcome.problems)
        return outcome, wall

    def same_outputs(self, first, other, label: str) -> None:
        found = []
        if other.digest() != first.digest():
            found.append(f"digest {other.digest()} != {first.digest()}")
        if other.mean_costs != first.mean_costs:
            found.append(f"mean costs {other.mean_costs} != {first.mean_costs}")
        self.tally.record({f"determinism.{label}": found})

    def finish(self, prep, outcome) -> dict:
        self.tally.record(self.wl.finish(prep, outcome))
        q = self.wl.quality(outcome.mean_costs)
        self.info["quality"] = {**q, "mean_costs": outcome.mean_costs}
        self.info["fingerprint"] = {"digest": outcome.digest(),
                                    "paths_digest": outcome.paths_digest,
                                    "qhat": outcome.qhat.tolist()}
        return q

    def decisions(self, prep, outcome) -> list[float]:
        """Latency of single announce/wait decisions, microseconds each."""
        dmap = outcome.final_map
        states = self.wl.decision_states(prep, outcome, self.seed)
        lat, bad = [], 0
        for x in states:
            t0 = perf_counter_ns()
            decision = dmap.announce(x)
            lat.append((perf_counter_ns() - t0) / 1000.0)
            bad += not isinstance(decision, bool)
        self.tally.attempted += len(states)
        if bad:
            self.tally.failed += bad
            self.tally.problems.append(f"decide: {bad} non-boolean decisions")
        return lat

    def measured(self, seconds: float) -> dict:
        setup_s, prep = self.setup(SETUP_REPEATS)
        # the warm-up unit pays lazy imports and first-touch costs; it is
        # checked and is the reference for determinism, but not timed
        first, _ = self.unit(prep, self.workers)
        if any(first.problems.values()):
            raise RuntimeError("the warm-up unit failed its gates")
        walls, lat, good = [], [], first
        start = perf_counter()
        while True:
            outcome, wall = self.unit(prep, self.workers)
            walls.append(wall)
            if any(outcome.problems.values()):
                break   # a broken unit is reported, not repeated
            good = outcome
            # decisions after every unit spread the samples over the window
            lat += self.decisions(prep, outcome)
            self.same_outputs(first, outcome, f"rep{len(walls)}")
            if perf_counter() - start + wall > seconds:
                break
        q = self.finish(prep, good)
        # decision latency is printed, not a bounded metric: it does not repeat
        # within its bound across runs on a shared host (see README)
        self.info.update(walls_s=walls, decide_samples=len(lat), decide_p50_us=median(lat),
                         decide_p99_us=quantiles(lat, n=100, method="inclusive")[98])
        return {
            "wall_s": median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(),
            "map_cost": q["map_cost"],
            "map_cost_ratio": q["map_cost_ratio"],
        }

    def traced(self) -> dict:
        import spans

        _, prep = self.setup(1)

        def one_pass(workers: int, install):
            tracer = spans.Tracer()
            install(tracer)
            try:
                outcome, wall = self.unit(prep, workers)
            finally:
                tracer.uninstall()
            return tracer, outcome, wall

        serial, base, base_wall = one_pass(1, spans.install_indexed_map_probe)
        par = serial
        if self.workers > 1:
            par, outcome, _ = one_pass(self.workers, spans.install_indexed_map_probe)
            self.same_outputs(base, outcome, f"workers{self.workers}")
        tracer, outcome, traced_wall = one_pass(1, spans.install)
        self.same_outputs(base, outcome, "traced")
        self.finish(prep, outcome)
        metrics = spans.layer_metrics(tracer)
        metrics.update(spans.parallel_metrics(serial, par, self.workers))
        metrics["trace.overhead_s"] = traced_wall - base_wall
        tracer.write(OUT / f"spans-{self.wl.name}-seed{self.seed}.jsonl")
        self.info.update(untraced_wall_s=base_wall, traced_wall_s=traced_wall)
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("bench: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    if not (SRC / "epidetect" / "__init__.py").is_file():
        print(f"bench: no program at {SRC / 'epidetect'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    workers = min(wl.workers, len(os.sched_getaffinity(0)))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"tmp-{wl.name}-") as tmp:
        bench = Bench(wl, args.seed, Path(tmp), workers)
        try:
            metrics = bench.traced() if args.trace else bench.measured(args.seconds)
        except Exception:
            traceback.print_exc()
            for line in bench.tally.problems:
                print(f"  FAILED {line}", file=sys.stderr)
            print(f"bench: {wl.name} failed; no result", file=sys.stderr)
            return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(units):
        print(f"bench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 1
    if not all(math.isfinite(v) for v in metrics.values()):
        print(f"bench: non-finite metrics {metrics}", file=sys.stderr)
        return 1
    tally = bench.tally
    correct = tally.failed == 0
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_info(workers),
              "error_rate": tally.failed / tally.attempted, "problems": tally.problems,
              **bench.info, **result}
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    print(f"{wl.name} seed={args.seed} workers={workers} trace={args.trace} -> {path}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    if "quality" in bench.info:
        print(f"  {'map_cost_gap':28s} {bench.info['quality']['map_cost_gap']:14.6g} cost")
    if "decide_samples" in bench.info:
        for name in ("decide_p50_us", "decide_p99_us"):
            print(f"  {name:28s} {bench.info[name]:14.6g} us")
        print(f"  {'decide_samples':28s} {bench.info['decide_samples']:14d} count")
    print(f"  {'error_rate':28s} {record['error_rate']:14.6g} "
          f"({tally.failed}/{tally.attempted})")
    for line in tally.problems:
        print(f"  FAILED {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
