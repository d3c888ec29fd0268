"""Self-tests of the benchmark: determinism, tracing fidelity and the gates.

    python -m pytest -q bench/tests

Each workload unit runs at full size, so the module takes about a minute.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (ROOT / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import spans  # noqa: E402
import workloads  # noqa: E402
from epidetect import solver  # noqa: E402

SEED = 5


def unit(wl, prep, workers: int, install=None):
    tracer = spans.Tracer()
    if install is not None:
        install(tracer)
    try:
        wl.reset(prep)
        outcome = wl.run(prep, workers)
    finally:
        tracer.uninstall()
    wl.check(prep, outcome)
    return outcome, tracer


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def prepared(request, tmp_path_factory):
    wl = workloads.WORKLOADS[request.param]
    prep = wl.setup(SEED, tmp_path_factory.mktemp(wl.name), 1)
    return wl, prep


def test_workers_do_not_change_results(prepared):
    wl, prep = prepared
    serial, _ = unit(wl, prep, 1)
    parallel, _ = unit(wl, prep, 2)
    for outcome in (serial, parallel):
        assert not any(outcome.problems.values()), outcome.problems
        finished = wl.finish(prep, outcome)
        assert not any(finished.values()), finished
    assert parallel.digest() == serial.digest()
    q1 = wl.quality(serial.mean_costs)
    q2 = wl.quality(parallel.mean_costs)
    assert q1 == q2
    assert all(math.isfinite(v) for v in q1.values())


def test_traced_run_matches_untraced(prepared):
    wl, prep = prepared
    plain, _ = unit(wl, prep, 1)
    traced, tracer = unit(wl, prep, 1, spans.install)
    for outcome in (plain, traced):
        wl.finish(prep, outcome)
    assert traced.digest() == plain.digest()
    assert wl.quality(traced.mean_costs) == wl.quality(plain.mean_costs)
    m = spans.layer_metrics(tracer)
    assert m["trace.spans"] > 0
    assert (m["sir.calls"] == 0) == (wl.name == "quick-lp")   # lp2d bypasses the SSA
    assert m["loess.se_queries"] > 0   # both workloads score candidates


def test_tracer_restores_every_patched_name():
    from epidetect import cli, loess, parallel, reduced, rng, strategy

    owners = (cli, loess.LoessModel, parallel, reduced, rng.RngStream, solver,
              solver.DetectionMap, strategy)
    before = [dict(vars(o)) for o in owners]
    tracer = spans.Tracer()
    spans.install(tracer)
    assert solver.step is not before[owners.index(solver)]["step"]
    tracer.uninstall()
    for owner, old in zip(owners, before):
        assert dict(vars(owner)) == old


def test_solve_pass_starts_no_pool(tmp_path):
    wl = workloads.WORKLOADS["case-solve"]
    prep = wl.setup(SEED, tmp_path, 1)
    _, tracer = unit(wl, prep, 1, spans.install_indexed_map_probe)
    assert tracer.counts["parallel.pools"] == 0
    assert tracer.counts["parallel.items"] > 0


def test_gates_flag_bad_path_records():
    good = workloads.report_problems("p", [1, 2], [0.5, 1.0], [0.2, 1.0], 0, 2, 5)
    assert good == []
    assert workloads.report_problems("p", [1, 2], [0.5, math.nan], [0.2, 1.0], 0, 2, 5)
    assert workloads.report_problems("p", [1, 2], [0.5, 1.0], [0.2, 1.5], 0, 2, 5)
    assert workloads.report_problems("p", [1, 9], [0.5, 1.0], [0.2, 1.0], 0, 2, 5)
    assert workloads.report_problems("p", [1, 2], [0.5, 1.0], [0.2, 1.0], 3, 2, 5)
    assert workloads.sequence_problems([1, 2, 3], 3, [0.5, 0.1]) == []
    assert workloads.sequence_problems([1, 3], 3, [0.5])
    assert workloads.sequence_problems([1, 2, 3], 3, [0.5, math.inf])


def test_roundtrip_gate_detects_a_changed_map(tmp_path):
    from epidetect.config import parse_config

    wl = workloads.WORKLOADS["case-solve"]
    cfg = parse_config(wl.raw_config(SEED, tmp_path))
    dmap = solver.build_map(1, [], cfg.srmc, cfg.epidemic, cfg.costs, cfg.variant)
    grid = solver.audit_grid(dmap.domain, dmap.variant)
    qhat = dmap.surrogate.predict_mean_many(grid)
    assert workloads.roundtrip_problems(dmap, qhat) == []
    assert workloads.roundtrip_problems(dmap, np.nextafter(qhat, np.inf))


def test_compare_reports_max_qhat_difference(tmp_path, capsys):
    import compare

    doc = {"workload": "w", "seed": 1,
           "fingerprint": {"qhat": [1.0, 2.0], "paths_digest": "x"},
           "metrics": {"wall_s": {"value": 2.0, "unit": "s"}}}
    other = json.loads(json.dumps(doc))
    other["fingerprint"]["qhat"] = [1.0, 2.5]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(doc))
    pb.write_text(json.dumps(other))
    assert compare.main([str(pa), str(pb)]) == 0
    assert "max |dqhat| = 0.5" in capsys.readouterr().out


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "quick-lp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
