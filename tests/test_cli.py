import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from epidetect import cli
from epidetect.cli import main
from epidetect.solver import DetectionMap, surrogate_inputs

REPO = Path(__file__).resolve().parents[1]
QUICK_MAP = str(REPO / "out" / "quick_lp" / "maps" / "map_t08.json")  # a map that loads

BASE_CONFIG = {
    "master_seed": 321,
    "variant": "lp2d",
    "epidemic": {
        "beta": 0.75, "gamma": 0.5, "alpha": 0.01,
        "pool_sizes": [2000, 2000], "sigma_delta": 0.01,
    },
    "costs": {"c_fa": 20.0, "c_delay": 1.0},
    "srmc": {
        "n0": 60, "n_batch": 30, "n_end": 120, "d_candidates": 150,
        "t_max": 2, "mpc_switch": 5, "tol": 0.0,
    },
    "evaluate": {
        "x0": [1990, 10, 0.1], "n_paths": 40, "horizon": 12,
        "policies": [
            {"kind": "threshold_p", "p_bar": 0.8},
            {"kind": "threshold_t", "t_bar": 4},
        ],
    },
    "simulate": {"x0": [1990, 10, 0.1], "n_paths": 3, "horizon": 8, "two_pool": True},
}


def write_config(tmp_path, overrides=None, drop=()):
    doc = json.loads(json.dumps(BASE_CONFIG))
    for key in drop:
        doc.pop(key, None)
    if overrides:
        for key, val in overrides.items():
            if isinstance(val, dict) and isinstance(doc.get(key), dict):
                doc[key].update(val)
            else:
                doc[key] = val
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_provenance(path: Path) -> str:
    return path.read_text().splitlines()[0]


class TestSolveCommand:
    def test_solve_writes_expected_files(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"])
        assert rc == 0
        assert (out / "maps" / "map_t01.json").exists()
        assert (out / "maps" / "map_t02.json").exists()
        assert (out / "boundaries.csv").exists()
        report = json.loads((out / "convergence.json").read_text())
        assert report["iterations"] == 2
        assert report["method"] == "SRMC (sequential)"
        assert report["master_seed"] == 321
        prov = read_provenance(out / "boundaries.csv")
        assert "master_seed=321" in prov and "config_hash=" in prov

    def test_solve_byte_identical_reruns(self, tmp_path, forks):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", str(cfg), "--out", str(out_a), "--workers", "1"]) == 0
        assert forks == []
        assert main(["solve", "--config", str(cfg), "--out", str(out_b), "--workers", "2"]) == 0
        assert forks
        for rel in ("maps/map_t01.json", "maps/map_t02.json", "boundaries.csv"):
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_missing_seed_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, drop=("master_seed",))
        rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path, drop=("master_seed",))
        out = tmp_path / "o"
        rc = main(["solve", "--config", str(cfg), "--out", str(out),
                   "--seed", "99", "--workers", "1"])
        assert rc == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["master_seed"] == 99

    def test_non_sequential_config_is_labeled(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"srmc": {"n0": 60, "n_end": 60}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        report = json.loads((out / "convergence.json").read_text())
        assert report["method"] == "RMC (non-sequential)"

    def test_invalid_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path, overrides={"epidemic": {"beta": -1.0}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        cfg2 = write_config(tmp_path, overrides={"bogus_section": {}})
        assert main(["solve", "--config", str(cfg2), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("key, value, supported", [
        ("degree", 2, "1"), ("acquisition", "gini", "'min'"),
    ])
    def test_unsupported_surrogate_or_weight_is_config_error(self, tmp_path, capsys, key,
                                                             value, supported):
        cfg = write_config(tmp_path, overrides={"srmc": {key: value}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid 'srmc' section: {key} must be {supported}, "
            f"the only supported value, got {value!r}\n")
        assert not (tmp_path / "o").exists()

    def test_all_extinct_candidate_round_solves(self, tmp_path):
        # Pool 1 of 5: some rounds draw their one candidate on I1 = 0, where
        # no candidate reaches the surrogate, and fall back to uniform draws
        cfg = write_config(tmp_path, overrides={
            "master_seed": 7,
            "epidemic": {"pool_sizes": [5, 5]},
            "srmc": {"n0": 3, "n_batch": 1, "n_end": 5, "d_candidates": 1, "t_max": 2},
            "evaluate": {"x0": [3, 2, 0.1]},
            "simulate": {"x0": [3, 2, 0.1]},
        })
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        rounds = [rnd for t in (1, 2) for rnd in json.loads(
            (out / "maps" / f"map_t0{t}.json").read_text())["build_info"]["rounds"]]
        assert any(rnd["uniform_fallback"] for rnd in rounds)

    @staticmethod
    def failing_solve(tmp_path, monkeypatch, *flags):
        # the solver fails at run time, after the output directory is made
        def solve(*args, **kwargs):
            raise FloatingPointError("local fit diverged")

        monkeypatch.setattr(cli, "solve", solve)
        cfg = write_config(tmp_path)
        return main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                     "--workers", "1", *flags])

    def test_solver_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        assert self.failing_solve(tmp_path, monkeypatch) == 3
        assert capsys.readouterr().err == "error: local fit diverged\n"

    @pytest.mark.parametrize("flag", ["-v", "--verbose"])
    def test_verbose_prints_the_traceback(self, tmp_path, monkeypatch, capsys, flag):
        assert self.failing_solve(tmp_path, monkeypatch, flag) == 3
        err = capsys.readouterr().err
        assert err.startswith("Traceback (most recent call last)")
        assert ", in cmd_solve\n" in err
        assert 'raise FloatingPointError("local fit diverged")' in err
        assert err.endswith("FloatingPointError: local fit diverged\nerror: local fit diverged\n")

    @pytest.mark.parametrize("variant, n0, flags, basis", [
        ("lp2d", 2, [], 3),
        ("full3d", 3, [], 4),
        ("lp2d", 3, ["--variant", "full3d"], 4),
    ])
    def test_n0_below_the_basis_size_is_a_config_error(self, tmp_path, capsys, variant, n0,
                                                        flags, basis):
        cfg = write_config(tmp_path, overrides={"variant": variant, "srmc": {
            "n0": n0, "n_batch": n0, "n_end": 2 * n0}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1",
                     *flags]) == 2
        target = flags[-1] if flags else variant
        assert capsys.readouterr().err == (
            f"config error: invalid 'srmc' section: n0 must be at least {basis}, the "
            f"local-linear basis size of a {target} map, got {n0}\n")
        assert not out.exists()

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    @pytest.mark.parametrize("trace_s1", [-5, 5000])
    def test_trace_s1_off_the_s1_axis_is_a_config_error(self, tmp_path, capsys, variant,
                                                          trace_s1):
        cfg = write_config(tmp_path, overrides={"variant": variant,
                                                "srmc": {"trace_s1": trace_s1}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 2
        assert capsys.readouterr().err == (
            f"config error: invalid 'srmc' section: trace_s1 must lie on the S1 axis "
            f"[1000, 2000] of the regression box, got {trace_s1}\n")
        assert not out.exists()

    def test_single_iteration_solve(self, tmp_path):
        # a positive tol asks for convergence, which one iteration cannot show
        cfg = write_config(tmp_path, overrides={"srmc": {"t_max": 1, "tol": 0.05}})
        out = tmp_path / "o"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        assert sorted(p.name for p in (out / "maps").iterdir()) == ["map_t01.json"]
        report = json.loads((out / "convergence.json").read_text())
        assert report["converged"] is False and report["sup_diffs"] == []
        assert "no earlier boundary was compared" in report["warning"]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_are_refused(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                  "--workers", workers])
        assert info.value.code == 2
        assert (f"argument --workers: expected at least 1, got {workers}"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_negative_infinite_tol_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"srmc": {"tol": -math.inf}})
        assert '"tol": -Infinity' in cfg.read_text()
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "tol must be nonnegative, got -inf" in capsys.readouterr().err

    def test_null_tol_is_refused(self, tmp_path, capsys):
        cfg = write_config(tmp_path, overrides={"srmc": {"tol": None}})
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "invalid 'srmc' section: float() argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("make", [
        lambda path: path.mkdir(),
        lambda path: path.write_bytes(b"\xff\xfe"),
    ], ids=["directory", "undecodable"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, make):
        cfg = tmp_path / "config.json"
        make(cfg)
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: cannot read config file {cfg}: ")

    def test_verbose_leaves_config_errors_short(self, tmp_path, capsys):
        cfg = write_config(tmp_path, drop=("master_seed",))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"), "-v"]) == 2
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "evaluate", "simulate"])
@pytest.mark.parametrize("overrides, flags, message", [
    ({}, ["--seed", "-1"], "master_seed must be nonnegative, got -1"),
    ({"master_seed": -1}, [], "master_seed must be nonnegative, got -1"),
    ({"epidemic": {"sigma_delta": math.nan}}, [], "sigma_delta must be finite, got nan"),
    ({"epidemic": {"beta": math.inf}}, [], "beta must be finite, got inf"),
    ({"costs": {"c_delay": math.inf}}, [], "c_delay must be finite, got inf"),
], ids=["seed_flag", "seed_key", "nan_sigma_delta", "inf_beta", "inf_c_delay"])
def test_bad_seed_or_non_finite_param_exits_2(tmp_path, capsys, command, overrides, flags,
                                              message):
    cfg = write_config(tmp_path, overrides=overrides)
    out = tmp_path / "o"
    assert main([command, "--config", str(cfg), "--out", str(out), "--workers", "1",
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "evaluate", "simulate"])
@pytest.mark.parametrize("output, message", [
    ({"dir": "x", "bogus": 1}, "unknown config keys in 'output': ['bogus']"),
    ({"dir": 5}, "invalid 'output' section: expected str, bytes or os.PathLike object, "
                 "not int"),
], ids=["unknown_key", "dir_not_a_path"])
def test_bad_output_section_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                       command, output, message):
    cfg = write_config(tmp_path, overrides={"output": output})
    monkeypatch.chdir(tmp_path)
    assert main([command, "--config", str(cfg), "--workers", "1"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("command", ["solve", "evaluate", "simulate", "export-map"])
@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below_a_file"])
def test_out_through_a_file_exits_2_and_writes_nothing(tmp_path, monkeypatch, capsys,
                                                        command, out):
    write_config(tmp_path)
    (tmp_path / "afile").write_text("kept\n")
    monkeypatch.chdir(tmp_path)
    source = ["--map", QUICK_MAP] if command == "export-map" else [
        "--config", "config.json", "--workers", "1"]
    assert main([command, *source, "--out", out]) == 2
    err = capsys.readouterr().err
    made = f"{out}/maps" if command == "solve" else out
    assert err == f"config error: cannot make output directory {made}: a file is in the way\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "config.json"]
    assert (tmp_path / "afile").read_text() == "kept\n"


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("solved")
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    return tmp_path, cfg, out


class TestEvaluateCommand:
    def test_evaluate_with_map(self, solved):
        tmp_path, cfg, out = solved
        map_path = out / "maps" / "map_t02.json"
        rc = main(["evaluate", "--config", str(cfg), "--out", str(out / "eval"),
                   "--map", str(map_path), "--workers", "1"])
        assert rc == 0
        summary = json.loads((out / "eval" / "eval_summary.json").read_text())
        names = [row["policy"] for row in summary["policies"]]
        assert names == ["threshold_p_0.8", "threshold_t_4", "map_t02"]
        for name in names:
            per_path = out / "eval" / f"paths_{name}.csv"
            assert per_path.exists()
            with per_path.open() as fh:
                fh.readline()  # provenance
                rows = list(csv.DictReader(fh))
            assert len(rows) == 40
        # threshold-t must be exactly constant
        t_row = next(r for r in summary["policies"] if r["policy"] == "threshold_t_4")
        assert t_row["sd_tau"] == 0.0
        # paired records compare the first policy against the others
        assert [p["b"] for p in summary["paired"]] == ["threshold_t_4", "map_t02"]
        for p in summary["paired"]:
            assert p["a"] == "threshold_p_0.8"
            assert 0.0 <= p["frac_a_better"] + p["frac_b_better"] <= 1.0

    def test_empty_policy_list_is_error(self, solved, tmp_path):
        _tp, _cfg, out = solved
        cfg = write_config(tmp_path, overrides={"evaluate": {"policies": []}})
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e")])
        assert rc == 2

    @pytest.mark.parametrize("entry", [
        {"kind": "threshold_t", "t_bar": 4.7},
        {"kind": "threshold_p", "p_bar": 2},
        {"kind": "threshold_t", "t_bar": "x"},
        {"kind": "threshold_p", "p_bar": 0.8, "extra": 1},
        {"kind": "map", "path": 5, "name": True},
        {"kind": "map", "path": ["a"]},
        {"kind": "map", "path": QUICK_MAP, "name": ""},
        {"kind": "map", "path": QUICK_MAP, "name": "a/b"},
        {"kind": "map", "path": QUICK_MAP, "name": "a\0b"},
    ])
    def test_bad_policy_entry_is_config_error(self, tmp_path, capsys, entry):
        cfg = write_config(tmp_path, overrides={"evaluate": {"policies": [entry]}})
        out = tmp_path / "e"
        assert main(["evaluate", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"policy entry {entry}" in capsys.readouterr().err
        assert not out.exists()  # refused at load, before any path is simulated

    def test_param_mismatch_refused_and_cited(self, solved, tmp_path, capsys):
        _tp, _cfg, out = solved
        map_path = out / "maps" / "map_t02.json"
        cfg = write_config(tmp_path, overrides={"costs": {"c_fa": 30.0}})
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e"),
                   "--map", str(map_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "c_fa=30.0" in err and "c_fa=20.0" in err  # cites both sides

    def test_param_mismatch_override_flag(self, solved, tmp_path):
        _tp, _cfg, out = solved
        map_path = out / "maps" / "map_t02.json"
        cfg = write_config(tmp_path, overrides={"costs": {"c_fa": 30.0}})
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e"),
                   "--map", str(map_path), "--allow-param-mismatch", "--workers", "1"])
        assert rc == 0

    def test_per_map_costs_penalty_sweep(self, solved, tmp_path):
        """Maps solved under different penalties score under their own costs."""
        _tp, _cfg, out = solved
        cfg_30 = write_config(tmp_path, overrides={"costs": {"c_fa": 30.0}})
        out_30 = tmp_path / "solve30"
        assert main(["solve", "--config", str(cfg_30), "--out", str(out_30),
                     "--workers", "1"]) == 0
        # both maps are map_t02.json, so they are named apart in the config
        sweep_cfg = write_config(tmp_path, overrides={"evaluate": {"policies": [
            {"kind": "map", "path": str(out / "maps" / "map_t02.json"), "name": "cfa20"},
            {"kind": "map", "path": str(out_30 / "maps" / "map_t02.json"), "name": "cfa30"},
        ]}})
        rc = main(["evaluate", "--config", str(sweep_cfg), "--out", str(tmp_path / "sweep"),
                   "--per-map-costs", "--workers", "1"])
        assert rc == 0
        summary = json.loads((tmp_path / "sweep" / "eval_summary.json").read_text())
        assert len(summary["policies"]) == 2
        # same frozen paths, different penalty: later detection, fewer false alarms
        row20, row30 = summary["policies"]
        assert row30["mean_tau"] >= row20["mean_tau"]
        assert row30["pfa"] <= row20["pfa"]

    @staticmethod
    def refused_names(tmp_path, monkeypatch, capsys, policies, maps=()):
        monkeypatch.setattr("epidetect.cli.simulate_paths",
                            lambda *a, **k: pytest.fail("paths simulated"))
        cfg = write_config(tmp_path, overrides={"evaluate": {"policies": policies}})
        out = tmp_path / "e"
        args = [arg for path in maps for arg in ("--map", str(path))]
        assert main(["evaluate", "--config", str(cfg), "--out", str(out), *args]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def test_two_maps_with_one_stem_are_refused(self, solved, tmp_path, monkeypatch, capsys):
        _tp, _cfg, out = solved
        copy = tmp_path / "other" / "map_t02.json"
        copy.parent.mkdir()
        copy.write_bytes((out / "maps" / "map_t02.json").read_bytes())
        err = self.refused_names(tmp_path, monkeypatch, capsys, [],
                                 maps=[out / "maps" / "map_t02.json", copy])
        assert "two policies are named 'map_t02'" in err

    def test_two_identical_thresholds_are_refused(self, tmp_path, monkeypatch, capsys):
        entry = {"kind": "threshold_p", "p_bar": 0.8}
        err = self.refused_names(tmp_path, monkeypatch, capsys, [entry, dict(entry)])
        assert "two policies are named 'threshold_p_0.8'" in err

    def test_map_named_like_a_threshold_is_refused(self, solved, tmp_path, monkeypatch,
                                                   capsys):
        _tp, _cfg, out = solved
        err = self.refused_names(tmp_path, monkeypatch, capsys, [
            {"kind": "map", "path": str(out / "maps" / "map_t02.json"),
             "name": "threshold_p_0.8"},
            {"kind": "threshold_p", "p_bar": 0.8},
        ])
        assert "two policies are named 'threshold_p_0.8'" in err

    @pytest.mark.parametrize("as_entry", [False, True], ids=["flag", "policy_entry"])
    def test_missing_map_is_config_error(self, tmp_path, monkeypatch, capsys, as_entry):
        missing = tmp_path / "nope.json"
        entry = {"kind": "map", "path": str(missing), "name": "gone"}
        err = self.refused_names(tmp_path, monkeypatch, capsys, [entry] if as_entry else [],
                                 maps=[] if as_entry else [missing])
        source = f"policy entry {entry}" if as_entry else "--map"
        assert f"{source} names a map file that does not exist: {missing}" in err

    @pytest.mark.parametrize("as_entry", [False, True], ids=["flag", "policy_entry"])
    def test_directory_as_map_is_config_error(self, tmp_path, monkeypatch, capsys, as_entry):
        folder = tmp_path / "maps"
        folder.mkdir()
        entry = {"kind": "map", "path": str(folder), "name": "folder"}
        err = self.refused_names(tmp_path, monkeypatch, capsys, [entry] if as_entry else [],
                                 maps=[] if as_entry else [folder])
        source = f"policy entry {entry}" if as_entry else "--map"
        assert err.startswith(f"config error: {source} names a map file that cannot be read: ")
        assert str(folder) in err and err.count("\n") == 1


class TestSimulateCommand:
    def test_simulate_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out", str(out_a),
                     "--workers", "1"]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out_b),
                     "--workers", "1"]) == 0
        assert (out_a / "trajectories.csv").read_bytes() == \
            (out_b / "trajectories.csv").read_bytes()
        assert (out_a / "two_pool.csv").read_bytes() == (out_b / "two_pool.csv").read_bytes()

    def test_two_pool_same_bytes_for_any_worker_count(self, tmp_path, monkeypatch, forks):
        from epidetect import parallel

        calls = []
        indexed_map = parallel.indexed_map

        def spy(fn, count, workers=1):
            calls.append((count, workers))
            return indexed_map(fn, count, workers)

        monkeypatch.setattr(parallel, "indexed_map", spy)
        cfg = write_config(tmp_path, overrides={
            "simulate": {"x0": [1990, 10, 0.1], "n_paths": 40, "horizon": 6,
                         "two_pool": True}})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out, workers in ((out_a, "1"), (out_b, "2")):
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--workers", workers]) == 0
        assert (out_a / "two_pool.csv").read_bytes() == (out_b / "two_pool.csv").read_bytes()
        # reduced paths, then the ground truth, each at the run's worker count
        assert calls == [(40, 1), (40, 1), (40, 2), (40, 2)]
        assert len(forks) == 2

    def test_two_pool_alpha_zero_never_infects_pool2(self, tmp_path):
        cfg = write_config(
            tmp_path,
            overrides={"epidemic": {"alpha": 0.0},
                       "simulate": {"x0": [1990, 10, 0.1], "n_paths": 5,
                                    "horizon": 10, "two_pool": True}},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        with (out / "two_pool.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert all(int(r["i2"]) == 0 for r in rows)
        assert all(r["theta"] == "" for r in rows)

    def test_two_pool_ground_truth_dates_the_outbreak_and_conserves(self, tmp_path):
        """On every exact two-pool path, theta is Pool 2's first infected epoch."""
        cfg = write_config(tmp_path, drop=("evaluate",), overrides={
            "epidemic": {"alpha": 0.2, "pool_sizes": [300, 300]},
            "simulate": {"x0": [280, 20, 0.0], "n_paths": 20, "horizon": 30,
                         "two_pool": True},
        })
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        with (out / "two_pool.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        paths = {}
        for r in rows:
            paths.setdefault(int(r["path"]), []).append(r)
        assert sorted(paths) == list(range(20))
        for path in paths.values():
            assert [int(r["t"]) for r in path] == list(range(31))
            i2 = [int(r["i2"]) for r in path]
            first = next((t for t, i in enumerate(i2) if i > 0), None)
            assert {r["theta"] for r in path} == {"" if first is None else str(first)}
            for k in ("1", "2"):
                s = [int(r["s" + k]) for r in path]
                i = [int(r["i" + k]) for r in path]
                assert all(a >= b for a, b in zip(s, s[1:]))  # S never rises
                assert all(0 <= sk and 0 <= ik and sk + ik <= 300 for sk, ik in zip(s, i))
        assert any(path[0]["theta"] for path in paths.values())  # Pool 2 does get infected

    @pytest.mark.parametrize("pool_sizes", [[2000], [2000, 2000, 2000]])
    def test_two_pool_needs_exactly_two_pools(self, tmp_path, capsys, pool_sizes):
        cfg = write_config(tmp_path, overrides={"epidemic": {"pool_sizes": pool_sizes}})
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "'simulate.two_pool' needs exactly two pool_sizes" in capsys.readouterr().err
        assert not out.exists()

    def test_reduced_trajectories_have_valid_p(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        with (out / "trajectories.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 9  # n_paths * (horizon + 1)
        assert all(0.0 <= float(r["p"]) <= 1.0 for r in rows)

    def test_x0_beyond_pool_size_is_config_error(self, tmp_path, capsys):
        # S1 + I1 = 2010 cannot fit a Pool 1 of 2000
        cfg = write_config(tmp_path, overrides={
            "variant": "full3d",
            "simulate": {"x0": [2000, 10, 0.1], "n_paths": 2, "horizon": 3},
        })
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"),
                   "--workers", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "simulate.x0" in err and "Pool-1 size 2000" in err

    @pytest.mark.slow
    def test_case_study_trajectories_drift_up_and_absorb(self, tmp_path):
        """Outbreak probability trends up and some paths reach certainty."""
        cfg = write_config(
            tmp_path,
            overrides={"master_seed": 2026, "variant": "full3d",
                       "simulate": {"x0": [1995, 5, 0.0], "n_paths": 3,
                                    "horizon": 25, "two_pool": False}},
        )
        out = tmp_path / "o"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--workers", "1"]) == 0
        with (out / "trajectories.csv").open() as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        by_path = {}
        for r in rows:
            by_path.setdefault(int(r["path"]), []).append(float(r["p"]))
        assert any(ps[-1] == 1.0 for ps in by_path.values())
        for ps in by_path.values():
            # upward trend: late-window mean dominates the early window
            assert np.mean(ps[-5:]) >= np.mean(ps[:5])


class TestExportMap:
    def test_round_trip_predictions_bit_exact(self, solved, tmp_path):
        _tp, _cfg, out = solved
        map_path = out / "maps" / "map_t02.json"
        original = DetectionMap.load(map_path)
        reloaded = DetectionMap.load(map_path)
        rng = np.random.default_rng(5)
        grid = np.column_stack([rng.uniform(0, 400, 1000), rng.uniform(0, 0.999, 1000)])
        assert original.score_locations(grid).tobytes() == \
            reloaded.score_locations(grid).tobytes()

    def test_export_grid_csv(self, solved, tmp_path):
        _tp, _cfg, out = solved
        map_path = out / "maps" / "map_t02.json"
        rc = main(["export-map", "--map", str(map_path), "--out",
                   str(tmp_path / "exp"), "--grid", "8"])
        assert rc == 0
        grid_csv = tmp_path / "exp" / "map_t02_grid.csv"
        with grid_csv.open() as fh:
            prov = fh.readline()
            rows = list(csv.DictReader(fh))
        assert "master_seed=321" in prov
        assert len(rows) == 64
        assert set(rows[0]) == {"i1", "p", "qhat", "stderr", "d", "announce"}
        dmap = DetectionMap.load(map_path)
        grid = np.array([[float(row["i1"]), float(row["p"])] for row in rows])
        # the surrogate reads the map's own warped coordinates
        means, stderrs = dmap.surrogate.predict_many(surrogate_inputs(grid))
        announce = dmap.score_locations(grid) > 0.0
        for row, mu, se, a in zip(rows, means, stderrs, announce):
            assert float(row["qhat"]) == mu
            assert float(row["stderr"]) == se
            assert row["announce"] == str(int(a))

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_is_refused(self, solved, tmp_path, capsys, grid):
        _tp, _cfg, out = solved
        with pytest.raises(SystemExit) as info:
            main(["export-map", "--map", str(out / "maps" / "map_t02.json"),
                  "--out", str(tmp_path / "exp"), "--grid", grid])
        assert info.value.code == 2
        assert f"argument --grid: expected at least 1, got {grid}" in capsys.readouterr().err
        assert not (tmp_path / "exp").exists()

    def test_missing_map_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["export-map", "--map", str(missing), "--out", str(tmp_path / "x")]) == 2
        assert f"--map names a map file that does not exist: {missing}" in \
            capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_directory_as_map_is_config_error(self, tmp_path, capsys):
        folder = tmp_path / "maps"
        folder.mkdir()
        assert main(["export-map", "--map", str(folder), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --map names a map file that cannot be read: ")
        assert str(folder) in err and err.count("\n") == 1
        assert not (tmp_path / "x").exists()

    def test_full3d_solve_and_export_columns(self, tmp_path):
        """A full3d map reads (S1, I1, P): its trace and grid files name those columns."""
        cfg = write_config(tmp_path, overrides={"variant": "full3d",
                                                "srmc": {"trace_s1": 1990}})
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out), "--workers", "1"]) == 0
        with (out / "boundaries.csv").open() as fh:
            fh.readline()  # provenance
            header, *rows = list(csv.reader(fh))
        assert header == ["t", "s1", "i1", "p_boundary"]
        # each line's S1 is min(trace_s1, M1 - I1): a state that can exist
        assert rows and all(float(row[1]) + float(row[2]) <= 2000 for row in rows)
        assert {row[1] for row in rows if row[2] == "0.0"} == {"1990.0"}
        assert main(["export-map", "--map", str(out / "maps" / "map_t02.json"),
                     "--out", str(tmp_path / "exp"), "--grid", "4"]) == 0
        with (tmp_path / "exp" / "map_t02_grid.csv").open() as fh:
            fh.readline()  # provenance
            header, *rows = list(csv.reader(fh))
        assert header == ["s1", "i1", "p", "qhat", "stderr", "d", "announce"]
        assert len(rows) == 4 ** 3


class TestMapDocument:
    """The epidemic, costs and domain sections of a map are their dataclasses' fields."""

    def test_committed_map_round_trips_byte_for_byte(self):
        path = REPO / "out" / "quick_lp" / "maps" / "map_t08.json"
        doc = json.loads(path.read_text())
        again = DetectionMap.from_dict(doc).to_dict()
        again["config_hash"] = doc["config_hash"]
        assert json.dumps(again) == path.read_text()

    @pytest.mark.parametrize("section", ["epidemic", "costs", "domain"])
    def test_unknown_key_is_rejected(self, solved, tmp_path, section):
        _tp, cfg, out = solved
        doc = json.loads((out / "maps" / "map_t02.json").read_text())
        doc[section]["bogus"] = 1
        with pytest.raises(TypeError, match="bogus"):
            DetectionMap.from_dict(doc)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e"),
                   "--map", str(map_path), "--workers", "1"])
        assert rc == 3

    @pytest.mark.parametrize("key, value", [("degree", 2), ("kernel", "uniform"),
                                            ("min_neighbors", 3), ("i1_warp", None)])
    def test_loess_other_than_local_linear_tricube_is_refused(self, tmp_path, capsys,
                                                              key, value):
        doc = json.loads((REPO / "out" / "quick_lp" / "maps" / "map_t08.json").read_text())
        doc["loess"][key] = value
        message = f"unsupported map loess {key} {value!r}: only "
        with pytest.raises(ValueError, match=message):
            DetectionMap.from_dict(doc)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["export-map", "--map", str(map_path), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_format_1_document_is_refused(self, tmp_path, capsys):
        """Format-1 maps were fitted on raw I1: read as log1p(I1) they would mislead."""
        doc = json.loads((REPO / "out" / "quick_lp" / "maps" / "map_t08.json").read_text())
        doc["format"] = "epidetect-map/1"
        del doc["loess"]["i1_warp"]
        message = ("unsupported map document format: 'epidetect-map/1' "
                   "(this version reads 'epidetect-map/2'; re-run solve)")
        with pytest.raises(ValueError, match=re.escape(message)):
            DetectionMap.from_dict(doc)
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        assert main(["export-map", "--map", str(map_path), "--out", str(tmp_path / "x")]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_sigma_delta_takes_the_default(self, solved, tmp_path, capsys):
        _tp, cfg, out = solved
        doc = json.loads((out / "maps" / "map_t02.json").read_text())
        del doc["epidemic"]["sigma_delta"]
        assert DetectionMap.from_dict(doc).epidemic.sigma_delta == 0.0
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(doc))
        # the config sets sigma_delta = 0.01, so the map's parameters disagree with it
        rc = main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "e"),
                   "--map", str(map_path), "--workers", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sigma_delta=0.0)" in err and "sigma_delta=0.01)" in err


# scipy is a test dependency only: the package must import and solve without it
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
from epidetect import cli
assert [m for m in sys.modules if m.startswith("scipy.")] == []
sys.exit(cli.main(["solve", "--config", "config.json", "--out", "out", "--workers", "2"]))
"""


def test_solve_runs_without_scipy(tmp_path):
    write_config(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    report = json.loads((tmp_path / "out" / "convergence.json").read_text())
    assert report["iterations"] == 2


def test_cli_import_leaves_process_pools_and_numpy_random_unloaded():
    """Every command pays the CLI's import; the fork layer needs no
    multiprocessing, and streams load numpy.random on first use."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = ("import sys, epidetect.cli; "
             "print(sorted(m for m in ('multiprocessing', 'numpy.random') if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_readme_library_example_runs(tmp_path):
    """The README "Library use" block runs as written from the package root's exports."""
    readme = (REPO / "README.md").read_text()
    block = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    numbers = [float(v) for v in done.stdout.split()]
    assert len(numbers) == 3 and all(math.isfinite(v) for v in numbers), done.stdout


@pytest.mark.slow
def test_readme_commands_reproduce_committed_quick_lp(tmp_path, monkeypatch):
    """The README "Command line" block rewrites `out/quick_lp/` byte for byte."""
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "quick_lp.json").write_bytes(
        (REPO / "configs" / "quick_lp.json").read_bytes())
    monkeypatch.chdir(tmp_path)
    cfg = "configs/quick_lp.json"
    assert main(["solve", "--config", cfg, "--workers", "2"]) == 0
    assert main(["evaluate", "--config", cfg]) == 0
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["export-map", "--map", "out/quick_lp/maps/map_t08.json",
                 "--out", "out/quick_lp", "--grid", "20"]) == 0
    committed = REPO / "out" / "quick_lp"
    written = tmp_path / "out" / "quick_lp"
    names = sorted(p.relative_to(committed) for p in committed.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(written) for p in written.rglob("*") if p.is_file())
    for name in names:
        assert (written / name).read_bytes() == (committed / name).read_bytes(), name
