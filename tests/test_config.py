"""The run-config contract of `parse_config`: messages, casts and defaults."""
import copy
import json
from pathlib import Path

import pytest

from epidetect.config import (
    ConfigError,
    EvaluateSettings,
    SimulateSettings,
    load_config,
    parse_config,
)
from epidetect.design import AcquisitionKind
from epidetect.loess import LoessConfig
from epidetect.reduced import ModelVariant, ReducedState
from epidetect.sir import EpidemicParams
from epidetect.solver import SrmcConfig

REPO = Path(__file__).resolve().parents[1]

# only the keys a config must set
MINIMAL = {
    "master_seed": 5,
    "epidemic": {"beta": 0.75, "gamma": 0.5, "alpha": 0.01, "pool_sizes": [2000, 2000]},
    "costs": {"c_fa": 20.0, "c_delay": 1.0},
    "evaluate": {"x0": [1990, 10, 0.1]},
    "simulate": {"x0": [1995, 5, 0.0]},
}

SECTIONS = ["epidemic", "costs", "srmc", "evaluate", "simulate", "output"]


def with_(section=None, **changes):
    """MINIMAL with `changes` applied to `section` (top level when None);
    a value of `...` deletes the key."""
    doc = copy.deepcopy(MINIMAL)
    target = doc if section is None else doc.setdefault(section, {})
    for key, value in changes.items():
        if value is ...:
            target.pop(key, None)
        else:
            target[key] = value
    return doc


def rejects(doc, message):
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert str(info.value) == message


class TestSections:
    @pytest.mark.parametrize("name", ["epidemic", "costs"])
    @pytest.mark.parametrize("value", [..., None])
    def test_missing_required_section(self, name, value):
        rejects(with_(**{name: value}), f"config is missing the required '{name}' section")

    @pytest.mark.parametrize("name", SECTIONS)
    @pytest.mark.parametrize("value", [[1, 2], "text", 3])
    def test_section_not_an_object(self, name, value):
        rejects(with_(**{name: value}), f"config section '{name}' must be an object")

    @pytest.mark.parametrize("value", [..., None, {}])
    def test_absent_optional_sections(self, value):
        cfg = parse_config(with_(srmc=value, evaluate=value, simulate=value, output=value))
        assert cfg.srmc == SrmcConfig(master_seed=5)
        assert cfg.evaluate is None
        assert cfg.simulate is None
        assert cfg.output_dir == Path("out")

    def test_unknown_top_level_key(self):
        rejects(with_(bogus=1), "unknown top-level config keys: ['bogus']")


class TestKeys:
    @pytest.mark.parametrize("section, key", [
        ("epidemic", "beta"), ("epidemic", "gamma"), ("epidemic", "alpha"),
        ("epidemic", "pool_sizes"), ("costs", "c_fa"), ("costs", "c_delay"),
        ("evaluate", "x0"), ("simulate", "x0"),
    ])
    def test_missing_required_key(self, section, key):
        doc = with_(section, **{key: ...})
        if not doc[section]:  # an evaluate or simulate section that sets nothing is absent
            doc[section]["n_paths"] = 3
        rejects(doc, f"missing required config key '{key}'")

    @pytest.mark.parametrize("section", ["epidemic", "costs", "srmc", "evaluate", "simulate"])
    def test_unknown_key(self, section):
        rejects(with_(section, bogus=1, other=2),
                f"unknown config keys in '{section}': ['bogus', 'other']")

    def test_output_takes_any_keys(self):
        cfg = parse_config(with_("output", dir="somewhere", note="kept"))
        assert cfg.output_dir == Path("somewhere")
        assert parse_config(with_("output", dir="somewhere"),
                            out_override="else").output_dir == Path("else")


class TestValues:
    @pytest.mark.parametrize("section, key, value, reason", [
        ("epidemic", "beta", "abc", "could not convert string to float: 'abc'"),
        ("epidemic", "gamma", [1], "float() argument must be a string or a real number, "
                                   "not 'list'"),
        ("epidemic", "alpha", None, "float() argument must be a string or a real number, "
                                    "not 'NoneType'"),
        ("epidemic", "sigma_delta", "abc", "could not convert string to float: 'abc'"),
        ("epidemic", "pool_sizes", 5, "'int' object is not iterable"),
        ("epidemic", "pool_sizes", ["a"], "invalid literal for int() with base 10: 'a'"),
        ("epidemic", "beta", -1, "beta must be positive, got -1.0"),
        ("costs", "c_fa", "abc", "could not convert string to float: 'abc'"),
        ("costs", "c_delay", 0, "c_delay must be positive, got 0.0"),
        ("srmc", "n0", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("srmc", "n_batch", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("srmc", "span", "abc", "could not convert string to float: 'abc'"),
        ("srmc", "degree", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("srmc", "tol", "abc", "could not convert string to float: 'abc'"),
        ("srmc", "trace_s1", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("srmc", "acquisition", "bogus", "'bogus' is not a valid AcquisitionKind"),
        ("srmc", "n_end", 100, "need 1 <= n0 <= n_end, got n0=200, n_end=100"),
        ("srmc", "span", 2, "span must lie in (0, 1], got 2.0"),
        ("evaluate", "n_paths", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("evaluate", "horizon", None, "int() argument must be a string, a bytes-like "
                                      "object or a real number, not 'NoneType'"),
        ("simulate", "n_paths", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("simulate", "horizon", "x", "invalid literal for int() with base 10: 'x'"),
    ])
    def test_invalid_value(self, section, key, value, reason):
        rejects(with_(section, **{key: value}), f"invalid '{section}' section: {reason}")

    @pytest.mark.parametrize("section", ["evaluate", "simulate"])
    @pytest.mark.parametrize("value, message", [
        ([1990, 10], "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        ("abc", "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        ({"s1": 1990}, "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        (["a", 10, 0.1], "invalid '{s}.x0': invalid literal for int() with base 10: 'a'"),
        ([1990, 10, 1.5], "invalid '{s}.x0': outbreak probability must lie in [0, 1], "
                          "got 1.5"),
        ([1990, 20, 0.1], "invalid '{s}.x0': s1 + i1 = 2010 exceeds the Pool-1 size 2000"),
    ])
    def test_bad_x0(self, section, value, message):
        rejects(with_(section, x0=value), message.format(s=section))

    @pytest.mark.parametrize("value", [{"kind": "map"}, "threshold_p", [1], [{"kind": "x"}, 2]])
    def test_policies_not_a_list_of_objects(self, value):
        rejects(with_("evaluate", policies=value),
                "'evaluate.policies' must be a list of policy objects")

    @pytest.mark.parametrize("section", ["evaluate", "simulate"])
    @pytest.mark.parametrize("key", ["n_paths", "horizon"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_must_be_positive(self, section, key, value):
        rejects(with_(section, **{key: value}),
                f"'{section}.n_paths' and '{section}.horizon' must be positive")

    def test_master_seed_and_variant(self):
        rejects(with_(master_seed=...),
                "no master seed: set 'master_seed' in the config or pass --seed "
                "(runs never fall back to a random seed)")
        rejects(with_(master_seed="abc"), "master_seed must be an integer, got 'abc'")
        rejects(with_(variant="bogus"), "unknown variant 'bogus'; choose 'full3d' or 'lp2d'")
        assert parse_config(with_(master_seed=...), seed_override=9).master_seed == 9


class TestAccepted:
    def test_nullable_srmc_keys(self):
        cfg = parse_config(with_("srmc", tol=None, trace_s1=None))
        assert cfg.srmc.tol is None and cfg.srmc.trace_s1 is None

    def test_numeric_strings_and_case(self):
        doc = with_("epidemic", beta="0.75", pool_sizes=["2000", 2000], sigma_delta="0.01")
        doc["costs"] = {"c_fa": "20", "c_delay": "1.0"}
        doc["srmc"] = {"n0": "100", "n_batch": "50", "n_end": "200", "d_candidates": "300",
                       "acquisition": "GINI", "t_max": "4", "mpc_switch": "2",
                       "tol": "0.5", "span": "0.3", "degree": "2", "trace_s1": "1990"}
        doc["evaluate"] = {"x0": ["1990", "10", "0.1"], "n_paths": "40", "horizon": "12",
                           "policies": [{"kind": "threshold_t", "t_bar": 4}]}
        doc["simulate"] = {"x0": [1995, 5, "0"], "n_paths": "2", "horizon": "7",
                           "two_pool": 1}
        cfg = parse_config(doc)
        assert cfg.epidemic == EpidemicParams(0.75, 0.5, 0.01, (2000, 2000), 0.01)
        assert cfg.costs.c_fa == 20.0 and cfg.costs.c_delay == 1.0
        assert cfg.srmc == SrmcConfig(
            master_seed=5, n0=100, n_batch=50, n_end=200, d_candidates=300,
            acquisition=AcquisitionKind.GINI, t_max=4, mpc_switch=2, tol=0.5,
            loess=LoessConfig(span=0.3, degree=2), trace_s1=1990,
        )
        assert cfg.evaluate == EvaluateSettings(
            ReducedState(1990, 10, 0.1), 40, 12, ({"kind": "threshold_t", "t_bar": 4},))
        assert cfg.simulate == SimulateSettings(ReducedState(1995, 5, 0.0), 2, 7, True)
        assert cfg.simulate.two_pool is True

    def test_defaults_come_from_the_dataclasses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.srmc == SrmcConfig(master_seed=5)
        assert cfg.evaluate == EvaluateSettings(x0=ReducedState(1990, 10, 0.1))
        assert cfg.simulate == SimulateSettings(x0=ReducedState(1995, 5, 0.0))
        assert cfg.epidemic.sigma_delta == EpidemicParams(0.75, 0.5, 0.01, (2000,)).sigma_delta
        assert cfg.variant is ModelVariant.FULL3D
        assert cfg.output_dir == Path("out")

    @pytest.mark.parametrize("name, digest", [
        ("quick_lp", "2ee3b356f3e2cd37"),
        ("case_study", "fb63d555e412b80d"),
    ])
    def test_committed_config_hashes(self, name, digest):
        path = REPO / "configs" / f"{name}.json"
        cfg = load_config(path)
        assert cfg.config_hash() == digest
        assert cfg.raw == {**json.loads(path.read_text()), "variant": cfg.variant.value}
