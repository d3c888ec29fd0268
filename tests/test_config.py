"""The run-config contract of `parse_config`: messages, casts and defaults."""
import copy
import json
import math
from pathlib import Path

import pytest

from epidetect.config import (
    ConfigError,
    EvaluateSettings,
    SimulateSettings,
    load_config,
    parse_config,
)
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

    def test_output_refuses_unknown_keys(self):
        rejects(with_("output", dir="somewhere", note="kept"),
                "unknown config keys in 'output': ['note']")
        assert parse_config(with_("output", dir="somewhere")).output_dir == Path("somewhere")
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
        ("srmc", "tol", None, "float() argument must be a string or a real number, "
                              "not 'NoneType'"),
        ("srmc", "trace_s1", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("srmc", "acquisition", "bogus", "acquisition must be 'min', the only supported "
                                         "value, got 'bogus'"),
        ("srmc", "acquisition", "GINI", "acquisition must be 'min', the only supported "
                                        "value, got 'gini'"),
        ("srmc", "degree", 2, "degree must be 1, the only supported value, got 2"),
        ("srmc", "n_end", 100, "need 1 <= n0 <= n_end, got n0=200, n_end=100"),
        ("srmc", "span", 2, "span must lie in (0, 1], got 2.0"),
        ("evaluate", "n_paths", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("evaluate", "horizon", None, "int() argument must be a string, a bytes-like "
                                      "object or a real number, not 'NoneType'"),
        ("simulate", "n_paths", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("simulate", "horizon", "x", "invalid literal for int() with base 10: 'x'"),
        ("srmc", "tol", float("-inf"), "tol must be nonnegative, got -inf"),
        ("epidemic", "sigma_delta", math.nan, "sigma_delta must be finite, got nan"),
        ("epidemic", "sigma_delta", "NaN", "sigma_delta must be finite, got nan"),
        ("epidemic", "sigma_delta", math.inf, "sigma_delta must be finite, got inf"),
        ("epidemic", "beta", math.inf, "beta must be finite, got inf"),
        ("epidemic", "gamma", math.inf, "gamma must be finite, got inf"),
        ("costs", "c_fa", math.inf, "c_fa must be finite, got inf"),
        ("costs", "c_delay", math.inf, "c_delay must be finite, got inf"),
    ])
    def test_invalid_value(self, section, key, value, reason):
        rejects(with_(section, **{key: value}), f"invalid '{section}' section: {reason}")

    @pytest.mark.parametrize("section, key", [
        ("srmc", "degree"), ("srmc", "n0"), ("srmc", "n_batch"), ("srmc", "n_end"),
        ("srmc", "d_candidates"), ("srmc", "t_max"), ("srmc", "mpc_switch"),
        ("srmc", "trace_s1"), ("evaluate", "n_paths"), ("evaluate", "horizon"),
        ("simulate", "n_paths"), ("simulate", "horizon"),
    ])
    @pytest.mark.parametrize("value", [2.9, float("inf"), float("nan")])
    def test_integer_keys_refuse_fractions(self, section, key, value):
        rejects(with_(section, **{key: value}),
                f"invalid '{section}' section: expected an integer, got {value!r}")

    @pytest.mark.parametrize("section, key, reason", [
        ("costs", "c_fa", "expected a number, got True"),
        ("epidemic", "beta", "expected a number, got False"),
        ("srmc", "span", "expected a number, got True"),
        ("srmc", "tol", "expected a number, got True"),
        ("srmc", "t_max", "expected an integer, got True"),
        ("srmc", "trace_s1", "expected an integer, got True"),
        ("evaluate", "n_paths", "expected an integer, got True"),
        ("epidemic", "pool_sizes", "expected a list of integers, got '22'"),
    ])
    def test_no_booleans_for_numbers_nor_strings_for_lists(self, section, key, reason):
        value = {"pool_sizes": "22", "beta": False}.get(key, True)
        rejects(with_(section, **{key: value}), f"invalid '{section}' section: {reason}")

    @pytest.mark.parametrize("doc, message", [
        (with_("epidemic", pool_sizes=[2000, True]),
         "invalid 'epidemic' section: expected an integer, got True"),
        (with_("evaluate", x0=[1990, True, 0.1]),
         "invalid 'evaluate.x0': expected an integer, got True"),
        (with_("evaluate", x0=[1990, 10, True]),
         "invalid 'evaluate.x0': expected a number, got True"),
        (with_("evaluate", policies=[{"kind": "threshold_p", "p_bar": True}]),
         "invalid policy entry {'kind': 'threshold_p', 'p_bar': True}: expected a number, "
         "got True"),
        (with_("evaluate", policies=[{"kind": "threshold_t", "t_bar": True}]),
         "invalid policy entry {'kind': 'threshold_t', 't_bar': True}: expected an integer, "
         "got True"),
        (with_(master_seed=True), "master_seed must be an integer, got True"),
    ])
    def test_no_booleans_inside_lists_and_entries(self, doc, message):
        rejects(doc, message)

    @pytest.mark.parametrize("value", [5, None, ["out"]])
    def test_output_dir_must_be_a_path(self, value):
        rejects(with_("output", dir=value),
                f"invalid 'output' section: expected str, bytes or os.PathLike object, "
                f"not {type(value).__name__}")

    @pytest.mark.parametrize("variant", ["lp2d", "full3d"])
    @pytest.mark.parametrize("trace_s1", [-5, 0, 999, 2001, 5000])
    def test_trace_s1_off_the_s1_axis(self, variant, trace_s1):
        doc = with_("srmc", trace_s1=trace_s1)
        doc["variant"] = variant
        rejects(doc, f"invalid 'srmc' section: trace_s1 must lie on the S1 axis "
                     f"[1000, 2000] of the regression box, got {trace_s1}")

    def test_pool_sizes_refuse_fractions(self):
        rejects(with_("epidemic", pool_sizes=[2000.5, 2000]),
                "invalid 'epidemic' section: expected an integer, got 2000.5")

    @pytest.mark.parametrize("value", ["false", "true", 2, -1, 0.5, None, [1]])
    def test_two_pool_takes_booleans_and_0_or_1(self, value):
        rejects(with_("simulate", two_pool=value),
                f"invalid 'simulate' section: expected true, false, 0 or 1, got {value!r}")

    @pytest.mark.parametrize("section", ["evaluate", "simulate"])
    @pytest.mark.parametrize("value, message", [
        ([1990, 10], "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        ("abc", "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        ({"s1": 1990}, "'{s}.x0' must be a 3-element list [s1, i1, p]"),
        (["a", 10, 0.1], "invalid '{s}.x0': invalid literal for int() with base 10: 'a'"),
        ([1990, 10, 1.5], "invalid '{s}.x0': outbreak probability must lie in [0, 1], "
                          "got 1.5"),
        ([1990, 20, 0.1], "invalid '{s}.x0': s1 + i1 = 2010 exceeds the Pool-1 size 2000"),
        ([1990.5, 10, 0.1], "invalid '{s}.x0': expected an integer, got 1990.5"),
    ])
    def test_bad_x0(self, section, value, message):
        rejects(with_(section, x0=value), message.format(s=section))

    @pytest.mark.parametrize("value", [{"kind": "map"}, "threshold_p", [1], [{"kind": "x"}, 2]])
    def test_policies_not_a_list_of_objects(self, value):
        rejects(with_("evaluate", policies=value),
                "'evaluate.policies' must be a list of policy objects")

    @pytest.mark.parametrize("entry, message", [
        ({"kind": "map"}, "map policy entry needs a 'path': {'kind': 'map'}"),
        ({"kind": "threshold_p"}, "threshold_p policy entry needs 'p_bar': "
                                  "{'kind': 'threshold_p'}"),
        ({"kind": "threshold_t"}, "threshold_t policy entry needs 't_bar': "
                                  "{'kind': 'threshold_t'}"),
        ({"kind": "bogus"}, "unknown policy kind 'bogus' in {'kind': 'bogus'}"),
        ({"t_bar": 4}, "unknown policy kind None in {'t_bar': 4}"),
        ({"kind": "threshold_t", "t_bar": 4.7}, "invalid policy entry {'kind': 'threshold_t', "
                                                "'t_bar': 4.7}: expected an integer, got 4.7"),
        ({"kind": "threshold_p", "p_bar": 2}, "invalid policy entry {'kind': 'threshold_p', "
                                              "'p_bar': 2}: p_bar must lie in (0, 1), got 2.0"),
        ({"kind": "threshold_t", "t_bar": "x"}, "invalid policy entry {'kind': 'threshold_t', "
                                                "'t_bar': 'x'}: invalid literal for int() with "
                                                "base 10: 'x'"),
        ({"kind": "threshold_p", "p_bar": 0.8, "extra": 1},
         "unknown keys in policy entry {'kind': 'threshold_p', 'p_bar': 0.8, 'extra': 1}: "
         "['extra']"),
        ({"kind": "map", "path": 5}, "invalid policy entry {'kind': 'map', 'path': 5}: "
                                     "expected a string, got 5"),
        ({"kind": "map", "path": ["a"]}, "invalid policy entry {'kind': 'map', 'path': ['a']}: "
                                         "expected a string, got ['a']"),
        ({"kind": "map", "path": "m.json", "name": True},
         "invalid policy entry {'kind': 'map', 'path': 'm.json', 'name': True}: "
         "expected a string, got True"),
        ({"kind": "map", "path": "m.json", "name": ""},
         "invalid policy entry {'kind': 'map', 'path': 'm.json', 'name': ''}: "
         "expected a non-empty name without '/' or NUL, got ''"),
        ({"kind": "map", "path": "m.json", "name": "a/b"},
         "invalid policy entry {'kind': 'map', 'path': 'm.json', 'name': 'a/b'}: "
         "expected a non-empty name without '/' or NUL, got 'a/b'"),
        ({"kind": "map", "path": "m.json", "name": "a\0b"},
         "invalid policy entry {'kind': 'map', 'path': 'm.json', 'name': 'a\\x00b'}: "
         "expected a non-empty name without '/' or NUL, got 'a\\x00b'"),
    ])
    def test_bad_policy_entry(self, entry, message):
        rejects(with_("evaluate", policies=[entry]), message)

    @pytest.mark.parametrize("pool_sizes", [[2000], [2000, 2000, 2000]])
    def test_two_pool_needs_exactly_two_pools(self, pool_sizes):
        doc = with_("simulate", two_pool=True)
        doc["epidemic"]["pool_sizes"] = pool_sizes
        rejects(doc, f"'simulate.two_pool' needs exactly two pool_sizes, got {len(pool_sizes)}")
        doc["simulate"]["two_pool"] = False
        assert parse_config(doc).epidemic.n_pools == len(pool_sizes)

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
        rejects(with_(master_seed=2.9), "master_seed must be an integer, got 2.9")
        rejects(with_(master_seed=-1), "master_seed must be nonnegative, got -1")
        with pytest.raises(ConfigError, match="^master_seed must be nonnegative, got -3$"):
            parse_config(with_(), seed_override=-3)
        rejects(with_(variant="bogus"), "unknown variant 'bogus'; choose 'full3d' or 'lp2d'")
        assert parse_config(with_(master_seed=...), seed_override=9).master_seed == 9


class TestAccepted:
    def test_nullable_srmc_keys(self):
        cfg = parse_config(with_("srmc", tol=0.05, trace_s1=None))
        assert cfg.srmc.tol == 0.05 and cfg.srmc.trace_s1 is None

    @pytest.mark.parametrize("variant, n0", [("lp2d", 3), ("full3d", 4)])
    @pytest.mark.parametrize("trace_s1", [1000, 2000])
    def test_smallest_n0_and_the_ends_of_the_s1_axis(self, variant, n0, trace_s1):
        doc = with_("srmc", n0=n0, n_batch=n0, n_end=2 * n0, trace_s1=trace_s1)
        doc["variant"] = variant
        srmc = parse_config(doc).srmc
        assert (srmc.n0, srmc.trace_s1) == (n0, trace_s1)

    def test_numeric_strings_and_case(self):
        doc = with_("epidemic", beta="0.75", pool_sizes=["2000", 2000], sigma_delta="0.01")
        doc["costs"] = {"c_fa": "20", "c_delay": "1.0"}
        doc["srmc"] = {"n0": "100", "n_batch": "50", "n_end": "200", "d_candidates": "300",
                       "acquisition": "MIN", "t_max": "4", "mpc_switch": "2",
                       "tol": "0.5", "span": "0.3", "degree": "1", "trace_s1": "1990"}
        doc["evaluate"] = {"x0": ["1990", "10", "0.1"], "n_paths": "40", "horizon": "12",
                           "policies": [{"kind": "threshold_t", "t_bar": 4}]}
        doc["simulate"] = {"x0": [1995, 5, "0"], "n_paths": "2", "horizon": "7",
                           "two_pool": 1}
        cfg = parse_config(doc)
        assert cfg.epidemic == EpidemicParams(0.75, 0.5, 0.01, (2000, 2000), 0.01)
        assert cfg.costs.c_fa == 20.0 and cfg.costs.c_delay == 1.0
        assert cfg.srmc == SrmcConfig(
            master_seed=5, n0=100, n_batch=50, n_end=200, d_candidates=300,
            t_max=4, mpc_switch=2, tol=0.5, loess=LoessConfig(span=0.3), trace_s1=1990,
        )
        assert cfg.evaluate == EvaluateSettings(
            ReducedState(1990, 10, 0.1), 40, 12, ({"kind": "threshold_t", "t_bar": 4},))
        assert cfg.simulate == SimulateSettings(ReducedState(1995, 5, 0.0), 2, 7, True)
        assert cfg.simulate.two_pool is True

    def test_policy_entries_are_cast(self):
        policies = [{"kind": "THRESHOLD_P", "p_bar": "0.8"}, {"kind": "threshold_t", "t_bar": "8"},
                    {"kind": "map", "path": "m.json", "name": "m"}]
        cfg = parse_config(with_("evaluate", policies=policies))
        assert cfg.evaluate.policies == ({"kind": "threshold_p", "p_bar": 0.8},
                                         {"kind": "threshold_t", "t_bar": 8},
                                         {"kind": "map", "path": "m.json", "name": "m"})
        assert cfg.raw["evaluate"]["policies"] == policies  # hashed as written
        unnamed = parse_config(with_("evaluate", policies=[{"kind": "map", "path": "m.json",
                                                            "name": None}]))
        assert unnamed.evaluate.policies == ({"kind": "map", "path": "m.json", "name": None},)

    @pytest.mark.parametrize("value, flag", [(True, True), (False, False), (1, True),
                                             (0, False)])
    def test_two_pool_values(self, value, flag):
        assert parse_config(with_("simulate", two_pool=value)).simulate.two_pool is flag

    def test_integral_floats(self):
        cfg = parse_config(with_("simulate", n_paths=2.0, x0=[1995.0, 5, 0.0]))
        assert cfg.simulate.n_paths == 2 and cfg.simulate.x0 == ReducedState(1995, 5, 0.0)

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
