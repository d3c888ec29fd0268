"""Run configuration: JSON schema, validation, and provenance hashing.

A run configuration is a JSON document with sections

    {
      "master_seed": 123,                  # mandatory unless --seed is given
      "variant": "full3d" | "lp2d",        # default "full3d"
      "epidemic": {...},                   # EpidemicParams
      "costs":    {...},                   # CostParams
      "srmc":     {...},                   # SrmcConfig; "span" to LoessConfig
      "evaluate": {"x0": [s1, i1, p], ...},  # EvaluateSettings
      "simulate": {"x0": [s1, i1, p], ...},  # SimulateSettings
      "output":   {"dir": "out"}
    }

`_CASTS` lists the keys each section may set and the cast each value goes
through. A key the config leaves out takes the default of the dataclass it
fills; a field without a default is a required key. `_POLICY_CASTS` checks
and casts each policy entry: {"kind": "map", "path": "...", "name": "..."} or
{"kind": "threshold_p", "p_bar": 0.8} or {"kind": "threshold_t", "t_bar": 8}.
A `simulate` section with `two_pool` on needs exactly two `pool_sizes`.

Only epidemic and costs are required sections. The config hash (sha256
of the canonical JSON with the output section removed) and the master seed
are embedded in every output file for provenance.
"""
from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Optional

from .costs import CostParams
from .loess import LoessConfig
from .reduced import ModelVariant, ReducedState
from .sir import EpidemicParams
from .solver import SrmcConfig, check_solvable
from .strategy import ThresholdP, ThresholdT


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


@dataclass(frozen=True)
class EvaluateSettings:
    x0: ReducedState
    n_paths: int = 1000
    horizon: int = 50
    policies: tuple[dict, ...] = ()


@dataclass(frozen=True)
class SimulateSettings:
    x0: ReducedState
    n_paths: int = 3
    horizon: int = 30
    two_pool: bool = False


@dataclass
class RunConfig:
    """Fully validated run configuration."""

    epidemic: EpidemicParams
    costs: CostParams
    variant: ModelVariant
    srmc: SrmcConfig
    evaluate: Optional[EvaluateSettings]
    simulate: Optional[SimulateSettings]
    master_seed: int
    output_dir: Path
    raw: dict = field(repr=False)

    def config_hash(self) -> str:
        doc = {k: v for k, v in self.raw.items() if k != "output"}
        doc["master_seed"] = self.master_seed
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _integer(value: Any) -> int:
    """int(value), refusing a boolean or a fraction (int() reads true as 1, 2.9 as 2)."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value: Any) -> float:
    """float(value), refusing a boolean (float() reads true as 1.0)."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _counts(value: Any) -> tuple[int, ...]:
    if isinstance(value, str):  # not read digit by digit
        raise ValueError(f"expected a list of integers, got {value!r}")
    return tuple(_integer(m) for m in value)


def _text(value: Any) -> str:
    """A JSON string; str() would read 5 as "5" and ["a"] as "['a']"."""
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _file_name(value: Any) -> str:
    """A string that can stand in a file name: not empty, no '/' and no NUL."""
    name = _text(value)
    if not name or "/" in name or "\0" in name:
        raise ValueError(f"expected a non-empty name without '/' or NUL, got {value!r}")
    return name


def _boolean(value: Any) -> bool:
    """A JSON boolean or 0/1; any other value, the string "false" too, is refused."""
    if value not in (0, 1):
        raise ValueError(f"expected true, false, 0 or 1, got {value!r}")
    return bool(value)


def _parse_x0(value: Any, where: str, pool_size: int) -> ReducedState:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ConfigError(f"'{where}.x0' must be a 3-element list [s1, i1, p]")
    try:
        x0 = ReducedState(_integer(value[0]), _integer(value[1]), _real(value[2]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{where}.x0': {exc}") from exc
    if x0.s1 + x0.i1 > pool_size:
        raise ConfigError(f"invalid '{where}.x0': s1 + i1 = {x0.s1 + x0.i1} exceeds "
                          f"the Pool-1 size {pool_size}")
    return x0


def _nullable(cast):
    return lambda value: None if value is None else cast(value)


# The keys each kind of policy entry may set besides "kind", with their
# casts; the first key is required. A threshold's cast runs its range check.
_POLICY_CASTS: dict[str, dict] = {
    "map": {"path": _text, "name": _nullable(_file_name)},
    "threshold_p": {"p_bar": lambda v: ThresholdP(_real(v)).p_bar},
    "threshold_t": {"t_bar": lambda v: ThresholdT(_integer(v)).t_bar},
}


def _policy(spec: dict) -> dict:
    """`spec` with its kind lower-cased and each value cast."""
    kind = str(spec.get("kind", "")).lower()
    if kind not in _POLICY_CASTS:
        raise ConfigError(f"unknown policy kind {spec.get('kind')!r} in {spec}")
    casts = _POLICY_CASTS[kind]
    required = next(iter(casts))
    if required not in spec:
        article = "a " if kind == "map" else ""
        raise ConfigError(f"{kind} policy entry needs {article}'{required}': {spec}")
    if unknown := set(spec) - {"kind", *casts}:
        raise ConfigError(f"unknown keys in policy entry {spec}: {sorted(unknown)}")
    try:
        return {"kind": kind,
                **{key: cast(spec[key]) for key, cast in casts.items() if key in spec}}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid policy entry {spec}: {exc}") from exc


def _policies(value: Any) -> tuple[dict, ...]:
    if not isinstance(value, list) or not all(isinstance(p, dict) for p in value):
        raise ConfigError("'evaluate.policies' must be a list of policy objects")
    return tuple(_policy(spec) for spec in value)


def _srmc_config(master_seed: int, epidemic: EpidemicParams, variant: ModelVariant,
                 degree: int = 1, acquisition: str = "min", **knobs) -> SrmcConfig:
    """SrmcConfig whose LoessConfig takes the `span` knob, checked by `check_solvable`.

    The solver fits local-linear loess and weighs candidates by min(p, 1 - p)
    only, so `degree` must be 1 and `acquisition` "min".
    """
    for key, value, only in (("degree", degree, 1), ("acquisition", acquisition, "min")):
        if value != only:
            raise ValueError(f"{key} must be {only!r}, the only supported value, got {value!r}")
    loess = LoessConfig(knobs.pop("span")) if "span" in knobs else LoessConfig()
    srmc = SrmcConfig(master_seed, loess=loess, **knobs)
    check_solvable(srmc, epidemic, variant)
    return srmc


# The keys each section may set, in the order their values are cast.
# `evaluate` and `simulate` also take an `x0`, checked against the pool size.
_CASTS: dict[str, dict] = {
    "epidemic": {"beta": _real, "gamma": _real, "alpha": _real,
                 "pool_sizes": _counts, "sigma_delta": _real},
    "costs": {"c_fa": _real, "c_delay": _real},
    "srmc": {"span": _real, "degree": _integer, "n0": _integer, "n_batch": _integer,
             "n_end": _integer, "d_candidates": _integer,
             "acquisition": lambda v: str(v).lower(), "t_max": _integer,
             "mpc_switch": _integer, "tol": _real,
             "trace_s1": _nullable(_integer)},
    "evaluate": {"policies": _policies, "n_paths": _integer, "horizon": _integer},
    "simulate": {"n_paths": _integer, "horizon": _integer, "two_pool": _boolean},
    "output": {"dir": Path},
}


def _read_section(raw: dict, name: str, build, casts: dict, required: bool = False,
                  **given):
    """`build(**given, ...)` from the keys section `name` sets, each through its cast.

    Keys the section leaves out are not passed, so `build` supplies their
    defaults, and a parameter of `build` without a default is a required key.
    An optional section that is absent, null or empty gives None.
    """
    section = raw.get(name)
    if section is not None and not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    if section is None and required:
        raise ConfigError(f"config is missing the required '{name}' section")
    if not section and not required:
        return None
    for param in inspect.signature(build).parameters.values():
        if param.name in casts and param.default is param.empty and param.name not in section:
            raise ConfigError(f"missing required config key '{param.name}'")
    try:
        built = build(**given, **{key: cast(section[key])
                                  for key, cast in casts.items() if key in section})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{name}' section: {exc}") from exc
    unknown = set(section) - set(casts)
    if unknown:
        raise ConfigError(f"unknown config keys in '{name}': {sorted(unknown)}")
    return built


def load_config(
    path,
    *,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
    variant_override: Optional[str] = None,
) -> RunConfig:
    """Load, validate, and resolve a run configuration file."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(
        raw,
        seed_override=seed_override,
        out_override=out_override,
        variant_override=variant_override,
    )


def parse_config(
    raw: dict,
    *,
    seed_override: Optional[int] = None,
    out_override: Optional[str] = None,
    variant_override: Optional[str] = None,
) -> RunConfig:
    raw = dict(raw)

    master_seed = seed_override if seed_override is not None else raw.get("master_seed")
    if master_seed is None:
        raise ConfigError(
            "no master seed: set 'master_seed' in the config or pass --seed "
            "(runs never fall back to a random seed)"
        )
    try:
        master_seed = _integer(master_seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"master_seed must be an integer, got {master_seed!r}") from exc
    if master_seed < 0:
        raise ConfigError(f"master_seed must be nonnegative, got {master_seed}")

    variant_name = variant_override or raw.get("variant", "full3d")
    try:
        variant = ModelVariant(str(variant_name).lower())
    except ValueError as exc:
        raise ConfigError(
            f"unknown variant {variant_name!r}; choose 'full3d' or 'lp2d'"
        ) from exc

    epidemic = _read_section(raw, "epidemic", EpidemicParams, _CASTS["epidemic"],
                             required=True)
    costs = _read_section(raw, "costs", CostParams, _CASTS["costs"], required=True)
    srmc = (_read_section(raw, "srmc", _srmc_config, _CASTS["srmc"], master_seed=master_seed,
                          epidemic=epidemic, variant=variant)
            or SrmcConfig(master_seed))
    settings = {}
    for name, build in (("evaluate", EvaluateSettings), ("simulate", SimulateSettings)):
        x0 = partial(_parse_x0, where=name, pool_size=epidemic.pool_sizes[0])
        found = settings[name] = _read_section(raw, name, build, {"x0": x0, **_CASTS[name]})
        if found is not None and (found.n_paths < 1 or found.horizon < 1):
            raise ConfigError(f"'{name}.n_paths' and '{name}.horizon' must be positive")
    if settings["simulate"] and settings["simulate"].two_pool and epidemic.n_pools != 2:
        raise ConfigError(f"'simulate.two_pool' needs exactly two pool_sizes, "
                          f"got {epidemic.n_pools}")

    output = _read_section(raw, "output", lambda dir=None: dir, _CASTS["output"])
    output_dir = Path(out_override or output or "out")

    unknown = set(raw) - {"master_seed", "variant", *_CASTS}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    # Re-resolve the raw dict so the hash reflects overrides.
    raw["variant"] = variant.value
    return RunConfig(
        epidemic=epidemic,
        costs=costs,
        variant=variant,
        srmc=srmc,
        evaluate=settings["evaluate"],
        simulate=settings["simulate"],
        master_seed=master_seed,
        output_dir=output_dir,
        raw=raw,
    )
