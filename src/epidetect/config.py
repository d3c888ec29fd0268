"""Run configuration: JSON schema, validation, and provenance hashing.

A run configuration is a JSON document with sections

    {
      "master_seed": 123,                  # mandatory unless --seed is given
      "variant": "full3d" | "lp2d",        # default "full3d"
      "epidemic": {...},                   # EpidemicParams
      "costs":    {...},                   # CostParams
      "srmc":     {...},                   # SrmcConfig; "span", "degree" to LoessConfig
      "evaluate": {"x0": [s1, i1, p], ...},  # EvaluateSettings
      "simulate": {"x0": [s1, i1, p], ...},  # SimulateSettings
      "output":   {"dir": "out"}
    }

`_CASTS` lists the keys each section may set and the cast each value goes
through. A key the config leaves out takes the default of the dataclass it
fills; a field without a default is a required key. Policy entries:
{"kind": "map", "path": "...", "name": "..."} or
{"kind": "threshold_p", "p_bar": 0.8} or {"kind": "threshold_t", "t_bar": 8}.

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
from .solver import SrmcConfig


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


def _parse_x0(value: Any, where: str, pool_size: int) -> ReducedState:
    if not (isinstance(value, (list, tuple)) and len(value) == 3):
        raise ConfigError(f"'{where}.x0' must be a 3-element list [s1, i1, p]")
    try:
        x0 = ReducedState(int(value[0]), int(value[1]), float(value[2]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{where}.x0': {exc}") from exc
    if x0.s1 + x0.i1 > pool_size:
        raise ConfigError(f"invalid '{where}.x0': s1 + i1 = {x0.s1 + x0.i1} exceeds "
                          f"the Pool-1 size {pool_size}")
    return x0


def _nullable(cast):
    return lambda value: None if value is None else cast(value)


def _policies(value: Any) -> tuple[dict, ...]:
    if not isinstance(value, list) or not all(isinstance(p, dict) for p in value):
        raise ConfigError("'evaluate.policies' must be a list of policy objects")
    return tuple(value)


def _srmc_config(master_seed: int, **knobs) -> SrmcConfig:
    """SrmcConfig whose LoessConfig takes the `span` and `degree` knobs."""
    loess = {key: knobs.pop(key) for key in ("span", "degree") if key in knobs}
    return SrmcConfig(master_seed, loess=LoessConfig(**loess), **knobs)


# The keys each section may set, in the order their values are cast.
# `evaluate` and `simulate` also take an `x0`, checked against the pool size.
_CASTS: dict[str, dict] = {
    "epidemic": {"beta": float, "gamma": float, "alpha": float, "pool_sizes": tuple,
                 "sigma_delta": float},
    "costs": {"c_fa": float, "c_delay": float},
    "srmc": {"span": float, "degree": int, "n0": int, "n_batch": int, "n_end": int,
             "d_candidates": int, "acquisition": lambda v: str(v).lower(),
             "t_max": int, "mpc_switch": int, "tol": _nullable(float),
             "trace_s1": _nullable(int)},
    "evaluate": {"policies": _policies, "n_paths": int, "horizon": int},
    "simulate": {"n_paths": int, "horizon": int, "two_pool": bool},
}


def _object(raw: dict, name: str) -> Optional[dict]:
    value = raw.get(name)
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return value


def _read_section(raw: dict, name: str, build, casts: dict, required: bool = False,
                  **given):
    """`build(**given, ...)` from the keys section `name` sets, each through its cast.

    Keys the section leaves out are not passed, so `build` supplies their
    defaults, and a parameter of `build` without a default is a required key.
    An optional section that is absent, null or empty gives None.
    """
    section = _object(raw, name)
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
        master_seed = int(master_seed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"master_seed must be an integer, got {master_seed!r}") from exc

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
    srmc = (_read_section(raw, "srmc", _srmc_config, _CASTS["srmc"], master_seed=master_seed)
            or SrmcConfig(master_seed))
    settings = {}
    for name, build in (("evaluate", EvaluateSettings), ("simulate", SimulateSettings)):
        x0 = partial(_parse_x0, where=name, pool_size=epidemic.pool_sizes[0])
        found = settings[name] = _read_section(raw, name, build, {"x0": x0, **_CASTS[name]})
        if found is not None and (found.n_paths < 1 or found.horizon < 1):
            raise ConfigError(f"'{name}.n_paths' and '{name}.horizon' must be positive")

    out_raw = _object(raw, "output") or {}
    output_dir = Path(out_override) if out_override else Path(out_raw.get("dir", "out"))

    unknown = set(raw) - {"master_seed", "variant", "output", *_CASTS}
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
