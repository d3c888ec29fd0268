"""Run configuration: JSON schema, validation, and provenance hashing.

A run configuration is a JSON document with sections

    {
      "master_seed": 123,                  # mandatory unless --seed is given
      "variant": "full3d" | "lp2d",
      "epidemic": {"beta", "gamma", "alpha", "pool_sizes", "sigma_delta"},
      "costs":    {"c_fa", "c_delay"},
      "srmc":     {"n0", "n_batch", "n_end", "d_candidates", "acquisition",
                   "t_max", "mpc_switch", "tol", "span", "degree", "trace_s1"},
      "evaluate": {"x0": [s1, i1, p], "n_paths", "horizon", "policies": [...]},
      "simulate": {"x0": [s1, i1, p], "n_paths", "horizon", "two_pool"},
      "output":   {"dir": "out"}
    }

Policy entries: {"kind": "map", "path": "...", "name": "..."} or
{"kind": "threshold_p", "p_bar": 0.8} or {"kind": "threshold_t", "t_bar": 8}.

All sections except epidemic/costs have defaults. The config hash (sha256
of the canonical JSON with the output section removed) and the master seed
are embedded in every output file for provenance.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .costs import CostParams
from .loess import LoessConfig
from .reduced import ModelVariant, ReducedState
from .sir import EpidemicParams
from .solver import SrmcConfig


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _section(raw: dict, name: str, required: bool = False) -> dict:
    value = raw.get(name, None)
    if value is None:
        if required:
            raise ConfigError(f"config is missing the required '{name}' section")
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    return dict(value)


def _take(section: dict, used: set, key: str, default=None, required: bool = False):
    used.add(key)
    if key in section:
        return section[key]
    if required:
        raise ConfigError(f"missing required config key '{key}'")
    return default


def _reject_unknown(section: dict, used: set, where: str) -> None:
    unknown = set(section) - used
    if unknown:
        raise ConfigError(f"unknown config keys in '{where}': {sorted(unknown)}")


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

    epi_raw = _section(raw, "epidemic", required=True)
    used: set = set()
    try:
        epidemic = EpidemicParams(
            beta=float(_take(epi_raw, used, "beta", required=True)),
            gamma=float(_take(epi_raw, used, "gamma", required=True)),
            alpha=float(_take(epi_raw, used, "alpha", required=True)),
            pool_sizes=tuple(_take(epi_raw, used, "pool_sizes", required=True)),
            sigma_delta=float(_take(epi_raw, used, "sigma_delta", 0.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'epidemic' section: {exc}") from exc
    _reject_unknown(epi_raw, used, "epidemic")

    costs_raw = _section(raw, "costs", required=True)
    used = set()
    try:
        costs = CostParams(
            c_fa=float(_take(costs_raw, used, "c_fa", required=True)),
            c_delay=float(_take(costs_raw, used, "c_delay", required=True)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'costs' section: {exc}") from exc
    _reject_unknown(costs_raw, used, "costs")

    srmc_raw = _section(raw, "srmc")
    used = set()
    try:
        loess_cfg = LoessConfig(
            span=float(_take(srmc_raw, used, "span", 0.4)),
            degree=int(_take(srmc_raw, used, "degree", 1)),
        )
        tol = _take(srmc_raw, used, "tol", None)
        trace_s1 = _take(srmc_raw, used, "trace_s1", None)
        srmc = SrmcConfig(
            master_seed=master_seed,
            n0=int(_take(srmc_raw, used, "n0", 200)),
            n_batch=int(_take(srmc_raw, used, "n_batch", 200)),
            n_end=int(_take(srmc_raw, used, "n_end", 2000)),
            d_candidates=int(_take(srmc_raw, used, "d_candidates", 2500)),
            acquisition=str(_take(srmc_raw, used, "acquisition", "min")).lower(),
            t_max=int(_take(srmc_raw, used, "t_max", 20)),
            mpc_switch=int(_take(srmc_raw, used, "mpc_switch", 5)),
            tol=None if tol is None else float(tol),
            loess=loess_cfg,
            trace_s1=None if trace_s1 is None else int(trace_s1),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid 'srmc' section: {exc}") from exc
    _reject_unknown(srmc_raw, used, "srmc")

    eval_raw = _section(raw, "evaluate")
    evaluate: Optional[EvaluateSettings] = None
    if eval_raw:
        used = set()
        x0 = _parse_x0(_take(eval_raw, used, "x0", required=True), "evaluate",
                       epidemic.pool_sizes[0])
        policies = _take(eval_raw, used, "policies", [])
        if not isinstance(policies, list) or not all(isinstance(p, dict) for p in policies):
            raise ConfigError("'evaluate.policies' must be a list of policy objects")
        try:
            evaluate = EvaluateSettings(
                x0=x0,
                n_paths=int(_take(eval_raw, used, "n_paths", 1000)),
                horizon=int(_take(eval_raw, used, "horizon", 50)),
                policies=tuple(policies),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid 'evaluate' section: {exc}") from exc
        if evaluate.n_paths < 1 or evaluate.horizon < 1:
            raise ConfigError("'evaluate.n_paths' and 'evaluate.horizon' must be positive")
        _reject_unknown(eval_raw, used, "evaluate")

    sim_raw = _section(raw, "simulate")
    simulate: Optional[SimulateSettings] = None
    if sim_raw:
        used = set()
        x0 = _parse_x0(_take(sim_raw, used, "x0", required=True), "simulate",
                       epidemic.pool_sizes[0])
        try:
            simulate = SimulateSettings(
                x0=x0,
                n_paths=int(_take(sim_raw, used, "n_paths", 3)),
                horizon=int(_take(sim_raw, used, "horizon", 30)),
                two_pool=bool(_take(sim_raw, used, "two_pool", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid 'simulate' section: {exc}") from exc
        if simulate.n_paths < 1 or simulate.horizon < 1:
            raise ConfigError("'simulate.n_paths' and 'simulate.horizon' must be positive")
        _reject_unknown(sim_raw, used, "simulate")

    out_raw = _section(raw, "output")
    output_dir = Path(out_override) if out_override else Path(out_raw.get("dir", "out"))

    known = {"master_seed", "variant", "epidemic", "costs", "srmc",
             "evaluate", "simulate", "output"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")

    # Re-resolve the raw dict so the hash reflects overrides.
    raw["variant"] = variant.value
    return RunConfig(
        epidemic=epidemic,
        costs=costs,
        variant=variant,
        srmc=srmc,
        evaluate=evaluate,
        simulate=simulate,
        master_seed=master_seed,
        output_dir=output_dir,
        raw=raw,
    )
