"""Instance configuration files.

Configs are YAML with a required schema version ``v: 1``:

    v: 1
    name: uniform_additive
    agents:
      - type_dist: {family: uniform, lo: 1.0, hi: 2.0}
        income:
          family: additive_error
          error: {family: uniform, lo: -1.0, hi: 1.0}
        audit_cost: 0.2
        sensitivity: 0.5
    grids: {theta_points: 128, pi_points: 128}
    simulation: {n_runs: 100000, seed: 0}
    output: {directory: out, formats: [csv, json]}
    sweep: {axis: audit_cost, agent: 0, values: [0.0, 0.2, 0.4]}   # optional

Every validation failure carries the offending field path, e.g.
``agents[0].sensitivity: sensitivity must lie in [0, 1], got 2``, the
argument rules' refusals (``errors._integer``, ``errors._real``) too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import yaml

from .dist import AgentSpec, make_income_family, make_type_dist
from .errors import ConfigError, ConstructionError, _integer, _real
from .mech import AuctionInstance
from .sim import _MIN_RUNS, _SEED_BOUND

# libyaml's parser where PyYAML was built with it: the same SafeConstructor
# and resolver as yaml.SafeLoader, so the same documents, about ten times
# faster
_YAML_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_DEFAULTS = {"theta_points": 128, "pi_points": 128, "n_runs": 100_000, "seed": 0}
_FORMATS = ("csv", "json")
_SWEEP_AXES = ("audit_cost", "sensitivity")


@dataclass(frozen=True)
class SweepSpec:
    axis: str
    agent: int
    values: tuple


@dataclass(frozen=True)
class InstanceConfig:
    """Validated configuration: the built instance plus run settings."""

    name: str
    instance: AuctionInstance
    theta_points: int
    pi_points: int
    n_runs: int
    seed: int
    out_dir: str
    formats: tuple
    sweep: Optional[SweepSpec]
    agents_raw: list = field(repr=False)  # the agents section as written

    @property
    def normalized(self) -> dict:
        """The settings with defaults applied, as the JSON artifacts echo them."""
        out = {
            "v": 1,
            "name": self.name,
            "agents": self.agents_raw,
            "grids": {"theta_points": self.theta_points, "pi_points": self.pi_points},
            "simulation": {"n_runs": self.n_runs, "seed": self.seed},
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }
        if self.sweep is not None:
            out["sweep"] = {"axis": self.sweep.axis, "agent": self.sweep.agent,
                            "values": list(self.sweep.values)}
        return out


def _require(mapping, key, path, kind=None):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    value = mapping[key]
    if kind is not None and not isinstance(value, kind):
        names = kind.__name__ if not isinstance(kind, tuple) else \
            "/".join(k.__name__ for k in kind)
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"expected {names}, got {type(value).__name__}")
    return value


def _at(path, build, *args):
    """``build(*args)``, its ``ConstructionError`` raised again as a
    ``ConfigError`` at ``path``."""
    try:
        return build(*args)
    except ConstructionError as e:
        raise ConfigError(path, str(e)) from e


def _real_field(mapping, key, path, lo, hi=math.inf):
    """A required real number, by the real rule."""
    return _at(f"{path}.{key}", _real, _require(mapping, key, path), key, lo, hi)


def _integer_field(mapping, key, path, default, least, bound=None):
    """A count, seed or index, by the integer rule; an integral float such
    as 20000.0 is its int."""
    v = mapping.get(key, default)
    if isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return _at(f"{path}.{key}", _integer, int(v) if isinstance(v, float) else v, key, least, bound)


def _build_agent(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(path, "each agent must be a mapping")
    td = _require(spec, "type_dist", path, dict)
    fam = _require(td, "family", f"{path}.type_dist", str)
    types = _at(f"{path}.type_dist", make_type_dist, fam,
                {k: v for k, v in td.items() if k != "family"})
    inc = _require(spec, "income", path, dict)
    ifam = _require(inc, "family", f"{path}.income", str)
    income = _at(f"{path}.income", make_income_family, ifam,
                 {k: v for k, v in inc.items() if k != "family"})
    return _at(path, AgentSpec, types, income, _real_field(spec, "audit_cost", path, 0),
               _real_field(spec, "sensitivity", path, 0, 1))


def parse_config(text: str) -> InstanceConfig:
    """Parse and validate a config document; fill defaults.

    Raises ``ConfigError`` with a field path on any problem.
    """
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as e:
        raise ConfigError("", f"not valid YAML: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("", "top level must be a mapping")
    version = _at("v", _integer, _require(raw, "v", ""), "v", 1)
    if version != 1:
        raise ConfigError("v", f"unsupported schema version {version} (expected 1)")

    agents_raw = _require(raw, "agents", "", list)
    if not agents_raw:
        raise ConfigError("agents", "at least one agent is required")
    agents = tuple(_build_agent(a, f"agents[{i}]") for i, a in enumerate(agents_raw))
    instance = AuctionInstance(agents)

    grids = raw.get("grids", {}) or {}
    if not isinstance(grids, dict):
        raise ConfigError("grids", "must be a mapping")
    theta_points = _integer_field(grids, "theta_points", "grids", _DEFAULTS["theta_points"], 8)
    pi_points = _integer_field(grids, "pi_points", "grids", _DEFAULTS["pi_points"], 8)

    sim = raw.get("simulation", {}) or {}
    if not isinstance(sim, dict):
        raise ConfigError("simulation", "must be a mapping")
    n_runs = _integer_field(sim, "n_runs", "simulation", _DEFAULTS["n_runs"], _MIN_RUNS)
    seed = _integer_field(sim, "seed", "simulation", _DEFAULTS["seed"], 0)
    if seed >= _SEED_BOUND:
        raise ConfigError("simulation.seed", "must be below 2**128 (a Philox key)")

    out = raw.get("output", {}) or {}
    if not isinstance(out, dict):
        raise ConfigError("output", "must be a mapping")
    out_dir = out.get("directory", "out")
    if not isinstance(out_dir, str):
        raise ConfigError("output.directory", "must be a string")
    formats = out.get("formats", ["csv", "json"])
    if not isinstance(formats, list) or not formats or \
            any(f not in _FORMATS for f in formats):
        raise ConfigError("output.formats", f"must be a nonempty subset of {_FORMATS}")

    sweep_spec = None
    if "sweep" in raw and raw["sweep"] is not None:
        sw = raw["sweep"]
        if not isinstance(sw, dict):
            raise ConfigError("sweep", "must be a mapping")
        axis = _require(sw, "axis", "sweep", str)
        if axis not in _SWEEP_AXES:
            raise ConfigError("sweep.axis", f"must be one of {_SWEEP_AXES}")
        agent_ix = _integer_field(sw, "agent", "sweep", 0, 0, len(agents))
        values = _require(sw, "values", "sweep", list)
        sweep_spec = SweepSpec(axis, agent_ix, tuple(
            _at(f"sweep.values[{k}]", _real, v, "value") for k, v in enumerate(values)))

    name = raw.get("name", "instance")
    if not isinstance(name, str):
        raise ConfigError("name", "must be a string")

    return InstanceConfig(
        name=name,
        instance=instance,
        theta_points=theta_points,
        pi_points=pi_points,
        n_runs=n_runs,
        seed=seed,
        out_dir=out_dir,
        formats=tuple(formats),
        sweep=sweep_spec,
        agents_raw=agents_raw,
    )
