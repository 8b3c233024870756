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
``agents[0].sensitivity: must lie in [0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import yaml

from .dist import AgentSpec, make_income_family, make_type_dist
from .errors import ConfigError, ConstructionError
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


def _number(mapping, key, path, default=None, lo=None, hi=None):
    if key not in mapping:
        if default is None:
            raise ConfigError(f"{path}.{key}", "missing required field")
        return default
    v = mapping[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {v!r}")
    if lo is not None and v < lo:
        raise ConfigError(f"{path}.{key}", f"must be >= {lo} (got {v})")
    if hi is not None and v > hi:
        raise ConfigError(f"{path}.{key}", f"must be <= {hi} (got {v})")
    return v


def _integer(mapping, key, path, default, lo):
    """``_number`` of a count, seed or index: an integral value (an integral
    float such as 20000.0 too), as an int."""
    v = _number(mapping, key, path, default=default, lo=lo)
    if isinstance(v, float) and not v.is_integer():
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return int(v)


def _build_agent(spec, path):
    if not isinstance(spec, dict):
        raise ConfigError(path, "each agent must be a mapping")
    td = _require(spec, "type_dist", path, dict)
    fam = _require(td, "family", f"{path}.type_dist", str)
    try:
        types = make_type_dist(fam, {k: v for k, v in td.items() if k != "family"})
    except ConstructionError as e:
        raise ConfigError(f"{path}.type_dist", str(e)) from e
    inc = _require(spec, "income", path, dict)
    ifam = _require(inc, "family", f"{path}.income", str)
    try:
        income = make_income_family(ifam, {k: v for k, v in inc.items() if k != "family"})
    except ConstructionError as e:
        raise ConfigError(f"{path}.income", str(e)) from e
    c = _number(spec, "audit_cost", path, lo=0.0)
    phi = _number(spec, "sensitivity", path, lo=0.0, hi=1.0)
    try:
        return AgentSpec(types=types, income=income, audit_cost=float(c),
                         sensitivity=float(phi))
    except ConstructionError as e:
        raise ConfigError(path, str(e)) from e


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
    version = _require(raw, "v", "", int)
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
    theta_points = _integer(grids, "theta_points", "grids", _DEFAULTS["theta_points"], 8)
    pi_points = _integer(grids, "pi_points", "grids", _DEFAULTS["pi_points"], 8)

    sim = raw.get("simulation", {}) or {}
    if not isinstance(sim, dict):
        raise ConfigError("simulation", "must be a mapping")
    n_runs = _integer(sim, "n_runs", "simulation", _DEFAULTS["n_runs"], _MIN_RUNS)
    seed = _integer(sim, "seed", "simulation", _DEFAULTS["seed"], 0)
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
        agent_ix = _integer(sw, "agent", "sweep", 0, 0)
        if agent_ix >= len(agents):
            raise ConfigError("sweep.agent", f"no agent with index {agent_ix}")
        values = _require(sw, "values", "sweep", list)
        for k, v in enumerate(values):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError(f"sweep.values[{k}]", f"expected a number, got {v!r}")
        sweep_spec = SweepSpec(axis, agent_ix, tuple(float(v) for v in values))

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
