"""Print sha256 digests of every deterministic artifact, as one JSON object.

Run from the repository root:

    PYTHONPATH=src python3 tools/artifact_digest.py > digest.json

Each checkout digests itself: the tool imports the ``royaltycap`` of its
own ``src``, and refuses to run (exit code 2) when a ``PYTHONPATH`` entry
holds another ``royaltycap`` package, which it would otherwise pass over
silently.  Run each checkout's own copy of the tool and compare the outputs
to see which artifacts a change moves:

    python3 tools/artifact_digest.py --compare old.json new.json

prints each key whose entry differs (or that only one file has) and, for a
value entry (floats printed with ``repr``, or JSON holding numbers), the
largest absolute move of its numbers.  The digests cover:

* the CLI ``check``, ``solve``, ``verify-ic``, ``menu`` and ``simulate``
  (20,000 runs) artifacts of the shipped configs in ``configs/``, the CLI
  ``sweep`` (20,000 runs per row) of those with a ``sweep`` section, and
  each call's exit code;
* the CLI ``check``, ``solve`` and ``verify-ic`` artifacts of the
  benchmark's tabulated instances ``tab_error`` and ``tab_income``, from the
  documents that ``perfbench/workloads.py`` builds;
* the CLI ``check`` artifacts of two variants of ``tab_income``:
  ``tab_income_c0.2``, its audit cost raised to 0.2 (a copy of
  ``uniform_additive``, so it runs the tabulated law with an audit cost),
  and ``tab_rising_gap``, the linear quantile rows Q(u) = 2u at type 1 and
  0.5 + 3u at type 2 at c = 0.2, whose audit surplus is not single-crossing
  in income (``check`` exits 1), and the library digests below of the
  first;
* the CLI ``check`` artifacts and the library digests below of three
  instances that run the error laws the others leave out:
  ``additive_triangular_error`` (U[1, 2] types, additive errors from the
  triangular law on [-1, 1.5] with mode -0.5, c = 0.2, phi = 0.5),
  ``scaled_triangular_error`` (U[0.5, 1] types, scaled errors from the
  triangular law on [-0.5, 1] with its mode at -0.5, c = 0.5, phi = 1) and
  ``scaled_tent_error`` (the same types and costs with the benchmark's
  tabulated tent error law ``tent_error``), so that the triangular law's
  antiderivative and a scaled ``table`` error law are digested too;
* per instance, every ``AgentTables`` array, each agent's single-crossing
  scan ``mech._single_crossing_scan`` on its table grid (0.0 unprobed on
  the closed-form families) and the probes ``mech._probe_single_crossing``
  there, and ``payoff_bound``;
* ``distinct_three``, three bidders made of the ``uniform_additive``,
  ``scaled_uniform`` and ``scaled_triangular`` agents, bidder k's audit
  cost times (1 + 0.02 k): ``payoff_bound/distinct_three``,
  ``myerson_cash_revenue/distinct_three`` and
  ``full_extraction_revenue/distinct_three`` (floats printed with
  ``repr``) and ``estimate_revenue/distinct_three`` (20,000 runs, seed 0,
  as JSON), so that the block-built revenue integral beyond two bidders and
  a three-agent chunk are covered;
* ``estimate_revenue/seven_method_family`` (20,000 runs, seed 0, as JSON):
  the ``uniform_additive`` agent with its income law pi = theta + U[-1, 1]
  written out in this tool through the seven methods of the
  ``IncomeFamily`` contract alone, so that the simulator's reads through
  the base class's copies (``ppf_into``, ``supp_lo_into``,
  ``supp_hi_into``) are covered.

It also prints, as values rather than digests, the outputs of the API that
takes an instance, so that a change shows how far each one moves:

* per instance above, one ``estimate_revenue`` report (20,000 runs, seed
  0), as JSON;
* on ``uniform_additive`` and ``mixed_pair``, ``estimate_revenue`` reports
  off truthful play (70,000 runs, seed 0, more than one chunk holds,
  under the keys ``workers1`` and ``workers2``, whose reports agree since
  ``workers`` is ignored), as JSON: under a type-report map,
  under an income-report map, and under a probabilistic audit rule
  ``audit_prob``;
* per shipped config, ``allocation`` and every agent's ``transfer`` on 40
  profiles of independent uniform draws over the type supports (seed 0),
  and ``best_response_income`` of each agent at the types 0.6 and 0.9 of
  the way up its support, rivals at their midpoint types, for incomes 0.2
  and 0.8 of the way up the reported income support;
* ``crossing_point`` of ``scaled_triangular`` at the report pairs
  (0.6, 0.7), (0.75, 0.8) and (0.75, 0.75);
* per agent of the shipped configs, the ``comparative_statics_scan``
  report (64 types) on each axis, as JSON, or the error it raises: ``c``
  at 0, 0.1, 0.2, 0.3 and 0.4, ``phi`` at 0.25, 0.5, 0.75 and 1, and
  ``hazard_family`` over the type laws F = ((theta - lo) / (hi - lo))^a,
  a = 1, 1.5 and 2, tabulated on 257 points of the agent's type support;
* per shipped config and tabulated instance, each agent's
  ``best_responses`` at the true types CLI ``verify-ic`` certifies (16
  interior types, the config's type grid): per income strategy, the truthful
  utility, the best-deviation utility and the advantage at every type, and
  the largest income-report gain (``income_advantage``) at every type;
* the regime-change types ``mech._threshold_kinks`` (marked on the table
  grid) of every agent of the shipped configs and tabulated
  instances, and of the swept agent at each value of a ``sweep`` section;
* per agent of the shipped configs, tabulated instances and error-law
  instances, the kernel entry points ``audit_threshold``,
  ``virtual_value``, ``phi_cap`` and ``expected_income_net_royalty`` at 9
  interior types, and
  ``endogenous_virtual`` at those types (rivals at their midpoint types)
  under a threshold audit rule: audit below 0.4 of the way up the income
  support.  With the kinks, ``crossing_point`` and ``menu``, these reach
  every call of the bisection ``dist._bisect``;
* per tabulated and error-law instance, its income law's quantiles
  ``ppf(u, theta)`` at u = 0, 1 and interior values, including both sides
  of 0 and 1 by one float: on ``tab_error`` and the error-law instances at
  the type support's ends and midpoint (the scaled family's top type, where
  income is the type, included), and on ``tab_income`` (a
  ``TableIncomeFamily``, whose rows are quantiles) at its type knots, where
  the weight on the next row is 0 (or 1 at the top knot), and between
  them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import yaml

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import SHIPPED, Tabulated, base_doc, dump, tent_error  # noqa: E402
from royaltycap import cli, mech, sim, verify  # noqa: E402
from royaltycap.config import parse_config  # noqa: E402
from royaltycap.dist import IncomeFamily, make_type_dist  # noqa: E402
from royaltycap.errors import DomainError, RoyaltycapError  # noqa: E402
from royaltycap.instances import (scaled_triangular_agent, scaled_uniform_agent,  # noqa: E402
                                  uniform_additive_agent)

SEED = 0
RUNS = 20_000
# more runs than one chunk holds, so that a report spans several chunks
PLAY_RUNS = 70_000
PLAY_CONFIGS = ("uniform_additive", "mixed_pair")
PROFILES = 40
CROSSING_PAIRS = ((0.6, 0.7), (0.75, 0.8), (0.75, 0.75))
KERNEL_TYPES = 9
SCAN_AXES = {"c": (0.0, 0.1, 0.2, 0.3, 0.4), "phi": (0.25, 0.5, 0.75, 1.0)}
HAZARD_POWERS = (1.0, 1.5, 2.0)
QUANTILES = (0.0, 5e-324, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-12,
             float(np.nextafter(1.0, 0.0)), 1.0)


def _tabulated_variants(tab_income: str) -> dict:
    """The documents of ``tab_income`` at audit cost 0.2 and of the
    rising-gap instance, by name."""
    copy = yaml.safe_load(tab_income)
    copy["name"] = "tab_income_c0.2"
    copy["agents"][0]["audit_cost"] = 0.2
    rising = yaml.safe_load(yaml.safe_dump(copy))
    rising["name"] = "tab_rising_gap"
    rising["agents"][0]["income"] = {"family": "table", "theta_grid": [1.0, 2.0],
                                     "rows": [[[0.0, 2.0], [0.0, 1.0]], [[0.5, 3.5], [0.0, 1.0]]]}
    return {doc["name"]: yaml.safe_dump(doc, sort_keys=False) for doc in (copy, rising)}


def _error_law_variants() -> dict:
    """The documents of the three error-law instances, by name."""
    # a scaled error law must end at or below 1, or G would rise with the
    # type near the top (FOSD fails); the second law's mode is its lower end
    specs = {
        "additive_triangular_error": ({"family": "uniform", "lo": 1.0, "hi": 2.0}, "additive_error",
                                      {"family": "triangular", "lo": -1.0, "mode": -0.5, "hi": 1.5},
                                      0.2, 0.5),
        "scaled_triangular_error": ({"family": "uniform", "lo": 0.5, "hi": 1.0}, "scaled_error",
                                    {"family": "triangular", "lo": -0.5, "mode": -0.5, "hi": 1.0},
                                    0.5, 1.0),
        "scaled_tent_error": ({"family": "uniform", "lo": 0.5, "hi": 1.0},
                              "scaled_error", tent_error(), 0.5, 1.0),
    }
    return {name: dump(base_doc(name, [{
        "type_dist": types, "income": {"family": family, "error": error},
        "audit_cost": c, "sensitivity": phi}], RUNS, SEED))
        for name, (types, family, error, c, phi) in specs.items()}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digests(out: dict, name: str, config: Path, commands, workdir: Path):
    for cmd in commands:
        target = workdir / name / cmd
        extra = ["--runs", str(RUNS)] if cmd in ("simulate", "sweep") else []
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([cmd, "--config", str(config), "--out", str(target),
                             "--seed", str(SEED), *extra])
        out[f"cli/{name}/{cmd}/exit"] = str(code)
        for path in sorted(target.glob("*")):
            out[f"cli/{name}/{cmd}/{path.name}"] = _sha(path.read_bytes())


def _library_digests(out: dict, name: str, text: str):
    inst = parse_config(text).instance
    for i, t in enumerate(mech.tables_for(inst).agents):
        for f in fields(t):
            arr = np.ascontiguousarray(getattr(t, f.name))
            out[f"tables/{name}/{i}/{f.name}"] = _sha(arr.tobytes())
        for scan in (mech._single_crossing_scan, mech._probe_single_crossing):
            out[f"{scan.__name__}/{name}/{i}"] = _sha(scan(inst.agents[i], t.theta).tobytes())
    out[f"payoff_bound/{name}"] = repr(mech.payoff_bound(inst))
    rep = sim.estimate_revenue(inst, None, RUNS, SEED)
    out[f"estimate_revenue/{name}"] = json.dumps(rep.to_dict())


def _distinct_values(out: dict):
    """The three revenue functionals and one report of ``distinct_three``."""
    agents = (uniform_additive_agent(), scaled_uniform_agent(), scaled_triangular_agent())
    inst = mech.AuctionInstance(tuple(replace(a, audit_cost=a.audit_cost * (1 + 0.02 * k))
                                      for k, a in enumerate(agents)))
    for fn in (mech.payoff_bound, mech.myerson_cash_revenue, mech.full_extraction_revenue):
        out[f"{fn.__name__}/distinct_three"] = repr(fn(inst))
    rep = sim.estimate_revenue(inst, None, RUNS, SEED)
    out["estimate_revenue/distinct_three"] = json.dumps(rep.to_dict())


class _AdditiveByHand(IncomeFamily):
    """pi = theta + eps, eps ~ U[-1, 1], through the seven contract methods
    alone: with z = clip(b - theta, -1, 1), G = (z + 1) / 2,
    -G_theta / g = 1, Phi / phi = G and int (1 - G) = (z + 1) - (z + 1)^2 / 4."""

    family = "additive_by_hand"

    def __init__(self):
        super().__init__({})

    def supp_lo(self, theta):
        return np.asarray(theta, dtype=float) - 1.0

    def supp_hi(self, theta):
        return np.asarray(theta, dtype=float) + 1.0

    def cdf(self, pi, theta):
        return np.clip((np.asarray(pi, dtype=float) - theta + 1.0) / 2.0, 0.0, 1.0)

    def pdf(self, pi, theta):
        z = np.asarray(pi, dtype=float) - theta
        return np.where((z >= -1.0) & (z <= 1.0), 0.5, 0.0)

    def g2_over_g(self, pi, theta):
        return np.full(np.broadcast_shapes(np.shape(pi), np.shape(theta)), -1.0)

    def audit_region(self, theta, b):
        z = np.clip(np.asarray(b, dtype=float) - theta, -1.0, 1.0)
        g = (z + 1.0) / 2.0
        return g, g, (z + 1.0) - (z + 1.0) ** 2 / 4.0

    def ppf(self, u, theta):
        return np.asarray(theta, dtype=float) - 1.0 + 2.0 * np.asarray(u, dtype=float)


def _seven_method_values(out: dict):
    """One report of ``uniform_additive`` with ``_AdditiveByHand`` incomes."""
    inst = mech.AuctionInstance((replace(uniform_additive_agent(), income=_AdditiveByHand()),))
    rep = sim.estimate_revenue(inst, None, RUNS, SEED)
    out["estimate_revenue/seven_method_family"] = json.dumps(rep.to_dict())


def _play_digests(out: dict, name: str, inst: mech.AuctionInstance):
    """Reports off truthful play: each agent shades its type report 10% of
    the way down its support, or reports 90% of its income (projected into
    the reported support), or plays truthfully under audits drawn with a
    probability that rises with the reported type."""
    n = inst.n_agents
    shade = tuple((lambda th, lo=a.types.lo: lo + 0.9 * (th - lo)) for a in inst.agents)
    profiles = {
        "type_map": (sim.StrategyProfile(shade, (None,) * n), None),
        "income_map": (sim.StrategyProfile((None,) * n, ((lambda th, tr, pi: 0.9 * pi),) * n),
                       None),
        "audit_prob": (None, lambda th, pi: np.clip(0.25 * th, 0.0, 1.0)),
    }
    for label, (strategies, audit_prob) in profiles.items():
        for workers in (1, 2):
            rep = sim.estimate_revenue(inst, strategies, PLAY_RUNS, SEED, workers, audit_prob)
            out[f"estimate_revenue/{name}/{label}/workers{workers}"] = json.dumps(
                rep.to_dict())


def _values(xs) -> str:
    return " ".join(repr(x) for x in xs)


def _instance_values(out: dict, name: str, inst: mech.AuctionInstance):
    lo = np.array([a.types.lo for a in inst.agents])
    hi = np.array([a.types.hi for a in inst.agents])
    profiles = (lo + (hi - lo) * np.random.default_rng(SEED).random((PROFILES, lo.size))).tolist()
    winners = [mech.allocation(inst, prof) for prof in profiles]
    out[f"api/{name}/allocation"] = _values(w.index(1) if 1 in w else -1 for w in winners)
    out[f"api/{name}/transfer"] = _values(
        mech.transfer(inst, i, prof) for prof in profiles for i in range(inst.n_agents))
    mids = ((lo + hi) / 2).tolist()
    for i, agent in enumerate(inst.agents):
        for at in (0.6, 0.9):
            th = float(lo[i] + at * (hi[i] - lo[i]))
            s_lo, s_hi = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))
            for q in (0.2, 0.8):
                key = f"api/{name}/best_response_income/{i}/{at}/{q}"
                try:
                    rep = verify.best_response_income(inst, i, th, mids[:i] + mids[i + 1:],
                                                      s_lo + q * (s_hi - s_lo))
                    out[key] = json.dumps(rep.to_dict())
                except DomainError:  # the report loses
                    out[key] = "DomainError"


def _best_response_values(out: dict, name: str, text: str):
    cfg = parse_config(text)
    n_types = max(8, cfg.theta_points // 8)   # as CLI verify-ic
    for i, agent in enumerate(cfg.instance.agents):
        thetas = mech._interior_grid(agent.types, n_types)
        responses = verify.best_responses(cfg.instance, i, thetas, cfg.theta_points)
        for strategy in ("truthful_projection", "grid_best"):
            for key in ("truthful_utility", "best_deviation_utility", "advantage"):
                out[f"api/{name}/best_responses/{i}/{strategy}/{key}"] = _values(
                    getattr(r[strategy], key) for r in responses)
        # the income certificate is one value per true type for both strategies
        out[f"api/{name}/best_responses/{i}/income_advantage"] = _values(
            r["grid_best"].income_advantage for r in responses)


def _kink_values(out: dict, name: str, text: str):
    cfg = parse_config(text)
    for i, agent in enumerate(cfg.instance.agents):
        out[f"api/{name}/threshold_kinks/{i}"] = _values(mech._threshold_kinks(agent))
    if cfg.sweep is not None:
        spec = cfg.sweep
        agent = cfg.instance.agents[spec.agent]
        for v in spec.values:
            out[f"api/{name}/threshold_kinks/sweep/{spec.axis}/{v!r}"] = _values(
                mech._threshold_kinks(replace(agent, **{spec.axis: v})))


def _kernel_values(out: dict, name: str, text: str):
    inst = parse_config(text).instance
    mids = [0.5 * (a.types.lo + a.types.hi) for a in inst.agents]
    for i, agent in enumerate(inst.agents):
        thetas = mech._interior_grid(agent.types, KERNEL_TYPES).tolist()
        for fn in (mech.audit_threshold, mech.virtual_value, mech.phi_cap,
                   mech.expected_income_net_royalty):
            out[f"api/{name}/{fn.__name__}/{i}"] = _values(fn(agent, th) for th in thetas)
        values = []
        for th in thetas:
            lo, hi = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))
            cut = lo + 0.4 * (hi - lo)
            values.append(mech.endogenous_virtual(inst, i, mids[:i] + [th] + mids[i + 1:],
                                                  lambda prof, p, cut=cut: float(p < cut)))
        out[f"api/{name}/endogenous_virtual/{i}"] = _values(values)


def _scan_values(out: dict, name: str, inst: mech.AuctionInstance):
    for i, agent in enumerate(inst.agents):
        grid = np.linspace(agent.types.lo, agent.types.hi, 257)
        x = (grid - agent.types.lo) / (agent.types.hi - agent.types.lo)
        axes = {**SCAN_AXES, "hazard_family": [
            make_type_dist("table", {"grid": grid, "cdf": x ** a}) for a in HAZARD_POWERS]}
        for axis, values in axes.items():
            try:
                rep = json.dumps(verify.comparative_statics_scan(agent, axis, values))
            except RoyaltycapError as e:
                rep = f"{type(e).__name__}: {e}"
            out[f"api/{name}/comparative_statics/{i}/{axis}"] = rep


def _quantile_values(out: dict, name: str, text: str):
    agent = parse_config(text).instance.agents[0]
    knots = agent.income.type_knots
    if knots.size:
        thetas = np.union1d(knots, 0.5 * (knots[1:] + knots[:-1]))
    else:
        thetas = np.array([agent.types.lo, 0.5 * (agent.types.lo + agent.types.hi),
                           agent.types.hi])
    for th in thetas.tolist():
        out[f"api/{name}/income_ppf/{th!r}"] = _values(
            agent.income.ppf(np.array(QUANTILES), th).tolist())


def _numbers(entry: str):
    """The numbers of a value entry in order (floats separated by spaces,
    or the numbers of a JSON document), or None for a digest or text."""
    if re.fullmatch(r"[0-9a-f]{64}", entry):
        return None
    try:
        return [float(x) for x in entry.split()]
    except ValueError:
        pass
    try:
        doc = json.loads(entry)
    except ValueError:
        return None
    out, stack = [], [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, dict):
            stack.extend(reversed(list(x.values())))
        elif isinstance(x, list):
            stack.extend(reversed(x))
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.append(float(x))
    return out


def _move(old: str, new: str):
    """The largest absolute move between two value entries' numbers (inf
    where a number turns NaN or infinite), or None unless both are value
    entries with as many numbers."""
    a, b = _numbers(old), _numbers(new)
    if a is None or b is None or len(a) != len(b):
        return None
    moves = [0.0 if x == y or (math.isnan(x) and math.isnan(y)) else abs(x - y)
             for x, y in zip(a, b)]
    return max((m if m == m else math.inf for m in moves), default=0.0)


def compare(old: dict, new: dict) -> list:
    """One line per key whose entry differs between two digest files:
    the key, with the largest move of a value entry or the side a key is
    missing from."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in new or key not in old:
            lines.append(f"{key}: only in {'old' if key in old else 'new'}")
        elif old[key] != new[key]:
            move = _move(old[key], new[key])
            lines.append(key if move is None else f"{key}: largest move {move!r}")
    return lines


def foreign_packages(pythonpath: str) -> list:
    """The entries of ``pythonpath`` that hold a ``royaltycap`` package other
    than this checkout's ``src``."""
    own = (ROOT / "src").resolve()
    return [entry for entry in pythonpath.split(os.pathsep)
            if entry and (Path(entry) / "royaltycap" / "__init__.py").is_file()
            and Path(entry).resolve() != own]


def main(argv=()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="print the keys that changed between two digest files")
    args = parser.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        lines = compare(old, new)
        print(f"{len(lines)} of {len(old.keys() | new.keys())} keys changed", *lines, sep="\n")
        return 0
    foreign = foreign_packages(os.environ.get("PYTHONPATH", ""))
    if foreign:
        print(f"artifact_digest: PYTHONPATH entry {foreign[0]} holds a royaltycap package, "
              f"but this tool digests {ROOT / 'src'}; run that checkout's own tool",
              file=sys.stderr)
        return 2
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for name in SHIPPED:
            config = ROOT / "configs" / f"{name}.yaml"
            text = config.read_text(encoding="utf-8")
            sweep = ("sweep",) if parse_config(text).sweep is not None else ()
            _cli_digests(out, name, config,
                         ("check", "solve", "verify-ic", "menu", "simulate", *sweep), workdir)
            _library_digests(out, name, text)
            _instance_values(out, name, parse_config(text).instance)
            _best_response_values(out, name, text)
            _kink_values(out, name, text)
            _kernel_values(out, name, text)
            _scan_values(out, name, parse_config(text).instance)
            if name in PLAY_CONFIGS:
                _play_digests(out, name, parse_config(text).instance)
        st = ROOT / "configs" / "scaled_triangular.yaml"
        inst = parse_config(st.read_text(encoding="utf-8")).instance
        for pair in CROSSING_PAIRS:
            rep = verify.crossing_point(inst, 0, *pair)
            out[f"api/scaled_triangular/crossing_point/{pair[0]}/{pair[1]}"] = json.dumps(
                rep.to_dict())
        for cfg in Tabulated(ROOT, SEED).configs:
            config = workdir / f"{cfg.name}.yaml"
            config.write_text(cfg.text, encoding="utf-8")
            _cli_digests(out, cfg.name, config, ("check", "solve", "verify-ic"), workdir)
            _library_digests(out, cfg.name, cfg.text)
            _best_response_values(out, cfg.name, cfg.text)
            _kink_values(out, cfg.name, cfg.text)
            _kernel_values(out, cfg.name, cfg.text)
            _quantile_values(out, cfg.name, cfg.text)
            if cfg.name == "tab_income":
                for name, text in _tabulated_variants(cfg.text).items():
                    config = workdir / f"{name}.yaml"
                    config.write_text(text, encoding="utf-8")
                    _cli_digests(out, name, config, ("check",), workdir)
                    if name == "tab_income_c0.2":
                        _library_digests(out, name, text)
        _distinct_values(out)
        _seven_method_values(out)
        for name, text in _error_law_variants().items():
            config = workdir / f"{name}.yaml"
            config.write_text(text, encoding="utf-8")
            _cli_digests(out, name, config, ("check",), workdir)
            _library_digests(out, name, text)
            _kernel_values(out, name, text)
            _quantile_values(out, name, text)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
