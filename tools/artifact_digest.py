"""Print sha256 digests of every deterministic artifact, as one JSON object.

Run from the repository root:

    PYTHONPATH=src python3 tools/artifact_digest.py > digest.json

Run it on two checkouts and compare the outputs (``diff`` of the two files)
to see which artifacts a change moves.  The digests cover:

* the CLI ``check``, ``solve``, ``verify-ic``, ``menu`` and ``simulate``
  (20,000 runs) artifacts of the shipped configs in ``configs/``, the CLI
  ``sweep`` (20,000 runs per row) of those with a ``sweep`` section, and
  each call's exit code;
* the CLI ``check``, ``solve`` and ``verify-ic`` artifacts of the
  benchmark's tabulated instances ``tab_error`` and ``tab_income``, from the
  documents that ``perfbench/workloads.py`` builds (``verify-ic`` there
  takes the kinked families' piecewise income law, one true type per
  row);
* per instance, every ``AgentTables`` array, each agent's single-crossing
  scan ``mech._single_crossing_scan`` on its table grid (0.0 unprobed on
  the closed-form families) and the probes ``mech._probe_single_crossing``
  there, ``payoff_bound`` and one ``estimate_revenue`` report (20,000 runs,
  seed 0);
* on ``uniform_additive`` and ``mixed_pair``, ``estimate_revenue`` reports
  off truthful play (70,000 runs, seed 0, workers 1 and 2, so that two
  threads split the runs into uneven chunks): under a type-report map,
  under an income-report map, and under a probabilistic audit rule
  ``audit_prob``.

It also prints, as values rather than digests, the outputs of the API that
takes an instance, so that a change shows how far each one moves:

* per shipped config, ``allocation`` and every agent's ``transfer`` on 40
  profiles of independent uniform draws over the type supports (seed 0),
  and ``best_response_income`` of each agent at the types 0.6 and 0.9 of
  the way up its support, rivals at their midpoint types, for incomes 0.2
  and 0.8 of the way up the reported income support;
* ``crossing_point`` of ``scaled_triangular`` at the report pairs
  (0.6, 0.7), (0.75, 0.8) and (0.75, 0.75);
* per shipped config and tabulated instance, each agent's
  ``best_responses`` at the true types CLI ``verify-ic`` certifies (16
  interior types, the config's type grid): per income strategy, the truthful
  utility, the best-deviation utility and the advantage at every type, and
  the largest income-report gain (``income_advantage``) at every type;
* the regime-change types ``mech._threshold_kinks`` (the table grid's
  breakpoints) of every agent of the shipped configs and tabulated
  instances, and of the swept agent at each value of a ``sweep`` section;
* per agent of the shipped configs and tabulated instances, the kernel
  entry points ``audit_threshold``, ``virtual_value``, ``phi_cap`` and
  ``expected_income_net_royalty`` at 9 interior types, and
  ``endogenous_virtual`` at those types (rivals at their midpoint types)
  under a threshold audit rule: audit below 0.4 of the way up the income
  support.  With the kinks, ``crossing_point`` and ``menu``, these reach
  every call of the bisection ``dist._bisect``;
* per tabulated instance, its income law's quantiles ``ppf(u, theta)`` at
  u = 0, 1 and interior values, including both sides of 0 and 1 by one
  float: on ``tab_error`` (a ``table`` error law, inverted on its dense
  table) at the type support's ends and midpoint, and on ``tab_income`` (a
  ``TableIncomeFamily``, inverted cell by cell) at its type knots, where
  the weight on the next row is 0 (or 1 at the top knot), and between
  them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import SHIPPED, Tabulated  # noqa: E402
from royaltycap import cli, mech, sim, verify  # noqa: E402
from royaltycap.config import parse_config  # noqa: E402
from royaltycap.errors import DomainError  # noqa: E402

SEED = 0
RUNS = 20_000
# more runs than one chunk holds, so that workers=2 starts two threads
PLAY_RUNS = 70_000
PLAY_CONFIGS = ("uniform_additive", "mixed_pair")
PROFILES = 40
CROSSING_PAIRS = ((0.6, 0.7), (0.75, 0.8), (0.75, 0.75))
KERNEL_TYPES = 9
QUANTILES = (0.0, 5e-324, 1e-12, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-12,
             float(np.nextafter(1.0, 0.0)), 1.0)


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
    out[f"estimate_revenue/{name}"] = _sha(json.dumps(rep.to_dict()).encode())


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
            out[f"estimate_revenue/{name}/{label}/workers{workers}"] = _sha(
                json.dumps(rep.to_dict()).encode())


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


def main() -> int:
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
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
