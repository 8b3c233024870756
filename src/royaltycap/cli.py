"""Command-line interface.

Subcommands:

* ``check``      -- regularity verification; exit 1 on any violation.
* ``solve``      -- tabulate psi_m, psi, pi_star, Phi and the interim
                    transfer on a type grid, to CSV + JSON.
* ``simulate``   -- Monte Carlo revenue estimate under truthful play.
* ``verify-ic``  -- best-response grid certification of incentive
                    compatibility (type deviations, alone and with the
                    cheapest income report, income deviations at every
                    income, participation); it only echoes the seed.
* ``sweep``      -- parameter sweep with analytic benchmark columns.
* ``menu``       -- the one-buyer posted menu (lump sum / linear royalty).

Every subcommand takes ``--config <path>`` (required), ``--out <dir>`` and
``--seed <n>``; ``check``, ``solve`` and ``verify-ic`` also ``--grid <n>``,
``simulate`` and ``sweep`` also ``--runs <n>``, and ``simulate`` a
``--workers <n>`` that is checked and ignored.  The ``ROYALTYCAP_OUT``
environment variable overrides the configured output directory; ``--out``
overrides both.  Exit codes: 0 success, 1 verification failure, 2
usage/config error (an unread flag too).

CSV cells carry 6 significant digits; the JSON twin of each table carries
full-precision values plus the normalized settings the command ran with
(flags in place of config values) and the seed, so a (config, seed,
subcommand) triple reproduces byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import mech, sim, verify
from .config import InstanceConfig, parse_config
from .errors import ConfigError, RoyaltycapError, UnsupportedInstanceError

_IC_TOL = 1e-6


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.6g}" if isinstance(v, float) else v for v in row])


def _emit(cfg: InstanceConfig, out_dir: Path, stem: str, command: str,
          header=None, rows=None, extra: dict | None = None):
    """Write <stem>.csv (if tabular and requested) and <stem>.json."""
    if header is not None and "csv" in cfg.formats:
        _write_csv(out_dir / f"{stem}.csv", header, rows)
    if "json" in cfg.formats:
        payload = {
            "command": command,
            "settings": cfg.normalized,
            "seed": cfg.seed,
        }
        if header is not None:
            payload["columns"] = list(header)
            payload["rows"] = [list(r) for r in rows]
        if extra:
            payload.update(extra)
        _write_json(out_dir / f"{stem}.json", payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_check(cfg: InstanceConfig, out_dir: Path) -> int:
    reports = [verify.check_regularity(a, cfg.theta_points, cfg.pi_points)
               for a in cfg.instance.agents]
    ok = all(r.all_ok for r in reports)
    _emit(cfg, out_dir, "check", "check",
          extra={"agents": [r.to_dict() for r in reports], "all_ok": ok})
    return 0 if ok else 1


def _cmd_solve(cfg: InstanceConfig, out_dir: Path) -> int:
    inst = cfg.instance
    tables = mech.tables_for(inst)
    header = ["agent", "theta", "psi_m", "psi", "pi_star", "phi_cap", "transfer"]
    rows = []
    for i, agent in enumerate(inst.agents):
        ths = mech._interior_grid(agent.types, cfg.theta_points)
        at, t = tables.locate(i, ths), tables.agents[i]
        cols = [at.interp(c) for c in (t.psi_m, t.psi, t.pi_star, t.phi_cap, t.interim_transfer)]
        rows.extend([i, *vals] for vals in zip(ths.tolist(), *(c.tolist() for c in cols)))
    _emit(cfg, out_dir, "solve", "solve", header=header, rows=rows)
    return 0


def _cmd_simulate(cfg: InstanceConfig, out_dir: Path) -> int:
    rep = sim.estimate_revenue(cfg.instance, None, cfg.n_runs, cfg.seed)
    d = rep.to_dict()
    header = ["n_runs", "seed", "revenue_net_audits", "revenue_se",
              "audit_frequency", "mean_on_path_penalty"]
    row = [[d[k] for k in header]]
    _emit(cfg, out_dir, "simulate", "simulate", header=header, rows=row,
          extra={"report": d, "analytic": sim._benchmarks(cfg.instance)})
    return 0


def _cmd_verify_ic(cfg: InstanceConfig, out_dir: Path) -> int:
    inst = cfg.instance
    n_types = max(8, cfg.theta_points // 8)
    agents_out = []
    ok = True
    for i, agent in enumerate(inst.agents):
        thetas = mech._interior_grid(agent.types, n_types)
        responses = verify.best_responses(inst, i, thetas, cfg.theta_points)
        rows = [(r, th, strategy) for th, by_strategy in zip(thetas.tolist(), responses)
                for strategy, r in by_strategy.items()]
        r, th, strategy = max(rows, key=lambda row: row[0].advantage)   # the first worst
        worst = {"advantage": r.advantage, "theta": th, "strategy": strategy}
        ir_ok = all(row[0].ir_ok for row in rows)
        income_worst = max(0.0, *(row[0].income_advantage for row in rows))
        agent_ok = worst["advantage"] <= _IC_TOL and income_worst <= 1e-9 and ir_ok
        ok = ok and agent_ok
        agents_out.append({"agent": i, "type_deviation": worst,
                           "income_deviation_worst": income_worst,
                           "ir_ok": ir_ok, "ok": agent_ok})
    _emit(cfg, out_dir, "verify_ic", "verify-ic",
          extra={"tolerance": _IC_TOL, "agents": agents_out, "all_ok": ok})
    return 0 if ok else 1


def _cmd_sweep(cfg: InstanceConfig, out_dir: Path) -> int:
    if cfg.sweep is None:
        raise ConfigError("sweep", "the sweep subcommand needs a sweep section")
    spec = cfg.sweep

    def builder(v):
        agents = list(cfg.instance.agents)
        agents[spec.agent] = replace(agents[spec.agent], **{spec.axis: float(v)})
        return mech.AuctionInstance(tuple(agents))

    rows = sim.sweep(builder, spec.values, cfg.n_runs, cfg.seed)
    header = ["value", "revenue_net_audits", "revenue_se", "payoff_bound",
              "myerson_cash_revenue", "full_extraction_revenue", "mean_pi_star",
              "audit_frequency", "failed"]
    table = [[row.get(k, "") if not isinstance(row.get(k), bool)
              else int(row[k]) for k in header] for row in rows]
    _emit(cfg, out_dir, "sweep", "sweep", header=header, rows=table,
          extra={"axis": spec.axis, "agent": spec.agent, "rows_full": rows})
    return 0


def _cmd_menu(cfg: InstanceConfig, out_dir: Path) -> int:
    if cfg.instance.n_agents != 1:
        raise UnsupportedInstanceError("menus are defined for single-agent instances")
    agent = cfg.instance.agents[0]
    contracts, (theta_star, theta_0) = mech._binary_menu(agent)
    lump = next(c for c in contracts if c.kind == "lump_sum")
    roy = next((c for c in contracts if c.kind == "linear_royalty"), None)
    _emit(cfg, out_dir, "menu", "menu", extra={
        "lump_sum": lump.upfront_price,
        "royalty_contract": None if roy is None else roy.upfront_price,
        "royalty_rate": None if roy is None else roy.royalty_rate,
        "theta_star": theta_star,
        "theta_0": theta_0,
    })
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


# subcommand: handler, help, and the flags it takes besides --config, --out
# and --seed
_COMMANDS = {
    "check": (_cmd_check, "verify regularity of the configured instance", ("--grid",)),
    "solve": (_cmd_solve, "tabulate the mechanism on a type grid", ("--grid",)),
    "simulate": (_cmd_simulate, "Monte Carlo revenue estimate under truthful play",
                 ("--runs", "--workers")),
    "verify-ic": (_cmd_verify_ic, "grid-certify incentive compatibility", ("--grid",)),
    "sweep": (_cmd_sweep, "parameter sweep with benchmark columns", ("--runs",)),
    "menu": (_cmd_menu, "single-buyer posted menu", ()),
}
_FLAGS = {
    "--grid": {"type": int, "help": "override both grid sizes"},
    "--runs": {"type": int, "help": "override the configured n_runs"},
    "--workers": {"type": int, "default": 1,
                  "help": "ignored: the simulation runs in one thread"},
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: argparse sizes a
    help formatter to the terminal for every argument it adds, and parsing
    leaves the parser as it was."""
    p = argparse.ArgumentParser(
        prog="royaltycap",
        description="Royalty-cap auctions with costly income verification: "
                    "solve, verify, and simulate.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, help_, flags) in _COMMANDS.items():
        q = sub.add_parser(name, help=help_)
        q.add_argument("--config", required=True, help="path to the YAML config")
        q.add_argument("--out", help="output directory (overrides env and config)")
        q.add_argument("--seed", type=int, help="override the configured seed")
        for flag in flags:
            q.add_argument(flag, **_FLAGS[flag])
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    run = _COMMANDS[args.command][0]
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        # parse_config bounds the configured values, so these check the flags
        grid, runs = getattr(args, "grid", None), getattr(args, "runs", None)
        if grid is not None and grid < 8:
            raise ConfigError("--grid", "must be at least 8")
        if args.seed is not None and args.seed < 0:
            raise ConfigError("--seed", "must be nonnegative")
        if args.seed is not None and args.seed >= sim._SEED_BOUND:
            raise ConfigError("--seed", "must be below 2**128 (a Philox key)")
        if getattr(args, "workers", 1) < 1:
            raise ConfigError("--workers", "must be at least 1")
        if runs is not None and runs < sim._MIN_RUNS:
            raise ConfigError("--runs", f"must be at least {sim._MIN_RUNS}")
        flagged = {"theta_points": grid, "pi_points": grid, "seed": args.seed, "n_runs": runs}
        cfg = replace(cfg, **{k: v for k, v in flagged.items() if v is not None})
        # grid floors of the library calls behind check and verify-ic (which
        # reads no income grid)
        floor = {"check": verify._MIN_REGULARITY_GRID,
                 "verify-ic": verify._MIN_RESPONSE_GRID}.get(args.command, 0)
        keys = ("theta_points",) if args.command == "verify-ic" else ("theta_points", "pi_points")
        for key in keys:
            if getattr(cfg, key) < floor:
                raise ConfigError("--grid" if grid is not None else f"grids.{key}",
                                  f"must be at least {floor} for {args.command}")
        out_dir = Path(args.out or os.environ.get("ROYALTYCAP_OUT") or cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        return run(cfg, out_dir)
    except (ConfigError, UnsupportedInstanceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RoyaltycapError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
