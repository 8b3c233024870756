"""The benchmark's workloads: simulate, certify and tabulated.

Each workload is one closed loop: a single caller makes one call at a time
into royaltycap's public entry points and waits for it.  CLI subcommands run
in-process through ``royaltycap.cli.main`` and write into the run directory.
Every call that analyses an instance gets fresh instance objects, so the
id-keyed kink and table caches miss exactly as they do in a CLI call.

``setup()`` is what the ``setup_s`` metric times: building the workload's
instances from their YAML text and the first instance's MechanismTables.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import yaml

from royaltycap import cli, mech, sim, verify
from royaltycap.config import parse_config

SHIPPED = ("uniform_additive", "scaled_uniform", "scaled_triangular", "mixed_pair")
# Monte Carlo estimates must lie within this many standard errors of payoff_bound.
Z_MAX = 4.0
CLOSED_FORM_TOL = 1e-8


class Config:
    """A YAML config the workload hands to the CLI, by name."""

    def __init__(self, name: str, text: str, path: Path | None = None):
        self.name, self.text, self.path = name, text, path

    def instance(self):
        """Fresh instance objects, as a CLI call would build them."""
        return parse_config(self.text).instance

    def params(self) -> dict:
        cfg = parse_config(self.text)
        out = {"n_runs": cfg.n_runs, "theta_points": cfg.theta_points,
               "pi_points": cfg.pi_points}
        if cfg.sweep is not None:
            out["sweep"] = {"axis": cfg.sweep.axis, "agent": cfg.sweep.agent,
                            "values": list(cfg.sweep.values)}
        return out


# ---------------------------------------------------------------------------
# Closed forms of the shipped instances (restated from the paper's examples)
# ---------------------------------------------------------------------------


def ua_psi(theta, c=0.2, phi=0.5):
    """uniform_additive virtual value: 2 theta - 2 + ((2 - theta) phi - c)_+."""
    return 2 * theta - 2 + max((2 - theta) * phi - c, 0.0)


def su_psi(theta, c=0.5, phi=1.0):
    """scaled_uniform virtual value:
    2 theta - 1 + ((2 phi (1 - theta) - c)_+)^2 / (4 phi (1 - theta))."""
    if theta >= 1.0:
        return 2 * theta - 1
    return 2 * theta - 1 + max(2 * phi * (1 - theta) - c, 0.0) ** 2 / (4 * phi * (1 - theta))


def st_pi_star(theta, c=0.5, phi=1.0):
    """scaled_triangular audit threshold: 1 - c (2 theta - 1) / (phi theta),
    or zero once that falls below the income support's lower end 2 theta - 1."""
    if theta <= 0.5:
        return 1.0
    crossing = 1 - c * (2 * theta - 1) / (phi * theta)
    if crossing < 2 * theta - 1:
        return 0.0
    return min(1.0, crossing)


# config name -> (agent, solve column, closed form)
SOLVE_CLOSED_FORMS = {
    "uniform_additive": [(0, "psi", ua_psi)],
    "scaled_uniform": [(0, "psi", su_psi)],
    "scaled_triangular": [(0, "pi_star", st_pi_star)],
    "mixed_pair": [(0, "psi", ua_psi), (1, "psi", su_psi)],
}


# ---------------------------------------------------------------------------
# Calls shared by the workloads
# ---------------------------------------------------------------------------


def run_cli(rec, sub: str, cfg: Config, out: Path, seed: int, *extra):
    argv = [sub, "--config", str(cfg.path), "--out", str(out), "--seed", str(seed), *extra]
    op = rec.op(f"cli.{sub}", lambda: cli.main(argv), config=cfg.name)
    if not op.failed and op.value != 0:
        rec.fail(op, f"{sub} on {cfg.name} exited {op.value}")
    return op


def timed_checks(rec, configs, out: Path, seed: int, m: dict) -> float:
    """CLI check on every config.  Every instance in the benchmark is
    regular, so each check must exit 0."""
    total = 0.0
    for cfg in configs:
        m[f"cli.check_s.{cfg.name}"] = run_cli(rec, "check", cfg, out, seed).seconds
        total += m[f"cli.check_s.{cfg.name}"]
    return total


def check_mc(rec, op, mean: float, se: float, bound: float, label: str):
    z = (mean - bound) / se if se > 0 else math.inf
    rec.check(op, abs(z) <= Z_MAX,
              f"{label}: Monte Carlo {mean:.8g} is {z:.2f} standard errors from "
              f"payoff_bound {bound:.8g}")


def dump(doc: dict) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


def base_doc(name: str, agents: list, n_runs: int, seed: int) -> dict:
    return {"v": 1, "name": name, "agents": agents,
            "grids": {"theta_points": 128, "pi_points": 128},
            "simulation": {"n_runs": n_runs, "seed": seed},
            "output": {"directory": "out", "formats": ["csv", "json"]}}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.configs = self.make_configs()

    def make_configs(self) -> list:
        raise NotImplementedError

    def shipped(self) -> list:
        paths = [self.root / "configs" / f"{n}.yaml" for n in SHIPPED]
        return [Config(n, p.read_text(encoding="utf-8"), p) for n, p in zip(SHIPPED, paths)]

    def setup(self):
        self.instances = [c.instance() for c in self.configs]
        mech.tables_for(self.instances[0])

    def prepare(self, rec, rundir: Path) -> dict:
        """Untimed preparation: write generated configs, then warm up the
        CLI path with one check on the first config.  Returns metrics that
        are measured once per run rather than per iteration."""
        for cfg in self.configs:
            if cfg.path is None:
                cfg.path = rundir / f"{cfg.name}.yaml"
                cfg.path.write_text(cfg.text, encoding="utf-8")
        run_cli(rec, "check", self.configs[0], rundir / "warmup", self.seed)
        return {}

    def iteration(self, rec, rundir: Path) -> dict:
        raise NotImplementedError

    def params(self) -> dict:
        return {c.name: c.params() for c in self.configs}

    def config(self, name: str) -> Config:
        return next(c for c in self.configs if c.name == name)


class Simulate(Workload):
    name = "simulate"
    N_RUNS = 1 << 17

    def make_configs(self):
        return self.shipped()

    def prepare(self, rec, rundir):
        """Also builds every instance's tables, warms both worker counts up,
        and makes the CLI ``simulate`` pass: ``--workers 1`` on every config,
        then ``--workers 2`` and ``--workers 1`` again on the first.  The CLI
        pass runs once per run, so the timed iterations are Monte Carlo only."""
        super().prepare(rec, rundir)
        for cfg, inst in zip(self.configs, self.instances):
            rec.op("mech.tables_build", lambda: mech.tables_for(inst), config=cfg.name)
        # The first worker pool of a process is slower than later ones; these
        # runs warm it up and are the references for the repeat checks.
        self.ref = {}
        for cfg, inst in zip(self.configs, self.instances):
            for workers in (1, 2):
                op = rec.op("sim.estimate_revenue",
                            lambda: sim.estimate_revenue(inst, None, self.N_RUNS, self.seed,
                                                         workers),
                            config=cfg.name, workers=workers)
                if op.failed:
                    continue
                ref = self.ref.setdefault(cfg.name, op.value)
                rec.check(op, op.value == ref,
                          f"estimate_revenue on {cfg.name}: workers=2 differs from workers=1")
        m: dict = {"simulate_s": 0.0}
        self.bounds = {}
        out = {}
        for cfg in self.configs:
            op = run_cli(rec, "simulate", cfg, rundir / cfg.name, self.seed)
            m[f"cli.simulate_s.{cfg.name}"] = op.seconds
            m["simulate_s"] += op.seconds
            if op.failed:
                continue
            out[cfg.name] = (rundir / cfg.name / "simulate.json").read_bytes()
            doc = json.loads(out[cfg.name])
            self.bounds[cfg.name] = doc["analytic"]["payoff_bound"]
            check_mc(rec, op, doc["report"]["revenue_net_audits"],
                     doc["report"]["revenue_se"], self.bounds[cfg.name],
                     f"CLI simulate on {cfg.name}")
        # Every iteration compares estimate_revenue across worker counts on
        # every config; the CLI JSON is compared on the first config only,
        # which keeps a run within the benchmark's time budget.
        first = self.configs[0]
        w2 = run_cli(rec, "simulate", first, rundir / "w2", self.seed, "--workers", "2")
        m[f"cli.simulate_w2_s.{first.name}"] = w2.seconds
        repeat = run_cli(rec, "simulate", first, rundir / "repeat", self.seed)
        for op, label in ((w2, "w2"), (repeat, "repeat")):
            if not op.failed and first.name in out:
                rec.check(op, (rundir / label / "simulate.json").read_bytes() == out[first.name],
                          f"simulate JSON on {first.name} differs between the first run and "
                          f"the {label} run of the same seed")
        return m

    def iteration(self, rec, rundir):
        m: dict = {}
        for workers, key in ((1, "sim_runs_per_s"), (2, "sim_runs_per_s_2w")):
            total = 0.0
            for cfg, inst in zip(self.configs, self.instances):
                op = rec.op("sim.estimate_revenue",
                            lambda: sim.estimate_revenue(inst, None, self.N_RUNS, self.seed,
                                                         workers),
                            config=cfg.name, workers=workers)
                total += op.seconds
                if op.failed:
                    continue
                rec.check(op, op.value == self.ref.get(cfg.name),
                          f"estimate_revenue on {cfg.name} with workers={workers} differs "
                          "from the reference run of the same seed")
                if cfg.name in self.bounds:
                    check_mc(rec, op, op.value.revenue_net_audits, op.value.revenue_se,
                             self.bounds[cfg.name], f"estimate_revenue on {cfg.name}")
            m[key] = len(self.configs) * self.N_RUNS / total
        m["check_s"] = timed_checks(rec, self.configs, rundir / "check", self.seed, m)
        return m

    def params(self):
        out = super().params()
        out["estimate_revenue"] = {"n_runs": self.N_RUNS, "workers": [1, 2]}
        return out


class Certify(Workload):
    name = "certify"
    CROSSING_PAIR = (0.6, 0.7)

    def make_configs(self):
        return self.shipped()

    def iteration(self, rec, rundir):
        m: dict = {}
        m["check_s"] = timed_checks(rec, self.configs, rundir / "check", self.seed, m)
        for sub, key in (("solve", "solve_s"), ("verify-ic", "verify_ic_s")):
            m[key] = 0.0
            for cfg in self.configs:
                op = run_cli(rec, sub, cfg, rundir / sub, self.seed)
                m[f"cli.{sub.replace('-', '_')}_s.{cfg.name}"] = op.seconds
                m[key] += op.seconds
                if sub == "solve" and not op.failed:
                    self.check_solve(rec, op, cfg, rundir / sub / "solve.json")
        ua = self.config("uniform_additive")
        op = run_cli(rec, "menu", ua, rundir / "menu", self.seed)
        m[f"cli.menu_s.{ua.name}"] = op.seconds
        if not op.failed:
            doc = json.loads((rundir / "menu" / "menu.json").read_text(encoding="utf-8"))
            rec.check(op, math.isfinite(doc["lump_sum"]) and doc["lump_sum"] > 0,
                      f"menu lump sum is {doc['lump_sum']}")
        st = self.config("scaled_triangular")
        inst = st.instance()
        op = rec.op("verify.crossing_point",
                    lambda: verify.crossing_point(inst, 0, *self.CROSSING_PAIR),
                    config=st.name)
        m["verify.crossing_point_s"] = op.seconds
        if not op.failed:
            rec.check(op, op.value.lower_ok and op.value.upper_ok,
                      f"crossing_point on {st.name}: {op.value.to_dict()}")
        return m

    @staticmethod
    def check_solve(rec, op, cfg, path: Path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        cols = doc["columns"]
        worst = 0.0
        for agent, col, form in SOLVE_CLOSED_FORMS[cfg.name]:
            k = cols.index(col)
            for row in doc["rows"]:
                if row[0] == agent:
                    worst = max(worst, abs(row[k] - form(row[1])))
        rec.check(op, worst <= CLOSED_FORM_TOL,
                  f"solve on {cfg.name} is {worst:.3g} from the closed forms")

    def params(self):
        out = super().params()
        out["crossing_point"] = {"config": "scaled_triangular", "pair": list(self.CROSSING_PAIR)}
        return out


def tent_error() -> dict:
    """Triangular error law on [-1, 1] with mode 0, tabulated on 11 knots."""
    g = np.linspace(-1.0, 1.0, 11)
    cdf = np.where(g < 0, 0.5 * (g + 1) ** 2, 1 - 0.5 * (1 - g) ** 2)
    return {"family": "table", "grid": [float(x) for x in g], "cdf": [float(x) for x in cdf]}


def additive_rows(knots, points: int = 41) -> list:
    """Rows of a TableIncomeFamily copying the additive family theta + U[-1, 1]."""
    rows = []
    for t in knots:
        g = np.linspace(t - 1.0, t + 1.0, points)
        rows.append([[float(x) for x in g], [float(x) for x in (g - (t - 1.0)) / 2.0]])
    return rows


class Tabulated(Workload):
    name = "tabulated"
    TAB_INCOME_RUNS = 1000
    # psi = 1.5 theta - 1 on U[1, 2] by construction, so payoff_bound is
    # int_1^2 (1.5 theta - 1) d theta = 1.25.
    TAB_INCOME_BOUND = 1.25

    def make_configs(self):
        types = {"family": "uniform", "lo": 1.0, "hi": 2.0}
        err = base_doc("tab_error", [{
            "type_dist": types,
            "income": {"family": "additive_error", "error": tent_error()},
            "audit_cost": 0.2, "sensitivity": 0.5}], 100_000, self.seed)
        inc = base_doc("tab_income", [{
            "type_dist": types,
            "income": {"family": "table", "theta_grid": [1.0, 1.4, 2.0],
                       "rows": additive_rows([1.0, 1.4, 2.0])},
            "audit_cost": 0.0, "sensitivity": 0.5}], self.TAB_INCOME_RUNS, self.seed)
        return [Config("tab_error", dump(err)), Config("tab_income", dump(inc))]

    def iteration(self, rec, rundir):
        m: dict = {}
        tab_error, tab_income = self.configs
        m["check_s"] = timed_checks(rec, self.configs, rundir / "check", self.seed, m)
        # payoff_bound on tab_error runs inside CLI simulate below (12-16 s on
        # a 2-core VM); a second, standalone call would not fit the time budget.
        inst = tab_income.instance()
        pb = rec.op("mech.payoff_bound", lambda: mech.payoff_bound(inst), config=tab_income.name)
        m["payoff_bound_s"] = pb.seconds
        if not pb.failed:
            rec.check(pb, abs(pb.value - self.TAB_INCOME_BOUND) <= CLOSED_FORM_TOL,
                      f"payoff_bound on tab_income is {pb.value!r}, expected "
                      f"{self.TAB_INCOME_BOUND} from construction")
        op = run_cli(rec, "simulate", tab_error, rundir / "simulate", self.seed)
        m["simulate_s"] = op.seconds
        if not op.failed:
            doc = json.loads((rundir / "simulate" / "simulate.json").read_text(encoding="utf-8"))
            check_mc(rec, op, doc["report"]["revenue_net_audits"], doc["report"]["revenue_se"],
                     doc["analytic"]["payoff_bound"], "CLI simulate on tab_error")
        inst = tab_income.instance()
        op = rec.op("mech.tables_build", lambda: mech.tables_for(inst), config=tab_income.name)
        m["mech.tables_build_s.tab_income"] = op.seconds
        op = rec.op("sim.estimate_revenue",
                    lambda: sim.estimate_revenue(inst, None, self.TAB_INCOME_RUNS, self.seed),
                    config=tab_income.name, workers=1)
        m["sim_runs_per_s"] = self.TAB_INCOME_RUNS / op.seconds
        if not op.failed:
            check_mc(rec, op, op.value.revenue_net_audits, op.value.revenue_se,
                     self.TAB_INCOME_BOUND, "estimate_revenue on tab_income")
        return m


WORKLOADS = {w.name: w for w in (Simulate, Certify, Tabulated)}
