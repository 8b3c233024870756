"""Per-layer measurements for traced runs.

Each metric times calls into one public function of one royaltycap module,
from outside, on the workload's own instances, so every workload reports the
same metrics over its own inputs.  Times of calls made once per instance
are summed over the workload's instances.  Throughputs combine the agents
as a harmonic mean: the rate at which the workload would get through an
equal amount of work from each agent.
"""

from __future__ import annotations

import dataclasses
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import yaml

from royaltycap import make_income_family, make_type_dist, mech, sim, verify
from royaltycap.config import parse_config

# A throughput probe grows its batch until one call lasts this long.
RATE_SECONDS = 0.1
REPEATS = 3


def rate(fn) -> float:
    """Items per second of ``fn(n)``; n doubles from 64 until a call lasts
    RATE_SECONDS (or n reaches 2**20)."""
    n = 64
    while True:
        t0 = time.perf_counter()
        fn(n)
        dt = time.perf_counter() - t0
        if dt >= RATE_SECONDS or n >= 1 << 20:
            return n / dt
        n *= 2


def harmonic(rates) -> float:
    return len(rates) / sum(1.0 / r for r in rates)


def import_times(root: Path) -> tuple:
    """(total, scipy share) of ``import royaltycap`` in a fresh interpreter,
    from ``python -X importtime``.  The scipy share sums the self times of
    every scipy module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import royaltycap"],
                          capture_output=True, text=True, env=env, cwd=root, timeout=120,
                          check=True)
    total = scipy = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
        if not m:
            continue
        name = m.group(3)
        if name == "royaltycap":
            total = int(m.group(2))
        if name.split(".")[0] == "scipy":
            scipy += int(m.group(1))
    return total / 1e6, scipy / 1e6


def measure(rec, workload, root: Path) -> dict:
    m: dict = {}
    cfgs = workload.configs
    seed = workload.seed

    op = rec.op("import.importtime", lambda: import_times(root))
    if not op.failed:
        m["import.total_s"], m["import.scipy_s"] = op.value

    def median_time(name, fn, **attrs):
        return statistics.median(rec.op(name, fn, **attrs).seconds for _ in range(REPEATS))

    m["config.parse_config_s"] = sum(
        median_time("config.parse_config", lambda: parse_config(c.text), config=c.name)
        for c in cfgs)

    def build_families(text):
        for spec in yaml.safe_load(text)["agents"]:
            td, inc = dict(spec["type_dist"]), dict(spec["income"])
            make_type_dist(td.pop("family"), td)
            make_income_family(inc.pop("family"), inc)

    m["dist.family_build_s"] = sum(
        median_time("dist.make_families", lambda: build_families(c.text), config=c.name)
        for c in cfgs)

    insts = [(c.name, c.instance()) for c in cfgs]
    agents = [(name, i, a) for name, inst in insts for i, a in enumerate(inst.agents)]
    rng = np.random.default_rng(seed)
    u = rng.random(1 << 20)

    def types_ppf(a):
        return lambda n: a.types.ppf(u[:n])

    def income_ppf(a):
        th = np.asarray(a.types.ppf(u), dtype=float)
        return lambda n: a.income.ppf(u[::-1][:n], th[:n])

    def cdf_scalar(a):
        z = a.types.lo + (a.types.hi - a.types.lo) * u
        return lambda n: [float(a.types.cdf(float(x))) for x in z[:n]]

    for key, probe, label in (("dist.types_ppf_per_s", types_ppf, "dist.types_ppf"),
                              ("dist.income_ppf_per_s", income_ppf, "dist.income_ppf"),
                              ("dist.types_cdf_scalar_per_s", cdf_scalar,
                               "dist.types_cdf_scalar")):
        rates = []
        for name, i, a in agents:
            op = rec.op(label, lambda: rate(probe(a)), config=name, agent=i)
            if not op.failed:
                rates.append(op.value)
        m[key] = harmonic(rates)

    # table builds on fresh instances; the id-keyed cache pins every build
    m["mech.tables_build_s"] = 0.0
    tables = {}
    for name, inst in insts:
        op = rec.op("mech.tables_for", lambda: mech.tables_for(inst), config=name)
        m["mech.tables_build_s"] += op.seconds
        tables[name] = op.value
    pinned = [sum(getattr(t, f.name).nbytes for f in dataclasses.fields(t))
              for tb in tables.values() if tb is not None for t in tb.agents]
    m["mech.tables_mb_per_agent"] = statistics.mean(pinned) / 2**20

    def lookups(t, i, a):
        th = np.asarray(a.types.ppf(u), dtype=float)
        rival = np.zeros_like(th)

        def run(n):
            t.psi(i, th[:n])
            t.pi_star(i, th[:n])
            t.transfer_win(i, th[:n], rival[:n])
        return run

    rates = []
    for name, i, a in agents:
        if tables.get(name) is None:
            continue
        op = rec.op("mech.tables_lookup", lambda: 3 * rate(lookups(tables[name], i, a)),
                    config=name, agent=i)
        if not op.failed:
            rates.append(op.value)
    m["mech.tables_lookup_per_s"] = harmonic(rates)

    # scalar mechanism kernels on fresh instances, at 70% of each type range
    fresh = [(c.name, c.instance()) for c in cfgs]

    def at(a, q):
        return a.types.lo + q * (a.types.hi - a.types.lo)

    def mids(inst, skip):
        return [at(b, 0.5) for j, b in enumerate(inst.agents) if j != skip]

    for key, fn in (("mech.virtual_value_s", mech.virtual_value),
                    ("mech.audit_threshold_s", mech.audit_threshold)):
        m[key] = sum(rec.op(key[:-2], lambda: fn(a, at(a, 0.7)), config=name, agent=i).seconds
                     for name, inst in fresh for i, a in enumerate(inst.agents))
    m["mech.transfer_s"] = sum(
        rec.op("mech.transfer",
               lambda: mech.transfer(inst, 0, [at(inst.agents[0], 0.7)] + mids(inst, 0)),
               config=name).seconds
        for name, inst in fresh)
    for key, fn in (("mech.myerson_cash_revenue_s", mech.myerson_cash_revenue),
                    ("mech.full_extraction_revenue_s", mech.full_extraction_revenue)):
        m[key] = sum(rec.op(key[:-2], lambda: fn(inst), config=name).seconds
                     for name, inst in fresh)

    grids = {c.name: parse_config(c.text) for c in cfgs}
    m["verify.check_regularity_s"] = sum(
        rec.op("verify.check_regularity",
               lambda: verify.check_regularity(a, grids[name].theta_points,
                                               grids[name].pi_points),
               config=name, agent=i).seconds
        for name, inst in fresh for i, a in enumerate(inst.agents))
    # best_response_type reads the tables built above
    m["verify.best_response_type_s"] = sum(
        rec.op("verify.best_response_type",
               lambda: verify.best_response_type(inst, 0, at(inst.agents[0], 0.5),
                                                 grids[name].theta_points, "grid_best",
                                                 grids[name].pi_points),
               config=name).seconds
        for name, inst in insts)

    def income_deviation(name, inst):
        a = inst.agents[0]
        th = at(a, 0.7)
        pi = 0.5 * (float(a.income.supp_lo(th)) + float(a.income.supp_hi(th)))
        return verify.best_response_income(inst, 0, th, mids(inst, 0), pi,
                                           grids[name].pi_points)

    m["verify.best_response_income_s"] = sum(
        rec.op("verify.best_response_income", lambda: income_deviation(name, inst),
               config=name).seconds
        for name, inst in insts)

    # Monte Carlo at its 1000-run minimum, on instances whose tables are built
    m["sim.estimate_revenue_s"] = sum(
        rec.op("sim.estimate_revenue", lambda: sim.estimate_revenue(inst, None, 1000, seed),
               config=name, workers=1).seconds
        for name, inst in insts)
    name, inst = insts[0]
    serial = median_time("sim.estimate_revenue",
                         lambda: sim.estimate_revenue(inst, None, 1000, seed),
                         config=name, workers=1)
    pooled = median_time("sim.estimate_revenue",
                         lambda: sim.estimate_revenue(inst, None, 1000, seed, 2),
                         config=name, workers=2)
    m["sim.pool_startup_s"] = pooled - serial
    return m
