"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py``).

Monte Carlo criteria run at one million rounds and compare against analytic
values within three standard errors; analytic criteria use closed forms at
1e-8.  Timed criteria assert their wall-clock budgets.
"""

import json
import time
from dataclasses import replace

import numpy as np
from scipy.integrate import quad

import oracles
import royaltycap as rc
from conftest import su_psi
from royaltycap.cli import main
from royaltycap.instances import scaled_uniform_agent, uniform_additive_agent

N_RUNS = 1_000_000


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_scaled_family_golden_values():
    """Closed-form reproduction on the scaled-errors example: psi(0.75) for
    free and costly auditing, and mu = 1 - pi on a 32 x 32 grid."""
    t0 = time.perf_counter()
    free = scaled_uniform_agent(audit_cost=0.0, sensitivity=1.0)
    costly = scaled_uniform_agent(audit_cost=0.5, sensitivity=1.0)
    e1 = abs(rc.virtual_value(free, 0.75) - 0.75)
    e2 = abs(rc.virtual_value(costly, 0.75) - 0.5)
    thetas = np.linspace(0.5, 1.0, 34)[1:-1]
    worst_mu = 0.0
    for th in thetas:
        lo = float(costly.income.supp_lo(th))
        hi = float(costly.income.supp_hi(th))
        for pi in np.linspace(lo, hi, 34)[1:-1]:
            worst_mu = max(worst_mu, abs(rc.mu(costly, float(th), float(pi)) - (1 - pi)))
    # the closed form psi = 2 theta - 1 + ((2 phi (1-theta) - c)_+)^2 / (4 phi (1-theta))
    worst_psi = max(abs(rc.virtual_value(costly, float(t)) - su_psi(t))
                    for t in np.linspace(0.51, 0.99, 25))
    dt = time.perf_counter() - t0
    ok = e1 <= 1e-8 and e2 <= 1e-8 and worst_mu <= 1e-8 and worst_psi <= 1e-8 \
        and dt < 1.0
    _report(1, ok, f"psi errors ({e1:.1e}, {e2:.1e}), mu grid {worst_mu:.1e}, "
                   f"curve {worst_psi:.1e}, {dt:.2f}s")


def test_criterion_2_benchmark_interpolation():
    """With free auditing, revenue at phi = 0 equals the optimal cash
    auction and at phi = 1 the full surplus (types U[1,2]: 1.0 and 1.5),
    analytically at 1e-8 and by simulation within 3 standard errors.

    The cash-auction value is pinned by an independent posted-price grid
    search (for U[1,2] the optimal posted price 1 sells with probability
    one, so the optimum is 1.0)."""
    t0 = time.perf_counter()
    cash = rc.AuctionInstance((uniform_additive_agent(audit_cost=0.0, sensitivity=0.0),))
    full = rc.AuctionInstance((uniform_additive_agent(audit_cost=0.0, sensitivity=1.0),))

    prices = np.linspace(0.5, 2.0, 30_001)
    posted = float(np.max(prices * (1.0 - np.clip(prices - 1.0, 0.0, 1.0))))

    b_cash = rc.payoff_bound(cash)
    b_full = rc.payoff_bound(full)
    myerson = rc.myerson_cash_revenue(cash)
    surplus = rc.full_extraction_revenue(full)
    ok_analytic = (abs(b_cash - myerson) <= 1e-8
                   and abs(b_full - surplus) <= 1e-8
                   and abs(myerson - posted) <= 1e-4     # grid-limited oracle
                   and abs(myerson - 1.0) <= 1e-8
                   and abs(surplus - 1.5) <= 1e-8)

    r_cash = rc.estimate_revenue(cash, None, N_RUNS, seed=101)
    r_full = rc.estimate_revenue(full, None, N_RUNS, seed=102)
    ok_sim = (abs(r_cash.revenue_net_audits - myerson) <= 3 * max(r_cash.revenue_se, 1e-12)
              and abs(r_full.revenue_net_audits - surplus) <= 3 * r_full.revenue_se)
    dt = time.perf_counter() - t0
    ok = ok_analytic and ok_sim and dt < 30.0
    _report(2, ok, f"phi=0: {b_cash:.8f} vs cash {myerson:.8f}; "
                   f"phi=1: {b_full:.8f} vs surplus {surplus:.8f}; "
                   f"sim {r_cash.revenue_net_audits:.5f}/{r_full.revenue_net_audits:.5f}, "
                   f"{dt:.1f}s")


def test_criterion_3_bound_attained_on_all_instances(shipped_instances):
    """Truthful simulation attains E[max_i psi_i(theta_i)_+] within 3
    standard errors at one million rounds, on every shipped instance."""
    details = []
    ok = True
    for name, inst in shipped_instances.items():
        bound = rc.payoff_bound(inst)
        rep = rc.estimate_revenue(inst, None, N_RUNS, seed=202)
        z = (rep.revenue_net_audits - bound) / rep.revenue_se
        ok = ok and abs(z) <= 3.0
        details.append(f"{name}: sim {rep.revenue_net_audits:.6f} vs bound "
                       f"{bound:.6f} (z={z:+.2f})")
    _report(3, ok, "; ".join(details))


def test_criterion_4_incentive_compatibility(ua_inst, su_inst, st_inst):
    """Grid best-response advantage at most 1e-6 for type deviations
    (including double deviations via the inner income optimization) and
    income deviations, at 128-point grids, within the two-minute budget."""
    t0 = time.perf_counter()
    worst_type = -np.inf
    worst_income = -np.inf
    ir_ok = True
    for inst in (ua_inst, su_inst, st_inst):
        agent = inst.agents[0]
        lo, hi = agent.types.lo, agent.types.hi
        for th in np.linspace(lo, hi, 23)[1:-1]:
            for strat in ("truthful_projection", "grid_best"):
                r = rc.best_response_type(inst, 0, float(th), 128, strat)
                worst_type = max(worst_type, r.advantage)
                ir_ok = ir_ok and r.ir_ok
        rs = np.random.default_rng(17)
        for th in lo + (hi - lo) * rs.uniform(0.4, 0.95, 5):
            th = float(th)
            if rc.virtual_value(agent, th) <= 0:
                continue
            plo = float(agent.income.supp_lo(th))
            phi_sup = float(agent.income.supp_hi(th))
            for q in (0.1, 0.5, 0.9):
                r = rc.best_response_income(inst, 0, th, [], plo + q * (phi_sup - plo),
                                            grid=128)
                worst_income = max(worst_income, r.advantage)
    dt = time.perf_counter() - t0
    ok = worst_type <= 1e-6 and worst_income <= 1e-9 and ir_ok and dt < 120.0
    _report(4, ok, f"worst type-deviation advantage {worst_type:.2e}, worst "
                   f"income-deviation {worst_income:.2e}, IR ok={ir_ok}, {dt:.1f}s")


def test_criterion_5_comparative_statics(ua_agent):
    """Monotone comparative statics on 64-point grids with zero violations:
    psi falls with audit costs and rises with the sensitivity, the audit
    threshold falls with c/phi and is invariant to joint (c, phi) scaling,
    and a hazard-rate-ordered family swap moves psi down and the threshold
    up."""
    viol = []
    rep = rc.comparative_statics_scan(ua_agent, "c", [0.0, 0.1, 0.2, 0.3, 0.4], 64)
    viol += [rep["psi_worst_violation"], rep["pi_star_worst_violation"]]
    rep = rc.comparative_statics_scan(ua_agent, "phi", [0.25, 0.5, 0.75, 1.0], 64)
    viol += [rep["psi_worst_violation"], rep["pi_star_worst_violation"]]
    grid = np.linspace(1, 2, 257)
    fams = [rc.make_type_dist("table", {"grid": grid, "cdf": (grid - 1) ** a})
            for a in (1.0, 1.5, 2.0)]
    rep = rc.comparative_statics_scan(ua_agent, "hazard_family", fams, 64)
    viol += [rep["psi_worst_violation"], rep["pi_star_worst_violation"]]

    ths = np.linspace(1.0, 2.0, 66)[1:-1]
    for s in (1.5, 2.0):
        scaled = replace(ua_agent, audit_cost=0.2 * s, sensitivity=0.5 * s)
        a = np.array([rc.audit_threshold(ua_agent, float(t)) for t in ths])
        b = np.array([rc.audit_threshold(scaled, float(t)) for t in ths])
        viol.append(float(np.max(np.abs(a - b))))
    worst = max(viol)
    ok = worst <= 1e-9
    _report(5, ok, f"six monotonicity/invariance checks, worst violation {worst:.2e}")


def test_criterion_6_structural_invariants(shipped_instances, st_inst, su_inst):
    """psi dominates the Myerson virtual value, the royalty share lies in
    [0, phi], on-path penalties vanish exactly, the equilibrium payment
    curve has slope phi then zero, and the crossing certificate holds."""
    ok = True
    details = []
    for name, inst in shipped_instances.items():
        for agent in inst.agents:
            ths = np.linspace(agent.types.lo, agent.types.hi, 65)[1:]
            for th in ths:
                th = float(th)
                psi, psi_m = rc.virtual_value(agent, th), rc.myerson_virtual(agent, th)
                cap = rc.phi_cap(agent, th)
                ok = ok and psi >= psi_m - 1e-12 and -1e-12 <= cap <= agent.sensitivity + 1e-12
    details.append("psi >= psiM and 0 <= Phi <= phi on 64-point grids")

    pen = rc.estimate_revenue(su_inst, None, 100_000, seed=8).mean_on_path_penalty
    ok = ok and pen == 0.0
    details.append(f"on-path penalties {pen}")

    h = 1e-6
    for inst, th in ((su_inst, 0.6), (st_inst, 0.75)):
        agent = inst.agents[0]
        cap = rc.audit_threshold(agent, th)
        t = rc.transfer(inst, 0, [th])
        lo, hi = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))
        below = [(t + rc.royalty(agent, th, p + h) - t - rc.royalty(agent, th, p)) / h
                 for p in np.linspace(lo + 2 * h, cap - 2 * h, 5)]
        above = [(rc.royalty(agent, th, p + h) - rc.royalty(agent, th, p)) / h
                 for p in np.linspace(cap + 2 * h, hi - 2 * h, 5)]
        ok = ok and np.allclose(below, agent.sensitivity, atol=1e-6) \
            and np.allclose(above, 0.0, atol=1e-6)
    details.append("payment slope phi below the cap, 0 above")

    cross = rc.crossing_point(st_inst, 0, 0.75, 0.8)
    ok = ok and cross.lower_ok and cross.upper_ok \
        and 0.625 - 1e-9 <= cross.crossing <= 2 / 3 + 1e-9
    details.append(f"crossing at {cross.crossing:.6f} with ordering certificate")
    _report(6, ok, "; ".join(details))


def test_criterion_7_menu_consistency(ua_agent, ua_inst):
    """Menu prices equal the transfer rule at interior royalty-region and
    lump-sum-region types, at 1e-8."""
    menu = rc.binary_menu(ua_agent)
    lump = next(c.upfront_price for c in menu if c.kind == "lump_sum")
    roy = next(c.upfront_price for c in menu if c.kind == "linear_royalty")
    t_roy = rc.transfer(ua_inst, 0, [1.3])
    t_lump = rc.transfer(ua_inst, 0, [1.8])
    e1, e2 = abs(roy - t_roy), abs(lump - t_lump)
    e3, e4 = abs(lump - 1.3), abs(roy - 0.5)
    ok = max(e1, e2, e3, e4) <= 1e-8
    _report(7, ok, f"menu ({lump:.8f}, {roy:.8f}) vs transfers "
                   f"({t_lump:.8f}, {t_roy:.8f})")


def test_criterion_8_distribution_identities(shipped_instances):
    """int -dG/dtheta dpi = 1 and E[pi - mu | theta] = theta - (1-F)/f, at
    1e-8, on every shipped family."""
    worst_mass = 0.0
    worst_id = 0.0
    for name, inst in shipped_instances.items():
        for agent in inst.agents:
            fam, types = agent.income, agent.types
            for th in np.linspace(types.lo, types.hi, 9)[1:-1]:
                th = float(th)
                lo, hi = float(fam.supp_lo(th)), float(fam.supp_hi(th))
                mass, _ = quad(lambda x: -oracles.dcdf_dtheta(fam, x, th), lo, hi,
                               epsabs=1e-13, epsrel=1e-11)
                worst_mass = max(worst_mass, abs(mass - 1.0))
                val, _ = quad(lambda x: (x - rc.mu(agent, th, x)) * fam.pdf(x, th),
                              lo, hi, epsabs=1e-13, epsrel=1e-11)
                expect = th - rc.inverse_hazard(types, th)
                worst_id = max(worst_id, abs(val - expect))
    ok = worst_mass <= 1e-8 and worst_id <= 1e-8
    _report(8, ok, f"worst |int -G_2 - 1| = {worst_mass:.1e}, "
                   f"worst |E[pi-mu] - (theta-(1-F)/f)| = {worst_id:.1e}")


def test_criterion_9_noisy_audit_equivalence(su_agent, ua_agent):
    """Expected penalties under unbiased uniform signal noise match the
    exact penalties within 3 standard errors at 1e5 trials."""
    ok = True
    rows = []
    for agent, th in ((su_agent, 0.6), (ua_agent, 1.5)):
        rep = rc.noisy_audit_equivalence(agent, th, rc.NoiseModel(halfwidth=0.1),
                                         n_trials=100_000, seed=909)
        ok = ok and rep["all_ok"] and rep["condition1_ok"]
        worst = max(abs(r["mc_mean"] - r["exact"]) / r["mc_se"] for r in rep["pairs"])
        rows.append(f"worst z {worst:.2f} over {len(rep['pairs'])} pairs")
    _report(9, ok, "; ".join(rows))


def test_criterion_10_reproducibility(ua_inst, pair_inst, tmp_path):
    """Identical seeds produce byte-identical reports, serial and parallel."""
    ok = True
    for inst in (ua_inst, pair_inst):
        serial = rc.estimate_revenue(inst, None, 120_000, seed=77, workers=1)
        again = rc.estimate_revenue(inst, None, 120_000, seed=77, workers=1)
        parallel = rc.estimate_revenue(inst, None, 120_000, seed=77, workers=4)
        blob = [json.dumps(r.to_dict(), sort_keys=True) for r in (serial, again, parallel)]
        ok = ok and blob[0] == blob[1] == blob[2]

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text((
        "v: 1\nagents:\n"
        "  - type_dist: {family: uniform, lo: 1.0, hi: 2.0}\n"
        "    income:\n      family: additive_error\n"
        "      error: {family: uniform, lo: -1.0, hi: 1.0}\n"
        "    audit_cost: 0.2\n    sensitivity: 0.5\n"))
    blobs = []
    for sub, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--runs", "30000", "--workers", workers]) == 0
        blobs.append((out / "simulate.csv").read_bytes()
                     + (out / "simulate.json").read_bytes())
    ok = ok and blobs[0] == blobs[1] == blobs[2]
    _report(10, ok, "SimReports and CLI artifacts byte-identical, serial == parallel")
