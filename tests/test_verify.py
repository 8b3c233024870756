import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st

import oracles
import royaltycap as rc
from conftest import rising_gap_agent, table_income_agent, tent_error_inst
from royaltycap import verify
from royaltycap.cli import main
from royaltycap.errors import DomainError
from royaltycap.instances import (
    mixed_pair,
    scaled_triangular_agent,
    uniform_additive_agent,
)


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------

def test_regularity_passes_on_shipped_agents(ua_agent, su_agent, st_agent):
    for agent in (ua_agent, su_agent, st_agent):
        rep = rc.check_regularity(agent, 64, 64)
        assert rep.all_ok, rep.worst
        d = rep.to_dict()
        assert d["all_ok"] and d["theta_grid"] == 64


def test_regularity_flags_oscillating_surplus(ua_agent):
    class Oscillating:
        family = "osc"
        params = {}
        def supp_lo(self, th): return np.asarray(th) - 1.0
        def supp_hi(self, th): return np.asarray(th) + 1.0
        def cdf(self, pi, th): return np.clip((np.asarray(pi) - np.asarray(th) + 1) / 2, 0, 1)
        def pdf(self, pi, th):
            return np.full(np.broadcast_shapes(np.shape(pi), np.shape(th)), 0.5)
        def g2_over_g(self, pi, th): return -(1.0 + 0.9 * np.sin(8 * np.asarray(pi)))
        def ppf(self, u, th): return np.asarray(th) - 1 + 2 * np.asarray(u)
        def audit_region(self, th, b):
            z = np.clip(np.asarray(b) - th, -1.0, 1.0)
            return (z + 1) / 2, (z + 1) / 2, (z + 1) - (z + 1) ** 2 / 4

    agent = replace(ua_agent, income=Oscillating(), audit_cost=0.45)
    rep = rc.check_regularity(agent, 64, 64)
    assert not rep.single_crossing_pi_ok
    assert rep.worst["single_crossing_pi"]["magnitude"] > 0


@pytest.mark.parametrize("grid", [64, 128])
def test_regularity_exact_on_tabulated_income(grid):
    # knots 1, 1.4, 2: the law kinks in the type at 1.4; the normalization
    # integral is the rows' quartic antiderivatives at u = 1
    rep = rc.check_regularity(table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0), grid, grid)
    assert rep.normalization_ok, rep.worst["normalization"]
    assert rep.worst["normalization"]["magnitude"] <= 1e-12
    assert rep.all_ok, rep.worst


def test_regularity_grid_precondition(ua_agent):
    with pytest.raises(ValueError):
        rc.check_regularity(ua_agent, 16, 64)


@pytest.mark.parametrize("knots,audit_cost,theta", [((1.0, 1.4, 2.0), 0.01, 1.9692),
                                                     ((1.0, 1.5, 2.0), 0.2, 1.2154)])
def test_check_reports_the_build_scan_on_small_cost_knot_copies(knots, audit_cost, theta):
    # the audit surplus (0.5 + u) (2 - theta) phi - c rises in income: it
    # is below zero at the bottom of the income support and above it at the
    # top for the types in (2 - 2c / phi, 2 - 2c / (3 phi)); check reports
    # the build's own scan at its grid types, the worst at the lowest such
    # type, with its surplus at the top of the support, 1.5 (2 - theta) phi
    # - c (0.0131 and 0.388 here), and every entry point raises
    agent = rising_gap_agent(audit_cost, knots=knots)
    rep = rc.check_regularity(agent)
    assert not rep.single_crossing_pi_ok and not rep.all_ok
    worst = rep.worst["single_crossing_pi"]
    assert worst["theta"] == pytest.approx(theta, abs=1e-4)
    assert worst["magnitude"] == pytest.approx(
        1.5 * (2.0 - worst["theta"]) * agent.sensitivity - audit_cost, abs=1e-9)
    inst = rc.AuctionInstance((agent,))
    for call in (lambda: rc.tables_for(inst),
                 lambda: rc.payoff_bound(inst),
                 lambda: rc.estimate_revenue(inst, n_runs=1000),
                 lambda: rc.transfer(inst, 0, [theta]),
                 lambda: rc.virtual_value(agent, theta),
                 lambda: rc.audit_threshold(agent, theta),
                 lambda: rc.phi_cap(agent, theta),
                 lambda: rc.expected_income_net_royalty(agent, theta)):
        with pytest.raises(rc.RegularityError):
            call()


@pytest.mark.parametrize("audit_cost", [0.0, 0.01])
def test_check_runs_the_single_crossing_scan_once(monkeypatch, audit_cost):
    # the virtual-value step reads the single-crossing step's scan: one
    # probe per check, and where the scan fails, the kernels' own error
    agent = rising_gap_agent(audit_cost)
    calls = []
    probe = rc.mech._probe_single_crossing
    monkeypatch.setattr(rc.mech, "_probe_single_crossing",
                        lambda a, t: calls.append(np.size(t.theta)) or probe(a, t))
    rep = rc.check_regularity(agent)
    assert calls == [64]
    if audit_cost:
        with pytest.raises(rc.RegularityError) as err:
            rc.mech._pi_star_vec(agent, rc.mech._interior_grid(agent.types, 64))
        assert rep.worst["psi_increasing"] == {"error": str(err.value)}
    else:
        assert rep.all_ok


def test_check_evaluates_the_income_law_twice_on_its_grid(monkeypatch):
    # on a tabulated income law each evaluation on check's 128 x 128 grid is
    # a full inversion: one for FOSD (cdf) and one for the audit surplus
    # (g2_over_g), no density pass
    agent = table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0)
    sizes = []
    solve = rc.TableIncomeFamily._solve
    monkeypatch.setattr(rc.TableIncomeFamily, "_solve", lambda fam, pi, theta: (
        sizes.append(np.broadcast(pi, theta).size) or solve(fam, pi, theta)))
    assert rc.check_regularity(agent, 128, 128).all_ok
    assert sizes.count(128 * 128) == 2


@st.composite
def _table_shape(draw):
    """A random tabulated law on [0, 1]: 3-12 knots at random spacing and
    random positive cdf steps."""
    n = draw(st.integers(3, 12))
    steps = [draw(st.lists(st.floats(lo, 1.0), min_size=n - 1, max_size=n - 1))
             for lo in (0.05, 0.02)]
    grid, cdf = (np.concatenate([[0.0], np.cumsum(x)]) for x in steps)
    return grid / grid[-1], cdf / cdf[-1]


@st.composite
def _tabulated_agent(draw):
    """An agent whose income law is tabulated: a random ``table`` error law
    of width 1, shifted to mean zero, under the additive family (types
    U[1, 2]) or the scaled family (types U[0.5, 1]); or random quantile rows
    of a ``TableIncomeFamily`` at 2-4 type knots (types over the knots),
    each row of width at most 0.45 times the least knot gap, shifted to
    its knot's mean, so that the rows are FOSD-ordered."""
    kind = draw(st.sampled_from(["additive_error", "scaled_error", "table"]))
    c, phi = draw(st.floats(0.0, 0.5)), draw(st.sampled_from([0.5, 1.0]))
    if kind == "table":
        knots = np.cumsum([1.0] + draw(st.lists(st.floats(0.3, 1.0), min_size=1, max_size=3)))
        rows = []
        for t in knots:
            grid, cdf = draw(_table_shape())
            grid = grid * draw(st.floats(0.05, 0.45)) * np.min(np.diff(knots))
            rows.append((grid + (t - rc.dist._Pchip(cdf, grid).total), cdf))
        income = rc.make_income_family("table", {"theta_grid": knots.tolist(), "rows": rows})
        types = {"lo": knots[0], "hi": knots[-1]}
    else:
        grid, cdf = draw(_table_shape())
        grid = grid - rc.dist._TableCdf(grid, cdf).mean
        income = rc.make_income_family(kind, {"error": {"family": "table", "grid": grid,
                                                        "cdf": cdf}})
        types = {"lo": 1.0, "hi": 2.0} if kind == "additive_error" else {"lo": 0.5, "hi": 1.0}
    return rc.AgentSpec(rc.make_type_dist("uniform", types), income, c, phi)


@given(agent=_tabulated_agent())
@settings(max_examples=30, deadline=None)
def test_check_grid_has_positive_density_inside_the_support(agent):
    # check's single crossing in type keeps the grid incomes strictly inside
    # each type's support: the density there is positive on every income law
    # the package tabulates, so masking incomes of zero density as well
    # would leave its entry unchanged
    n = 64
    rep = rc.check_regularity(agent, n, n)
    thetas = rc.mech._interior_grid(agent.types, n)
    types = rc.mech._Types.of(agent, thetas)
    th = thetas[:, None]
    pis = np.linspace(float(np.min(types.lo)), float(np.max(types.hi)), n)
    inside = (pis[None, :] > types.lo[:, None] + 1e-12) & (pis[None, :] < types.hi[:, None] - 1e-12)
    pdf = np.asarray(agent.income.pdf(pis[None, :], th))
    assert np.all(pdf[inside] > 0)
    with np.errstate(invalid="ignore"):
        surplus = rc.mech._audit_surplus(agent, th, pis[None, :], types.ih[:, None])
    per = rc.mech._worst_single_crossing(np.where(inside & (pdf > 0), surplus, np.nan), axis=0)
    k = int(np.argmax(per))
    assert rep.worst["single_crossing_theta"] == {
        "magnitude": float(per[k]), "pi": float(pis[k]) if per[k] > 0 else None}


@pytest.mark.parametrize("knots", [(1.0, 1.4, 2.0), (1.0, 1.5, 2.0)])
def test_instance_entry_points_refuse_what_the_table_build_refuses(knots):
    # a tabulated income copy over a tabulated type law whose density drops
    # from about 1.1 to 0.2 on [1.45, 1.55]: (1 - F)/f jumps there, so the
    # virtual value dips and the build raises; allocation and
    # best_response_income used to price such an instance by the scalar
    # kernel regardless
    types = rc.make_type_dist("table", {"grid": [1.0, 1.45, 1.55, 2.0],
                                        "cdf": [0.0, 0.49, 0.51, 1.0]})
    inst = rc.AuctionInstance((replace(table_income_agent(knots, audit_cost=1e-12),
                                       types=types),))
    with pytest.raises(rc.RegularityError, match="not increasing on the table grid"):
        rc.tables_for(inst)
    for call in (lambda: rc.allocation(inst, [1.8]),
                 lambda: rc.transfer(inst, 0, [1.8]),
                 lambda: rc.best_response_income(inst, 0, 1.8, [], 2.0),
                 lambda: rc.crossing_point(inst, 0, 1.7, 1.8),
                 lambda: rc.endogenous_virtual(inst, 0, [1.8], lambda prof, p: 1.0)):
        with pytest.raises(rc.RegularityError):
            call()


@given(inner=st.lists(st.integers(1, 39), unique=True, max_size=2),
       c=st.floats(0.0, 0.3), phi=st.sampled_from([0.5, 1.0]))
@example(inner=[16], c=0.01, phi=0.5).via("knots 1/1.4/2, a band of types near the top")
@example(inner=[20], c=0.0, phi=0.5).via("knots 1/1.5/2, free audits")
@settings(max_examples=25, deadline=None)
def test_check_single_crossing_iff_the_build_scan_raises(inner, c, phi):
    agent = rising_gap_agent(c, phi, (1.0, *sorted(1.0 + k / 40 for k in inner), 2.0))
    rep = rc.check_regularity(agent, 32, 32)
    try:
        rc.mech._pi_star_vec(agent, np.linspace(1.0, 2.0, 34)[1:-1])  # check's types
        raised = False
    except rc.RegularityError:
        raised = True
    assert rep.single_crossing_pi_ok == (not raised), rep.worst["single_crossing_pi"]


# ---------------------------------------------------------------------------
# Condition 1 (double monotonicity)
# ---------------------------------------------------------------------------

def test_condition1_needs_a_sorted_grid():
    with pytest.raises(ValueError, match="sorted"):
        rc.check_condition1([0.0, 1.0, 0.5], [0.0, 0.5, 0.25], 0.5)


def test_condition1_linear_penalty_tight():
    grid = np.linspace(0, 2, 65)
    ok, worst, _ = rc.check_condition1(grid, (grid - 0.7) * 0.5, 0.5)
    assert ok and worst == 0.0


def test_condition1_constant_and_violating():
    grid = np.linspace(0, 1, 33)
    ok, _, _ = rc.check_condition1(grid, np.zeros(33), 0.7)
    assert ok
    ok, worst, pair = rc.check_condition1(grid, grid * 0.55, 0.5)  # slope 1.1 phi
    assert not ok and worst > 0 and pair[0] < pair[1]
    ok, _, _ = rc.check_condition1(grid, -grid * 0.1, 0.5)  # decreasing
    assert not ok


@given(slope=st.floats(0.0, 1.0), phi=st.floats(0.01, 1.0))
@settings(max_examples=100, deadline=None)
def test_condition1_linear_schedules(slope, phi):
    grid = np.linspace(0, 1, 33)
    ok, _, _ = rc.check_condition1(grid, grid * slope * phi, phi)
    assert ok


# ---------------------------------------------------------------------------
# Best responses
# ---------------------------------------------------------------------------

def test_income_best_response_examples(su_inst, ua_inst):
    r = rc.best_response_income(su_inst, 0, 0.6, [], 0.3)
    assert abs(r.advantage) <= 1e-9
    r = rc.best_response_income(su_inst, 0, 0.6, [], 0.8)
    assert abs(r.advantage) <= 1e-9
    # cap at zero: utility independent of the report
    r = rc.best_response_income(ua_inst, 0, 1.8, [], 1.5)
    assert abs(r.advantage) <= 1e-9
    cash = rc.AuctionInstance((uniform_additive_agent(sensitivity=0.0),))
    with pytest.raises(rc.DomainError):
        rc.best_response_income(cash, 0, 1.0, [], 1.0)  # psi = 0: no win


def test_type_best_response_certifies_ic(ua_inst, su_inst, st_inst):
    for inst in (ua_inst, su_inst, st_inst):
        agent = inst.agents[0]
        lo, hi = agent.types.lo, agent.types.hi
        for th in np.linspace(lo, hi, 7)[1:-1]:
            for strat in ("truthful_projection", "grid_best"):
                r = rc.best_response_type(inst, 0, float(th), 128, strat, 128)
                assert r.advantage <= 1e-6, (inst, th, strat, r.advantage)
                assert r.ir_ok


def test_type_best_response_multi_agent(pair_inst):
    for i, th in ((0, 1.4), (1, 0.8)):
        r = rc.best_response_type(pair_inst, i, th, 96, "grid_best")
        assert r.advantage <= 1e-6
        assert r.truthful_utility >= -1e-9


def test_type_best_response_on_tabulated_income():
    # the expected payment is integrated exactly from the family's audit
    # region, so the tabulated family raises no false IC or IR alarm
    inst = rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0),))
    for th in (1.2, 1.5):
        for strat in ("truthful_projection", "grid_best"):
            r = rc.best_response_type(inst, 0, th, 128, strat)
            assert r.advantage <= 1e-6 and r.ir_ok, (th, strat, r.to_dict())


def winning_reports(inst, i, theta_true, theta_grid=128):
    """The type reports with a positive win probability, and their caps."""
    reports, qs, _, caps = (np.array(x) for x in
                            oracles.type_reports(inst, i, theta_true, theta_grid))
    return reports[qs > 0.0], caps[qs > 0.0]


def double_deviation(agent, reports, caps):
    """The double deviation's (A, U) of each type report."""
    r_lo, r_hi = rc.mech._income_bounds(agent, reports)
    return verify._income_reports(r_lo, r_hi, caps, agent.sensitivity)


def cut_counts(inst, i, theta_true, theta_grid=128):
    """Distinct numbers of payment cuts over the winning type reports."""
    return {oracles.payment_cuts(inst.agents[i], theta_true, rep, cap).size
            for rep, cap in zip(*winning_reports(inst, i, theta_true, theta_grid))}


def assert_matches_oracle(got, inst, i, theta_true, strat, grid):
    """``got`` agrees with the scalar per-report loop (both grids ``grid``):
    the utilities, the advantage and the rent to 1e-14, the grid, IR and the
    strategy exactly, and its best deviation is a best report under the loop
    (to 1e-14: exact ties may resolve to another report).  Returns the
    loop's payments of the winning reports."""
    want, pays = oracles.best_response_type(inst, i, theta_true, grid, strat)
    g, w = got.to_dict(), want.to_dict()
    for key in ("truthful_utility", "best_deviation_utility", "advantage", "info_rent"):
        assert abs(g[key] - w[key]) <= 1e-14, (i, theta_true, strat, key)
    assert (g["grid"], g["ir_ok"], g["best_deviation"][1]) == \
        (w["grid"], w["ir_ok"], w["best_deviation"][1])
    reports, qs, t_pays, _ = oracles.type_reports(inst, i, theta_true, grid)
    won = [r for r, q in zip(reports, qs) if q > 0.0]
    k = reports.index(g["best_deviation"][0])
    u = qs[k] * (theta_true - pays[won.index(reports[k])]) - t_pays[k] if qs[k] > 0.0 else 0.0
    assert abs(u - w["best_deviation_utility"]) <= 1e-14, (i, theta_true, strat)
    return pays


def test_type_best_response_matches_scalar_oracle(shipped_instances):
    # the batched certificate agrees with the per-report loop to 1e-14,
    # report by report, at the ends of the type support (a point-mass income
    # law at the top of a scaled-error agent) and inside it, on rows with
    # different numbers of distinct cuts
    cases = [(inst, i) for inst in shipped_instances.values() for i in range(inst.n_agents)]
    cases += [(rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), 0.0),)), 0),
              (tent_error_inst(), 0)]
    groups = []
    for inst, i in cases:
        lo, hi = inst.agents[i].types.lo, inst.agents[i].types.hi
        for th in (lo, lo + 0.37 * (hi - lo), lo + 0.81 * (hi - lo), hi):
            for strat in ("truthful_projection", "grid_best"):
                got = rc.best_response_type(inst, i, th, 128, strat)
                pays = assert_matches_oracle(got, inst, i, th, strat, 128)
                reports, caps = winning_reports(inst, i, th)
                income = (double_deviation(inst.agents[i], reports, caps)
                          if strat == "grid_best" else None)
                batched = verify._expected_payments(inst.agents[i], th, reports, caps, income)
                assert np.max(np.abs(batched - pays), initial=0.0) <= 1e-14, (i, th, strat)
            groups.append(len(cut_counts(inst, i, th)))
    assert max(groups) >= 2


TABLE_INCOME_INST = rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), 0.0),))
TENT_ERROR_INST = tent_error_inst()


@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_best_responses_match_the_scalar_oracle(shipped_instances, data):
    # one call for every true type and both strategies agrees with the
    # one-type, one-report-at-a-time loop to 1e-14, at both support ends and
    # inside
    cases = [(inst, i) for inst in shipped_instances.values() for i in range(inst.n_agents)]
    cases += [(TABLE_INCOME_INST, 0), (TENT_ERROR_INST, 0)]
    inst, i = data.draw(st.sampled_from(cases))
    lo, hi = inst.agents[i].types.lo, inst.agents[i].types.hi
    at = data.draw(st.lists(st.floats(0.0, 1.0), max_size=3))
    thetas = [lo, hi] + [lo + a * (hi - lo) for a in at]
    got = rc.best_responses(inst, i, thetas, 64)
    assert len(got) == len(thetas)
    for th, by_strategy in zip(thetas, got):
        assert list(by_strategy) == ["truthful_projection", "grid_best"]
        for strat, rep in by_strategy.items():
            assert_matches_oracle(rep, inst, i, th, strat, 64)


@given(pi=st.floats(-4.0, 4.0), pi2=st.floats(-4.0, 4.0), r=st.floats(-4.0, 4.0),
       cap=st.floats(-4.0, 4.0), top=st.floats(-4.0, 4.0), phi=st.floats(0.0, 1.0))
@example(pi=1.3, pi2=0.2, r=0.7, cap=0.9, top=2.0, phi=0.5).via("audited below the cap")
@example(pi=1.3, pi2=0.2, r=2.0, cap=2.0, top=2.0, phi=0.5).via("audited at the support top")
@settings(max_examples=200, deadline=None)
def test_settlement_is_affine_in_the_true_income(pi, pi2, r, cap, top, phi):
    # the closed-form double deviation rests on this: an audited report
    # charges phi*pi + phi*(min(r, cap) - r), an unaudited one the same
    # royalty at every true income
    royalty, audited, pen = rc.mech._settle(pi, r, cap, top, phi)
    if audited:
        want = phi * pi + (phi * min(r, cap) - phi * r)
        scale = max(abs(phi * pi), abs(phi * r), abs(phi * min(r, cap)))
        assert abs((royalty + pen) - want) <= 8 * np.spacing(scale)
    else:
        royalty2, audited2, pen2 = rc.mech._settle(pi2, r, cap, top, phi)
        assert not audited2 and royalty + pen == royalty2 + pen2 == phi * min(r, cap)


_CAP_AT = {"below": lambda lo, hi, at: lo - 1.0 - at,
           "inside": lambda lo, hi, at: lo + at * (hi - lo),
           "top": lambda lo, hi, at: hi,
           "band": lambda lo, hi, at: hi - at * 1e-12 * max(1.0, abs(hi)),
           "above": lambda lo, hi, at: hi + 1.0 + at}


@given(lo=st.floats(-4.0, 4.0), width=st.one_of(st.just(0.0), st.floats(0.0, 4.0)),
       where=st.sampled_from(sorted(_CAP_AT)), at=st.floats(0.0, 1.0),
       phi=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), n=st.sampled_from([2, 8, 128]))
@example(lo=0.5, width=0.0, where="top", at=0.0, phi=0.5, n=2).via("a point support")
@example(lo=0.5, width=2.0, where="band", at=0.5, phi=0.0, n=8).via("a refund at phi = 0")
@example(lo=-1.0, width=2.0, where="inside", at=0.3, phi=1.0, n=128).via("both sides")
@example(lo=-1.0, width=1.0000000000001, where="band", at=0.6, phi=0.0, n=8).via("a cap below 0")
@settings(max_examples=300, deadline=None)
def test_income_reports_are_the_brute_minimum(lo, width, where, at, phi, n):
    # the closed-form (A, U) is the brute search's over n income reports,
    # bit for bit, for caps below the support, inside it, at its top, inside
    # the audit band below the top and above it
    hi = lo + width
    cap = _CAP_AT[where](lo, hi, at)
    got = verify._income_reports(np.array([lo]), np.array([hi]), np.array([cap]), phi)
    want = oracles.income_reports(lo, hi, cap, phi, n)
    assert np.concatenate(got).tobytes() == np.array(want).tobytes(), (got, want)


def test_best_response_type_ignores_an_income_grid(ua_inst):
    # the trailing income-grid slot is kept for old callers and ignored
    want = rc.best_response_type(ua_inst, 0, 1.3, 64, "grid_best")
    assert rc.best_response_type(ua_inst, 0, 1.3, 64, "grid_best", 8) == want
    assert want.grid == (65,)


@pytest.mark.parametrize("agent,empty", [
    (uniform_additive_agent(audit_cost=0.0, sensitivity=1.0), "unaudited"),
    (uniform_additive_agent(sensitivity=0.0), "audited")])
def test_double_deviation_with_an_empty_report_set_matches_the_oracle(agent, empty):
    # every income report audited (U = inf), or none (A = inf, and the
    # switch (U - A)/phi divides by phi = 0): the switch is not finite and
    # falls back onto the bottom of the true support
    inst = rc.AuctionInstance((agent,))
    lo, hi = agent.types.lo, agent.types.hi
    for th in (lo + 0.37 * (hi - lo), lo + 0.81 * (hi - lo), hi):
        reports, caps = winning_reports(inst, 0, th, 64)
        assert reports.size
        r_lo, r_hi = rc.mech._income_bounds(agent, reports)
        a, u = verify._income_reports(r_lo, r_hi, caps, agent.sensitivity)
        assert np.all(np.isinf(u if empty == "unaudited" else a))
        for strat in ("truthful_projection", "grid_best"):
            got = rc.best_response_type(inst, 0, th, 64, strat)
            assert_matches_oracle(got, inst, 0, th, strat, 64)


def test_double_deviation_is_integrated_exactly_across_its_switch():
    # under the mechanism's settlement the switch (U - A)/phi falls on the
    # audit threshold, already a cut; with any other A and U the payment
    # min(phi*pi + A, U) is still integrated exactly.  Income U[0.5, 2.5]
    # (density 1/2), cap 0.6, A = -0.05, U = 0.8, phi = 0.5: the switch is
    # 1.7, and E = (0.66 - 0.06) / 2 + 0.8 * 0.8 / 2 = 0.62
    pay = verify._expected_payments(uniform_additive_agent(), 1.5, np.array([1.5]),
                                    np.array([0.6]), (np.array([-0.05]), np.array([0.8])))
    assert abs(pay[0] - 0.62) <= 1e-15


@pytest.mark.parametrize("name", ["tab_income", "mixed_pair"])
def test_best_responses_read_the_income_law_once_per_payment_pass(monkeypatch, name):
    # a deterministic cost guard: each payment pass (one per income strategy)
    # reads the true income law once, through audit_region at no more than
    # six cuts per (true type, report) row, and never evaluates its density
    inst = TABLE_INCOME_INST if name == "tab_income" else mixed_pair()
    rc.tables_for(inst)
    sizes, payments = [], []
    expected = verify._expected_payments
    monkeypatch.setattr(verify, "_expected_payments", lambda agent, th, reports, *rest: (
        payments.append(reports.size) or expected(agent, th, reports, *rest)))
    for i, agent in enumerate(inst.agents):
        sizes.clear()
        payments.clear()
        region = agent.income.audit_region
        monkeypatch.setattr(agent.income, "audit_region", lambda th, b, region=region: (
            sizes.append(np.size(th)) or region(th, b)))
        monkeypatch.setattr(agent.income, "pdf", None)
        rc.best_responses(inst, i, rc.mech._interior_grid(agent.types, 16), 128)
        rc.best_response_type(inst, i, agent.types.lo + 0.4 * (agent.types.hi - agent.types.lo),
                              128, "grid_best")
        assert len(sizes) == len(payments) == 4
        assert all(0 < n <= 6 * rows for n, rows in zip(sizes, payments))


def test_best_responses_build_the_income_report_side_once(monkeypatch, pair_inst):
    # a deterministic cost guard: the double deviation's (A, U) is built once
    # per call, for each distinct type report (it was built once per true
    # type and strategy)
    calls = []
    income_reports = verify._income_reports

    def counted(*args):
        calls.append(args[0].size)
        return income_reports(*args)

    monkeypatch.setattr(verify, "_income_reports", counted)
    for i in range(pair_inst.n_agents):
        calls.clear()
        thetas = rc.mech._interior_grid(pair_inst.agents[i].types, 16)
        rc.best_responses(pair_inst, i, thetas, 128)
        assert len(calls) == 1 and calls[0] <= 128 + 16


def test_best_responses_hold_bounded_memory(pair_inst):
    # each (true type, report) row's payment is integrated over its at most
    # 7 cuts (``audit_region`` there), with no income grid: 1.1 MB observed
    # for CLI verify-ic's 16 types
    rc.tables_for(pair_inst)
    thetas = rc.mech._interior_grid(pair_inst.agents[0].types, 16)
    tracemalloc.start()
    try:
        rc.best_responses(pair_inst, 0, thetas, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("name,i", [("scaled_uniform", 0), ("scaled_triangular", 0),
                                    ("mixed_pair", 1)])
def test_top_type_of_scaled_error_agent_has_no_deviation_gain(shipped_instances, name, i):
    # the top type's income is the point mass pi = theta = 1; a deviation
    # pays its royalty and penalty there instead of nothing
    inst = shipped_instances[name]
    for strat in ("truthful_projection", "grid_best"):
        r = rc.best_response_type(inst, i, inst.agents[i].types.hi, 128, strat)
        assert r.advantage <= 1e-6 and r.ir_ok, r.to_dict()


def test_income_deviations_and_crossing_evaluate_each_report_once(monkeypatch, pair_inst,
                                                                   st_inst):
    # a deterministic cost guard: once the tables are built, no kernel call
    # is left (psi, pi_star and the transfers all come from the tables)
    for inst in (pair_inst, st_inst):
        rc.tables_for(inst)
    calls = []
    pi_star_vec = rc.mech._pi_star_vec

    def counted(agent, thetas):
        calls.append(np.size(thetas))
        return pi_star_vec(agent, thetas)

    monkeypatch.setattr(rc.mech, "_pi_star_vec", counted)
    rc.best_response_income(pair_inst, 0, 1.6, [0.6], 1.2)
    assert calls == []
    calls.clear()
    rc.crossing_point(st_inst, 0, 0.75, 0.8)
    assert calls == []


def test_nan_types_are_outside_the_support(pair_inst):
    # NaN fails every comparison, so a range check written as two rejections
    # let it through: allocation returned [0, 0] and transfer 0.0
    nan = float("nan")
    for call in (lambda: rc.allocation(pair_inst, [nan, 0.8]),
                 lambda: rc.transfer(pair_inst, 0, [nan, 0.8]),
                 lambda: rc.best_responses(pair_inst, 0, [nan], 64)):
        with pytest.raises(DomainError, match="outside support"):
            call()


@pytest.mark.parametrize("i", [2, -1, 0.0, np.int64(5), True])
@pytest.mark.parametrize("call", [
    lambda inst, i: rc.transfer(inst, i, [1.5, 0.8]),
    lambda inst, i: rc.endogenous_virtual(inst, i, [1.5, 0.8], lambda prof, p: 1.0),
    lambda inst, i: rc.best_response_income(inst, i, 1.6, [0.6], 1.2),
    lambda inst, i: rc.best_response_type(inst, i, 1.5, 64),
    lambda inst, i: rc.crossing_point(inst, i, 1.7, 1.8, [0.6]),
], ids=["transfer", "endogenous_virtual", "best_response_income", "best_response_type",
        "crossing_point"])
def test_agent_index_must_name_an_agent(pair_inst, call, i):
    # a missing agent used to get transfer 0.0, and -1 certified agent 1
    with pytest.raises(DomainError, match="agent index"):
        call(pair_inst, i)


@pytest.mark.parametrize("call,match", [
    (lambda a, inst: rc.check_regularity(a, 64.5, 64), "theta_grid_size must be an integer"),
    (lambda a, inst: rc.check_regularity(a, 64, True), "pi_grid_size must be an integer"),
    (lambda a, inst: rc.check_regularity(a, 16, 64), "regularity grids need at least 32"),
    (lambda a, inst: rc.best_responses(inst, 0, [1.5], 64.0), "theta_grid must be an integer"),
    (lambda a, inst: rc.best_response_type(inst, 0, 1.5, 32), "need at least 64 points"),
    (lambda a, inst: rc.best_response_type(inst, 0, 1.5, 64, "bogus"), "unknown income strategy"),
    (lambda a, inst: rc.crossing_point(inst, 0, 1.3, 1.5, grid=257.0), "grid must be an integer"),
    (lambda a, inst: rc.crossing_point(inst, 0, 1.3, 1.5, grid=16), "need at least 32 points"),
    (lambda a, inst: rc.noisy_audit_equivalence(a, 1.5, rc.NoiseModel(), n_trials=2e3),
     "n_trials must be an integer"),
    (lambda a, inst: rc.noisy_audit_equivalence(a, 1.5, rc.NoiseModel(), n_trials=1),
     "at least 2 trials"),
    (lambda a, inst: rc.noisy_audit_equivalence(a, 1.5, rc.NoiseModel(), seed=-1),
     "seeds must be nonnegative"),
    (lambda a, inst: rc.noisy_audit_equivalence(a, 1.5, rc.NoiseModel(), seed=1.5),
     "seed must be an integer"),
    (lambda a, inst: rc.noisy_audit_equivalence(a, 1.5, rc.NoiseModel(), seed=True),
     "seed must be an integer"),
    (lambda a, inst: rc.best_response_income(inst, 0, 1.6, [], 1.2, grid=0),
     "need at least 2 points"),
    (lambda a, inst: rc.best_response_income(inst, 0, 1.6, [], 1.2, grid=64.5),
     "grid must be an integer"),
    (lambda a, inst: rc.comparative_statics_scan(a, "c", [0.1, 0.2, 0.3], np.float64(64)),
     "theta_grid must be an integer"),
    (lambda a, inst: rc.comparative_statics_scan(a, "c", [0.1, 0.2, 0.3], 16),
     "need at least 32 points"),
    (lambda a, inst: rc.check_condition1([0.0, 1.0, 0.5], [0.0, 0.5, 0.25], 0.5), "sorted"),
    (lambda a, inst: rc.DeviationReport(1.0, 2.0, (0.0, "x"), 0.5, (8, 8)), "advantage"),
], ids=["regularity-float", "regularity-bool", "regularity-small", "responses-float",
        "response-small", "strategy", "crossing-float", "crossing-small", "noisy-float",
        "noisy-small", "noisy-seed-negative", "noisy-seed-float", "noisy-seed-bool",
        "income-grid-zero", "income-grid-float", "scan-float", "scan-small",
        "condition1-unsorted", "deviation-report"])
def test_verify_raises_the_package_errors(ua_agent, ua_inst, call, match):
    # a size that is not an integer used to end in numpy's TypeError, and
    # the rest raised bare ValueErrors; an income grid of 0 used to return
    # advantage 0.0 from the truthful report and the cap alone, and a seed
    # of True ran as seed 1
    with pytest.raises(rc.ConstructionError, match=match):
        call(ua_agent, ua_inst)


def test_rival_reports_must_match_the_rivals(pair_inst):
    with pytest.raises(ValueError):
        rc.best_response_income(pair_inst, 0, 1.6, [], 1.2)
    with pytest.raises(ValueError):
        rc.crossing_point(pair_inst, 0, 1.7, 1.8)
    # a profile needs one type per agent (a short one used to drop the rival)
    for profile in ([1.5], [1.5, 0.75, 0.9]):
        with pytest.raises(ValueError):
            rc.allocation(pair_inst, profile)
        with pytest.raises(ValueError):
            rc.transfer(pair_inst, 0, profile)


@pytest.mark.parametrize("name", ["uniform_additive", "scaled_uniform", "scaled_triangular",
                                  "tab_error", "tab_income"])
def test_income_advantage_is_the_brute_search_at_the_cuts(shipped_instances, name):
    # at each true type CLI verify-ic certifies, the income certificate
    # equals the largest gain of the brute income-report search
    # (best_response_income) over the cut incomes: the support's ends, the
    # cap and the double deviation's switch (U - A)/phi
    inst = {**shipped_instances, "tab_error": TENT_ERROR_INST,
            "tab_income": TABLE_INCOME_INST}[name]
    agent, phi = inst.agents[0], inst.agents[0].sensitivity
    thetas = rc.mech._interior_grid(agent.types, 16)
    caps = rc.tables_for(inst).pi_star(0, thetas)
    a, u = double_deviation(agent, thetas, caps)
    for th, cap, switch, by_strategy in zip(thetas.tolist(), caps.tolist(), (u - a) / phi,
                                            rc.best_responses(inst, 0, thetas, 128)):
        lo, hi = (float(x) for x in rc.mech._income_bounds(agent, th))
        cuts = [lo, hi, cap] + ([float(switch)] if np.isfinite(switch) else [])
        try:
            brute = max(rc.best_response_income(inst, 0, th, [], min(max(p, lo), hi)).advantage
                        for p in cuts)
        except DomainError:   # the own report loses
            brute = 0.0
        for rep in by_strategy.values():
            assert abs(rep.income_advantage - brute) <= 1e-15, (name, th)


def _wide_audit_band(pi_report, cap, supp_hi, out=None):
    """The audit rule with a 1e-6 band below the support top (allocating its
    result whatever ``out`` holds: verify settles without one)."""
    edge = supp_hi - 1e-6 * np.maximum(1.0, np.abs(supp_hi))
    return (pi_report < cap) | ((cap >= edge) & (pi_report >= edge))


def _verify_ic_cheap_audits(tmp_path):
    """CLI verify-ic on configs/scaled_triangular.yaml at c = 1e-6: its exit
    code and the agents block of verify_ic.json."""
    config = tmp_path / "st.yaml"
    config.write_text((Path(__file__).resolve().parents[1] / "configs" / "scaled_triangular.yaml")
                      .read_text().replace("audit_cost: 0.5", "audit_cost: 0.000001"))
    code = main(["verify-ic", "--config", str(config), "--out", str(tmp_path / "o")])
    return code, json.loads((tmp_path / "o" / "verify_ic.json").read_text())["agents"]


def test_income_certificate_prices_a_wide_audit_band(monkeypatch, tmp_path):
    # under a 1e-6 band every cap of scaled_triangular at c = 1e-6 lies in
    # the band, so reports above the cap are audited and refunded: a winner
    # gains phi*(top - cap) by reporting the top, and verify-ic must fail
    monkeypatch.setattr(rc.mech, "_audit_mask", _wide_audit_band)
    inst = rc.AuctionInstance((scaled_triangular_agent(1e-6, 1.0),))
    agent = inst.agents[0]
    thetas = rc.mech._interior_grid(agent.types, 16)
    tables = rc.tables_for(inst)
    q = tables.locate(0, thetas).interp(tables.agents[0].win_prob)
    caps = tables.pi_star(0, thetas)
    won = 0
    for th, w, cap, by_strategy in zip(thetas, q, caps, rc.best_responses(inst, 0, thetas, 128)):
        if w > 0.0:
            won += 1
            gain = agent.sensitivity * (float(agent.income.supp_hi(th)) - cap)
            assert gain > 1e-7
            for rep in by_strategy.values():
                assert abs(rep.income_advantage - gain) <= 1e-15, th
    assert won == thetas.size
    assert _verify_ic_cheap_audits(tmp_path)[0] == 1


def test_caps_just_below_the_support_top_leave_no_income_gain(tmp_path):
    # scaled_triangular at c = 1e-6: every cap lies within 1e-6 of the
    # support top.  With a 1e-6 audit band a winner halfway up its support
    # gained 3.3e-7, 7.5e-7 and 9.5e-7 at these types by reporting the top,
    # and verify-ic exited 1
    inst = rc.AuctionInstance((scaled_triangular_agent(1e-6, 1.0),))
    agent = inst.agents[0]
    for th in (0.6, 0.8, 0.95):
        lo = float(agent.income.supp_lo(th))
        cap = float(rc.tables_for(inst).pi_star(0, th))
        rep = rc.best_response_income(inst, 0, th, [], 0.5 * (lo + cap))
        assert rep.advantage <= 1e-15, (th, rep.to_dict())
    code, agents = _verify_ic_cheap_audits(tmp_path)
    assert code == 0 and agents[0]["income_deviation_worst"] == 0.0


def test_best_responses_need_a_grid_and_a_known_strategy(ua_inst):
    with pytest.raises(ValueError, match="at least 64 points"):
        rc.best_responses(ua_inst, 0, [1.5], 32)
    with pytest.raises(ValueError, match="unknown income strategy"):
        rc.best_response_type(ua_inst, 0, 1.5, 64, income_strategy="bogus")


def test_ir_zero_at_bottom_type(ua_inst):
    r = rc.best_response_type(ua_inst, 0, 1.0, 64, "truthful_projection")
    assert abs(r.truthful_utility) <= 1e-9


def test_rent_matches_utility(ua_inst):
    # truthful utility equals the information-rent integral
    r = rc.best_response_type(ua_inst, 0, 1.3, 64, "truthful_projection")
    assert r.truthful_utility == pytest.approx(0.15, abs=1e-7)   # 0.5 (theta - 1)
    assert r.info_rent == pytest.approx(r.truthful_utility, abs=1e-6)


def test_full_extraction_all_strategies_worthless():
    inst = rc.AuctionInstance(
        (uniform_additive_agent(audit_cost=0.0, sensitivity=1.0),))
    r = rc.best_response_type(inst, 0, 1.5, 64, "grid_best")
    assert abs(r.truthful_utility) <= 1e-7
    assert r.advantage <= 1e-6


def test_deviation_report_consistency():
    with pytest.raises(ValueError):
        rc.DeviationReport(1.0, 2.0, (0.0, "x"), 0.5, (8, 8))


# ---------------------------------------------------------------------------
# Crossing payments
# ---------------------------------------------------------------------------

def test_crossing_point_on_triangular_instance(st_inst):
    rep = rc.crossing_point(st_inst, 0, 0.75, 0.8)
    assert 0.625 - 1e-9 <= rep.crossing <= 2 / 3 + 1e-9
    assert rep.lower_ok and rep.upper_ok


def test_crossing_degenerate_pair(st_inst):
    rep = rc.crossing_point(st_inst, 0, 0.75, 0.75)
    assert rep.crossing == pytest.approx(2 / 3, abs=1e-9)


def test_crossing_unsupported_pair(ua_inst, st_inst, pair_inst):
    with pytest.raises(rc.UnsupportedPairError):
        rc.crossing_point(ua_inst, 0, 1.3, 1.5)
    with pytest.raises(rc.UnsupportedPairError, match="ordered"):
        rc.crossing_point(st_inst, 0, 0.8, 0.75)
    # agent 0 at 1.1 loses to agent 1 at 0.99; at 1.9 it wins
    with pytest.raises(rc.UnsupportedPairError, match="type 1.1 does not win"):
        rc.crossing_point(pair_inst, 0, 1.1, 1.9, [0.99])


def test_crossing_point_refuses_grids_that_certify_nothing(st_inst):
    # a grid of 0 incomes would certify both sides over nothing
    floor = verify._MIN_REGULARITY_GRID
    for grid in (0, floor - 1):
        with pytest.raises(ValueError, match=f"at least {floor} points"):
            rc.crossing_point(st_inst, 0, 0.75, 0.8, grid=grid)
    rep = rc.crossing_point(st_inst, 0, 0.75, 0.8, grid=floor)
    assert rep.grid == floor and rep.lower_ok and rep.upper_ok


# ---------------------------------------------------------------------------
# Noisy auditing
# ---------------------------------------------------------------------------

def test_noisy_audit_matches_exact(su_agent):
    rep = rc.noisy_audit_equivalence(su_agent, 0.6, rc.NoiseModel(halfwidth=0.1),
                                     n_trials=50_000, seed=3, pairs=[(0.7, 0.3)])
    row = rep["pairs"][0]
    assert row["exact"] == pytest.approx(0.4)
    assert abs(row["mc_mean"] - row["exact"]) <= 3 * row["mc_se"]
    assert rep["all_ok"] and rep["condition1_ok"]


def test_noisy_audit_zero_noise_exact(su_agent):
    rep = rc.noisy_audit_equivalence(su_agent, 0.6, rc.NoiseModel(halfwidth=0.0),
                                     n_trials=2_000, seed=1)
    for row in rep["pairs"]:
        assert row["mc_mean"] == pytest.approx(row["exact"], abs=1e-12)


def test_noisy_audit_rejects_biased_signal(su_agent):
    with pytest.raises(rc.InvalidNoiseError):
        rc.noisy_audit_equivalence(su_agent, 0.6,
                                   rc.NoiseModel(halfwidth=0.1, bias=0.03),
                                   n_trials=20_000, seed=2)


def test_noisy_audit_needs_two_trials(su_agent):
    # one trial has no standard error (numpy warns of zero degrees of
    # freedom)
    for n_trials in (0, 1):
        with pytest.raises(ValueError, match="at least 2 trials"):
            rc.noisy_audit_equivalence(su_agent, 0.6, rc.NoiseModel(), n_trials=n_trials)
    assert rc.noisy_audit_equivalence(su_agent, 0.6, rc.NoiseModel(), n_trials=2)["n_trials"] == 2


def test_noise_halfwidth_must_be_nonnegative():
    for halfwidth in (-0.1, float("nan")):
        with pytest.raises(rc.ConstructionError, match="halfwidth must be nonnegative"):
            rc.NoiseModel(halfwidth=halfwidth)
    assert rc.NoiseModel(halfwidth=0.0).halfwidth == 0.0


# ---------------------------------------------------------------------------
# Comparative statics
# ---------------------------------------------------------------------------

def test_scan_audit_cost(ua_agent):
    rep = rc.comparative_statics_scan(ua_agent, "c", [0.1, 0.2, 0.3])
    assert rep["psi_monotone_ok"] and rep["pi_star_monotone_ok"]
    # formula-evaluated golden values at theta = 1.5
    psis = [rc.virtual_value(replace(ua_agent, audit_cost=c), 1.5)
            for c in (0.1, 0.2, 0.3)]
    assert psis == pytest.approx([1.15, 1.05, 1.0], abs=1e-9)


def test_scan_sensitivity(ua_agent):
    rep = rc.comparative_statics_scan(ua_agent, "phi", [0.25, 0.5, 0.75])
    assert rep["psi_monotone_ok"] and rep["pi_star_monotone_ok"]
    lowp = rc.virtual_value(replace(ua_agent, sensitivity=0.25), 1.2)
    highp = rc.virtual_value(replace(ua_agent, sensitivity=0.5), 1.2)
    assert lowp == pytest.approx(0.4, abs=1e-9)
    assert highp == pytest.approx(0.6, abs=1e-9)
    assert lowp < highp


def test_scan_hazard_family(ua_agent):
    grid = np.linspace(1, 2, 257)
    fams = [rc.make_type_dist("table", {"grid": grid, "cdf": (grid - 1) ** a})
            for a in (1.0, 1.5, 2.0)]
    rep = rc.comparative_statics_scan(ua_agent, "hazard_family", fams)
    assert rep["psi_monotone_ok"] and rep["pi_star_monotone_ok"]
    with pytest.raises(rc.InvalidAxisError):
        rc.comparative_statics_scan(ua_agent, "hazard_family",
                                    [fams[2], fams[0], fams[1]])


def test_scan_preconditions(ua_agent):
    with pytest.raises(rc.InvalidAxisError):
        rc.comparative_statics_scan(ua_agent, "c", [0.1, 0.2])
    with pytest.raises(rc.InvalidAxisError):
        rc.comparative_statics_scan(ua_agent, "c", [0.3, 0.1, 0.2])
    with pytest.raises(rc.InvalidAxisError):
        rc.comparative_statics_scan(ua_agent, "spin", [1, 2, 3])
    u12, u02 = (rc.make_type_dist("uniform", {"lo": lo, "hi": 2.0}) for lo in (1.0, 0.0))
    for axis, values, match in (("phi", [0.5, 0.25, 0.75], "sorted ascending"),
                                ("hazard_family", [u12, "uniform", u12], "TypeDist objects"),
                                ("hazard_family", [u12, u02, u12], "common support")):
        with pytest.raises(rc.InvalidAxisError, match=match):
            rc.comparative_statics_scan(ua_agent, axis, values)


def test_scan_refuses_grids_that_certify_nothing(ua_agent):
    # a grid of 0 types would report both curves monotone over nothing
    floor = verify._MIN_REGULARITY_GRID
    for theta_grid in (0, floor - 1):
        with pytest.raises(ValueError, match=f"at least {floor} points"):
            rc.comparative_statics_scan(ua_agent, "c", [0.1, 0.2, 0.3], theta_grid)
    rep = rc.comparative_statics_scan(ua_agent, "c", [0.1, 0.2, 0.3], floor)
    assert len(rep["theta"]) == floor and rep["psi_monotone_ok"]


def test_joint_scaling_leaves_threshold_unchanged(ua_agent, su_agent):
    for agent, s in ((ua_agent, 1.5), (su_agent, 0.6)):
        scaled = replace(agent, audit_cost=agent.audit_cost * s,
                         sensitivity=agent.sensitivity * s)
        ths = np.linspace(agent.types.lo, agent.types.hi, 66)[1:-1]
        a = [rc.audit_threshold(agent, float(t)) for t in ths]
        b = [rc.audit_threshold(scaled, float(t)) for t in ths]
        assert np.allclose(a, b, atol=1e-9)
