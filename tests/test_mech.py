import time

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import oracles
import royaltycap as rc
from conftest import cash_only_agent, st_pi_star, su_psi, table_income_agent, ua_psi
from royaltycap.instances import scaled_uniform_agent, uniform_additive_agent


# ---------------------------------------------------------------------------
# mu and virtual values
# ---------------------------------------------------------------------------


def test_mu_closed_forms(ua_agent, su_agent):
    # additive errors: mu = (1 - F)/f, constant in income
    assert rc.mu(ua_agent, 1.0, 1.5) == pytest.approx(1.0, abs=1e-12)
    # scaled family: mu = 1 - pi (including outside the conditional support)
    assert rc.mu(su_agent, 0.75, 0.4) == pytest.approx(0.6, abs=1e-12)
    assert rc.mu(su_agent, 0.6, 0.35) == pytest.approx(0.65, abs=1e-12)
    with pytest.raises(rc.DomainError):
        rc.mu(ua_agent, 0.9, 1.5)


def test_mu_positive_on_interior(su_agent, st_agent):
    rs = np.random.default_rng(3)
    for agent in (su_agent, st_agent):
        lo, hi = agent.types.lo, agent.types.hi
        for _ in range(20):
            th = lo + (hi - lo) * rs.uniform(0.05, 0.95)
            plo, phi_ = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))
            pi = plo + (phi_ - plo) * rs.uniform(0.05, 0.95)
            assert rc.mu(agent, th, pi) > 0


def test_mu_finite_difference_reconstruction(su_agent):
    # -dG/dtheta / g from centered differences, times (1-F)/f
    h = 1e-5
    fam, types = su_agent.income, su_agent.types
    rs = np.random.default_rng(11)
    for _ in range(25):
        th = 0.5 + 0.5 * rs.uniform(0.1, 0.8)
        plo, phi_ = float(fam.supp_lo(th)), float(fam.supp_hi(th))
        pi = plo + (phi_ - plo) * rs.uniform(0.1, 0.9)
        fd = (fam.cdf(pi, th + h) - fam.cdf(pi, th - h)) / (2 * h)
        oracle = -fd / float(fam.pdf(pi, th)) * rc.inverse_hazard(types, th)
        assert rc.mu(su_agent, th, pi) == pytest.approx(oracle, abs=1e-6)


def test_myerson_virtual_values(ua_agent, su_agent):
    assert rc.myerson_virtual(ua_agent, 1.5) == pytest.approx(1.0)
    assert rc.myerson_virtual(ua_agent, 2.0) == pytest.approx(2.0)
    assert rc.myerson_virtual(su_agent, 0.75) == pytest.approx(0.5)


def test_virtual_value_golden(ua_agent, su_agent):
    assert rc.virtual_value(ua_agent, 1.5) == pytest.approx(1.05, abs=1e-9)
    assert rc.virtual_value(su_agent, 0.75) == pytest.approx(0.5, abs=1e-9)
    free = replace(su_agent, audit_cost=0.0)
    assert rc.virtual_value(free, 0.75) == pytest.approx(0.75, abs=1e-9)


def test_virtual_value_against_quadrature_oracle(su_agent, st_agent):
    # oracle assembled in the test: psi_m + quad of max(mu phi - c, 0) g,
    # with mu written from the family closed form (1 - pi) * hazard-free term
    for agent in (su_agent, st_agent):
        phi_s, c = agent.sensitivity, agent.audit_cost
        for th in (0.55, 0.6, 0.7, 0.8, 0.9):
            ih = rc.inverse_hazard(agent.types, th)
            lo, hi = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))

            def f(x):
                mu_x = (1 - x) / (1 - th) * ih
                return max(mu_x * phi_s - c, 0.0) * float(agent.income.pdf(x, th))

            gain, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-11,
                           points=[st_pi_star(th, c, phi_s)])
            oracle = th - ih + gain
            assert rc.virtual_value(agent, th) == pytest.approx(oracle, abs=1e-9)


def test_virtual_value_closed_form_curves(ua_agent, su_agent):
    for th in np.linspace(1.001, 2.0, 23):
        assert rc.virtual_value(ua_agent, float(th)) == pytest.approx(
            ua_psi(th), abs=1e-9)
    for th in np.linspace(0.501, 1.0, 23):
        assert rc.virtual_value(su_agent, float(th)) == pytest.approx(
            su_psi(th), abs=1e-9)


def test_phi_zero_collapses_to_myerson(ua_agent):
    agent = replace(ua_agent, sensitivity=0.0)
    for th in np.linspace(1, 2, 9):
        assert rc.virtual_value(agent, float(th)) == rc.myerson_virtual(agent, float(th))


def test_free_audit_virtual_value(ua_agent):
    # c = 0: psi = theta - (1 - phi)(1 - F)/f
    agent = replace(ua_agent, audit_cost=0.0)
    for th in np.linspace(1, 2, 17):
        expected = th - (1 - 0.5) * (2 - th)
        assert rc.virtual_value(agent, float(th)) == pytest.approx(expected, abs=1e-8)


def test_psi_dominates_myerson(ua_agent, su_agent, st_agent):
    for agent in (ua_agent, su_agent, st_agent):
        lo, hi = agent.types.lo, agent.types.hi
        for th in np.linspace(lo, hi, 33)[1:]:
            assert rc.virtual_value(agent, float(th)) >= \
                rc.myerson_virtual(agent, float(th)) - 1e-12


# ---------------------------------------------------------------------------
# Audit thresholds and royalty shares
# ---------------------------------------------------------------------------


def test_audit_threshold_golden(ua_agent, su_agent, st_agent):
    assert rc.audit_threshold(ua_agent, 1.5) == pytest.approx(2.5, abs=1e-10)
    assert rc.audit_threshold(ua_agent, 1.8) == 0.0
    assert rc.audit_threshold(su_agent, 0.6) == pytest.approx(0.5, abs=1e-10)
    assert rc.audit_threshold(st_agent, 0.75) == pytest.approx(2 / 3, abs=1e-10)
    assert rc.audit_threshold(st_agent, 0.8) == pytest.approx(0.625, abs=1e-10)


def test_audit_threshold_closed_form_curve(st_agent):
    for th in np.linspace(0.52, 0.99, 25):
        assert rc.audit_threshold(st_agent, float(th)) == pytest.approx(
            st_pi_star(th), abs=1e-9)


def test_audit_threshold_single_crossing_guard(ua_agent):
    class Oscillating:
        family = "osc"
        params = {}
        def supp_lo(self, th): return np.asarray(th) - 1.0
        def supp_hi(self, th): return np.asarray(th) + 1.0
        def cdf(self, pi, th): return np.clip((np.asarray(pi) - np.asarray(th) + 1) / 2, 0, 1)
        def pdf(self, pi, th): return np.full(np.broadcast_shapes(np.shape(pi), np.shape(th)), 0.5)
        def dcdf_dtheta(self, pi, th): return -self.pdf(pi, th)
        def g2_over_g(self, pi, th): return -(1.0 + 0.9 * np.sin(8 * np.asarray(pi)))
        def ppf(self, u, th): return np.asarray(th) - 1 + 2 * np.asarray(u)

    agent = replace(ua_agent, income=Oscillating(), audit_cost=0.45, sensitivity=0.5)
    with pytest.raises(rc.RegularityError):
        rc.audit_threshold(agent, 1.2)


def test_phi_cap_golden(ua_agent, su_agent):
    assert rc.phi_cap(ua_agent, 1.5) == pytest.approx(0.5, abs=1e-9)
    assert rc.phi_cap(ua_agent, 1.8) == 0.0
    # quadrature of (1 - pi) / (2 (1 - theta)^2) over [0.2, 0.5]
    assert rc.phi_cap(su_agent, 0.6) == pytest.approx(0.609375, abs=1e-9)


def test_phi_cap_bounds(ua_agent, su_agent, st_agent):
    for agent in (ua_agent, su_agent, st_agent):
        lo, hi = agent.types.lo, agent.types.hi
        for th in np.linspace(lo, hi, 41)[1:]:
            v = rc.phi_cap(agent, float(th))
            assert 0.0 <= v <= agent.sensitivity + 1e-12


# ---------------------------------------------------------------------------
# Allocation, royalties, audits, penalties
# ---------------------------------------------------------------------------


def test_allocation_examples(ua_agent, su_agent):
    inst = rc.AuctionInstance((ua_agent, su_agent))
    assert rc.allocation(inst, [1.5, 0.75]) == [1, 0]
    solo0 = rc.AuctionInstance((replace(ua_agent, sensitivity=0.0),))
    assert rc.allocation(solo0, [1.0]) == [0]  # psi exactly zero: unsold
    assert rc.allocation(rc.AuctionInstance((ua_agent,)), [1.01]) == [1]


def test_allocation_at_most_one_winner(ua_agent, su_agent):
    inst = rc.AuctionInstance((ua_agent, su_agent))
    rs = np.random.default_rng(2)
    for _ in range(25):
        prof = [1 + rs.uniform(), 0.5 + 0.5 * rs.uniform()]
        ind = rc.allocation(inst, prof)
        assert sum(ind) <= 1


def test_royalty_and_audit(su_agent, ua_agent):
    assert rc.royalty(su_agent, 0.6, 0.3) == pytest.approx(0.3)
    assert rc.royalty(su_agent, 0.6, 0.8) == pytest.approx(0.5)   # cap binds
    assert rc.royalty(ua_agent, 1.8, 1.5) == 0.0                  # cap at zero
    assert rc.audit_rule(su_agent, 0.6, 0.3) == 1
    assert rc.audit_rule(su_agent, 0.6, 0.8) == 0
    assert rc.audit_rule(ua_agent, 1.8, 2.0) == 0
    with pytest.raises(rc.ReportRejectedError):
        rc.royalty(su_agent, 0.6, 1.4)
    with pytest.raises(rc.ReportRejectedError):
        rc.audit_rule(su_agent, 0.8, 0.3)


def test_penalty_linear(ua_agent):
    assert rc.penalty(ua_agent, 1.5, 0.3, 0.7) == pytest.approx(0.2)
    assert rc.penalty(ua_agent, 1.5, 0.7, 0.7) == 0.0
    # slope phi in the true income
    for h in (0.1, 0.5, 1.3):
        base = rc.penalty(ua_agent, 1.5, 0.3, 0.7)
        assert rc.penalty(ua_agent, 1.5, 0.3, 0.7 + h) - base == pytest.approx(0.5 * h)


@given(pi_rep=st.floats(0.21, 0.99), pi_true=st.floats(0.0, 1.2))
@settings(max_examples=150, deadline=None)
def test_royalty_capped_and_nonnegative(pi_rep, pi_true):
    agent = scaled_uniform_agent()
    cap = 0.5  # audit threshold at theta = 0.6
    r = rc.royalty(agent, 0.6, pi_rep)
    assert 0.0 <= r <= cap * agent.sensitivity + 1e-12
    p = rc.penalty(agent, 0.6, pi_rep, pi_true)
    assert p == pytest.approx((pi_true - pi_rep) * agent.sensitivity)


# ---------------------------------------------------------------------------
# Transfers and menus
# ---------------------------------------------------------------------------


def test_transfer_golden(ua_inst):
    assert rc.transfer(ua_inst, 0, [1.3]) == pytest.approx(0.5, abs=1e-9)
    assert rc.transfer(ua_inst, 0, [1.8]) == pytest.approx(1.3, abs=1e-9)


def test_transfer_quadrature_oracle(su_inst):
    # independent oracle: t = E[pi - min(pi, cap)] phi-adjusted by quadrature,
    # minus int (1 - Phi) with Phi from its defining integral
    agent = su_inst.agents[0]
    th = 0.65
    cap = 0.5
    e_net = quad(lambda x: (x - min(x, cap) * 1.0) * float(agent.income.pdf(x, th)),
                 float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th)),
                 points=[cap], epsabs=1e-13)[0]

    def cap_of(z):
        return st_pi_star(z, 0.5, 1.0) if False else min(max(0.5, 2 * z - 1), 1.0)

    def one_minus_phi_cap(z):
        lo = float(agent.income.supp_lo(z))
        c = 0.5 if z <= 0.75 else 0.0
        if c <= lo:
            return 1.0
        val = quad(lambda x: -float(agent.income.dcdf_dtheta(x, z)), lo, c,
                   epsabs=1e-13)[0]
        return 1.0 - val

    theta0 = 0.5  # psi > 0 on the whole interior
    rent = quad(one_minus_phi_cap, theta0, th, epsabs=1e-12, limit=200)[0]
    assert rc.transfer(su_inst, 0, [th]) == pytest.approx(e_net - rent, abs=1e-7)


def test_transfer_zero_for_loser(ua_agent, su_agent):
    inst = rc.AuctionInstance((ua_agent, su_agent))
    assert rc.transfer(inst, 1, [1.5, 0.75]) == 0.0


def test_transfer_weakly_increasing(ua_inst, su_inst, st_inst):
    for inst in (ua_inst, su_inst, st_inst):
        agent = inst.agents[0]
        tabs = rc.tables_for(inst)
        lo, hi = agent.types.lo, agent.types.hi
        ths = np.linspace(lo, hi, 52)[1:]
        t_prev = -np.inf
        for th in ths:
            psi = float(tabs.psi(0, th))
            t = float(tabs.transfer_win(0, th, 0.0)) if psi > 0 else 0.0
            assert t >= t_prev - 1e-9
            t_prev = t


def test_menu_golden(ua_agent):
    theta_star, theta_0 = rc.menu_cutoffs(ua_agent)
    assert theta_star == pytest.approx(1.6, abs=1e-10)
    assert theta_0 == pytest.approx(1.0, abs=1e-12)
    menu = rc.binary_menu(ua_agent)
    assert [c.kind for c in menu] == ["lump_sum", "linear_royalty"]
    assert menu[0].upfront_price == pytest.approx(1.3, abs=1e-9)
    assert menu[1].upfront_price == pytest.approx(0.5, abs=1e-9)
    assert menu[1].royalty_rate == 0.5 and menu[1].audited


def test_menu_single_contract_cases(ua_agent):
    # phi = 0: lump sum at the Myerson root
    m = rc.binary_menu(replace(ua_agent, sensitivity=0.0))
    assert len(m) == 1 and m[0].upfront_price == pytest.approx(1.0, abs=1e-9)
    # auditing never pays: same
    m = rc.binary_menu(replace(ua_agent, audit_cost=10.0))
    assert len(m) == 1
    with pytest.raises(rc.UnsupportedInstanceError):
        rc.binary_menu(scaled_uniform_agent())


# ---------------------------------------------------------------------------
# Endogenous virtual value and payoff bound
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("error")
def test_endogenous_virtual(ua_inst, ua_agent, su_inst, st_inst):
    never = lambda prof, p: 0.0
    always = lambda prof, p: 1.0
    assert rc.endogenous_virtual(ua_inst, 0, [1.5], never) == pytest.approx(1.0, abs=1e-10)
    assert rc.endogenous_virtual(ua_inst, 0, [1.5], always) == pytest.approx(1.05, abs=1e-10)
    # the rule switches inside a Gauss-Legendre piece of the income support
    # [0.5, 2.5]: auditing [0.5, 1.3] gains 0.05 * 0.4 over psi_m = 1
    below = lambda prof, p: float(p < 1.3)
    assert rc.endogenous_virtual(ua_inst, 0, [1.5], below) == pytest.approx(1.02, abs=1e-10)
    optimal = lambda prof, p: float(rc.mu(ua_agent, prof[0], p) * 0.5 >= 0.2)
    assert rc.endogenous_virtual(ua_inst, 0, [1.5], optimal) == pytest.approx(
        rc.virtual_value(ua_agent, 1.5), abs=1e-8)
    # scaled families, where mu varies with income, against adaptive quadrature
    window = lambda prof, p: float(0.6 < p < 0.8)
    above = lambda prof, p: float(p > 0.75)
    for inst in (su_inst, st_inst):
        for rule in (window, above, always):
            assert rc.endogenous_virtual(inst, 0, [0.7], rule) == pytest.approx(
                oracles.endogenous_virtual(inst, 0, [0.7], rule), abs=1e-12)


def test_payoff_bound_golden(ua_inst):
    full = rc.AuctionInstance((uniform_additive_agent(audit_cost=0.0, sensitivity=1.0),))
    assert rc.payoff_bound(full) == pytest.approx(1.5, abs=1e-9)
    none = rc.AuctionInstance((uniform_additive_agent(sensitivity=0.0),))
    # E[(2 theta - 2)_+] over U[1,2] = 1 (piecewise integral)
    assert rc.payoff_bound(none) == pytest.approx(1.0, abs=1e-9)
    # uniform_additive: 1 + int_1^1.6 ((2-theta)/2 - 0.2) = 1.09
    assert rc.payoff_bound(ua_inst) == pytest.approx(1.09, abs=1e-9)


def test_payoff_bound_two_agent_tensor_oracle(pair_inst):
    bound = rc.payoff_bound(pair_inst)
    ta = np.linspace(1 + 1e-9, 2, 801)
    tb = np.linspace(0.5 + 1e-9, 1, 801)
    pa = np.array([ua_psi(t) for t in ta])
    pb = np.array([su_psi(t) for t in tb])
    mx = np.maximum(np.maximum.outer(pa, pb), 0.0)
    oracle = np.trapezoid(np.trapezoid(mx * 2.0, tb, axis=1), ta)
    assert bound == pytest.approx(oracle, abs=2e-4)


@pytest.mark.filterwarnings("error")
def test_myerson_cash_revenue_oracles():
    # single agent U[1,2]: posted-price grid search oracle
    one = rc.AuctionInstance((cash_only_agent(1.0, 2.0),))
    prices = np.linspace(0.5, 2.0, 3001)
    revenue = prices * (1 - np.clip(prices - 1, 0, 1))
    assert rc.myerson_cash_revenue(one) == pytest.approx(revenue.max(), abs=1e-6)
    # single agent U[0,1]: classic posted price 1/2
    zero_one = rc.AuctionInstance((cash_only_agent(0.0, 1.0),))
    assert rc.myerson_cash_revenue(zero_one) == pytest.approx(0.25, abs=1e-9)
    # single agent, triangular on [1, 2] with mode 1.3: posted-price grid search
    tri = rc.AuctionInstance((cash_only_agent(1.0, 2.0, mode=1.3),))
    prices = np.linspace(1.0, 2.0, 200_001)
    cdf = np.where(prices < 1.3, (prices - 1) ** 2 / 0.3, 1 - (2 - prices) ** 2 / 0.7)
    assert rc.myerson_cash_revenue(tri) == pytest.approx(np.max(prices * (1 - cdf)), abs=1e-9)
    # two iid U[0,1]: 5/12 (brute 2-d tensor quadrature oracle)
    two = rc.AuctionInstance((cash_only_agent(0.0, 1.0), cash_only_agent(0.0, 1.0)))
    g = np.linspace(0, 1, 1201)
    vv = np.maximum(np.maximum.outer(2 * g - 1, 2 * g - 1), 0.0)
    oracle = np.trapezoid(np.trapezoid(vv, g, axis=1), g)
    assert rc.myerson_cash_revenue(two) == pytest.approx(oracle, abs=2e-6)
    assert rc.myerson_cash_revenue(two) == pytest.approx(5 / 12, abs=1e-8)


def test_myerson_requires_increasing_virtual_value():
    # F = sqrt(theta - 1) on [1, 2] has a decreasing Myerson virtual value
    g = np.linspace(1, 2, 257)
    agent = rc.AgentSpec(
        rc.make_type_dist("table", {"grid": g, "cdf": np.sqrt(g - 1)}),
        rc.make_income_family(
            "additive_error",
            {"error": {"family": "uniform", "lo": -1e-12, "hi": 1e-12}}),
        0.0, 0.0)
    with pytest.raises(rc.RegularityError):
        rc.myerson_cash_revenue(rc.AuctionInstance((agent,)))


def test_full_extraction_revenue():
    one = rc.AuctionInstance((cash_only_agent(1.0, 2.0),))
    assert rc.full_extraction_revenue(one) == pytest.approx(1.5, abs=1e-10)
    two = rc.AuctionInstance((cash_only_agent(0.0, 1.0), cash_only_agent(0.0, 1.0)))
    assert rc.full_extraction_revenue(two) == pytest.approx(2 / 3, abs=1e-10)
    # triangular on [1, 2] with mode 1.3, a knot of F where the integral must be cut
    tri = cash_only_agent(1.0, 2.0, mode=1.3)
    assert rc.full_extraction_revenue(rc.AuctionInstance((tri,))) == pytest.approx(
        4.3 / 3, abs=1e-12)
    # two of them: 1 + int_1^2 (1 - F^2), F = (t - 1)^2 / 0.3 below the mode and
    # 1 - (2 - t)^2 / 0.7 above it
    exact = 1 + 0.3 - 0.3 ** 5 / 0.45 + 2 * 0.7 ** 3 / 2.1 - 0.7 ** 5 / 2.45
    assert rc.full_extraction_revenue(rc.AuctionInstance((tri, tri))) == pytest.approx(
        exact, abs=1e-12)


def test_revenue_ordering(shipped_instances):
    for name, inst in shipped_instances.items():
        myerson = rc.myerson_cash_revenue(inst)
        bound = rc.payoff_bound(inst)
        full = rc.full_extraction_revenue(inst)
        assert myerson <= bound + 1e-9, name
        assert bound <= full + 1e-9, name


@pytest.mark.filterwarnings("error")
def test_revenue_functionals_match_quad_oracles(shipped_instances):
    # the Gauss-Legendre sums over the table grids against adaptive quadrature
    for name, inst in shipped_instances.items():
        for fn in ("payoff_bound", "myerson_cash_revenue", "full_extraction_revenue"):
            assert getattr(rc, fn)(inst) == pytest.approx(getattr(oracles, fn)(inst),
                                                          abs=1e-9), (name, fn)


def test_full_extraction_equals_bound_when_free(su_agent):
    agent = replace(su_agent, audit_cost=0.0, sensitivity=1.0)
    inst = rc.AuctionInstance((agent,))
    assert rc.payoff_bound(inst) == pytest.approx(
        rc.full_extraction_revenue(inst), abs=1e-8)
    for th in np.linspace(0.55, 1.0, 9):
        assert rc.virtual_value(agent, float(th)) == pytest.approx(th, abs=1e-8)


# ---------------------------------------------------------------------------
# Payment curve shape and tables
# ---------------------------------------------------------------------------


def test_payment_curve_slope(su_inst, st_inst):
    # total payment t + r(pi): slope phi below the cap, flat above
    for inst, th in ((su_inst, 0.6), (st_inst, 0.75)):
        agent = inst.agents[0]
        phi_s = agent.sensitivity
        cap = rc.audit_threshold(agent, th)
        t = rc.transfer(inst, 0, [th])
        lo, hi = float(agent.income.supp_lo(th)), float(agent.income.supp_hi(th))
        assert lo < cap < hi
        h = 1e-6
        for pi in np.linspace(lo + 2 * h, cap - 2 * h, 7):
            s0 = t + rc.royalty(agent, th, float(pi))
            s1 = t + rc.royalty(agent, th, float(pi) + h)
            assert (s1 - s0) / h == pytest.approx(phi_s, abs=1e-6)
        for pi in np.linspace(cap + 2 * h, hi - 2 * h, 7):
            s0 = t + rc.royalty(agent, th, float(pi))
            s1 = t + rc.royalty(agent, th, float(pi) + h)
            assert (s1 - s0) / h == pytest.approx(0.0, abs=1e-6)


def test_tables_match_exact_ops(shipped_instances):
    for name, inst in shipped_instances.items():
        tabs = rc.tables_for(inst)
        rs = np.random.default_rng(4)
        for i, agent in enumerate(inst.agents):
            lo, hi = agent.types.lo, agent.types.hi
            for th in lo + (hi - lo) * rs.uniform(0.02, 0.98, 8):
                th = float(th)
                assert tabs.psi(i, th) == pytest.approx(
                    oracles.virtual_value(agent, th), abs=2e-7)
                assert tabs.pi_star(i, th) == pytest.approx(
                    oracles.audit_threshold(agent, th), abs=1e-6)
                assert tabs.phi_cap(i, th) == pytest.approx(
                    oracles.phi_cap(agent, th), abs=2e-7)
                assert tabs.income_net_royalty(i, th) == pytest.approx(
                    oracles.expected_income_net_royalty(agent, th), abs=2e-7)


def test_scalar_entry_points_match_quad_oracles(shipped_instances):
    # the thin wrappers over the piecewise kernel against adaptive quadrature
    worst = {}
    for name, inst in shipped_instances.items():
        rs = np.random.default_rng(5)
        for agent in inst.agents:
            lo, hi = agent.types.lo, agent.types.hi
            for th in np.concatenate([lo + (hi - lo) * rs.uniform(0.02, 0.98, 6), [hi]]):
                for fn in ("virtual_value", "audit_threshold", "phi_cap",
                           "expected_income_net_royalty"):
                    err = abs(getattr(rc, fn)(agent, float(th))
                              - getattr(oracles, fn)(agent, float(th)))
                    worst[fn] = max(worst.get(fn, 0.0), err)
    assert max(worst.values()) <= 1e-9, worst
    for inst, profiles in ((shipped_instances["scaled_uniform"], ([0.6], [0.65], [0.9])),
                           (shipped_instances["mixed_pair"], ([1.4, 0.8], [1.9, 0.6]))):
        for prof in profiles:
            for i in range(inst.n_agents):
                assert rc.transfer(inst, i, prof) == pytest.approx(
                    oracles.transfer(inst, i, prof), abs=1e-8)


@pytest.mark.parametrize("knots", [(1.0, 1.4, 2.0), (1.0, 1.5, 2.0)])
def test_tables_exact_on_kinked_table_family(knots):
    # the income law has kinks at the row grid points and support jumps at
    # the type knots; piecewise quadrature reproduces the closed forms on
    # the whole grid, knots included
    agent = table_income_agent(knots, audit_cost=0.0)
    t = rc.tables_for(rc.AuctionInstance((agent,))).agents[0]
    assert np.max(np.abs(t.psi - (1.5 * t.theta - 1.0))) <= 1e-9
    assert np.max(np.abs(t.income_net_royalty - 0.5 * t.theta)) <= 1e-9
    assert np.max(np.abs(t.phi_cap - 0.5)) <= 1e-9
    for th in (1.0, 1.4, 1.5, 1.77, 2.0):
        assert rc.virtual_value(agent, th) == pytest.approx(1.5 * th - 1.0, abs=1e-9)
    assert rc.payoff_bound(rc.AuctionInstance((agent,))) == pytest.approx(1.25, abs=1e-9)


def test_entry_points_reject_non_single_crossing_family():
    # with c > 0 the audit surplus of the knots-1/1.5/2 copy dips below zero
    # at the bottom of the income support and recovers: no entry point may
    # return numbers for it
    inst = rc.AuctionInstance((table_income_agent((1.0, 1.5, 2.0), audit_cost=0.2),))
    assert not rc.check_regularity(inst.agents[0]).all_ok
    for call in (lambda: rc.tables_for(inst),
                 lambda: rc.estimate_revenue(inst, n_runs=1000),
                 lambda: rc.virtual_value(inst.agents[0], 1.2),
                 lambda: rc.audit_threshold(inst.agents[0], 1.2)):
        with pytest.raises(rc.RegularityError):
            call()


def test_pi_star_weakly_decreasing_fixed_support(su_agent, st_agent):
    # monotone royalty caps hold when the support top does not shift
    for agent in (su_agent, st_agent):
        ths = np.linspace(agent.types.lo + 1e-6, agent.types.hi, 129)
        caps = [rc.audit_threshold(agent, float(t)) for t in ths]
        assert np.all(np.diff(caps) <= 1e-9)


# ---------------------------------------------------------------------------
# Located table lookups
# ---------------------------------------------------------------------------

_TYPE_ARRAYS = ("psi_m", "psi", "pi_star", "phi_cap", "income_net_royalty", "rent_cum",
                "win_prob", "interim_transfer", "interim_rent")
_LOOKUPS = {"psi_m": "psi_m", "psi": "psi", "pi_star": "pi_star", "phi_cap": "phi_cap",
            "income_net_royalty": "income_net_royalty", "rent_below": "rent_cum"}


def _bitwise_equal(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _probe_points(data, xp):
    """Random points around the grid, every grid point and its neighbouring
    floats, and both ends from inside and outside."""
    lo, hi = float(xp[0]), float(xp[-1])
    pad = hi - lo
    drawn = data.draw(st.lists(st.floats(lo - pad, hi + pad), min_size=1, max_size=300))
    return np.concatenate([drawn, xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                           [lo - pad, hi + pad, -np.inf, np.inf]])


def _zero_density_pair():
    """Two bidders whose type density vanishes at the bottom (triangular,
    mode = hi): the psi grid starts near -2.5e8, far below its other points."""
    agent = replace(uniform_additive_agent(),
                    types=rc.make_type_dist("triangular", {"lo": 1.0, "hi": 2.0}))
    return rc.AuctionInstance((agent, agent))


@pytest.fixture(scope="module")
def lookup_tables(shipped_instances):
    insts = list(shipped_instances.values()) + [
        rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0),)),
        _zero_density_pair()]
    return [(rc.tables_for(inst), i) for inst in insts for i in range(inst.n_agents)]


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_located_lookup_equals_np_interp(lookup_tables, data):
    # every table quantity, on both grids, bit for bit; the tabulated income
    # family puts kink triplets 1e-12 apart into the type grid
    tables, i = data.draw(st.sampled_from(lookup_tables))
    t = tables.agents[i]
    x = _probe_points(data, t.theta)
    at = tables.locate(i, x)
    for name in _TYPE_ARRAYS:
        assert _bitwise_equal(at.interp(getattr(t, name)), np.interp(x, t.theta, getattr(t, name)))
    for method, name in _LOOKUPS.items():
        want = np.interp(x, t.theta, getattr(t, name))
        assert _bitwise_equal(getattr(tables, method)(i, x), want)
        scalar = getattr(tables, method)(i, float(x[0]))
        assert isinstance(scalar, np.float64) and _bitwise_equal(scalar, want[0])
    v = _probe_points(data, t.psi)
    assert _bitwise_equal(tables.threshold_type(i, v), np.interp(v, t.psi, t.theta))
    rival = np.maximum(np.resize(v, x.size), 0.0)
    want = (np.interp(x, t.theta, t.income_net_royalty)
            - (np.interp(x, t.theta, t.rent_cum)
               - np.interp(np.interp(rival, t.psi, t.theta), t.theta, t.rent_cum)))
    assert _bitwise_equal(tables.transfer_win(i, x, rival), want)


@given(steps=st.lists(st.sampled_from([-0.5, 0.0, 0.25, 1.0, 3.0]), min_size=2, max_size=40),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_located_lookup_handles_repeated_grid_values(steps, data):
    # np.maximum.accumulate leaves runs of equal values in a psi grid,
    # possibly at either end
    xp = np.maximum.accumulate(np.cumsum(steps))
    if xp[-1] == xp[0]:
        return
    fp = np.asarray(data.draw(st.lists(st.floats(-10.0, 10.0), min_size=xp.size,
                                       max_size=xp.size)))
    x = _probe_points(data, xp)
    at = rc.mech.GridPoints.locate(xp, rc.mech._guide_table(xp), x)
    assert _bitwise_equal(at.interp(fp), np.interp(x, xp, fp))
    sel = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=x.size, max_size=x.size)))
    assert _bitwise_equal(at.take(sel).interp(fp), np.interp(x[sel], xp, fp))


def test_located_lookup_cost_ignores_grid_spread():
    # one far outlier squeezes the rest of this psi grid into a sliver of
    # its range; a search that scans cells would be hundreds of times slower
    # than np.interp's binary search here
    tables = rc.tables_for(_zero_density_pair())
    t = tables.agents[0]
    assert t.psi[0] < -1e8 and np.sum(t.psi <= 0.0) > 1000
    v = np.random.default_rng(0).uniform(0.0, t.psi[-1], 1 << 15)

    def best_of(f, reps=5):
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            f()
            times.append(time.perf_counter() - start)
        return min(times)

    assert _bitwise_equal(tables.threshold_type(0, v), np.interp(v, t.psi, t.theta))
    located = best_of(lambda: tables.threshold_type(0, v))
    assert located < 10 * best_of(lambda: np.interp(v, t.psi, t.theta))


# ---------------------------------------------------------------------------
# Regime-change kinks
# ---------------------------------------------------------------------------


def test_threshold_kinks_skip_the_support_end(monkeypatch):
    # with c = 0 the surplus is exactly 0 at the top type; that bracket holds
    # no kink and is not bisected
    calls = []
    bisect = rc.mech._bisect
    monkeypatch.setattr(rc.mech, "_bisect", lambda *a: calls.append(a) or bisect(*a))
    assert rc.mech._threshold_kinks(table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0)) == []
    assert calls == []


def test_threshold_kinks_keep_crossings_inside_the_last_cell(monkeypatch, ua_agent):
    # the last cell of the 513-point scan is [1.998..., 2]
    assert rc.mech._threshold_kinks(replace(ua_agent, audit_cost=0.0005)) == pytest.approx(
        [1.999], abs=1e-12)
    # additive errors make the edge surplus phi (1 - F)/f; this stand-in
    # turns negative at 1.999 and is 0 at the top type, as with c = 0
    monkeypatch.setattr(rc.mech, "inverse_hazard", lambda types, t: (2.0 - t) * (1.999 - t))
    assert rc.mech._threshold_kinks(replace(ua_agent, audit_cost=0.0)) == pytest.approx(
        [1.999], abs=1e-12)
