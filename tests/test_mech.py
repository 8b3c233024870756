import ast
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import fields, replace
from hypothesis import example, given, reject, settings, strategies as st
from scipy.integrate import quad

import oracles
import royaltycap as rc
from conftest import (
    UNIT_ERR,
    cash_only_agent,
    distinct_bidders,
    rising_gap_agent,
    st_pi_star,
    su_psi,
    table_income_agent,
    tent_error_inst,
    ua_psi,
)
from royaltycap.instances import (
    mixed_pair,
    scaled_triangular,
    scaled_triangular_agent,
    scaled_uniform,
    scaled_uniform_agent,
    uniform_additive_agent,
)


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


@given(lo=st.floats(0.5, 0.9), c=st.floats(0.0, 0.6), phi=st.floats(0.05, 1.0),
       family=st.sampled_from(["additive_error", "scaled_error"]))
@example(lo=0.5, c=0.5, phi=1.0, family="scaled_error")   # scaled_triangular
@settings(max_examples=25, deadline=None)
def test_bottom_type_of_vanishing_density_law(lo, c, phi, family):
    # triangular types with mode = hi: the density vanishes at the bottom,
    # where the inverse hazard is +inf and psi is inf - inf; auditing pays on
    # the whole income support there, so Phi and E[pi - royalty] are finite
    # and do not depend on it (no warning: the suite makes warnings errors)
    if family == "scaled_error":
        base, support = scaled_uniform_agent(c, phi), {"lo": lo, "hi": 1.0}
    else:
        base, support = uniform_additive_agent(c, phi), {"lo": lo + 0.5, "hi": lo + 1.5}
    agent = replace(base, types=rc.make_type_dist("triangular", support))
    bottom = agent.types.lo
    assert np.isinf(rc.inverse_hazard(agent.types, bottom))
    assert rc.phi_cap(agent, bottom) == pytest.approx(oracles.phi_cap(agent, bottom), abs=1e-9)
    assert rc.phi_cap(agent, bottom) == pytest.approx(phi, abs=1e-9)
    assert rc.expected_income_net_royalty(agent, bottom) == pytest.approx(
        oracles.expected_income_net_royalty(agent, bottom), abs=1e-9)
    for theta in (bottom, np.array([bottom, 0.5 * (bottom + agent.types.hi)])):
        with pytest.raises(rc.DomainError):
            rc.virtual_value(agent, theta)
    assert np.isfinite(rc.virtual_value(agent, rc.mech._psi_floor(agent)))


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


class ScaledUniformByHand(rc.IncomeFamily):
    """scaled_uniform's income law pi = theta + s eps, s = 1 - theta,
    eps ~ U[-1, 1], written out through the seven methods of the family
    contract alone: no ``ratio_crossing`` (the audit threshold is bisected)
    and no ``ratio_nonincreasing`` (the single-crossing scan probes).  With
    z = (b' - theta) / s: G = (z + 1) / 2, g = 1 / (2 s),
    -G_theta / g = (1 - pi) / s, Phi / phi = G (1 - z) + (z + 1)^2 / 4 and
    int (1 - G) = s ((z + 1) - (z + 1)^2 / 4); the top type (s = 0) earns
    its type."""

    family = "scaled_uniform_by_hand"

    def __init__(self):
        super().__init__({})

    @staticmethod
    def _z(pi, theta):
        s = 1.0 - np.asarray(theta, dtype=float)
        return s, (np.asarray(pi, dtype=float) - theta) / np.where(s > 0, s, 1.0)

    def supp_lo(self, theta):
        return np.asarray(theta, dtype=float) - (1.0 - np.asarray(theta, dtype=float))

    def supp_hi(self, theta):
        return np.asarray(theta, dtype=float) + (1.0 - np.asarray(theta, dtype=float))

    def cdf(self, pi, theta):
        s, z = self._z(pi, theta)
        return np.where(s > 0, np.clip((z + 1.0) / 2.0, 0.0, 1.0), np.asarray(pi) >= theta)[()]

    def pdf(self, pi, theta):
        s, z = self._z(pi, theta)
        return np.where((s > 0) & (np.abs(z) <= 1.0), 0.5 / np.where(s > 0, s, 1.0), 0.0)[()]

    def g2_over_g(self, pi, theta):
        with np.errstate(divide="ignore", invalid="ignore"):
            return ((np.asarray(pi, dtype=float) - 1.0) / (1.0 - np.asarray(theta)))[()]

    def audit_region(self, theta, b):
        s, z = self._z(b, theta)
        z = np.clip(z, -1.0, 1.0)
        g, k, top = (z + 1.0) / 2.0, (z + 1.0) ** 2 / 4.0, s == 0
        return (np.where(top, np.asarray(b) >= theta, g), np.where(top, 0.0, g * (1.0 - z) + k),
                s * ((z + 1.0) - k))

    def ppf(self, u, theta):
        theta = np.asarray(theta, dtype=float)
        return theta + (1.0 - theta) * (2.0 * np.asarray(u, dtype=float) - 1.0)


@pytest.fixture(scope="module")
def by_hand_inst(su_inst):
    """scaled_uniform with its income law written by hand (U[1/2, 1] types,
    c = 0.5, phi = 1)."""
    return rc.AuctionInstance((replace(su_inst.agents[0], income=ScaledUniformByHand()),))


# a family with supp_lo, supp_hi, cdf, pdf, g2_over_g, audit_region and ppf
# alone passes check, builds scaled_uniform's tables, simulates its revenue
# and certifies truthful play

def test_seven_method_family_passes_check(by_hand_inst):
    assert rc.check_regularity(by_hand_inst.agents[0], 64, 64).all_ok


def test_seven_method_family_builds_the_family_tables(by_hand_inst, su_inst):
    got, want = rc.tables_for(by_hand_inst).agents[0], rc.tables_for(su_inst).agents[0]
    for f in fields(got):
        a, b = (np.asarray(getattr(t, f.name)) for t in (got, want))
        assert a.shape == b.shape and np.allclose(a, b, rtol=0.0, atol=1e-12), f.name


def test_seven_method_family_revenue_matches_the_payoff_bound(by_hand_inst):
    rep = rc.estimate_revenue(by_hand_inst, None, n_runs=100_000, seed=7)
    assert abs(rep.revenue_net_audits - rc.payoff_bound(by_hand_inst)) <= 4 * rep.revenue_se


def test_seven_method_family_certifies_truthful_play(by_hand_inst):
    thetas = rc.mech._interior_grid(by_hand_inst.agents[0].types, 8)
    for response in rc.best_responses(by_hand_inst, 0, thetas, 64):
        for strategy in ("truthful_projection", "grid_best"):
            assert response[strategy].advantage <= 1e-6, (strategy, response[strategy])


def test_audit_threshold_single_crossing_guard(ua_agent):
    class Oscillating:
        family = "osc"
        params = {}
        def supp_lo(self, th): return np.asarray(th) - 1.0
        def supp_hi(self, th): return np.asarray(th) + 1.0
        def cdf(self, pi, th): return np.clip((np.asarray(pi) - np.asarray(th) + 1) / 2, 0, 1)
        def pdf(self, pi, th): return np.full(np.broadcast_shapes(np.shape(pi), np.shape(th)), 0.5)
        def g2_over_g(self, pi, th): return -(1.0 + 0.9 * np.sin(8 * np.asarray(pi)))
        def ppf(self, u, th): return np.asarray(th) - 1 + 2 * np.asarray(u)

    agent = replace(ua_agent, income=Oscillating(), audit_cost=0.45, sensitivity=0.5)
    with pytest.raises(rc.RegularityError):
        rc.audit_threshold(agent, 1.2)


@st.composite
def _mean_zero_error(draw):
    """A mean-zero error law straddling zero: uniform, triangular, or a
    symmetric table (a mix of the uniform and the tent law on 3-15 knots)."""
    a = draw(st.floats(0.05, 1.0))
    kind = draw(st.sampled_from(["uniform", "triangular", "table"]))
    if kind == "uniform":
        return {"family": "uniform", "lo": -a, "hi": a}
    if kind == "triangular":
        b = draw(st.floats(0.5, 2.0)) * a
        return {"family": "triangular", "lo": -a, "hi": b, "mode": a - b}
    g = np.linspace(-a, a, 2 * draw(st.integers(1, 7)) + 1)
    tent = np.where(g < 0, 0.5 * (g / a + 1) ** 2, 1 - 0.5 * (1 - g / a) ** 2)
    w = draw(st.floats(0.0, 1.0))
    return {"family": "table", "grid": g, "cdf": w * (g + a) / (2 * a) + (1 - w) * tent}


@given(family=st.sampled_from(["additive_error", "scaled_error"]), error=_mean_zero_error(),
       lo=st.floats(0.5, 0.9), width=st.floats(0.01, 1.0), mode=st.floats(0.0, 1.0),
       triangular=st.booleans(), c=st.floats(0.0, 2.0), phi=st.floats(0.0, 1.0),
       u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_families_that_prove_single_crossing_probe_to_exactly_zero(
        family, error, lo, width, mode, triangular, c, phi, u):
    # -G_theta/g is 1 (additive) or (1 - pi)/(1 - theta) (scaled): the surplus
    # never rises along the increasing probes, so the 65-probe scan reads
    # exactly 0.0 at every type, the answer _single_crossing_scan returns
    # without probing; the type law may vanish at its bottom (ih = +inf)
    if family == "scaled_error":
        hi = min(1.0, lo + width)
    else:
        lo, hi = 1.0 + lo, 1.0 + lo + 2 * width
    support = {"lo": lo, "hi": hi}
    types = (rc.make_type_dist("triangular", {**support, "mode": lo + mode * (hi - lo)})
             if triangular else rc.make_type_dist("uniform", support))
    if family == "scaled_error" and rc.make_type_dist(error["family"], error).hi > 1.0:
        # -G_theta/g = 1 - z is negative past z = 1: such a family is refused
        with pytest.raises(rc.ConstructionError):
            rc.make_income_family(family, {"error": error})
        return
    agent = rc.AgentSpec(types, rc.make_income_family(family, {"error": error}), c, phi)
    assert agent.income.ratio_nonincreasing
    thetas = np.concatenate([[lo, hi], lo + np.array(u) * (hi - lo)])
    probed = rc.mech._probe_single_crossing(agent, thetas)
    assert probed.tolist() == [0.0] * thetas.size
    assert np.array_equal(rc.mech._single_crossing_scan(agent, thetas).view(np.int64),
                          probed.view(np.int64))


def test_tabulated_families_are_probed():
    # only a family that declares the proof skips the scan; a tabulated one
    # declares it where every knot interval's quantile gap D_j is
    # nonincreasing in u (decided at construction), and duck-typed ones lack
    # the attribute (test_audit_threshold_single_crossing_guard)
    assert table_income_agent((1.0, 1.4, 2.0), 0.0).income.ratio_nonincreasing
    assert not rising_gap_agent(0.0).income.ratio_nonincreasing
    assert not rc.IncomeFamily.ratio_nonincreasing


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


def test_wrong_length_type_profile_is_a_domain_error(pair_inst):
    # a package error, and still a ValueError, for every entry point that
    # builds a type profile
    calls = [lambda: rc.allocation(pair_inst, [1.5]),
             lambda: rc.transfer(pair_inst, 0, [1.5, 0.75, 0.75]),
             lambda: rc.crossing_point(pair_inst, 0, 1.7, 1.8, []),
             lambda: rc.best_response_income(pair_inst, 0, 1.8, [], 1.8)]
    for call in calls:
        with pytest.raises(rc.DomainError, match="expected 2 types per profile") as exc:
            call()
        assert isinstance(exc.value, ValueError)


def test_allocation_at_most_one_winner(ua_agent, su_agent):
    inst = rc.AuctionInstance((ua_agent, su_agent))
    rs = np.random.default_rng(2)
    for _ in range(25):
        prof = [1 + rs.uniform(), 0.5 + 0.5 * rs.uniform()]
        ind = rc.allocation(inst, prof)
        assert sum(ind) <= 1


_PSI_VALUES = st.sampled_from([-1.0, -0.25, -0.0, 0.0, 0.25, 0.5]) | st.floats(-2.0, 2.0)


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(_PSI_VALUES, min_size=n, max_size=n), min_size=1, max_size=12)))
@settings(max_examples=300, deadline=None)
def test_allocate_matches_reference_rule(rows):
    # the vectorized rule against the scalar one, row by row: exact ties for
    # the top, zeros and negatives leave the asset unsold
    winner, rival = rc.mech._allocate(np.array(rows, dtype=float))
    for row, w, r in zip(rows, winner.tolist(), rival.tolist()):
        ref = [oracles.wins(row, i) for i in range(len(row))]
        assert w == next((i for i, (won, _) in enumerate(ref) if won), -1), row
        if w >= 0:
            assert r == ref[w][1], row


def test_settle_matches_reference_rule():
    # every combination of income, report, cap, support top and phi, with
    # the report at the cap both below and at the support top, and caps just
    # inside (1 - 1e-13) and outside (1 - 1e-7) the audit band below a top of 1
    pi_true, report, cap, top, phi = (a.ravel() for a in np.meshgrid(
        [0.2, 1.7], [0.0, 0.5, 1.0 - 1e-7, 1.0 - 1e-13, 1.0, 3.0],
        [0.5, 1.0 - 1e-7, 1.0 - 1e-13, 1.0, 3.0], [1.0, 3.0], [0.5, 1.0], indexing="ij"))
    got = rc.mech._settle(pi_true, report, cap, top, phi)
    want = [oracles.settle(*args) for args in zip(pi_true, report, cap, top, phi)]
    for k, (r, a, p) in enumerate(want):
        assert (got[0][k], bool(got[1][k]), got[2][k]) == (r, a, p), k
    assert got[1][(report == 3.0) & (cap == 3.0) & (top == 3.0)].all()
    assert not got[1][(report == 1.0) & (cap == 1.0) & (top == 3.0)].any()
    # the band: a cap 1e-13 below a top of 1 audits the top report, 1e-7 below does not
    assert got[1][(report == 1.0) & (cap == 1.0 - 1e-13) & (top == 1.0)].all()
    assert not got[1][(report == 1.0) & (cap == 1.0 - 1e-7) & (top == 1.0)].any()
    # a randomized audit rule supplies its own draws: the royalty stays, the
    # penalty follows the draws
    draws = np.arange(pi_true.size) % 3 == 0
    r, a, p = rc.mech._settle(pi_true, report, cap, top, phi, draws)
    assert np.array_equal(r, got[0]) and a is draws
    assert np.array_equal(p, np.where(draws, (pi_true - report) * phi, 0.0))


def test_where_zero_is_np_where_bit_for_bit():
    # the settlement's branch-free select against np.where(mask, x, 0.0), on
    # signed zeros, infinities, NaN, subnormals and random floats, with
    # scalar and broadcast operands
    rs = np.random.default_rng(5)
    x = np.concatenate([rs.normal(size=200),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]])
    mask = rs.random(x.size) < 0.5
    cases = [(mask, x), (mask, 0.2), (mask, -0.0), (True, 1.5), (False, -2.0),
             (mask[:, None] & mask[None, :7], x[-7:])]
    for m, v in cases:
        got, want = rc.mech._where_zero(m, v), np.where(m, v, 0.0)
        assert np.shape(got) == want.shape and np.asarray(got).tobytes() == want.tobytes()


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


def test_income_reports_outside_the_support_are_rejected_nan_included(ua_agent):
    # the support test read two comparisons that NaN fails alike, so a NaN
    # report got a NaN royalty and an audit
    for pi in (float("nan"), float("inf"), -float("inf"), 0.4, 2.6):
        for call in (rc.royalty, rc.audit_rule):
            with pytest.raises(rc.ReportRejectedError):
                call(ua_agent, 1.5, pi)
    assert rc.audit_rule(ua_agent, 1.5, 0.5) == 1 and rc.royalty(ua_agent, 1.5, 2.5) >= 0.0


def test_penalty_linear(ua_agent):
    assert rc.penalty(ua_agent, 1.5, 0.3, 0.7) == pytest.approx(0.2)
    assert rc.penalty(ua_agent, 1.5, 0.7, 0.7) == 0.0
    # slope phi in the true income
    for h in (0.1, 0.5, 1.3):
        base = rc.penalty(ua_agent, 1.5, 0.3, 0.7)
        assert rc.penalty(ua_agent, 1.5, 0.3, 0.7 + h) - base == pytest.approx(0.5 * h)


def test_instance_and_contract_construction_errors(ua_agent):
    for call, match in (
            (lambda: rc.AuctionInstance(()), "at least one agent"),
            (lambda: rc.AuctionInstance((ua_agent, "agent")), "expected AgentSpec, got str"),
            (lambda: rc.MenuContract("lump_sum", 1.0, 0.5, False), "no royalties or audits"),
            (lambda: rc.MenuContract("lump_sum", 1.0, 0.0, True), "no royalties or audits"),
            (lambda: rc.MenuContract("linear_royalty", 1.0, 0.5, False), "always audited")):
        with pytest.raises(rc.ConstructionError, match=match):
            call()


def test_settlement_entry_points_reject_type_reports_outside_the_support(ua_agent):
    # penalty checks the type report as royalty and audit_rule do
    for theta in (99.0, 0.5, float("nan")):
        for call in (lambda: rc.royalty(ua_agent, theta, 1.0),
                     lambda: rc.audit_rule(ua_agent, theta, 1.0),
                     lambda: rc.penalty(ua_agent, theta, 1.0, 2.0)):
            with pytest.raises(rc.DomainError):
                call()


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
        val = quad(lambda x: -float(oracles.dcdf_dtheta(agent.income, x, z)), lo, c,
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


@pytest.mark.parametrize("c,theta_star", [
    (0.0, 2.0), (0.05, 1.9), (0.2, 1.6), (0.37, 1.2600000000000002), (0.49, 1.02), (0.5, 1.0),
    (0.6, 1.0)])
def test_menu_theta_star_is_the_regime_kink(ua_agent, c, theta_star):
    # theta_star is the tables' regime kink, where (2 - theta) phi = c (both
    # support ends change regime there under additive errors), else hi or
    # lo; the values are bit for bit those of a bisection over the support
    agent = replace(ua_agent, audit_cost=c)
    kinks = rc.mech._threshold_kinks(agent)
    assert kinks == ([theta_star] if 0.0 < c <= 0.5 else [])
    assert rc.menu_cutoffs(agent)[0] == theta_star


def test_menu_refuses_an_audit_region_with_two_regime_changes(ua_agent):
    # a PCHIP type law of density ~5, ~0.25, then ~0.8: (1 - F)/f rises from
    # 0.17 past 3 and falls to 0, crossing c / phi = 0.4 twice, so auditing
    # pays only between two regime changes
    types = rc.make_type_dist("table", {"grid": [1.0, 1.1, 1.5, 2.0],
                                        "cdf": [0.0, 0.5, 0.6, 1.0]})
    agent = replace(ua_agent, types=types)
    assert len(rc.mech._threshold_kinks(agent)) == 2
    for menu in (rc.menu_cutoffs, rc.binary_menu):
        with pytest.raises(rc.UnsupportedInstanceError):
            menu(agent)


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
    for agents in ((agent,), (agent, cash_only_agent(1.0, 2.0))):
        with pytest.raises(rc.RegularityError):
            rc.myerson_cash_revenue(rc.AuctionInstance(agents))


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


@pytest.mark.parametrize("n,want", [
    (3, (1.1671207206984318, 1.144516817987581, 1.4999999999999998)),
    (8, (1.5241637159387167, 1.5196645279297876, 1.75)),
])
def test_revenue_functionals_beyond_two_bidders(n, want):
    # the Gauss-Legendre sum, built block by block, to the bit at the values
    # of the sum built as one N x S x 2N array
    inst = distinct_bidders(n)
    got = [rc.payoff_bound(inst), rc.myerson_cash_revenue(inst), rc.full_extraction_revenue(inst)]
    assert list(map(repr, got)) == list(map(repr, want))


def test_revenue_functionals_hold_bounded_memory():
    # no N x S x 2N array: at N = 8 the three calls peaked at 108.3 MiB when
    # the N cdfs were stacked over every segment's nodes, 7.8 MiB blocked
    inst = distinct_bidders(8)
    rc.tables_for(inst)
    tracemalloc.start()
    try:
        for fn in (rc.payoff_bound, rc.myerson_cash_revenue, rc.full_extraction_revenue):
            fn(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


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
                at, t = tabs.locate(i, th), tabs.agents[i]
                assert at.interp(t.phi_cap) == pytest.approx(
                    oracles.phi_cap(agent, th), abs=2e-7)
                assert at.interp(t.income_net_royalty) == pytest.approx(
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


@pytest.mark.parametrize("fn", ["audit_threshold", "virtual_value", "phi_cap",
                                "expected_income_net_royalty"])
def test_agent_entry_points_answer_once_per_type(fn, shipped_instances):
    # an array of types gets one value per type, bit for bit the scalar
    # calls, and a scalar type gets a float
    insts = [*shipped_instances.values(), tent_error_inst(),
             rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), 0.0),))]
    for inst in insts:
        for agent in inst.agents:
            thetas = rc.mech._interior_grid(agent.types, 9)
            want = [getattr(rc, fn)(agent, float(th)) for th in thetas]
            assert all(type(w) is float for w in want)
            got = getattr(rc, fn)(agent, thetas)
            assert isinstance(got, np.ndarray) and got.shape == thetas.shape
            assert got.tobytes() == np.array(want).tobytes()
    agent = scaled_uniform_agent()
    assert getattr(rc, fn)(agent, [[0.6, 0.9]]).tolist() == [
        [getattr(rc, fn)(agent, 0.6), getattr(rc, fn)(agent, 0.9)]]


@pytest.mark.parametrize("fn", ["audit_threshold", "virtual_value", "phi_cap",
                                "expected_income_net_royalty"])
def test_agent_entry_points_answer_no_types_with_an_empty_array(fn, shipped_instances):
    # an empty array of types (of any empty shape) gets an empty float array
    # of its shape, as every other array does
    insts = [*shipped_instances.values(), tent_error_inst(),
             rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), 0.0),))]
    for inst in insts:
        for agent in inst.agents:
            for thetas in ([], np.empty(0), np.empty((0, 3)), np.empty((2, 0))):
                got = getattr(rc, fn)(agent, thetas)
                assert isinstance(got, np.ndarray) and got.dtype == float
                assert got.shape == np.shape(thetas)


@pytest.mark.parametrize("knots", [(1.0, 1.4, 2.0), (1.0, 1.5, 2.0)])
def test_tables_exact_on_kinked_table_family(knots):
    # the income law is one linear quantile row per type knot; the rows'
    # antiderivatives reproduce the closed forms on the whole grid, knots
    # included
    agent = table_income_agent(knots, audit_cost=0.0)
    tables = rc.tables_for(rc.AuctionInstance((agent,)))
    t = tables.agents[0]
    # pi_star = supp_hi, the grid brackets the knot, and both sides of it
    # come out exact
    at = np.array([knots[1] - 1e-13, knots[1], knots[1] + 1e-13])
    assert np.max(np.abs(tables.pi_star(0, at) - rc.mech._pi_star_vec(agent, at))) <= 1e-9
    assert np.max(np.abs(t.psi - (1.5 * t.theta - 1.0))) <= 1e-9
    assert np.max(np.abs(t.income_net_royalty - 0.5 * t.theta)) <= 1e-9
    assert np.max(np.abs(t.phi_cap - 0.5)) <= 1e-9
    for th in (1.0, 1.4, 1.5, 1.77, 2.0):
        assert rc.virtual_value(agent, th) == pytest.approx(1.5 * th - 1.0, abs=1e-9)
    assert rc.payoff_bound(rc.AuctionInstance((agent,))) == pytest.approx(1.25, abs=1e-9)


def test_entry_points_reject_non_single_crossing_family():
    # with c > 0 the audit surplus of the rising-gap law is below zero at
    # the bottom of the income support and above it at the top, for types
    # in (1.2, 1.73): no entry point may return numbers for it
    inst = rc.AuctionInstance((rising_gap_agent(0.2, knots=(1.0, 1.5, 2.0)),))
    assert not rc.check_regularity(inst.agents[0]).all_ok
    for call in (lambda: rc.tables_for(inst),
                 lambda: rc.estimate_revenue(inst, n_runs=1000),
                 lambda: rc.virtual_value(inst.agents[0], 1.4),
                 lambda: rc.audit_threshold(inst.agents[0], 1.4)):
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
_LOOKUPS = {"psi": "psi", "pi_star": "pi_star"}


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


def test_transfer_win_equals_the_two_search_transfer(lookup_tables):
    # the threshold type's cell is found by stepping up from the rival
    # value's psi cell: bit for bit the guide-table search of the threshold
    # type, at random rival values and at every psi grid value and its
    # neighbours (runs of equal psi values, both ends, kink triplets)
    rng = np.random.default_rng(11)
    for tables, i in lookup_tables:
        t = tables.agents[i]
        top = float(t.psi[-1])
        rival = np.concatenate([rng.uniform(0.0, top, 2000), t.psi, np.nextafter(t.psi, -np.inf),
                                np.nextafter(t.psi, np.inf), [0.0, top, 2.0 * top + 1.0]])
        rival = np.maximum(rival, 0.0)
        theta = rng.uniform(t.theta[0], t.theta[-1], rival.size)

        def transfer(theta, rival):
            at = tables.locate(i, theta)
            rent_z = tables.locate(i, tables.threshold_type(i, rival)).interp(t.rent_cum)
            return at.interp(t.income_net_royalty) - (at.interp(t.rent_cum) - rent_z)

        assert _bitwise_equal(tables.transfer_win(i, theta, rival), transfer(theta, rival))
        # a lone bidder's single rival value
        lone = tables.transfer_win(i, theta[:5], 0.0)
        assert _bitwise_equal(lone, transfer(theta[:5], 0.0))


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


def _lookups_of(xp, fp, x):
    """np.interp(x, xp, fp) as the located lookups read it: fp as an array
    (slopes taken at the points' cells) and as a table column (its slope
    table), on a grid located once and on one given its guide table."""
    at = rc.dist._Grid(xp, fp=fp).locate(x)
    return [at.interp(fp), at.interp("fp"),
            rc.mech.GridPoints.locate(xp, rc.mech._guide_table(xp), x).interp(fp)]


@pytest.mark.parametrize("xp", [[0.0, 0.0, 0.0, 1.0, 2.5], [-1.0, 0.0, 2.0, 2.0, 2.0],
                                [3.0, 3.0, 4.0, 4.0, 5.0, 5.0]],
                         ids=["first_repeat", "last_repeat", "both_repeat"])
def test_located_lookup_matches_np_interp_at_repeated_ends(xp):
    # a point below a grid whose first points repeat reads fp[0], one on
    # them the last of the run, one at or above the top fp[-1]; +-inf reads
    # an end value and NaN stays NaN, its sign kept
    xp = np.asarray(xp)
    x = np.concatenate([xp, np.nextafter(xp, -np.inf), np.nextafter(xp, np.inf),
                        [xp[0] - 1.0, 0.5 * (xp[0] + xp[-1]), xp[-1] + 1.0, -np.inf, np.inf]])
    nan = np.array([np.nan, -np.nan])
    rng = np.random.default_rng(7)
    for fp in (rng.uniform(-2.0, 2.0, xp.size), np.arange(xp.size, 0.0, -1.0)):
        for got in _lookups_of(xp, fp, x):
            assert _bitwise_equal(got, np.interp(x, xp, fp))
        for got in _lookups_of(xp, fp, nan):
            assert np.array_equal(got.view(np.int64), np.interp(nan, xp, fp).view(np.int64))


@pytest.mark.parametrize("k", range(4))
def test_located_lookup_keeps_negative_zero_table_values(k):
    # slope * 0 + (-0.0) is +0.0: a -0.0 value read at its grid point, below
    # the grid or at and above the top comes back -0.0, as np.interp gives
    # it, on rising and falling cells and on a grid whose ends repeat
    for xp in (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 0.0, 1.0, 1.0])):
        for fp in (np.array([1.0, 2.0, -1.0, 4.0]), np.array([-3.0, -2.0, 5.0, -1.0])):
            fp[k] = -0.0
            x = np.concatenate([xp, [xp[0] - 1.0, -np.inf, xp[-1] + 1.0, np.inf]])
            want = np.interp(x, xp, fp)
            assert np.signbit(want[k]) or xp[k] == xp[min(k + 1, 3)]
            for got in _lookups_of(xp, fp, x):
                assert _bitwise_equal(got, want)


def test_lone_bidder_threshold_rent_is_looked_up_once_per_call(ua_inst, monkeypatch):
    # against the rival value 0 a lone winner's rent at its threshold type
    # is one number: looked up once per estimate_revenue call, however many
    # chunks the runs take
    calls = []
    lookup = rc.MechanismTables._threshold_rent

    def counted(self, *args, **kwargs):
        calls.append(args)
        return lookup(self, *args, **kwargs)

    monkeypatch.setattr(rc.MechanismTables, "_threshold_rent", counted)
    for n_runs in (1000, 5 * rc.sim._chunk_runs(1) + 7):
        calls.clear()
        rc.estimate_revenue(ua_inst, None, n_runs, 2)
        assert calls == [(0, 0.0)], n_runs


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
# Kernel blocks
# ---------------------------------------------------------------------------


def test_blocked_keeps_blocks_within_the_element_budget(monkeypatch):
    monkeypatch.setattr(rc.dist, "_BLOCK_ELEMENTS", 1000)
    a = np.arange(2500.0)
    for width in (1, 7, 65, 166, 1000, 1001, 5000):
        rows = []

        def fn(x, y):
            rows.append(x.size)
            return 2.0 * x, y

        out = rc.dist._blocked(fn, width, a, a + 1.0)
        assert np.array_equal(out[0], 2.0 * a) and np.array_equal(out[1], a + 1.0)
        assert sum(rows) == a.size
        # more than the budget only where one row alone exceeds it
        assert all(r * width <= 1000 or r == 1 for r in rows), width
        assert max(rows) == max(1, 1000 // width)
    assert [o.size for o in rc.dist._blocked(lambda x: (x,), 10, np.empty(0))] == [0]


@pytest.mark.parametrize("inst", [
    rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0),)),
    tent_error_inst(),
    mixed_pair(),
    # an interior threshold at every grid type: the bisection of all 8,193
    # at once, fed by the inverse hazards and supports computed once
    scaled_triangular(),
    scaled_uniform()],
    ids=["table_income", "tent_error", "mixed_pair", "scaled_triangular", "scaled_uniform"])
def test_tables_do_not_depend_on_the_block_budget(monkeypatch, inst):
    built = []
    # at 1 << 22 every grid type is in one block, whose rows differ (it
    # spans every knot), so no block shares a row of incomes: the smaller
    # budgets' shared-row evaluations must equal the full broadcast
    for budget in (1 << 11, 1 << 14, 1 << 20, 1 << 22):
        monkeypatch.setattr(rc.dist, "_BLOCK_ELEMENTS", budget)
        built.append(rc.mech.MechanismTables.build(inst))
    for tables in built[1:]:
        for got, want in zip(tables.agents, built[0].agents):
            for f in fields(want):
                assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), f.name


_TABLE_FIELDS = ("psi", "pi_star", "phi_cap", "income_net_royalty", "rent_cum", "win_prob",
                 "interim_transfer")


def _uniform_copy(kind, knots, audit_cost, sensitivity):
    """A tabulated copy, with linear 41-point rows at the type knots, of the
    additive family theta + U[-1, 1] on U[1, 2] types or of the scaled
    family theta + (1 - theta) U[-1, 1] on U[0.5, 0.9] types, and the
    closed-form family itself with the copy's type knots (so that both
    table grids carry the same marks)."""
    rows = []
    for t in knots:
        half = 1.0 if kind == "additive_error" else 1.0 - t
        g = np.linspace(t - half, t + half, 41)
        rows.append((g, (g - g[0]) / (g[-1] - g[0])))
    types = rc.make_type_dist("uniform", {"lo": knots[0], "hi": knots[-1]})
    closed = rc.make_income_family(kind, UNIT_ERR)
    closed.type_knots = np.asarray(knots, dtype=float)
    copy = rc.make_income_family("table", {"theta_grid": list(knots), "rows": rows})
    return (rc.AgentSpec(types, copy, audit_cost, sensitivity),
            rc.AgentSpec(types, closed, audit_cost, sensitivity))


def _assert_copy_tables_match(copy, closed):
    """The copy's tables are the family's, evaluated on the copy's type
    grid, within 1e-12, at every type where both agents put the audit
    region in the same regime (``_edge_pays`` at both support ends).  They
    may differ in regime only at a regime kink, where the audit surplus at
    a support end is zero up to rounding and the copy's -G_theta/g, 1 or
    (1 - pi)/(1 - theta) up to about 1e-15, decides it: within 1e-9
    (hi - lo) of a kink of either agent (the two agents' kinks lie 3e-11
    apart where the surplus is flattest, near the top type at c = 1e-12).
    The grid brackets every kink within 1e-12 (hi - lo), so the rents
    integrate across such a type within the tolerance."""
    got = rc.tables_for(rc.AuctionInstance((copy,))).agents[0]
    theta = got.theta
    psi_m, psi, pi_star, cap, e_net = rc.mech._mech_curves(closed, theta)
    want = dict(theta=theta, psi=np.maximum.accumulate(psi), pi_star=pi_star, phi_cap=cap,
                income_net_royalty=e_net, rent_cum=rc.mech._cum_trapezoid(1.0 - cap, theta))
    want.update(rc.mech._interim_curves(rc.AuctionInstance((closed,)), 0, [want]))
    tie = np.any(rc.mech._edge_pays(copy, theta) != rc.mech._edge_pays(closed, theta), axis=0)
    kinks = np.array(rc.mech._threshold_kinks(copy) + rc.mech._threshold_kinks(closed))
    w = theta[-1] - theta[0]
    assert np.all(np.min(np.abs(theta[tie, None] - kinks), axis=1, initial=np.inf)
                  <= 1e-9 * w), theta[tie]
    for name in _TABLE_FIELDS:
        gap = np.max(np.abs(getattr(got, name) - want[name])[~tie])
        assert gap <= 1e-12, (name, gap)


@pytest.mark.parametrize("knots", [(1.0, 1.4, 2.0), (1.0, 1.5, 2.0),
                                   (1.0, 1.25, 1.5, 1.75, 2.0)])
@pytest.mark.parametrize("audit_cost", [1e-6, 1e-3, 0.05, 0.2])
def test_tabulated_copies_build_at_a_positive_audit_cost(knots, audit_cost):
    # every one of these builds raised "not single-crossing in income" while
    # the family mixed its rows' cdfs; as quantiles the rows are the
    # additive family, whose tables the copy's match
    _assert_copy_tables_match(*_uniform_copy("additive_error", knots, audit_cost, 0.5))


@given(kind=st.sampled_from(["additive_error", "scaled_error"]),
       inner=st.lists(st.integers(1, 39), unique=True, max_size=3),
       c=st.floats(0.0, 0.5), phi=st.sampled_from([0.5, 1.0]))
@example(kind="additive_error", inner=[2], c=0.5, phi=0.5)
@example(kind="scaled_error", inner=[2], c=0.5, phi=0.5)
@settings(max_examples=20, deadline=None)
def test_tabulated_uniform_copies_have_the_family_tables(kind, inner, c, phi):
    # at c = phi = 0.5 the additive family's regime changes at the lowest
    # type itself: auditing pays on the whole support there (the surplus is
    # 0) and nowhere above it
    lo, hi = (1.0, 2.0) if kind == "additive_error" else (0.5, 0.9)
    knots = [lo] + sorted(lo + k * (hi - lo) / 40 for k in inner) + [hi]
    _assert_copy_tables_match(*_uniform_copy(kind, knots, c, phi))


def test_tabulated_copy_revenue_matches_the_payoff_bound():
    # Monte Carlo on the c = 0.2 copy of uniform_additive against its
    # analytic revenue
    inst = rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), 0.2),))
    rep = rc.estimate_revenue(inst, None, 100_000, 3)
    assert abs(rep.revenue_net_audits - rc.payoff_bound(inst)) <= 4 * rep.revenue_se


@st.composite
def _mixed_table_agents(draw):
    """Types U[1, 2] and a tabulated income law on 2-4 type knots in [1, 2]:
    row j is theta_j plus an error on [-a, a] that mixes the uniform and the
    tent law with its own weight, on 3-13 points, so the audit surplus bends
    in income (rows that cross, which the family rejects, are drawn again);
    c = 0 or drawn from [0, 0.3]."""
    inner = draw(st.lists(st.integers(1, 19), max_size=2, unique=True))
    knots = [1.0] + sorted(1.0 + k / 20 for k in inner) + [2.0]
    a = draw(st.floats(0.05, 0.15))
    rows = []
    for t in knots:
        g = np.linspace(-a, a, 2 * draw(st.integers(1, 6)) + 1)
        tent = np.where(g < 0, 0.5 * (g / a + 1) ** 2, 1 - 0.5 * (1 - g / a) ** 2)
        w = draw(st.floats(0.0, 1.0))
        rows.append((t + g, w * (g + a) / (2 * a) + (1 - w) * tent))
    try:
        fam = rc.make_income_family("table", {"theta_grid": knots, "rows": rows})
    except rc.ConstructionError:   # rows of different shapes may cross
        reject()
    c = draw(st.just(0.0) | st.floats(0.0, 0.3))
    return rc.AgentSpec(rc.make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}), fam, c,
                        draw(st.floats(0.1, 1.0)))


@given(agent=_mixed_table_agents(), n=st.integers(20, 300), rows=st.integers(1, 40))
@settings(max_examples=60, deadline=None)
def test_shared_probe_rows_scan_bit_for_bit(agent, n, rows):
    # the scan in blocks of ``rows`` types, some of which straddle an inner
    # knot, equals the surplus evaluated at every type's own probes at
    # once, bit for bit
    knots = agent.income.type_knots
    thetas = np.sort(np.concatenate([np.linspace(1.0, 2.0, n), knots,
                                     np.nextafter(knots, 0.0)]))

    def straddles(thetas):
        j = np.clip(np.searchsorted(knots, thetas, side="right") - 1, 0, knots.size - 2)
        return any(np.ptp(j[k:k + rows]) > 0 for k in range(0, j.size, rows))

    if knots.size > 2 and rows > 1 and not straddles(thetas):
        # each knot and the float below it lie in one block once shifted by one
        thetas = np.concatenate([[1.0], thetas])
        assert straddles(thetas)
    t = rc.mech._Types.of(agent, thetas)
    nu = rc.mech._NU
    ends = np.column_stack([t.lo + nu * (t.hi - t.lo), t.hi - nu * (t.hi - t.lo)])
    probe = np.linspace(ends[:, 0], ends[:, 1], 65, axis=1)
    with np.errstate(invalid="ignore"):
        surplus = rc.mech._audit_surplus(agent, t.theta[:, None], probe, t.ih[:, None])
    want = rc.mech._worst_single_crossing(surplus, axis=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rc.dist, "_BLOCK_ELEMENTS", 65 * rows)
        got = rc.mech._probe_single_crossing(agent, thetas)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ---------------------------------------------------------------------------
# Information rent
# ---------------------------------------------------------------------------


def _cum_trapezoid(y, x):
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def test_one_rent_rule_on_the_table_grid(monkeypatch, shipped_instances):
    # both rents are the exact integrals of the tables' own interpolants:
    # the cumulative trapezoid on the type grid, behind transfer_win and the
    # interim curves alike; a build evaluates pi_star once per agent, at its
    # grid types only
    insts = [*shipped_instances.values(), tent_error_inst(),
             rc.AuctionInstance((table_income_agent((1.0, 1.4, 2.0), audit_cost=0.0),))]
    calls = []
    pi_star_vec = rc.mech._pi_star_vec

    def counted(agent, thetas):
        calls.append(np.size(thetas))
        return pi_star_vec(agent, thetas)

    monkeypatch.setattr(rc.mech, "_pi_star_vec", counted)
    for inst in insts:
        calls.clear()
        tables = rc.mech.MechanismTables.build(inst)
        assert calls == [t.theta.size for t in tables.agents]
        for t in tables.agents:
            assert _bitwise_equal(t.rent_cum, _cum_trapezoid(1.0 - t.phi_cap, t.theta))
            assert _bitwise_equal(t.interim_rent,
                                  _cum_trapezoid(t.win_prob * (1.0 - t.phi_cap), t.theta))


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


@pytest.mark.parametrize("make", [uniform_additive_agent, scaled_uniform_agent,
                                  scaled_triangular_agent])
def test_threshold_kinks_are_the_regime_changes_of_pi_star(make):
    # over c in {0, 0.05, ..., 1} and phi in {0, 0.25, 0.5, 1}: every change
    # of pi_star's regime (0, interior, supp_hi) between neighbours of a
    # 4097-type grid over the kinks' scan range (from the tables' lowest
    # type) has a kink in its cell, and every kink lies in or next to such a
    # cell (with c = 0 auditing pays everywhere, so a scaled agent has no
    # kink at all)
    changes = 0
    for c in np.arange(21) * 0.05:
        for phi in (0.0, 0.25, 0.5, 1.0):
            agent = make(float(c), phi)
            lo, hi = agent.types.lo, agent.types.hi
            grid = np.linspace(lo + 1e-7 * (hi - lo), np.nextafter(hi, lo), 4097)
            grid = np.concatenate([[rc.mech._psi_floor(agent)], grid])
            pstar = rc.mech._pi_star_vec(agent, grid)
            top = agent.income.supp_hi(grid)
            cells = np.flatnonzero(np.diff(np.where(pstar == top, 2, np.sign(pstar))))
            kinks = np.array(rc.mech._threshold_kinks(agent))
            for j in cells:
                assert np.any((kinks >= grid[j] - 1e-12) & (kinks <= grid[j + 1] + 1e-12)), \
                    (c, phi, grid[j])
            for j, k in zip(np.searchsorted(grid, kinks) - 1, kinks):
                assert np.any(np.abs(cells - j) <= 1), (c, phi, k)
            changes += cells.size
    assert changes > 0


def test_single_crossing_rule_and_slack(monkeypatch, ua_agent):
    # the rule: a positive value after a strictly negative one; zeros and
    # NaN entries start no violation
    vals = np.array([[1.0, -1.0, 2.0], [1.0, 0.0, 2.0], [-1.0, np.nan, 5e-10],
                     [3.0, 2.0, -1.0]])
    expected = [2.0, 0.0, 5e-10, 0.0]
    assert rc.mech._worst_single_crossing(vals, axis=1).tolist() == expected
    assert rc.mech._worst_single_crossing(vals.T, axis=0).tolist() == expected
    # the slack: a violation counts above 1e-9, in the kernels and in check
    for worst, fails in ((1e-9, False), (2e-9, True)):
        def scan(agent, thetas):
            return np.full(np.size(thetas), worst)

        monkeypatch.setattr(rc.mech, "_single_crossing_scan", scan)
        monkeypatch.setattr(rc.verify, "_single_crossing_scan", scan)
        assert rc.check_regularity(ua_agent).single_crossing_pi_ok == (not fails)
        if fails:
            with pytest.raises(rc.RegularityError):
                rc.audit_threshold(ua_agent, 1.5)
        else:
            assert rc.audit_threshold(ua_agent, 1.5) == pytest.approx(2.5)


@given(values=st.lists(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 3.0, np.nan,
                                                   np.inf, -np.inf]) | st.floats(-3, 3),
                                  min_size=1, max_size=12), min_size=1, max_size=6)
       .filter(lambda rows: len({len(r) for r in rows}) == 1))
@settings(max_examples=200, deadline=None)
def test_worst_single_crossing_equals_the_loop(values):
    # the rule read off the first negative entry of each sequence, bit for
    # bit the running-flag loop, along either axis
    values = np.array(values)
    for axis in (0, 1):
        got = rc.mech._worst_single_crossing(values, axis)
        want = oracles.worst_single_crossing(values, axis)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), axis


def test_worst_single_crossing_on_edge_rows():
    # NaN, signed zeros, infinities, all-negative rows and empty sequences,
    # along either axis: bit for bit the running-flag loop (+0.0 where no
    # positive value follows a negative one)
    nan, inf = np.nan, np.inf
    rows = np.array([[nan, -1.0, nan, 2.0, 1.0, nan],
                     [-0.0, 1.0, -1.0, 0.0, -0.0, 3.0],
                     [-1.0, -2.0, -0.5, -inf, -1e-300, -3.0],
                     [0.0, -0.0, 0.0, -0.0, nan, nan],
                     [1.0, 2.0, 3.0, -1.0, nan, -0.0],
                     [-inf, inf, nan, 5e-324, -5e-324, 5e-324],
                     [nan] * 6])
    for values in (rows, np.empty((3, 0)), np.empty((0, 6)), np.empty((0, 0)),
                   np.stack([rows, -rows])):
        for axis in range(values.ndim):
            got = rc.mech._worst_single_crossing(values, axis)
            want = oracles.worst_single_crossing(values, axis)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), (values.shape, axis)
    assert rc.mech._worst_single_crossing(rows, 1).tolist() == [2.0, 3.0, 0.0, 0.0, 0.0, inf, 0.0]


def test_audit_surplus_and_single_crossing_rule_have_one_home():
    # one surplus expression and one single-crossing scan, both in mech:
    # only mu and _audit_surplus evaluate the density ratio G_2/g, and
    # verify holds no crossing rule of its own
    src = Path(rc.__file__).parent
    callers, mu_callers, rule_defs, slack_defs = set(), set(), [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                if node.name == "_worst_single_crossing":
                    rule_defs.append(path.name)
                calls = [getattr(call.func, "attr", getattr(call.func, "id", None))
                         for call in ast.walk(node) if isinstance(call, ast.Call)]
                if "g2_over_g" in calls:
                    callers.add(f"{path.stem}.{node.name}")
                if "mu" in calls:
                    mu_callers.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_SLACK" for t in node.targets):
                slack_defs.append(path.name)
    assert callers == {"mech.mu", "mech._audit_surplus"}
    # mu is public API only: every surplus in the package is _audit_surplus
    assert mu_callers == set()
    assert rule_defs == ["mech.py"] and slack_defs == ["mech.py"]
    verify_src = (src / "verify.py").read_text(encoding="utf-8")
    assert "g2_over_g" not in verify_src and "maximum.accumulate" not in verify_src
    # _edge_pays alone decides whether auditing pays at a support end: the
    # regime kinks and the menu cutoff read it, and the only other surplus
    # sites are the threshold's bisection, the scan's probes and check (a
    # nested helper counts as its enclosing top-level function)
    surplus_callers, calls_of = set(), {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                calls_of[node.name] = {getattr(call.func, "attr", getattr(call.func, "id", None))
                                       for call in ast.walk(node) if isinstance(call, ast.Call)}
                if "_audit_surplus" in calls_of[node.name]:
                    surplus_callers.add(node.name)
    assert surplus_callers == {"_edge_pays", "_pi_star_vec", "_probe_single_crossing",
                               "check_regularity"}
    assert "_edge_pays" in calls_of["_threshold_kinks"] & calls_of["menu_cutoffs"]
    # no stand-in surplus for a diverging inverse hazard
    mech_tree = ast.parse((src / "mech.py").read_text(encoding="utf-8"))
    assert all(getattr(node, "value", None) != 1e30 for node in ast.walk(mech_tree))
    # audit_region is the only income integral: no module defines or calls
    # a family's breakpoints, and verify integrates no rule of its own.
    # Each law quantity is stated once: G_theta is g2_over_g * pdf and the
    # hazard 1 / inverse_hazard, so no module defines or calls a method for
    # them, or one for cdf and pdf together
    derived = {"breakpoints", "cdf_and_dtheta", "dcdf_dtheta", "cdf_and_pdf", "hazard"}
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name in derived:
                found.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                if callee in derived:
                    found.add(f"{path.stem} calls {callee}")
    assert found == set()
    verify_tree = ast.parse((src / "verify.py").read_text(encoding="utf-8"))
    imported = {a.name for n in ast.walk(verify_tree) if isinstance(n, ast.ImportFrom)
                for a in n.names}
    assert not imported & {"_gl_segments", "_GL2"}


def test_allocation_and_settlement_rules_have_one_home():
    # one allocation rule and one settlement rule, both in mech: no other
    # function compares a value with the rival value, takes the royalty
    # min(report, cap), charges the penalty (income - report) or applies the
    # audit mask
    src = Path(rc.__file__).parent
    homes = {"defs": set(), "rival": set(), "royalty": set(), "penalty": set(),
             "audit": set(), "top_two": set()}

    def names(node):
        operands = (node.left, *node.comparators) if isinstance(node, ast.Compare) else ()
        return [n.id for op in operands for n in ast.walk(op) if isinstance(n, ast.Name)]

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            where = f"{path.stem}.{fn.name}"
            if fn.name in ("_wins", "_top_two", "_allocate", "_settle", "_audit_mask"):
                homes["defs"].add(where)
            for node in ast.walk(fn):
                if any("rival" in n for n in names(node)):
                    homes["rival"].add(where)
                if isinstance(node, ast.Call):
                    callee = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if callee in ("minimum", "min") and any(
                            isinstance(a, ast.Name) and "cap" in a.id for a in node.args):
                        homes["royalty"].add(where)
                    if callee == "_audit_mask":
                        homes["audit"].add(where)
                    if callee == "_top_two":
                        homes["top_two"].add(where)
                # income minus report, as an operator or as np.subtract
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
                    operands = (node.left, node.right)
                elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "subtract":
                    operands = tuple(node.args[:2])
                else:
                    operands = ()
                if (len(operands) == 2 and all(isinstance(a, ast.Name) for a in operands)
                        and operands[0].id.startswith("pi") and "rep" in operands[1].id):
                    homes["penalty"].add(where)
    assert homes == {"defs": {"mech._top_two", "mech._allocate", "mech._settle",
                              "mech._audit_mask"},
                     "rival": {"mech._allocate"}, "royalty": {"mech._settle"},
                     "penalty": {"mech._settle"}, "audit": {"mech._settle"},
                     "top_two": {"mech._allocate"}}


def test_argument_type_tests_have_one_home():
    # the integer and real rules live in errors.py, and no other module
    # tests an argument for a bool by hand: every count, seed, size, agent
    # index and real parameter goes through them
    src = Path(rc.__file__).parent
    spelled, defined = set(), set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                    and len(node.args) == 2
                    and any(isinstance(n, ast.Name) and n.id == "bool"
                            for n in ast.walk(node.args[1]))):
                spelled.add(path.name)
            if isinstance(node, ast.FunctionDef) and node.name in ("_integer", "_real", "_grid"):
                defined.add(f"{path.stem}.{node.name}")
    assert spelled == {"errors.py"}
    assert defined == {"errors._integer", "errors._real", "errors._grid"}


def test_instance_entry_points_read_only_the_tables():
    # an entry point that takes an instance gets psi and pi_star from
    # tables_for(inst), never from the scalar kernel at single types
    src = Path(rc.__file__).parent
    kernel = {"virtual_value", "audit_threshold", "phi_cap", "expected_income_net_royalty",
              "_curves_at", "_mech_curves", "_pi_star_vec"}
    entry_points = {"mech": {"allocation", "transfer", "endogenous_virtual"},
                    "verify": {"_allocate_at", "best_response_income", "crossing_point",
                               "best_response_type"},
                    "cli": {"_cmd_verify_ic"}}
    seen, used = set(), {}
    for module, names in entry_points.items():
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in names:
                seen.add(fn.name)
                refs = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
                refs |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
                         and isinstance(n.value, ast.Name) and n.value.id in ("mech", "rc")}
                used[f"{module}.{fn.name}"] = refs & kernel
    assert seen == set().union(*entry_points.values())
    assert all(not refs for refs in used.values()), used
    # verify and the CLI import no scalar kernel wrapper at all
    for module in ("verify", "cli"):
        tree = ast.parse((src / f"{module}.py").read_text(encoding="utf-8"))
        imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
                    for a in n.names}
        assert not imported & (kernel - {"_mech_curves"}), module
