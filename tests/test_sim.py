import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import quad

import royaltycap as rc
from royaltycap import sim as S
from royaltycap.instances import uniform_additive_agent


class _FixedRng:
    """Stub stream feeding chosen uniforms into one protocol round."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n=None):
        return self.values


# ---------------------------------------------------------------------------
# Single rounds
# ---------------------------------------------------------------------------

def test_run_auction_golden_round(ua_inst):
    # theta drawn 1.3 (u = 0.3), income drawn 1.1 (u = 0.4); the trailing
    # audit-randomization uniform is unused by the deterministic rule
    strat = rc.StrategyProfile.truthful(1)
    out = rc.run_auction(ua_inst, strat, _FixedRng([0.3, 0.4, 0.5]))
    assert out.winner == 0
    assert out.transfers[0] == pytest.approx(0.5, abs=1e-7)
    assert out.royalty == pytest.approx(0.55, abs=1e-9)
    assert out.audited and out.penalty == 0.0
    assert out.audit_cost_paid == pytest.approx(0.2)


def test_run_auction_no_winner():
    inst = rc.AuctionInstance((uniform_additive_agent(sensitivity=0.0),))
    out = rc.run_auction(inst, rc.StrategyProfile.truthful(1),
                         _FixedRng([0.0, 0.5, 0.5]))
    assert out.winner is None
    assert out.transfers == (0.0,)
    assert out.royalty == 0.0 and out.penalty == 0.0
    assert not out.audited and out.audit_cost_paid == 0.0


def test_run_auction_deterministic(ua_inst):
    strat = rc.StrategyProfile.truthful(1)
    a = [rc.run_auction(ua_inst, strat, rc.run_rng(ua_inst, 9, r)) for r in range(32)]
    b = [rc.run_auction(ua_inst, strat, rc.run_rng(ua_inst, 9, r)) for r in range(32)]
    assert a == b


def test_batch_equals_per_run_streams(pair_inst):
    # the aggregate path consumes exactly the per-run counter-block streams
    strat = rc.StrategyProfile.truthful(2)
    outs = [rc.run_auction(pair_inst, strat, rc.run_rng(pair_inst, 123, r))
            for r in range(64)]
    rep = rc.estimate_revenue(pair_inst, strat, n_runs=1000, seed=123)
    revenues = []
    for o in outs:
        revenues.append(sum(o.transfers) + o.royalty + o.penalty - o.audit_cost_paid)
    u = S._uniform_matrix(2, 123, 0, 64)
    b = S._simulate_batch(pair_inst, strat, u, rc.tables_for(pair_inst))
    assert np.allclose(b["revenue"], revenues, atol=0)
    assert rep.n_runs == 1000 and rep.seed == 123


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def test_truthful_revenue_matches_bound(shipped_instances):
    for name, inst in shipped_instances.items():
        rep = rc.estimate_revenue(inst, None, n_runs=100_000, seed=7)
        bound = rc.payoff_bound(inst)
        assert abs(rep.revenue_net_audits - bound) <= 3 * rep.revenue_se, name
        assert rep.mean_on_path_penalty == 0.0, name


def test_audit_frequency_identity(ua_inst, su_inst):
    # E[q(theta) G(pi_star(theta)^- | theta)] by quadrature
    for inst in (ua_inst, su_inst):
        agent = inst.agents[0]
        lo, hi = agent.types.lo, agent.types.hi

        def f(th):
            if rc.virtual_value(agent, th) <= 0:
                return 0.0
            cap = rc.audit_threshold(agent, th)
            return float(agent.income.cdf(cap, th)) * agent.types.pdf(th)

        oracle = quad(f, lo, hi, limit=200,
                      points=[k for k in rc.mech._threshold_kinks(agent)])[0]
        rep = rc.estimate_revenue(inst, None, n_runs=200_000, seed=21)
        se = np.sqrt(oracle * (1 - oracle) / rep.n_runs)
        assert abs(rep.audit_frequency - oracle) <= 3 * max(se, 1e-4)


def test_seed_reproducibility_and_parallel(ua_inst):
    a = rc.estimate_revenue(ua_inst, None, n_runs=80_000, seed=5)
    b = rc.estimate_revenue(ua_inst, None, n_runs=80_000, seed=5)
    c = rc.estimate_revenue(ua_inst, None, n_runs=80_000, seed=5, workers=3)
    assert a == b == c
    d = rc.estimate_revenue(ua_inst, None, n_runs=80_000, seed=6)
    assert d != a


def test_min_runs_guard(ua_inst):
    with pytest.raises(rc.ConstructionError):
        rc.estimate_revenue(ua_inst, None, n_runs=10, seed=0)


def test_workers_guard(ua_inst, ua_agent):
    # no silent serial fallback; a sweep raises rather than failing each row
    with pytest.raises(rc.ConstructionError):
        rc.estimate_revenue(ua_inst, None, n_runs=1000, seed=0, workers=0)
    with pytest.raises(rc.ConstructionError):
        rc.sweep(lambda c: rc.AuctionInstance((replace(ua_agent, audit_cost=c),)),
                 [0.2], n_runs=1000, seed=0, workers=-2)


def test_deviating_strategy_never_gains(ua_inst):
    # the measured best type deviation cannot beat truthful play in simulation
    base = rc.estimate_revenue(ua_inst, None, n_runs=150_000, seed=31)
    dev = rc.StrategyProfile(type_reports=(lambda th: 1.2 if th > 1.2 else th,),
                             income_reports=(None,))
    rep = rc.estimate_revenue(ua_inst, dev, n_runs=150_000, seed=31)
    tol = 3 * (rep.agent_utility_se[0] + base.agent_utility_se[0])
    assert rep.agent_utility[0] <= base.agent_utility[0] + tol


def test_income_reports_are_projected(ua_inst):
    # a wild income-report map is clamped into the reported support
    wild = rc.StrategyProfile(type_reports=(None,),
                              income_reports=((lambda th, tr, pi: 50.0),))
    rep = rc.estimate_revenue(ua_inst, wild, n_runs=5_000, seed=2)
    # reporting the top of the support concedes the full royalty cap
    assert rep.revenue_net_audits > 0


def test_probabilistic_audit_rule(ua_inst):
    # user-mechanism hook: Bernoulli audits from the run's own stream;
    # a flat 1/2 rule audits half of the sold runs
    base = rc.estimate_revenue(ua_inst, None, n_runs=120_000, seed=44)
    half = rc.estimate_revenue(ua_inst, None, n_runs=120_000, seed=44,
                               audit_prob=lambda th, pi: np.full_like(th, 0.5))
    sold = base.allocation_frequency[0]
    assert half.audit_frequency == pytest.approx(0.5 * sold, abs=5e-3)
    assert half.mean_on_path_penalty == 0.0
    again = rc.estimate_revenue(ua_inst, None, n_runs=120_000, seed=44,
                                audit_prob=lambda th, pi: np.full_like(th, 0.5))
    assert half == again
    par = rc.estimate_revenue(ua_inst, None, n_runs=120_000, seed=44, workers=3,
                              audit_prob=lambda th, pi: np.full_like(th, 0.5))
    assert half == par


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

def test_sweep_revenue_ordering(ua_agent):
    def builder(c):
        return rc.AuctionInstance((replace(ua_agent, audit_cost=c),))

    rows = rc.sweep(builder, [0.0, 0.2, 0.4], n_runs=30_000, seed=11)
    bounds = [r["payoff_bound"] for r in rows]
    assert bounds == pytest.approx([1.25, 1.09, 1.01], abs=1e-8)
    assert all(not r["failed"] for r in rows)
    for r in rows:
        slack = 3 * r["revenue_se"]
        assert r["myerson_cash_revenue"] <= r["revenue_net_audits"] + slack
        assert r["revenue_net_audits"] <= r["full_extraction_revenue"] + slack
    assert bounds[0] >= bounds[1] >= bounds[2]


def test_sweep_sensitivity_interpolates_benchmarks(ua_agent):
    def builder(phi):
        return rc.AuctionInstance(
            (replace(ua_agent, audit_cost=0.0, sensitivity=phi),))

    rows = rc.sweep(builder, [0.0, 0.5, 1.0], n_runs=30_000, seed=13)
    assert rows[0]["payoff_bound"] == pytest.approx(
        rows[0]["myerson_cash_revenue"], abs=1e-8)
    assert rows[-1]["payoff_bound"] == pytest.approx(
        rows[-1]["full_extraction_revenue"], abs=1e-8)
    vals = [r["payoff_bound"] for r in rows]
    assert vals[0] < vals[1] < vals[2]


def test_sweep_marks_failed_rows(ua_agent):
    def builder(phi):
        return rc.AuctionInstance((replace(ua_agent, sensitivity=phi),))

    rows = rc.sweep(builder, [0.2, 1.5, 0.8], n_runs=2_000, seed=1)
    assert [r["failed"] for r in rows] == [False, True, False]
    assert "error" in rows[1]


def test_sweep_empty_axis(ua_agent):
    def builder(c):
        return rc.AuctionInstance((replace(ua_agent, audit_cost=c),))

    assert rc.sweep(builder, [], n_runs=2_000, seed=0) == []


# ---------------------------------------------------------------------------
# Allocation ties, worker count and golden reports
# ---------------------------------------------------------------------------

def test_top_two_matches_stable_argsort():
    # ties go to the highest index, as a stable ascending sort orders them
    rs = np.random.default_rng(4)
    for n_agents in (1, 2, 3, 5):
        psi = rs.choice([-0.5, 0.0, 0.25, 0.5], size=(400, n_agents))
        w, top, second = S._top_two(psi)
        order = np.argsort(psi, axis=1, kind="stable")
        assert np.array_equal(w, order[:, -1])
        assert np.array_equal(top, psi[np.arange(400), order[:, -1]])
        want = psi[np.arange(400), order[:, -2]] if n_agents > 1 else np.zeros(400)
        assert np.array_equal(second, want)


def test_tied_virtual_values_leave_the_asset_unsold(ua_agent):
    # three identical bidders, types 1 + u: a tie for the top leaves the
    # asset unsold; a tie below the top only sets the rival value
    inst = rc.AuctionInstance((ua_agent,) * 3)
    u = np.array([[0.5, 0.5, 0.2, 0.4, 0.9],
                  [0.2, 0.7, 0.7, 0.4, 0.9],
                  [0.8, 0.3, 0.3, 0.4, 0.9],
                  [0.1, 0.1, 0.1, 0.4, 0.9]])
    tables = rc.tables_for(inst)
    b = S._simulate_batch(inst, rc.StrategyProfile.truthful(3), u, tables)
    assert b["winner"].tolist() == [-1, -1, 0, -1]
    assert np.array_equal(b["revenue"][[0, 1, 3]], np.zeros(3))
    rival = float(tables.psi(0, 1.3))
    assert b["transfers"][2, 0] == tables.transfer_win(0, 1.8, rival)


def test_workers_capped_by_chunks(ua_inst, monkeypatch):
    # 1000 runs are one chunk: no worker pool is started
    serial = rc.estimate_revenue(ua_inst, None, n_runs=1000, seed=3)

    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk must run in-line")

    monkeypatch.setattr(S, "ThreadPoolExecutor", no_pool)
    assert rc.estimate_revenue(ua_inst, None, n_runs=1000, seed=3, workers=4) == serial


def test_reports_independent_of_chunk_size(ua_inst, pair_inst, monkeypatch):
    # runs are assembled in run order whatever the chunk size and thread
    # count, including Python-level strategy and audit callables
    shade = rc.StrategyProfile(type_reports=(lambda th: 0.9 * th + 0.1,),
                               income_reports=(None,))
    cases = [(ua_inst, {}), (pair_inst, {}),
             (ua_inst, {"strategies": shade,
                        "audit_prob": lambda th, pi: np.full_like(th, 0.5)})]
    for inst, kw in cases:
        want = rc.estimate_revenue(inst, n_runs=20_000, seed=9, **kw)
        for chunk in (1 << 12, 1 << 14):
            monkeypatch.setattr(S, "_CHUNK", chunk)
            for workers in (1, 2, 3):
                got = rc.estimate_revenue(inst, n_runs=20_000, seed=9,
                                          workers=workers, **kw)
                assert got == want, (chunk, workers)


# estimate_revenue(inst, None, 2**17, seed=1) on the shipped instances, with
# 1 and 2 workers, as computed before table lookups were located once per
# report; any change here breaks the bit-identity of the simulator
_GOLDEN_REPORTS = {
    "uniform_additive": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 1.0894076071308656,
        "revenue_se": 0.0007998485993313323, "agent_utility": [0.29049959836952555],
        "agent_utility_se": [0.001304713897738686], "audit_frequency": 0.5995712280273438,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "scaled_uniform": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 0.5245498280118825,
        "revenue_se": 0.0006653393216740997, "agent_utility": [0.148807823859039],
        "agent_utility_se": [0.00047864220732789795], "audit_frequency": 0.152679443359375,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "scaled_triangular": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 0.6312910764859678,
        "revenue_se": 0.0007066671319309637, "agent_utility": [0.11530709248419498],
        "agent_utility_se": [0.00031183628675382095], "audit_frequency": 0.17331695556640625,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "mixed_pair": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 1.1286309461576998,
        "revenue_se": 0.0008693194570556999,
        "agent_utility": [0.2191836653987909, 0.018528554909766015],
        "agent_utility_se": [0.0012566897224632542, 0.00017326123836946525],
        "audit_frequency": 0.43735504150390625, "mean_on_path_penalty": 0.0,
        "allocation_frequency": [0.8357772827148438, 0.16422271728515625]},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_revenue_golden_reports(shipped_instances, workers):
    for name, want in _GOLDEN_REPORTS.items():
        rep = rc.estimate_revenue(shipped_instances[name], None, 1 << 17, 1, workers)
        assert rep.to_dict() == want, name
