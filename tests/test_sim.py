import concurrent.futures
import math
import statistics
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from scipy.integrate import quad

import royaltycap as rc
from royaltycap import AgentSpec, make_income_family, make_type_dist
from royaltycap import sim as S
from royaltycap.instances import scaled_triangular, scaled_uniform, uniform_additive_agent

import oracles
from conftest import distinct_bidders, st_pi_star
from oracles import philox_uniforms


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


@pytest.mark.parametrize("start", [0, 37])
@pytest.mark.parametrize("n_agents", [1, 2, 3, 6])
def test_uniform_matrix_is_the_philox_stream(ua_agent, n_agents, start):
    # the chunk's uniforms are the raw Philox formula, one row per run, and
    # row r is the start of run (start + r)'s own stream
    u = S._uniform_matrix(n_agents, 77, start, 50)
    assert np.array_equal(u, philox_uniforms(n_agents, 77, start, 50))
    inst = rc.AuctionInstance((ua_agent,) * n_agents)
    for r in (0, 1, 49):
        assert np.array_equal(u[r], rc.run_rng(inst, 77, start + r).random(n_agents + 2))


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


def test_strategy_profile_must_cover_every_agent(pair_inst):
    one = rc.StrategyProfile.truthful(1)
    for call in (lambda: one.validate(2),
                 lambda: rc.estimate_revenue(pair_inst, one, n_runs=1000),
                 lambda: rc.run_auction(pair_inst, one, np.random.default_rng(0))):
        with pytest.raises(rc.ConstructionError, match="cover every agent"):
            call()


def test_strategy_entries_must_be_none_or_callable(ua_inst, pair_inst):
    # a number used to fail mid-simulation ("'float' object is not
    # callable"), and run_auction took no None
    for bad in (rc.StrategyProfile((0.5,), (None,)), rc.StrategyProfile((None,), ("x",))):
        for call in (lambda: bad.validate(1),
                     lambda: rc.estimate_revenue(ua_inst, bad, n_runs=1000),
                     lambda: rc.run_auction(ua_inst, bad, np.random.default_rng(0))):
            with pytest.raises(rc.ConstructionError, match="None or callable"):
                call()
    truthful = rc.StrategyProfile.truthful(2)
    for r in range(8):
        assert (rc.run_auction(pair_inst, None, rc.run_rng(pair_inst, 3, r))
                == rc.run_auction(pair_inst, truthful, rc.run_rng(pair_inst, 3, r)))


def test_workers_guard(ua_inst):
    with pytest.raises(rc.ConstructionError):
        rc.estimate_revenue(ua_inst, None, n_runs=1000, seed=0, workers=0)


@pytest.mark.parametrize("workers", [1.5, 2.0, np.float64(2), True, "2"])
def test_worker_count_must_be_an_integer(ua_inst, workers):
    # ignored, the worker count is still checked
    with pytest.raises(rc.ConstructionError, match="workers must be an integer"):
        rc.estimate_revenue(ua_inst, None, 100_000, 0, workers)


@pytest.mark.parametrize("kw", [{"seed": 1.5}, {"seed": -1}, {"seed": True},
                                {"seed": 1 << 128}, {"seed": "1"}, {"n_runs": 1000.0},
                                {"n_runs": np.float64(2000)}])
def test_seed_and_run_count_guard(ua_inst, ua_agent, kw):
    # a seed is a Philox key, a nonnegative integer, and a run count is an
    # integer; a sweep checks both before its first row
    args = {"n_runs": 1000, "seed": 0, **kw}
    with pytest.raises(rc.ConstructionError):
        rc.estimate_revenue(ua_inst, None, **args)
    with pytest.raises(rc.ConstructionError):
        rc.sweep(lambda c: rc.AuctionInstance((replace(ua_agent, audit_cost=c),)),
                 [0.2], **args)
    if "seed" in kw:
        with pytest.raises(rc.ConstructionError):
            rc.run_rng(ua_inst, kw["seed"], 0)


@pytest.mark.parametrize("run_index", [1.5, True, -1, "3"])
def test_run_index_guard(ua_inst, run_index):
    # a run index is a nonnegative integer, checked as a seed is: 1.5 and
    # True would otherwise give run 1's stream, and -1 numpy's own error
    with pytest.raises(rc.ConstructionError, match="run_index"):
        rc.run_rng(ua_inst, 0, run_index)


def test_numpy_integer_run_index(ua_inst):
    assert np.array_equal(rc.run_rng(ua_inst, 5, np.int64(3)).random(3),
                          rc.run_rng(ua_inst, 5, 3).random(3))


def test_numpy_integer_seed_and_run_count(ua_inst):
    # numpy integers are accepted and recorded as Python ints, and every
    # estimate is a Python float
    want = rc.estimate_revenue(ua_inst, None, n_runs=1000, seed=3)
    got = rc.estimate_revenue(ua_inst, None, n_runs=np.int64(1000), seed=np.uint32(3))
    assert got == want
    assert type(got.seed) is int and type(got.n_runs) is int
    values = [got.revenue_net_audits, got.revenue_se, got.audit_frequency,
              got.mean_on_path_penalty, *got.agent_utility, *got.agent_utility_se,
              *got.allocation_frequency]
    assert all(type(v) is float for v in values)


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


def test_sweep_keeps_rows_whose_cash_benchmark_is_undefined():
    # this type law's Myerson virtual value dips, so the cash benchmark is
    # undefined; the instance itself is regular and its mechanism is not
    types = rc.make_type_dist("table", {"grid": [1.0, 1.2, 1.4, 1.6, 1.8, 2.0],
                                        "cdf": [0.0, 0.45, 0.5, 0.55, 0.6, 1.0]})
    agent = rc.AgentSpec(types, rc.make_income_family(
        "additive_error", {"error": {"family": "uniform", "lo": -1.0, "hi": 1.0}}), 0.0, 1.0)
    assert rc.check_regularity(agent).all_ok
    with pytest.raises(rc.RegularityError):
        rc.myerson_cash_revenue(rc.AuctionInstance((agent,)))
    rows = rc.sweep(lambda c: rc.AuctionInstance((replace(agent, audit_cost=c),)),
                    [0.0, 0.1], n_runs=2_000, seed=1)
    assert [r["failed"] for r in rows] == [False, False]
    assert [r["myerson_cash_revenue"] for r in rows] == [None, None]
    assert rows[0]["payoff_bound"] == pytest.approx(1.47875, abs=1e-9)
    assert all(np.isfinite(r["revenue_net_audits"]) for r in rows)


def test_sweep_mean_pi_star_matches_closed_forms(ua_agent):
    # uniform_additive: pi_star = theta + 1 below 2 - 2c and 0 above, a jump
    # that the table grid brackets; scaled_uniform: pi_star = 1/2 on
    # [1/2, 3/4] and 0 above; scaled_triangular: quad of the closed-form
    # threshold against the density 8 (theta - 1/2), split at its kink
    rows = rc.sweep(lambda c: rc.AuctionInstance((replace(ua_agent, audit_cost=c),)),
                    [0.0, 0.2, 0.4], n_runs=1_000, seed=0)
    assert [r["mean_pi_star"] for r in rows] == pytest.approx([2.5, 1.38, 0.42], abs=1e-8)
    kink = (1.0 + np.sqrt(5.0)) / 4.0
    st = sum(quad(lambda t: st_pi_star(t) * 8.0 * (t - 0.5), a, b, epsabs=1e-13)[0]
             for a, b in ((0.5, kink), (kink, 1.0)))
    assert st == pytest.approx(0.27364432738, abs=1e-11)
    for build, want in ((scaled_uniform, 0.25), (scaled_triangular, st)):
        (row,) = rc.sweep(lambda _: build(), [0.0], n_runs=1_000, seed=0)
        assert row["mean_pi_star"] == pytest.approx(want, abs=1e-8)


def test_sweep_empty_axis(ua_agent):
    def builder(c):
        return rc.AuctionInstance((replace(ua_agent, audit_cost=c),))

    assert rc.sweep(builder, [], n_runs=2_000, seed=0) == []


# ---------------------------------------------------------------------------
# Allocation ties, worker count and golden reports
# ---------------------------------------------------------------------------

def test_top_two_matches_stable_argsort():
    # ties go to the highest index, as a stable ascending sort orders them;
    # tied draws from a few values (-inf among them) and tie-free floats
    rs = np.random.default_rng(4)
    cases = [rs.choice([-0.5, 0.0, 0.25, 0.5], size=(400, n)) for n in (1, 2, 3, 4, 5)]
    cases += [rs.choice([-np.inf, -0.5, 0.0, 0.5], size=(400, n)) for n in (2, 3, 4)]
    cases += [rs.normal(size=(400, n)) for n in (2, 3)]
    for psi in cases:
        n_agents = psi.shape[1]
        w, top, second = rc.mech._top_two(psi)
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


def test_cli_import_leaves_out_the_worker_pool():
    # neither the import nor a two-chunk simulation with two workers loads
    # the thread pool's module
    code = ("import sys, royaltycap.cli, royaltycap as rc\n"
            "from royaltycap.instances import uniform_additive\n"
            "rc.estimate_revenue(uniform_additive(), None, 2 * rc.sim._CHUNK, 0, workers=2)\n"
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_reports_independent_of_chunk_size(ua_inst, pair_inst, monkeypatch):
    # every block of runs is reduced the same way whatever the chunk size and
    # worker count, including Python-level strategy and audit callables, and
    # with a last block shorter than the others or whole
    shade = rc.StrategyProfile(type_reports=(lambda th: 0.9 * th + 0.1,),
                               income_reports=(None,))
    cases = [(ua_inst, {}), (pair_inst, {}),
             (ua_inst, {"strategies": shade,
                        "audit_prob": lambda th, pi: np.full_like(th, 0.5)})]
    for n_runs in (20_011, 20 * S._BLOCK):
        for inst, kw in cases:
            monkeypatch.undo()
            want = rc.estimate_revenue(inst, n_runs=n_runs, seed=9, **kw)
            for chunk in (1 << 12, 1 << 14):
                monkeypatch.setattr(S, "_CHUNK", chunk)
                for workers in (1, 2, 3, 6):
                    got = rc.estimate_revenue(inst, n_runs=n_runs, seed=9,
                                              workers=workers, **kw)
                    assert got == want, (n_runs, chunk, workers)


@pytest.mark.parametrize("chunk", [None, 1 << 12])
def test_reports_match_exact_moments(ua_inst, pair_inst, monkeypatch, chunk):
    # each mean is within 1e-14 of the exact sum of the runs rounded once,
    # each standard error within 1e-14 of the exactly rounded variance's,
    # and the counts are exact; the income under-report draws penalties
    if chunk is not None:
        monkeypatch.setattr(S, "_CHUNK", chunk)
    under = rc.StrategyProfile((None,), ((lambda th, tr, pi: 0.9 * pi),))
    for inst, strategies in ((ua_inst, None), (pair_inst, None), (ua_inst, under)):
        for n_runs in (1000, 20_011):
            want = oracles.sim_report(inst, n_runs, 4, strategies)
            for workers in (1, 2, 3):
                got = rc.estimate_revenue(inst, strategies, n_runs, 4, workers).to_dict()
                for key in ("revenue_net_audits", "revenue_se", "agent_utility",
                            "agent_utility_se", "mean_on_path_penalty"):
                    assert np.allclose(got[key], want[key], rtol=1e-14, atol=0), key
                for key in ("n_runs", "seed", "audit_frequency", "allocation_frequency"):
                    assert got[key] == want[key], key
            assert strategies is None or want["mean_on_path_penalty"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_memory_does_not_grow_with_runs(ua_inst, workers):
    # the runs are reduced chunk by chunk: 16 times the runs take no more
    # memory at the peak
    rc.estimate_revenue(ua_inst, None, 1 << 15, 0, workers)
    peaks = []
    for n_runs in (1 << 15, 1 << 19):
        tracemalloc.start()
        try:
            rc.estimate_revenue(ua_inst, None, n_runs, 0, workers)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 2 << 20, peaks


_SHIPPED = ["uniform_additive", "scaled_uniform", "scaled_triangular", "mixed_pair"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_minflt counts minor page faults on Linux")
@pytest.mark.parametrize("name", _SHIPPED)
def test_chunks_fault_in_no_new_memory(shipped_instances, name):
    # each thread reuses one workspace for every chunk, so after a warm-up
    # call more serial chunks fault in no more memory: 8 chunks may take at
    # most 2,000 more minor page faults than 2 (a chunk's arrays faulted in
    # afresh take about 900 each)
    import resource

    inst = shipped_instances[name]
    rc.estimate_revenue(inst, None, 8 * S._CHUNK, 1)

    def faults(n_runs):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        rc.estimate_revenue(inst, None, n_runs, 1)
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    assert faults(8 * S._CHUNK) - faults(2 * S._CHUNK) <= 2000


@pytest.mark.parametrize("name", _SHIPPED)
def test_warm_calls_allocate_no_run_sized_array(shipped_instances, name):
    # every stage of a chunk writes into the thread's workspace, the income
    # draws and support ends included: after a warm-up call, the peak of
    # what a 2^17-run call allocates stays below one row of a chunk (the
    # scaled families' income draws used to be new arrays of a row each,
    # and the runs one of two agents wins one index array)
    inst = shipped_instances[name]
    rc.estimate_revenue(inst, None, 1 << 17, 1)
    tracemalloc.start()
    try:
        rc.estimate_revenue(inst, None, 1 << 17, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * S._chunk_runs(inst.n_agents), peak


def _reserve() -> rc.AuctionInstance:
    """One bidder, types U[0.5, 2], additive U[-0.5, 0.5] errors, c = 0.2,
    phi = 0.5: its virtual value is negative at low types, so some runs go
    unsold."""
    return rc.AuctionInstance((AgentSpec(
        types=make_type_dist("uniform", {"lo": 0.5, "hi": 2.0}),
        income=make_income_family("additive_error",
                                  {"error": {"family": "uniform", "lo": -0.5, "hi": 0.5}}),
        audit_cost=0.2, sensitivity=0.5),))


@pytest.mark.parametrize("audit", [None, lambda th, pi: np.full_like(th, 0.5)],
                         ids=["optimal", "coin"])
@pytest.mark.parametrize("name", ["mixed_pair", "reserve"])
def test_batch_results_are_views_into_the_given_workspace(pair_inst, name, audit):
    # a chunk's arrays lie at fixed rows of the workspace (``S._rows``):
    # given a NaN-filled one, every result is a view into it and equals the
    # freshly allocated batch's bit for bit, whether one agent wins part of
    # the runs (mixed_pair) or some runs go unsold (a reserve on U[0.5, 2])
    inst = pair_inst if name == "mixed_pair" else _reserve()
    n, N = 3000, inst.n_agents
    u = S._uniform_matrix(N, 5, 0, n)
    strategies, tables = rc.StrategyProfile.truthful(N), rc.tables_for(inst)
    want = S._simulate_batch(inst, strategies, u, tables, audit)
    assert 0 < np.count_nonzero(want["winner"] == 0) < n
    ws = np.full((S._rows(N), n), np.nan)
    got = S._simulate_batch(inst, strategies, u, tables, audit, ws)
    assert got.keys() == want.keys()
    for key, x in got.items():
        assert np.shares_memory(x, ws), key
        assert x.dtype == want[key].dtype and x.tobytes() == want[key].tobytes(), key


def _in_new_thread(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` called in a thread of its own, so with a
    fresh workspace."""
    got = []
    thread = threading.Thread(target=lambda: got.append(fn(*args, **kwargs)))
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(got) == 1
    return got[0]


@pytest.mark.parametrize("name,chunk", [("uniform_additive", 21_504), ("mixed_pair", 16_384),
                                        ("three", 12_288), ("reserve", 21_504)])
def test_workspace_stays_below_the_huge_page_threshold(shipped_instances, monkeypatch,
                                                       name, chunk):
    # numpy advises arrays of 4 MiB or more onto 2 MB pages, where the rows
    # a chunk leaves unwritten would be resident too: a chunk holds the most
    # whole blocks whose buffer stays below that, in a fresh thread and after
    # a call of 2^17 runs, and the reports equal those of 4,096-run chunks
    inst = {**shipped_instances, "three": distinct_bidders(3), "reserve": _reserve()}[name]
    assert S._chunk_runs(inst.n_agents) == chunk

    def call():
        return rc.estimate_revenue(inst, None, 1 << 17, 3), S._CALLER.buf.nbytes

    got, nbytes = _in_new_thread(call)
    assert nbytes < 4 * 2**20
    if name == "reserve":
        assert 0.5 < got.allocation_frequency[0] < 0.95
    monkeypatch.setattr(S, "_CHUNK", 1 << 12)
    assert rc.estimate_revenue(inst, None, 1 << 17, 3) == got


def test_concurrent_callers_match_the_serial_reports(pair_inst):
    # four threads simulate one shared instance at once, each with its own
    # workspace, warmed by a first call: every report equals the serial
    # one, under the optimal and a random audit rule
    coin = lambda th, pi: np.full_like(th, 0.5)  # noqa: E731
    cases = [(workers, audit) for workers in (1, 2) for audit in (None, coin)]
    want = {audit: rc.estimate_revenue(pair_inst, None, 70_000, 5, audit_prob=audit)
            for audit in (None, coin)}
    start = threading.Barrier(len(cases))

    def call(workers, audit):
        assert rc.estimate_revenue(pair_inst, None, 70_000, 5, audit_prob=audit) == want[audit]
        start.wait(timeout=300)
        return rc.estimate_revenue(pair_inst, None, 70_000, 5, workers, audit_prob=audit)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, inside every stage
    try:
        with concurrent.futures.ThreadPoolExecutor(len(cases)) as pool:
            futures = [pool.submit(call, *case) for case in cases]
            got = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for (workers, audit), rep in zip(cases, got):
        assert rep == want[audit], workers


def test_workspace_grows_and_shrinks_without_stale_values(shipped_instances):
    # in one thread: a one-agent call, a two-agent call (the workspace
    # grows), then one-agent calls of 20,011 runs, whose last chunk is
    # shorter, one with unsold runs; each report equals the golden one or
    # that of a fresh workspace, and the oracle's counts exactly
    reserve = _reserve()
    short = {name: _in_new_thread(rc.estimate_revenue, inst, None, 20_011, 1)
             for name, inst in (("uniform_additive", shipped_instances["uniform_additive"]),
                                ("reserve", reserve))}
    assert 0.5 < short["reserve"].allocation_frequency[0] < 0.95

    def sequence():
        reports = [rc.estimate_revenue(shipped_instances[name], None, 1 << 17, 1)
                   for name in ("uniform_additive", "mixed_pair")]
        reports += [rc.estimate_revenue(inst, None, 20_011, 1)
                    for inst in (shipped_instances["uniform_additive"], reserve)]
        return reports

    golden_ua, golden_pair, short_ua, short_reserve = _in_new_thread(sequence)
    assert golden_ua.to_dict() == _GOLDEN_REPORTS["uniform_additive"]
    assert golden_pair.to_dict() == _GOLDEN_REPORTS["mixed_pair"]
    assert short_ua == short["uniform_additive"] and short_reserve == short["reserve"]
    for inst, rep in ((shipped_instances["uniform_additive"], short_ua), (reserve, short_reserve)):
        want = oracles.sim_report(inst, 20_011, 1)
        got = rep.to_dict()
        for key in ("n_runs", "seed", "audit_frequency", "allocation_frequency"):
            assert got[key] == want[key], key
        for key in ("revenue_net_audits", "revenue_se", "agent_utility", "agent_utility_se"):
            assert np.allclose(got[key], want[key], rtol=1e-14, atol=0), key


@pytest.mark.parametrize("n", [1000, S._BLOCK, 5 * S._BLOCK + 3])
@pytest.mark.parametrize("c", [0.0, 0.1, -3.7, 1e8 + 0.3])
def test_constant_runs_have_zero_standard_error(n, c):
    mean, se = S._mean_se(S._block_moments(np.full(n, c)), n)
    assert mean == c and se == 0.0


def test_block_moments_of_offset_data():
    # 1e8 + U[0, 1]: the blocks' offsets from their first values keep the
    # spread exact to 1e-12 against the sample variance in Fractions
    x = 1e8 + np.random.default_rng(3).random(20_011)
    xs = x.tolist()
    mean, se = S._mean_se(S._block_moments(x), x.size)
    assert mean == pytest.approx(math.fsum(xs) / x.size, rel=1e-12, abs=0)
    assert se == pytest.approx(math.sqrt(statistics.variance(xs)) / math.sqrt(x.size),
                               rel=1e-12, abs=0)


# estimate_revenue(inst, None, 2**17, seed=1) on the shipped instances, with
# 1 and 2 workers, as computed with the information rent integrated by the
# trapezoid rule on the table grid and the runs reduced over blocks of 1,024
# (each field within an ulp of the exactly rounded one); any change here
# breaks the bit-identity of the simulator
_GOLDEN_REPORTS = {
    "uniform_additive": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 1.0894076071307652,
        "revenue_se": 0.0007998485993311312, "agent_utility": [0.2904995983696257],
        "agent_utility_se": [0.0013047138977388103], "audit_frequency": 0.5995712280273438,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "scaled_uniform": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 0.5245498266142434,
        "revenue_se": 0.000665339320448823, "agent_utility": [0.14880782525667818],
        "agent_utility_se": [0.0004786422087279021], "audit_frequency": 0.152679443359375,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "scaled_triangular": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 0.6312910731123157,
        "revenue_se": 0.000706667129006535, "agent_utility": [0.11530709585784707],
        "agent_utility_se": [0.00031183628949167755], "audit_frequency": 0.17331695556640625,
        "mean_on_path_penalty": 0.0, "allocation_frequency": [1.0]},
    "mixed_pair": {
        "n_runs": 131072, "seed": 1, "revenue_net_audits": 1.1286309460810315,
        "revenue_se": 0.0008693194573504739,
        "agent_utility": [0.2191836653988946, 0.01852855498633395],
        "agent_utility_se": [0.001256689722463198, 0.0001732612388598899],
        "audit_frequency": 0.43735504150390625, "mean_on_path_penalty": 0.0,
        "allocation_frequency": [0.8357772827148438, 0.16422271728515625]},
}


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_revenue_golden_reports(shipped_instances, workers):
    for name, want in _GOLDEN_REPORTS.items():
        rep = rc.estimate_revenue(shipped_instances[name], None, 1 << 17, 1, workers)
        assert rep.to_dict() == want, name


def test_every_chunk_runs_in_the_calling_thread(shipped_instances, monkeypatch):
    # no thread is started, whatever the worker count
    def no_thread(self):
        raise AssertionError("estimate_revenue must start no thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for workers in (1, 2, 32):
        for name, want in _GOLDEN_REPORTS.items():
            rep = rc.estimate_revenue(shipped_instances[name], None, 1 << 17, 1, workers)
            assert rep.to_dict() == want, (name, workers)
