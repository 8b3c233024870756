"""Monte Carlo simulation of the auction protocol.

One run walks the full protocol: types are drawn, reported (through the
strategy profile), the asset is allocated by virtual value, the winner's
income is realized from the *true* conditional law, reported (projected into
the reported type's support), royalties / audits / penalties are applied,
and the principal's revenue nets out audit costs.

Reproducibility contract: run ``r`` of a simulation with seed ``s`` consumes
the Philox counter blocks ``[r*m, (r+1)*m)`` under key ``s``, where ``m`` is
the number of 256-bit blocks needed for one run.  Streams therefore never
overlap, results do not depend on chunking, and threaded execution is
byte-identical to serial.  Equivalently, run ``r`` sees exactly the draws of
``numpy.random.Generator(numpy.random.Philox(key=s, counter=r*m))``, and a
chunk of runs starting at ``r`` draws all its uniforms from that one
generator, as a single ``random`` fill laid out one run per row.

A chunk runs every stage on whole arrays: type ppf, one grid search per
type report shared by every table lookup, the allocation as one pass per
agent column, then settlement on the runs each agent wins.  When one agent
wins every run of a chunk (a lone bidder does whenever no run goes unsold),
its stages read and write whole columns instead of gathering and scattering
the won runs.

A report reduces the runs over fixed blocks of ``_BLOCK`` runs aligned to
the run index.  Chunks hold whole blocks, and each chunk reduces its own in
the thread that simulated it, to a few numbers per block (``_block_moments``)
and integer counts; the blocks' terms are then added exactly by
``math.fsum`` (``_mean_se``).  The report depends only on (instance,
strategies, n_runs, seed), and memory does not grow with ``n_runs``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dist import project_to_support
from .errors import ConstructionError, RoyaltycapError
from .mech import (
    AuctionInstance,
    MechanismTables,
    Outcome,
    _allocate,
    _cum_trapezoid,
    _settle,
    _where_zero,
    full_extraction_revenue,
    myerson_cash_revenue,
    payoff_bound,
    tables_for,
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyProfile:
    """Per-agent reporting behavior.

    ``type_reports[i]`` maps the true type to the reported type;
    ``income_reports[i]`` maps (theta_true, theta_report, pi_true) to the
    income report.  ``None`` entries mean truthful reporting (with income
    projected onto the reported type's support).  Whatever an income map
    returns is projected as well, so reports always land in the feasible
    set.  Callables must accept scalars; with several workers they may run
    on several threads at once.
    """

    type_reports: tuple = ()
    income_reports: tuple = ()

    @staticmethod
    def truthful(n_agents: int) -> "StrategyProfile":
        return StrategyProfile((None,) * n_agents, (None,) * n_agents)

    def validate(self, n_agents: int):
        if len(self.type_reports) != n_agents or len(self.income_reports) != n_agents:
            raise ConstructionError("strategy profile must cover every agent")


# ---------------------------------------------------------------------------
# Simulation report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimReport:
    """Monte Carlo estimates with standard errors; reproducible from the seed.

    ``mean_on_path_penalty`` is the mean absolute penalty actually charged
    during play (exactly zero under truthful reporting)."""

    n_runs: int
    seed: int
    revenue_net_audits: float
    revenue_se: float
    agent_utility: tuple
    agent_utility_se: tuple
    audit_frequency: float
    mean_on_path_penalty: float
    allocation_frequency: tuple

    def to_dict(self) -> dict:
        return {
            "n_runs": self.n_runs,
            "seed": self.seed,
            "revenue_net_audits": self.revenue_net_audits,
            "revenue_se": self.revenue_se,
            "agent_utility": list(self.agent_utility),
            "agent_utility_se": list(self.agent_utility_se),
            "audit_frequency": self.audit_frequency,
            "mean_on_path_penalty": self.mean_on_path_penalty,
            "allocation_frequency": list(self.allocation_frequency),
        }


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def _blocks_per_run(n_agents: int) -> int:
    # one uniform per type draw, one for the winner's income, and one for
    # audit randomization, packed into 256-bit blocks of four doubles
    return (n_agents + 2 + 3) // 4


def _check_seed(seed):
    """Reject a seed that is not a Philox key: a nonnegative integer below
    2**128 (numpy integers accepted, bool rejected)."""
    if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
            or not 0 <= seed < 1 << 128):
        raise ConstructionError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _stream(n_agents: int, seed: int, run_index: int) -> np.random.Generator:
    """The generator whose first draws are run ``run_index``'s."""
    m = _blocks_per_run(n_agents)
    return np.random.Generator(np.random.Philox(key=seed, counter=run_index * m))


def run_rng(inst: AuctionInstance, seed: int, run_index: int) -> np.random.Generator:
    """The exact random stream consumed by run ``run_index`` of a simulation
    with this seed."""
    _check_seed(seed)
    return _stream(inst.n_agents, seed, run_index)


def _uniform_matrix(n_agents: int, seed: int, start: int, count: int,
                    buf: Optional[np.ndarray] = None) -> np.ndarray:
    """Uniforms for runs [start, start+count), one row per run: the stream of
    run ``start``, continued through ``count`` runs' counter blocks, filled
    into the front of ``buf`` when one is given."""
    width = 4 * _blocks_per_run(n_agents)
    u = np.empty(width * count) if buf is None else buf[: width * count]
    _stream(n_agents, seed, start).random(out=u)
    return u.reshape(count, width)[:, : n_agents + 2]


# ---------------------------------------------------------------------------
# Batched protocol execution
# ---------------------------------------------------------------------------


def _apply_map(fn: Optional[Callable], *cols):
    if fn is None:
        return np.array(cols[-1], dtype=float, copy=True)
    return np.array([fn(*args) for args in zip(*cols)], dtype=float)


def _unsold(n: int, N: int) -> tuple:
    """The outputs of ``n`` runs among ``N`` agents with nothing sold: zero
    transfers, royalties, audits, penalties, audit costs and utilities."""
    return (np.zeros((N, n)).T, np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n),
            np.zeros(n), np.zeros((N, n)).T)


def _simulate_batch(inst: AuctionInstance, strategies: StrategyProfile,
                    u: np.ndarray, tables: MechanismTables,
                    audit_prob: Optional[Callable] = None) -> dict:
    """Vectorized protocol over a matrix of per-run uniforms.

    ``audit_prob``, if given, replaces the deterministic audit rule with a
    probabilistic one: a callable (theta_report, pi_report) -> probability,
    resolved per run with the run's own audit-randomization uniform.  (Used
    for simulating user mechanisms; the revenue-optimal rule stays
    deterministic.)
    """
    n = u.shape[0]
    N = inst.n_agents

    # one contiguous column per agent, for the allocation's column pass
    psi_rep = np.empty((N, n)).T
    draws = []
    for i, agent in enumerate(inst.agents):
        th_true = agent.types.ppf(u[:, i])
        th_rep = _apply_map(strategies.type_reports[i], th_true)
        np.clip(th_rep, agent.types.lo, agent.types.hi, out=th_rep)
        # one grid search per report, shared by every table lookup below
        located = tables.locate(i, th_rep)
        psi_rep[:, i] = tables.psi(i, located)
        draws.append((th_true, th_rep, located))

    winner, rival = _allocate(psi_rep)
    del psi_rep  # its memory serves the settlement's arrays

    outputs = None  # transfers, royalty, audited, penalty, audit cost, utility
    for i, (agent, (th_true, th_rep, located)) in enumerate(zip(inst.agents, draws)):
        hit = winner == i
        count = np.count_nonzero(hit)
        if not count:
            continue
        # the runs the agent wins; all of them by a slice, which copies nothing
        whole = count == n
        m = slice(None) if whole else np.flatnonzero(hit)
        th_t, th_r = th_true[m], th_rep[m]
        at = located if whole else located.take(m)
        # only the winner's income is ever realized
        pi = agent.income.ppf(u[m, N], th_t)
        rep_fn = strategies.income_reports[i]
        pi_rep = pi if rep_fn is None else _apply_map(rep_fn, th_t, th_r, pi)
        pi_rep = project_to_support(agent.income, th_r, pi_rep)

        draw = None
        if audit_prob is not None:
            draw = u[m, N + 1] < np.asarray(audit_prob(th_r, pi_rep), dtype=float)
        r, a, p = _settle(pi, pi_rep, tables.pi_star(i, at),
                          np.asarray(agent.income.supp_hi(th_r)), agent.sensitivity, draw)
        # a lone bidder always faces the rival value 0: one threshold type
        # instead of one per run (about a third of the serial time otherwise)
        t = tables.transfer_win(i, at, rival[m] if N > 1 else 0.0)
        cost = _where_zero(a, agent.audit_cost)
        gain = pi - r - p - t
        if N == 1 and whole:
            # a lone bidder that wins every run: its results are the outputs
            outputs = (t[:, None], r, a, p, cost, gain[:, None])
            break
        if outputs is None:
            outputs = _unsold(n, N)
        transfers, royalty, audited, pen, audit_cost, utility = outputs
        transfers[m, i] = t
        royalty[m] = r
        audited[m] = a
        pen[m] = p
        audit_cost[m] = cost
        utility[m, i] = gain

    transfers, royalty, audited, pen, audit_cost, utility = outputs or _unsold(n, N)
    # each row holds one transfer at most, so column adds give its row sum
    paid = transfers[:, 0]
    for i in range(1, N):
        paid = paid + transfers[:, i]
    revenue = paid + royalty + pen - audit_cost
    return {
        "winner": winner,
        "transfers": transfers,
        "royalty": royalty,
        "audited": audited,
        "penalty": pen,
        "audit_cost": audit_cost,
        "utility": utility,
        "revenue": revenue,
    }


def run_auction(inst: AuctionInstance, strategies: StrategyProfile,
                rng: np.random.Generator,
                audit_prob: Optional[Callable] = None) -> Outcome:
    """Execute one auction round, consuming ``n_agents + 2`` uniforms from
    ``rng`` (type draws, the winner's income draw, and one audit-
    randomization draw that the deterministic rule leaves unused)."""
    strategies.validate(inst.n_agents)
    u = rng.random(inst.n_agents + 2)[None, :]
    b = _simulate_batch(inst, strategies, u, tables_for(inst), audit_prob)
    w = int(b["winner"][0])
    return Outcome(
        winner=None if w < 0 else w,
        transfers=tuple(float(x) for x in b["transfers"][0]),
        royalty=float(b["royalty"][0]),
        audited=bool(b["audited"][0]),
        penalty=float(b["penalty"][0]),
        audit_cost_paid=float(b["audit_cost"][0]),
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# runs in memory at once: one serial chunk, or one chunk on each thread
# with chunks of _CHUNK / threads runs
_CHUNK = 1 << 15
# runs per reduction block.  Blocks are aligned to the run index and every
# chunk holds whole blocks, so a block is reduced the same way however the
# runs are chunked; a power of two, so that _BLOCK * x is exact (``_mean_se``)
_BLOCK = 1 << 10
# fewest runs a revenue estimate accepts
_MIN_RUNS = 1_000


def _check_run_args(n_runs, seed, workers):
    """Reject a run count that is not an integer of at least ``_MIN_RUNS``,
    a seed that is not a Philox key, and a worker count that is not an
    integer of at least 1."""
    if isinstance(n_runs, bool) or not isinstance(n_runs, (int, np.integer)):
        raise ConstructionError(f"n_runs must be an integer, got {n_runs!r}")
    if n_runs < _MIN_RUNS:
        raise ConstructionError(f"n_runs must be at least {_MIN_RUNS}")
    _check_seed(seed)
    if isinstance(workers, bool) or not isinstance(workers, (int, np.integer)):
        raise ConstructionError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ConstructionError("workers must be at least 1")


def _blocks(x: np.ndarray) -> list:
    """The 1-D array ``x``, which starts on a block boundary, as rows of
    ``_BLOCK`` values, then its shorter last block (if any) as one row."""
    full = x.size - x.size % _BLOCK
    return [r for r in (x[:full].reshape(-1, _BLOCK), x[full:].reshape(1, -1)) if r.size]


def _block_moments(x: np.ndarray) -> np.ndarray:
    """One row per block of ``x`` (``_blocks``): the block's first value x0,
    the sum s of its offsets d = x - x0, and their centred sum of squares
    M2 = sum((d - s / n_b)**2).  A constant block has s = M2 = 0.  Works in
    place: ``x`` is overwritten."""
    parts = []
    for d in _blocks(x):
        x0 = d[:, 0].copy()
        d -= x0[:, None]
        s = d.sum(axis=1)
        d -= (s / d.shape[1])[:, None]
        d *= d
        parts.append(np.column_stack((x0, s, d.sum(axis=1))))
    return np.concatenate(parts)


def _mean_se(parts: np.ndarray, n: int) -> tuple:
    """Mean and standard error of ``n`` values from their ``_block_moments``
    rows in run order.  Each block is read as offsets from m0, the first
    value of the last block, so that every other block is whole and its
    shift x0_b - m0 times ``_BLOCK`` is exact: the total offset,
    sum(n_b (x0_b - m0) + s_b), is summed exactly by ``math.fsum`` and
    divided once, and M2 = sum(M2_b) + sum(n_b (o_b - o)**2) over the block
    mean offsets o_b and their mean o (Chan, Golub & LeVeque 1983) is summed
    by ``fsum`` as well.  The result does not depend on the order of the
    terms, and a constant column has a standard error of 0."""
    x0, s, m2 = parts.T
    sizes = np.full(x0.size, float(_BLOCK))
    sizes[-1] = n - _BLOCK * (x0.size - 1)
    m0 = float(x0[-1])
    shift = x0 - m0
    o = math.fsum([*(shift * _BLOCK).tolist(), *s.tolist()]) / n
    dev = shift + s / sizes - o
    m2_total = math.fsum([*m2.tolist(), *(sizes * dev * dev).tolist()])
    return m0 + o, math.sqrt(m2_total / (n - 1)) / math.sqrt(n)


def estimate_revenue(inst: AuctionInstance, strategies: Optional[StrategyProfile] = None,
                     n_runs: int = 100_000, seed: int = 0,
                     workers: int = 1,
                     audit_prob: Optional[Callable] = None) -> SimReport:
    """Monte Carlo estimate of expected revenue net audit costs.

    Under truthful strategies the estimate matches the analytic expected
    revenue E[max_i psi_i(theta_i)_+] up to Monte Carlo error.  Each chunk
    reduces its runs, in the thread that simulated them, to partials of
    fixed blocks of ``_BLOCK`` runs aligned to the run index (``_mean_se``)
    and to integer counts, so memory does not grow with ``n_runs`` and the
    report does not depend on chunking or on the number of worker threads.
    """
    _check_run_args(n_runs, seed, workers)
    n_runs = int(n_runs)
    if strategies is None:
        strategies = StrategyProfile.truthful(inst.n_agents)
    strategies.validate(inst.n_agents)
    tables = tables_for(inst)
    N = inst.n_agents

    # one chunk runs in-line; threads share one serial chunk's runs at a
    # time, each taking whole blocks
    threads = min(workers, -(-n_runs // _CHUNK))
    size = max(_CHUNK // threads // _BLOCK, 1) * _BLOCK

    # each thread fills the uniforms of all its chunks into one buffer
    local = threading.local()

    def chunk(start):
        if not hasattr(local, "buf"):
            local.buf = np.empty(4 * _blocks_per_run(N) * min(size, n_runs))
        u = _uniform_matrix(N, seed, start, min(size, n_runs - start), local.buf)
        b = _simulate_batch(inst, strategies, u, tables, audit_prob)
        moments = np.stack([_block_moments(x) for x in (b["revenue"], *b["utility"].T)])
        pen = np.concatenate([np.abs(r, out=r).sum(axis=1) for r in _blocks(b["penalty"])])
        wins = np.bincount(b["winner"] + 1, minlength=N + 1)[1:]
        return moments, pen, np.count_nonzero(b["audited"]), wins

    starts = range(0, n_runs, size)
    if threads > 1:
        # imported here: it costs start-up time, and only a pool needs it
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(chunk, starts))
    else:
        parts = [chunk(s) for s in starts]
    moments, pen, audits, wins = zip(*parts)
    moments = np.concatenate(moments, axis=1)

    revenue, revenue_se = _mean_se(moments[0], n_runs)
    utility = [_mean_se(m, n_runs) for m in moments[1:]]
    return SimReport(
        n_runs=n_runs,
        seed=int(seed),
        revenue_net_audits=revenue,
        revenue_se=revenue_se,
        agent_utility=tuple(m for m, _ in utility),
        agent_utility_se=tuple(se for _, se in utility),
        audit_frequency=int(sum(audits)) / n_runs,
        mean_on_path_penalty=math.fsum(np.concatenate(pen).tolist()) / n_runs,
        allocation_frequency=tuple(int(w) / n_runs for w in sum(wins)),
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def sweep(inst_builder: Callable[[float], AuctionInstance], values: Sequence[float],
          n_runs: int = 100_000, seed: int = 0, workers: int = 1) -> list:
    """Simulate and benchmark an instance family along a parameter axis.

    ``inst_builder(v)`` constructs the instance at axis value ``v``.  Each
    row carries the simulation estimates plus the analytic expected revenue,
    the cash-auction benchmark, the full-surplus benchmark, and the mean
    audit threshold.  A row whose instance fails to build is marked failed
    without aborting the sweep; a cash benchmark that alone is undefined is
    None (``_benchmarks``).
    """
    _check_run_args(n_runs, seed, workers)
    rows = []
    for v in values:
        row = {"value": float(v)}
        try:
            inst = inst_builder(v)
            rep = estimate_revenue(inst, None, n_runs, seed, workers)
            row.update(rep.to_dict())
            row.update(_benchmarks(inst))
            row["mean_pi_star"] = _mean_pi_star(inst)
            row["failed"] = False
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            row["failed"] = True
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _benchmarks(inst: AuctionInstance) -> dict:
    """The analytic expected revenue and the cash and full-surplus
    benchmarks; the cash benchmark is None where it is undefined (a Myerson
    virtual value that is not strictly increasing) although the mechanism
    itself is."""
    bound = payoff_bound(inst)
    try:
        cash = myerson_cash_revenue(inst)
    except RoyaltycapError:
        cash = None
    return {"payoff_bound": bound, "myerson_cash_revenue": cash,
            "full_extraction_revenue": full_extraction_revenue(inst)}


def _mean_pi_star(inst: AuctionInstance) -> float:
    """E_theta[pi_star(theta)] averaged across agents (type-weighted): the
    trapezoid of pi_star * f on each agent's table grid, whose brackets keep
    the jumps of pi_star sharp."""
    return float(np.mean([_cum_trapezoid(t.pi_star * agent.types.pdf(t.theta), t.theta)[-1]
                          for agent, t in zip(inst.agents, tables_for(inst).agents)]))
