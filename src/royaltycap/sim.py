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

Each thread simulates its chunks in one workspace (``_Workspace``) of
run-sized arrays: ``_simulate_batch`` and the kernels it calls (type ppf,
``GridPoints``, the ``MechanismTables`` lookups, ``_allocate``, ``_settle``,
``project_to_support``) write into its columns through ``out=``, so a chunk
after the thread's first allocates nothing of its size and faults in no
fresh memory.  Only the income family's methods allocate their results.
``_simulate_batch``'s results are views into the workspace, valid until
the thread's next chunk.  A calling thread keeps its workspace from call to
call; the pool threads of a call each work in their own runs of it.
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
            or not 0 <= seed < _SEED_BOUND):
        raise ConstructionError(f"seed must be an integer in [0, 2**128), got {seed!r}")


def _stream(n_agents: int, seed: int, run_index: int) -> np.random.Generator:
    """The generator whose first draws are run ``run_index``'s."""
    m = _blocks_per_run(n_agents)
    return np.random.Generator(np.random.Philox(key=seed, counter=run_index * m))


def run_rng(inst: AuctionInstance, seed: int, run_index: int) -> np.random.Generator:
    """The exact random stream consumed by run ``run_index`` of a simulation
    with this seed.  The run index must be a nonnegative integer (numpy
    integers accepted, bool rejected)."""
    _check_seed(seed)
    if (isinstance(run_index, bool) or not isinstance(run_index, (int, np.integer))
            or run_index < 0):
        raise ConstructionError(f"run_index must be a nonnegative integer, got {run_index!r}")
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


class _Workspace:
    """A thread's run-sized arrays, kept from chunk to chunk.

    ``start`` readies it for a chunk of ``n`` runs; ``rows`` then hands out
    its arrays in request order, each one a block of rows of ``n`` floats
    (``col`` one row, viewed as another 8- or 1-byte dtype), and ``release``
    hands the later ones back.  The k-th request of a chunk gets the k-th
    stored array, made on first use and remade larger when a chunk needs
    more runs or rows, so a thread's chunks allocate none of their size
    after the first.  A fresh workspace allocates every array it hands out:
    that is ``_simulate_batch`` without one.

    ``parts`` splits a workspace between pool threads: part k borrows runs
    [k * runs, (k + 1) * runs) of each stored array (and the k-th share of
    the uniforms' buffer) where the array has room, and makes its own
    arrays elsewhere, which end with it.  The parts only read the lender,
    so they may run at once while its thread waits."""

    def __init__(self, lender: Optional["_Workspace"] = None, first: int = 0, k: int = 0):
        self._arrays = []
        self._u = np.empty(0)
        self._lender, self._first, self._k = lender, first, k
        self.n = self.used = 0

    def parts(self, count: int, runs: int) -> list:
        return [_Workspace(self, k * runs, k) for k in range(count)]

    def start(self, n: int) -> "_Workspace":
        self.n, self.used = n, 0
        return self

    def uniforms(self, size: int) -> np.ndarray:
        lent = None if self._lender is None else self._lender._u[self._k * size:]
        if lent is not None and lent.size >= size:
            return lent[:size]
        if self._u.size < size:
            self._u = np.empty(size)
        return self._u[:size]

    def rows(self, k: int) -> np.ndarray:
        at, end = self.used, self._first + self.n
        self.used += 1
        if self._lender is not None and at < len(self._lender._arrays):
            a = self._lender._arrays[at]
            if a.shape[0] >= k and a.shape[1] >= end:
                return a[:k, self._first:end]
        while len(self._arrays) <= at:
            self._arrays.append(np.empty((0, 0)))
        a = self._arrays[at]
        if a.shape[0] < k or a.shape[1] < self.n:
            a = self._arrays[at] = np.empty((max(k, a.shape[0]), max(self.n, a.shape[1])))
        return a[:k, :self.n]

    def col(self, dtype=float) -> np.ndarray:
        return self.rows(1)[0].view(dtype)[:self.n]

    def release(self, used: int):
        self.used = used


def _apply_map(fn: Callable, *cols):
    return np.array([fn(*args) for args in zip(*cols)], dtype=float)


def _simulate_batch(inst: AuctionInstance, strategies: StrategyProfile,
                    u: np.ndarray, tables: MechanismTables,
                    audit_prob: Optional[Callable] = None,
                    ws: Optional[_Workspace] = None) -> dict:
    """Vectorized protocol over a matrix of per-run uniforms.

    ``audit_prob``, if given, replaces the deterministic audit rule with a
    probabilistic one: a callable (theta_report, pi_report) -> probability,
    resolved per run with the run's own audit-randomization uniform.  (Used
    for simulating user mechanisms; the revenue-optimal rule stays
    deterministic.)

    The run-sized arrays, results included, are the columns of the
    workspace ``ws``: the results are views into it, valid until the
    thread's next chunk.  Without one they are allocated afresh.  The
    income family's methods allocate their results either way.
    """
    n = u.shape[0]
    N = inst.n_agents
    ws = (ws or _Workspace()).start(n)

    # the outputs' rows; until settlement the first N hold the virtual
    # values, one contiguous column per agent, and row N the top of
    # ``_top_two``
    out = ws.rows(2 * N + 4)
    transfers, utility = out[:N].T, out[N:2 * N].T
    royalty, pen, audit_cost = out[2 * N], out[2 * N + 2], out[2 * N + 3]
    audited = out[2 * N + 1].view(bool)[:n]
    winner, rival, scratch = ws.col(np.intp), ws.col(), ws.col()

    draws = []
    for i, agent in enumerate(inst.agents):
        th_true, th_rep = ws.col(), ws.col()
        agent.types.ppf(u[:, i], out=(th_true, th_rep))
        fn = strategies.type_reports[i]
        np.clip(th_true if fn is None else _apply_map(fn, th_true),
                agent.types.lo, agent.types.hi, out=th_rep)
        # one grid search per report, shared by every table lookup below
        located = tables.locate(i, th_rep, out=(ws.col(np.intp), ws.col(), ws.col()))
        tables.psi(i, located, out=(out[i], scratch))
        draws.append((th_true, th_rep, located))

    _allocate(out[:N].T, out=(winner, out[N], rival, scratch))

    counts = [np.count_nonzero(winner == i) for i in range(N)]
    if counts != [n]:
        out.fill(0.0)  # unsold: zero transfers, royalty, audits, ... (False)
    for i, (agent, (th_true, th_rep, located)) in enumerate(zip(inst.agents, draws)):
        count = counts[i]
        if not count:
            continue
        used, tmp = ws.used, scratch[:count]
        whole = count == n
        if whole:
            # the agent wins every run: its stages read and write whole columns
            m = slice(None)
            th_t, th_r, at, pi_u = th_true, th_rep, located, u[:, N]
            t, r, a, p, cost, gain = (transfers[:, i], royalty, audited, pen, audit_cost,
                                      utility[:, i])
        else:
            # the runs the agent wins, gathered into columns of their own;
            # the agent's whole columns, spent once gathered, then hold its
            # royalties, penalties, costs, utilities and audits
            m = np.flatnonzero(winner == i)
            th_t, th_r, t = (ws.col()[:count] for _ in range(3))
            at = located.take(m, out=(ws.col(np.intp)[:count], ws.col()[:count],
                                      ws.col()[:count]))
            for x, into in ((th_true, th_t), (th_rep, th_r), (u[:, N], t)):
                np.take(x, m, out=into, mode="wrap")
            pi_u = t
            r, p, cost, gain = (x[:count] for x in (th_true, th_rep, located.d, located.w))
            a = located.j.view(bool)[:count]
        # only the winner's income is ever realized (a new array: its draws
        # and types are spent once the income report is made)
        pi = agent.income.ppf(pi_u, th_t)
        rep_fn = strategies.income_reports[i]
        pi_rep = pi if rep_fn is None else _apply_map(rep_fn, th_t, th_r, pi)
        # a lone bidder always faces the rival value 0: one threshold type
        # instead of one per run (about a third of the serial time otherwise)
        beat = 0.0 if N == 1 else rival if whole else np.take(rival, m, out=th_t, mode="wrap")
        # the income report and the threshold lie in gain's and t's columns,
        # which are filled last
        pi_rep = project_to_support(agent.income, th_r, pi_rep, out=gain)

        draw = None
        if audit_prob is not None:
            draw = np.less(u[m, N + 1], np.asarray(audit_prob(th_r, pi_rep), dtype=float), out=a)
        r, a, p = _settle(pi, pi_rep, tables.pi_star(i, at, out=(t, tmp)),
                          np.asarray(agent.income.supp_hi(th_r)), agent.sensitivity, draw,
                          out=(r, a, p, tmp))
        # the reported types and the income report are spent, and the costs
        # not yet charged, so their columns serve as scratch
        tables.transfer_win(i, at, beat, out=(t, th_r.view(np.intp), gain, cost, tmp))
        _where_zero(a, agent.audit_cost, out=cost)
        np.subtract(pi, r, out=gain)
        gain -= p
        gain -= t
        if not whole:
            transfers[m, i] = t
            royalty[m] = r
            audited[m] = a
            pen[m] = p
            audit_cost[m] = cost
            utility[m, i] = gain
        ws.release(used)

    # each row holds one transfer at most, so column adds give its row sum;
    # the first agent's true types are spent by now
    revenue = draws[0][0]
    np.copyto(revenue, transfers[:, 0])
    for i in range(1, N):
        revenue += transfers[:, i]
    revenue += royalty
    revenue += pen
    revenue -= audit_cost
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
# seeds are Philox keys, the integers in [0, _SEED_BOUND)
_SEED_BOUND = 1 << 128
# each thread's ``_Workspace`` for its serial calls
_CALLER = threading.local()


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
    # time, each taking whole blocks, so there are at most _CHUNK // _BLOCK
    threads = min(workers, -(-n_runs // _CHUNK), _CHUNK // _BLOCK)
    size = _CHUNK // threads // _BLOCK * _BLOCK

    def chunk(start, ws):
        u = _uniform_matrix(N, seed, start, min(size, n_runs - start),
                            ws.uniforms(4 * _blocks_per_run(N) * min(size, n_runs)))
        b = _simulate_batch(inst, strategies, u, tables, audit_prob, ws)
        moments = np.stack([_block_moments(x) for x in (b["revenue"], *b["utility"].T)])
        pen = np.concatenate([np.abs(r, out=r).sum(axis=1) for r in _blocks(b["penalty"])])
        wins = np.bincount(np.add(b["winner"], 1, out=b["winner"]), minlength=N + 1)[1:]
        return moments, pen, np.count_nonzero(b["audited"]), wins

    # the calling thread's workspace, kept between calls; taken while in
    # use, so that a call made from a strategy callable gets one of its own
    ws = _CALLER.__dict__.pop("ws", None) or _Workspace()
    try:
        starts = range(0, n_runs, size)
        if threads > 1:
            # imported here: it costs start-up time, and only a pool needs it
            from concurrent.futures import ThreadPoolExecutor

            # each pool thread takes a part of the caller's workspace
            spare = ws.parts(threads, size)
            local = threading.local()

            def pooled(start):
                if not hasattr(local, "ws"):
                    local.ws = spare.pop()
                return chunk(start, local.ws)

            with ThreadPoolExecutor(threads) as pool:
                parts = list(pool.map(pooled, starts))
        else:
            parts = [chunk(s, ws) for s in starts]
    finally:
        _CALLER.ws = ws
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
