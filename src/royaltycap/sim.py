"""Monte Carlo simulation of the auction protocol.

One run walks the full protocol: types are drawn, reported (through the
strategy profile), the asset is allocated by virtual value, the winner's
income is realized from the *true* conditional law, reported (projected into
the reported type's support), royalties / audits / penalties are applied,
and the principal's revenue nets out audit costs.

Reproducibility contract: run ``r`` of a simulation with seed ``s`` consumes
the Philox counter blocks ``[r*m, (r+1)*m)`` under key ``s``, where ``m`` is
the number of 256-bit blocks needed for one run.  Streams therefore never
overlap, and results do not depend on chunking.  Equivalently, run ``r``
sees exactly the draws of
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
the run index.  Chunks hold whole blocks, and each chunk reduces its own,
once simulated, to a few numbers per block (``_block_moments``) and
integer counts; the blocks' terms are then added exactly by ``math.fsum``
(``_mean_se``).  The report depends only on (instance,
strategies, n_runs, seed), and memory does not grow with ``n_runs``.

Every chunk runs in the calling thread, in one buffer that the thread keeps
from call to call: the chunk's uniforms, then its workspace of ``_rows(N)``
rows of runs at fixed places.  A chunk holds the most whole blocks, at most
``_CHUNK`` runs, that keep the buffer below numpy's 4 MiB huge-page
threshold (``_chunk_runs``: 21,504 runs for one agent, 16,384 for two and
12,288 for three), so no row a chunk leaves unwritten faults in a 2 MB
page.  ``_simulate_batch`` and the kernels it calls
(type ppf, the grid search and slope-table lookups of ``GridPoints``, the
``MechanismTables`` lookups, ``_allocate``, ``_settle``,
``project_to_support``) write into those rows through ``out=``, and the
income family writes the winner's income draw and its reported support's
ends into them too (``IncomeFamily.ppf_into``, ``supp_lo_into``,
``supp_hi_into``; a family that gives only the plain methods has their
results copied in).  So a chunk after the thread's first allocates no
array of its size and faults in no fresh memory: what it allocates is
flags of a byte per run, numpy's casting buffers of at most 8,192 values
and, where two agents share a chunk's wins, the run indices of half a
chunk at a time (``_runs_won``).  ``_simulate_batch``'s results are views
into the workspace, valid until the thread's next chunk.
"""

from __future__ import annotations

import math
import threading
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dist import project_to_support
from .errors import ConstructionError, RoyaltycapError, _integer
from .mech import (
    AuctionInstance,
    MechanismTables,
    Outcome,
    _allocate,
    _cum_trapezoid,
    _settle,
    _transfer,
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
    set.  Callables must accept scalars.
    """

    type_reports: tuple = ()
    income_reports: tuple = ()

    @staticmethod
    def truthful(n_agents: int) -> "StrategyProfile":
        return StrategyProfile((None,) * n_agents, (None,) * n_agents)

    def validate(self, n_agents: int):
        if len(self.type_reports) != n_agents or len(self.income_reports) != n_agents:
            raise ConstructionError("strategy profile must cover every agent")
        for fn in (*self.type_reports, *self.income_reports):
            if fn is not None and not callable(fn):
                raise ConstructionError(f"strategy entries must be None or callable, got {fn!r}")


def _strategies(inst: AuctionInstance, strategies: Optional[StrategyProfile]) -> StrategyProfile:
    """``strategies``, or truthful reporting for None, validated for ``inst``."""
    if strategies is None:
        strategies = StrategyProfile.truthful(inst.n_agents)
    strategies.validate(inst.n_agents)
    return strategies


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
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------


def _blocks_per_run(n_agents: int) -> int:
    # one uniform per type draw, one for the winner's income, and one for
    # audit randomization, packed into 256-bit blocks of four doubles
    return (n_agents + 2 + 3) // 4


def _stream(n_agents: int, seed: int, run_index: int) -> np.random.Generator:
    """The generator whose first draws are run ``run_index``'s."""
    m = _blocks_per_run(n_agents)
    return np.random.Generator(np.random.Philox(key=seed, counter=run_index * m))


def run_rng(inst: AuctionInstance, seed: int, run_index: int) -> np.random.Generator:
    """The exact random stream consumed by run ``run_index`` of a simulation
    with this seed.  The seed is a Philox key and the run index a
    nonnegative integer, each under the integer rule."""
    return _stream(inst.n_agents, _integer(seed, "seed", 0, _SEED_BOUND, says=_SEED_RULE),
                   _integer(run_index, "run_index"))


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


def _rows(N: int) -> int:
    """Rows of ``_simulate_batch``'s workspace for ``N`` agents, each one
    float per run: ``[0, 2N+4)`` the outputs; ``2N+4`` to ``2N+6`` the
    winner (intp), the rival value and scratch; ``[2N+7, 7N+7)`` five per
    agent, its true and reported types, their grid cells (j as intp, d) and
    a spare row: the search's scratch, then the winner's income draw (or,
    for an agent that wins part of a chunk, its income uniforms), and while
    the agent before it in turn (the last, for the first agent) settles
    part of a chunk, the indices of the runs that agent wins (a lone
    bidder's lie in the rival row, all 0 and unread); ``[7N+7, 7N+13)`` six
    for the runs one agent wins, gathered agent by agent (the two types,
    the income uniform, j, d and the income draw), and written only when an
    agent wins part of a chunk.  The top of the reported support lies in
    the audit costs' column until they are charged."""
    return 7 * N + 13


def _apply_map(fn: Callable, *cols):
    return np.array([fn(*args) for args in zip(*cols)], dtype=float)


def _runs_won(wins: np.ndarray, into: np.ndarray) -> np.ndarray:
    """The indices of the runs flagged in ``wins``, found half the runs at a
    time and written into the intp array ``into``, so that no index array
    longer than half a chunk is allocated: the view of ``into`` holding
    them."""
    k, half = 0, -(-wins.size // 2)
    for start in range(0, wins.size, half):
        part = np.flatnonzero(wins[start:start + half])
        part += start
        into[k:k + part.size] = part
        k += part.size
        del part  # before the next half's is made
    return into[:k]


def _simulate_batch(inst: AuctionInstance, strategies: StrategyProfile,
                    u: np.ndarray, tables: MechanismTables,
                    audit_prob: Optional[Callable] = None,
                    ws: Optional[np.ndarray] = None, lone_rent=None) -> dict:
    """Vectorized protocol over a matrix of per-run uniforms.

    ``audit_prob``, if given, replaces the deterministic audit rule with a
    probabilistic one: a callable (theta_report, pi_report) -> probability,
    resolved per run with the run's own audit-randomization uniform.  (Used
    for simulating user mechanisms; the revenue-optimal rule stays
    deterministic.)

    The run-sized arrays, results included, are the rows of the workspace
    ``ws``, a ``(_rows(N), n)`` float array laid out as ``_rows`` states
    (None allocates one): the results are views into it.  ``lone_rent``: a
    lone bidder's rent at its threshold type against the rival value 0
    (``MechanismTables._threshold_rent``), looked up here when None.
    """
    n = u.shape[0]
    N = inst.n_agents
    ws = np.empty((_rows(N), n)) if ws is None else ws

    # the outputs' rows; until settlement the first N hold the virtual
    # values, one contiguous column per agent, and row N the top of
    # ``_top_two``
    out = ws[:2 * N + 4]
    transfers, utility = out[:N].T, out[N:2 * N].T
    royalty, pen, audit_cost = out[2 * N], out[2 * N + 2], out[2 * N + 3]
    audited = out[2 * N + 1].view(bool)[:n]
    winner, rival, scratch = ws[2 * N + 4].view(np.intp), ws[2 * N + 5], ws[2 * N + 6]
    wins = scratch.view(bool)[:n]

    draws = []
    for i, agent in enumerate(inst.agents):
        th_true, th_rep, j, d, spare = ws[2 * N + 7 + 5 * i:2 * N + 12 + 5 * i]
        agent.types.ppf(u[:, i], out=(th_true, th_rep))
        fn = strategies.type_reports[i]
        np.clip(th_true if fn is None else _apply_map(fn, th_true),
                agent.types.lo, agent.types.hi, out=th_rep)
        # one grid search per report, shared by every table lookup below
        located = tables.locate(i, th_rep, out=(j.view(np.intp), d, spare))
        tables.psi(i, located, out=(out[i], scratch))
        draws.append((th_true, th_rep, located, spare))

    _allocate(out[:N].T, out=(winner, out[N], rival, scratch))

    counts = [np.count_nonzero(np.equal(winner, i, out=wins)) for i in range(N)]
    if counts != [n]:
        out.fill(0.0)  # unsold: zero transfers, royalty, audits, ... (False)
    for i, (agent, (th_true, th_rep, located, spare)) in enumerate(zip(inst.agents, draws)):
        count = counts[i]
        if not count:
            continue
        tmp = scratch[:count]
        whole = count == n
        outs = (transfers[:, i], royalty, audited, pen, audit_cost, utility[:, i])
        if whole:
            # the agent wins every run: its stages read and write whole columns
            m = slice(None)
            th_t, th_r, at, pi_u, pi = th_true, th_rep, located, u[:, N], spare
            t, r, a, p, cost, gain = outs
        else:
            # the runs the agent wins, gathered into columns of their own;
            # the agent's whole columns, spent once gathered, then hold its
            # royalties, penalties, audits, costs and utilities.  The run
            # indices lie in a row that no stage reads meanwhile (``_rows``)
            free = rival if N == 1 else draws[(i + 1) % N][3]
            m = _runs_won(np.equal(winner, i, out=wins), free.view(np.intp))
            th_t, th_r, t, j, d, pi = ws[7 * N + 7:, :count]
            at = located.take(m, out=(j.view(np.intp), d))
            # the income uniforms through the spare column: take copies a
            # strided source whole
            np.copyto(spare, u[:, N])
            for x, into in ((th_true, th_t), (th_rep, th_r), (spare, t)):
                x.take(m, out=into, mode="wrap")
            pi_u = t
            r, p, cost, gain = (x[:count] for x in (th_true, th_rep, located.d, spare))
            a = located.j.view(bool)[:count]
        # only the winner's income is ever realized
        agent.income.ppf_into(pi_u, th_t, out=(pi, tmp))
        rep_fn = strategies.income_reports[i]
        pi_rep = pi if rep_fn is None else _apply_map(rep_fn, th_t, th_r, pi)
        # the types are spent once the income report is made: the gathered
        # rival values take the true types' column
        beat = rival if whole else rival.take(m, out=th_t, mode="wrap")
        # the income report in gain's column and the support's top, read by
        # the projection and the audit rule, in cost's: both are filled last
        pi_rep = project_to_support(agent.income, th_r, pi_rep, out=(gain, cost))

        draw = None
        if audit_prob is not None:
            draw = np.less(u[m, N + 1], np.asarray(audit_prob(th_r, pi_rep), dtype=float), out=a)
        r, a, p = _settle(pi, pi_rep, tables.pi_star(i, at, out=(t, tmp)), cost,
                          agent.sensitivity, draw, out=(r, a, p, tmp))
        # the reported types, the income report and the support's top are
        # spent, and the costs not yet charged, so their columns serve as
        # scratch.  A lone bidder always faces the rival value 0: one
        # threshold rent per call instead of one per run
        if N > 1:
            rent = tables._threshold_rent(i, beat, out=(gain, th_r.view(np.intp), cost, tmp))
        else:
            rent = tables._threshold_rent(i, 0.0) if lone_rent is None else lone_rent
        _transfer(at, rent, out=(t, cost, tmp))
        _where_zero(a, agent.audit_cost, out=cost)
        np.subtract(pi, r, out=gain)
        gain -= p
        gain -= t
        if not whole:
            for into, x in zip(outs, (t, r, a, p, cost, gain)):
                into[m] = x

    # each run holds one transfer at most, so the sum over agents is exact;
    # the first agent's true types are spent by now
    revenue = np.sum(out[:N], axis=0, out=draws[0][0])
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


def run_auction(inst: AuctionInstance, strategies: Optional[StrategyProfile],
                rng: np.random.Generator,
                audit_prob: Optional[Callable] = None) -> Outcome:
    """Execute one auction round, consuming ``n_agents + 2`` uniforms from
    ``rng`` (type draws, the winner's income draw, and one audit-
    randomization draw that the deterministic rule leaves unused).  None
    strategies report truthfully."""
    strategies = _strategies(inst, strategies)
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

# most runs in memory at once: the cap on a chunk (``_chunk_runs``)
_CHUNK = 1 << 15
# bytes from which numpy advises an allocation onto huge pages (2 MB on
# x86-64 Linux), so that untouched rows fault in whole pages
_HUGE_PAGE_BYTES = 1 << 22
# runs per reduction block.  Blocks are aligned to the run index and every
# chunk holds whole blocks, so a block is reduced the same way however the
# runs are chunked; a power of two, so that _BLOCK * x is exact (``_mean_se``)
_BLOCK = 1 << 10
# fewest runs a revenue estimate accepts
_MIN_RUNS = 1_000
# seeds are Philox keys, the integers in [0, _SEED_BOUND)
_SEED_BOUND = 1 << 128
_SEED_RULE = "seed must be an integer in [0, 2**128)"
# each thread's buffer for its calls (``estimate_revenue``)
_CALLER = threading.local()


def _check_run_args(n_runs, seed, workers=1):
    """Reject, by the integer rule, a run count below ``_MIN_RUNS``, a seed
    that is not a Philox key and a worker count below 1."""
    _integer(n_runs, "n_runs", _MIN_RUNS)
    _integer(seed, "seed", 0, _SEED_BOUND, says=_SEED_RULE)
    _integer(workers, "workers", 1)


def _chunk_runs(N: int) -> int:
    """Runs per chunk for ``N`` agents: the most whole blocks of ``_BLOCK``
    runs, at most ``_CHUNK``, whose buffer (``4m + _rows(N)`` floats per
    run, m = ``_blocks_per_run(N)``) stays below ``_HUGE_PAGE_BYTES``, and
    at least one block."""
    per_run = 8 * (4 * _blocks_per_run(N) + _rows(N))
    fit = (_HUGE_PAGE_BYTES - 1) // per_run // _BLOCK * _BLOCK
    return min(_CHUNK, max(_BLOCK, fit))


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
    reduces its runs to partials of fixed blocks of ``_BLOCK`` runs aligned
    to the run index (``_mean_se``) and to integer counts, so memory does
    not grow with ``n_runs`` and the report does not depend on chunking.
    ``workers`` must be an integer of at least 1 and is otherwise ignored;
    it goes once the benchmark stops passing it.
    """
    _check_run_args(n_runs, seed, workers)
    n_runs = int(n_runs)
    strategies = _strategies(inst, strategies)
    tables = tables_for(inst)
    N = inst.n_agents

    # the calling thread's buffer, kept between calls: each chunk's uniforms
    # at the front, its workspace rows after them.  Taken while in use, so
    # that a call made from a strategy callable gets one of its own
    width, rows, chunk = 4 * _blocks_per_run(N), _rows(N), _chunk_runs(N)
    lone_rent = tables._threshold_rent(0, 0.0) if N == 1 else None
    buf = _CALLER.__dict__.pop("buf", np.empty(0))
    if buf.size < (width + rows) * min(chunk, n_runs):
        buf = np.empty((width + rows) * min(chunk, n_runs))
    moments, pen, audits, wins = [], [], 0, 0
    try:
        for start in range(0, n_runs, chunk):
            n = min(chunk, n_runs - start)
            u = _uniform_matrix(N, seed, start, n, buf)
            ws = buf[width * n:(width + rows) * n].reshape(rows, n)
            b = _simulate_batch(inst, strategies, u, tables, audit_prob, ws, lone_rent)
            moments.append(np.stack([_block_moments(x) for x in (b["revenue"], *b["utility"].T)]))
            pen += [np.abs(r, out=r).sum(axis=1) for r in _blocks(b["penalty"])]
            audits += np.count_nonzero(b["audited"])
            wins += np.bincount(np.add(b["winner"], 1, out=b["winner"]), minlength=N + 1)[1:]
    finally:
        _CALLER.buf = buf
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
        audit_frequency=int(audits) / n_runs,
        mean_on_path_penalty=math.fsum(np.concatenate(pen).tolist()) / n_runs,
        allocation_frequency=tuple(int(w) / n_runs for w in wins),
    )


# ---------------------------------------------------------------------------
# Parameter sweeps
# ---------------------------------------------------------------------------


def sweep(inst_builder: Callable[[float], AuctionInstance], values: Sequence[float],
          n_runs: int = 100_000, seed: int = 0) -> list:
    """Simulate and benchmark an instance family along a parameter axis.

    ``inst_builder(v)`` constructs the instance at axis value ``v``.  Each
    row carries the simulation estimates plus the analytic expected revenue,
    the cash-auction benchmark, the full-surplus benchmark, and the mean
    audit threshold.  A row whose instance fails to build is marked failed
    without aborting the sweep; a cash benchmark that alone is undefined is
    None (``_benchmarks``).
    """
    _check_run_args(n_runs, seed)
    rows = []
    for v in values:
        row = {"value": float(v)}
        try:
            inst = inst_builder(v)
            rep = estimate_revenue(inst, None, n_runs, seed)
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
