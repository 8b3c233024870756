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
``numpy.random.Generator(numpy.random.Philox(key=s, counter=r*m))``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dist import project_to_support
from .errors import ConstructionError
from .mech import (
    AuctionInstance,
    MechanismTables,
    Outcome,
    _audit_mask,
    _pi_star_vec,
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

    def is_truthful(self) -> bool:
        return all(f is None for f in self.type_reports) and \
            all(f is None for f in self.income_reports)

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


def run_rng(inst: AuctionInstance, seed: int, run_index: int) -> np.random.Generator:
    """The exact random stream consumed by run ``run_index`` of a simulation
    with this seed."""
    m = _blocks_per_run(inst.n_agents)
    return np.random.Generator(np.random.Philox(key=seed, counter=run_index * m))


def _uniform_matrix(n_agents: int, seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms for runs [start, start+count), one row per run."""
    m = _blocks_per_run(n_agents)
    bg = np.random.Philox(key=seed, counter=start * m)
    raw = bg.random_raw(4 * m * count)
    u = (raw >> np.uint64(11)) * (2.0 ** -53)
    return u.reshape(count, 4 * m)[:, : n_agents + 2]


# ---------------------------------------------------------------------------
# Batched protocol execution
# ---------------------------------------------------------------------------


def _apply_map(fn: Optional[Callable], *cols):
    if fn is None:
        return np.array(cols[-1], dtype=float, copy=True)
    return np.array([fn(*args) for args in zip(*cols)], dtype=float)


def _top_two(psi: np.ndarray):
    """Per row: the index of the highest virtual value, that value, and the
    second highest (0 for a lone bidder).

    Ties for the top go to the highest index, as in a stable ascending sort.
    A tie for the top also makes the second value equal the top, so the
    asset stays unsold and the rule never shows in an outcome."""
    n, N = psi.shape
    if N == 1:
        return np.zeros(n, dtype=np.intp), psi[:, 0], np.zeros(n)
    rows = np.arange(n)
    w = N - 1 - np.argmax(psi[:, ::-1], axis=1)
    top = psi[rows, w]
    rest = psi.copy()
    rest[rows, w] = -np.inf
    return w, top, rest.max(axis=1)


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
    n, ncols = u.shape
    N = inst.n_agents

    theta_true = np.empty((n, N))
    theta_rep = np.empty((n, N))
    psi_rep = np.empty((n, N))
    located = []
    for i, agent in enumerate(inst.agents):
        theta_true[:, i] = agent.types.ppf(u[:, i])
        rep = _apply_map(strategies.type_reports[i], theta_true[:, i])
        np.clip(rep, agent.types.lo, agent.types.hi, out=rep)
        theta_rep[:, i] = rep
        # one grid search per report, shared by every table lookup below
        located.append(tables.locate(i, rep))
        psi_rep[:, i] = tables.psi(i, located[i])

    w, top, second = _top_two(psi_rep)
    rival = np.maximum(second, 0.0)
    sold = top > rival

    transfers = np.zeros((n, N))
    royalty = np.zeros(n)
    audited = np.zeros(n, dtype=bool)
    pen = np.zeros(n)
    audit_cost = np.zeros(n)
    utility = np.zeros((n, N))
    pi_true = np.zeros(n)

    for i, agent in enumerate(inst.agents):
        m = np.flatnonzero(sold & (w == i))
        if not m.size:
            continue
        th_t = theta_true[m, i]
        th_r = theta_rep[m, i]
        at = located[i].take(m)
        # only the winner's income is ever realized
        pi = agent.income.ppf(u[m, N], th_t)
        rep_fn = strategies.income_reports[i]
        pi_rep = pi.copy() if rep_fn is None else _apply_map(rep_fn, th_t, th_r, pi)
        pi_rep = project_to_support(agent.income, th_r, pi_rep)

        cap = tables.pi_star(i, at)
        r = np.minimum(pi_rep, cap) * agent.sensitivity
        if audit_prob is None:
            a = _audit_mask(pi_rep, cap, np.asarray(agent.income.supp_hi(th_r)))
        else:
            prob = np.asarray(audit_prob(th_r, pi_rep), dtype=float)
            a = u[m, N + 1] < prob
        p = np.where(a, (pi - pi_rep) * agent.sensitivity, 0.0)
        # a lone bidder always faces the rival value 0: one threshold type
        # instead of one per run (about a third of the serial time otherwise)
        t = tables.transfer_win(i, at, rival[m] if N > 1 else 0.0)

        pi_true[m] = pi
        transfers[m, i] = t
        royalty[m] = r
        audited[m] = a
        pen[m] = p
        audit_cost[m] = np.where(a, agent.audit_cost, 0.0)
        utility[m, i] = pi - r - p - t

    revenue = transfers.sum(axis=1) + royalty + pen - audit_cost
    return {
        "theta_true": theta_true,
        "theta_rep": theta_rep,
        "winner": np.where(sold, w, -1),
        "pi_true": pi_true,
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

_CHUNK = 1 << 16
# fewest runs a revenue estimate accepts
_MIN_RUNS = 1_000


def estimate_revenue(inst: AuctionInstance, strategies: Optional[StrategyProfile] = None,
                     n_runs: int = 100_000, seed: int = 0,
                     workers: int = 1,
                     audit_prob: Optional[Callable] = None) -> SimReport:
    """Monte Carlo estimate of expected revenue net audit costs.

    Under truthful strategies the estimate matches the analytic expected
    revenue E[max_i psi_i(theta_i)_+] up to Monte Carlo error.  Aggregation
    runs over per-run arrays assembled in run order, so the report is
    independent of chunking and of the number of worker threads.
    """
    if n_runs < _MIN_RUNS:
        raise ConstructionError(f"n_runs must be at least {_MIN_RUNS}")
    if workers < 1:
        raise ConstructionError("workers must be at least 1")
    if strategies is None:
        strategies = StrategyProfile.truthful(inst.n_agents)
    strategies.validate(inst.n_agents)
    tables = tables_for(inst)

    # one chunk runs in-line; threads share one serial chunk's runs at a time
    threads = min(workers, -(-n_runs // _CHUNK))
    size = _CHUNK // threads

    def chunk(start):
        u = _uniform_matrix(inst.n_agents, seed, start, min(size, n_runs - start))
        b = _simulate_batch(inst, strategies, u, tables, audit_prob)
        return [b[k] for k in ("revenue", "utility", "audited", "penalty", "winner")]

    starts = range(0, n_runs, size)
    if threads > 1:
        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(chunk, starts))
    else:
        parts = [chunk(s) for s in starts]
    revenue, utility, audited, pen, winner = (np.concatenate(c) for c in zip(*parts))

    sqrtn = np.sqrt(n_runs)
    util_mean = utility.mean(axis=0)
    util_se = utility.std(axis=0, ddof=1) / sqrtn
    alloc = tuple(float(np.mean(winner == i)) for i in range(inst.n_agents))
    return SimReport(
        n_runs=n_runs,
        seed=seed,
        revenue_net_audits=float(revenue.mean()),
        revenue_se=float(revenue.std(ddof=1) / sqrtn),
        agent_utility=tuple(float(x) for x in util_mean),
        agent_utility_se=tuple(float(x) for x in util_se),
        audit_frequency=float(audited.mean()),
        mean_on_path_penalty=float(np.abs(pen).mean()),
        allocation_frequency=alloc,
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
    without aborting the sweep.
    """
    if workers < 1:
        raise ConstructionError("workers must be at least 1")
    rows = []
    for v in values:
        row = {"value": float(v)}
        try:
            inst = inst_builder(v)
            rep = estimate_revenue(inst, None, n_runs, seed, workers)
            row.update(rep.to_dict())
            row["payoff_bound"] = payoff_bound(inst)
            row["myerson_cash_revenue"] = myerson_cash_revenue(inst)
            row["full_extraction_revenue"] = full_extraction_revenue(inst)
            row["mean_pi_star"] = _mean_pi_star(inst)
            row["failed"] = False
        except Exception as exc:  # noqa: BLE001 - row-level fault isolation
            row["failed"] = True
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


def _mean_pi_star(inst: AuctionInstance) -> float:
    """E_theta[pi_star(theta)] averaged across agents (type-weighted)."""
    vals = []
    for agent in inst.agents:
        lo, hi = agent.types.lo, agent.types.hi
        ts = np.linspace(lo + 1e-9 * (hi - lo), hi, 513)
        ps = _pi_star_vec(agent, ts)
        dens = agent.types.pdf(ts)
        vals.append(float(np.trapezoid(ps * dens, ts)))
    return float(np.mean(vals))
