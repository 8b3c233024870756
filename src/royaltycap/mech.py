"""Closed-form objects of the optimal royalty-cap auction.

The mechanism sells an income-generating asset to one of N bidders and may
charge income-contingent payments afterwards, subject to auditing the
winner's privately observed income at a per-agent cost c, with penalty
sensitivity capped at phi.  The central quantities:

* ``mu(theta, pi) = -G_2/g * (1 - F)/f`` -- the marginal information rent
  recovered by auditing at income level pi; auditing pays iff mu*phi >= c.
* ``psi(theta) = theta - (1-F)/f + E[(mu*phi - c)_+ | theta]`` -- the
  virtual value; the asset goes to the bidder with the highest positive
  virtual value.
* ``pi_star(theta)`` -- the audit threshold: reports below it are audited,
  reports above pay the royalty cap ``pi_star * phi`` and are not audited.
* ``Phi(theta) = phi * integral of -G_2 over [0, pi_star]`` -- the share of
  marginal information rent recovered through royalties, in [0, phi].
* Upfront transfers make the winner's rent equal the integral of
  ``q(z) (1 - Phi(z))`` below his type, so truthful reporting is a dominant
  strategy.

Two vectorized kernels are the only implementation of these quantities:
``_pi_star_vec`` (a 65-point single-crossing scan of each type's income
support, then bisection) and ``_mech_curves`` (psi, Phi, E[pi - royalty]).
Income integrals over the audit region are split at the income law's
breakpoints (``IncomeFamily.breakpoints``) and integrated piece by piece
with the 2-point Gauss-Legendre rule, exact because the supported laws are
polynomials of degree <= 3 between breakpoints.  The scalar entry points
wrap the kernels; ``MechanismTables`` holds dense grids of the same
quantities and the interim transfer curve, built once per instance.  Every
inversion (the audit threshold, the menu cutoffs, the types where the audit
region changes regime and the cash auction's reserve type) goes through the
vectorized bisection ``dist._bisect``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .dist import AgentSpec, AdditiveErrorFamily, _bisect, _gl_segments, inverse_hazard
from .errors import (
    ConstructionError,
    RegularityError,
    ReportRejectedError,
    UnsupportedInstanceError,
)

# relative nudge for one-sided limits at support endpoints
_NU = 1e-9
_GL32 = np.polynomial.legendre.leggauss(32)
# exact per piece: the income integrands are at most cubic between breakpoints
_GL2 = np.polynomial.legendre.leggauss(2)
# types per kernel block: bounds the (types x quadrature nodes) arrays, which
# reach ~170 nodes per type on a tabulated income family
_BLOCK = 256
# points of the dense type grid behind MechanismTables
_TABLE_POINTS = 8193


# ---------------------------------------------------------------------------
# Instance and outcome records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuctionInstance:
    """An auction: an ordered tuple of agents (N >= 1)."""

    agents: tuple

    def __post_init__(self):
        if len(self.agents) < 1:
            raise ConstructionError("instance needs at least one agent")
        for a in self.agents:
            if not isinstance(a, AgentSpec):
                raise ConstructionError(f"expected AgentSpec, got {type(a).__name__}")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def _tables(self) -> "MechanismTables":
        return MechanismTables.build(self)


@dataclass(frozen=True)
class MenuContract:
    """One item of a posted menu: a lump-sum purchase or a linear-royalty
    contract with certain auditing."""

    kind: str  # "lump_sum" | "linear_royalty"
    upfront_price: float
    royalty_rate: float
    audited: bool

    def __post_init__(self):
        if self.kind == "lump_sum" and (self.royalty_rate != 0.0 or self.audited):
            raise ConstructionError("lump-sum contracts carry no royalties or audits")
        if self.kind == "linear_royalty" and not self.audited:
            raise ConstructionError("linear-royalty contracts are always audited")


@dataclass(frozen=True)
class Outcome:
    """Realized outcome of one auction round."""

    winner: Optional[int]
    transfers: tuple
    royalty: float
    audited: bool
    penalty: float
    audit_cost_paid: float


# ---------------------------------------------------------------------------
# Pointwise mechanism quantities
# ---------------------------------------------------------------------------


def mu(agent: AgentSpec, theta, pi):
    """Marginal information rent -G_2/g * (1 - F)/f.

    Strictly positive on the interior of the support.  The density ratio is
    evaluated in its family closed form, which extends continuously to
    income levels outside [supp_lo, supp_hi]; type arguments outside the
    type support raise ``DomainError``.
    """
    agent.types._check_domain(theta)
    out = -np.asarray(agent.income.g2_over_g(pi, theta)) * inverse_hazard(agent.types, theta)
    return out if np.ndim(out) else float(out)


def myerson_virtual(agent: AgentSpec, theta):
    """Cash-auction virtual value theta - (1 - F)/f."""
    agent.types._check_domain(theta)
    out = np.asarray(theta, dtype=float) - inverse_hazard(agent.types, theta)
    return out if np.ndim(out) else float(out)


def _income_bounds(agent: AgentSpec, theta):
    fam = agent.income
    lo = np.asarray(fam.supp_lo(theta), dtype=float)
    hi = np.asarray(fam.supp_hi(theta), dtype=float)
    # unbounded upper supports are truncated at the 1 - 1e-10 quantile
    if np.any(np.isinf(hi)):
        hi = np.where(np.isinf(hi), fam.ppf(1.0 - 1e-10, theta), hi)
    return lo, hi


def audit_threshold(agent: AgentSpec, theta) -> float:
    """Audit threshold pi_star: the largest income at which auditing still
    pays (mu * phi >= c), or 0 when it never pays.

    Requires mu*phi - c to be single-crossing from above in income; a
    violation detected on the scan grid raises ``RegularityError``.
    Bisection resolves the crossing to absolute tolerance below 1e-10.
    """
    agent.types._check_domain(theta)
    return float(_pi_star_vec(agent, np.array([float(theta)]))[0])


def _curves_at(agent: AgentSpec, theta):
    agent.types._check_domain(theta)
    return _mech_curves(agent, np.atleast_1d(np.asarray(theta, dtype=float)))


def virtual_value(agent: AgentSpec, theta):
    """Virtual value psi = Myerson virtual value + expected audit gain."""
    psi = _curves_at(agent, theta)[1]
    return psi if np.ndim(theta) else float(psi[0])


def phi_cap(agent: AgentSpec, theta) -> float:
    """Royalty recovery share Phi(theta) = phi * int_0^{pi_star} (-G_2) dpi.

    Lies in [0, phi]: equals phi when the whole income support is audited
    and 0 when auditing never pays.  (The integrand vanishes below the
    income support, so integration starts at supp_lo.)
    """
    return float(_curves_at(agent, theta)[3][0])


def _wins(psis: list, i: int) -> tuple:
    """Whether agent i, with virtual values ``psis`` of all agents, wins: its
    value must strictly exceed both zero and every rival's, so exact ties
    leave the asset unallocated.  Also returns the best rival positive value."""
    rival = max([0.0] + psis[:i] + psis[i + 1:])
    return psis[i] > rival, rival


def allocation(inst: AuctionInstance, theta_profile) -> list:
    """Winner indicator: 1 for the agent that wins by ``_wins``."""
    psis = [virtual_value(a, float(t)) for a, t in zip(inst.agents, theta_profile)]
    return [int(_wins(psis, i)[0]) for i in range(inst.n_agents)]


def _check_report(agent: AgentSpec, theta_report: float, pi_report: float):
    agent.types._check_domain(theta_report)
    lo, hi = (float(x) for x in _income_bounds(agent, theta_report))
    tol = 1e-9 * max(1.0, abs(hi))
    if pi_report < lo - tol or pi_report > hi + tol:
        raise ReportRejectedError(
            f"income report {pi_report} outside [{lo}, {hi}] for type report {theta_report}")


def royalty(agent: AgentSpec, theta_report: float, pi_report: float) -> float:
    """Royalty min(pi_report, pi_star(theta_report)) * phi, capped at the
    royalty cap pi_star * phi.  Reports outside the reported type's income
    support are rejected."""
    _check_report(agent, theta_report, pi_report)
    return min(pi_report, audit_threshold(agent, theta_report)) * agent.sensitivity


def _audit_mask(pi_report, cap, supp_hi):
    """Audit indicator: report strictly below the threshold, or equal to it
    when the threshold coincides with the top of the reported support.

    The boundary case matters with shifting supports: when the whole
    reported support is worth auditing, the cap equals the support's upper
    endpoint and the only report at or above the cap is that endpoint.
    Leaving it unaudited would let a winner under-report his type and then
    park his income report at the cap, evading the penalty; auditing it
    restores exact deviation indifference (it is also the case the
    dominant-strategy envelope argument prices at the dampened slope).
    On path the event has measure zero, so payments are unchanged.
    """
    tol = 1e-6 * np.maximum(1.0, np.abs(supp_hi))
    at_top = cap >= supp_hi - tol
    return (pi_report < cap) | (at_top & (pi_report >= supp_hi - tol))


def audit_rule(agent: AgentSpec, theta_report: float, pi_report: float) -> int:
    """Audit indicator: 1 iff the report is strictly below the audit
    threshold (with the threshold-at-support-top boundary report audited as
    well; see ``_audit_mask``)."""
    _check_report(agent, theta_report, pi_report)
    cap = audit_threshold(agent, theta_report)
    hi = float(np.asarray(agent.income.supp_hi(theta_report)))
    return int(bool(_audit_mask(pi_report, cap, hi)))


def penalty(agent: AgentSpec, theta_report: float, pi_report: float, pi_true: float) -> float:
    """Post-audit penalty (pi_true - pi_report) * phi.

    Negative values are refunds of overpaid royalties.  The same linear
    formula applies off path, for true incomes outside the reported type's
    support.
    """
    return (pi_true - pi_report) * agent.sensitivity


# ---------------------------------------------------------------------------
# Transfers
# ---------------------------------------------------------------------------


def _threshold_kinks(agent: AgentSpec) -> list:
    """Types at which the audit region changes regime (the threshold leaves
    a support endpoint): sign changes of the audit surplus at either end of
    the income support on a 513-point type grid, refined by bisecting all
    brackets at once.  Used as breakpoints in the type."""
    lo, hi = agent.types.lo, agent.types.hi
    grid = np.linspace(lo + 1e-7 * (hi - lo), hi, 513)
    top = np.array([[False], [True]])  # rows: lower and upper support end

    def edge_surplus(t, at_top):
        plo, phi_ = _income_bounds(agent, t)
        p = np.where(at_top, phi_ - _NU * (phi_ - plo), plo + _NU * (phi_ - plo))
        ih = np.asarray(inverse_hazard(agent.types, t), dtype=float)
        with np.errstate(invalid="ignore"):
            mu_ = -np.asarray(agent.income.g2_over_g(p, t)) * ih  # mu, unchecked
            return np.where(np.isfinite(ih), mu_ * agent.sensitivity - agent.audit_cost, 1e30)

    sign = np.sign(edge_surplus(np.broadcast_to(grid, (2, grid.size)), top))
    end, k = np.nonzero(np.diff(sign, axis=1))
    # A surplus of exactly 0 at the top type (the inverse hazard vanishes
    # there and c = 0) brackets the support end itself, which is no kink.
    # Such a last cell is kept only if the sign changes strictly inside it.
    at_end = (k == grid.size - 2) & (sign[end, -1] == 0)
    if np.any(at_end):
        inside = np.sign(edge_surplus(np.nextafter(hi, lo), top[end[at_end], 0]))
        keep = ~at_end
        keep[at_end] = inside != sign[end[at_end], k[at_end]]
        end, k = end[keep], k[keep]
    if k.size == 0:
        return []
    kinks = _bisect(lambda t: np.sign(edge_surplus(t, top[end, 0])) == sign[end, k],
                    grid[k], grid[k + 1], 64)
    return sorted({k for k in kinks.tolist() if lo < k < hi})


def expected_income_net_royalty(agent: AgentSpec, theta: float) -> float:
    """E[pi - royalty | theta] = theta - phi * E[min(pi, pi_star(theta))]."""
    return float(_curves_at(agent, theta)[4][0])


def _psi_floor(agent: AgentSpec) -> float:
    """Lowest type at which psi evaluates finitely: the support end itself
    unless the density vanishes there (then the inverse hazard diverges and
    the grid is nudged just inside)."""
    lo, hi = agent.types.lo, agent.types.hi
    if np.isfinite(inverse_hazard(agent.types, lo)):
        return lo
    return lo + _NU * (hi - lo)


def transfer(inst: AuctionInstance, i: int, theta_profile) -> float:
    """Upfront transfer of agent i at the reported profile.

    Zero unless i wins; a winner pays his expected income net of royalties
    minus the information rent integral of (1 - Phi) over the types below
    his report that still win against the same rivals.  The value is read
    off the instance's tables (``tables_for``), whose interpolation error is
    of order 1e-9.
    """
    psis = [virtual_value(a, float(t)) for a, t in zip(inst.agents, theta_profile)]
    wins, rival = _wins(psis, i)
    if not wins:
        return 0.0
    return float(tables_for(inst).transfer_win(i, float(theta_profile[i]), rival))


# ---------------------------------------------------------------------------
# Binary menu (single agent, additive errors)
# ---------------------------------------------------------------------------


def menu_cutoffs(agent: AgentSpec) -> tuple:
    """Cutoff types of the posted menu.

    theta_star bounds the region where auditing pays ((1-F)/f * phi >= c);
    theta_0 is the lowest type with positive virtual value.  Both found by
    bisection.
    """
    lo, hi = agent.types.lo, agent.types.hi
    lo_n = _psi_floor(agent)
    phi, c = agent.sensitivity, agent.audit_cost

    def audit_pays(t):
        return inverse_hazard(agent.types, t) * phi - c >= 0

    if not audit_pays(lo_n):
        theta_star = lo
    elif audit_pays(hi):
        theta_star = hi
    else:
        theta_star = float(_bisect(audit_pays, lo_n, hi, 100))

    if virtual_value(agent, lo_n) > 0:
        theta_0 = lo
    elif virtual_value(agent, hi) <= 0:
        theta_0 = hi
    else:
        theta_0 = float(_bisect(lambda t: virtual_value(agent, t) <= 0, lo_n, hi, 64))
    return theta_star, theta_0


def binary_menu(agent: AgentSpec) -> list:
    """Menu implementation of the single-agent mechanism under additive
    errors: at most a lump-sum contract and a linear-royalty contract.

    If theta_0 >= theta_star the menu is a single lump-sum at price theta_0;
    otherwise a lump-sum at (1-phi) theta_0 + phi theta_star plus a royalty
    contract (rate phi, certain auditing) at (1-phi) theta_0.
    """
    if not isinstance(agent.income, AdditiveErrorFamily):
        raise UnsupportedInstanceError("menus require the additive-errors income family")
    theta_star, theta_0 = menu_cutoffs(agent)
    phi = agent.sensitivity
    if theta_0 >= theta_star:
        return [MenuContract("lump_sum", float(theta_0), 0.0, False)]
    return [
        MenuContract("lump_sum", float((1.0 - phi) * theta_0 + phi * theta_star), 0.0, False),
        MenuContract("linear_royalty", float((1.0 - phi) * theta_0), phi, True),
    ]


# ---------------------------------------------------------------------------
# Payoff bound and benchmarks
# ---------------------------------------------------------------------------


def endogenous_virtual(inst: AuctionInstance, i: int, theta_profile,
                       audit_rule_fn: Callable) -> float:
    """Profile-dependent virtual value under an arbitrary auditing rule:
    Myerson virtual value plus E[a(theta, pi) (mu*phi - c)].

    Maximized pointwise by auditing exactly when mu*phi >= c, where it
    equals ``virtual_value``.  The income integral is split at the law's
    breakpoints, at pi_star and at the rule's switches (a 257-point scan,
    then bisection), with the 32-point Gauss-Legendre rule on each piece.
    """
    agent = inst.agents[i]
    theta_i = float(theta_profile[i])
    agent.types._check_domain(theta_i)
    lo, hi = (float(x) for x in _income_bounds(agent, theta_i))

    def audit(x):
        return np.array([audit_rule_fn(theta_profile, p) for p in x.tolist()], dtype=float)

    scan = np.linspace(lo, hi, 257)
    a = audit(scan)
    k = np.flatnonzero(np.diff(a))
    switches = _bisect(lambda x: audit(x) == a[k], scan[k], scan[k + 1], 64)
    cuts = np.concatenate([[lo, hi, audit_threshold(agent, theta_i)], switches,
                           agent.income.breakpoints(np.array([theta_i]))[0]])
    cuts = np.unique(np.clip(cuts, lo, hi))
    nodes, wts = _gl_segments(cuts[:-1], cuts[1:], _GL32)
    x = nodes.ravel()
    s = mu(agent, theta_i, x) * agent.sensitivity - agent.audit_cost
    term = np.sum(audit(x) * s * agent.income.pdf(x, theta_i) * wts.ravel())
    return myerson_virtual(agent, theta_i) + float(term)


def _expected_max_plus(inst: AuctionInstance, grids: list) -> float:
    """E[max_i V_i(theta_i)_+] for independent types and strictly increasing
    per-agent value functions, sampled as (types, values) ``grids``: the
    integral of 1 - prod_i P(V_i <= s) over [0, vmax], cut at the value grid
    points and the values of the type laws' knots, where theta_i(s) is linear
    and F_i of degree <= 3, so the (2N)-point Gauss-Legendre rule is exact."""
    for _, vals in grids:
        if np.any(np.diff(vals) <= 0):
            raise RegularityError("value function is not strictly increasing; "
                                  "ironing is not supported")
    vmax = max(float(v[-1]) for _, v in grids)
    if vmax <= 0:
        return 0.0
    cuts = [[0.0, vmax]] + [np.concatenate([vals, np.interp(a.types.knots, ts, vals)])
                            for a, (ts, vals) in zip(inst.agents, grids)]
    cuts = np.unique(np.clip(np.concatenate(cuts), 0.0, vmax))
    nodes, wts = _gl_segments(cuts[:-1], cuts[1:],
                              np.polynomial.legendre.leggauss(2 * inst.n_agents))
    below = np.prod([a.types.cdf(np.interp(nodes, vals, ts))
                     for a, (ts, vals) in zip(inst.agents, grids)], axis=0)
    return float(np.sum((1.0 - below) * wts))


def payoff_bound(inst: AuctionInstance) -> float:
    """Upper bound on expected revenue net audit costs: E[max_i psi_i(theta_i)_+].

    Attained by the optimal mechanism, so this doubles as its exact expected
    revenue.  Evaluated by deterministic quadrature over the virtual values
    of the instance's tables (the ones the simulator allocates by)."""
    return _expected_max_plus(inst, [(t.theta, t.psi) for t in tables_for(inst).agents])


def myerson_cash_revenue(inst: AuctionInstance) -> float:
    """Expected revenue of the optimal cash-only auction, E[max_i psiM_i_+]
    (a posted price for one bidder).  Requires every Myerson virtual value to
    be strictly increasing."""
    thetas = [np.linspace(_psi_floor(a), a.types.hi, 4097) for a in inst.agents]
    grids = [(ts, np.asarray(myerson_virtual(a, ts), dtype=float))
             for a, ts in zip(inst.agents, thetas)]
    if any(np.any(np.diff(v) <= 0) for _, v in grids):
        raise RegularityError("Myerson virtual value is not strictly increasing; "
                              "ironing is not supported")
    if inst.n_agents > 1:
        return _expected_max_plus(inst, grids)
    agent, ((ts, v),) = inst.agents[0], grids
    if v[-1] <= 0:
        return 0.0
    if v[0] > 0:
        theta_r = agent.types.lo
    else:
        theta_r = float(_bisect(lambda t: myerson_virtual(agent, t) <= 0, ts[0], ts[-1], 64))
    # int_{theta_r}^{hi} psi_m f = [theta (F - 1)]_{theta_r}^{hi}
    return float(theta_r * (1.0 - agent.types.cdf(theta_r)))


def full_extraction_revenue(inst: AuctionInstance) -> float:
    """Full surplus E[max(0, theta_1, ..., theta_N)]: the revenue of the
    modified first-price auction with unrestricted income-contingent
    penalties (free auditing, unit sensitivity): ``_expected_max_plus`` with
    identity value functions."""
    return _expected_max_plus(inst, [([a.types.lo, a.types.hi],) * 2 for a in inst.agents])


# ---------------------------------------------------------------------------
# Vectorized kernels and dense tables
# ---------------------------------------------------------------------------


def _blocked(fn, *cols):
    """``fn`` applied to blocks of _BLOCK rows of the 1-d ``cols``, each of
    its outputs concatenated over the blocks."""
    n = len(cols[0])
    parts = [fn(*(c[k:k + _BLOCK] for c in cols)) for k in range(0, max(n, 1), _BLOCK)]
    return [np.concatenate(p) for p in zip(*parts)]


def _check_single_crossing(agent: AgentSpec, thetas: np.ndarray):
    """Raise ``RegularityError`` unless mu*phi - c is single-crossing from
    above in income at every type, on a 65-point scan of its income support."""
    if agent.sensitivity == 0.0:
        return
    lo, hi = _income_bounds(agent, thetas)

    def crossing_back(t, l, h):
        probe = np.linspace(l + _NU * (h - l), h - _NU * (h - l), 65, axis=1)
        with np.errstate(invalid="ignore"):
            s = mu(agent, t[:, None], probe) * agent.sensitivity - agent.audit_cost
        return (np.any(np.maximum.accumulate(s < 0, axis=1) & (s > 0), axis=1),)

    bad = _blocked(crossing_back, thetas, lo, hi)[0]
    if np.any(bad):
        raise RegularityError(
            f"mu*phi - c is not single-crossing in income at theta={thetas[bad][0]}")


def _threshold(agent: AgentSpec, thetas: np.ndarray) -> np.ndarray:
    """Audit threshold by bisection, assuming single crossing: supp_hi when
    auditing pays on the whole support, 0 when it pays nowhere."""
    lo, hi = _income_bounds(agent, thetas)
    phi, c = agent.sensitivity, agent.audit_cost
    ih = np.asarray(inverse_hazard(agent.types, thetas), dtype=float)

    def pays(p, k):
        ratio = -np.asarray(agent.income.g2_over_g(p, thetas[k]), dtype=float)
        return ratio * (ih[k] * phi) - c >= 0

    # phi * (1 - F)/f == 0 (phi == 0 or the top type): pays iff c == 0
    trivial = phi * np.where(np.isfinite(ih), ih, 1.0) == 0.0
    out = np.where(trivial & (c == 0.0), hi, 0.0)
    k = np.nonzero(~trivial)[0]
    width = hi[k] - lo[k]
    at_lo = pays(lo[k] + _NU * width, k)
    whole = at_lo & pays(hi[k] - _NU * width, k)
    out[k[whole]] = hi[k[whole]]
    k = k[at_lo & ~whole]
    out[k] = _bisect(lambda m: pays(m, k), lo[k], hi[k], 64)
    return out


def _pi_star_vec(agent: AgentSpec, thetas: np.ndarray) -> np.ndarray:
    """Audit threshold on an array of types, behind the single-crossing
    precondition (``RegularityError`` when it fails)."""
    thetas = np.asarray(thetas, dtype=float)
    _check_single_crossing(agent, thetas)
    return _threshold(agent, thetas)


def _audit_region(agent: AgentSpec, ts: np.ndarray, pstar: np.ndarray):
    """supp_lo and b = min(pi_star, supp_hi) per type, and the nodes and
    weights (one row per type) of the 2-point Gauss-Legendre rule on the
    audit region [supp_lo, max(b, supp_lo)] split at the income law's
    breakpoints."""
    lo, hi = _income_bounds(agent, ts)
    b = np.minimum(pstar, hi)
    top = np.maximum(b, lo)
    cuts = np.clip(agent.income.breakpoints(ts), lo[:, None], top[:, None])
    edges = np.sort(np.concatenate([lo[:, None], top[:, None], cuts], axis=1), axis=1)
    nodes, wts = _gl_segments(edges[:, :-1], edges[:, 1:], _GL2)
    return lo, b, nodes.reshape(ts.size, -1), wts.reshape(ts.size, -1)


def _royalty_share(agent: AgentSpec, ts: np.ndarray, nodes: np.ndarray,
                   wts: np.ndarray) -> np.ndarray:
    """Phi at types ``ts`` from the audit-region rule ``nodes``/``wts``
    of ``_audit_region``."""
    phi = agent.sensitivity
    negg2 = -np.asarray(agent.income.dcdf_dtheta(nodes, ts[:, None]), dtype=float)
    return np.clip(phi * np.sum(negg2 * wts, axis=1), 0.0, phi)


def _integrals(agent: AgentSpec, ts: np.ndarray, pstar: np.ndarray):
    """psi_m, psi, Phi and E[pi - royalty] at types ``ts`` whose audit
    thresholds are ``pstar``.

    With b = min(pi_star, supp_hi), the audit gain is
    int_{supp_lo}^b (mu phi - c) g dpi = ih * Phi - c * G(b) (mu g = -G_2 * ih),
    and E[min(pi, pi_star)] = min(b, supp_lo) + int_{supp_lo}^b (1 - G) dpi,
    so the kernel integrates only -G_2 and 1 - G."""
    c, phi = agent.audit_cost, agent.sensitivity
    fam = agent.income
    ih = np.asarray(inverse_hazard(agent.types, ts), dtype=float)
    plo, b, nodes, wts = _audit_region(agent, ts, pstar)
    cap = _royalty_share(agent, ts, nodes, wts)
    survival = 1.0 - np.asarray(fam.cdf(nodes, ts[:, None]), dtype=float)
    e_min = np.minimum(b, plo) + np.sum(survival * wts, axis=1)
    psi_m = ts - ih
    psi = psi_m + ih * cap - c * np.asarray(fam.cdf(b, ts), dtype=float)
    return psi_m, psi, cap, ts - phi * e_min


def _buckets(xp: np.ndarray, x, k: int) -> np.ndarray:
    """Bucket of each point among ``k`` equal-width buckets over [xp[0],
    xp[-1]]: nondecreasing in x, so the points of a bucket never precede the
    grid points of an earlier one; NaN falls in the last bucket."""
    b = x - xp[0]
    b *= k / (xp[-1] - xp[0])
    return np.fmin(b, k - 1, out=b).astype(np.intp)


def _guide_table(xp: np.ndarray) -> np.ndarray:
    """Guide table of the sorted grid ``xp`` for indexed search (Chen & Asau
    1974): over 2 len(xp) buckets, the last grid index that lies in an earlier
    bucket, which is at or below every point of the bucket (clipped to the
    cells 0 .. len(xp) - 2)."""
    k = 2 * xp.size
    first = np.searchsorted(_buckets(xp, xp, k), np.arange(k))
    return np.clip(first - 1, 0, xp.size - 2)


@dataclass(frozen=True)
class GridPoints:
    """Points located on a sorted table grid ``xp``: cell ``j`` (np.interp's
    last index with xp[j] <= x, kept in 0 .. len(xp) - 2), offset
    ``d = x - xp[j]`` and cell width ``w = xp[j+1] - xp[j]``, plus the points
    np.interp answers with a grid value (outside the grid, at its top or
    exactly on a grid point): positions ``snap`` and value indices
    ``snap_to``.  ``interp`` evaluates any array on the grid with np.interp's
    arithmetic, so the two agree bit for bit on finite tables."""

    j: np.ndarray
    d: np.ndarray
    w: np.ndarray
    snap: np.ndarray
    snap_to: np.ndarray
    shape: tuple

    @staticmethod
    def locate(xp: np.ndarray, guide: np.ndarray, x) -> "GridPoints":
        """Locate ``x`` by the guide table of ``_guide_table(xp)``: read the
        bucket's index and step forward once where xp[j+1] <= x.  That
        settles nearly every point of a well-spread grid; a point that must
        step further sits in a bucket crowded with grid points (a far outlier
        squeezes the other grid points into a few buckets) and is located by
        binary search, so no point costs more than np.interp's search.
        Searching with x clipped below xp[-1] keeps j a cell; the points at
        or above xp[-1] snap to fp[-1] anyway."""
        x = np.asarray(x, dtype=float)
        shape, x = x.shape, x.ravel()
        top = xp[-1]
        xs = np.clip(x, xp[0], np.nextafter(top, -np.inf))
        j = guide[_buckets(xp, xs, guide.size)]
        nxt = xp[1:]
        move = np.flatnonzero(nxt[j] <= xs)
        j[move] += 1
        move = move[nxt[j[move]] <= xs[move]]
        j[move] = np.searchsorted(xp, xs[move], side="right") - 1
        del xs
        x0 = xp[j]
        w = nxt[j]
        w -= x0
        d = np.subtract(x, x0, out=x0)
        snap = np.flatnonzero((d <= 0.0) | (x >= top))
        xv = x[snap]
        snap_to = np.where(xv >= top, xp.size - 1, np.where(xv < xp[0], 0, j[snap]))
        # neutral offsets where the grid value is used, so that a repeated
        # grid point or an infinite x cannot raise a floating-point warning
        d[snap] = 0.0
        w[snap] = 1.0
        return GridPoints(j, d, w, snap, snap_to, shape)

    def take(self, sel: np.ndarray) -> "GridPoints":
        """The points at the increasing indices ``sel``."""
        pos = np.searchsorted(sel, self.snap)
        hit = pos < sel.size
        hit[hit] = sel[pos[hit]] == self.snap[hit]
        return GridPoints(self.j[sel], self.d[sel], self.w[sel], pos[hit],
                          self.snap_to[hit], sel.shape)

    def interp(self, fp: np.ndarray):
        """np.interp(x, xp, fp): (fp[j+1] - fp[j]) / w * d + fp[j], or the
        snapped grid value."""
        f0 = fp[self.j]
        out = fp[1:][self.j]
        out -= f0
        out /= self.w
        out *= self.d
        out += f0
        out[self.snap] = fp[self.snap_to]
        return out.reshape(self.shape)[()]


@dataclass(frozen=True)
class AgentTables:
    theta: np.ndarray = field(repr=False)
    psi_m: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    pi_star: np.ndarray = field(repr=False)
    phi_cap: np.ndarray = field(repr=False)
    income_net_royalty: np.ndarray = field(repr=False)
    rent_cum: np.ndarray = field(repr=False)
    # interim curves over truthful rivals: win probability Q, expected
    # transfer T and information rent int_lo^theta Q (1 - Phi)
    win_prob: np.ndarray = field(repr=False)
    interim_transfer: np.ndarray = field(repr=False)
    interim_rent: np.ndarray = field(repr=False)
    # guide tables of the type grid and of the psi grid (``_guide_table``)
    theta_guide: np.ndarray = field(repr=False)
    psi_guide: np.ndarray = field(repr=False)


def _mech_curves(agent: AgentSpec, ts: np.ndarray):
    """psi_m, psi, pi_star, Phi and E[pi - royalty] on an array of types."""
    ts = np.asarray(ts, dtype=float)
    pstar = _pi_star_vec(agent, ts)
    psi_m, psi, cap, e_net = _blocked(lambda t, p: _integrals(agent, t, p), ts, pstar)
    return psi_m, psi, pstar, cap, e_net


def _agent_curves(agent: AgentSpec) -> dict:
    lo, hi = agent.types.lo, agent.types.hi
    w = hi - lo
    floor = _psi_floor(agent)
    base = np.linspace(floor, hi, _TABLE_POINTS)
    extra = []
    for k in _threshold_kinks(agent):
        # bracket each regime change tightly so linear interpolation cannot
        # smear a jump in pi_star or Phi across a full grid cell
        extra.extend([k - 1e-12 * w, k, k + 1e-12 * w])
    ts = np.unique(np.clip(np.concatenate([base, extra]), floor, hi))

    psi_m, psi, pstar, cap, e_net = _mech_curves(agent, ts)
    if np.any(np.diff(psi) < -1e-9):
        raise RegularityError("virtual value is not increasing on the table grid")
    psi = np.maximum.accumulate(psi)  # wash out sub-1e-9 rounding jitter

    # cumulative information-rent factor: int (1 - Phi) dz from the bottom,
    # 2-point Gauss-Legendre per grid cell; the single-crossing scan on the
    # grid above stands in for the one at the rule's nodes
    nodes, wts = _gl_segments(ts[:-1], ts[1:], _GL2)
    z = nodes.ravel()

    def share(t, p):
        _, _, n, w = _audit_region(agent, t, p)
        return (_royalty_share(agent, t, n, w),)

    cap2 = _blocked(share, z, _threshold(agent, z))[0]
    rent_cum = np.concatenate([[0.0], np.cumsum(np.sum((1.0 - cap2.reshape(nodes.shape))
                                                       * wts, axis=1))])

    return dict(theta=ts, psi_m=psi_m, psi=psi, pi_star=pstar, phi_cap=cap,
                income_net_royalty=e_net, rent_cum=rent_cum)


def _interim_curves(inst: AuctionInstance, i: int, curves: list) -> dict:
    """Interim curves of agent i over truthful rivals, on its grid:
    T = Q * E[pi - royalty] - int_lo^theta Q(z) (1 - Phi(z)) dz."""
    t = curves[i]
    q = (t["psi"] > 0).astype(float)
    for j, (agent, r) in enumerate(zip(inst.agents, curves)):
        if j != i:
            q = q * np.asarray(agent.types.cdf(np.interp(t["psi"], r["psi"], r["theta"])),
                               dtype=float)
    integrand = q * (1.0 - t["phi_cap"])
    rent = np.concatenate([[0.0], np.cumsum(0.5 * (integrand[1:] + integrand[:-1])
                                            * np.diff(t["theta"]))])
    return dict(win_prob=q, interim_transfer=q * t["income_net_royalty"] - rent,
                interim_rent=rent)


@dataclass(frozen=True)
class MechanismTables:
    """Dense per-agent grids of the mechanism quantities, for fast
    vectorized evaluation and inversion inside the simulator.

    Immutable after construction; all evaluation methods are pure."""

    agents: tuple

    @staticmethod
    def build(inst: AuctionInstance) -> "MechanismTables":
        curves = [_agent_curves(a) for a in inst.agents]
        return MechanismTables(tuple(
            AgentTables(**c, **_interim_curves(inst, i, curves),
                        theta_guide=_guide_table(c["theta"]), psi_guide=_guide_table(c["psi"]))
            for i, c in enumerate(curves)))

    def locate(self, i: int, theta) -> GridPoints:
        """Types ``theta`` located on agent i's type grid.  Every type lookup
        below accepts the result in place of ``theta``, so points looked up
        several times are searched for once."""
        if isinstance(theta, GridPoints):
            return theta
        t = self.agents[i]
        return GridPoints.locate(t.theta, t.theta_guide, theta)

    def psi(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].psi)

    def psi_m(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].psi_m)

    def pi_star(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].pi_star)

    def phi_cap(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].phi_cap)

    def income_net_royalty(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].income_net_royalty)

    def rent_below(self, i: int, theta):
        return self.locate(i, theta).interp(self.agents[i].rent_cum)

    def threshold_type(self, i: int, rival_value):
        """Inverse virtual value: lowest type beating ``rival_value``."""
        t = self.agents[i]
        return GridPoints.locate(t.psi, t.psi_guide, rival_value).interp(t.theta)

    def transfer_win(self, i: int, theta, rival_value):
        """Winner's transfer at type report ``theta`` against the best rival
        positive virtual value."""
        at = self.locate(i, theta)
        z = self.threshold_type(i, rival_value)
        return (self.income_net_royalty(i, at)
                - (self.rent_below(i, at) - self.rent_below(i, z)))


def tables_for(inst: AuctionInstance) -> MechanismTables:
    """The instance's ``MechanismTables``, built on first use and cached on
    the instance (released with it)."""
    return inst._tables
