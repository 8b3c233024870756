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
* Upfront transfers leave the winner a rent equal to the integral of
  ``q(z) (1 - Phi(z))`` below their type.  ``verify-ic`` certifies interim
  IC over truthful rivals, each report priced off ``rent_cum``, the rent
  that transfers charge; nothing certifies ex post IC.

Two vectorized kernels are the only implementation of these quantities:
``_pi_star_vec`` (the single-crossing scan, then the threshold) and
``_mech_curves`` (psi, Phi and E[pi - royalty], combined from the three
income integrals of the family's ``IncomeFamily.audit_region``, which
``endogenous_virtual`` and ``verify``'s payments difference at their
cuts).  The audit surplus mu*phi - c has one expression,
``_audit_surplus``; the scan
(``_single_crossing_scan``, 0.0 unprobed where the family proves single
crossing) is the only judgement of single crossing in income, and
``_edge_pays`` the only one of whether auditing pays at an end of the income
support.  Where it pays at the bottom only, the threshold is the family's
closed-form crossing (``IncomeFamily.ratio_crossing``) or else found by the
bisection ``dist._bisect``, as are the menu cutoffs, the regime kinks and
the cash reserve type; with few brackets it resolves several levels per
call, handing the predicate midpoints along a new leading axis, so every
predicate here is elementwise over leading axes.  The kernels take their
types as ``_Types``, which holds what depends on the type alone, computed
once.  ``_allocate`` and ``_settle`` are the allocation and settlement
rules of every caller.  ``MechanismTables`` holds the quantities on a dense
type grid, the only place a build evaluates the mechanism (``rent_cum``,
the one integral of 1 - Phi, and the interim rent, by parts from it, are
exact integrals of its linear interpolants, ``_cum_trapezoid``).  Its
columns are read by name at located types, ``locate(i, theta).interp(name)``;
it keeps as lookups ``psi`` and ``pi_star``, which the simulator writes
into its own arrays, ``transfer_win`` and the inverse virtual value
``threshold_type``.  An entry point that takes an instance reads the
tables off ``tables_for`` and raises whenever it raises, one that takes an
agent evaluates the kernels.  Either reads a type argument once, by
``TypeDist._check_domain``, an income by ``errors._reals``, and uses the
float array read in the argument's place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import dist
from .dist import (
    AgentSpec,
    AdditiveErrorFamily,
    GridPoints,
    _Grid,
    _bisect,
    _buffers,
    _distinct,
    _gl_segments,
    inverse_hazard,
)
from .errors import (
    ConstructionError,
    DomainError,
    RegularityError,
    ReportRejectedError,
    UnsupportedInstanceError,
    _integer,
    _reals,
)

# relative nudge for one-sided limits at support endpoints
_NU = 1e-9
_SLACK = 1e-9  # numeric slack for weak inequalities on grids
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
    type support raise ``DomainError`` (``TypeDist._check_domain``; ``pi`` by ``_reals``).
    """
    theta, pi = agent.types._check_domain(theta), _reals(pi, "income")
    out = -np.asarray(agent.income.g2_over_g(pi, theta)) * inverse_hazard(agent.types, theta)
    return out if np.ndim(out) else float(out)


def _audit_surplus(agent: AgentSpec, theta, pi, ih):
    """Audit surplus mu*phi - c at incomes ``pi`` and types ``theta`` whose
    inverse hazards (1 - F)/f are ``ih``, as (-G_2/g) * (ih * phi) - c, from
    the family's ratio G_2/g (``g2_over_g``).  No domain check; every site
    that weighs auditing at an income evaluates it here."""
    s = -np.asarray(agent.income.g2_over_g(pi, theta), dtype=float) * (ih * agent.sensitivity)
    s -= agent.audit_cost
    return s


def _worst_single_crossing(values: np.ndarray, axis: int) -> np.ndarray:
    """Per sequence along ``axis``: the largest positive value that comes
    after a negative one (zero when the sequence is single-crossing from
    above).  NaN entries are skipped."""
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    # the entries from the first negative one on (which is not positive), by
    # one running maximum of the 0/1 bytes of ``values < 0``: numpy runs it
    # over bytes about three times as fast as logical_or over booleans
    late = np.maximum.accumulate((values < 0).view(np.uint8), axis=-1).view(bool)
    late &= values > 0
    return np.max(values, axis=-1, initial=0.0, where=late)


def myerson_virtual(agent: AgentSpec, theta):
    """Cash-auction virtual value theta - (1 - F)/f, one value per type."""
    return _per_type(agent, theta, lambda a, ts: ts - inverse_hazard(a.types, ts))


def _income_bounds(agent: AgentSpec, theta):
    fam = agent.income
    return np.asarray(fam.supp_lo(theta), dtype=float), np.asarray(fam.supp_hi(theta), dtype=float)


def _per_type(agent: AgentSpec, theta, kernel: Callable):
    """``kernel(agent, types)`` at ``theta`` as read by ``TypeDist._check_domain``,
    flattened: an array of theta's shape, or a float for a scalar type."""
    theta = agent.types._check_domain(theta)
    values = kernel(agent, theta.ravel())
    return values.reshape(theta.shape) if theta.ndim else float(values[0])


def audit_threshold(agent: AgentSpec, theta):
    """Audit threshold pi_star: the largest income at which auditing still
    pays (mu * phi >= c), or 0 when it never pays; one value per type.

    Requires mu*phi - c to be single-crossing from above in income; a
    violation detected on the scan grid raises ``RegularityError``.
    Bisection resolves the crossing to absolute tolerance below 1e-10.
    """
    return _per_type(agent, theta, _pi_star_vec)


def virtual_value(agent: AgentSpec, theta):
    """Virtual value psi = Myerson virtual value + expected audit gain;
    ``DomainError`` where the type density vanishes (psi is inf - inf)."""
    psi = _per_type(agent, theta, lambda a, ts: _mech_curves(a, ts)[1])
    if np.any(np.isnan(psi)):
        raise DomainError(f"virtual value undefined at type {theta}: the type density vanishes")
    return psi


def phi_cap(agent: AgentSpec, theta):
    """Royalty recovery share Phi(theta) = phi * int_0^{pi_star} (-G_2) dpi,
    one value per type.

    Lies in [0, phi]: equals phi when the whole income support is audited
    and 0 when auditing never pays.  (The integrand vanishes below the
    income support, so integration starts at supp_lo.)
    """
    return _per_type(agent, theta, lambda a, ts: _mech_curves(a, ts)[3])


def _top_two(psi: np.ndarray, out=None):
    """Per row: the index of the highest virtual value, that value, and the
    second highest (-inf for a lone bidder, who has no rival).  ``out``: the
    index (intp), top and second arrays and a float scratch array, one entry
    per row.

    One pass per agent column, with no data-dependent branch: a column at or
    above the top so far takes the top (index j exceeds every earlier one),
    and the second becomes the larger of the second so far and the smaller
    of the top so far and the column.  Ties for the top therefore go to the
    highest index, as in a stable ascending sort.  A tie for the top also
    makes the second value equal the top, so the asset stays unsold and the
    rule never shows in an outcome."""
    n, N = psi.shape
    w, top, second, scratch = _buffers(out, n, np.intp, float, float, float)
    w.fill(0)
    np.copyto(top, psi[:, 0])
    second.fill(-np.inf)
    for j in range(1, N):
        col = psi[:, j]
        np.maximum(w, np.multiply(col >= top, j, out=scratch.view(np.intp)), out=w)
        np.maximum(second, np.minimum(top, col, out=scratch), out=second)
        np.maximum(col, top, out=top)
    return w, top, second


def _allocate(psi: np.ndarray, out=None):
    """The allocation rule per row of virtual values ``psi`` (one column per
    agent): the agent strictly above zero and every rival wins, so a tie for
    the top leaves the asset unsold.  Returns the winner index (-1 when
    unsold) and the rival value max(second highest value, 0), 0 for a lone
    bidder, in the first and third arrays of ``out`` (``_top_two``'s)."""
    w, top, second = _top_two(psi, out)
    rival = np.maximum(second, 0.0, out=second)
    # w where sold, else -1, without a data-dependent branch
    w += 1
    w *= top > rival
    w -= 1
    return w, rival


def _agent(owner, i):
    """``owner.agents[i]`` of an instance or its ``MechanismTables``;
    ``DomainError`` unless the integer rule puts ``i`` in range(n_agents) (a
    negative index would name another agent; a bool is not an index)."""
    return owner.agents[_integer(i, "agent index", 0, len(owner.agents), error=DomainError)]


def _profile_psi(inst: AuctionInstance, profiles) -> tuple:
    """Type ``profiles`` (rows, one column per agent) as a float array, each
    column read by its agent's ``TypeDist._check_domain``, and the tables'
    virtual values at them."""
    profiles = np.atleast_2d(np.asarray(profiles, dtype=object))
    if profiles.shape[1] != inst.n_agents:
        raise DomainError(f"expected {inst.n_agents} types per profile, got {profiles.shape[1]}")
    types = np.column_stack([a.types._check_domain(col) for a, col in zip(inst.agents, profiles.T)])
    tables = tables_for(inst)
    return types, np.column_stack([tables.psi(i, col) for i, col in enumerate(types.T)])


def allocation(inst: AuctionInstance, theta_profile) -> list:
    """Winner indicator: 1 for the agent that wins by ``_allocate``."""
    winner = _allocate(_profile_psi(inst, [theta_profile])[1])[0][0]
    return [int(winner == i) for i in range(inst.n_agents)]


def _audit_mask(pi_report, cap, supp_hi, out=None):
    """Audit indicator: report strictly below the threshold, or any report
    when it reaches the reported support's top, within 1e-12*max(1, |top|).

    The boundary case matters with shifting supports: when the whole
    reported support is worth auditing, the cap equals the support's upper
    endpoint and the only report at or above the cap is that endpoint.
    Leaving it unaudited would let a winner under-report their type and then
    park their income report at the cap, evading the penalty; auditing it
    restores exact deviation indifference (it is also the case the
    dominant-strategy envelope argument prices at the dampened slope).
    On path the event has measure zero, so payments are unchanged.  The band
    covers an interpolated cap's few ulps; a wider one would audit reports
    above a cap just below the top, refunding phi*(report - pi) to them.
    ``out``: the mask (bool) and a float scratch array, of the result's
    shape; None allocates them.
    """
    mask, s = (None, None) if out is None else out
    band = np.multiply(1e-12, np.maximum(1.0, np.abs(supp_hi, out=s), out=s), out=s)
    top = np.greater_equal(cap, np.subtract(supp_hi, band, out=s), out=mask)
    # the float scratch, spent, holds the flags of reports below the cap
    below = pi_report < cap if s is None else np.less(pi_report, cap, out=s.view(bool)[:mask.size])
    return np.bitwise_or(below, top, out=mask)


def _settle(pi_true, pi_report, cap, supp_hi, phi, audited=None, out=None):
    """The settlement rule for a winner with true income ``pi_true`` and
    income report ``pi_report`` under audit threshold ``cap``, reported
    support top ``supp_hi`` (arrays broadcast): the royalty
    min(pi_report, cap)*phi, the audit indicator (``_audit_mask``, unless a
    randomized rule's draws ``audited`` are given) and the penalty
    (pi_true - pi_report)*phi where audited, 0 elsewhere.  ``out``: the
    royalty, audit indicator (bool) and penalty arrays and a float scratch
    array, of the result's shape; None allocates them."""
    royalty, mask, penalty, s = (None,) * 4 if out is None else out
    royalty = np.multiply(np.minimum(pi_report, cap, out=royalty), phi, out=royalty)
    if audited is None:
        audited = _audit_mask(pi_report, cap, supp_hi, None if out is None else (mask, s))
    gap = np.multiply(np.subtract(pi_true, pi_report, out=s), phi, out=s)
    return royalty, audited, _where_zero(audited, gap, out=penalty)


def _where_zero(mask, x, out=None):
    """``np.where(mask, x, 0.0)`` bit for bit, for float ``x``: the bits of
    ``x`` ANDed with all ones where ``mask`` holds and with zeros elsewhere.
    np.where branches on every element, so a random mask, such as the audit
    indicator of a chunk of runs, makes it about six times slower.  ``out``:
    a float array of the result's shape, not x's memory."""
    bits = None if out is None else out.view(np.int64)
    keep = np.subtract(0, mask, out=bits, dtype=np.int64)
    return np.bitwise_and(np.asarray(x, dtype=float).view(np.int64), keep,
                          out=bits).view(np.float64)


def _settle_report(agent: AgentSpec, theta_report: float, pi_report: float):
    """``_settle`` of a truthful income report at the reported type, after
    rejecting reports outside that type's income support."""
    theta_report, pi_report = agent.types._check_domain(theta_report), _reals(pi_report, "income")
    lo, hi = (float(x) for x in _income_bounds(agent, theta_report))
    tol = 1e-9 * max(1.0, abs(hi))
    if not lo - tol <= pi_report <= hi + tol:   # NaN included
        raise ReportRejectedError(
            f"income report {pi_report} outside [{lo}, {hi}] for type report {theta_report}")
    return _settle(pi_report, pi_report, audit_threshold(agent, theta_report), hi,
                   agent.sensitivity)


def royalty(agent: AgentSpec, theta_report: float, pi_report: float) -> float:
    """Royalty min(pi_report, pi_star(theta_report)) * phi, capped at the
    royalty cap pi_star * phi.  Reports outside the reported type's income
    support are rejected."""
    return float(_settle_report(agent, theta_report, pi_report)[0])


def audit_rule(agent: AgentSpec, theta_report: float, pi_report: float) -> int:
    """Audit indicator: 1 iff the report is strictly below the audit
    threshold (with the threshold-at-support-top boundary report audited as
    well; see ``_audit_mask``)."""
    return int(bool(_settle_report(agent, theta_report, pi_report)[1]))


def penalty(agent: AgentSpec, theta_report: float, pi_report: float, pi_true: float) -> float:
    """Post-audit penalty (pi_true - pi_report) * phi, as ``_settle`` charges it.

    Negative values are refunds of overpaid royalties.  The same linear
    formula applies off path, for true incomes outside the reported type's
    support; a type report outside the type support raises ``DomainError``,
    as in ``royalty`` and ``audit_rule``; the incomes are read by ``_reals``.
    """
    agent.types._check_domain(theta_report)
    pi_report, pi_true = _reals(pi_report, "income"), _reals(pi_true, "income")
    return float(_settle(pi_true, pi_report, np.inf, np.inf, agent.sensitivity, True)[2])


# ---------------------------------------------------------------------------
# Transfers
# ---------------------------------------------------------------------------


def _edge_pays(agent: AgentSpec, thetas) -> np.ndarray:
    """Whether auditing pays at the bottom (row 0) and the top (row 1) of
    each type's income support: audit surplus >= 0 at each end nudged inside
    by ``_NU``.  Where phi * (1 - F)/f == 0 (phi == 0 or the top type) the
    surplus is -c at every income, so auditing pays iff c == 0."""
    t = _Types.of(agent, thetas)
    lo, hi, ih = t.lo, t.hi, t.ih
    ends = np.stack([lo + _NU * (hi - lo), hi - _NU * (hi - lo)])
    with np.errstate(invalid="ignore"):
        pays = _audit_surplus(agent, t.theta, ends, ih) >= 0
    trivial = agent.sensitivity * np.where(np.isfinite(ih), ih, 1.0) == 0.0
    return np.where(trivial, agent.audit_cost == 0.0, pays)


def _threshold_kinks(agent: AgentSpec) -> list:
    """Types at which the audit region changes regime (the threshold leaves
    a support end), marked on the type grid of the tables: changes of
    ``_edge_pays`` at either end on a 514-point type grid, refined by
    bisecting all brackets at once.  The grid starts at the tables' lowest
    type (``_psi_floor``) and stops one float below the top type, whose
    answer is a convention; the tables interpolate below it."""
    lo, hi = agent.types.lo, agent.types.hi
    grid = np.linspace(_psi_floor(agent), np.nextafter(hi, lo), 514)
    pays = _edge_pays(agent, grid)
    end, k = np.nonzero(np.diff(pays, axis=1))
    if k.size == 0:
        return []
    kinks = _bisect(lambda t: np.choose(end, _edge_pays(agent, t)) == pays[end, k],
                    grid[k], grid[k + 1], 64)
    return sorted({k for k in kinks.tolist() if grid[0] <= k < hi})


def expected_income_net_royalty(agent: AgentSpec, theta):
    """E[pi - royalty | theta] = theta - phi * E[min(pi, pi_star(theta))],
    one value per type."""
    return _per_type(agent, theta, lambda a, ts: _mech_curves(a, ts)[4])


def _psi_floor(agent: AgentSpec) -> float:
    """Lowest type at which psi evaluates finitely: the support end itself
    unless the density vanishes there (then the inverse hazard diverges and
    the grid is nudged just inside)."""
    lo, hi = agent.types.lo, agent.types.hi
    if np.isfinite(inverse_hazard(agent.types, lo)):
        return lo
    return lo + _NU * (hi - lo)


def _interior_grid(types, n: int) -> np.ndarray:
    """``n`` evenly spaced types strictly inside the support of the type law
    ``types``: the type grid of ``check``, ``solve`` and ``verify-ic``."""
    return np.linspace(types.lo, types.hi, n + 2)[1:-1]


def transfer(inst: AuctionInstance, i: int, theta_profile) -> float:
    """Upfront transfer of agent i at the reported profile.

    Zero unless i wins; a winner pays his expected income net of royalties
    minus the information rent integral of (1 - Phi) over the types below
    his report that still win against the same rivals.  The value is read
    off the instance's tables (``tables_for``): the rent is the exact
    integral of the tables' interpolant of Phi, so its error is at most
    (theta - z) times the largest interpolation error of Phi on the table,
    z the lowest winning type.  Observed against a 131,073-point build, over
    20,001 type reports and 513 rival values per agent of the shipped
    configs: at most 5.4e-9 (``scaled_triangular``), 2.2e-9 on the scaled
    uniform agents, 0 on the additive ones.  None of them has an interior
    reserve (psi = 0 inside the support), whose grid cell is not bracketed:
    there the interim transfer differs from this one by up to 1.42e-5 at
    grid types (a lone U[0.5, 1.5] bidder, additive U[-0.5, 0.5] errors,
    c = 0.2, phi = 0.5).
    """
    _agent(inst, i)
    types, psi = _profile_psi(inst, [theta_profile])
    winner, rival = _allocate(psi)
    if winner[0] != i:
        return 0.0
    return float(tables_for(inst).transfer_win(i, types[0, i], rival[0]))


# ---------------------------------------------------------------------------
# Binary menu (single agent, additive errors)
# ---------------------------------------------------------------------------


def menu_cutoffs(agent: AgentSpec) -> tuple:
    """Cutoff types of the posted menu.

    theta_star bounds the region where auditing pays ((1-F)/f * phi >= c):
    the tables' regime kink (``_threshold_kinks``), else hi or lo; theta_0
    is the lowest type with positive virtual value, found by bisection.
    """
    lo, hi = agent.types.lo, agent.types.hi
    lo_n = _psi_floor(agent)
    # additive errors: mu = (1 - F)/f at every income, so both ends change regime at once
    kinks = _threshold_kinks(agent)
    if len(kinks) > 1:
        raise UnsupportedInstanceError(f"menus need at most one audit regime change, got {kinks}")
    theta_star = kinks[0] if kinks else (hi if _edge_pays(agent, lo_n)[0] else lo)

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
    return _binary_menu(agent)[0]


def _binary_menu(agent: AgentSpec) -> tuple:
    """``binary_menu`` and the ``menu_cutoffs`` it was built from."""
    if not isinstance(agent.income, AdditiveErrorFamily):
        raise UnsupportedInstanceError("menus require the additive-errors income family")
    theta_star, theta_0 = cutoffs = menu_cutoffs(agent)
    phi = agent.sensitivity
    if theta_0 >= theta_star:
        return [MenuContract("lump_sum", float(theta_0), 0.0, False)], cutoffs
    return [
        MenuContract("lump_sum", float((1.0 - phi) * theta_0 + phi * theta_star), 0.0, False),
        MenuContract("linear_royalty", float((1.0 - phi) * theta_0), phi, True),
    ], cutoffs


# ---------------------------------------------------------------------------
# Payoff bound and benchmarks
# ---------------------------------------------------------------------------


def endogenous_virtual(inst: AuctionInstance, i: int, theta_profile,
                       audit_rule_fn: Callable) -> float:
    """Profile-dependent virtual value under an arbitrary auditing rule:
    Myerson virtual value plus E[a(theta, pi) (mu*phi - c)].

    Maximized pointwise by auditing exactly when mu*phi >= c, where it
    equals ``virtual_value``.  The income support is cut at the tables'
    pi_star and at the rule's switches (a 257-point scan, then bisection),
    and the rule is read at each piece's midpoint.  On a piece the integral
    of (mu*phi - c) g = -G_2 * ih * phi - c * g is ih * phi times the change
    of int -G_2 and c times that of G, both from the family's
    ``audit_region`` at the cuts, so it is exact for every family.  The
    profile is read as ``transfer`` reads it (``_profile_psi``).
    """
    agent = _agent(inst, i)
    theta_i = float(_profile_psi(inst, [theta_profile])[0][0, i])
    lo, hi = (float(x) for x in _income_bounds(agent, theta_i))

    def audit(x):
        return np.array([audit_rule_fn(theta_profile, p) for p in x.ravel().tolist()],
                        dtype=float).reshape(x.shape)

    scan = np.linspace(lo, hi, 257)
    a = audit(scan)
    k = np.flatnonzero(np.diff(a))
    switches = _bisect(lambda x: audit(x) == a[k], scan[k], scan[k + 1], 64)
    cuts = np.concatenate([[lo, hi, tables_for(inst).pi_star(i, theta_i)], switches])
    cuts = _distinct(np.clip(cuts, lo, hi))
    g, recovery, _ = agent.income.audit_region(np.full(cuts.size, theta_i), cuts)
    gain = (inverse_hazard(agent.types, theta_i) * agent.sensitivity * np.diff(recovery)
            - agent.audit_cost * np.diff(g))
    gain *= audit(0.5 * (cuts[:-1] + cuts[1:]))
    return myerson_virtual(agent, theta_i) + float(np.sum(gain))


def _check_increasing(grids: list):
    """Raise unless every (types, values) grid's values strictly increase."""
    if any(np.any(np.diff(vals) <= 0) for _, vals in grids):
        raise RegularityError("value function is not strictly increasing; "
                              "ironing is not supported")


def _expected_max_plus(inst: AuctionInstance, grids: list) -> float:
    """E[max_i V_i(theta_i)_+] for independent types and strictly increasing
    per-agent value functions, sampled as (types, values) ``grids``: the
    integral of 1 - prod_i P(V_i <= s) over [0, vmax], cut at the value grid
    points and the values of the type laws' knots, where theta_i(s) is linear
    and F_i of degree <= 3, so the (2N)-point Gauss-Legendre rule is exact.

    The S segments' terms (1 - prod_i F_i) w fill one (S, 2N) array, summed
    once; each block of segments of at most ``_BLOCK_ELEMENTS`` nodes builds
    its nodes, weights and cdfs in turn, multiplied into the block's terms
    agent by agent, so no N x S x 2N array is ever held."""
    _check_increasing(grids)
    vmax = max(float(v[-1]) for _, v in grids)
    if vmax <= 0:
        return 0.0
    cuts = [[0.0, vmax]] + [np.concatenate([vals, np.interp(a.types.knots, ts, vals)])
                            for a, (ts, vals) in zip(inst.agents, grids)]
    cuts = _distinct(np.clip(np.concatenate(cuts), 0.0, vmax))
    lo, hi = cuts[:-1], cuts[1:]
    rule = np.polynomial.legendre.leggauss(2 * inst.n_agents)
    terms = np.empty((lo.size, rule[0].size))
    step = max(1, dist._BLOCK_ELEMENTS // rule[0].size)
    for k in range(0, lo.size, step):
        nodes, wts = _gl_segments(lo[k:k + step], hi[k:k + step], rule)
        block = terms[k:k + step]
        block.fill(1.0)
        for a, (ts, vals) in zip(inst.agents, grids):
            block *= a.types.cdf(np.interp(nodes, vals, ts))
        np.subtract(1.0, block, out=block)
        block *= wts
    return float(np.sum(terms))


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
    if inst.n_agents > 1:
        return _expected_max_plus(inst, grids)
    _check_increasing(grids)
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


@dataclass(frozen=True)
class _Types:
    """Types with what the kernels read of them alone, computed once: the
    inverse hazards ``ih`` = (1 - F)/f and the income supports [``lo``,
    ``hi``].  The kernels take it in place of an array of types; indexing it
    indexes each type."""

    theta: np.ndarray
    ih: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def of(agent: AgentSpec, thetas) -> "_Types":
        """``thetas`` as ``_Types`` (checked against the type support)."""
        if isinstance(thetas, _Types):
            return thetas
        theta = np.asarray(thetas, dtype=float)
        ih = np.asarray(inverse_hazard(agent.types, theta), dtype=float)
        return _Types(theta, ih, *_income_bounds(agent, theta))

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, key) -> "_Types":
        return _Types(self.theta[key], self.ih[key], self.lo[key], self.hi[key])


def _single_crossing_scan(agent: AgentSpec, thetas: np.ndarray) -> np.ndarray:
    """The single-crossing scan: per type, the worst violation of single
    crossing from above of mu*phi - c in income; it fails above ``_SLACK``.

    0.0 where the family is ``ratio_nonincreasing`` (additive and scaled
    errors): the surplus (-G_theta/g) * (ih * phi) - c is then a chain of
    steps each monotone in income under rounding, so it never rises along
    the probes and ``_probe_single_crossing`` reads exactly 0.0 too.  Other
    families, tabulated or lacking the attribute, are probed."""
    if getattr(agent.income, "ratio_nonincreasing", False):
        return np.zeros(len(thetas))
    return _probe_single_crossing(agent, thetas)


def _probe_single_crossing(agent: AgentSpec, thetas: np.ndarray) -> np.ndarray:
    """Per type, ``_worst_single_crossing`` of mu*phi - c over 65 incomes
    inside the type's own support, over blocks of the most types (at least
    one) whose 65 incomes each fit in ``dist._BLOCK_ELEMENTS``."""
    t = _Types.of(agent, thetas)
    rows = max(1, dist._BLOCK_ELEMENTS // 65)
    out = np.empty(len(t))
    for k in range(0, len(t), rows):
        b = t[k:k + rows]
        probe = np.linspace(b.lo + _NU * (b.hi - b.lo), b.hi - _NU * (b.hi - b.lo), 65, axis=1)
        with np.errstate(invalid="ignore"):
            s = _audit_surplus(agent, b.theta[:, None], probe, b.ih[:, None])
        out[k:k + rows] = _worst_single_crossing(s, axis=1)
    return out


def _pi_star_vec(agent: AgentSpec, thetas: np.ndarray) -> np.ndarray:
    """Audit threshold on an array of types (or ``_Types``), behind the
    single-crossing precondition (``RegularityError`` when the scan fails at
    any of them): supp_hi when auditing pays on the whole support, 0 when it
    pays nowhere, else where -G_2/g falls to c / (ih * phi), in closed form
    (``ratio_crossing``, clipped to the support) or by bisection."""
    t = _Types.of(agent, thetas)
    bad = _single_crossing_scan(agent, t) > _SLACK
    if np.any(bad):
        raise RegularityError(
            f"mu*phi - c is not single-crossing in income at theta={t.theta[bad][0]}")
    at_lo, at_hi = _edge_pays(agent, t)
    out = np.where(at_lo & at_hi, t.hi, 0.0)
    k = np.nonzero(at_lo & ~at_hi)[0]
    tk = t[k]
    # auditing pays at the bottom only, so ih * phi > 0 and c > 0 there
    cross = agent.income.ratio_crossing(tk.theta, agent.audit_cost / (tk.ih * agent.sensitivity))
    if cross is None:
        cross = _bisect(lambda m: _audit_surplus(agent, tk.theta, m, tk.ih) >= 0,
                        tk.lo, tk.hi, 64)
    out[k] = np.clip(cross, tk.lo, tk.hi)
    return out


@dataclass(frozen=True)
class AgentTables:
    theta: np.ndarray = field(repr=False)
    psi_m: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    pi_star: np.ndarray = field(repr=False)
    phi_cap: np.ndarray = field(repr=False)
    income_net_royalty: np.ndarray = field(repr=False)
    # information-rent factor int_lo^theta (1 - Phi), on the grid's Phi
    rent_cum: np.ndarray = field(repr=False)
    # interim curves over truthful rivals: win probability Q, expected
    # transfer T and information rent int_lo^theta Q d(rent_cum)
    win_prob: np.ndarray = field(repr=False)
    interim_transfer: np.ndarray = field(repr=False)
    interim_rent: np.ndarray = field(repr=False)


def _mech_curves(agent: AgentSpec, ts: np.ndarray):
    """psi_m, psi, pi_star, Phi and E[pi - royalty] on an array of types,
    from the family's ``audit_region`` at b = min(pi_star, supp_hi): the
    audit gain int (mu phi - c) g dpi is ih * Phi - c * G(b) (mu g =
    -G_2 * ih), and E[min(pi, pi_star)] = min(b, supp_lo) + int (1 - G)."""
    c, phi = agent.audit_cost, agent.sensitivity
    t = _Types.of(agent, ts)
    pstar = _pi_star_vec(agent, t)
    b = np.minimum(pstar, t.hi)
    g, recovery, survival = agent.income.audit_region(t.theta, b)
    cap = np.clip(phi * np.asarray(recovery, dtype=float), 0.0, phi)
    psi_m = t.theta - t.ih
    # psi is inf - inf (NaN) where the type density vanishes (ih = +inf)
    with np.errstate(invalid="ignore"):
        psi = psi_m + t.ih * cap
        if c:  # c * G(b) is +0.0 at c == 0, and x - 0.0 is x
            psi -= c * np.asarray(g, dtype=float)
    return psi_m, psi, pstar, cap, t.theta - phi * (np.minimum(b, t.lo) + survival)


def _cum_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """int_{x[0]}^{x[k]} of the linear interpolant of ``y`` on ``x``, per k:
    the one rule behind every integral on a table grid, over types and, for
    the interim rent, int rent_cum dQ over the win probability."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))])


def _agent_curves(agent: AgentSpec) -> dict:
    lo, hi = agent.types.lo, agent.types.hi
    w = hi - lo
    floor = _psi_floor(agent)
    base = np.linspace(floor, hi, _TABLE_POINTS)
    knots = np.concatenate([agent.types.knots, agent.income.type_knots])
    # bracket each regime change and each interior knot of the type law or
    # of the income law's type dependence tightly so linear interpolation
    # cannot smear a kink in pi_star or Phi across a full grid cell
    marks = np.concatenate([_threshold_kinks(agent), knots[(knots > lo) & (knots < hi)]])
    extra = [marks - 1e-12 * w, marks, marks + 1e-12 * w]
    ts = _distinct(np.clip(np.concatenate([base, *extra]), floor, hi))

    psi_m, psi, pstar, cap, e_net = _mech_curves(agent, ts)
    if np.any(np.diff(psi) < -1e-9):
        raise RegularityError("virtual value is not increasing on the table grid")
    psi = np.maximum.accumulate(psi)  # wash out sub-1e-9 rounding jitter

    return dict(theta=ts, psi_m=psi_m, psi=psi, pi_star=pstar, phi_cap=cap,
                income_net_royalty=e_net, rent_cum=_cum_trapezoid(1.0 - cap, ts))


def _interim_curves(inst: AuctionInstance, i: int, curves: list) -> dict:
    """Interim curves of agent i over truthful rivals, on its grid: T = Q *
    E[pi - royalty] - int Q d(rent_cum), the rent summed by parts off rent_cum."""
    t = curves[i]
    q = (t["psi"] > 0).astype(float)
    for j, (agent, r) in enumerate(zip(inst.agents, curves)):
        if j != i:
            q = q * np.asarray(agent.types.cdf(np.interp(t["psi"], r["psi"], r["theta"])),
                               dtype=float)
    rent = q * t["rent_cum"] - _cum_trapezoid(t["rent_cum"], q)
    return dict(win_prob=q, interim_transfer=q * t["income_net_royalty"] - rent,
                interim_rent=rent)


@dataclass(frozen=True)
class MechanismTables:
    """Dense per-agent grids of the mechanism quantities, for fast
    vectorized evaluation and inversion inside the simulator.

    Immutable after construction, apart from the slope table that a
    column's first lookup builds (``dist._Grid.slope``); all evaluation
    methods are pure (apart from writing into the arrays passed as
    ``out``)."""

    agents: tuple
    # per agent, the grids its lookups read (``dist._Grid``): the type grid
    # with every column of ``AgentTables``, and the psi grid with theta
    grids: tuple = field(repr=False, compare=False)

    @staticmethod
    def build(inst: AuctionInstance) -> "MechanismTables":
        curves = [_agent_curves(a) for a in inst.agents]
        agents = tuple(AgentTables(**c, **_interim_curves(inst, i, curves))
                       for i, c in enumerate(curves))
        return MechanismTables(agents, tuple(
            (_Grid(t.theta, **vars(t)), _Grid(t.psi, theta=t.theta)) for t in agents))

    def locate(self, i: int, theta, out=None) -> GridPoints:
        """Types ``theta`` (``_reals``) located on agent i's type grid
        (``out``: as for ``dist._Grid.locate``).  Any column of
        ``agents[i]`` is read at them as ``locate(i, theta).interp(name)``,
        and every type lookup below accepts the result in place of
        ``theta``, so points looked up several times are searched for once
        (``DomainError`` for points located on another grid).  The
        simulator calls ``psi`` and ``pi_star`` with ``out``, which they
        write into as ``GridPoints.interp`` does.  Each lookup checks the
        agent index (``_agent``)."""
        _agent(self, i)
        grid = self.grids[i][0]
        if not isinstance(theta, GridPoints):
            return grid.locate(_reals(theta, "type report"), out=out)
        if theta.grid is not grid:
            raise DomainError(f"points located on another grid than agent {i}'s types")
        return theta

    def psi(self, i: int, theta, out=None):
        return self.locate(i, theta).interp("psi", out)

    def pi_star(self, i: int, theta, out=None):
        return self.locate(i, theta).interp("pi_star", out)

    def threshold_type(self, i: int, rival_value):
        """Inverse virtual value: lowest type beating ``rival_value``."""
        _agent(self, i)
        return self.grids[i][1].locate(_reals(rival_value, "rival value")).interp("theta")

    def transfer_win(self, i: int, theta, rival_value):
        """Winner's transfer at type report ``theta`` against the best rival
        positive virtual value ``rival_value`` (one value, or one per type):
        income_net_royalty - (rent_cum - rent_cum at the threshold type),
        the columns read at ``theta``."""
        return _transfer(self.locate(i, theta),
                         self._threshold_rent(i, _reals(rival_value, "rival value")))

    def _threshold_rent(self, i: int, rival_value, out=None):
        """rent_cum at the threshold type of each rival value: the rent of
        the types below the lowest that wins.  The type grid shares the psi
        grid's indices, and the threshold type never lies below theta[j] of
        the rival value's psi cell j, so its cell is found by stepping up
        from j.  ``out``: the result, an intp and two float scratch arrays,
        of the rival values' size."""
        types, values = self.grids[i]
        res, j, d, s = _buffers(out, np.size(rival_value), float, np.intp, float, float)
        v = values.locate(rival_value, out=(j, d, s))
        z = v.interp("theta", out=(res, s))
        return types.locate(z, start=v.j, out=(j, d, s)).interp("rent_cum", out=(res, s))


def _transfer(at: GridPoints, rent, out=None):
    """Winner's transfer at type reports ``at``, located on its agent's type
    grid, given the rent ``rent`` at its threshold type
    (``MechanismTables._threshold_rent``): income_net_royalty - (rent_cum -
    rent).  ``out``: the result and two float scratch arrays, of the
    points' size."""
    res, d, s = _buffers(out, at.j.size, float, float, float)
    at.interp("rent_cum", out=(d, s))
    np.subtract(d, rent, out=d)
    at.interp("income_net_royalty", out=(res, s))
    np.subtract(res, d, out=res)
    return res.reshape(at.shape)[()]


def tables_for(inst: AuctionInstance) -> MechanismTables:
    """The instance's ``MechanismTables``, built on first use and cached on
    the instance (released with it)."""
    return inst._tables
