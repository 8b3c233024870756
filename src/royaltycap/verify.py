"""Independent numerical verification of the mechanism.

Nothing here trusts the closed-form reasoning behind the mechanism: incentive
compatibility is certified by brute grid search over type deviations
(including double deviations, whose cheapest income report the settlement
rule gives in closed form, tested against a brute grid) and, at each
certified true type, over income reports at every income (the cheapest
report is affine in income between a few cuts), regularity by grid
evidence, payment crossing by bisection plus an ordering certificate, and
the noisy-audit reduction by Monte Carlo.  Expected payments are affine
between cuts and integrated exactly from the income family's
``audit_region`` at the cuts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dist import (_NORMALIZATION_TOL, AgentSpec, TypeDist, _bisect, _distinct,
                   inverse_hazard, project_to_support)
from .errors import (
    ConstructionError,
    DomainError,
    InvalidAxisError,
    InvalidNoiseError,
    RegularityError,
    UnsupportedPairError,
    _integer,
    _real,
    _reals,
)
from .mech import (
    AuctionInstance,
    _SLACK,
    _Types,
    _agent,
    _allocate,
    _audit_surplus,
    _income_bounds,
    _interior_grid,
    _mech_curves,
    _profile_psi,
    _settle,
    _single_crossing_scan,
    _worst_single_crossing,
    penalty,
    tables_for,
)

# smallest grids that regularity checks and best-response searches accept
_MIN_REGULARITY_GRID = 32
_MIN_RESPONSE_GRID = 64


# ---------------------------------------------------------------------------
# Report records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    """Grid evidence for the regularity conditions the mechanism relies on."""

    normalization_ok: bool
    fosd_ok: bool
    single_crossing_theta_ok: bool
    single_crossing_pi_ok: bool
    psi_increasing_ok: bool
    all_ok: bool = field(init=False)   # every check above passed
    worst: dict = field(repr=False)
    theta_grid: int = 0
    pi_grid: int = 0

    def __post_init__(self):
        object.__setattr__(self, "all_ok", (
            self.normalization_ok and self.fosd_ok and self.single_crossing_theta_ok
            and self.single_crossing_pi_ok and self.psi_increasing_ok))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DeviationReport:
    """Outcome of a best-response grid search for one agent."""

    truthful_utility: float
    best_deviation_utility: float
    best_deviation: tuple
    advantage: float
    grid: tuple
    ir_ok: bool = True
    info_rent: float = float("nan")
    income_advantage: float = float("nan")

    def __post_init__(self):
        gap = self.best_deviation_utility - self.truthful_utility
        if abs(gap - self.advantage) > 1e-12:
            raise ConstructionError("advantage must equal best - truthful")

    def to_dict(self) -> dict:
        return {**asdict(self), "best_deviation": list(self.best_deviation),
                "grid": list(self.grid)}


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


def check_regularity(agent: AgentSpec, theta_grid_size: int = 64,
                     pi_grid_size: int = 64) -> RegularityReport:
    """Grid verification of the distributional and regularity conditions:
    mean normalization E[pi | theta] = theta, stochastic dominance in the
    type, single crossing of the audit surplus mu*phi - c in both arguments,
    and a strictly increasing virtual value.

    Single crossing in income is the scan behind every mechanism kernel
    (``mech._single_crossing_scan``) at this report's types, so the kernels
    raise at exactly the grid types this report flags.  Failures are report
    content, not exceptions.
    """
    for name, n in (("theta_grid_size", theta_grid_size), ("pi_grid_size", pi_grid_size)):
        _integer(n, name, _MIN_REGULARITY_GRID,
                 says=f"regularity grids need at least {_MIN_REGULARITY_GRID} points")
    thetas = _interior_grid(agent.types, theta_grid_size)
    types = _Types.of(agent, thetas)
    th = thetas[:, None]
    worst: dict = {}

    # 1. normalization: supp_lo + int (1 - G) = theta, over the whole support
    plo, phi_sup = types.lo, types.hi
    err = np.abs(plo + agent.income.audit_region(thetas, phi_sup)[2] - thetas)
    k = int(np.argmax(err))
    worst["normalization"] = {"magnitude": float(err[k]), "theta": float(thetas[k])}
    normalization_ok = bool(err[k] <= _NORMALIZATION_TOL)

    # 2. FOSD: G(pi | theta) weakly decreasing in theta at every income level
    pis = np.linspace(float(np.min(plo)), float(np.max(phi_sup)), pi_grid_size)
    cdf_mat = np.asarray(agent.income.cdf(pis[None, :], th))
    increase = np.diff(cdf_mat, axis=0)
    k = np.unravel_index(int(np.argmax(increase)), increase.shape)
    worst["fosd"] = {"magnitude": float(max(increase[k], 0.0)),
                     "theta": float(thetas[k[0] + 1]), "pi": float(pis[k[1]])}
    fosd_ok = bool(increase[k] <= _SLACK)

    # 3. single crossing of the audit surplus in income: the scan that guards
    # every mechanism kernel (``mech._pi_star_vec``), at these types
    per_type = _single_crossing_scan(agent, types)
    # 4. single crossing in type, on the common income grid at the incomes
    # that occur: inside the support
    with np.errstate(invalid="ignore"):
        surplus = _audit_surplus(agent, th, pis[None, :], types.ih[:, None])
    inside = (pis[None, :] > plo[:, None] + 1e-12) & (pis[None, :] < phi_sup[:, None] - 1e-12)
    per_income = _worst_single_crossing(np.where(inside, surplus, np.nan), axis=0)
    for key, where, grid, per in (("single_crossing_pi", "theta", thetas, per_type),
                                  ("single_crossing_theta", "pi", pis, per_income)):
        k = int(np.argmax(per))
        worst[key] = {"magnitude": float(per[k]),
                      where: float(grid[k]) if per[k] > 0 else None}
    single_crossing_pi_ok = bool(worst["single_crossing_pi"]["magnitude"] <= _SLACK)
    single_crossing_theta_ok = bool(worst["single_crossing_theta"]["magnitude"] <= _SLACK)

    # 5. strictly increasing virtual value (undefined without single
    # crossing, where the kernels raise)
    try:
        diffs = np.diff(_mech_curves(agent, types)[1])
        k = int(np.argmin(diffs))
        worst["psi_increasing"] = {"min_increment": float(diffs[k]), "theta": float(thetas[k])}
        psi_increasing_ok = bool(diffs[k] > 0)
    except RegularityError as e:
        worst["psi_increasing"] = {"error": str(e)}
        psi_increasing_ok = False

    return RegularityReport(
        normalization_ok=normalization_ok,
        fosd_ok=fosd_ok,
        single_crossing_theta_ok=single_crossing_theta_ok,
        single_crossing_pi_ok=single_crossing_pi_ok,
        psi_increasing_ok=psi_increasing_ok,
        worst=worst,
        theta_grid=theta_grid_size,
        pi_grid=pi_grid_size,
    )


def check_condition1(pi_grid, penalties, phi: float, tol: float = 1e-9):
    """Verify double monotonicity of a penalty schedule on a sorted grid:
    0 <= p(pi') - p(pi) <= (pi' - pi) * phi for every grid pair.

    Returns ``(ok, worst_violation, (pi_low, pi_high))``; both arrays are
    read by ``_reals``.
    """
    pi_grid, penalties = _reals(pi_grid, "income"), _reals(penalties, "penalty")
    if np.any(np.diff(pi_grid) < 0):
        raise ConstructionError("income grid must be sorted")
    dp = penalties[None, :] - penalties[:, None]
    dpi = pi_grid[None, :] - pi_grid[:, None]
    upper = np.triu(np.ones_like(dp, dtype=bool), k=1)
    low_viol = np.where(upper, -dp, -np.inf)
    high_viol = np.where(upper, dp - dpi * phi, -np.inf)
    viol = np.maximum(low_viol, high_viol)
    k = np.unravel_index(int(np.argmax(viol)), viol.shape)
    worst = float(viol[k])
    return worst <= tol, max(worst, 0.0), (float(pi_grid[k[0]]), float(pi_grid[k[1]]))


# ---------------------------------------------------------------------------
# Best responses (incentive compatibility)
# ---------------------------------------------------------------------------


def _income_reports(r_lo, r_hi, caps, phi: float):
    """The report side of the double deviation, per type report (income
    support [``r_lo``, ``r_hi``], audit threshold ``caps``): A, the least
    phi*(min(r, cap) - r) over the audited reports r, whose payment at true
    income pi is phi*pi plus that, and U, the least royalty phi*min(r, cap)
    over the unaudited ones (inf where there are none), so the cheapest
    report pays min(phi*pi + A, U).  The audited reports are those below the
    cap, or all where the cap reaches the top (``mech._audit_mask``), and
    are charged 0 below the cap and least at the top above it; the others
    pay phi*cap.  So the support's two ends attain both minima exactly."""
    royalty, audited, pen = _settle(0.0, np.stack([r_lo, r_hi]), caps, r_hi, phi)
    return (np.min(np.where(audited, royalty + pen, np.inf), axis=0),
            np.min(np.where(audited, np.inf, royalty), axis=0))


def _expected_payments(agent: AgentSpec, theta_true, reports: np.ndarray,
                       caps: np.ndarray, income=None) -> np.ndarray:
    """E over pi ~ G(. | theta_true) of the winner's payment (royalty plus
    penalty), one row per (true type, type report) pair: ``theta_true``
    holds one true type per row of ``reports`` (or one for all), ``caps``
    the reports' audit thresholds.

    ``income=None`` reports income as the projection onto the reported
    support; ``income=(A, U)``, one pair per row from ``_income_reports``,
    takes the cheapest income report per realized income (the double
    deviation), which pays min(phi*pi + A, U).  Both payments are
    continuous and affine in pi between cuts: the true support's ends and,
    inside it, the reported support's ends, the audit threshold and the
    switch (U - A)/phi.  On a piece, int (alpha + beta pi) dG = dG times the
    payment at the piece's mean income dM / dG, with G and
    M(x) = int_{supp_lo}^x pi dG = x G(x) - (x - supp_lo) + S(x) from the
    family's ``audit_region`` at the cuts (S its third output), so the
    expectation is exact for every family.  The mean is clipped to its
    piece, which bounds its rounding error's effect by the piece's weight.
    A point-mass income law (the scaled-error top type) is evaluated at its
    atom.
    """
    phi = agent.sensitivity
    theta_true = np.broadcast_to(np.asarray(theta_true, dtype=float), reports.shape)
    t_lo, t_hi = _income_bounds(agent, theta_true)
    r_lo, r_hi = _income_bounds(agent, reports)
    cuts = [t_lo, t_hi, r_lo, r_hi, caps]
    if income is not None:
        a, u = income
        with np.errstate(divide="ignore", invalid="ignore"):
            cuts.append((u - a) / phi)

    def pay_at(pis, rows):
        if income is not None:
            return np.minimum(phi * pis + a[rows, None], u[rows, None])
        royalty, _, pen = _settle(pis, np.clip(pis, r_lo[rows, None], r_hi[rows, None]),
                                  caps[rows, None], r_hi[rows, None], phi)
        return royalty + pen

    out = np.empty(reports.size)
    point = t_hi <= t_lo
    rows = np.flatnonzero(point)
    out[rows] = pay_at(t_lo[rows, None], rows)[:, 0]
    rows = np.flatnonzero(~point)
    # cut candidates outside (t_lo, t_hi), a NaN or infinite switch among
    # them, fall back onto the cut t_lo
    cuts = np.column_stack(cuts)[rows]
    lo = t_lo[rows, None]
    inside = (cuts[:, 2:] > lo) & (cuts[:, 2:] < t_hi[rows, None])
    cuts[:, 2:] = np.where(inside, cuts[:, 2:], lo)
    cuts.sort(axis=1)
    g, _, survival = agent.income.audit_region(
        np.repeat(theta_true[rows], cuts.shape[1]), cuts.ravel())
    g, survival = (np.reshape(x, cuts.shape) for x in (g, survival))
    dg = np.diff(g, axis=1)
    dm = np.diff(cuts * g - (cuts - lo) + survival, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.clip(dm / dg, cuts[:, :-1], cuts[:, 1:])
    # a piece of no weight may take any of its incomes
    mean = np.where(dg > 0.0, mean, cuts[:, :-1])
    out[rows] = np.sum(dg * pay_at(mean, rows), axis=1)
    return out


def _allocate_at(inst: AuctionInstance, i: int, theta_minus: Sequence[float], reports) -> tuple:
    """Agent i's type ``reports`` as read, and ``_allocate`` on one profile
    per report, against its rivals' type reports ``theta_minus``."""
    theta_minus = list(theta_minus)
    types, psi = _profile_psi(inst, [theta_minus[:i] + [r] + theta_minus[i:] for r in reports])
    return (types[:, i].tolist(), *_allocate(psi))


def best_response_income(inst: AuctionInstance, i: int, theta_report: float,
                         theta_minus: Sequence[float], pi_true: float,
                         grid: int = 128) -> DeviationReport:
    """Grid search over income reports for a winning agent with realized
    income ``pi_true``: gross utility pi - royalty - audit * penalty.

    The truthful (projected) report must tie the grid maximum for the
    mechanism to be income-incentive-compatible.
    """
    _integer(grid, "grid", 2, says="income report grids need at least 2 points, the support's ends")
    agent = _agent(inst, i)
    pi_true = _real(pi_true, "pi_true")
    (theta_report,), winner, _ = _allocate_at(inst, i, theta_minus, [theta_report])
    if winner[0] != i:
        raise DomainError("agent does not win at this report profile")
    cap = float(tables_for(inst).pi_star(i, theta_report))
    lo, hi = (float(x) for x in _income_bounds(agent, theta_report))
    truthful_rep = float(project_to_support(agent.income, theta_report, pi_true))
    reports = _distinct(np.concatenate([np.linspace(lo, hi, grid),
                                     [truthful_rep, min(max(cap, lo), hi)]]))
    royalty, _, pen = _settle(pi_true, reports, cap, hi, agent.sensitivity)
    gross = pi_true - (royalty + pen)
    truthful_u = float(gross[reports == truthful_rep][0])
    k = int(np.argmax(gross))
    best = float(gross[k])
    return DeviationReport(
        truthful_utility=truthful_u,
        best_deviation_utility=best,
        best_deviation=(float(reports[k]), "income_report"),
        advantage=best - truthful_u,
        grid=(1, int(reports.size)),
    )


def _best_responses(inst: AuctionInstance, i: int, thetas_true, theta_grid: int,
                    strategies: tuple) -> list:
    _integer(theta_grid, "theta_grid", _MIN_RESPONSE_GRID,
             says=f"best-response grids need at least {_MIN_RESPONSE_GRID} points")
    if not set(strategies) <= {"truthful_projection", "grid_best"}:
        raise ConstructionError(f"unknown income strategy in {strategies!r}")
    agent = _agent(inst, i)
    thetas = agent.types._check_domain(thetas_true).ravel()
    tables = tables_for(inst)
    t = tables.agents[i]

    # each true type tries the grid's reports and its own type: one row per
    # true type over their union, whose table lookups are made once
    grid = np.linspace(t.theta[0], t.theta[-1], theta_grid)
    reports = _distinct(np.concatenate([grid, thetas]))
    at = tables.locate(i, reports)
    q, t_pay, caps = at.interp("win_prob"), at.interp("interim_transfer"), tables.pi_star(i, at)
    k = np.searchsorted(reports, thetas)   # each true type's own report
    on_path = np.arange(reports.size) == k[:, None]
    tried = on_path.copy()
    tried[:, np.searchsorted(reports, grid)] = True   # the grid's reports
    # losing reports (q <= 0) pay nothing and earn nothing; the on-path
    # payment is the projection's at the true report, computed once
    win = tried & (q > 0.0)
    # the double deviation's report side, once per type report
    phi = agent.sensitivity
    r_lo, r_hi = _income_bounds(agent, reports)
    a, u = _income_reports(r_lo, r_hi, caps, phi)
    rows = {s: win for s in strategies}
    rows["truthful_projection"] = rows.get("truthful_projection", False) | on_path
    utility = {}
    for s, mask in rows.items():
        j, r = np.nonzero(mask)
        pay = np.zeros(mask.shape)
        pay[j, r] = _expected_payments(agent, thetas[j], reports[r], caps[r],
                                       (a[r], u[r]) if s == "grid_best" else None)
        utility[s] = np.where(win, q * (thetas[:, None] - pay) - t_pay, 0.0)
        if s == "truthful_projection":
            truthful = (q[k] * (thetas - pay[on_path]) - t_pay[k]).tolist()
    info_rent = tables.locate(i, thetas).interp("interim_rent").tolist()
    # after the own report, the truthful income charge minus the cheapest,
    # min(phi*pi + A, U), is affine in pi between cuts, so it peaks at one
    lo, hi = r_lo[k, None], r_hi[k, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        cuts = np.column_stack([lo, hi, caps[k], (u[k] - a[k]) / phi])
    cuts = np.where(np.isfinite(cuts), np.clip(cuts, lo, hi), lo)
    royalty, _, pen = _settle(cuts, cuts, caps[k, None], hi, phi)
    gap = royalty + pen - np.minimum(phi * cuts + a[k, None], u[k, None])
    income_adv = np.where(q[k] > 0.0, np.max(gap, axis=1), 0.0).tolist()

    out = []
    for m, own in enumerate(tried):
        u0, rent = truthful[m], info_rent[m]
        out.append({})
        for s in strategies:
            u = utility[s][m, own]
            best = int(np.argmax(u))   # the first best report
            out[-1][s] = DeviationReport(
                truthful_utility=u0, best_deviation_utility=float(u[best]),
                best_deviation=(float(reports[own][best]), s),
                advantage=float(u[best] - u0), grid=(int(own.sum()),),
                ir_ok=bool(u0 >= -1e-9 and abs(u0 - rent) <= 1e-6), info_rent=rent,
                income_advantage=income_adv[m])
    return out


def best_responses(inst: AuctionInstance, i: int, thetas_true, theta_grid: int) -> list:
    """Grid search over type misreports at each true type in ``thetas_true``,
    rivals truthful and integrated out: one dict per true type, mapping each
    income strategy to its ``DeviationReport``.

    The ``theta_grid`` reports span the type table's grid, plus the true
    type.  A losing report earns zero; one ``_expected_payments`` pass per
    strategy prices the winning reports of all true types, and the best
    report is the first one that attains the maximum utility.
    ``'truthful_projection'`` reports income as truthfully as possible after
    the misreport; ``'grid_best'`` also takes the cheapest income report in
    the reported support at each realized income (double deviations; exact,
    see ``_income_reports``).  Also checks individual rationality: the
    truthful utility (the on-path projected report) must be nonnegative and
    match the information rent.  ``income_advantage``: the most the cheapest
    income report gains on the truthful one at any income, after the true
    type report (0 if it loses).
    """
    return _best_responses(inst, i, thetas_true, theta_grid,
                           ("truthful_projection", "grid_best"))


def best_response_type(inst: AuctionInstance, i: int, theta_true: float,
                       theta_grid: int = 128,
                       income_strategy: str = "grid_best",
                       pi_grid=None) -> DeviationReport:
    """``best_responses`` at one true type, for one income strategy.
    ``pi_grid`` is ignored: the income side is exact, with no grid."""
    return _best_responses(inst, i, [theta_true], theta_grid,
                           (income_strategy,))[0][income_strategy]


# ---------------------------------------------------------------------------
# Crossing payments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrossingReport:
    crossing: float
    lower_ok: bool    # below the crossing the lower report pays less
    upper_ok: bool    # above it the higher report pays less
    grid: int

    def to_dict(self) -> dict:
        return asdict(self)


def crossing_point(inst: AuctionInstance, i: int, theta_lo: float, theta_hi: float,
                   theta_minus: Sequence[float] = (), grid: int = 257) -> CrossingReport:
    """Locate where the total payment curves (transfer + royalty as a
    function of realized income) of two winning reports cross, and certify
    the ordering on both sides.

    Requires both audit thresholds to lie in the intersection of the two
    income supports; otherwise the pair is unsupported.
    """
    _integer(grid, "grid", _MIN_REGULARITY_GRID,
             says=f"crossing grids need at least {_MIN_REGULARITY_GRID} points")
    agent = _agent(inst, i)
    (theta_lo, theta_hi), winner, rival = _allocate_at(inst, i, theta_minus, [theta_lo, theta_hi])
    if theta_lo > theta_hi:
        raise UnsupportedPairError("reports must be ordered")
    for th, w in zip((theta_lo, theta_hi), winner):
        if w != i:
            raise UnsupportedPairError(f"type {th} does not win against the rivals")
    lo1, hi1 = (float(x) for x in _income_bounds(agent, theta_lo))
    lo2, hi2 = (float(x) for x in _income_bounds(agent, theta_hi))
    left, right = max(lo1, lo2), min(hi1, hi2)
    tol = 1e-9 * max(1.0, right)
    tables = tables_for(inst)
    at = tables.locate(i, np.array([theta_lo, theta_hi]))
    cap_lo, cap_hi = tables.pi_star(i, at)
    for capv in (cap_lo, cap_hi):
        if capv < left - tol or capv > right + tol:
            raise UnsupportedPairError(
                "audit thresholds must lie in both income supports")
    t1, t2 = tables.transfer_win(i, at, rival)

    def gap(p):  # lower report's payment minus the higher one's, at income p
        return ((t1 + _settle(p, p, cap_lo, hi1, agent.sensitivity)[0])
                - (t2 + _settle(p, p, cap_hi, hi2, agent.sensitivity)[0]))

    if theta_lo == theta_hi:
        pi0 = cap_lo
    else:
        a, b = cap_hi, cap_lo   # cap is weakly decreasing in the report
        if gap(a) > 1e-9 or gap(b) < -1e-9:
            raise RegularityError("payment curves do not bracket a crossing; "
                                  "incentive compatibility is violated")
        pi0 = float(_bisect(lambda p: gap(p) < 0, a, b, 64))

    pis = np.linspace(left, right, grid)
    d = gap(pis)
    lower_ok = bool(np.all(d[pis <= pi0] <= 1e-9))
    upper_ok = bool(np.all(d[pis >= pi0] >= -1e-9))
    return CrossingReport(float(pi0), lower_ok, upper_ok, grid)


# ---------------------------------------------------------------------------
# Noisy auditing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseModel:
    """Audit signal zeta = pi + bias + uniform(-halfwidth, halfwidth).

    An unbiased signal (bias 0) satisfies E[zeta | pi] = pi and is ordered
    by stochastic dominance in pi; a nonzero bias exists to exercise the
    calibration failure path.
    """

    halfwidth: float = 0.1
    bias: float = 0.0

    def __post_init__(self):
        # by the real rule, as Python floats; uniform(-h, h) needs 2h finite
        object.__setattr__(self, "halfwidth", _real(
            self.halfwidth, "noise halfwidth", 0, np.finfo(float).max / 2,
            says="noise halfwidth must be nonnegative and at most half the largest float"))
        object.__setattr__(self, "bias", _real(self.bias, "noise bias"))

    def sample(self, rng: np.random.Generator, pi):
        draw = rng.uniform(-self.halfwidth, self.halfwidth, size=np.shape(pi)) \
            if self.halfwidth > 0 else np.zeros(np.shape(pi))
        return np.asarray(pi) + self.bias + draw


def noisy_audit_equivalence(agent: AgentSpec, theta: float, noise: NoiseModel,
                            n_trials: int = 100_000, seed: int = 0,
                            pairs: Optional[Sequence] = None) -> dict:
    """Check that penalizing the noisy audit signal, (zeta - report) * phi,
    has the same expectation as the exact penalty (pi - report) * phi.

    A calibration run first estimates the signal bias and rejects the noise
    model if it is detectably biased.  Each (true income, report) pair gets
    an independent substream; the report lists Monte Carlo means, standard
    errors, and a double-monotonicity check of the estimated effective
    penalty in the true income.  ``theta`` and the incomes of ``pairs`` are
    read (``TypeDist._check_domain``, ``_reals``) before the calibration.
    """
    _integer(n_trials, "n_trials", 2, says="noisy audits need at least 2 trials")
    _integer(seed, "seed", says="noisy-audit seeds must be nonnegative")
    theta = float(agent.types._check_domain(theta))
    phi = agent.sensitivity
    lo, hi = (float(x) for x in _income_bounds(agent, theta))
    pts = (lo + (hi - lo) * np.linspace(0.15, 0.85, 3)).tolist()
    pairs = _reals([(p, r) for p in pts for r in pts] if pairs is None else pairs, "income")

    cal_rng = np.random.default_rng((seed, 0xCA1))
    mid = 0.5 * (lo + hi)
    cal = noise.sample(cal_rng, np.full(n_trials, mid)) - mid
    cal_se = max(float(cal.std(ddof=1)) / np.sqrt(n_trials), 1e-300)
    if abs(float(cal.mean())) > 5 * cal_se and abs(float(cal.mean())) > 1e-12:
        raise InvalidNoiseError(
            f"signal bias {cal.mean():.3g} detected ({cal_se:.3g} standard error)")

    rows = []
    for k, (pi_true, pi_rep) in enumerate(pairs.tolist()):
        rng = np.random.default_rng((seed, k + 1))
        zeta = noise.sample(rng, np.full(n_trials, pi_true))
        pen = (zeta - pi_rep) * phi
        exact = penalty(agent, theta, pi_rep, pi_true)
        se = float(pen.std(ddof=1)) / np.sqrt(n_trials)
        mean = float(pen.mean())
        rows.append({
            "pi_true": pi_true, "pi_report": pi_rep,
            "exact": exact, "mc_mean": mean, "mc_se": se,
            "ok": bool(abs(mean - exact) <= 3 * max(se, 1e-15)),
        })

    # effective penalty in the true income, at a fixed report
    rep = float(lo + 0.3 * (hi - lo))
    pis = np.linspace(lo, hi, 17)
    rng = np.random.default_rng((seed, 0xEFF))
    zmat = noise.sample(rng, np.broadcast_to(pis, (n_trials, pis.size)))
    pmat = (zmat - rep) * phi
    phat = pmat.mean(axis=0)
    se_hat = pmat.std(axis=0, ddof=1) / np.sqrt(n_trials)
    tol = 6 * float(np.max(se_hat)) + 1e-12
    cond_ok, cond_worst, _ = check_condition1(pis, phat, phi, tol=tol)

    return {
        "theta": theta,
        "n_trials": n_trials,
        "seed": seed,
        "pairs": rows,
        "all_ok": bool(all(r["ok"] for r in rows)),
        "condition1_ok": bool(cond_ok),
        "condition1_worst": float(cond_worst),
    }


# ---------------------------------------------------------------------------
# Comparative statics
# ---------------------------------------------------------------------------


def _monotone_violation(mat: np.ndarray, direction: int) -> float:
    """Worst violation of weak row-to-row monotonicity (+1 nondecreasing,
    -1 nonincreasing along axis 0)."""
    d = np.diff(mat, axis=0) * direction
    return float(max(-d.min(), 0.0)) if d.size else 0.0


def comparative_statics_scan(agent: AgentSpec, axis: str, values: Sequence,
                             theta_grid: int = 64) -> dict:
    """Verify the monotone comparative statics of psi and pi_star along an
    axis: audit cost ``c`` (both weakly decreasing), sensitivity ``phi``
    (both weakly increasing), or ``hazard_family`` (type distributions in
    increasing hazard-rate order: psi weakly decreasing, pi_star weakly
    increasing).
    """
    _integer(theta_grid, "theta_grid", _MIN_REGULARITY_GRID,
             says=f"scan grids need at least {_MIN_REGULARITY_GRID} points")
    if len(values) < 3:
        raise InvalidAxisError("scan needs at least three axis values")
    if axis == "c":
        vals = [_real(v, "each c value") for v in values]
        if sorted(vals) != vals:
            raise InvalidAxisError("audit-cost values must be sorted ascending")
        agents = [replace(agent, audit_cost=v) for v in vals]
        psi_dir, pistar_dir = -1, -1
    elif axis == "phi":
        vals = [_real(v, "each phi value") for v in values]
        if sorted(vals) != vals:
            raise InvalidAxisError("sensitivity values must be sorted ascending")
        agents = [replace(agent, sensitivity=v) for v in vals]
        psi_dir, pistar_dir = +1, +1
    elif axis == "hazard_family":
        dists = list(values)
        for d in dists:
            if not isinstance(d, TypeDist):
                raise InvalidAxisError("hazard_family values must be TypeDist objects")
            if abs(d.lo - dists[0].lo) > 1e-12 or abs(d.hi - dists[0].hi) > 1e-12:
                raise InvalidAxisError("hazard comparison needs a common support")
        probe = _interior_grid(dists[0], 256)
        hz = np.array([1.0 / inverse_hazard(d, probe) for d in dists])
        if np.any(np.diff(hz, axis=0) > 1e-9):
            raise InvalidAxisError("type distributions are not hazard-rate ordered")
        agents = [replace(agent, types=d) for d in dists]
        vals = list(range(len(dists)))
        psi_dir, pistar_dir = -1, +1
    else:
        raise InvalidAxisError(f"unknown axis {axis!r}")

    thetas = _interior_grid(agent.types, theta_grid)
    curves = [_mech_curves(a, thetas) for a in agents]
    psi_mat = np.array([c[1] for c in curves])
    pistar_mat = np.array([c[2] for c in curves])
    psi_viol = _monotone_violation(psi_mat, psi_dir)
    pistar_viol = _monotone_violation(pistar_mat, pistar_dir)
    return {
        "axis": axis,
        "values": [float(v) for v in vals],
        "theta_grid": int(theta_grid),
        "psi_monotone_ok": bool(psi_viol <= _SLACK),
        "pi_star_monotone_ok": bool(pistar_viol <= _SLACK),
        "psi_worst_violation": psi_viol,
        "pi_star_worst_violation": pistar_viol,
        "psi": psi_mat.tolist(),
        "pi_star": pistar_mat.tolist(),
        "theta": thetas.tolist(),
    }
