"""Independent numerical verification of the mechanism.

Nothing here trusts the closed-form reasoning behind the mechanism: incentive
compatibility is certified by brute grid search over deviations (including
double deviations via an inner income-report optimization), regularity by
grid evidence, payment crossing by bisection plus an ordering certificate,
and the noisy-audit reduction by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .dist import AgentSpec, TypeDist, _bisect, _gl_segments, inverse_hazard, project_to_support
from .errors import (
    DomainError,
    InvalidAxisError,
    InvalidNoiseError,
    RegularityError,
    UnsupportedPairError,
)
from .mech import (
    AuctionInstance,
    _GL32,
    _audit_mask,
    _audit_region,
    _income_bounds,
    _mech_curves,
    _wins,
    audit_threshold,
    tables_for,
    transfer,
    virtual_value,
)

_SLACK = 1e-9  # numeric slack for weak inequalities on grids
# smallest grids that regularity checks and best-response searches accept
_MIN_REGULARITY_GRID = 32
_MIN_RESPONSE_GRID = 64
# float64 elements per (reports x incomes x income grid) temporary of the
# double-deviation payment minimum
_PAY_BLOCK = 1 << 16


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
    worst: dict = field(repr=False)
    theta_grid: int = 0
    pi_grid: int = 0

    @property
    def all_ok(self) -> bool:
        return (self.normalization_ok and self.fosd_ok
                and self.single_crossing_theta_ok and self.single_crossing_pi_ok
                and self.psi_increasing_ok)

    def to_dict(self) -> dict:
        return {
            "normalization_ok": self.normalization_ok,
            "fosd_ok": self.fosd_ok,
            "single_crossing_theta_ok": self.single_crossing_theta_ok,
            "single_crossing_pi_ok": self.single_crossing_pi_ok,
            "psi_increasing_ok": self.psi_increasing_ok,
            "all_ok": self.all_ok,
            "worst": self.worst,
            "theta_grid": self.theta_grid,
            "pi_grid": self.pi_grid,
        }


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

    def __post_init__(self):
        gap = self.best_deviation_utility - self.truthful_utility
        if abs(gap - self.advantage) > 1e-12:
            raise ValueError("advantage must equal best - truthful")

    def to_dict(self) -> dict:
        return {
            "truthful_utility": self.truthful_utility,
            "best_deviation_utility": self.best_deviation_utility,
            "best_deviation": list(self.best_deviation),
            "advantage": self.advantage,
            "grid": list(self.grid),
            "ir_ok": self.ir_ok,
            "info_rent": self.info_rent,
        }


# ---------------------------------------------------------------------------
# Regularity
# ---------------------------------------------------------------------------


def _worst_single_crossing(values: np.ndarray, axis: int) -> np.ndarray:
    """Per sequence along ``axis``: the largest strictly positive value
    occurring after a nonpositive one (zero when the sequence is
    single-crossing from above).  NaN entries are skipped."""
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    seen_nonpos = np.maximum.accumulate(values <= 0, axis=-1)[..., :-1]
    later = values[..., 1:]
    return np.max(np.where(seen_nonpos & (later > 0), later, 0.0), axis=-1, initial=0.0)


def check_regularity(agent: AgentSpec, theta_grid_size: int = 64,
                     pi_grid_size: int = 64) -> RegularityReport:
    """Grid verification of the distributional and regularity conditions:
    mean normalization E[pi | theta] = theta, stochastic dominance in the
    type, single crossing of the audit surplus mu*phi - c in both arguments,
    and a strictly increasing virtual value.

    Failures are report content, not exceptions.
    """
    if min(theta_grid_size, pi_grid_size) < _MIN_REGULARITY_GRID:
        raise ValueError(f"regularity grids need at least {_MIN_REGULARITY_GRID} points")
    lo, hi = agent.types.lo, agent.types.hi
    thetas = np.linspace(lo, hi, theta_grid_size + 2)[1:-1]
    worst: dict = {}

    # 1. normalization: supp_lo + int (1 - G) = theta, over the whole support
    plo, phi_sup, nodes, wts = _audit_region(agent, thetas, np.full(thetas.size, np.inf))
    means = plo + np.sum((1.0 - np.asarray(agent.income.cdf(nodes, thetas[:, None]))) * wts,
                         axis=1)
    err = np.abs(means - thetas)
    k = int(np.argmax(err))
    worst["normalization"] = {"magnitude": float(err[k]), "theta": float(thetas[k])}
    normalization_ok = bool(err[k] <= 1e-7)

    # 2. FOSD: G(pi | theta) weakly decreasing in theta at every income level
    pis = np.linspace(float(np.min(plo)), float(np.max(phi_sup)), pi_grid_size)
    cdf_mat = np.asarray(agent.income.cdf(pis[None, :], thetas[:, None]))
    increase = np.diff(cdf_mat, axis=0)
    k = np.unravel_index(int(np.argmax(increase)), increase.shape)
    worst["fosd"] = {"magnitude": float(max(increase[k], 0.0)),
                     "theta": float(thetas[k[0] + 1]), "pi": float(pis[k[1]])}
    fosd_ok = bool(increase[k] <= _SLACK)

    # 3/4. single crossing of the audit surplus, along income and along type
    ih = np.asarray(inverse_hazard(agent.types, thetas), dtype=float)
    with np.errstate(invalid="ignore"):
        ratio = -np.asarray(agent.income.g2_over_g(pis[None, :], thetas[:, None]), dtype=float)
        surplus = ratio * (ih * agent.sensitivity)[:, None] - agent.audit_cost
    # incomes that occur: inside the support, at positive density (a tabulated
    # family's support at a type knot also spans the next row's support)
    inside = ((pis[None, :] > plo[:, None] + 1e-12) & (pis[None, :] < phi_sup[:, None] - 1e-12)
              & (np.asarray(agent.income.pdf(pis[None, :], thetas[:, None])) > 0))

    occurring = np.where(inside, surplus, np.nan)
    for key, axis, where, grid in (("single_crossing_pi", 1, "theta", thetas),
                                   ("single_crossing_theta", 0, "pi", pis)):
        per = _worst_single_crossing(occurring, axis)
        k = int(np.argmax(per))
        worst[key] = {"magnitude": float(per[k]),
                      where: float(grid[k]) if per[k] > 0 else None}
    single_crossing_pi_ok = bool(worst["single_crossing_pi"]["magnitude"] <= _SLACK)
    single_crossing_theta_ok = bool(worst["single_crossing_theta"]["magnitude"] <= _SLACK)

    # 5. strictly increasing virtual value (undefined without single crossing)
    try:
        diffs = np.diff(_mech_curves(agent, thetas)[1])
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

    Returns ``(ok, worst_violation, (pi_low, pi_high))``.
    """
    pi_grid = np.asarray(pi_grid, dtype=float)
    penalties = np.asarray(penalties, dtype=float)
    if np.any(np.diff(pi_grid) < 0):
        raise ValueError("income grid must be sorted")
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


def _pay_at(pis, r_lo, r_hi, caps, phi: float, pi_grid: int, best_response: bool):
    """The winner's payment (royalty plus penalty) at true incomes ``pis``
    (one row per type report, whose reported income support is
    [``r_lo``, ``r_hi``] and audit threshold ``caps``).

    ``best_response=True`` minimizes over a ``pi_grid``-point grid of income
    reports per true income, in blocks of rows whose (rows x incomes x grid)
    temporary holds at most ``_PAY_BLOCK`` elements (or one row, if a row
    alone holds more); otherwise the report is the truthful projection."""
    r_lo, r_hi, caps = r_lo[:, None], r_hi[:, None], caps[:, None]
    if not best_response:
        rep = np.clip(pis, r_lo, r_hi)
        return (np.minimum(rep, caps) * phi
                + _audit_mask(rep, caps, r_hi) * (pis - rep) * phi)
    # np.linspace computes every row differently once one has zero width,
    # so zero-width rows (a point support) are filled in apart
    grid = np.repeat(r_lo, pi_grid, axis=1)
    wide = (r_hi > r_lo)[:, 0]
    grid[wide] = np.linspace(r_lo[wide, 0], r_hi[wide, 0], pi_grid, axis=-1)
    audited = _audit_mask(grid, caps, r_hi)
    base = np.minimum(grid, caps) * phi
    # an unaudited report pays its royalty at every income: take that
    # minimum once, and the per-income minimum only over the audited
    # reports, moved to the front of each row
    unaudited = np.min(np.where(audited, np.inf, base), axis=1, keepdims=True)
    order = np.argsort(~audited, axis=1, kind="stable")
    grid, audited, base = (np.take_along_axis(x, order, axis=1) for x in (grid, audited, base))
    n_audited = np.sum(audited, axis=1)
    out = np.empty(pis.shape)
    rows = max(1, _PAY_BLOCK // (pis.shape[1] * pi_grid))
    for k in range(0, pis.shape[0], rows):
        b = slice(k, k + rows)
        a = slice(0, max(1, int(n_audited[b].max())))
        pay = pis[b, :, None] - grid[b, None, a]
        pay *= audited[b, None, a]
        pay *= phi
        pay += base[b, None, a]
        np.min(pay, axis=2, out=out[b])
    return np.minimum(out, unaudited)


def _expected_payments(agent: AgentSpec, theta_true: float, reports: np.ndarray,
                       caps: np.ndarray, pi_grid: int, best_response: bool) -> np.ndarray:
    """E over pi ~ G(. | theta_true) of the winner's payment (royalty plus
    penalty) for each type report in ``reports`` (audit thresholds ``caps``),
    reporting income through that report's support.

    ``best_response=True`` optimizes the income report over a grid per
    realized income (this is the double-deviation branch); otherwise the
    report is the truthful projection.  Each expectation is a sum of 32-point
    Gauss-Legendre rules between the points where the payment or the true
    income law changes form.  Reports with the same number of such cuts are
    evaluated together, so that each row's sum adds the same terms in the
    same order as a report evaluated alone.  A point-mass income law (the
    scaled-error top type) is evaluated at its atom.
    """
    phi = agent.sensitivity
    t_lo, t_hi = (float(x) for x in _income_bounds(agent, theta_true))
    r_lo, r_hi = _income_bounds(agent, reports)
    if t_hi <= t_lo:
        pis = np.full((reports.size, 1), t_lo)
        return _pay_at(pis, r_lo, r_hi, caps, phi, pi_grid, best_response)[:, 0]
    # cut candidates outside (t_lo, t_hi) fall back onto the cut t_lo
    knots = agent.income.breakpoints(np.array([theta_true]))[0]
    cand = np.column_stack([r_lo, r_hi, caps,
                            np.broadcast_to(knots, (reports.size, knots.size))])
    cand = np.where((cand > t_lo) & (cand < t_hi), cand, t_lo)
    cuts = np.sort(np.column_stack([np.full(reports.size, t_lo), np.full(reports.size, t_hi),
                                    cand]), axis=1)
    fresh = np.ones(cuts.shape, dtype=bool)
    fresh[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
    n_cuts = fresh.sum(axis=1)
    out = np.empty(reports.size)
    for m in np.unique(n_cuts):
        rows = np.flatnonzero(n_cuts == m)
        c = cuts[rows][fresh[rows]].reshape(rows.size, m)
        nodes, wts = _gl_segments(c[:, :-1], c[:, 1:], rule=_GL32)
        pis = nodes.reshape(rows.size, -1)
        dens = np.asarray(agent.income.pdf(pis, theta_true), dtype=float)
        pay = _pay_at(pis, r_lo[rows], r_hi[rows], caps[rows], phi, pi_grid, best_response)
        out[rows] = np.sum(pay * dens * wts.reshape(rows.size, -1), axis=1)
    return out


def best_response_income(inst: AuctionInstance, i: int, theta_report: float,
                         theta_minus: Sequence[float], pi_true: float,
                         grid: int = 128) -> DeviationReport:
    """Grid search over income reports for a winning agent with realized
    income ``pi_true``: gross utility pi - royalty - audit * penalty.

    The truthful (projected) report must tie the grid maximum for the
    mechanism to be income-incentive-compatible.
    """
    agent = inst.agents[i]
    profile = [*theta_minus[:i], theta_report, *theta_minus[i:]]
    if not _wins([virtual_value(a, float(t)) for a, t in zip(inst.agents, profile)], i)[0]:
        raise DomainError("agent does not win at this report profile")
    lo, hi = (float(x) for x in _income_bounds(agent, theta_report))
    cap = audit_threshold(agent, theta_report)
    phi = agent.sensitivity
    truthful_rep = float(project_to_support(agent.income, theta_report, pi_true))
    reports = np.unique(np.concatenate([np.linspace(lo, hi, grid),
                                        [truthful_rep, min(max(cap, lo), hi)]]))
    audited = _audit_mask(reports, cap, hi)
    gross = pi_true - (np.minimum(reports, cap) * phi
                       + audited * (pi_true - reports) * phi)
    truthful_u = float(pi_true - (min(truthful_rep, cap) * phi
                                  + bool(_audit_mask(truthful_rep, cap, hi))
                                  * (pi_true - truthful_rep) * phi))
    k = int(np.argmax(gross))
    best = float(gross[k])
    return DeviationReport(
        truthful_utility=truthful_u,
        best_deviation_utility=best,
        best_deviation=(float(reports[k]), "income_report"),
        advantage=best - truthful_u,
        grid=(1, int(reports.size)),
    )


def best_response_type(inst: AuctionInstance, i: int, theta_true: float,
                       theta_grid: int = 128,
                       income_strategy: str = "grid_best",
                       pi_grid: int = 128) -> DeviationReport:
    """Grid search over type misreports, with rivals truthful and integrated
    out.

    The ``theta_grid`` reports span the type table's grid, plus the true
    type.  A losing report earns zero; the expected payments of all winning
    reports come from one batched ``_expected_payments`` pass, and the best
    report is the first one that attains the maximum utility.
    ``income_strategy='truthful_projection'`` reports income as truthfully
    as possible after the misreport; ``'grid_best'`` additionally optimizes
    the income report per realized income over a ``pi_grid``-point grid,
    covering double deviations.  Also checks individual rationality: the
    truthful utility (the on-path projected report at the true type) must be
    nonnegative and must match the information-rent integral.
    """
    if min(theta_grid, pi_grid) < _MIN_RESPONSE_GRID:
        raise ValueError(f"best-response grids need at least {_MIN_RESPONSE_GRID} points")
    if income_strategy not in ("truthful_projection", "grid_best"):
        raise ValueError(f"unknown income strategy {income_strategy!r}")
    agent = inst.agents[i]
    agent.types._check_domain(theta_true)
    tables = tables_for(inst)
    t = tables.agents[i]

    reports = np.unique(np.concatenate([
        np.linspace(t.theta[0], t.theta[-1], theta_grid), [theta_true]]))
    at = tables.locate(i, reports)
    q = at.interp(t.win_prob)
    t_pay = at.interp(t.interim_transfer)
    caps = tables.pi_star(i, at)
    # losing reports (q <= 0) pay nothing and earn nothing
    u = np.zeros(reports.size)
    win = q > 0.0
    pay = _expected_payments(agent, theta_true, reports[win], caps[win], pi_grid,
                             best_response=(income_strategy == "grid_best"))
    u[win] = q[win] * (theta_true - pay) - t_pay[win]
    best = int(np.argmax(u))   # the first best report
    # on-path: the projected report is the truthful report
    k = np.flatnonzero(reports == theta_true)
    pay = _expected_payments(agent, theta_true, reports[k], caps[k], pi_grid,
                             best_response=False)
    truthful_u = float((q[k] * (theta_true - pay) - t_pay[k])[0])

    info_rent = float(tables.locate(i, theta_true).interp(t.interim_rent))
    ir_ok = truthful_u >= -1e-9 and abs(truthful_u - info_rent) <= 1e-6
    return DeviationReport(
        truthful_utility=truthful_u,
        best_deviation_utility=float(u[best]),
        best_deviation=(float(reports[best]), income_strategy),
        advantage=float(u[best] - truthful_u),
        grid=(int(reports.size), pi_grid),
        ir_ok=bool(ir_ok),
        info_rent=info_rent,
    )


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
        return {"crossing": self.crossing, "lower_ok": self.lower_ok,
                "upper_ok": self.upper_ok, "grid": self.grid}


def crossing_point(inst: AuctionInstance, i: int, theta_lo: float, theta_hi: float,
                   theta_minus: Sequence[float] = (), grid: int = 257) -> CrossingReport:
    """Locate where the total payment curves (transfer + royalty as a
    function of realized income) of two winning reports cross, and certify
    the ordering on both sides.

    Requires both audit thresholds to lie in the intersection of the two
    income supports; otherwise the pair is unsupported.
    """
    if theta_lo > theta_hi:
        raise UnsupportedPairError("reports must be ordered")
    agent = inst.agents[i]
    profile_of = lambda th: [th if j == i else theta_minus[j if j < i else j - 1]
                             for j in range(inst.n_agents)]
    for th in (theta_lo, theta_hi):
        if not _wins([virtual_value(a, float(x)) for a, x in zip(inst.agents, profile_of(th))],
                     i)[0]:
            raise UnsupportedPairError(f"type {th} does not win against the rivals")
    cap_lo = audit_threshold(agent, theta_lo)   # cap of the lower report
    cap_hi = audit_threshold(agent, theta_hi)
    lo1, hi1 = (float(x) for x in _income_bounds(agent, theta_lo))
    lo2, hi2 = (float(x) for x in _income_bounds(agent, theta_hi))
    left, right = max(lo1, lo2), min(hi1, hi2)
    tol = 1e-9 * max(1.0, right)
    for capv in (cap_lo, cap_hi):
        if capv < left - tol or capv > right + tol:
            raise UnsupportedPairError(
                "audit thresholds must lie in both income supports")
    phi = agent.sensitivity
    t1 = transfer(inst, i, profile_of(theta_lo))
    t2 = transfer(inst, i, profile_of(theta_hi))

    def s1(p):
        return t1 + min(p, cap_lo) * phi

    def s2(p):
        return t2 + min(p, cap_hi) * phi

    if theta_lo == theta_hi:
        pi0 = cap_lo
    else:
        a, b = cap_hi, cap_lo   # cap is weakly decreasing in the report
        da, db = s1(a) - s2(a), s1(b) - s2(b)
        if da > 1e-9 or db < -1e-9:
            raise RegularityError("payment curves do not bracket a crossing; "
                                  "incentive compatibility is violated")
        pi0 = float(_bisect(lambda p: s1(p) - s2(p) < 0, a, b, 64))

    pis = np.linspace(left, right, grid)
    d = np.array([s1(p) - s2(p) for p in pis])
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

    def sample(self, rng: np.random.Generator, pi, size=None):
        if size is None:
            size = np.shape(pi)
        draw = rng.uniform(-self.halfwidth, self.halfwidth, size=size) \
            if self.halfwidth > 0 else np.zeros(size)
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
    penalty in the true income.
    """
    phi = agent.sensitivity
    lo, hi = (float(x) for x in _income_bounds(agent, theta))

    cal_rng = np.random.default_rng((seed, 0xCA1))
    mid = 0.5 * (lo + hi)
    cal = noise.sample(cal_rng, np.full(n_trials, mid)) - mid
    cal_se = max(float(cal.std(ddof=1)) / np.sqrt(n_trials), 1e-300)
    if abs(float(cal.mean())) > 5 * cal_se and abs(float(cal.mean())) > 1e-12:
        raise InvalidNoiseError(
            f"signal bias {cal.mean():.3g} detected ({cal_se:.3g} standard error)")

    if pairs is None:
        qs = np.linspace(0.15, 0.85, 3)
        pts = lo + (hi - lo) * qs
        pairs = [(float(p), float(r)) for p in pts for r in pts]

    rows = []
    for k, (pi_true, pi_rep) in enumerate(pairs):
        rng = np.random.default_rng((seed, k + 1))
        zeta = noise.sample(rng, np.full(n_trials, pi_true))
        pen = (zeta - pi_rep) * phi
        exact = (pi_true - pi_rep) * phi
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
    if len(values) < 3:
        raise InvalidAxisError("scan needs at least three axis values")
    if axis == "c":
        vals = [float(v) for v in values]
        if sorted(vals) != vals:
            raise InvalidAxisError("audit-cost values must be sorted ascending")
        agents = [replace(agent, audit_cost=v) for v in vals]
        psi_dir, pistar_dir = -1, -1
    elif axis == "phi":
        vals = [float(v) for v in values]
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
        probe = np.linspace(dists[0].lo, dists[0].hi, 258)[1:-1]
        hz = np.array([np.asarray(d.hazard(probe), dtype=float) for d in dists])
        if np.any(np.diff(hz, axis=0) > 1e-9):
            raise InvalidAxisError("type distributions are not hazard-rate ordered")
        agents = [replace(agent, types=d) for d in dists]
        vals = list(range(len(dists)))
        psi_dir, pistar_dir = -1, +1
    else:
        raise InvalidAxisError(f"unknown axis {axis!r}")

    lo, hi = agent.types.lo, agent.types.hi
    thetas = np.linspace(lo, hi, theta_grid + 2)[1:-1]
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
