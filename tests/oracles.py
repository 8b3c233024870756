"""Adaptive-quadrature reference implementations of the mechanism quantities.

These are the scalar definitions evaluated point by point, independently of
the vectorized kernels in ``royaltycap.mech``: the audit threshold by a
65-point single-crossing scan and bisection, every income integral by scipy's
adaptive ``quad`` against the distribution objects, and the transfer's rent
integral by ``quad`` over types with the winning threshold found by
``brentq``.  The revenue functionals (``payoff_bound`` and the cash and
full-extraction benchmarks) integrate the survival function of the highest
value by ``quad``, and ``endogenous_virtual`` its income integral.  They are
slow (up to a second per call on a tabulated family), so tests call them on
a few points.

The type best response is the scalar loop of the certificate: one expected
payment per type report, each integrated on its own cuts, the double
deviation's by the cheapest of 128 income reports at each income.
``audit_region`` is a family's three audit-region numbers (``G(b)``, and
the integrals of ``-G_theta`` and ``1 - G``) by ``quad`` at one type, with
G_theta from ``dcdf_dtheta``, the product ``g2_over_g * pdf``.

``income_reports`` is the double deviation's report side by brute minimum
over a grid of income reports.

``wins`` and ``settle`` are the allocation and settlement rules in scalars,
as the scalar API, the simulator and the certificate each wrote them out
before they shared ``mech._allocate`` and ``mech._settle``.

``bisect`` is the package's bisection as a fixed number of steps, without
the early stop at a fixpoint that ``dist._bisect`` takes.

``worst_single_crossing`` is the single-crossing rule of
``mech._worst_single_crossing`` as a loop over each sequence.

``philox_uniforms`` is the simulator's per-run uniform stream written out
from the raw Philox output: 53-bit doubles from the counter blocks of the
runs, one row per run.  ``sim_report`` is ``estimate_revenue``'s report
from all runs' outputs at once, its means summed exactly by ``math.fsum``
and its variances computed in ``Fraction``s by ``statistics.variance``.

``PchipTableCdf`` is a tabulated law built on scipy's ``PchipInterpolator``,
the reference that ``dist._TableCdf`` reproduces bit for bit.
``TableFamilyRows`` evaluates a tabulated income family point by point by
other means: scipy's ``PchipInterpolator`` through each row's swapped table,
``brentq`` on the mixed quantile and ``quad`` for the region integrals.
``income_knots`` are the incomes between which a family's law is smooth,
where the quadratures split.  ``cell`` is the binary-search cell rule that
``dist._cells`` reproduces, and ``guide_table`` the guide table of
``dist._guide_table`` by binary search of each bucket's first grid point.
"""

import math
import statistics

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq

import royaltycap as rc
from royaltycap import sim
from royaltycap.dist import _buckets, _gl_segments
from royaltycap.mech import _audit_mask, _income_bounds, _settle, _threshold_kinks

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
# relative nudge for one-sided limits at support endpoints
NU = 1e-9
# the 32-point Gauss-Legendre rule of the scalar certificate loop
_GL32 = np.polynomial.legendre.leggauss(32)


def _bounds(agent, theta):
    return float(agent.income.supp_lo(theta)), float(agent.income.supp_hi(theta))


def _surplus(agent, theta, pi):
    """mu * phi - c at one type and one income."""
    ratio = -float(agent.income.g2_over_g(pi, theta))
    return ratio * (rc.inverse_hazard(agent.types, theta) * agent.sensitivity) \
        - agent.audit_cost


def audit_threshold(agent, theta):
    theta = float(theta)
    lo, hi = _bounds(agent, theta)
    phi, c = agent.sensitivity, agent.audit_cost
    if phi * rc.inverse_hazard(agent.types, theta) == 0.0:
        return hi if c == 0.0 else 0.0
    width = hi - lo
    s = np.array([_surplus(agent, theta, p)
                  for p in np.linspace(lo + NU * width, hi - NU * width, 65)])
    if np.any(s < 0) and np.any(s[int(np.argmax(s < 0)):] > 0):
        raise rc.RegularityError(f"mu*phi - c is not single-crossing at theta={theta}")
    if s[0] < 0:
        return 0.0
    if s[-1] >= 0:
        return hi
    a, b = lo, hi
    for _ in range(60):
        m = 0.5 * (a + b)
        if _surplus(agent, theta, m) >= 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def income_knots(fam, theta):
    """The incomes between which the law G(. | theta) of an additive,
    scaled or tabulated family is smooth: the error law's knots moved to
    the type, or the tabulated law's quantile at both rows' u-knots."""
    if isinstance(fam, rc.TableIncomeFamily):
        return TableFamilyRows(fam.params["theta_grid"], fam.params["rows"]).knots(theta)
    scale = 1.0 if fam.family == "additive_error" else 1.0 - theta
    return theta + scale * fam._err.knots


def dcdf_dtheta(fam, pi, theta):
    """The partial derivative of G in theta, ``g2_over_g * pdf``, taken as
    0 where the density is 0 (outside the support, and at the scaled
    family's top type, where the ratio is not finite)."""
    g = np.asarray(fam.pdf(pi, theta), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(g == 0.0, 0.0, np.asarray(fam.g2_over_g(pi, theta)) * g)[()]


def audit_region(fam, theta, b):
    """``IncomeFamily.audit_region`` at one type by adaptive ``quad``:
    G(b | theta), and int -dG/dtheta and int (1 - G) over [supp_lo, b'],
    b' = clip(b, supp_lo, supp_hi), split at ``income_knots``, where the
    additive and scaled families' integrands are polynomials that the
    21-point Kronrod rule integrates exactly up to rounding.  A tabulated
    family's are ``TableFamilyRows.audit_region``'s."""
    if isinstance(fam, rc.TableIncomeFamily):
        return TableFamilyRows(fam.params["theta_grid"], fam.params["rows"]).audit_region(
            theta, b)
    theta, b = float(theta), float(b)
    lo, hi = float(fam.supp_lo(theta)), float(fam.supp_hi(theta))
    top = min(max(b, lo), hi)
    g = float(fam.cdf(b, theta))
    if top <= lo:
        return g, 0.0, 0.0
    pts = [p for p in income_knots(fam, theta) if lo < p < top] or None
    opts = dict(points=pts, epsabs=1e-13, epsrel=1e-12, limit=200)
    recovery = quad(lambda x: -float(dcdf_dtheta(fam, x, theta)), lo, top, **opts)[0]
    survival = quad(lambda x: 1.0 - float(fam.cdf(x, theta)), lo, top, **opts)[0]
    return g, recovery, survival


def _audit_top(agent, theta):
    """Upper end of the audit region, min(pi_star, supp_hi)."""
    return min(audit_threshold(agent, theta), _bounds(agent, theta)[1])


def virtual_value(agent, theta):
    """Myerson virtual value plus int (mu phi - c) g over the audit region."""
    theta = float(theta)
    lo = _bounds(agent, theta)[0]
    b = _audit_top(agent, theta)
    gain = 0.0
    if agent.sensitivity > 0 and b > lo:
        gain = quad(lambda x: _surplus(agent, theta, x) * float(agent.income.pdf(x, theta)),
                    lo, b, **QUAD_OPTS)[0]
    return rc.myerson_virtual(agent, theta) + gain


def phi_cap(agent, theta):
    theta = float(theta)
    phi = agent.sensitivity
    lo = _bounds(agent, theta)[0]
    b = _audit_top(agent, theta)
    if phi == 0.0 or b <= lo:
        return 0.0
    val = quad(lambda x: -float(dcdf_dtheta(agent.income, x, theta)), lo, b, **QUAD_OPTS)[0]
    return min(max(val * phi, 0.0), phi)


def expected_income_net_royalty(agent, theta):
    """theta - phi * E[min(pi, pi_star)]."""
    theta = float(theta)
    phi = agent.sensitivity
    lo, hi = _bounds(agent, theta)
    a = _audit_top(agent, theta)
    if phi == 0.0:
        return theta
    if a >= hi:
        return theta * (1.0 - phi)
    if a <= lo:
        return theta - phi * a
    head = quad(lambda x: x * float(agent.income.pdf(x, theta)), lo, a, **QUAD_OPTS)[0]
    return theta - phi * (head + a * (1.0 - float(agent.income.cdf(a, theta))))


def _win_threshold(agent, rival):
    """Lowest type whose virtual value beats ``rival`` >= 0."""
    lo, hi = agent.types.lo, agent.types.hi
    floor = lo if np.isfinite(rc.inverse_hazard(agent.types, lo)) else lo + NU * (hi - lo)
    if virtual_value(agent, floor) > rival:
        return lo
    if virtual_value(agent, hi) <= rival:
        return hi
    return brentq(lambda t: virtual_value(agent, t) - rival, floor, hi, xtol=1e-13)


def transfer(inst, i, theta_profile):
    """E[pi - royalty] minus the rent integral of 1 - Phi from the lowest
    winning type to the report."""
    agent = inst.agents[i]
    theta_i = float(theta_profile[i])
    psis = [virtual_value(a, t) for a, t in zip(inst.agents, theta_profile)]
    rival = max([0.0] + [p for j, p in enumerate(psis) if j != i])
    if not psis[i] > rival:
        return 0.0
    zstar = _win_threshold(agent, rival)
    pts = [k for k in _threshold_kinks(agent) if zstar < k < theta_i] or None
    rent = quad(lambda z: 1.0 - phi_cap(agent, z), zstar, theta_i, points=pts,
                **QUAD_OPTS)[0]
    return expected_income_net_royalty(agent, theta_i) - rent


def endogenous_virtual(inst, i, theta_profile, audit_rule_fn):
    """Myerson virtual value plus quad of a(theta, pi) (mu phi - c) g over
    the income support, split at pi_star only."""
    agent = inst.agents[i]
    theta_i = float(theta_profile[i])
    lo, hi = _bounds(agent, theta_i)

    def f(x):
        return (audit_rule_fn(theta_profile, x) * _surplus(agent, theta_i, x)
                * float(agent.income.pdf(x, theta_i)))

    pts = [p for p in [audit_threshold(agent, theta_i)] if lo < p < hi] or None
    return rc.myerson_virtual(agent, theta_i) + quad(f, lo, hi, points=pts, **QUAD_OPTS)[0]


def expected_max_plus(inst, grids):
    """quad of the survival function 1 - prod_i F_i(V_i^{-1}(s)) over
    [0, vmax], split at the ends of each value grid."""
    vmax = max(float(v[-1]) for _, v in grids)
    if vmax <= 0:
        return 0.0

    def survive(s):
        p = 1.0
        for agent, (ts, vals) in zip(inst.agents, grids):
            p *= float(agent.types.cdf(np.interp(s, vals, ts)))
        return 1.0 - p

    pts = sorted({float(x) for _, v in grids for x in (v[0], v[-1])
                  if 0.0 < x < vmax}) or None
    return quad(survive, 0.0, vmax, points=pts, **QUAD_OPTS)[0]


def payoff_bound(inst):
    return expected_max_plus(inst, [(t.theta, t.psi) for t in rc.tables_for(inst).agents])


def myerson_cash_revenue(inst):
    """One bidder: quad of psi_m f above the reserve type; several bidders:
    ``expected_max_plus`` over 4097-point Myerson virtual value grids."""
    floors = [lo if np.isfinite(rc.inverse_hazard(a.types, lo)) else lo + NU * (hi - lo)
              for a in inst.agents for lo, hi in [(a.types.lo, a.types.hi)]]
    if inst.n_agents == 1:
        agent = inst.agents[0]
        hi = agent.types.hi
        if rc.myerson_virtual(agent, hi) <= 0:
            return 0.0
        if rc.myerson_virtual(agent, floors[0]) > 0:
            theta_r = agent.types.lo
        else:
            theta_r = brentq(lambda t: rc.myerson_virtual(agent, t), floors[0], hi, xtol=1e-14)
        return quad(lambda t: rc.myerson_virtual(agent, t) * float(agent.types.pdf(t)),
                    theta_r, hi, **QUAD_OPTS)[0]
    grids = [np.linspace(f, a.types.hi, 4097) for f, a in zip(floors, inst.agents)]
    return expected_max_plus(inst, [(ts, np.asarray(rc.myerson_virtual(a, ts), dtype=float))
                                    for a, ts in zip(inst.agents, grids)])


def full_extraction_revenue(inst):
    return expected_max_plus(inst, [([a.types.lo, a.types.hi],) * 2 for a in inst.agents])


def wins(psis, i):
    """Whether agent i, with virtual values ``psis`` of all agents, wins: its
    value must strictly exceed both zero and every rival's, so exact ties
    leave the asset unallocated.  Also returns the best rival positive value."""
    rival = max([0.0] + psis[:i] + psis[i + 1:])
    return psis[i] > rival, rival


def settle(pi_true, pi_report, cap, supp_hi, phi):
    """Royalty, audit indicator and penalty of one income report: the
    royalty min(report, cap) * phi; an audit below the cap, and of every
    report when the cap reaches the top of the reported support (within
    1e-12 * max(1, |top|)); the penalty (pi_true - report) * phi if audited."""
    audited = pi_report < cap or cap >= supp_hi - 1e-12 * max(1.0, abs(supp_hi))
    return min(pi_report, cap) * phi, audited, (pi_true - pi_report) * phi if audited else 0.0


def payment_cuts(agent, theta_true, theta_rep, cap):
    """Where the winner's payment or the true income law changes form: the
    true support's ends, and the reported support's ends, the audit
    threshold and the law's ``income_knots`` inside it."""
    t_lo, t_hi = (float(x) for x in _income_bounds(agent, theta_true))
    r_lo, r_hi = (float(x) for x in _income_bounds(agent, theta_rep))
    knots = income_knots(agent.income, theta_true)
    return np.unique([t_lo, t_hi] + [x for x in (r_lo, r_hi, cap, *knots) if t_lo < x < t_hi])


def income_reports(r_lo, r_hi, cap, phi, n):
    """The double deviation's (A, U) of one type report by brute search over
    ``n`` evenly spaced income reports on [r_lo, r_hi], settled at true
    income 0: the least royalty plus penalty over the audited reports, and
    the least royalty over the unaudited ones (inf where there are none)."""
    royalty, audited, pen = _settle(0.0, np.linspace(r_lo, r_hi, n), cap, r_hi, phi)
    return (float(np.min(np.where(audited, royalty + pen, np.inf))),
            float(np.min(np.where(audited, np.inf, royalty))))


def expected_payment(agent, theta_true, theta_rep, cap, best_response):
    """E over pi ~ G(. | theta_true) of the winner's payment for one type
    report: 32-point Gauss-Legendre between ``payment_cuts``, or the payment
    at the atom of a point-mass law.  ``best_response`` minimizes over 128
    income reports per income; otherwise the report is the projection."""
    phi = agent.sensitivity
    t_lo, t_hi = (float(x) for x in _income_bounds(agent, theta_true))
    r_lo, r_hi = (float(x) for x in _income_bounds(agent, theta_rep))

    def pay_at(pis):
        if best_response:
            grid = np.linspace(r_lo, r_hi, 128)
            audited = _audit_mask(grid, cap, r_hi)
            pay_all = (np.minimum(grid, cap)[None, :] * phi
                       + audited[None, :] * (pis[:, None] - grid[None, :]) * phi)
            return pay_all.min(axis=1)
        rep = np.clip(pis, r_lo, r_hi)
        return np.minimum(rep, cap) * phi + _audit_mask(rep, cap, r_hi) * (pis - rep) * phi

    if t_hi <= t_lo:
        return float(pay_at(np.array([t_lo]))[0])
    cuts = payment_cuts(agent, theta_true, theta_rep, cap)
    nodes, wts = _gl_segments(cuts[:-1], cuts[1:], rule=_GL32)
    pis = nodes.ravel()
    dens = np.asarray(agent.income.pdf(pis, theta_true), dtype=float)
    return float(np.sum(pay_at(pis) * dens * wts.ravel()))


def type_reports(inst, i, theta_true, theta_grid):
    """The type reports a best-response search tries, with their win
    probabilities, interim transfers and audit thresholds."""
    tables = rc.tables_for(inst)
    t = tables.agents[i]
    reports = np.unique(np.concatenate([
        np.linspace(t.theta[0], t.theta[-1], theta_grid), [theta_true]]))
    at = tables.locate(i, reports)
    return (reports.tolist(), at.interp("win_prob").tolist(),
            at.interp("interim_transfer").tolist(), tables.pi_star(i, at).tolist())


def best_response_type(inst, i, theta_true, theta_grid, income_strategy):
    """Type-misreport search, one ``expected_payment`` per winning report.
    Returns the ``DeviationReport`` and the list of those payments."""
    agent = inst.agents[i]
    tables = rc.tables_for(inst)
    reports, qs, t_pays, caps = type_reports(inst, i, theta_true, theta_grid)
    best_u, best_rep, truthful_u = -np.inf, None, None
    pays = []
    for theta_rep, q, t_pay, cap in zip(reports, qs, t_pays, caps):
        if q <= 0.0:
            u = 0.0
        else:
            pay = expected_payment(agent, theta_true, theta_rep, cap,
                                   best_response=(income_strategy == "grid_best"))
            pays.append(pay)
            u = q * (theta_true - pay) - t_pay
        if u > best_u:
            best_u, best_rep = u, theta_rep
        if theta_rep == theta_true:
            pay = expected_payment(agent, theta_true, theta_rep, cap, best_response=False)
            truthful_u = q * (theta_true - pay) - t_pay
    info_rent = float(tables.locate(i, theta_true).interp("interim_rent"))
    return rc.DeviationReport(
        truthful_utility=float(truthful_u),
        best_deviation_utility=float(best_u),
        best_deviation=(float(best_rep), income_strategy),
        advantage=float(best_u - truthful_u),
        grid=(len(reports),),
        ir_ok=bool(truthful_u >= -1e-9 and abs(truthful_u - info_rent) <= 1e-6),
        info_rent=info_rent,
    ), pays


def bisect(below, a, b, steps):
    """Bisect the brackets [a, b] exactly ``steps`` times, keeping the upper
    half wherever ``below(mid)`` holds, and return their midpoints."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for _ in range(steps):
        m = 0.5 * (a + b)
        ok = below(m)
        a, b = np.where(ok, m, a), np.where(ok, b, m)
    return 0.5 * (a + b)


def worst_single_crossing(values, axis):
    """Per sequence along ``axis``, the largest value above 0 that comes
    after a negative one, else 0.0; NaN never counts."""
    values = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    out = np.zeros(values.shape[:-1])
    for idx in np.ndindex(out.shape):
        seen = False
        for v in values[idx]:
            if seen and v > out[idx]:
                out[idx] = v
            seen = seen or v < 0
    return out


def philox_uniforms(n_agents, seed, start, count):
    """The uniforms of runs [start, start + count) under ``seed``: run r owns
    the m = ceil((n_agents + 2) / 4) Philox blocks from counter r * m, each
    block four 64-bit words, each word's top 53 bits scaled to [0, 1); a run
    reads the first n_agents + 2 of its 4 m doubles."""
    m = (n_agents + 2 + 3) // 4
    raw = np.random.Philox(key=seed, counter=start * m).random_raw(4 * m * count)
    u = (raw >> np.uint64(11)) * 2.0 ** -53
    return u.reshape(count, 4 * m)[:, : n_agents + 2]


def sim_report(inst, n_runs, seed, strategies=None, audit_prob=None):
    """``estimate_revenue``'s report as a dict, from the outputs of runs
    [0, n_runs) simulated as one batch on the same Philox stream: each mean
    is the exact sum rounded once and divided by n_runs, and each standard
    error the square root of the exactly rounded sample variance over
    sqrt(n_runs)."""
    strategies = strategies or rc.StrategyProfile.truthful(inst.n_agents)
    u = philox_uniforms(inst.n_agents, seed, 0, n_runs)
    b = sim._simulate_batch(inst, strategies, u, rc.tables_for(inst), audit_prob)

    def mean_se(x):
        x = x.tolist()
        return math.fsum(x) / n_runs, math.sqrt(statistics.variance(x)) / math.sqrt(n_runs)

    revenue = mean_se(b["revenue"])
    utility = [mean_se(b["utility"][:, i]) for i in range(inst.n_agents)]
    return {
        "n_runs": n_runs, "seed": seed,
        "revenue_net_audits": revenue[0], "revenue_se": revenue[1],
        "agent_utility": [m for m, _ in utility], "agent_utility_se": [se for _, se in utility],
        "audit_frequency": int(np.count_nonzero(b["audited"])) / n_runs,
        "mean_on_path_penalty": math.fsum(np.abs(b["penalty"]).tolist()) / n_runs,
        "allocation_frequency": [int(np.count_nonzero(b["winner"] == i)) / n_runs
                                 for i in range(inst.n_agents)],
    }


def pchip_coefficients(x, y):
    """scipy's PCHIP coefficients through (x, y), highest power first."""
    return PchipInterpolator(x, y).c


class PchipTableCdf:
    """A tabulated CDF interpolated by scipy's ``PchipInterpolator``: its
    cdf and pdf, the dense inverse table (``inv_f``, ``inv_x``) and the
    mean hi - K(hi) from scipy's antiderivative K (the values are taken as
    given: no construction checks)."""

    def __init__(self, grid, values):
        grid = np.asarray(grid, dtype=float)
        self.lo, self.hi = float(grid[0]), float(grid[-1])
        self.interp = PchipInterpolator(grid, np.asarray(values, dtype=float),
                                        extrapolate=False)
        self._pdf = self.interp.derivative()
        dense = np.linspace(self.lo, self.hi, 8193)
        fd = np.asarray(self.interp(dense))
        keep = np.concatenate(([True], np.diff(fd) > 0))
        self.inv_f, self.inv_x = fd[keep], dense[keep]
        # lo + int (1 - F) = hi - int F, by scipy's own antiderivative
        self.mean = self.hi - float(self.interp.antiderivative()(self.hi))

    def cdf(self, x):
        return self.interp(np.clip(np.asarray(x, dtype=float), self.lo, self.hi))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        return np.where(inside, self._pdf(np.clip(x, self.lo, self.hi)), 0.0)


def cell(xp, x):
    """Cell of x on the sorted grid xp by binary search: the last index j
    with xp[j] <= x, clipped to 0 .. len(xp) - 2."""
    return np.clip(np.searchsorted(xp, x, "right") - 1, 0, len(xp) - 2)


def guide_table(xp):
    """Over 2 len(xp) buckets of ``dist._buckets``, the last grid index in
    an earlier bucket, found by binary search for each bucket's first grid
    point (clipped to the cells 0 .. len(xp) - 2)."""
    k = 2 * xp.size
    first = np.searchsorted(_buckets(xp, xp, k), np.arange(k))
    return np.clip(first - 1, 0, xp.size - 2)


class TableFamilyRows:
    """A tabulated income family (``dist.TableIncomeFamily``) evaluated
    point by point by other means: each type's knot interval j and weight w
    by binary search; row j's quantile Q_j by scipy's ``PchipInterpolator``
    through its swapped table (cdf, income), and the law's quantile
    (1 - w) Q_j + w Q_{j+1}; G by ``brentq`` on that quantile; and the audit
    region's integrals by ``quad`` over the region's u-range, where
    int -dG/dtheta dpi = int D du and int (1 - G) dpi = int (1 - u) dQ, with
    D = (Q_{j+1} - Q_j) / (theta_{j+1} - theta_j)."""

    def __init__(self, theta_grid, rows):
        self.tg = np.asarray(theta_grid, dtype=float)
        self.rows, self.tops = [], []
        for g, v in rows:
            v = np.array(v, dtype=float)
            v[0], v[-1] = 0.0, 1.0
            self.rows.append(PchipInterpolator(v, np.asarray(g, dtype=float)))
            self.tops.append(float(g[-1]))

    def _at(self, t):
        """The type's interval j, its weight w and the two rows."""
        j = int(cell(self.tg, t))
        w = float(np.clip((t - self.tg[j]) / (self.tg[j + 1] - self.tg[j]), 0.0, 1.0))
        return j, w, self.rows[j], self.rows[j + 1]

    def _row(self, j, u):
        """Q_j(u), its top its table's at u = 1."""
        return self.tops[j] if u >= 1.0 else float(self.rows[j](u))

    def quantile(self, u, t):
        """(1 - w) Q_j(u) + w Q_{j+1}(u)."""
        j, w, _, _ = self._at(t)
        return (1.0 - w) * self._row(j, u) + w * self._row(j + 1, u)

    def knots(self, t):
        _, _, lo, hi = self._at(t)
        return np.array([self.quantile(u, t) for u in np.union1d(lo.x, hi.x)])

    def cdf(self, p, t):
        lo, hi = self.quantile(0.0, t), self.quantile(1.0, t)
        if p <= lo:
            return 0.0
        if p >= hi:
            return 1.0
        return brentq(lambda u: self.quantile(u, t) - p, 0.0, 1.0, xtol=1e-300,
                      rtol=4 * np.finfo(float).eps)

    def values(self, pi, theta):
        """cdf, pdf, dcdf_dtheta and g2_over_g at the 1-d arrays pi and
        theta, point by point: g = 1 / Q' and -G_theta / g = D at u = G,
        g and G_theta 0 outside the support."""
        out = {k: [] for k in ("cdf", "pdf", "dcdf_dtheta", "g2_over_g")}
        for p, t in zip(np.asarray(pi, dtype=float), np.asarray(theta, dtype=float)):
            j, w, lo, hi = self._at(t)
            u = self.cdf(p, t)
            slope = (1.0 - w) * float(lo(u, 1)) + w * float(hi(u, 1))
            gap = (self._row(j + 1, u) - self._row(j, u)) / (self.tg[j + 1] - self.tg[j])
            inside = self.quantile(0.0, t) <= p <= self.quantile(1.0, t)
            out["cdf"].append(u)
            out["pdf"].append(1.0 / slope if inside else 0.0)
            out["dcdf_dtheta"].append(-gap / slope if inside else 0.0)
            out["g2_over_g"].append(-gap)
        return {k: np.array(v, dtype=float) for k, v in out.items()}

    def audit_region(self, theta, b):
        """G(b | theta), int -dG/dtheta and int (1 - G) over [supp_lo, b'],
        by ``quad`` over [0, G(b')] split at both rows' u-knots."""
        theta, b = float(theta), float(b)
        j, w, lo, hi = self._at(theta)
        u = self.cdf(b, theta)
        if u <= 0.0:
            return u, 0.0, 0.0
        pts = [x for x in np.union1d(lo.x, hi.x) if 0.0 < x < u] or None
        opts = dict(points=pts, epsabs=1e-13, epsrel=1e-12, limit=200)
        dtheta = self.tg[j + 1] - self.tg[j]
        recovery = quad(lambda x: (float(hi(x)) - float(lo(x))) / dtheta, 0.0, u, **opts)[0]
        survival = quad(lambda x: (1.0 - x) * ((1.0 - w) * float(lo(x, 1)) + w * float(hi(x, 1))),
                        0.0, u, **opts)[0]
        return u, recovery, survival
