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
"""

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

import royaltycap as rc
from royaltycap.mech import _threshold_kinks

QUAD_OPTS = dict(epsabs=1e-12, epsrel=1e-10, limit=200)
# relative nudge for one-sided limits at support endpoints
NU = 1e-9


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
    val = quad(lambda x: -float(agent.income.dcdf_dtheta(x, theta)), lo, b, **QUAD_OPTS)[0]
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
