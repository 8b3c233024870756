from dataclasses import replace

import numpy as np
import pytest

from royaltycap import AgentSpec, AuctionInstance, make_income_family, make_type_dist
from royaltycap.instances import (
    mixed_pair,
    scaled_triangular,
    scaled_triangular_agent,
    scaled_uniform,
    scaled_uniform_agent,
    uniform_additive,
    uniform_additive_agent,
)

UNIT_ERR = {"error": {"family": "uniform", "lo": -1.0, "hi": 1.0}}


@pytest.fixture(scope="session")
def ua_agent():
    return uniform_additive_agent()


@pytest.fixture(scope="session")
def su_agent():
    return scaled_uniform_agent()


@pytest.fixture(scope="session")
def st_agent():
    return scaled_triangular_agent()


@pytest.fixture(scope="session")
def ua_inst():
    return uniform_additive()


@pytest.fixture(scope="session")
def su_inst():
    return scaled_uniform()


@pytest.fixture(scope="session")
def st_inst():
    return scaled_triangular()


@pytest.fixture(scope="session")
def pair_inst():
    return mixed_pair()


@pytest.fixture(scope="session")
def shipped_instances(ua_inst, su_inst, st_inst, pair_inst):
    return {
        "uniform_additive": ua_inst,
        "scaled_uniform": su_inst,
        "scaled_triangular": st_inst,
        "mixed_pair": pair_inst,
    }


def cash_only_agent(lo: float, hi: float, mode=None) -> AgentSpec:
    """An agent whose income is (numerically) the type itself: used to test
    the cash-auction benchmarks, which depend only on the type distribution
    (uniform, or triangular with the given ``mode``)."""
    types = (make_type_dist("uniform", {"lo": lo, "hi": hi}) if mode is None else
             make_type_dist("triangular", {"lo": lo, "hi": hi, "mode": mode}))
    return AgentSpec(
        types=types,
        income=make_income_family(
            "additive_error",
            {"error": {"family": "uniform", "lo": -1e-12, "hi": 1e-12}}),
        audit_cost=0.0,
        sensitivity=0.0,
    )


def table_income_agent(knots, audit_cost, sensitivity=0.5):
    """Types U[1, 2] with a tabulated copy of the additive family
    theta + U[-1, 1]: one 41-point row per type knot.  Its linear quantile
    rows interpolate to that family at every type, so psi = 1.5 theta - 1,
    E[pi - royalty] = theta / 2 and Phi = phi exactly when c = 0 and
    phi = 0.5, and at any c its tables are those of the additive family."""
    rows = []
    for t in knots:
        g = np.linspace(t - 1.0, t + 1.0, 41)
        rows.append((g, (g - (t - 1.0)) / 2.0))
    return AgentSpec(make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}),
                     make_income_family("table", {"theta_grid": list(knots), "rows": rows}),
                     audit_cost, sensitivity)


def tent_error_inst():
    """Types U[1, 2]; additive errors with the triangular (tent) law on
    [-1, 1], tabulated on 11 knots; c = 0.2, phi = 0.5."""
    g = np.linspace(-1.0, 1.0, 11)
    cdf = np.where(g < 0, 0.5 * (g + 1) ** 2, 1 - 0.5 * (1 - g) ** 2)
    err = {"error": {"family": "table", "grid": g, "cdf": cdf}}
    return AuctionInstance((AgentSpec(
        make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}),
        make_income_family("additive_error", err), 0.2, 0.5),))


# ---------------------------------------------------------------------------
# Independent closed-form oracles for the shipped instances
# ---------------------------------------------------------------------------


def ua_psi(theta, c=0.2, phi=0.5):
    """uniform_additive virtual value: 2 theta - 2 + ((2 - theta) phi - c)_+."""
    return 2 * theta - 2 + max((2 - theta) * phi - c, 0.0)


def su_psi(theta, c=0.5, phi=1.0):
    """scaled_uniform virtual value:
    2 theta - 1 + ((2 phi (1 - theta) - c)_+)^2 / (4 phi (1 - theta))."""
    if theta >= 1.0:
        return 2 * theta - 1
    return 2 * theta - 1 + max(2 * phi * (1 - theta) - c, 0.0) ** 2 / (4 * phi * (1 - theta))


def st_pi_star(theta, c=0.5, phi=1.0):
    """scaled_triangular audit threshold: the crossing of
    (1 - pi) theta / (2 theta - 1) * phi = c, i.e. 1 - c (2 theta - 1) / (phi theta),
    clamped to zero once it falls below the income support's lower end
    (auditing then never pays)."""
    if theta <= 0.5:
        return 1.0
    crossing = 1 - c * (2 * theta - 1) / (phi * theta)
    if crossing < 2 * theta - 1:
        return 0.0
    return min(1.0, crossing)


def rising_gap_agent(audit_cost, sensitivity=0.5, knots=(1.0, 2.0)):
    """Types U[1, 2] and a tabulated income law irregular in income: at each
    type knot t the linear quantile row Q_t(u) = t + (1 + t) (u - 1/2) (a
    two-point table), so Q_1(u) = 2u, Q_2(u) = 0.5 + 3u and, at any knots,
    -G_theta/g = 0.5 + u rises in income.  The audit surplus
    (0.5 + u) (2 - theta) phi - c is single-crossing from above at c = 0 and
    fails wherever it changes sign (at c = 0.2, phi = 0.5: types in
    (1.2, 1.73))."""
    rows = [([t - (1 + t) / 2, t + (1 + t) / 2], [0.0, 1.0]) for t in knots]
    return AgentSpec(make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}),
                     make_income_family("table", {"theta_grid": list(knots), "rows": rows}),
                     audit_cost, sensitivity)


def distinct_bidders(n: int) -> AuctionInstance:
    """``n`` bidders, the uniform_additive, scaled_uniform and
    scaled_triangular agents in turn, bidder k's audit cost times
    (1 + 0.02 k), so that no two bidders' tables are alike."""
    makers = (uniform_additive_agent, scaled_uniform_agent, scaled_triangular_agent)
    agents = (makers[k % 3]() for k in range(n))
    return AuctionInstance(tuple(replace(a, audit_cost=a.audit_cost * (1 + 0.02 * k))
                                 for k, a in enumerate(agents)))
