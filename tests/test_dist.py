import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

import oracles

from royaltycap import (
    AgentSpec,
    ConstructionError,
    DomainError,
    inverse_hazard,
    make_income_family,
    make_type_dist,
    project_to_support,
    sample_income,
)
from royaltycap.dist import _pchip_coefficients
from conftest import UNIT_ERR


# ---------------------------------------------------------------------------
# Type distributions
# ---------------------------------------------------------------------------


def test_uniform_basics():
    d = make_type_dist("uniform", {"lo": 1, "hi": 2})
    assert d.cdf(1.5) == 0.5
    assert d.pdf(1.7) == 1.0
    assert d.cdf(d.lo) == 0.0 and d.cdf(d.hi) == 1.0


def test_triangular_matches_closed_form():
    # density 8(theta - 1/2) on [1/2, 1] integrates to the square CDF
    d = make_type_dist("triangular", {"lo": 0.5, "hi": 1.0})
    assert d.cdf(0.75) == pytest.approx(0.25, abs=1e-12)
    assert d.pdf(0.75) == pytest.approx(8 * 0.25, abs=1e-12)
    total, _ = quad(d.pdf, d.lo, d.hi)
    assert total == pytest.approx(1.0, abs=1e-10)


@pytest.mark.filterwarnings("error")
def test_triangular_subnormal_mode_raises_no_warning():
    # the rising branch divides by the subnormal standard mode and overflows;
    # np.where discards it, so it must not warn either
    d = make_type_dist("triangular", {"lo": 0.0, "hi": 1.0, "mode": 1e-310})
    assert d.cdf(0.5) == 0.75
    assert d.pdf(0.5) == 1.0


def test_table_type_dist_interpolates_monotonically():
    g = np.linspace(1, 2, 9)
    d = make_type_dist("table", {"grid": g, "cdf": g - 1})
    probe = np.linspace(1, 2, 101)
    vals = np.asarray(d.cdf(probe))
    assert np.all(np.diff(vals) >= 0)
    assert d.cdf(1.5) == pytest.approx(0.5, abs=1e-9)
    assert d.ppf(0.25) == pytest.approx(1.25, abs=1e-6)


@st.composite
def _cdf_tables(draw):
    """A strictly increasing CDF table: 2 to 12 unevenly spaced knots."""
    n = draw(st.integers(2, 12))
    steps = draw(st.lists(st.floats(0.01, 5.0), min_size=n - 1, max_size=n - 1))
    mass = draw(st.lists(st.floats(1e-4, 1.0), min_size=n - 1, max_size=n - 1))
    grid = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(steps)])
    values = np.concatenate([[0.0], np.cumsum(mass)]) / np.sum(mass)
    values[-1] = 1.0
    return grid, values


# first and last knot slopes set to 0 by the endpoint rule (sign flip)
_STEEP_INSIDE = ([0.0, 1.0, 2.0], [0.0, 0.01, 1.0])
_STEEP_OUTSIDE = ([0.0, 1.0, 2.0], [0.0, 0.99, 1.0])


@given(table=_cdf_tables())
@example(table=([0.0, 1.0], [0.0, 1.0]))
@example(table=([1.0, 1.1, 3.0, 3.05, 7.0], [0.0, 0.3, 0.35, 0.9, 1.0]))
@example(table=_STEEP_INSIDE)
@example(table=_STEEP_OUTSIDE)
@settings(max_examples=150, deadline=None)
def test_table_law_matches_scipy_pchip(table):
    grid, values = (np.asarray(a, dtype=float) for a in table)
    law = make_type_dist("table", {"grid": grid, "cdf": values})._backend
    ref = oracles.PchipTableCdf(grid, values)
    lo, hi = grid[0], grid[-1]
    x = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), np.linspace(lo, hi, 257),
                        [np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
                         lo - 1.0, hi + 1.0]])
    assert np.array_equal(law.cdf(x), ref.cdf(x))
    assert np.array_equal(law.pdf(x), ref.pdf(x))
    assert np.array_equal(law._inv_f, ref.inv_f) and np.array_equal(law._inv_x, ref.inv_x)
    assert law.mean == ref.mean
    for xi in (lo, hi, grid[len(grid) // 2]):
        assert law.cdf(xi) == ref.cdf(xi) and law.pdf(xi) == ref.pdf(xi)


@given(steps=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10),
       data=st.data())
@example(steps=[1.0, 1.0], data=None)
@settings(max_examples=150, deadline=None)
def test_pchip_coefficients_match_scipy_on_any_data(steps, data):
    """Knot values of any sign, with flat chords and sign changes, reach
    every branch of the slope rules, which monotone CDF tables cannot."""
    x = np.concatenate([[0.0], np.cumsum(steps)])
    if data is None:
        y = np.array([0.0, 1.0, -9.0])  # first slope capped at 3 m0
    else:
        y = np.array(data.draw(st.lists(st.integers(-3, 3) | st.floats(-3.0, 3.0),
                                        min_size=x.size, max_size=x.size)), dtype=float)
    with np.errstate(over="ignore"):  # subnormal chords overflow scipy's harmonic mean
        assert np.array_equal(_pchip_coefficients(x, y), oracles.pchip_coefficients(x, y))


def test_pchip_endpoint_rule_branches():
    # the three-point estimate 6.5 exceeds 3 |m0| across a sign change: 3 m0
    c = _pchip_coefficients(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, -9.0]))
    assert c[2][0] == 3.0
    # a sign flip of the estimate sets the end slope to 0
    grid, values = (np.asarray(a) for a in _STEEP_INSIDE)
    assert _pchip_coefficients(grid, values)[2][0] == 0.0
    d = make_type_dist("table", {"grid": _STEEP_OUTSIDE[0], "cdf": _STEEP_OUTSIDE[1]})
    assert d.pdf(2.0) == 0.0 and d.pdf(0.0) > 0.0


def _tent_error():
    """The benchmark's tent error law on [-1, 1], tabulated on 11 knots."""
    g = np.linspace(-1.0, 1.0, 11)
    return {"family": "table", "grid": g, "cdf": np.where(g < 0, 0.5 * (g + 1) ** 2,
                                                          1 - 0.5 * (1 - g) ** 2)}


def _inversion_error(d):
    u = np.linspace(0.0, 1.0, 4097)
    return float(np.max(np.abs(d.cdf(d.ppf(u)) - u)))


def test_table_ppf_inversion_error_is_small():
    """The dense-table quantile's error max |F(ppf(u)) - u|: 1.7e-8 on the
    benchmark's tent error law and below 4e-18 on its income rows (the
    figures the ``_TableCdf`` docstring states)."""
    assert _inversion_error(make_type_dist("table", _tent_error())) <= 1e-7
    for t in (1.0, 1.4, 2.0):
        g = np.linspace(t - 1.0, t + 1.0, 41)
        row = make_type_dist("table", {"grid": g, "cdf": (g - (t - 1.0)) / 2.0})
        assert _inversion_error(row) <= 1e-7


@given(lo=st.floats(-5.0, 5.0), width=st.floats(0.01, 10.0),
       where=st.sampled_from(["lo", "inside", "hi"]), frac=st.floats(0.0, 1.0),
       x=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=20),
       q=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
@settings(max_examples=200, deadline=None)
def test_closed_form_laws_match_scipy(lo, width, where, frac, x, q):
    hi = lo + width
    mode = {"lo": lo, "hi": hi, "inside": lo + frac * width}[where]
    pairs = [(make_type_dist("uniform", {"lo": lo, "hi": hi}),
              stats.uniform(loc=lo, scale=hi - lo)),
             (make_type_dist("triangular", {"lo": lo, "hi": hi, "mode": mode}),
              stats.triang(c=(mode - lo) / (hi - lo), loc=lo, scale=hi - lo))]
    x = np.array(x + [lo, hi, mode, lo - 1.0, hi + 1.0])
    q = np.array(q + [0.0, 1.0, 0.5])
    for d, ref in pairs:
        # ppf draws the types of every simulation, so all three are bit-identical
        assert np.array_equal(d.ppf(q), ref.ppf(q))
        assert d.ppf(float(q[0])) == ref.ppf(float(q[0]))
        assert np.array_equal(d.cdf(x), ref.cdf(x))
        assert np.array_equal(d.pdf(x), ref.pdf(x))


# Builds a ``table`` type law, an additive family with a ``table`` error, a
# ``TableIncomeFamily`` and their mechanism tables.
_TABLE_LAWS = """
import numpy as np
from royaltycap import AgentSpec, AuctionInstance, make_income_family, make_type_dist
from royaltycap.mech import tables_for
g = np.linspace(-1.0, 1.0, 11)
err = {"family": "table", "grid": g, "cdf": np.where(g < 0, 0.5 * (g + 1) ** 2,
                                                     1 - 0.5 * (1 - g) ** 2)}
k = np.linspace(1.0, 2.0, 9)
types = make_type_dist("table", {"grid": k, "cdf": k - 1.0})
rows = [(np.linspace(t - 1, t + 1, 41), np.linspace(0.0, 1.0, 41)) for t in (1.0, 1.4, 2.0)]
tables_for(AuctionInstance((
    AgentSpec(types, make_income_family("additive_error", {"error": err}), 0.2, 0.5),
    AgentSpec(make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}), make_income_family(
        "table", {"theta_grid": [1.0, 1.4, 2.0], "rows": rows}), 0.0, 0.5))))
"""


@pytest.mark.parametrize("module,work", [
    ("scipy.stats", ""), ("scipy.integrate", ""), ("scipy.interpolate", ""),
    ("scipy", _TABLE_LAWS)],
    ids=["scipy.stats", "scipy.integrate", "scipy.interpolate", "scipy-after-table-laws"])
def test_import_leaves_scipy_stats_unloaded(module, work):
    code = (f"import sys, royaltycap\n{work}\n"
            f"print(any(m == {module!r} or m.startswith({module + '.'!r}) for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("family,params", [
    ("uniform", {"lo": 2, "hi": 1}),
    ("triangular", {"lo": 1, "hi": 2, "mode": 3}),
    ("table", {"grid": [0, 1, 2], "cdf": [0, 0.8, 0.7]}),
    ("table", {"grid": [0, 1], "cdf": [0.2, 1.0]}),
    ("nonsense", {"lo": 0, "hi": 1}),
])
def test_type_dist_construction_errors(family, params):
    with pytest.raises(ConstructionError):
        make_type_dist(family, params)


def test_inverse_hazard_values():
    u12 = make_type_dist("uniform", {"lo": 1, "hi": 2})
    assert inverse_hazard(u12, 1.0) == pytest.approx(1.0)
    assert inverse_hazard(u12, 2.0) == 0.0
    tri = make_type_dist("triangular", {"lo": 0.5, "hi": 1.0})
    # theta (1 - theta) / (2 theta - 1) at 0.75
    assert inverse_hazard(tri, 0.75) == pytest.approx(0.375, abs=1e-12)
    assert np.isinf(inverse_hazard(tri, 0.5))
    with pytest.raises(DomainError):
        inverse_hazard(u12, 2.5)


def test_inverse_hazard_matches_numeric_cdf():
    # cross-check the closed form against a numerically differenced CDF
    tri = make_type_dist("triangular", {"lo": 0.5, "hi": 1.0})
    h = 1e-6
    for th in (0.6, 0.75, 0.9):
        f_num = (tri.cdf(th + h) - tri.cdf(th - h)) / (2 * h)
        assert inverse_hazard(tri, th) == pytest.approx(
            (1 - tri.cdf(th)) / f_num, rel=1e-6)


# ---------------------------------------------------------------------------
# Income families
# ---------------------------------------------------------------------------


def _families():
    add = make_income_family("additive_error", UNIT_ERR)
    sca = make_income_family("scaled_error", UNIT_ERR)
    # tabulated version of the additive family at three type knots
    knots = [1.0, 1.4, 2.0]
    rows = []
    for t in knots:
        g = np.linspace(t - 1, t + 1, 41)
        rows.append((g, (g - (t - 1)) / 2.0))
    tab = make_income_family("table", {"theta_grid": knots, "rows": rows})
    return [("additive", add, (1.0, 2.0)), ("scaled", sca, (0.5, 1.0)),
            ("table", tab, (1.0, 2.0))]


@pytest.mark.parametrize("name,fam,rng", _families() + [
    ("additive_table_error", make_income_family("additive_error", {"error": _tent_error()}),
     (1.0, 2.0)),
    ("scaled_triangular_error", make_income_family(
        "scaled_error", {"error": {"family": "triangular", "lo": -1.0, "hi": 1.0,
                                   "mode": 0.0}}), (0.5, 1.0))])
def test_cdf_and_dtheta_equals_separate_calls(name, fam, rng):
    lo, hi = rng
    blocks = [np.linspace(lo, hi, 37)[1:-1]]
    if name == "table":
        # knots 1, 1.4, 2: one block inside the first interval (one row pair)
        # and one across the knot at 1.4 (both row pairs)
        blocks = [np.linspace(1.05, 1.35, 9), np.linspace(1.2, 1.8, 13), np.array([1.4])]
    for th in blocks:
        nodes = (np.asarray(fam.supp_lo(th))[:, None] - 0.1
                 + np.linspace(0.0, 1.0, 23) * (np.asarray(fam.supp_hi(th))
                                                - np.asarray(fam.supp_lo(th)) + 0.2)[:, None])
        for pi, theta in ((nodes, th[:, None]), (nodes[:, 5], th), (1.5, th),
                          (float(nodes[0, 7]), float(th[0]))):
            g, g2 = fam.cdf_and_dtheta(pi, theta)
            assert np.array_equal(g, fam.cdf(pi, theta))
            assert np.array_equal(g2, fam.dcdf_dtheta(pi, theta))
            assert np.shape(g) == np.shape(g2) == np.broadcast_shapes(np.shape(pi),
                                                                      np.shape(theta))
    if name == "table":
        # the one-interval evaluation equals the same types inside a block
        # that spans two intervals
        inside = np.linspace(1.05, 1.35, 9)
        across = np.concatenate([inside, np.linspace(1.5, 1.8, 7)])
        assert np.array_equal(fam.cdf_and_dtheta(1.6, inside)[1],
                              fam.cdf_and_dtheta(1.6, across)[1][:9])
        assert np.array_equal(fam.cdf(1.6, inside), fam.cdf(1.6, across)[:9])


@pytest.mark.parametrize("name,fam,rng", _families())
def test_income_supports_ordered(name, fam, rng):
    thetas = np.linspace(rng[0], rng[1], 33)[1:-1]
    lo = np.asarray(fam.supp_lo(thetas))
    hi = np.asarray(fam.supp_hi(thetas))
    assert np.all(lo >= -1e-12)
    assert np.all(hi - lo > 0)


@pytest.mark.parametrize("name,fam,rng", _families())
def test_income_density_normalizations(name, fam, rng):
    # integral of g = 1, integral of -dG/dtheta = 1, E[pi | theta] = theta
    for th in np.linspace(rng[0], rng[1], 7)[1:-1]:
        lo, hi = float(fam.supp_lo(th)), float(fam.supp_hi(th))
        total, _ = quad(lambda x: fam.pdf(x, th), lo, hi, epsabs=1e-12, epsrel=1e-10)
        assert total == pytest.approx(1.0, rel=1e-8)
        mass, _ = quad(lambda x: -fam.dcdf_dtheta(x, th), lo, hi,
                       epsabs=1e-12, epsrel=1e-10)
        assert mass == pytest.approx(1.0, rel=1e-8)
        mean, _ = quad(lambda x: x * fam.pdf(x, th), lo, hi,
                       epsabs=1e-12, epsrel=1e-10)
        assert mean == pytest.approx(th, rel=1e-8)


@pytest.mark.parametrize("name,fam,rng", _families())
def test_dcdf_dtheta_matches_finite_difference(name, fam, rng):
    # 50 interior points; centered difference with h = 1e-4.  Points stay
    # away from the top of the type range, where a shrinking support makes
    # the oracle's own truncation error exceed the tolerance.
    h = 1e-4
    tol = max(1e-6, 1e3 * h * h)
    rs = np.random.default_rng(7)
    thetas = rng[0] + (rng[1] - rng[0]) * rs.uniform(0.1, 0.8, 50)
    worst = 0.0
    for th in thetas:
        lo, hi = float(fam.supp_lo(th)), float(fam.supp_hi(th))
        pi = lo + (hi - lo) * rs.uniform(0.1, 0.9)
        fd = (fam.cdf(pi, th + h) - fam.cdf(pi, th - h)) / (2 * h)
        worst = max(worst, abs(fd - float(fam.dcdf_dtheta(pi, th))))
    assert worst <= tol


@pytest.mark.parametrize("name,fam,rng", _families())
def test_income_fosd(name, fam, rng):
    thetas = np.linspace(rng[0], rng[1], 33)
    lo = float(np.min(np.asarray(fam.supp_lo(thetas))))
    hi = float(np.max(np.asarray(fam.supp_hi(thetas))))
    pis = np.linspace(lo, hi, 65)
    mat = np.asarray(fam.cdf(pis[None, :], thetas[:, None]))
    assert np.all(np.diff(mat, axis=0) <= 1e-9)


def test_additive_ratio_is_minus_one():
    fam = make_income_family("additive_error", UNIT_ERR)
    rs = np.random.default_rng(0)
    th = 1 + rs.uniform(0, 1, 20)
    pi = th + rs.uniform(-1, 1, 20)
    assert np.allclose(fam.g2_over_g(pi, th), -1.0)


def test_scaled_family_closed_forms():
    fam = make_income_family("scaled_error", UNIT_ERR)
    assert float(fam.supp_lo(0.6)) == pytest.approx(0.2)
    assert float(fam.supp_hi(0.6)) == pytest.approx(1.0)
    assert float(fam.cdf(0.6, 0.6)) == pytest.approx(0.5)
    # dG/dtheta = (pi - 1) / (2 (1 - theta)^2)
    assert float(fam.dcdf_dtheta(0.6, 0.6)) == pytest.approx(
        (0.6 - 1) / (2 * 0.4 ** 2), abs=1e-12)
    assert float(fam.g2_over_g(0.4, 0.75)) == pytest.approx(-2.4, abs=1e-12)


@pytest.mark.parametrize("params", [
    {"error": {"family": "uniform", "lo": -0.5, "hi": 1.0}},   # mean 0.25
    {"error": {"family": "uniform", "lo": 0.1, "hi": 1.0}},    # does not straddle 0
    {},                                                        # missing error spec
])
def test_income_family_construction_errors(params):
    with pytest.raises(ConstructionError):
        make_income_family("additive_error", params)


def test_income_table_rejects_unordered_rows():
    knots = [1.0, 2.0]
    g0 = np.linspace(0.5, 1.5, 21)
    g1 = np.linspace(0.0, 1.0, 21)  # mean 0.5 at theta 2: FOSD reversed
    rows = [(g0, (g0 - 0.5)), (g1, g1)]
    with pytest.raises(ConstructionError):
        make_income_family("table", {"theta_grid": knots, "rows": rows})


# ---------------------------------------------------------------------------
# Sampling and projection
# ---------------------------------------------------------------------------


def test_sampling_matches_conditional_law():
    scaled = make_income_family("scaled_error", UNIT_ERR)
    table = _families()[2][1]
    # G(theta | theta) = 0.5 within 5 sigma: the scaled family at 0.6, and the
    # tabulated family at 1.7, the even mixture of its rows at 1.4 and 2.0
    for fam, theta, n in ((scaled, 0.6, 200_000), (table, 1.7, 20_000)):
        rng = np.random.default_rng(13)
        draws = np.asarray(sample_income(fam, np.full(n, theta), rng))
        emp = np.mean(draws <= theta)
        assert abs(emp - 0.5) <= 5 * np.sqrt(0.25 / n)
        assert abs(draws.mean() - theta) <= 5 * draws.std(ddof=1) / np.sqrt(n)


def test_table_ppf_array_matches_scalar_and_inverts_cdf():
    fam = _families()[2][1]
    rng = np.random.default_rng(3)
    u = np.concatenate([rng.random(40), [0.0, 1.0, 0.0, 1.0, 0.3, 0.7, 0.5]])
    theta = np.concatenate([1.0 + rng.random(40), [1.0, 1.0, 1.4, 2.0, 1.4, 2.0, 1.4]])
    out = fam.ppf(u, theta)
    # the array call bisects every draw at once; it must equal the scalar calls
    scalar = np.array([fam.ppf(float(a), float(t)) for a, t in zip(u, theta)])
    assert np.array_equal(out, scalar)
    assert isinstance(fam.ppf(0.5, 1.7), float)
    # the quantile inverts the conditional CDF wherever the law has density
    back = np.asarray(fam.cdf(out, theta))
    dense = np.asarray(fam.pdf(out, theta)) > 0
    assert dense.sum() >= 40
    assert np.max(np.abs(back - u)[dense]) <= 1e-12


def test_sampling_mean_normalization_additive():
    fam = make_income_family("additive_error", UNIT_ERR)
    rng = np.random.default_rng(5)
    n = 200_000
    draws = np.asarray(sample_income(fam, np.full(n, 1.5), rng))
    assert abs(draws.mean() - 1.5) <= 3 * draws.std(ddof=1) / np.sqrt(n)


def test_sampling_is_deterministic_given_seed():
    fam = make_income_family("additive_error", UNIT_ERR)
    a = sample_income(fam, np.full(100, 1.3), np.random.default_rng(42))
    b = sample_income(fam, np.full(100, 1.3), np.random.default_rng(42))
    assert np.array_equal(a, b)


def test_projection_examples():
    fam = make_income_family("scaled_error", UNIT_ERR)
    assert project_to_support(fam, 0.8, 0.3) == pytest.approx(0.6)   # clamp low
    assert project_to_support(fam, 0.8, 0.7) == 0.7                  # inside
    assert project_to_support(fam, 0.6, 1.4) == pytest.approx(1.0)   # clamp high


@given(theta=st.floats(0.51, 0.99), pi=st.floats(-1.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_projection_properties(theta, pi):
    fam = make_income_family("scaled_error", UNIT_ERR)
    p = project_to_support(fam, theta, pi)
    lo, hi = float(fam.supp_lo(theta)), float(fam.supp_hi(theta))
    assert lo <= p <= hi
    # idempotent, and the identity inside the support
    assert project_to_support(fam, theta, p) == p
    if lo <= pi <= hi:
        assert p == pi


# ---------------------------------------------------------------------------
# Agent bundles
# ---------------------------------------------------------------------------


def test_agent_validation(ua_agent):
    u12 = ua_agent.types
    add = ua_agent.income
    with pytest.raises(ConstructionError):
        AgentSpec(u12, add, -0.1, 0.5)
    with pytest.raises(ConstructionError):
        AgentSpec(u12, add, 0.1, 1.0001)
    wide = make_income_family(
        "additive_error", {"error": {"family": "uniform", "lo": -1.5, "hi": 1.5}})
    with pytest.raises(ConstructionError):
        AgentSpec(u12, wide, 0.1, 0.5)  # incomes would dip below zero
    sca = make_income_family("scaled_error", UNIT_ERR)
    with pytest.raises(ConstructionError):
        AgentSpec(u12, sca, 0.1, 0.5)   # scaled family needs types within [0, 1]
