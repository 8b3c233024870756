import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

import oracles

from royaltycap import (
    AgentSpec,
    AuctionInstance,
    ConstructionError,
    DomainError,
    estimate_revenue,
    inverse_hazard,
    make_income_family,
    make_type_dist,
    project_to_support,
    sample_income,
    tables_for,
)
from royaltycap import dist
from royaltycap.dist import _cells, _gl_segments, _guide_table, _pchip_coefficients
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
    inv_f, inv_x, _ = law._inverse
    assert np.array_equal(inv_f, ref.inv_f) and np.array_equal(inv_x, ref.inv_x)
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
    {"error": {"family": "uniform", "lo": 0.1, "hi": 1.0}},    # mean 0.55
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
# Located search and Gauss-Legendre nodes
# ---------------------------------------------------------------------------


@given(steps=st.lists(st.floats(1e-3, 5.0) | st.just(1e9), min_size=1, max_size=40),
       start=st.floats(-10.0, 10.0), data=st.data())
@example(steps=[1.0], start=0.0, data=None)
@example(steps=[1e9] + [0.5] * 20, start=0.0, data=None)
@example(steps=[0.5] * 20 + [1e9], start=-3.0, data=None)
@settings(max_examples=150, deadline=None)
def test_located_cells_match_binary_search(steps, start, data):
    # far outliers (the 1e9 steps) crowd the other knots into a few buckets
    xp = np.unique(start + np.concatenate([[0.0], np.cumsum(steps)]))
    if xp.size < 2:
        return
    lo, hi = xp[0], xp[-1]
    drawn = [] if data is None else data.draw(
        st.lists(st.floats(lo - 1.0, hi + 1.0), max_size=100))
    x = np.concatenate([drawn, xp, 0.5 * (xp[1:] + xp[:-1]), np.nextafter(xp, -np.inf),
                        np.nextafter(xp, np.inf), [lo - 1.0, hi + 1.0, lo - 1e12, hi + 1e12,
                                                   -np.inf, np.inf]])
    guide = _guide_table(xp)
    assert np.array_equal(_cells(xp, guide, x), oracles.cell(xp, x))
    # from start cells at or below each point's own, 0 to 3 cells below it
    below = np.maximum(oracles.cell(xp, x) - np.arange(x.size) % 4, 0)
    assert np.array_equal(_cells(xp, guide, x, below), oracles.cell(xp, x))
    assert np.array_equal(_cells(xp, guide, x[:4].reshape(2, 2)),
                          oracles.cell(xp, x[:4].reshape(2, 2)))
    assert _cells(xp, guide, x[0]).shape == () and _cells(xp, guide, x[0]) == oracles.cell(xp, x[0])


@st.composite
def _additive_table_families(draw):
    """Copies of the additive family theta + U[-1, 1] on 2-5 type knots in
    [1, 2], each row tabulated on 2-12 unevenly spaced points."""
    inner = draw(st.lists(st.integers(1, 39), max_size=3, unique=True))
    knots = [1.0] + sorted(1.0 + k / 40 for k in inner) + [2.0]
    rows = []
    for t in knots:
        cuts = draw(st.lists(st.floats(1e-3, 1.999), max_size=10))
        g = np.unique((t - 1.0) + np.concatenate([[0.0, 2.0], cuts]))
        rows.append((g, (g - g[0]) / (g[-1] - g[0])))
    return knots, rows


@given(table=_additive_table_families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_family_matches_row_by_row_oracle(table, data):
    knots, rows = table
    fam = make_income_family("table", {"theta_grid": knots, "rows": rows})
    ref = oracles.TableFamilyRows(knots, rows)
    grids = np.unique(np.concatenate([g for g, _ in rows]))
    pis = np.concatenate([grids, 0.5 * (grids[1:] + grids[:-1]), np.nextafter(grids, -np.inf),
                          np.nextafter(grids, np.inf), [-1.0, 4.0]])
    thetas = np.concatenate([knots, data.draw(st.lists(st.floats(1.0, 2.0), max_size=4))])
    p2, t2 = np.broadcast_arrays(pis[None, :], thetas[:, None])
    want = ref.values(p2.ravel(), t2.ravel())
    for name, values in want.items():
        method = getattr(fam, name)
        assert np.array_equal(method(pis[None, :], thetas[:, None]).ravel(), values), name
        assert np.array_equal(method(p2.ravel(), t2.ravel()), values), name
        assert method(float(pis[3]), float(thetas[-1])) == values[-pis.size + 3], name
    g, g2 = fam.cdf_and_dtheta(p2.ravel(), t2.ravel())
    assert np.array_equal(g, want["cdf"]) and np.array_equal(g2, want["dcdf_dtheta"])


def test_table_family_locates_each_income_once_per_row_pair(monkeypatch):
    fam = _families()[2][1]   # type knots 1, 1.4, 2
    sizes = []
    cells = dist._cells
    monkeypatch.setattr(dist, "_cells",
                        lambda xp, guide, x: sizes.append(np.size(x)) or cells(xp, guide, x))
    pi = np.linspace(-0.5, 3.5, 101)
    # types inside one knot interval, then types across both
    for theta in (1.2, np.linspace(1.1, 1.9, 101)):
        for method in (fam.cdf, fam.pdf, fam.dcdf_dtheta, fam.cdf_and_dtheta, fam.g2_over_g):
            sizes.clear()
            method(pi, theta)
            assert sum(sizes) == pi.size, method.__name__


@pytest.mark.parametrize("method", ["cdf", "pdf", "g2_over_g", "dcdf_dtheta", "cdf_and_dtheta"])
def test_table_family_shared_income_grid_equals_the_broadcast(monkeypatch, method):
    # types across both knot intervals on one grid of incomes (as check's
    # 128 x 128 grid): each interval's rows are evaluated once on the grid,
    # bit for bit the evaluation at every (type, income) pair
    fam = _families()[2][1]   # type knots 1, 1.4, 2
    pi = np.concatenate([np.linspace(-0.5, 3.5, 101), np.nextafter([0.4, 2.4], np.inf),
                         [0.0, -0.0, np.nan]])
    theta = np.concatenate([np.linspace(1.0, 2.0, 23), np.nextafter([1.4, 2.0], 0.0)])
    sizes = []
    pair_cells = dist.TableIncomeFamily._pair_cells
    monkeypatch.setattr(dist.TableIncomeFamily, "_pair_cells", lambda self, j, p: (
        sizes.append(np.size(p)) or pair_cells(self, j, p)))
    p2, t2 = np.broadcast_arrays(pi[None, :], theta[:, None])
    want = getattr(fam, method)(p2.ravel(), t2.ravel())   # one point per pair
    want = [np.reshape(w, p2.shape) for w in (want if method == "cdf_and_dtheta" else (want,))]
    at = fam.locate_types(theta)
    # the shared layouts (types' axes first) and a transposed one, which
    # takes the incomes of each interval's pairs
    n, m = theta.size, pi.size
    for args, shape, shared in (((pi, theta[:, None]), (n, m), True),
                                ((pi[None, :], at[:, None]), (n, m), True),
                                ((pi[None, None, :], theta[None, :, None]), (1, n, m), True),
                                ((pi[:, None], theta[None, :]), (m, n), False)):
        sizes.clear()
        got = getattr(fam, method)(*args)
        got = got if method == "cdf_and_dtheta" else (got,)
        for g, w in zip(got, want):
            assert np.shape(g) == shape, method
            g = g.reshape(n, m) if shared else g.T
            assert np.array_equal(g.view(np.int64), w.view(np.int64)), (method, shape)
        assert sum(sizes) == (2 * m if shared else m * n)
    # one income for all types: both intervals' rows at that income alone
    sizes.clear()
    got = getattr(fam, method)(pi[3], theta)
    got = got if method == "cdf_and_dtheta" else (got,)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w[:, 3].view(np.int64)), method
    assert sizes == [1, 1]


def test_table_family_mixes_row_terms_into_given_arrays():
    # the kernels' blocks mix one interval's row terms into one reused pair
    # of arrays: bit for bit the fresh mixture, whatever the pair held (the
    # ratio is 0 where the mixed pdf vanishes, beyond both rows' supports)
    fam = _families()[2][1]   # type knots 1, 1.4, 2
    pi = np.concatenate([np.linspace(-0.5, 3.5, 65), [np.nan]])
    theta = fam.locate_types(np.linspace(1.0, 1.4, 9, endpoint=False))[:, None]
    terms = fam.row_terms(0, pi)
    for mix in (fam.mix_terms, fam.mix_ratio):
        want = mix(terms, theta)
        assert want.shape == (9, pi.size) and np.any(want == 0.0)
        out = (np.full(want.shape, np.nan), np.full(want.shape, -7.0))
        got = mix(terms, theta, out)
        assert any(got is o for o in out)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), mix.__name__
    assert np.array_equal(fam.mix_ratio(terms, theta), fam.g2_over_g(pi, theta))
    # where the mixed pdf is not positive (a rounding dip below 0 in one row
    # here) the ratio is 0, also where the scratch array held another value
    rows = SimpleNamespace(pdfs=(np.array([-1.0, 1.0]), np.array([0.5, 1.0])),
                           dtheta=np.array([1.0, 1.0]))
    w = np.array([[0.5]])
    for out in (None, (np.full((1, 2), 3.0), np.full((1, 2), 3.0))):
        assert fam._ratio(rows, w, out).tolist() == [[0.0, 1.0]]


@pytest.mark.parametrize("points", [2, 4, 32])
def test_gl_segments_equal_the_broadcast_rule(points):
    # the per-point passes of short rules make the same products and sums
    rule = np.polynomial.legendre.leggauss(points)
    rng = np.random.default_rng(points)
    for shape in ((), (7,), (5, 9)):
        a = rng.uniform(-2.0, 2.0, shape)
        b = a + rng.uniform(-0.5, 3.0, shape)   # some empty segments
        half = 0.5 * np.maximum(b - a, 0.0)
        mid = 0.5 * (a + np.maximum(b, a))
        nodes, wts = _gl_segments(a, b, rule)
        assert np.array_equal(nodes, mid[..., None] + half[..., None] * rule[0])
        assert np.array_equal(wts, half[..., None] * rule[1])


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


def _symmetric_rows(draw, knots):
    """One row per type knot t: a law symmetric about t on [t - 1, t + 1]
    (so its mean is t), tabulated on an odd number of evenly spaced
    points: linear, a tent, or a smoothstep, whose cells are curved."""
    n = draw(st.sampled_from([3, 5, 11, 21]))
    shape = draw(st.sampled_from(["linear", "tent", "smoothstep"]))
    z = np.linspace(0.0, 1.0, n)
    cdf = {"linear": z, "tent": np.where(z < 0.5, 2 * z * z, 1 - 2 * (1 - z) ** 2),
           "smoothstep": z * z * (3 - 2 * z)}[shape]
    return [(np.linspace(t - 1.0, t + 1.0, n), cdf) for t in knots]


@st.composite
def _table_families(draw):
    """Tabulated families on 2-5 type knots in [1, 2]: the additive
    family's uneven linear rows, or curved symmetric rows."""
    knots, rows = draw(_additive_table_families())
    if draw(st.booleans()):
        rows = _symmetric_rows(draw, knots)
    return knots, rows


@given(table=_table_families(), data=st.data())
@example(table=([1.0, 1.4, 2.0], [(np.linspace(t - 1, t + 1, 11),
                                    np.where(np.linspace(0, 1, 11) < 0.5,
                                             2 * np.linspace(0, 1, 11) ** 2,
                                             1 - 2 * (1 - np.linspace(0, 1, 11)) ** 2))
                                   for t in (1.0, 1.4, 2.0)]), data=None)
@settings(max_examples=60, deadline=None)
def test_table_family_ppf_inverts_the_mixture(table, data):
    # max |G(ppf(u | theta) | theta) - u| <= 1e-12 at every u in [0, 1]: G
    # is continuous, so this holds in its flat pieces too (at a knot the
    # support spans the next row's, where G is 1), and the ends are exact
    knots, rows = table
    fam = make_income_family("table", {"theta_grid": knots, "rows": rows})
    tiny = [0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, np.nextafter(1.0, 0.0), 1.0]
    u = np.array(tiny + ([] if data is None else
                         data.draw(st.lists(st.floats(0.0, 1.0), max_size=30))))
    thetas = np.concatenate([knots, np.nextafter(knots[1:], 0.0),
                             [] if data is None else data.draw(
                                 st.lists(st.floats(1.0, 2.0), max_size=4))])
    uu, tt = (a.ravel() for a in np.meshgrid(u, thetas))
    x = fam.ppf(uu, tt)
    assert np.all(fam.supp_lo(tt) <= x) and np.all(x <= fam.supp_hi(tt))
    assert np.max(np.abs(fam.cdf(x, tt) - uu)) <= 1e-12
    assert np.array_equal(x[uu == 0.0], fam.supp_lo(tt[uu == 0.0]))
    assert np.array_equal(x[uu == 1.0], fam.supp_hi(tt[uu == 1.0]))
    # each draw's quantile depends on that draw alone
    assert np.array_equal(x, [fam.ppf(float(a), float(t)) for a, t in zip(uu, tt)])


def test_cubic_roots_settle_flat_and_linear_cells():
    # rows: a line, s^3 reaching 1e-30 (flat at the root, so plain Newton
    # crawls and the safeguarded steps finish), and (s - 0.5)^3 + 0.125 at
    # its triple root; each row's result is the one it gets alone
    coef = np.array([[0.2, 0.0, 0.125], [0.5, 0.0, 0.75], [0.0, 0.0, -1.5], [0.0, 1.0, 1.0]])
    u = np.array([0.45, 1e-30, 0.125])
    h = np.array([1.0, 1.0, 1.0])
    s = np.array([0.5, 1e-30, 0.125])
    got = dist._cubic_roots(coef, u, h, s.copy())
    c0, c1, c2, c3 = coef
    assert np.all(np.abs(((c3 * got + c2) * got + c1) * got + c0 - u) <= dist._CDF_TOL)
    assert np.all((0.0 <= got) & (got <= h)) and got[0] == 0.5
    for k in range(3):
        assert dist._cubic_roots(coef[:, k:k + 1], u[k:k + 1], h[k:k + 1],
                                 s[k:k + 1].copy())[0] == got[k]


def _quantile_laws():
    """Every law with a quantile: the uniform, triangular and tabulated
    type laws (as ``TypeDist``), and the income families over them, with
    their types."""
    tab = _families()[2][1]
    return [("uniform", make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}), None),
            ("triangular", make_type_dist("triangular", {"lo": -1.0, "hi": 1.0, "mode": 0.3}),
             None),
            ("table", make_type_dist("table", _tent_error()), None),
            ("additive_table_error",
             make_income_family("additive_error", {"error": _tent_error()}), (1.0, 2.0)),
            ("scaled", make_income_family("scaled_error", UNIT_ERR), (0.5, 1.0)),
            ("table_income", tab, (1.0, 2.0))]


@given(u=st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
           [0.0, -0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0)), -5e-324,
            float(np.nextafter(1.0, 2.0))]),
       at=st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.4, 1.0]))
@settings(max_examples=150, deadline=None)
def test_every_quantile_is_nan_outside_the_unit_interval_and_exact_at_its_ends(u, at):
    for name, law, types in _quantile_laws():
        if types is None:
            lo, hi, ppf = law.lo, law.hi, law.ppf
        else:
            theta = types[0] + at * (types[1] - types[0])
            lo, hi = float(law.supp_lo(theta)), float(law.supp_hi(theta))
            ppf = lambda q, law=law, theta=theta: law.ppf(q, theta)  # noqa: E731
        got = ppf(u)
        assert isinstance(got, float), name
        assert np.array_equal(np.asarray(ppf(np.array([u, u]))), [got, got], equal_nan=True)
        if not 0.0 <= u <= 1.0:
            assert np.isnan(got), name
        elif u == 0.0:
            assert got == lo, name
        elif u == 1.0:
            assert got == hi, name
        else:
            assert lo <= got <= hi, name


@given(table=_cdf_tables(), u=st.lists(st.floats(0.0, 1.0), max_size=40))
@settings(max_examples=100, deadline=None)
def test_table_ppf_is_np_interp_of_its_inverse_table(table, u):
    # the guide-table search finds np.interp's cell, and the interpolation
    # is np.interp's arithmetic, bit for bit; the table is built on the
    # first quantile
    grid, values = table
    law = make_type_dist("table", {"grid": grid, "cdf": values})._backend
    assert "_inverse" not in vars(law)
    u = np.concatenate([u, np.linspace(0.0, 1.0, 257)])
    got = law.ppf(u)
    inv_f, inv_x, _ = law._inverse
    want = np.interp(u, inv_f, inv_x)
    inner = u < 1.0
    assert np.array_equal(got[inner], want[inner])
    assert np.all(got[~inner] == law.hi)


def test_table_income_rows_build_no_inverse_table():
    # a tabulated family's rows are sampled through the family's own
    # inversion, never through their ppf
    fam = _families()[2][1]
    inst = AuctionInstance((AgentSpec(make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}),
                                      fam, 0.0, 0.5),))
    tables_for(inst)
    estimate_revenue(inst, None, 1000, 0)
    assert not any("_inverse" in vars(r) for r in fam._rows)
    assert all(v.size < 8193 for r in fam._rows for v in vars(r).values()
               if isinstance(v, np.ndarray))


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

    class Degenerate(dist.IncomeFamily):   # income is the type itself
        def supp_lo(self, theta):
            return np.asarray(theta, dtype=float)

        supp_hi = supp_lo

    with pytest.raises(ConstructionError, match="nondegenerate on the interior"):
        AgentSpec(u12, Degenerate({}), 0.1, 0.5)


def _additive_rows(knots):
    """41-point rows of the additive family theta + U[-1, 1], one per knot."""
    return [(g, (g - g[0]) / 2.0) for g in (np.linspace(t - 1.0, t + 1.0, 41) for t in knots)]


@pytest.mark.parametrize("family,params,match", [
    ("table", {"grid": [1.0], "cdf": [0.0]}, "matching 1-d grids"),
    ("table", {"grid": [1.0, 2.0], "cdf": [0.0, 0.5, 1.0]}, "matching 1-d grids"),
    ("table", {"grid": [1.0, 1.0, 2.0], "cdf": [0.0, 0.5, 1.0]}, "strictly increasing"),
    ("triangular", {"lo": 1.0, "hi": 1.0}, "lo < hi"),
])
def test_type_law_construction_errors(family, params, match):
    with pytest.raises(ConstructionError, match=match):
        make_type_dist(family, params)


@pytest.mark.parametrize("family,params,match", [
    ("table", {"theta_grid": [2.0, 1.0], "rows": _additive_rows([2.0, 1.0])},
     "theta grid must be strictly increasing"),
    ("table", {"theta_grid": [1.0, 1.4, 2.0], "rows": _additive_rows([1.0, 2.0])},
     "one row per theta knot"),
    ("table", {"theta_grid": [0.5, 1.0], "rows": _additive_rows([0.5, 1.0])},
     "ordered nonnegative supports"),
    ("table", {"theta_grid": [1.0, 1.5], "rows": _additive_rows([1.0, 2.0])},
     "row 1 has mean 2"),
    ("additive_error", {"error": {"family": "uniform", "lo": 0.0, "hi": 1e-8}},
     "straddle zero"),
    ("lognormal", {}, "unknown income family"),
])
def test_income_family_rejections(family, params, match):
    with pytest.raises(ConstructionError, match=match):
        make_income_family(family, params)


def test_agent_rejects_unbounded_income_support(ua_agent):
    # pi = theta - 1 + Exp(1): nothing in the mechanism copes with an
    # infinite support end (it was cut at the 1 - 1e-10 quantile, and check,
    # payoff_bound and the IC certificate then disagreed with the draws)
    class ShiftedExponential:
        lo, hi, mean = -1.0, np.inf, 0.0
        knots = np.array([-1.0])

        def cdf(self, x):
            return -np.expm1(-np.maximum(np.asarray(x, dtype=float) + 1.0, 0.0))

        def pdf(self, x):
            x = np.asarray(x, dtype=float)
            return np.where(x >= -1.0, np.exp(-(x + 1.0)), 0.0)

        def ppf(self, q):
            return -np.log1p(-np.asarray(q, dtype=float)) - 1.0

    fam = dist.AdditiveErrorFamily(ShiftedExponential(), {})
    assert np.isinf(fam.supp_hi(1.5)) and fam.cdf(fam.ppf(0.5, 1.5), 1.5) == pytest.approx(0.5)
    with pytest.raises(ConstructionError, match="finite"):
        AgentSpec(ua_agent.types, fam, 0.2, 0.5)


# ---------------------------------------------------------------------------
# Bisection
# ---------------------------------------------------------------------------

def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


@given(lo=st.floats(-1e3, 1e3), width=st.floats(0.0, 1e3) | st.just(5e-324),
       roots=st.lists(st.floats(-0.5, 1.5), max_size=20), steps=st.integers(0, 120),
       rule=st.sampled_from(["less", "less_equal", "scrambled"]), scalar=st.booleans(),
       size=st.sampled_from([None, 1, 2, 40, 300, 5000]))
@example(lo=0.0, width=1.0, roots=[], steps=64, rule="less", scalar=False, size=None)
@example(lo=-0.0, width=0.0, roots=[0.5], steps=64, rule="less_equal", scalar=False, size=None)
@settings(max_examples=200, deadline=None)
def test_bisect_stopping_at_its_fixpoint_equals_the_fixed_step_loop(lo, width, roots, steps,
                                                                   rule, scalar, size):
    # a step is a function of the brackets alone, so stopping once a step
    # moves no bracket changes no bit: monotone or not, empty or scalar.
    # ``size`` brackets (the roots repeated, each bracket its own width) take
    # every number of levels per predicate call, 8 at one bracket to 1 at 300
    if size is not None and not scalar:
        roots = np.resize(np.array(roots or [0.5]), size)
    a = lo if scalar else np.full(len(roots), lo)
    b = lo + width if scalar else a + width * (
        1.0 if size is None else np.linspace(1.0, 0.5, len(roots)))
    target = lo + width * (np.array(roots[:1] or [0.5]) if scalar else np.array(roots))
    below = {"less": lambda m: m < target,
             "less_equal": lambda m: m <= target,
             "scrambled": lambda m: np.asarray(m).view(np.int64) % 3 != 0}[rule]
    got = dist._bisect(below, a, b, steps)
    assert _same_bits(got, oracles.bisect(below, a, b, steps))


def test_bisect_stops_once_the_brackets_stop_moving():
    # a deterministic cost guard: [0, 1] narrows to adjacent floats around
    # 0.3 (spacing 2^-54) in 54 steps and the 55th moves nothing.  A scalar
    # bracket's first call takes one level, every later one 8 (255 points),
    # so level 55 falls in the eighth call; an empty bracket array takes one
    # call.  No call sees more than max(n, 256) points for n brackets
    calls = []

    def below(m):
        calls.append(np.size(m))
        return m < 0.3

    assert _same_bits(dist._bisect(below, 0.0, 1.0, 200),
                      oracles.bisect(lambda m: m < 0.3, 0.0, 1.0, 200))
    assert calls == [1] + [255] * 7
    calls.clear()
    assert dist._bisect(below, np.empty(0), np.empty(0), 64).size == 0
    assert len(calls) == 1
    for n in (1, 2, 40, 129, 300, 5000):
        calls.clear()
        dist._bisect(below, np.zeros(n), np.linspace(0.5, 1.0, n), 64)
        assert max(calls) <= max(n, dist._BISECT_POINTS) == max(n, 256), n
