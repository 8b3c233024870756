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
    AuctionInstance,
    ConstructionError,
    DomainError,
    estimate_revenue,
    inverse_hazard,
    make_income_family,
    make_type_dist,
    project_to_support,
    tables_for,
)
from royaltycap import dist, mech
from royaltycap.dist import _cells, _distinct, _gl_segments, _guide_table, _pchip_coefficients
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
    law = make_type_dist("table", {"grid": grid, "cdf": values})
    ref = oracles.PchipTableCdf(grid, values)
    lo, hi = grid[0], grid[-1]
    x = np.concatenate([grid, 0.5 * (grid[1:] + grid[:-1]), np.linspace(lo, hi, 257),
                        [np.nextafter(lo, np.inf), np.nextafter(hi, -np.inf),
                         lo - 1.0, hi + 1.0]])
    assert np.array_equal(law.cdf(x), ref.cdf(x))
    assert np.array_equal(law.pdf(x), ref.pdf(x))
    inverse = law._lookup
    assert np.array_equal(inverse.xp, ref.inv_f) and np.array_equal(inverse.fp["x"], ref.inv_x)
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


def test_table_family_one_interval_equals_a_block_across_two():
    # knots 1, 1.4, 2: types inside the first interval (one row pair) give
    # the same values as inside a block that spans both intervals
    fam = _families()[2][1]
    inside = np.linspace(1.05, 1.35, 9)
    across = np.concatenate([inside, np.linspace(1.5, 1.8, 7)])
    for method in (fam.cdf, fam.pdf, fam.g2_over_g):
        assert np.array_equal(method(1.6, inside), method(1.6, across)[:9]), method.__name__


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
        mass, _ = quad(lambda x: -oracles.dcdf_dtheta(fam, x, th), lo, hi,
                       epsabs=1e-12, epsrel=1e-10)
        assert mass == pytest.approx(1.0, rel=1e-8)
        mean, _ = quad(lambda x: x * fam.pdf(x, th), lo, hi,
                       epsabs=1e-12, epsrel=1e-10)
        assert mean == pytest.approx(th, rel=1e-8)


@pytest.mark.parametrize("name,fam,rng", _families() + [
    ("additive_table_error", make_income_family("additive_error", {"error": _tent_error()}),
     (1.0, 2.0)),
    ("scaled_triangular_error", make_income_family(
        "scaled_error", {"error": {"family": "triangular", "lo": -1.0, "hi": 1.0,
                                   "mode": 0.0}}), (0.5, 1.0))])
def test_dcdf_dtheta_matches_finite_difference(name, fam, rng):
    # G_theta = g2_over_g * pdf, the ratio every audit surplus reads, against
    # a fourth-order centered difference of the cdf with h = 1e-4 at 50
    # interior points (the two-point difference is 1.2e-5 off at a scaled
    # type of 0.9, where G_theta is -7.6).  Points stay away from the top of
    # the type range, where a shrinking support makes the oracle's own
    # truncation error exceed the tolerance.
    h = 1e-4
    tol = max(1e-6, 1e3 * h * h)
    rs = np.random.default_rng(7)
    thetas = rng[0] + (rng[1] - rng[0]) * rs.uniform(0.1, 0.8, 50)
    worst = 0.0
    for th in thetas:
        lo, hi = float(fam.supp_lo(th)), float(fam.supp_hi(th))
        pi = lo + (hi - lo) * rs.uniform(0.1, 0.9)
        fd = (8 * (fam.cdf(pi, th + h) - fam.cdf(pi, th - h))
              - (fam.cdf(pi, th + 2 * h) - fam.cdf(pi, th - 2 * h))) / (12 * h)
        worst = max(worst, abs(fd - float(fam.g2_over_g(pi, th) * fam.pdf(pi, th))))
    assert worst <= tol


@pytest.mark.parametrize("name,fam,rng", _families())
def test_income_fosd(name, fam, rng):
    thetas = np.linspace(rng[0], rng[1], 33)
    lo = float(np.min(np.asarray(fam.supp_lo(thetas))))
    hi = float(np.max(np.asarray(fam.supp_hi(thetas))))
    pis = np.linspace(lo, hi, 65)
    mat = np.asarray(fam.cdf(pis[None, :], thetas[:, None]))
    assert np.all(np.diff(mat, axis=0) <= 1e-9)


@st.composite
def _audit_region_cases(draw):
    """An income family with its type and an audit-region top b: additive or
    scaled errors (uniform, triangular with the mode at lo, inside or at hi,
    or a symmetric table law), or a tabulated copy of theta + U[-1, 1]; b
    below supp_lo, inside the support or at supp_hi (the scaled family also
    at its top type theta = 1)."""
    kind = draw(st.sampled_from(["additive_error", "scaled_error", "table"]))
    if kind == "table":
        knots = [1.0, draw(st.sampled_from([1.25, 1.4, 1.5])), 2.0]
        rows = [(g, (g - g[0]) / 2.0) for g in (np.linspace(t - 1.0, t + 1.0, 41) for t in knots)]
        fam = make_income_family("table", {"theta_grid": knots, "rows": rows})
        theta = draw(st.floats(1.0, 2.0) | st.sampled_from(knots))
    else:
        a = draw(st.floats(0.05, 1.0))
        law = draw(st.sampled_from(["uniform", "lo", "inside", "hi", "table"]))
        if law == "uniform":
            err = {"family": "uniform", "lo": -a, "hi": a}
        elif law == "table":
            g = np.linspace(-a, a, 2 * draw(st.integers(1, 7)) + 1)
            tent = np.where(g < 0, 0.5 * (g / a + 1) ** 2, 1 - 0.5 * (1 - g / a) ** 2)
            w = draw(st.floats(0.0, 1.0))
            err = {"family": "table", "grid": g, "cdf": w * (g + a) / (2 * a) + (1 - w) * tent}
        else:   # mean zero: lo + mode + hi = 0
            b = {"lo": 2 * a, "hi": 0.5 * a, "inside": draw(st.floats(0.6, 1.9)) * a}[law]
            err = {"family": "triangular", "lo": -a, "hi": b, "mode": a - b}
        if kind == "scaled_error" and make_type_dist(err["family"], err).hi > 1.0:
            # -G_theta/g = 1 - z is negative past z = 1: the scaled family
            # refuses the law, which the additive family then takes
            with pytest.raises(ConstructionError):
                make_income_family(kind, {"error": err})
            kind = "additive_error"
        fam = make_income_family(kind, {"error": err})
        # z = (b - theta) / s carries a rounding error of about 1e-16 / s,
        # so the scaled family's inner types keep s = 1 - theta >= 1e-3
        theta = draw(st.floats(0.0, 0.999) | st.just(1.0)) if kind == "scaled_error" \
            else draw(st.floats(0.0, 3.0))
    lo, hi = float(fam.supp_lo(theta)), float(fam.supp_hi(theta))
    where = draw(st.sampled_from(["below", "inside", "top"]))
    b = {"below": lo - draw(st.floats(0.0, 1.0)), "top": hi,
         "inside": lo + draw(st.floats(0.0, 1.0)) * (hi - lo)}[where]
    return fam, theta, b


@given(case=_audit_region_cases())
@settings(max_examples=200, deadline=None)
def test_audit_region_matches_adaptive_quadrature(case):
    # the closed forms in the error law's antiderivative (additive and
    # scaled errors) and in the tabulated rows' quartic antiderivatives give
    # G(b), int -G_theta and int (1 - G) over [supp_lo, b'] as quad does
    fam, theta, b = case
    got = fam.audit_region(np.array([theta]), np.array([b]))
    want = oracles.audit_region(fam, theta, b)
    for g, w in zip(got, want):
        assert np.shape(g) == (1,)
        assert abs(float(g[0]) - w) <= 1e-12, (got, want)


@pytest.mark.parametrize("name,i", [("scaled_uniform", 0), ("scaled_triangular", 0),
                                    ("mixed_pair", 1)])
def test_scaled_threshold_formula_matches_the_bisection(shipped_instances, name, i):
    # pi_star = 1 - c s / (ih phi) where auditing pays at the bottom only,
    # against the 64-step bisection of the audit surplus that it replaces,
    # at every type of the agent's table grid
    agent = shipped_instances[name].agents[i]
    t = mech._Types.of(agent, tables_for(shipped_instances[name]).agents[i].theta)
    at_lo, at_hi = mech._edge_pays(agent, t)
    tk = t[np.flatnonzero(at_lo & ~at_hi)]
    assert len(tk) > 1000
    bisected = dist._bisect(lambda m: mech._audit_surplus(agent, tk.theta, m, tk.ih) >= 0,
                            tk.lo, tk.hi, 64)
    assert np.all(np.abs(mech._pi_star_vec(agent, tk) - bisected)
                  <= 2 * np.spacing(np.abs(bisected)))


class _PerFamilyFormulas:
    """The additive and scaled families' formulas as each class wrote them
    before they shared one location-scale implementation: the reference
    that the shared one must equal bit for bit."""

    def __init__(self, err, scaled):
        self.err, self.scaled = err, scaled

    def supp(self, theta):
        e = self.err
        if not self.scaled:
            return theta + e.lo, theta + e.hi
        return theta + (1.0 - theta) * e.lo, theta + (1.0 - theta) * e.hi

    def _standard(self, pi, theta):
        s = 1.0 - theta
        safe = np.where(s > 0, s, 1.0)
        return s, safe, (pi - theta) / safe

    def cdf(self, pi, theta):
        if not self.scaled:
            return self.err.cdf(pi - theta)
        s, _, z = self._standard(pi, theta)
        return np.where(s > 0, self.err.cdf(z), (pi >= theta).astype(float))

    def pdf(self, pi, theta):
        if not self.scaled:
            return self.err.pdf(pi - theta)
        s, safe, z = self._standard(pi, theta)
        return np.where(s > 0, self.err.pdf(z) / safe, 0.0)

    def audit_region(self, theta, b):
        e = self.err
        if not self.scaled:
            z = np.clip(b - theta, e.lo, e.hi)
            h = e.cdf(z)
            return h, h, (z - e.lo) - e.cdf_integral(z)
        s, _, z = self._standard(b, theta)
        z = np.clip(z, e.lo, e.hi)
        h, k, top = e.cdf(z), e.cdf_integral(z), s == 0
        return (np.where(top, b >= theta, h), np.where(top, 0.0, h * (1.0 - z) + k),
                s * ((z - e.lo) - k))

    def ppf(self, u, theta):
        x = self.err.ppf(u)
        return theta + x if not self.scaled else theta + (1.0 - theta) * x


@st.composite
def _error_family_cases(draw):
    """An additive or scaled family over a uniform, triangular (random mode,
    the ends included) or table error law, types (the scaled family's top
    type 1 included), incomes below, inside and above each type's support
    and at its ends, and quantile levels in and outside [0, 1].  The drawn
    law is moved to mean zero, and a scaled one shrunk to end at 1 at most,
    as the family constructors require."""
    lo, hi = -draw(st.floats(0.01, 2.0)), draw(st.floats(0.01, 2.0))
    law = draw(st.sampled_from(["uniform", "triangular", "table"]))
    if law == "uniform":
        knots, fixed = {"lo": lo, "hi": hi}, {}
    elif law == "triangular":
        frac = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
        knots, fixed = {"lo": lo, "hi": hi, "mode": min(lo + frac * (hi - lo), hi)}, {}
    else:
        grid, values = draw(_cdf_tables())
        knots, fixed = {"grid": grid}, {"cdf": values}

    def moved(shift, scale):
        return make_type_dist(law, {**fixed, **{k: (v - shift) * scale for k, v in knots.items()}})

    scaled = draw(st.booleans())
    mean = moved(0.0, 1.0).mean
    err = moved(mean, 1.0)
    if scaled and err.hi > 1.0:
        err = moved(mean, 0.5 / err.hi)
    cls = dist.ScaledErrorFamily if scaled else dist.AdditiveErrorFamily
    n = draw(st.integers(1, 8))
    types = (st.floats(0.0, 1.0) | st.just(1.0)) if scaled else st.floats(-3.0, 3.0)
    theta = np.array(draw(st.lists(types, min_size=n, max_size=n)))
    where = np.array(draw(st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]),
                                   min_size=n, max_size=n)))
    ref = _PerFamilyFormulas(err, scaled)
    s_lo, s_hi = ref.supp(theta)
    pi = s_lo + where * (s_hi - s_lo)
    u = np.array(draw(st.lists(st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1.0]),
                               min_size=n, max_size=n)))
    return cls(err, {}), ref, theta, pi, u


@given(case=_error_family_cases())
@settings(max_examples=300, deadline=None)
def test_error_families_keep_the_per_family_formulas_bit_for_bit(case):
    # the shared location-scale formulas (s = 1 or 1 - theta, slope 0 or -1)
    # give every bit the per-family ones gave, on arrays and on scalars
    fam, ref, theta, pi, u = case
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for at in (slice(None), 0):
            th, p, q = theta[at], pi[at], u[at]
            pairs = [(fam.supp_lo(th), ref.supp(th)[0]), (fam.supp_hi(th), ref.supp(th)[1]),
                     (fam.cdf(p, th), ref.cdf(p, th)), (fam.pdf(p, th), ref.pdf(p, th)),
                     (fam.ppf(q, th), ref.ppf(q, th))]
            pairs += zip(fam.audit_region(th, p), ref.audit_region(th, p))
            for got, want in pairs:
                assert _same_bits(np.asarray(got, dtype=float), np.asarray(want, dtype=float))


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
    assert float(oracles.dcdf_dtheta(fam, 0.6, 0.6)) == pytest.approx(
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
    # the search from start cells at or below each point's own, 0 to 3 cells
    # below it (as ``_Grid.locate`` is given them), of the points ``_cells``
    # searches: clipped below the grid's top
    below = np.maximum(oracles.cell(xp, x) - np.arange(x.size) % 4, 0)
    xs = np.clip(x, lo, np.nextafter(hi, -np.inf))
    out = (np.empty(x.size, np.intp), np.empty(x.size))
    assert np.array_equal(dist._search(xp, guide, xs, below, out), oracles.cell(xp, x))
    assert np.array_equal(_cells(xp, guide, x[:4].reshape(2, 2)),
                          oracles.cell(xp, x[:4].reshape(2, 2)))
    assert _cells(xp, guide, x[0]).shape == () and _cells(xp, guide, x[0]) == oracles.cell(xp, x[0])


@given(steps=st.lists(st.floats(1e-9, 5.0) | st.just(1e9), min_size=1, max_size=60),
       start=st.floats(-10.0, 10.0))
@example(steps=[1.0], start=0.0)
@example(steps=[1e9] + [0.5] * 20, start=0.0)
@settings(max_examples=200, deadline=None)
def test_guide_table_counts_match_binary_search(steps, start):
    # counting the grid points by bucket gives the binary search's indices
    xp = np.unique(start + np.concatenate([[0.0], np.cumsum(steps)]))
    if xp.size < 2:
        return
    assert np.array_equal(_guide_table(xp), oracles.guide_table(xp))


def test_guide_tables_of_shipped_grids_match_binary_search(shipped_instances):
    for name, inst in shipped_instances.items():
        for types, values in tables_for(inst).grids:
            assert np.array_equal(types.guide, oracles.guide_table(types.xp)), name
            assert np.array_equal(values.guide, oracles.guide_table(values.xp)), name


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


def _table_points(table, data):
    """A family from ``table``, its oracle, and a (type, income) grid: the
    type knots and up to 4 drawn types by every row income, the midpoints
    between them, their neighbouring floats and two incomes off the
    supports."""
    knots, rows = table
    fam = make_income_family("table", {"theta_grid": knots, "rows": rows})
    grids = np.unique(np.concatenate([g for g, _ in rows]))
    pis = np.concatenate([grids, 0.5 * (grids[1:] + grids[:-1]), np.nextafter(grids, -np.inf),
                          np.nextafter(grids, np.inf), [-1.0, 4.0]])
    thetas = np.concatenate([knots, data.draw(st.lists(st.floats(1.0, 2.0), max_size=4))])
    return fam, oracles.TableFamilyRows(knots, rows), pis, thetas


def _table_method(fam, name):
    """The family's method ``name`` of ``TableFamilyRows.values``;
    dG/dtheta is ``g2_over_g * pdf``."""
    if name == "dcdf_dtheta":
        return lambda pi, theta: oracles.dcdf_dtheta(fam, pi, theta)
    return getattr(fam, name)


@given(table=_additive_table_families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_family_matches_row_by_row_oracle(table, data):
    # bit for bit, what the family computes without a root search: each
    # type's support ends; G, g, dG/dtheta = g2_over_g * g and -D off the
    # support; and at each type knot Q at the row's cdf column, which is the
    # row's incomes.  Each point alone, the flat and the broadcast layout
    # agree
    knots, rows = table
    fam, ref, pis, thetas = _table_points(table, data)
    assert np.array_equal(fam.supp_lo(thetas), [ref.quantile(0.0, t) for t in thetas])
    assert np.array_equal(fam.supp_hi(thetas), [ref.quantile(1.0, t) for t in thetas])
    p2, t2 = (x.ravel() for x in np.broadcast_arrays(pis[None, :], thetas[:, None]))
    outside = (p2 < fam.supp_lo(t2)) | (p2 > fam.supp_hi(t2))
    want = ref.values(p2[outside], t2[outside])
    for name, values in want.items():
        method = _table_method(fam, name)
        got = method(p2, t2)
        assert np.array_equal(got[outside], values), name
        assert np.array_equal(method(pis[None, :], thetas[:, None]).ravel(), got), name
        alone = [method(float(p), float(thetas[-1])) for p in pis]
        assert np.array_equal(alone, got[-pis.size:]), name
    for t, (incomes, cdf) in zip(knots, rows):
        assert np.array_equal(fam.ppf(cdf, np.full(cdf.size, t)), incomes)


@given(table=_additive_table_families(), data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_family_matches_the_quantile_oracle(table, data):
    # against scipy's PCHIP quantiles, mixed, and brentq on the mixture: a
    # root found two ways agrees to rounding, not bit for bit, so the
    # quantile and G to 1e-14, and the pdf, dG/dtheta and their ratio
    # (about 1/2, -1/2 and -1 on these rows) to 1e-12; at each type knot G
    # at the row's incomes is its cdf column to 1e-14 (not bit for bit where
    # two rows' u-knots lie ulps apart)
    knots, rows = table
    fam, ref, pis, thetas = _table_points(table, data)
    for t, (incomes, cdf) in zip(knots, rows):
        assert np.max(np.abs(fam.cdf(incomes, t) - cdf)) <= 1e-14
    p2, t2 = (x.ravel() for x in np.broadcast_arrays(pis[None, :], thetas[:, None]))
    for name, values in ref.values(p2, t2).items():
        tol = 1e-14 if name == "cdf" else 1e-12
        assert np.max(np.abs(_table_method(fam, name)(p2, t2) - values)) <= tol, name
    u = np.linspace(0.0, 1.0, 33)
    for t in thetas:
        want = [ref.quantile(x, t) for x in u]
        assert np.max(np.abs(fam.ppf(u, np.full(u.size, t)) - want)) <= 1e-14


def test_table_family_inverts_only_incomes_inside_the_support(monkeypatch):
    # incomes at or beyond a support end take u = 0 or 1 without a root
    # search, so audit_region at the support's top (a build with c = 0) and
    # at its bottom solves nothing, and cdf solves the inner incomes alone
    fam = _families()[2][1]   # type knots 1, 1.4, 2
    solved = []
    roots = dist._cubic_roots
    monkeypatch.setattr(dist, "_cubic_roots", lambda coef, u, h, s: (
        solved.append(u.size) or roots(coef, u, h, s)))
    theta = np.linspace(1.0, 2.0, 101)
    lo, hi = fam.supp_lo(theta), fam.supp_hi(theta)
    for b in (hi, hi + 1.0, lo, lo - 1.0):
        g, cap, survival = fam.audit_region(theta, b)
        assert np.all(g == (b >= hi))
    assert solved == []
    pi = np.linspace(-0.5, 3.5, 101)
    inner = (pi[None, :] > lo[:, None]) & (pi[None, :] < hi[:, None])
    fam.cdf(pi[None, :], theta[:, None])
    assert solved == [np.count_nonzero(inner)]


@pytest.mark.parametrize("method", ["cdf", "pdf", "g2_over_g"])
def test_table_family_shared_income_grid_equals_the_broadcast(method):
    # types across both knot intervals on one grid of incomes (as check's
    # 128 x 128 grid): bit for bit the evaluation at every (type, income)
    # pair, in any layout of the broadcast
    fam = _families()[2][1]   # type knots 1, 1.4, 2
    pi = np.concatenate([np.linspace(-0.5, 3.5, 101), np.nextafter([0.4, 2.4], np.inf),
                         [0.0, -0.0, np.nan]])
    theta = np.concatenate([np.linspace(1.0, 2.0, 23), np.nextafter([1.4, 2.0], 0.0)])
    p2, t2 = np.broadcast_arrays(pi[None, :], theta[:, None])
    want = np.reshape(getattr(fam, method)(p2.ravel(), t2.ravel()), p2.shape)   # one per pair
    n, m = theta.size, pi.size
    for args, shape, transposed in (((pi, theta[:, None]), (n, m), False),
                                    ((pi[None, None, :], theta[None, :, None]), (1, n, m), False),
                                    ((pi[:, None], theta[None, :]), (m, n), True)):
        got = getattr(fam, method)(*args)
        assert np.shape(got) == shape, method
        got = got.T if transposed else got.reshape(n, m)
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), (method, shape)
    # one income for all types
    got = getattr(fam, method)(pi[3], theta)
    assert np.array_equal(got.view(np.int64), want[:, 3].view(np.int64)), method


def test_table_ratio_crossing_matches_the_surplus_bisection(shipped_instances):
    # a tabulated copy of scaled_uniform's family: where auditing pays at
    # the bottom only, the bisection of D_j(u) = level in u gives the audit
    # threshold that bisecting the audit surplus in income gives
    agent = shipped_instances["scaled_uniform"].agents[0]
    knots = [0.5, 0.7, 0.9]
    rows = [(g, (g - g[0]) / (g[-1] - g[0])) for g in (np.linspace(2 * t - 1, 1.0, 41)
                                                       for t in knots)]
    copy = AgentSpec(make_type_dist("uniform", {"lo": 0.5, "hi": 0.9}),
                     make_income_family("table", {"theta_grid": knots, "rows": rows}),
                     agent.audit_cost, agent.sensitivity)
    t = mech._Types.of(copy, np.linspace(0.5, 0.9, 401))
    at_lo, at_hi = mech._edge_pays(copy, t)
    tk = t[np.flatnonzero(at_lo & ~at_hi)]
    assert len(tk) > 100
    bisected = dist._bisect(lambda m: mech._audit_surplus(copy, tk.theta, m, tk.ih) >= 0,
                            tk.lo, tk.hi, 64)
    assert np.max(np.abs(mech._pi_star_vec(copy, tk) - bisected)) <= 1e-12


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


def test_distinct_equals_numpy_unique():
    # the same values, signed zeros included, bit for bit, without numpy.ma
    rng = np.random.default_rng(3)
    for x in (np.empty(0), np.array([2.0]), np.array([0.0, -0.0, 1.0, -0.0]),
              np.array([-0.0, 0.0]), rng.integers(0, 40, 500) / 7.0, rng.random((30, 20))):
        assert _distinct(x).tobytes() == np.unique(x).tobytes()


# ---------------------------------------------------------------------------
# Sampling and projection
# ---------------------------------------------------------------------------


def test_sampling_matches_conditional_law():
    scaled = make_income_family("scaled_error", UNIT_ERR)
    table = _families()[2][1]
    # G(theta | theta) = 0.5 within 5 sigma: the scaled family at 0.6, and the
    # tabulated family at 1.7, halfway between its rows at 1.4 and 2.0
    for fam, theta, n in ((scaled, 0.6, 200_000), (table, 1.7, 20_000)):
        rng = np.random.default_rng(13)
        draws = np.asarray(fam.ppf(rng.random(n), np.full(n, theta)))
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
    # max |G(ppf(u | theta) | theta) - u| <= 1e-12 at every u in [0, 1],
    # the cdf inverting the quantile cell by cell, and the ends are exact
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
    # rows: a line, s^3 reaching 1e-30 (flat at the root), and
    # (s - 0.5)^3 + 0.125 at its triple root, where Newton's steps shrink
    # the error by a third each; each row's result is the one it gets alone
    coef = np.array([[0.2, 0.0, 0.125], [0.5, 0.0, 0.75], [0.0, 0.0, -1.5], [0.0, 1.0, 1.0]])
    u = np.array([0.45, 1e-30, 0.125])
    h = np.array([1.0, 1.0, 1.0])
    s = np.array([0.5, 1e-30, 0.125])
    got = dist._cubic_roots(coef, u, h, s.copy())
    c0, c1, c2, c3 = coef
    assert np.all(np.abs(((c3 * got + c2) * got + c1) * got + c0 - u) <= dist._ROOT_TOL)
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
    law = make_type_dist("table", {"grid": grid, "cdf": values})
    assert "_lookup" not in vars(law)
    u = np.concatenate([u, np.linspace(0.0, 1.0, 257)])
    got = law.ppf(u)
    want = np.interp(u, law._lookup.xp, law._lookup.fp["x"])
    inner = u < 1.0
    assert np.array_equal(got[inner], want[inner])
    assert np.all(got[~inner] == law.hi)


def test_table_income_rows_build_no_inverse_table():
    # a tabulated family samples its rows' quantiles directly and keeps only
    # its knot intervals' slots, never a dense inverse table
    fam = _families()[2][1]
    inst = AuctionInstance((AgentSpec(make_type_dist("uniform", {"lo": 1.0, "hi": 2.0}),
                                      fam, 0.0, 0.5),))
    tables_for(inst)
    estimate_revenue(inst, None, 1000, 0)
    arrays = [v for v in vars(fam).values() if isinstance(v, np.ndarray)]
    assert arrays and all(v.size < 8193 for v in arrays)


def test_sampling_mean_normalization_additive():
    fam = make_income_family("additive_error", UNIT_ERR)
    rng = np.random.default_rng(5)
    n = 200_000
    draws = np.asarray(fam.ppf(rng.random(n), np.full(n, 1.5)))
    assert abs(draws.mean() - 1.5) <= 3 * draws.std(ddof=1) / np.sqrt(n)


def test_sampling_is_deterministic_given_seed():
    fam = make_income_family("additive_error", UNIT_ERR)
    a = fam.ppf(np.random.default_rng(42).random(100), np.full(100, 1.3))
    b = fam.ppf(np.random.default_rng(42).random(100), np.full(100, 1.3))
    assert np.array_equal(a, b)


def _error_families():
    """The additive and scaled families on uniform, triangular and tabulated
    error laws, with their type ranges."""
    errors = [UNIT_ERR["error"], {"family": "triangular", "lo": -0.5, "mode": -0.5, "hi": 1.0},
              {"family": "table", "grid": np.linspace(-1.0, 1.0, 5),
               "cdf": np.array([0.0, 0.125, 0.5, 0.875, 1.0])}]
    return [(make_income_family(family, {"error": err}), rng)
            for family, rng in (("additive_error", (1.0, 2.0)), ("scaled_error", (0.5, 1.0)))
            for err in errors]


def _bits(x):
    return np.ascontiguousarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("fam,rng", [*_error_families(), (_families()[2][1], (1.0, 2.0))])
def test_income_writes_into_caller_arrays_equal_the_plain_methods(fam, rng):
    # ppf_into, supp_lo_into and supp_hi_into write into the given arrays
    # exactly what the plain methods return (the tabulated family through
    # the base class's copy), quantiles off [0, 1] and NaN included
    lo, hi = rng
    theta = np.linspace(lo, hi, 301)
    u = np.random.default_rng(9).random(theta.size)
    u[:6] = [0.0, 1.0, np.nextafter(1.0, 0.0), -0.5, 1.5, np.nan]
    res, scratch = np.full(theta.size, np.nan), np.full(theta.size, np.nan)
    got = fam.ppf_into(u, theta, out=(res, scratch))
    assert got is res and np.array_equal(_bits(res), _bits(fam.ppf(u, theta)))
    for into, plain in ((fam.supp_lo_into, fam.supp_lo), (fam.supp_hi_into, fam.supp_hi)):
        assert into(theta, res) is res and np.array_equal(_bits(res), _bits(plain(theta)))


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


@pytest.mark.parametrize("cls,family,params,match", [
    # mean zero, but -G_theta/g = 1 - z turns negative above z = 1, so
    # stochastic dominance fails near the top type
    (dist.ScaledErrorFamily, "triangular", {"lo": -1.0, "mode": -0.5, "hi": 1.5},
     "scaled errors must end at or below 1, got 1.5"),
    # mean 0.25: the mean normalization E[pi | theta] = theta fails
    (dist.AdditiveErrorFamily, "uniform", {"lo": -0.5, "hi": 1.0},
     "error distribution must have mean zero, got 0.25"),
    (dist.ScaledErrorFamily, "uniform", {"lo": 0.0, "hi": 1e-8}, "straddle zero"),
])
def test_error_family_constructors_check_the_error_law(cls, family, params, match):
    # the checks live in the constructors, so a family built without
    # make_income_family gets them too
    with pytest.raises(ConstructionError, match=match):
        cls(make_type_dist(family, params), {})


def test_agent_costs_are_real_numbers_kept_as_floats(ua_agent):
    # True used to pass as a cost (and price virtual values at 1.0), and a
    # float32 was refused as "must be >= 0"; any real number but a bool is
    # a cost now, stored as a Python float so no float32 reaches the kernels
    types, income = ua_agent.types, ua_agent.income
    for c, phi in ((True, 0.5), (0.2, False), (np.bool_(True), 0.5), ("0.2", 0.5), (0.2, None)):
        with pytest.raises(ConstructionError, match="must be a real number"):
            AgentSpec(types, income, c, phi)
    a = AgentSpec(types, income, np.float32(0.2), np.int64(1))
    assert (type(a.audit_cost), type(a.sensitivity)) == (float, float)
    assert (a.audit_cost, a.sensitivity) == (float(np.float32(0.2)), 1.0)
    with pytest.raises(ConstructionError, match="audit_cost must be >= 0"):
        AgentSpec(types, income, np.float32(-0.2), 0.5)


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
