import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.integrate import quad

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


def test_table_type_dist_interpolates_monotonically():
    g = np.linspace(1, 2, 9)
    d = make_type_dist("table", {"grid": g, "cdf": g - 1})
    probe = np.linspace(1, 2, 101)
    vals = np.asarray(d.cdf(probe))
    assert np.all(np.diff(vals) >= 0)
    assert d.cdf(1.5) == pytest.approx(0.5, abs=1e-9)
    assert d.ppf(0.25) == pytest.approx(1.25, abs=1e-6)


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


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.integrate"])
def test_import_leaves_scipy_stats_unloaded(module):
    code = f"import sys, royaltycap; print({module!r} in sys.modules)"
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
