"""The two argument rules at every entry point that takes a count, seed,
size, agent index or real parameter: the integer rule (an int or a numpy
integer, never a bool, in [least, bound)) and the real rule (a finite real
number, never a bool, in [lo, hi]; every point of a grid finite).  Types,
type reports, rival values, incomes and quantiles are real numbers, never
bools, at the entry points and at the law objects' own methods alike, but
their support check or the table's clipping takes any that are not finite
(an int beyond the float range reads as +-inf).  numpy
numbers are accepted, and everything else is refused with the package's
error, before any numpy arithmetic could warn."""

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

import royaltycap as rc
from conftest import table_income_agent
from royaltycap import AgentSpec, ConstructionError, DomainError, NoiseModel
from royaltycap.instances import scaled_uniform_agent, uniform_additive_agent

NAN, INF = float("nan"), float("inf")


@pytest.fixture(scope="module")
def f(ua_inst, ua_agent, st_inst, st_agent, pair_inst):
    # st_pair: two scaled_triangular agents, where crossing_point certifies
    # either agent's pair of reports
    return SimpleNamespace(ua=ua_inst, agent=ua_agent, st=st_inst, pair=pair_inst,
                           st_pair=rc.AuctionInstance((st_agent, st_agent)),
                           tables=rc.tables_for(pair_inst))


# name: (call at the value, a valid value, the exclusive upper bound or None)
_COUNTS = {
    "estimate_revenue.n_runs": (lambda f, n: rc.estimate_revenue(f.ua, None, n), 1000, None),
    "estimate_revenue.seed": (lambda f, s: rc.estimate_revenue(f.ua, None, 1000, s), 0, 1 << 128),
    "estimate_revenue.workers": (lambda f, w: rc.estimate_revenue(f.ua, None, 1000, 0, w), 1,
                                 None),
    "sweep.n_runs": (lambda f, n: rc.sweep(lambda v: f.ua, [0.2], n), 1000, None),
    "sweep.seed": (lambda f, s: rc.sweep(lambda v: f.ua, [0.2], 1000, s), 0, 1 << 128),
    "run_rng.seed": (lambda f, s: rc.run_rng(f.ua, s, 0), 0, 1 << 128),
    "run_rng.run_index": (lambda f, r: rc.run_rng(f.ua, 0, r), 0, None),
    "check_regularity.theta_grid_size": (lambda f, n: rc.check_regularity(f.agent, n, 32), 32,
                                         None),
    "check_regularity.pi_grid_size": (lambda f, n: rc.check_regularity(f.agent, 32, n), 32,
                                      None),
    "best_responses.theta_grid": (lambda f, n: rc.best_responses(f.ua, 0, [1.5], n), 64, None),
    "best_response_type.theta_grid": (lambda f, n: rc.best_response_type(f.ua, 0, 1.5, n), 64,
                                      None),
    "best_response_income.grid": (
        lambda f, n: rc.best_response_income(f.ua, 0, 1.6, [], 1.2, grid=n), 2, None),
    "crossing_point.grid": (lambda f, n: rc.crossing_point(f.st, 0, 0.75, 0.8, grid=n), 32, None),
    "noisy_audit_equivalence.n_trials": (
        lambda f, n: rc.noisy_audit_equivalence(f.agent, 1.5, NoiseModel(), n_trials=n), 1000,
        None),
    "noisy_audit_equivalence.seed": (
        lambda f, s: rc.noisy_audit_equivalence(f.agent, 1.5, NoiseModel(), 1000, s), 0, None),
    "comparative_statics_scan.theta_grid": (
        lambda f, n: rc.comparative_statics_scan(f.agent, "c", [0.1, 0.2, 0.3], n), 32, None),
}

# agent indices on the two-agent instance, refused with DomainError
_INDICES = {
    "transfer": lambda f, i: rc.transfer(f.pair, i, [1.5, 0.8]),
    "endogenous_virtual": lambda f, i: rc.endogenous_virtual(f.pair, i, [1.5, 0.8],
                                                             lambda prof, p: 1.0),
    "best_response_income": lambda f, i: rc.best_response_income(f.pair, i, 1.6, [0.6], 1.2),
    "best_response_type": lambda f, i: rc.best_response_type(f.pair, i, 1.5, 64),
    "best_responses": lambda f, i: rc.best_responses(f.pair, i, [1.5], 64),
    "crossing_point": lambda f, i: rc.crossing_point(f.st_pair, i, 0.75, 0.8, [0.5]),
    "MechanismTables.locate": lambda f, i: f.tables.locate(i, 1.5),
    "MechanismTables.psi": lambda f, i: f.tables.psi(i, 1.5),
    "MechanismTables.pi_star": lambda f, i: f.tables.pi_star(i, 1.5),
    "MechanismTables.transfer_win": lambda f, i: f.tables.transfer_win(i, 1.5, 0.2),
    "MechanismTables.threshold_type": lambda f, i: f.tables.threshold_type(i, 0.5),
}

# types, type reports, rival values and incomes at the entry points that
# read them, on the uniform_additive agent and the two-agent instances:
# (call at the value, a valid value).  numpy would read a bool as 0 or 1 and
# a numeric string as its number
_REPORTS = {
    "inverse_hazard": (lambda f, x: rc.inverse_hazard(f.agent.types, x), 1.5),
    "mu.theta": (lambda f, x: rc.mu(f.agent, x, 1.2), 1.5),
    "mu.pi": (lambda f, x: rc.mu(f.agent, 1.5, x), 1.2),
    "myerson_virtual": (lambda f, x: rc.myerson_virtual(f.agent, x), 1.5),
    "audit_threshold": (lambda f, x: rc.audit_threshold(f.agent, x), 1.5),
    "virtual_value": (lambda f, x: rc.virtual_value(f.agent, x), 1.5),
    "phi_cap": (lambda f, x: rc.phi_cap(f.agent, x), 1.5),
    "expected_income_net_royalty": (lambda f, x: rc.expected_income_net_royalty(f.agent, x),
                                    1.5),
    "royalty.theta_report": (lambda f, x: rc.royalty(f.agent, x, 1.2), 1.5),
    "royalty.pi_report": (lambda f, x: rc.royalty(f.agent, 1.5, x), 1.2),
    "audit_rule.theta_report": (lambda f, x: rc.audit_rule(f.agent, x, 1.2), 1.5),
    "audit_rule.pi_report": (lambda f, x: rc.audit_rule(f.agent, 1.5, x), 1.2),
    "penalty.theta_report": (lambda f, x: rc.penalty(f.agent, x, 1.2, 1.3), 1.5),
    "penalty.pi_report": (lambda f, x: rc.penalty(f.agent, 1.5, x, 1.3), 1.2),
    "penalty.pi_true": (lambda f, x: rc.penalty(f.agent, 1.5, 1.2, x), 1.3),
    "project_to_support.theta_report": (
        lambda f, x: rc.project_to_support(f.agent.income, x, 1.2), 1.5),
    "project_to_support.pi_true": (
        lambda f, x: rc.project_to_support(f.agent.income, 1.5, x), 1.2),
    "check_condition1.pi_grid": (lambda f, x: rc.check_condition1([x, 2.0], [0.0, 0.1], 0.5),
                                 1.0),
    "noisy_audit_equivalence": (
        lambda f, x: rc.noisy_audit_equivalence(f.agent, x, NoiseModel(), 1000), 1.5),
    "noisy_audit_equivalence.pairs": (
        lambda f, x: rc.noisy_audit_equivalence(f.agent, 1.5, NoiseModel(), 1000,
                                                pairs=[(x, 1.2)]), 1.3),
    "allocation": (lambda f, x: rc.allocation(f.pair, [x, 0.8]), 1.5),
    "transfer": (lambda f, x: rc.transfer(f.pair, 0, [x, 0.8]), 1.5),
    "transfer.rival": (lambda f, x: rc.transfer(f.pair, 0, [1.5, x]), 0.8),
    "endogenous_virtual": (lambda f, x: rc.endogenous_virtual(f.pair, 0, [x, 0.8],
                                                              lambda prof, p: 1.0), 1.5),
    "best_responses": (lambda f, x: rc.best_responses(f.pair, 0, [x], 64), 1.5),
    "best_response_type": (lambda f, x: rc.best_response_type(f.pair, 0, x, 64), 1.5),
    "best_response_income.theta_report": (
        lambda f, x: rc.best_response_income(f.pair, 0, x, [0.6], 1.2), 1.6),
    "best_response_income.theta_minus": (
        lambda f, x: rc.best_response_income(f.pair, 0, 1.6, [x], 1.2), 0.6),
    "best_response_income.pi_true": (
        lambda f, x: rc.best_response_income(f.pair, 0, 1.6, [0.6], x), 1.2),
    "crossing_point.theta_lo": (lambda f, x: rc.crossing_point(f.st_pair, 0, x, 0.8, [0.5]),
                                0.75),
    "crossing_point.theta_hi": (lambda f, x: rc.crossing_point(f.st_pair, 0, 0.75, x, [0.5]),
                                0.8),
    "MechanismTables.locate": (lambda f, x: f.tables.locate(0, [x]), 1.5),
    "MechanismTables.psi": (lambda f, x: f.tables.psi(0, [x]), 1.5),
    "MechanismTables.pi_star": (lambda f, x: f.tables.pi_star(0, x), 1.5),
    "MechanismTables.transfer_win": (lambda f, x: f.tables.transfer_win(0, x, 0.2), 1.5),
    "MechanismTables.transfer_win.rival": (lambda f, x: f.tables.transfer_win(0, 1.5, x), 0.2),
    "MechanismTables.threshold_type": (lambda f, x: f.tables.threshold_type(0, x), 0.5),
}

# name: (call at the value, a valid value, values out of range)
_REALS = {
    "AgentSpec.audit_cost": (lambda f, c: AgentSpec(f.agent.types, f.agent.income, c, 0.5),
                             0.2, [-0.2]),
    "AgentSpec.sensitivity": (lambda f, p: AgentSpec(f.agent.types, f.agent.income, 0.2, p),
                              0.5, [-0.1, 1.5]),
    "uniform.lo": (lambda f, x: rc.make_type_dist("uniform", {"lo": x, "hi": 2.0}), 1.0, [2.0]),
    "uniform.hi": (lambda f, x: rc.make_type_dist("uniform", {"lo": 1.0, "hi": x}), 2.0, [1.0]),
    "triangular.mode": (
        lambda f, x: rc.make_type_dist("triangular", {"lo": 1.0, "hi": 2.0, "mode": x}), 1.5,
        [0.5, 2.5]),
    "NoiseModel.halfwidth": (lambda f, h: NoiseModel(halfwidth=h), 0.1, [-0.1, 1e308]),
    "NoiseModel.bias": (lambda f, b: NoiseModel(bias=b), 0.0, []),
}


def _additive_rows(knots):
    return [(g, (g - g[0]) / 2.0) for g in (np.linspace(t - 1.0, t + 1.0, 41) for t in knots)]


# grids, whose every point must be a finite real number, never a bool: (call
# at a grid's last point, a valid last point)
_GRIDS = {
    "table.grid": (lambda x: rc.make_type_dist("table", {"grid": [1.0, x], "cdf": [0.0, 1.0]}),
                   2.0),
    "table.cdf": (lambda x: rc.make_type_dist("table", {"grid": [1.0, 2.0], "cdf": [0.0, x]}),
                  1.0),
    "table_income.theta_grid": (lambda x: rc.make_income_family(
        "table", {"theta_grid": [1.0, x], "rows": _additive_rows([1.0, 2.0])}), 2.0),
    "table_income.rows": (lambda x: rc.make_income_family(
        "table", {"theta_grid": [1.0, 2.0],
                  "rows": [_additive_rows([1.0])[0], ([1.0, x], [0.0, 1.0])]}), 3.0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_COUNTS))
def test_counts_and_seeds_follow_the_integer_rule(f, name):
    call, valid, bound = _COUNTS[name]
    call(f, np.int64(valid))
    refused = [True, False, float(valid), -1, NAN, INF, -INF, str(valid)]
    for x in refused + ([bound] if bound is not None else []):
        with pytest.raises(ConstructionError):
            call(f, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_INDICES))
def test_agent_indices_follow_the_integer_rule(f, name):
    call = _INDICES[name]
    call(f, np.int64(0))
    call(f, np.uint8(0))
    for i in (True, False, 0.0, 1.0, -1, -2, 2, NAN, INF, -INF, "0"):
        with pytest.raises(DomainError, match="agent index"):
            call(f, i)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_REALS))
def test_real_parameters_follow_the_real_rule(f, name):
    call, valid, out_of_range = _REALS[name]
    call(f, np.float64(valid))
    call(f, np.float32(valid))
    for x in [True, False, np.bool_(True), NAN, INF, -INF, str(valid), None, *out_of_range]:
        with pytest.raises(ConstructionError):
            call(f, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_REPORTS))
def test_reported_points_follow_the_real_rule(f, name):
    call, valid = _REPORTS[name]
    call(f, np.float64(valid))
    call(f, np.float32(valid))
    for x in (True, False, np.bool_(True), str(valid), None):
        with pytest.raises(ConstructionError):
            call(f, x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", ["transfer", "virtual_value"])
def test_ints_beyond_the_float_range_lie_outside_the_support(f, name):
    # read as +-inf, which the support check refuses, not as an OverflowError
    call = _REPORTS[name][0]
    for x in (10**400, -10**400):
        with pytest.raises(DomainError, match="outside support"):
            call(f, x)


def _law_methods() -> dict:
    """The methods of the type laws (uniform and tabulated, on [1, 2]) and of
    the additive, scaled and tabulated income families, per argument:
    name -> (call at the value, a valid value)."""
    uniform = rc.make_type_dist("uniform", {"lo": 1.0, "hi": 2.0})
    table = rc.make_type_dist("table", {"grid": [1.0, 1.5, 2.0], "cdf": [0.0, 0.4, 1.0]})
    rows = {}
    for law_name, law in (("uniform", uniform), ("table", table)):
        for m in ("cdf", "pdf", "cdf_integral"):
            rows[f"{law_name}.{m}"] = (getattr(law, m), 1.5)
        rows[f"{law_name}.ppf"] = (law.ppf, 0.5)
    families = {"additive": (uniform_additive_agent().income, 1.5, 1.2),
                "scaled": (scaled_uniform_agent().income, 0.75, 0.7),
                "table_income": (table_income_agent((1.0, 1.5, 2.0), 0.2).income, 1.5, 1.2)}
    for fam_name, (fam, theta, pi) in families.items():
        for m in ("supp_lo", "supp_hi"):
            rows[f"{fam_name}.{m}"] = (getattr(fam, m), theta)
        for m in ("cdf", "pdf", "g2_over_g"):
            rows[f"{fam_name}.{m}.pi"] = (lambda x, m=getattr(fam, m), t=theta: m(x, t), pi)
            rows[f"{fam_name}.{m}.theta"] = (lambda x, m=getattr(fam, m), p=pi: m(p, x), theta)
        rows[f"{fam_name}.audit_region.theta"] = (lambda x, fam=fam, p=pi: fam.audit_region(x, p),
                                                  theta)
        rows[f"{fam_name}.audit_region.b"] = (lambda x, fam=fam, t=theta: fam.audit_region(t, x),
                                              pi)
        rows[f"{fam_name}.ppf.u"] = (lambda x, fam=fam, t=theta: fam.ppf(x, t), 0.5)
        rows[f"{fam_name}.ppf.theta"] = (lambda x, fam=fam: fam.ppf(0.5, x), theta)
    return rows


_LAW_METHODS = _law_methods()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_LAW_METHODS))
def test_law_methods_read_points_by_the_real_rule(name):
    # the law objects' own methods read each point as the entry points do:
    # no bool, string or None is a number, and an int beyond the float range
    # is +-inf rather than a bare OverflowError
    call, valid = _LAW_METHODS[name]
    want = np.asarray(call(valid), dtype=float)
    for x in (np.float64(valid), np.array([valid]), [valid]):
        got = np.asarray(call(x), dtype=float)
        assert np.array_equal(got.ravel(), want.ravel())
    call(np.float32(valid))
    for x in (True, False, np.bool_(True), str(valid), None, [valid, "1"]):
        with pytest.raises(ConstructionError):
            call(x)
    for big, inf in ((10**400, INF), (-10**400, -INF)):
        with np.errstate(all="ignore"):
            got, at_inf = call(big), call(inf)
        assert np.array_equal(np.asarray(got, dtype=float), np.asarray(at_inf, dtype=float),
                              equal_nan=True)


def test_law_methods_keep_float_arrays_uncopied(monkeypatch):
    # a float array reaches the law's arithmetic as itself (``_reals``' no-copy
    # path), so no simulator chunk or bisection pays an extra pass
    seen = []
    reals = rc.dist._reals
    monkeypatch.setattr(rc.dist, "_reals", lambda x, name: seen.append((x, reals(x, name)))
                        or seen[-1][1])
    for name, (call, valid) in _LAW_METHODS.items():
        seen.clear()
        call(np.full(9, valid))
        assert seen and all(got is x for x, got in seen if isinstance(x, np.ndarray)), name


def test_every_type_and_income_parameter_has_a_row():
    # a public callable with a parameter named theta* or pi* has a row in
    # _REPORTS, unless that parameter names a grid or a count of points
    # (``*_grid``, ``*_grid_size``, ``*_points``) rather than a point
    rows = {name.split(".")[0] for name in _REPORTS}
    missing = []
    for name in rc.__all__:
        obj = getattr(rc, name)
        if inspect.ismodule(obj) or (inspect.isclass(obj) and issubclass(obj, Exception)):
            continue
        if name not in rows and any(
                p.startswith(("theta", "pi")) and not p.endswith(("_grid", "_grid_size", "_points"))
                for p in inspect.signature(obj).parameters):
            missing.append(name)
    assert missing == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("axis, values", [("c", [0.1, 0.2, 0.3]), ("phi", [0.25, 0.5, 0.75])])
def test_scan_axis_values_follow_the_real_rule(f, axis, values):
    rc.comparative_statics_scan(f.agent, axis, [np.float64(values[0]), values[1],
                                                 np.float32(values[2])])
    for x in (True, False, np.bool_(True), NAN, INF, -INF, str(values[0]), None):
        for at in (0, -1):
            bad = list(values)
            bad[at] = x
            with pytest.raises(ConstructionError, match=f"each {axis} value"):
                rc.comparative_statics_scan(f.agent, axis, bad)
    with pytest.raises(ConstructionError):
        rc.comparative_statics_scan(f.agent, "c", ["0.1", True, 2.5])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_GRIDS))
def test_grid_points_must_be_finite(name):
    call, valid = _GRIDS[name]
    call(np.float64(valid))
    for x in (NAN, INF, -INF, True, np.bool_(True), str(valid), None):
        with pytest.raises(ConstructionError):
            call(x)
