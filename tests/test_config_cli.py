import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import royaltycap as rc
from royaltycap import cli
from royaltycap.cli import main
from royaltycap.config import parse_config
from royaltycap.instances import SHIPPED_INSTANCES

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

MINIMAL = """\
v: 1
agents:
  - type_dist: {family: uniform, lo: 1.0, hi: 2.0}
    income:
      family: additive_error
      error: {family: uniform, lo: -1.0, hi: 1.0}
    audit_cost: 0.2
    sensitivity: 0.5
"""


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_config_parses_with_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.instance.n_agents == 1
    assert cfg.theta_points == 128 and cfg.pi_points == 128
    assert cfg.n_runs == 100_000 and cfg.seed == 0
    assert cfg.formats == ("csv", "json")
    # defaults are echoed for the sidecar
    assert cfg.normalized["grids"] == {"theta_points": 128, "pi_points": 128}
    assert cfg.normalized["simulation"] == {"n_runs": 100_000, "seed": 0}


@pytest.mark.parametrize("mangle,path_fragment", [
    (lambda t: t.replace("sensitivity: 0.5", "sensitivity: 1.5"), "sensitivity"),
    (lambda t: t.replace("audit_cost: 0.2", "audit_cost: -1"), "audit_cost"),
    (lambda t: t.replace("family: uniform, lo: 1.0", "family: parabolic, lo: 1.0"),
     "type_dist"),
    (lambda t: t.replace("v: 1", "v: 2"), "v"),
    (lambda t: t.replace("v: 1\n", ""), "v"),
    (lambda t: t.replace("agents:", "agents: []\nnot_agents:"), "agents"),
])
def test_config_errors_carry_field_paths(mangle, path_fragment):
    with pytest.raises(rc.ConfigError) as exc:
        parse_config(mangle(MINIMAL))
    assert path_fragment in str(exc.value)


@pytest.mark.parametrize("section,key,integral", [
    ("grids", "theta_points", 64.0),
    ("grids", "pi_points", 20000.0),
    ("simulation", "n_runs", 20000.0),
    ("simulation", "seed", 7.0),
    ("sweep", "agent", 0.0),
])
def test_config_integers_reject_fractions(section, key, integral):
    # a count, seed or index is never truncated: a fractional (or infinite)
    # value is an error naming the field, an integral float is its integer
    def doc(value):
        extra = {"sweep": {"axis": "audit_cost", "values": [0.2]}}
        extra.setdefault(section, {})[key] = value
        return MINIMAL + yaml.safe_dump(extra)

    for bad in (integral + 0.99, integral + 0.5, float("inf")):
        with pytest.raises(rc.ConfigError) as exc:
            parse_config(doc(bad))
        assert str(exc.value).startswith(f"{section}.{key}: expected an integer"), bad
    cfg = parse_config(doc(integral))
    got = cfg.sweep.agent if section == "sweep" else getattr(cfg, key)
    assert type(got) is int and got == integral


def test_config_seed_must_key_philox():
    seeds = {1 << 128: False, float(1 << 128): False, (1 << 128) - 1: True}
    for seed, ok in seeds.items():
        text = MINIMAL + f"simulation: {{seed: {seed!r}}}\n"
        if ok:
            assert parse_config(text).seed == seed
            continue
        with pytest.raises(rc.ConfigError) as exc:
            parse_config(text)
        assert str(exc.value) == "simulation.seed: must be below 2**128 (a Philox key)"


@pytest.mark.parametrize("text,path", [
    ("- 1\n- 2\n", ""),
    ("v: one\n" + MINIMAL[len("v: 1\n"):], "v"),
    ("v: 1\nagents: {a: 1}\n", "agents"),
    ("v: 1\nagents: [3]\n", "agents[0]"),
    (MINIMAL.replace("type_dist: {family: uniform, lo: 1.0, hi: 2.0}", "type_dist: 5"),
     "agents[0].type_dist"),
    (MINIMAL.replace("family: additive_error", "family: 7"), "agents[0].income.family"),
    (MINIMAL.replace("    audit_cost: 0.2\n", ""), "agents[0].audit_cost"),
    (MINIMAL.replace("audit_cost: 0.2", "audit_cost: cheap"), "agents[0].audit_cost"),
    (MINIMAL.replace("audit_cost: 0.2", "audit_cost: true"), "agents[0].audit_cost"),
    (MINIMAL.replace("lo: -1.0, hi: 1.0", "lo: 0.0, hi: 1.0"), "agents[0].income"),
    (MINIMAL.replace("      error: {family: uniform, lo: -1.0, hi: 1.0}\n", ""),
     "agents[0].income"),
    (MINIMAL.replace("family: additive_error", "family: scaled_error"), "agents[0]"),
    (MINIMAL + "grids: [1, 2]\n", "grids"),
    (MINIMAL + "grids: {theta_points: many}\n", "grids.theta_points"),
    (MINIMAL + "simulation: 5\n", "simulation"),
    (MINIMAL + "output: [a]\n", "output"),
    (MINIMAL + "output: {directory: 5}\n", "output.directory"),
    (MINIMAL + "output: {formats: [xml]}\n", "output.formats"),
    (MINIMAL + "output: {formats: []}\n", "output.formats"),
    (MINIMAL + "output: {formats: csv}\n", "output.formats"),
    (MINIMAL + "sweep: [1]\n", "sweep"),
    (MINIMAL + "sweep: {values: [0.1]}\n", "sweep.axis"),
    (MINIMAL + "sweep: {axis: c, values: [0.1]}\n", "sweep.axis"),
    (MINIMAL + "sweep: {axis: audit_cost, agent: 1, values: [0.1]}\n", "sweep.agent"),
    (MINIMAL + "sweep: {axis: audit_cost, values: 0.1}\n", "sweep.values"),
    (MINIMAL + "sweep: {axis: audit_cost, values: [0.1, x]}\n", "sweep.values[1]"),
    (MINIMAL + "sweep: {axis: audit_cost, values: [true]}\n", "sweep.values[0]"),
    (MINIMAL + "name: 5\n", "name"),
])
def test_config_rejections_name_their_field(text, path):
    # every rejection is a ConfigError carrying the offending field's path
    with pytest.raises(rc.ConfigError) as exc:
        parse_config(text)
    assert exc.value.path == path, str(exc.value)


def test_config_rejects_bad_yaml():
    with pytest.raises(rc.ConfigError):
        parse_config(":\n  - ][")


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.yaml"))
                         + ["minimal", "minimal_sweep", "dumped"])
def test_libyaml_loader_parses_the_same_documents(name):
    texts = {"minimal": MINIMAL,
             "minimal_sweep": MINIMAL + "sweep: {axis: audit_cost, agent: 0, values: [0.0, 0.2]}\n",
             "dumped": yaml.safe_dump({"v": 1, "grid": np.linspace(0.0, 1.0, 41).tolist(),
                                       "cdf": [0.1 * k for k in range(11)], "name": "x"})}
    text = texts[name] if name in texts else (CONFIG_DIR / f"{name}.yaml").read_text()
    assert (yaml.load(text, Loader=yaml.CSafeLoader)
            == yaml.load(text, Loader=yaml.SafeLoader))
    assert rc.config._YAML_LOADER is yaml.CSafeLoader


def test_shipped_configs_parse():
    for p in CONFIG_DIR.glob("*.yaml"):
        cfg = parse_config(p.read_text())
        assert cfg.instance.n_agents >= 1, p


@pytest.mark.parametrize("name", sorted(SHIPPED_INSTANCES))
def test_shipped_configs_build_the_shipped_instances(name):
    # configs/*.yaml (CLI, benchmark) and royaltycap.instances (tests,
    # README) define the same four instances
    assert {p.stem for p in CONFIG_DIR.glob("*.yaml")} == set(SHIPPED_INSTANCES)
    got = parse_config((CONFIG_DIR / f"{name}.yaml").read_text()).instance
    want = SHIPPED_INSTANCES[name]()
    assert got.n_agents == want.n_agents
    for a, b in zip(got.agents, want.agents):
        assert (a.types.family, a.types.params) == (b.types.family, b.types.params)
        assert (a.income.family, a.income.params) == (b.income.family, b.income.params)
        assert (a.audit_cost, a.sensitivity) == (b.audit_cost, b.sensitivity)


# ---------------------------------------------------------------------------
# CLI subcommands
# ---------------------------------------------------------------------------

@pytest.fixture()
def ua_config(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(MINIMAL + "sweep: {axis: audit_cost, agent: 0, values: [0.0, 0.2]}\n")
    return p


def test_cli_check_pass(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["check", "--config", str(ua_config), "--out", str(out),
                 "--grid", "48"]) == 0
    rep = json.loads((out / "check.json").read_text())
    assert rep["all_ok"] is True


def test_cli_calls_share_one_parser_and_parse_independently(ua_config, tmp_path, monkeypatch):
    # the parser is built once per process; each call's flags are its own,
    # so an earlier call's --runs, --seed and --grid do not carry over; every
    # handler takes the config and the output directory only
    calls = []
    for name in ("check", "simulate"):
        spy = lambda cfg, out, name=name: (  # noqa: E731
            calls.append((name, cfg.theta_points, cfg.pi_points, cfg.n_runs, cfg.seed)) or 0)
        monkeypatch.setitem(cli._COMMANDS, name, (spy, *cli._COMMANDS[name][1:]))
    base = ["--config", str(ua_config), "--out", str(tmp_path / "o")]
    assert main(["simulate", *base, "--workers", "2", "--runs", "5000", "--seed", "3"]) == 0
    assert main(["check", *base, "--grid", "48"]) == 0
    assert main(["simulate", *base]) == 0
    assert main(["check", *base]) == 0
    assert calls == [("simulate", 128, 128, 5000, 3), ("check", 48, 48, 100_000, 0),
                     ("simulate", 128, 128, 100_000, 0), ("check", 128, 128, 100_000, 0)]
    assert cli._build_parser() is cli._build_parser()


# the flags each subcommand takes besides --config, --out and --seed (simulate
# checks --workers and ignores it)
_READS = {"check": ("--grid",), "solve": ("--grid",), "verify-ic": ("--grid",),
          "simulate": ("--runs", "--workers"), "sweep": ("--runs",), "menu": ()}
_UNREAD = [(cmd, flag) for cmd, reads in _READS.items()
           for flag in ("--grid", "--runs", "--workers") if flag not in reads]


@pytest.mark.parametrize("cmd,flag", _UNREAD, ids=[f"{c}{f}" for c, f in _UNREAD])
def test_cli_rejects_flags_its_command_does_not_read(ua_config, tmp_path, capsys, cmd, flag):
    # a flag the command would ignore is a usage error, before any output
    assert len(_UNREAD) == 12
    out = tmp_path / "o"
    value = {"--grid": "48", "--runs": "2000", "--workers": "2"}[flag]
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--config", str(ua_config), "--out", str(out), flag, value])
    assert exc.value.code == 2
    assert f"error: unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd", sorted(_READS))
def test_cli_help_lists_exactly_the_flags_the_command_reads(capsys, cmd):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
    assert listed == {"--help", "--config", "--out", "--seed", *_READS[cmd]}


def test_cli_settings_echo_the_values_the_command_ran_with(ua_config, tmp_path):
    # the JSON settings are the config's, with each flag's value in its place
    normalized = parse_config(ua_config.read_text()).normalized
    docs = {}
    runs = {"check": ["--grid", "48"], "simulate": ["--runs", "2000", "--seed", "3"],
            "menu": [], "solve": []}
    for cmd, flags in runs.items():
        out = tmp_path / cmd
        assert main([cmd, "--config", str(ua_config), "--out", str(out), *flags]) == 0
        docs[cmd] = json.loads((out / f"{cmd}.json").read_text())
    assert docs["check"]["settings"] == {**normalized,
                                         "grids": {"theta_points": 48, "pi_points": 48}}
    assert docs["simulate"]["settings"] == {**normalized,
                                            "simulation": {"n_runs": 2000, "seed": 3}}
    assert docs["simulate"]["seed"] == 3 and docs["simulate"]["report"]["n_runs"] == 2000
    assert docs["menu"]["settings"] == docs["solve"]["settings"] == normalized
    assert docs["check"]["seed"] == docs["menu"]["seed"] == normalized["simulation"]["seed"]


def test_cli_solve_table(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["solve", "--config", str(ua_config), "--out", str(out),
                 "--grid", "16"]) == 0
    lines = (out / "solve.csv").read_text().splitlines()
    assert lines[0] == "agent,theta,psi_m,psi,pi_star,phi_cap,transfer"
    assert len(lines) == 17
    side = json.loads((out / "solve.json").read_text())
    assert side["columns"] == lines[0].split(",")
    # full-precision JSON values agree with the 6-sig-digit CSV cells
    for row_csv, row_json in zip(lines[1:3], side["rows"][:2]):
        for cell, val in zip(row_csv.split(",")[1:], row_json[1:]):
            assert cell == f"{val:.6g}"


def test_cli_simulate_and_reports(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(ua_config), "--out", str(out),
                 "--runs", "20000", "--seed", "9"]) == 0
    rep = json.loads((out / "simulate.json").read_text())
    assert rep["seed"] == 9
    assert rep["report"]["n_runs"] == 20000
    assert abs(rep["report"]["revenue_net_audits"] - rep["analytic"]["payoff_bound"]) \
        <= 4 * rep["report"]["revenue_se"]


def test_cli_byte_identical_reruns(ua_config, tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["simulate", "--config", str(ua_config), "--out", str(out),
                     "--runs", "20000"]) == 0
        outs.append((out / "simulate.csv").read_bytes()
                    + (out / "simulate.json").read_bytes())
    assert outs[0] == outs[1]
    out3 = tmp_path / "c"
    assert main(["simulate", "--config", str(ua_config), "--out", str(out3),
                 "--runs", "20000", "--workers", "2"]) == 0
    assert (out3 / "simulate.json").read_bytes() + b"" == \
        (tmp_path / "a" / "simulate.json").read_bytes()


def test_cli_sweep(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(ua_config), "--out", str(out),
                 "--runs", "5000"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3  # header + two axis values
    side = json.loads((out / "sweep.json").read_text())
    assert [r["value"] for r in side["rows_full"]] == [0.0, 0.2]


def test_cli_sweep_empty_axis(tmp_path):
    p = tmp_path / "cfg.yaml"
    p.write_text(MINIMAL + "sweep: {axis: audit_cost, agent: 0, values: []}\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(p), "--out", str(out),
                 "--runs", "2000"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_cli_menu(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["menu", "--config", str(ua_config), "--out", str(out)]) == 0
    rep = json.loads((out / "menu.json").read_text())
    assert rep["lump_sum"] == pytest.approx(1.3, abs=1e-9)
    assert rep["royalty_contract"] == pytest.approx(0.5, abs=1e-9)
    assert rep["theta_star"] == pytest.approx(1.6, abs=1e-9)
    assert rep["theta_0"] == pytest.approx(1.0, abs=1e-9)


def test_cli_verify_ic(ua_config, tmp_path):
    out = tmp_path / "o"
    assert main(["verify-ic", "--config", str(ua_config), "--out", str(out),
                 "--grid", "64"]) == 0
    rep = json.loads((out / "verify_ic.json").read_text())
    assert rep["all_ok"] is True
    assert rep["agents"][0]["type_deviation"]["advantage"] <= 1e-6


# the ``agents`` block of verify_ic.json on each shipped config (seed 0),
# captured with the closed-form double deviation, min(phi*pi + A, U), and
# the payments integrated as differences of ``audit_region`` at their cuts
_GOLDEN_VERIFY_IC = {
    "uniform_additive": [
        {"agent": 0, "type_deviation": {"advantage": 1.1102230246251565e-16,
                                        "theta": 1.0588235294117647,
                                        "strategy": "truthful_projection"},
         "income_deviation_worst": 0.0, "ir_ok": True, "ok": True}],
    "scaled_uniform": [
        {"agent": 0, "type_deviation": {"advantage": 2.053410719238258e-09,
                                        "theta": 0.5294117647058824,
                                        "strategy": "truthful_projection"},
         "income_deviation_worst": 0.0, "ir_ok": True, "ok": True}],
    "scaled_triangular": [
        {"agent": 0, "type_deviation": {"advantage": 0.0, "theta": 0.5294117647058824,
                                        "strategy": "truthful_projection"},
         "income_deviation_worst": 0.0, "ir_ok": True, "ok": True}],
    "mixed_pair": [
        {"agent": 0, "type_deviation": {"advantage": 0.0,
                                        "theta": 1.0588235294117647,
                                        "strategy": "truthful_projection"},
         "income_deviation_worst": 0.0, "ir_ok": True, "ok": True},
        {"agent": 1, "type_deviation": {"advantage": 0.0, "theta": 0.5294117647058824,
                                        "strategy": "truthful_projection"},
         "income_deviation_worst": 0.0, "ir_ok": True, "ok": True}],
}


def test_cli_verify_ic_golden_agents(tmp_path):
    for name, want in _GOLDEN_VERIFY_IC.items():
        out = tmp_path / name
        assert main(["verify-ic", "--config", str(CONFIG_DIR / f"{name}.yaml"),
                     "--out", str(out)]) == 0
        assert json.loads((out / "verify_ic.json").read_text())["agents"] == want, name


def test_cli_verify_ic_does_not_depend_on_the_seed(tmp_path):
    # the income check is exact at every certified type, not a seeded sample
    for name in _GOLDEN_VERIFY_IC:
        agents = []
        for seed in ("0", "7"):
            out = tmp_path / name / seed
            assert main(["verify-ic", "--config", str(CONFIG_DIR / f"{name}.yaml"),
                         "--out", str(out), "--seed", seed]) == 0
            agents.append(json.loads((out / "verify_ic.json").read_text())["agents"])
        assert agents[0] == agents[1], name


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(MINIMAL.replace("sensitivity: 0.5", "sensitivity: 2"))
    assert main(["check", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    assert main(["check", "--config", str(tmp_path / "missing.yaml"),
                 "--out", str(tmp_path / "x")]) == 2
    # irregular instance: decreasing Myerson virtual value -> verification failure
    g = np.linspace(1, 2, 129)
    cdf = np.sqrt(g - 1)
    irr = tmp_path / "irr.yaml"
    irr.write_text(
        "v: 1\nagents:\n  - type_dist:\n      family: table\n"
        "      grid: [" + ", ".join(f"{x:.10f}" for x in g) + "]\n"
        "      cdf: [" + ", ".join(f"{x:.10f}" for x in cdf) + "]\n"
        "    income:\n      family: additive_error\n"
        "      error: {family: uniform, lo: -1.0, hi: 1.0}\n"
        "    audit_cost: 0.1\n    sensitivity: 0.0\n")
    assert main(["check", "--config", str(irr), "--out", str(tmp_path / "y")]) == 1
    # menu needs one agent
    two = tmp_path / "two.yaml"
    two.write_text((CONFIG_DIR / "mixed_pair.yaml").read_text())
    assert main(["menu", "--config", str(two), "--out", str(tmp_path / "z")]) == 2


@pytest.mark.parametrize("argv,grids,field", [
    (["check", "--grid", "16"], None, "--grid"),
    (["verify-ic", "--grid", "32"], None, "--grid"),
    (["check"], "{theta_points: 16, pi_points: 64}", "grids.theta_points"),
    (["verify-ic"], "{theta_points: 48, pi_points: 64}", "grids.theta_points"),
    (["simulate", "--runs", "10"], None, "--runs"),
    (["sweep", "--runs", "10"], None, "--runs"),
    (["simulate", "--workers", "0"], None, "--workers"),
    (["simulate", "--workers", "-2"], None, "--workers"),
], ids=["check-flag", "verify-ic-flag", "check-config", "verify-ic-config",
        "simulate-runs", "sweep-runs", "simulate-workers-0", "simulate-workers-neg"])
def test_cli_usage_floors_exit_2(tmp_path, capsys, argv, grids, field):
    # grids and run counts below the library's floors are usage errors: exit 2,
    # a message naming the flag or config field, no traceback, no output
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL + "sweep: {axis: audit_cost, agent: 0, values: [0.2]}\n"
                   + (f"grids: {grids}\n" if grids else ""))
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: must be at least ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["check", "--grid", "4"], "error: --grid: must be at least 8\n"),
    (["simulate", "--seed", "-1"], "error: --seed: must be nonnegative\n"),
    (["sweep"], "error: sweep: the sweep subcommand needs a sweep section\n"),
])
def test_cli_flag_and_section_errors_exit_2(tmp_path, capsys, argv, message):
    # a bad flag, or sweep on a config without a sweep section, is a usage
    # error naming the flag or section, with no artifact
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out = tmp_path / "o"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists() or not any(out.iterdir())


def test_verify_ic_reads_no_income_grid(tmp_path):
    # verify-ic prices the double deviation without an income grid, so
    # grids.pi_points (read by check alone) neither floors nor moves it
    runs = []
    for pi_points in (8, 128):
        cfg = tmp_path / f"pair{pi_points}.yaml"
        cfg.write_text((CONFIG_DIR / "mixed_pair.yaml").read_text()
                       .replace("pi_points: 128", f"pi_points: {pi_points}"))
        out = tmp_path / f"o{pi_points}"
        code = main(["verify-ic", "--config", str(cfg), "--out", str(out)])
        runs.append((code, json.loads((out / "verify_ic.json").read_text())["agents"]))
    assert runs[0] == runs[1]


def test_cli_seed_beyond_a_philox_key_exits_2(tmp_path, capsys):
    # a seed the simulator cannot key is a usage error, not a verification
    # failure
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL)
    out = tmp_path / "o"
    assert main(["simulate", "--seed", str(1 << 128), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --seed: must be below 2**128")
    assert not out.exists()


def test_cli_config_seed_beyond_a_philox_key_names_the_field(tmp_path, capsys):
    # without --seed, the error names the config field, not the flag
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL + f"simulation: {{seed: {1 << 128}}}\n")
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: simulation.seed: must be below 2**128")
    assert not out.exists()


def test_cli_rejects_non_single_crossing_instance_before_output(tmp_path):
    # tabulated rows whose quantile gap 0.5 + u rises in income
    # (conftest.rising_gap_agent) with c > 0: the audit surplus is not
    # single-crossing in income, so check fails and solve / simulate must
    # fail the same way without writing an artifact
    doc = {"v": 1, "agents": [{
        "type_dist": {"family": "uniform", "lo": 1.0, "hi": 2.0},
        "income": {"family": "table", "theta_grid": [1.0, 2.0],
                   "rows": [[[0.0, 2.0], [0.0, 1.0]], [[0.5, 3.5], [0.0, 1.0]]]},
        "audit_cost": 0.2, "sensitivity": 0.5}],
        "simulation": {"n_runs": 1000, "seed": 0}}
    cfg = tmp_path / "irregular.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["check", "--config", str(cfg), "--out", str(tmp_path / "check")]) == 1
    for sub in ("solve", "simulate"):
        out = tmp_path / sub
        assert main([sub, "--config", str(cfg), "--out", str(out)]) == 1
        assert list(out.iterdir()) == []


def test_cli_accepts_type_law_with_zero_density_at_the_bottom(tmp_path):
    # F = (theta - 1)^2 on [1, 2], tabulated: the PCHIP density is 0 at theta = 1
    grid = [1.0, 1.25, 1.5, 1.75, 2.0]
    cdf = [(g - 1.0) ** 2 for g in grid]
    text = MINIMAL.replace("{family: uniform, lo: 1.0, hi: 2.0}",
                           f"{{family: table, grid: {grid}, cdf: {cdf}}}")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    types = parse_config(text).instance.agents[0].types
    assert rc.inverse_hazard(types, 1.0) == np.inf
    flags = {"check": ["--grid", "32"], "solve": ["--grid", "32"],
             "simulate": ["--runs", "20000"], "menu": []}
    for cmd, extra in flags.items():
        assert main([cmd, "--config", str(cfg), "--out", str(tmp_path / cmd), *extra]) == 0, cmd


def test_scaled_errors_ending_above_one_are_refused(tmp_path, capsys):
    # with the error's top above 1, -G_theta/g = 1 - z < 0 near the top type
    # (FOSD fails): the config is refused, and no command writes numbers
    text = (MINIMAL.replace("lo: 1.0, hi: 2.0", "lo: 0.5, hi: 1.0")
            .replace("additive_error", "scaled_error")
            .replace("{family: uniform, lo: -1.0, hi: 1.0}",
                     "{family: triangular, lo: -1.0, mode: -0.5, hi: 1.5}"))
    message = "agents[0].income: scaled errors must end at or below 1, got 1.5"
    with pytest.raises(rc.ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    for cmd in ("check", "solve", "simulate"):
        out = tmp_path / cmd
        assert main([cmd, "--config", str(cfg), "--out", str(out)]) == 2, cmd
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
    # an error law that ends at 1 builds (mean zero: mode at its lower end)
    parse_config(text.replace("lo: -1.0, mode: -0.5, hi: 1.5", "lo: -0.5, mode: -0.5, hi: 1.0"))


_ROWS = [[[0.0, 2.0], [0.0, 1.0]], [[1.0, 3.0], [0.0, 1.0]]]


@pytest.mark.parametrize("field,law,message", [
    ("income", {"family": "table", "rows": _ROWS},
     "table income needs the parameter 'theta_grid'"),
    ("income", {"family": "table", "theta_grid": [1.0, 2.0], "rows": [_ROWS[0], 5]},
     "table income parameter 'rows' is malformed: "),
    ("type_dist", {"family": "table", "grid": [1.0, 2.0]}, "table law needs the parameter 'cdf'"),
    ("type_dist", {"family": "uniform", "lo": "a", "hi": 2.0},
     "uniform law parameter 'lo' is malformed: "),
], ids=["income-no-theta-grid", "income-row-not-a-pair", "types-no-cdf", "types-lo-not-a-number"])
def test_malformed_law_parameters_exit_2(tmp_path, capsys, field, law, message):
    # a missing or unreadable law parameter is a config error naming the
    # agent's law: it used to escape as KeyError, TypeError or ValueError,
    # a traceback and exit 1
    agent = yaml.safe_load(MINIMAL)["agents"][0]
    agent[field] = law
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"v": 1, "agents": [agent]}))
    out = tmp_path / "o"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: agents[0].{field}: {message}")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("old,new,message", [
    ("lo: 1.0, hi: 2.0", "lo: true, hi: 2.0",
     "uniform law parameter 'lo' is malformed: lo must be a real number, got True"),
    ("lo: 1.0, hi: 2.0", "lo: 1.0, hi: .inf",
     "uniform law parameter 'hi' is malformed: hi must be finite, got inf"),
    ("family: uniform, lo: 1.0, hi: 2.0", "family: table, grid: [1.0, .inf], cdf: [0.0, 1.0]",
     "table law parameter 'grid' is malformed: each grid point must be finite, got inf"),
], ids=["lo-bool", "hi-inf", "grid-inf"])
def test_refused_law_parameters_exit_2(tmp_path, capsys, old, new, message):
    # a bool bound used to build a law on [1, 2], and an infinite bound or
    # grid point failed later, as an income support that is not finite,
    # after numpy warned
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(MINIMAL.replace(old, new, 1))
    out = tmp_path / "o"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: agents[0].type_dist: {message}"), err
    assert not out.exists()


@pytest.mark.parametrize("shift,code", [(5e-7, 2), (5e-8, 0)])
def test_tabulated_row_means_are_held_to_the_check_tolerance(tmp_path, capsys, shift, code):
    # the benchmark's tab_income rows with every income moved by shift, so
    # each row's mean misses its type knot by shift: the constructor held
    # the rows to 1e-6 and check to 1e-7, so at 5e-7 check failed while
    # solve and simulate returned numbers; now both read one tolerance
    knots = [1.0, 1.4, 2.0]
    rows = [[(np.linspace(t - 1.0, t + 1.0, 41) + shift).tolist(),
             np.linspace(0.0, 1.0, 41).tolist()] for t in knots]
    income = {"family": "table", "theta_grid": knots, "rows": rows}
    if code:
        with pytest.raises(rc.ConstructionError, match="income table row 0 has mean"):
            rc.make_income_family("table", income)
    agent = yaml.safe_load(MINIMAL)["agents"][0]
    agent.update(income=income, audit_cost=0.0)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"v": 1, "agents": [agent]}))
    out = tmp_path / "o"
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        assert capsys.readouterr().err.startswith("error: agents[0].income: income table row 0")
        assert not out.exists()
    else:
        assert json.loads((out / "check.json").read_text())["all_ok"]


def test_cli_env_output_override(ua_config, tmp_path, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ROYALTYCAP_OUT", str(env_dir))
    assert main(["menu", "--config", str(ua_config)]) == 0
    assert (env_dir / "menu.json").exists()
    # --out flag wins over the environment variable
    flag_dir = tmp_path / "flagout"
    assert main(["menu", "--config", str(ua_config), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "menu.json").exists()


def test_cli_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "royaltycap", "check", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--config" in proc.stdout


def test_json_reports_reparse(ua_config, tmp_path):
    out = tmp_path / "o"
    for cmd in (["check"], ["menu"], ["solve", "--grid", "16"],
                ["simulate", "--runs", "2000"]):
        assert main(cmd + ["--config", str(ua_config), "--out", str(out)]) == 0
    for p in out.glob("*.json"):
        payload = json.loads(p.read_text())
        assert isinstance(payload, dict) and payload
