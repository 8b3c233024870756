"""Every name in ``royaltycap.__all__`` is reached by a CLI subcommand, a
release criterion or the README quick start, or is kept for a stated reason;
a name with neither goes, with its tests.

``REACHED`` says where each reached name is used, and the claim is checked
against that source: ``cli.py``, the criterion's test in
``tests/test_acceptance.py``, or the README's quick-start block.  A source
uses a name when it reads it off the package or one of its submodules
(``rc.x``, ``mech.x``) or imports it from them.  ``KEPT`` gives every other
name its reason in one line."""

import ast
import re
from pathlib import Path

import pytest

import royaltycap as rc

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = {"config", "dist", "errors", "mech", "sim", "verify"}

# name -> "cli", "criterion <n>" or "quickstart"
REACHED = {
    "AuctionInstance": "cli",
    "ConfigError": "cli",
    "InstanceConfig": "cli",
    "RoyaltycapError": "cli",
    "UnsupportedInstanceError": "cli",
    "best_responses": "cli",
    "check_regularity": "cli",
    "config": "cli",
    "errors": "cli",
    "estimate_revenue": "cli",
    "mech": "cli",
    "parse_config": "cli",
    "sim": "cli",
    "sweep": "cli",
    "tables_for": "cli",
    "verify": "cli",
    "mu": "criterion 1",
    "virtual_value": "criterion 1",
    "full_extraction_revenue": "criterion 2",
    "myerson_cash_revenue": "criterion 2",
    "best_response_income": "criterion 4",
    "best_response_type": "criterion 4",
    "audit_threshold": "criterion 5",
    "comparative_statics_scan": "criterion 5",
    "make_type_dist": "criterion 5",
    "crossing_point": "criterion 6",
    "myerson_virtual": "criterion 6",
    "phi_cap": "criterion 6",
    "royalty": "criterion 6",
    "transfer": "criterion 6",
    "binary_menu": "criterion 7",
    "inverse_hazard": "criterion 8",
    "NoiseModel": "criterion 9",
    "noisy_audit_equivalence": "criterion 9",
    "payoff_bound": "quickstart",
}

# name -> why it stays although no command, criterion or quick start uses it
KEPT = {
    "AdditiveErrorFamily": "the additive_error income law that configs name; menus take only it",
    "AgentSpec": "one bidder, the argument of every entry point that takes an agent",
    "ConstructionError": "raised by every constructor and factory; configs report it by field",
    "CrossingReport": "the result of crossing_point",
    "DeviationReport": "the result of best_response_type, best_responses and best_response_income",
    "DomainError": "raised for a type outside its support or an index that names no agent",
    "IncomeFamily": "the base class that a custom income law implements",
    "InvalidAxisError": "raised by comparative_statics_scan for an invalid axis",
    "InvalidNoiseError": "raised by noisy_audit_equivalence for a biased audit signal",
    "MechanismTables": "the result of tables_for, whose columns solve reads at located types",
    "MenuContract": "the items of binary_menu's menu",
    "Outcome": "the result of run_auction",
    "RegularityError": "raised where single crossing or an increasing virtual value fails",
    "RegularityReport": "the result of check_regularity, one per agent in check.json",
    "ReportRejectedError": "raised by royalty, audit_rule and penalty for an income report "
                           "outside the reported support",
    "ScaledErrorFamily": "the scaled_error income law that configs name",
    "SimReport": "the result of estimate_revenue, the report in simulate.json",
    "StrategyProfile": "the strategies argument of estimate_revenue and run_auction",
    "SweepSpec": "the sweep section of an InstanceConfig",
    "TableIncomeFamily": "the table income law that configs name",
    "TypeDist": "the type and error laws that make_type_dist builds",
    "UnsupportedPairError": "raised by crossing_point for a report pair it cannot certify",
    "allocation": "the allocation rule at type profiles, the half of the mechanism that "
                  "transfer prices",
    "audit_rule": "the audit rule at one report, beside royalty and penalty",
    "check_condition1": "the double monotonicity of a penalty schedule, which "
                        "noisy_audit_equivalence reports as condition1_ok",
    "dist": "the submodule of the type and income laws",
    "endogenous_virtual": "the virtual value under any audit rule: the audit rule's "
                          "pointwise optimality",
    "expected_income_net_royalty": "E[pi - royalty | theta], the first term of every transfer",
    "make_income_family": "builds the income law of every config",
    "menu_cutoffs": "the cutoff types theta_star and theta_0 that CLI menu prints",
    "penalty": "the exact penalty that noisy_audit_equivalence compares the noisy audit with",
    "project_to_support": "the on-path income report of truthful play",
    "run_auction": "one round of the protocol; with run_rng it replays one run of a simulation",
    "run_rng": "the generator of one run, as the README's reproducibility contract states it",
}


def _uses(tree: ast.AST) -> set:
    """The package names a source reads off the package or a submodule, or
    imports from them, and the submodules it imports."""
    aliases = {"rc", "royaltycap"} | SUBMODULES
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("royaltycap")):
            used.update(a.name for a in node.names)
            if node.module:
                used.add(node.module.rpartition(".")[2])
    return used


def _criterion(n: int) -> ast.AST:
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    (fn,) = [f for f in tree.body if isinstance(f, ast.FunctionDef)
             and f.name.startswith(f"test_criterion_{n}_")]
    return fn


def _quickstart() -> ast.AST:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def _source(door: str) -> ast.AST:
    if door == "cli":
        return ast.parse((ROOT / "src" / "royaltycap" / "cli.py").read_text(encoding="utf-8"))
    if door == "quickstart":
        return _quickstart()
    kind, n = door.split()
    assert kind == "criterion", door
    return _criterion(int(n))


def test_every_public_name_is_reached_or_kept():
    assert not set(REACHED) & set(KEPT)
    assert set(REACHED) | set(KEPT) == set(rc.__all__)
    assert SUBMODULES <= set(rc.__all__)
    assert all(reason and "\n" not in reason for reason in KEPT.values())


@pytest.mark.parametrize("door", sorted(set(REACHED.values())))
def test_reach_claims_hold_in_their_source(door):
    used = _uses(_source(door))
    claimed = {name for name, d in REACHED.items() if d == door}
    assert claimed <= used, sorted(claimed - used)


def test_mechanism_tables_keep_the_lookups_that_write_out_and_the_inverse():
    # any other column is read as tables.locate(i, theta).interp(column)
    public = {name for name in vars(rc.MechanismTables) if not name.startswith("_")}
    assert public == {"build", "locate", "psi", "pi_star", "transfer_win", "threshold_type"}
