"""Royalty-cap auctions with costly income verification.

A numerical library and CLI for the revenue-optimal auction of an
income-generating asset when the winner's realized income is private and
can only be verified at a cost: virtual values with an audit-gain term,
audit thresholds and royalty caps, dominant-strategy transfers, posted
menus, cash-auction and full-surplus benchmarks, grid certification of
incentive compatibility, and reproducible Monte Carlo simulation.
"""

from .dist import (
    AgentSpec,
    AdditiveErrorFamily,
    IncomeFamily,
    ScaledErrorFamily,
    TableIncomeFamily,
    TypeDist,
    inverse_hazard,
    make_income_family,
    make_type_dist,
    project_to_support,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    InvalidAxisError,
    InvalidNoiseError,
    RegularityError,
    ReportRejectedError,
    RoyaltycapError,
    UnsupportedInstanceError,
    UnsupportedPairError,
)
from .mech import (
    AuctionInstance,
    MechanismTables,
    MenuContract,
    Outcome,
    allocation,
    audit_rule,
    audit_threshold,
    binary_menu,
    endogenous_virtual,
    expected_income_net_royalty,
    full_extraction_revenue,
    menu_cutoffs,
    mu,
    myerson_cash_revenue,
    myerson_virtual,
    payoff_bound,
    penalty,
    phi_cap,
    royalty,
    tables_for,
    transfer,
    virtual_value,
)
from .sim import SimReport, StrategyProfile, estimate_revenue, run_auction, run_rng, sweep
from .verify import (
    CrossingReport,
    DeviationReport,
    NoiseModel,
    RegularityReport,
    best_response_income,
    best_response_type,
    best_responses,
    check_condition1,
    check_regularity,
    comparative_statics_scan,
    crossing_point,
    noisy_audit_equivalence,
)
from .config import InstanceConfig, SweepSpec, parse_config

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
