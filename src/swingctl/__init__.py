"""Swing-equation network simulation with structurally safe learned control."""

from .netgraph import GraphError, Incidence, PowerNetwork, build_incidence
from .equilibrium import Equilibrium, EquilibriumError, energy, in_region, solve_equilibrium
from .dynamics import Disturbance, IntegrationError, Scenario, Trajectory, rollout
from .controller import (
    BoundPolicy,
    ConstrainedAdapter,
    ControlDecision,
    MonotoneAdapter,
    MonotoneParams,
    PolicyError,
    PolicyParams,
    SafetySpec,
    init_monotone_params,
    init_policy_params,
    make_analytic_safe_controller,
    make_policy_controller,
    make_zero_controller,
)
from .training import TrainConfig, TrainResult, TrainingError, train
from .verify import Verdict, VerdictReport, run_checks
from .scenario_io import RunSummary, SchemaError, bundled_path, compare, summarize

__version__ = "0.1.0"

__all__ = [
    "GraphError",
    "Incidence",
    "PowerNetwork",
    "build_incidence",
    "Equilibrium",
    "EquilibriumError",
    "energy",
    "in_region",
    "solve_equilibrium",
    "Disturbance",
    "IntegrationError",
    "Scenario",
    "Trajectory",
    "rollout",
    "BoundPolicy",
    "ConstrainedAdapter",
    "ControlDecision",
    "MonotoneAdapter",
    "MonotoneParams",
    "PolicyError",
    "PolicyParams",
    "SafetySpec",
    "init_monotone_params",
    "init_policy_params",
    "make_analytic_safe_controller",
    "make_policy_controller",
    "make_zero_controller",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "train",
    "Verdict",
    "VerdictReport",
    "run_checks",
    "RunSummary",
    "SchemaError",
    "bundled_path",
    "compare",
    "summarize",
    "__version__",
]
