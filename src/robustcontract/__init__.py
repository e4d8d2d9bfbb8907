"""Numerical toolkit for principal-agent contracting under volatility uncertainty.

Modules:
  hamiltonians  pure evaluators for the game Hamiltonians and their reductions
  agent         robust best-response grid solver and its cross-checking oracles
  principal     HJBI grid solver, contract extraction, promise choice
  sim           forward Monte Carlo of the coupled state system and checks
  presets       named model constructors
  cli           configuration-driven pipelines over the artifact files
"""

__version__ = "0.1.0"

from .hamiltonians import (
    GrowthParams,
    ModelSpec,
    SaddleResult,
    GameResult,
    eval_F,
    level_set_V,
    eval_F_star,
    eval_H,
    eval_g,
    eval_G,
    compute_radius,
    gamma_thresholds,
    optimal_effort,
)
from .presets import make_model
from .agent import (
    AgentSolution,
    ContractFunction,
    inf_of_bsdes,
    participation_check,
    solve_agent,
)
from .principal import (
    ContractPolicy,
    GridSpec,
    PrincipalSolution,
    extract_contract,
    optimize_y0,
    probe_monotonicity,
    solve_hjbi,
)
from .sim import (
    Estimate,
    NatureStrategy,
    SimConfig,
    SimResult,
    adversarial_nature_search,
    disjoint_beliefs_demo,
    girsanov_cross_check,
    incentive_compatibility_check,
    martingale_sandwich_check,
    simulate_system,
)

__all__ = [
    "GrowthParams", "ModelSpec", "SaddleResult", "GameResult",
    "eval_F", "level_set_V", "eval_F_star", "eval_H",
    "eval_g", "eval_G", "compute_radius", "gamma_thresholds",
    "optimal_effort", "make_model",
    "AgentSolution", "ContractFunction", "inf_of_bsdes",
    "participation_check", "solve_agent",
    "ContractPolicy", "GridSpec", "PrincipalSolution", "extract_contract",
    "optimize_y0", "probe_monotonicity", "solve_hjbi",
    "Estimate", "NatureStrategy", "SimConfig", "SimResult",
    "adversarial_nature_search", "disjoint_beliefs_demo",
    "girsanov_cross_check", "incentive_compatibility_check",
    "martingale_sandwich_check", "simulate_system",
    "__version__",
]
