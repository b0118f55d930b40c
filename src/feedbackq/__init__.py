"""Strategic-customer analysis of an observable M/M/1 queue with Bernoulli feedback.

The package computes position-dependent expected sojourn times and payoffs
for threshold joining strategies, Nash equilibrium thresholds with and
without reneging, stationary queue-length laws, social welfare curves and
their optima, and the comparative statics in which raising the reward or
allowing reneging makes everyone worse off.  A discrete-event simulator
provides an independent Monte Carlo oracle for every analytic quantity.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .model import (
    ModelParams,
    Threshold,
    as_threshold,
    inverse_index,
    make_threshold,
    state_index,
)
from .qbd import (
    Ladder,
    QbdBlocks,
    build_chain,
    build_rhs_payoff,
    build_rhs_sojourn,
)
from .solver import (
    ConsistencyError,
    ValueVector,
    payoff_vector_n,
    payoff_vector_r_all,
    payoff_vector_r_tagged,
    residual_norm,
    sojourn_vector,
    sojourn_vector_r_tagged,
    solve_structured,
)
from .analytics import (
    StationaryDist,
    feedback_observed_dist,
    renege_probability,
    sojourn_always_join,
    stationary_always_join,
    stationary_threshold,
)
from .equilibrium import (
    CriticalValues,
    EquilibriumResult,
    EssReport,
    best_response_n,
    chi,
    critical_values,
    equilibrium_payoffs_r,
    ess_check,
    nash_n,
    nash_r,
    total_payoff,
)
from .welfare import (
    WelfareCurve,
    curve_to_csv,
    is_unimodal,
    socially_optimal_threshold,
    welfare_curve,
    welfare_derivative,
    welfare_flow_form,
    welfare_n,
    welfare_r,
)
from .paradox import (
    ParadoxReport,
    paradox1_check,
    paradox2_check,
    sojourn_gap_closed_form,
)
from .simulate import (
    Estimate,
    SimConfig,
    SimResult,
    simulate_renege_fraction,
    simulate_stationary,
    simulate_tagged,
)

__all__ = [
    "__version__",
    "ModelParams",
    "Threshold",
    "as_threshold",
    "make_threshold",
    "state_index",
    "inverse_index",
    "Ladder",
    "QbdBlocks",
    "build_chain",
    "build_rhs_payoff",
    "build_rhs_sojourn",
    "ConsistencyError",
    "ValueVector",
    "solve_structured",
    "residual_norm",
    "sojourn_vector",
    "payoff_vector_n",
    "sojourn_vector_r_tagged",
    "payoff_vector_r_tagged",
    "payoff_vector_r_all",
    "StationaryDist",
    "sojourn_always_join",
    "stationary_always_join",
    "stationary_threshold",
    "feedback_observed_dist",
    "renege_probability",
    "CriticalValues",
    "EquilibriumResult",
    "EssReport",
    "best_response_n",
    "critical_values",
    "chi",
    "nash_n",
    "nash_r",
    "total_payoff",
    "ess_check",
    "equilibrium_payoffs_r",
    "WelfareCurve",
    "welfare_n",
    "welfare_r",
    "welfare_flow_form",
    "welfare_derivative",
    "socially_optimal_threshold",
    "welfare_curve",
    "is_unimodal",
    "curve_to_csv",
    "ParadoxReport",
    "sojourn_gap_closed_form",
    "paradox1_check",
    "paradox2_check",
    "Estimate",
    "SimConfig",
    "SimResult",
    "simulate_tagged",
    "simulate_stationary",
    "simulate_renege_fraction",
]
