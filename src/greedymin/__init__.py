"""Greedy convex minimization over orthonormal dictionaries.

Implements the weak Chebyshev greedy algorithm for convex objectives, with
orthogonal matching pursuit as its t = 1 case, together with the analysis
toolkit that derives its per-step error recursions and convergence-rate
bounds from the smoothness and uniform-convexity behavior of the objective.
"""

from .analysis import (RateConstants, SequenceBoundInput, check_error_recursion,
                       check_moduli_equivalence, error_bound, estimate_moduli, fit_rate,
                       rate_constants, recursive_sequence_bound, verify_trace)
from .config import (ConfigError, config_from_mapping, load_config, parse_config_text,
                     sub_seed)
from .core import CurvatureParams, IterateTrace, TraceStep, as_point, norm
from .dictionaries import CanonicalBasis, Dictionary, RotatedBasis, weak_select
from .harness import (build_dictionary, build_objective, derive_constants,
                      run_compare, run_demo_cs, run_experiment, run_moduli)
from .objectives import (DiagonalQuadratic, LeastSquares, Objective, PowerSum,
                         bregman_gap, estimate_condition_constants,
                         estimate_gradient_bound, estimate_level_set_diameter,
                         uniform_ball)
from .solvers import (InnerSolveError, SolverConfig, WeaknessSchedule, restricted_minimize,
                      run_wcga)

__version__ = "0.1.0"

__all__ = [
    "CanonicalBasis", "ConfigError", "CurvatureParams", "DiagonalQuadratic", "Dictionary",
    "InnerSolveError", "IterateTrace", "LeastSquares", "Objective", "PowerSum",
    "RateConstants", "RotatedBasis", "SequenceBoundInput", "SolverConfig", "TraceStep",
    "WeaknessSchedule", "as_point", "bregman_gap", "build_dictionary", "build_objective",
    "check_error_recursion", "check_moduli_equivalence", "config_from_mapping",
    "derive_constants", "error_bound", "estimate_condition_constants",
    "estimate_gradient_bound", "estimate_level_set_diameter", "estimate_moduli", "fit_rate",
    "load_config", "norm", "parse_config_text", "rate_constants",
    "recursive_sequence_bound", "restricted_minimize", "run_compare", "run_demo_cs",
    "run_experiment", "run_moduli", "run_wcga", "sub_seed", "uniform_ball", "verify_trace",
    "weak_select",
]
