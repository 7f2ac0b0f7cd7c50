"""Convex monotone operators on finite filtered spaces.

Dual representation of max-affine operators between filtration levels,
sandwich-preserving maximal extension to the full payoff space, and
time-consistent composition of one-step extensions over a level grid,
with penalty cocycles and grid-refinement comparisons.
"""

from .dynamic import (ExtendedSystem, GridError, OperatorSystem,
                      RefinementReport, SystemStructureError,
                      SystemValidationError, check_cocycle_and_local,
                      extend_system, factor_density, price,
                      refine_and_compare, system_penalty, validate_system)
from .extension import (Attainment, DensityError, ExtendedOperator,
                        PenaltyValue, SandwichViolation, attain, conjugate,
                        density_set, maximal_extension, minimal_penalty,
                        verify_representation)
from .lp import (LinearProgram, LpResult, LpStatusError, solve_lp,
                 support_function)
from .operators import (BoundPair, BoundsError, CheckEntry, DensityPolytope,
                        DomainError, Piece, PolyhedralOperator, PolytopeError,
                        SandwichReport, ValidationReport, check_mM1,
                        check_nondegenerate, check_sandwich, validate_operator)
from .scenario import (SCHEMA_VERSION, Scenario, ScenarioError,
                       build_scenario, load_scenario)
from .spaces import (FilteredSpace, LevelError, MeasurabilityError,
                     RandomVariable, SpaceError, at_level, cond_expectation,
                     indicator, pointwise_max)
from .subspaces import Subspace, full_space, span_closure

__version__ = "0.1.0"

__all__ = [
    "Attainment", "BoundPair", "BoundsError", "CheckEntry", "DensityError",
    "DensityPolytope", "DomainError", "ExtendedOperator", "ExtendedSystem",
    "FilteredSpace", "GridError", "LevelError", "LinearProgram", "LpResult",
    "LpStatusError", "MeasurabilityError", "OperatorSystem", "PenaltyValue", "Piece",
    "PolyhedralOperator", "PolytopeError", "RandomVariable",
    "RefinementReport", "SandwichReport", "SandwichViolation",
    "Scenario", "ScenarioError", "SCHEMA_VERSION", "SpaceError", "Subspace",
    "SystemStructureError", "SystemValidationError", "ValidationReport",
    "at_level", "attain", "build_scenario", "check_cocycle_and_local",
    "check_mM1", "check_nondegenerate", "check_sandwich", "cond_expectation",
    "conjugate", "density_set", "extend_system", "factor_density",
    "full_space", "indicator", "load_scenario", "maximal_extension",
    "minimal_penalty", "pointwise_max", "price", "refine_and_compare",
    "solve_lp", "span_closure", "support_function", "system_penalty",
    "validate_operator", "validate_system", "verify_representation",
]
