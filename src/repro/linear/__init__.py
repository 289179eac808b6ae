"""Linear arithmetic substrate: exact simplex, IIS extraction, and
branch-and-bound for integer domains — the stand-in for COIN [5]."""

from .lp import LinearConstraint, LinearSystem, VariableDomain
from .simplex import LPStatus, LPResult, SimplexSolver, check_feasibility, optimize
from .iis import extract_iis, is_infeasible_subset
from .branch_bound import BranchAndBoundSolver, solve_mixed_integer
from .difference import DifferenceLogicSolver, is_difference_row, is_difference_system

__all__ = [
    "LinearConstraint",
    "LinearSystem",
    "VariableDomain",
    "LPStatus",
    "LPResult",
    "SimplexSolver",
    "check_feasibility",
    "optimize",
    "extract_iis",
    "is_infeasible_subset",
    "BranchAndBoundSolver",
    "solve_mixed_integer",
    "DifferenceLogicSolver",
    "is_difference_row",
    "is_difference_system",
]
