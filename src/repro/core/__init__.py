"""ABsolver core: the paper's primary contribution.

Exports the AB-problem model, the three-valued circuit representation, the
solver interface layer, and the multi-domain control loop.
"""

from .tristate import Tri, TT, FF, UNKNOWN, tri, tri_all, tri_any
from .problem import ABProblem, Definition, ProblemStats
from .solver import ABModel, ABResult, ABSolver, ABSolverConfig, ABStatus
from .session import SolverSession
from .pipeline import SolvePipeline
from .circuit import Circuit
from .registry import SolverRegistry, default_registry
from .interface import UnsupportedTheoryError, Refinement
from .optimize import ABOptimizer, OptimizationResult, OptimizationStatus
from .stats import SolveStatistics
from .expr import (
    Expr,
    Const,
    Var,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Pow,
    Call,
    Relation,
    Constraint,
    LinearForm,
    NonlinearExpressionError,
    EvaluationError,
    ExprParseError,
    parse_expression,
    parse_constraint,
)

__all__ = [
    "ABProblem",
    "Definition",
    "ProblemStats",
    "ABModel",
    "ABResult",
    "ABSolver",
    "ABSolverConfig",
    "ABStatus",
    "SolverSession",
    "SolvePipeline",
    "Circuit",
    "SolverRegistry",
    "default_registry",
    "UnsupportedTheoryError",
    "Refinement",
    "ABOptimizer",
    "OptimizationResult",
    "OptimizationStatus",
    "SolveStatistics",
    "Tri",
    "TT",
    "FF",
    "UNKNOWN",
    "tri",
    "tri_all",
    "tri_any",
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Call",
    "Relation",
    "Constraint",
    "LinearForm",
    "NonlinearExpressionError",
    "EvaluationError",
    "ExprParseError",
    "parse_expression",
    "parse_constraint",
]
