"""Boolean satisfiability substrate: CNF, DPLL, CDCL, Tseitin, all-SAT.

These are the from-scratch replacements for the off-the-shelf Boolean
engines the paper plugs into ABsolver (zChaff for single solutions, LSAT for
all-solutions enumeration).
"""

from .cnf import CNF, Clause, Assignment, lit_var, lit_sign
from .dpll import DPLLSolver, solve_dpll, unit_propagate
from .cdcl import CDCLSolver, solve_cdcl, luby
from .allsat import AllSATSolver, iterate_models, count_models
from .tseitin import (
    BoolExpr,
    BConst,
    BVar,
    BNot,
    BAnd,
    BOr,
    BXor,
    BImplies,
    BIff,
    tseitin_encode,
    TseitinResult,
)

__all__ = [
    "CNF",
    "Clause",
    "Assignment",
    "lit_var",
    "lit_sign",
    "DPLLSolver",
    "solve_dpll",
    "unit_propagate",
    "CDCLSolver",
    "solve_cdcl",
    "luby",
    "AllSATSolver",
    "iterate_models",
    "count_models",
    "BoolExpr",
    "BConst",
    "BVar",
    "BNot",
    "BAnd",
    "BOr",
    "BXor",
    "BImplies",
    "BIff",
    "tseitin_encode",
    "TseitinResult",
]
