"""repro — a full reproduction of ABsolver (Bauer, Pister, Tautschnig;
"Tool-support for the analysis of hybrid systems and models", DATE 2007).

ABsolver is an extensible multi-domain SMT framework: Boolean combinations
of linear *and nonlinear* arithmetic constraints (AB-problems) are solved by
orchestrating pluggable domain solvers around a shared three-valued circuit
representation.  This package provides:

* :mod:`repro.core` — the AB-problem model, circuit, solver interfaces,
  registry, and the multi-domain control loop (:class:`~repro.core.solver.ABSolver`);
* :mod:`repro.sat` / :mod:`repro.linear` / :mod:`repro.nonlinear` — the
  from-scratch substrate solvers (CDCL, all-SAT, exact simplex, B&B,
  difference logic, augmented Lagrangian, Newton, interval refutation);
* :mod:`repro.io` — the extended DIMACS input language and SMT-LIB 1.2;
* :mod:`repro.simulink` — the MATLAB/Simulink-like front end and the
  model -> LUSTRE -> constraints conversion work-flow;
* :mod:`repro.baselines` — behavioural MathSAT / CVC Lite comparison solvers;
* :mod:`repro.benchgen` — generators for every benchmark in the paper's
  evaluation (car steering, FISCHER, Sudoku, nonlinear micro set);
* :mod:`repro.obs` — observability: one observer (the single
  ``ABSolverConfig(observer=...)`` setting) carrying nested span tracing
  (Chrome ``trace_event`` / JSONL export), typed solver events and the
  other diagnostics as sinks, the stage histograms of
  :class:`~repro.core.stats.SolveStatistics`, and benchmark trajectory
  records.

Quickstart::

    from repro import ABProblem, ABSolver, parse_constraint

    problem = ABProblem()
    problem.add_clause([1])
    problem.define(1, "real", parse_constraint("a * x + 3.5 / (4 - y) + 2 * y >= 7.1"))
    result = ABSolver().solve(problem)
    print(result.status, result.model.theory)
"""

from .core.expr import (
    Constraint,
    Expr,
    Relation,
    parse_constraint,
    parse_expression,
)
from .core.problem import ABProblem, Definition, ProblemStats
from .core.solver import ABModel, ABResult, ABSolver, ABSolverConfig, ABStatus
from .core.session import SolverSession
from .core.circuit import Circuit
from .core.registry import SolverRegistry, default_registry
from .core.tristate import Tri, TT, FF, UNKNOWN
from .io.dimacs import parse_dimacs, parse_dimacs_file, write_dimacs, format_dimacs
from .io.smtlib import parse_smtlib
from .obs import CollectingSink, Observer, SpanTracer, VerboseSink
from .parallel import ParallelSolver

__version__ = "1.0.0"

__all__ = [
    "Constraint",
    "Expr",
    "Relation",
    "parse_constraint",
    "parse_expression",
    "ABProblem",
    "Definition",
    "ProblemStats",
    "ABModel",
    "ABResult",
    "ABSolver",
    "ABSolverConfig",
    "ABStatus",
    "SolverSession",
    "ParallelSolver",
    "Circuit",
    "SolverRegistry",
    "default_registry",
    "Tri",
    "TT",
    "FF",
    "UNKNOWN",
    "parse_dimacs",
    "parse_dimacs_file",
    "write_dimacs",
    "format_dimacs",
    "parse_smtlib",
    "Observer",
    "SpanTracer",
    "CollectingSink",
    "VerboseSink",
    "__version__",
]
