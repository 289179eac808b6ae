"""Parallel solving: cube-and-conquer, portfolio racing, lemma sharing.

The public face is :class:`~repro.parallel.coordinator.ParallelSolver`;
the rest of the package is its machinery — the picklable task protocol
(:mod:`~repro.parallel.tasks`), the cube splitter
(:mod:`~repro.parallel.cubes`), the portfolio ladder of
``(label, ABSolverConfig)`` rungs (:mod:`~repro.parallel.portfolio`), and
the worker-process entry point (:mod:`~repro.parallel.worker`).  Every
task carries the caller's own :class:`~repro.core.solver.ABSolverConfig`
across the process boundary.
"""

from .coordinator import ParallelSolver, default_cube_depth
from .cubes import build_cubes, generate_cubes, pick_split_variables, split_cube
from .portfolio import portfolio_configs
from .tasks import SolveTask, WorkerOutcome

__all__ = [
    "ParallelSolver",
    "SolveTask",
    "WorkerOutcome",
    "portfolio_configs",
    "pick_split_variables",
    "generate_cubes",
    "build_cubes",
    "split_cube",
    "default_cube_depth",
]
