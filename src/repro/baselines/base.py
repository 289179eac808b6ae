"""Shared infrastructure for the comparison solvers of Sec. 5.

The paper benchmarks ABsolver against MathSAT [3] and CVC Lite [1].  We
cannot run 2006 binaries, so :mod:`repro.baselines` re-implements the
*architectural mechanisms* the paper credits for their observed behaviour:

* both are Boolean+linear only — they "rejected the problems due to the
  nonlinear arithmetic inequalities" (Table 1);
* MathSAT's tight Boolean/linear integration prunes theory-inconsistent
  branches early, which wins on the easy SMT-LIB instances (Table 2) but
  pays a large per-decision LP cost on integer-heavy problems (Table 3);
* CVC Lite's eager validity-checking case-split exhausts memory on Sudoku
  (the ``–*`` entries of Table 3).

Baselines consume the same :class:`~repro.core.problem.ABProblem` inputs as
ABsolver and produce the same :class:`~repro.core.solver.ABResult`.
"""

from __future__ import annotations

import abc

from ..core.interface import UnsupportedTheoryError
from ..core.problem import ABProblem
from ..core.solver import ABResult
from ..core.stats import SolveStatistics

__all__ = ["OutOfMemoryAbort", "BaselineSolver", "reject_nonlinear"]


class OutOfMemoryAbort(Exception):
    """The solver exceeded its memory budget (rendered as ``–*`` in tables)."""


def reject_nonlinear(problem: ABProblem, solver_name: str) -> None:
    """Raise UnsupportedTheoryError when the problem has nonlinear definitions.

    This reproduces the Table 1 behaviour of both comparison solvers.
    """
    nonlinear = problem.nonlinear_definitions()
    if nonlinear:
        example = nonlinear[0].constraint
        raise UnsupportedTheoryError(
            f"{solver_name} supports only Boolean-linear problems; "
            f"rejected nonlinear constraint: {example}"
        )


class BaselineSolver(abc.ABC):
    """Common baseline contract: ``solve(problem) -> ABResult``."""

    name = "baseline"

    def __init__(self) -> None:
        self.stats = SolveStatistics()

    @abc.abstractmethod
    def solve(self, problem: ABProblem) -> ABResult:
        """Decide the problem or raise Unsupported/OutOfMemory errors."""
