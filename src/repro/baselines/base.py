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

The two solvers differ only in how they search: early-pruning DPLL(T)
against an eager case-split frontier.  Everything else is one core here.
Both propagate with :func:`repro.sat.dpll.unit_propagate`, and both
consult the theory through :meth:`BaselineSolver._theory_check`.

That theory check deliberately keeps its own literal-to-row translation
and bound rows instead of sharing ABsolver's translation stage
(``TheoryTranslationStage``).  The tests that compare the baselines'
verdicts with ABsolver's would be blind to a translation fault the two
shared.

Baselines consume the same :class:`~repro.core.problem.ABProblem` inputs as
ABsolver and produce the same :class:`~repro.core.solver.ABResult`.
"""

from __future__ import annotations

import abc
import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.expr import Relation
from ..core.interface import UnsupportedTheoryError
from ..core.problem import ABProblem
from ..core.solver import ABResult
from ..core.stats import SolveStatistics
from ..linear.branch_bound import BranchAndBoundSolver
from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPStatus, SimplexSolver

__all__ = ["OutOfMemoryAbort", "BaselineSolver", "reject_nonlinear"]

#: A theory check's outcome: feasibility and, when feasible, a witness point.
TheoryOutcome = Tuple[bool, Optional[Dict[str, float]]]


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
    """Common baseline contract: ``solve(problem) -> ABResult``.

    A subclass's ``solve`` calls :meth:`_start` first, then runs its own
    search over ``self._clauses`` and consults :meth:`_theory_check`.
    """

    name = "baseline"

    def __init__(self) -> None:
        self.stats = SolveStatistics()
        self._simplex = SimplexSolver()

    @abc.abstractmethod
    def solve(self, problem: ABProblem) -> ABResult:
        """Decide the problem or raise Unsupported/OutOfMemory errors."""

    def _start(self, problem: ABProblem) -> None:
        """Reset the statistics and take in the problem of one solve."""
        self.stats = SolveStatistics()
        reject_nonlinear(problem, self.name)
        self._problem = problem
        self._domains = problem.variable_domains()
        self._clauses = [list(clause) for clause in problem.cnf.clauses]
        self._bound_rows: List[LinearConstraint] = []
        for var, (low, high) in problem.bounds.items():
            for bound, relation in ((low, Relation.GE), (high, Relation.LE)):
                if bound is not None:
                    self._bound_rows.append(
                        LinearConstraint(
                            {var: Fraction(1)},
                            relation,
                            Fraction(bound).limit_denominator(10**9),
                        )
                    )

    def _theory_check(self, assignment: Dict[int, bool], final: bool) -> TheoryOutcome:
        """Assert the theory literals of a (possibly partial) assignment.

        Unassigned definitions are skipped.  A negated equation splits
        into its alternatives; the splits are tried in order and the first
        feasible one wins.  Partial assignments check the real relaxation
        only; ``final`` ones also enforce integrality via branch-and-bound.
        """
        rows: List[LinearConstraint] = []
        splits: List[List[LinearConstraint]] = []
        for var, definition in self._problem.definitions.items():
            phase = assignment.get(var)
            if phase is None:
                continue
            if phase:
                rows.append(LinearConstraint.from_constraint(definition.constraint, tag=var))
                continue
            alternatives = [
                LinearConstraint.from_constraint(alt, tag=-var)
                for alt in definition.constraint.negated_alternatives()
            ]
            if len(alternatives) == 1:
                rows.append(alternatives[0])
            else:
                splits.append(alternatives)

        for choice in itertools.product(*splits):
            system = LinearSystem(rows + list(choice) + self._bound_rows, self._domains)
            self.stats.linear_checks += 1
            with self.stats.timed("linear"):
                if final and system.integer_variables():
                    result = BranchAndBoundSolver(simplex=self._simplex).check(system)
                else:
                    result = self._simplex.check(system)
            if result.status is LPStatus.FEASIBLE:
                return True, {v: float(value) for v, value in result.point.items()}
        return False, None
