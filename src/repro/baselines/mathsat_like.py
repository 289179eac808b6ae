"""MathSAT-like baseline: tightly-integrated Boolean–linear DPLL(T).

MathSAT [3] "integrates both a Boolean as well as a linear solver and
benefits from a tight integration of its constituents" (Sec. 1.2).  The
mechanism behind that benefit is *early pruning*: the linear solver is
consulted on partial Boolean assignments at every decision level, so
theory-inconsistent branches die long before a full Boolean model is
enumerated.  The same mechanism is the architecture's weakness on problems
whose theory component is heavy: the LP is re-solved at (almost) every
decision over the complete constraint set, and nothing exploits an
integer-programming structure — which is exactly the paper's explanation for
Table 3 (Sudoku, 75–137 minutes, against ABsolver's sub-second times).

The implementation is a recursive DPLL with unit propagation and a
frequency heuristic; after every decision it builds the linear system
implied by the *currently assigned* defined variables and checks its real
relaxation.  Complete Boolean models additionally go through exact
branch-and-bound when integer variables are present.  Nonlinear definitions
are rejected up front (Table 1).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.problem import ABProblem
from ..core.solver import ABModel, ABResult, ABStatus
from ..sat.dpll import unit_propagate
from .base import BaselineSolver, TheoryOutcome

__all__ = ["MathSATLikeSolver"]


class _TheoryBudgetExceeded(Exception):
    """Internal: the configured deadline for theory checks was hit."""


class MathSATLikeSolver(BaselineSolver):
    """Boolean–linear solver with per-decision theory consultation.

    ``early_pruning_interval`` controls how many decisions pass between
    theory consultations (1 = check at every decision, the flagship MathSAT
    configuration).  ``max_theory_checks`` is a safety budget; exceeding it
    raises RuntimeError so benchmark harnesses can report a timeout honestly.
    """

    name = "mathsat-like"

    def __init__(
        self,
        early_pruning_interval: int = 1,
        max_theory_checks: Optional[int] = None,
        max_decisions: Optional[int] = None,
    ):
        super().__init__()
        if early_pruning_interval < 1:
            raise ValueError("early_pruning_interval must be >= 1")
        self.early_pruning_interval = early_pruning_interval
        self.max_theory_checks = max_theory_checks
        self.max_decisions = max_decisions

    # ------------------------------------------------------------------
    def solve(self, problem: ABProblem) -> ABResult:
        self._start(problem)
        self._decisions = 0
        try:
            outcome = self._dpll({}, depth=0)
        except _TheoryBudgetExceeded:
            return ABResult(ABStatus.UNKNOWN, stats=self.stats, reason="theory budget")
        if outcome is None:
            return ABResult(ABStatus.UNSAT, stats=self.stats)
        boolean, theory = outcome
        for var in range(1, problem.cnf.num_vars + 1):
            boolean.setdefault(var, False)
        return ABResult(ABStatus.SAT, ABModel(boolean, theory), stats=self.stats)

    # ------------------------------------------------------------------
    def _dpll(
        self, assignment: Dict[int, bool], depth: int
    ) -> Optional[Tuple[Dict[int, bool], Dict[str, float]]]:
        assignment = dict(assignment)
        if not unit_propagate(self._clauses, assignment):
            return None

        # Tight integration: consult the linear solver on the partial
        # assignment before descending further.
        if depth % self.early_pruning_interval == 0:
            feasible, _ = self._theory_check(assignment, final=False)
            if not feasible:
                return None

        variable = self._pick_variable(assignment)
        if variable is None:
            # Complete Boolean model: the theory answer must now be exact.
            feasible, theory = self._theory_check(assignment, final=True)
            if not feasible:
                return None
            return assignment, theory or {}

        self._decisions += 1
        self.stats.boolean_queries += 1
        if self.max_decisions is not None and self._decisions > self.max_decisions:
            raise _TheoryBudgetExceeded()
        for value in (True, False):
            extended = dict(assignment)
            extended[variable] = value
            result = self._dpll(extended, depth + 1)
            if result is not None:
                return result
        return None

    # ------------------------------------------------------------------
    def _pick_variable(self, assignment: Dict[int, bool]) -> Optional[int]:
        counts: Dict[int, int] = {}
        for clause in self._clauses:
            if any(assignment.get(abs(l)) == (l > 0) for l in clause):
                continue
            for literal in clause:
                var = abs(literal)
                if var not in assignment:
                    counts[var] = counts.get(var, 0) + 1
        if counts:
            return max(counts, key=lambda var: (counts[var], -var))
        # All clauses satisfied; assign remaining defined vars (their phase
        # still matters for the theory) then everything else.
        for var in self._problem.definitions:
            if var not in assignment:
                return var
        for var in range(1, self._problem.cnf.num_vars + 1):
            if var not in assignment:
                return var
        return None

    # ------------------------------------------------------------------
    def _theory_check(self, assignment: Dict[int, bool], final: bool) -> TheoryOutcome:
        """Give up once ``max_theory_checks`` LP checks are spent."""
        if self.max_theory_checks is not None and self.stats.linear_checks >= self.max_theory_checks:
            raise _TheoryBudgetExceeded()
        return super()._theory_check(assignment, final)
