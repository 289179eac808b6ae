"""Branch-and-bound over the exact simplex for integer feasibility.

The paper's Sudoku encoding (Sec. 5.3) "can make use of integers", i.e. some
theory variables are integer-typed (``c def int`` in the input language).
COIN provides MILP machinery for this; our stand-in is a depth-first
branch-and-bound on the LP relaxation: solve the relaxation, pick a variable
with a fractional value, branch on ``x <= floor`` / ``x >= ceil``.  A
node's system holds at most one branch row per variable and side: a deeper
bound on the same side replaces the earlier one, so a dive does not grow
the tableau it re-solves at every level.

Because the LP is exact (rational), integrality detection is exact too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ..core.expr import Relation
from .lp import LinearConstraint, LinearSystem
from .simplex import LPResult, LPStatus, SimplexSolver

__all__ = ["BranchAndBoundSolver", "solve_mixed_integer"]


class BranchAndBoundSolver:
    """Depth-first branch-and-bound for mixed integer feasibility.

    ``max_nodes`` bounds the search tree; exceeding it raises RuntimeError
    (used by the baselines to model resource exhaustion honestly rather than
    silently returning a wrong answer).
    """

    def __init__(self, max_nodes: int = 100_000, simplex: Optional[SimplexSolver] = None):
        self.max_nodes = max_nodes
        self.simplex = simplex or SimplexSolver()
        self.nodes_explored = 0

    def check(self, system: LinearSystem) -> LPResult:
        """Find a point satisfying all rows with integer vars integral."""
        self.nodes_explored = 0
        integer_vars = sorted(system.integer_variables())
        return self._search(system, integer_vars)

    # ------------------------------------------------------------------
    def _search(self, system: LinearSystem, integer_vars: List[str]) -> LPResult:
        # A node is its system plus the position of its branch row on each
        # (variable, relation); positions, not tags, mark branch rows, since
        # an input row may carry any tag.  A child's row replaces the node's
        # row on the same variable and side: the node's relaxation point
        # satisfies that row and is fractional in the variable, so the new
        # bound is strictly tighter.
        stack: List[Tuple[LinearSystem, Dict[Tuple[str, Relation], int]]] = [(system, {})]
        while stack:
            self.nodes_explored += 1
            if self.nodes_explored > self.max_nodes:
                raise RuntimeError("branch-and-bound node budget exhausted")
            node, branch_rows = stack.pop()
            relaxation = self.simplex.check(node)
            if relaxation.status is not LPStatus.FEASIBLE:
                continue
            fractional = self._first_fractional(relaxation.point, integer_vars)
            if fractional is None:
                point = self._round_integers(relaxation.point, integer_vars)
                return LPResult(LPStatus.FEASIBLE, point)
            var, value = fractional
            floor_value = Fraction(math.floor(value))
            # Depth-first, floor branch explored first.
            for relation, bound in ((Relation.GE, floor_value + 1), (Relation.LE, floor_value)):
                child = node.copy()
                child_rows = dict(branch_rows)
                row = LinearConstraint({var: Fraction(1)}, relation, bound, tag="branch")
                position = child_rows.get((var, relation))
                if position is None:
                    child_rows[(var, relation)] = len(child.rows)
                    child.add(row)
                else:
                    child.rows[position] = row
                stack.append((child, child_rows))
        return LPResult(LPStatus.INFEASIBLE)

    @staticmethod
    def _first_fractional(
        point: Dict[str, Fraction], integer_vars: List[str]
    ) -> Optional[Tuple[str, Fraction]]:
        for var in integer_vars:
            value = point.get(var, Fraction(0))
            if value.denominator != 1:
                return var, value
        return None

    @staticmethod
    def _round_integers(
        point: Dict[str, Fraction], integer_vars: List[str]
    ) -> Dict[str, Fraction]:
        # All integer vars are integral here; normalize their denominators.
        cleaned = dict(point)
        for var in integer_vars:
            if var in cleaned:
                cleaned[var] = Fraction(int(cleaned[var]))
        return cleaned


def solve_mixed_integer(system: LinearSystem, max_nodes: int = 100_000) -> LPResult:
    """Convenience wrapper: one-shot mixed-integer feasibility check."""
    return BranchAndBoundSolver(max_nodes=max_nodes).check(system)
