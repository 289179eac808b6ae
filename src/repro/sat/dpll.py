"""A plain DPLL SAT solver.

This is the reference implementation used to cross-check the CDCL engine in
the test suite, and a minimal example of the :class:`repro.core.interface`
Boolean-solver contract.  It performs unit propagation with chronological
backtracking — no learning, no heuristics.  Its propagator,
:func:`unit_propagate`, is also stage 0's Boolean unit propagation
(:mod:`repro.core.presolve`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .cnf import CNF, Assignment

__all__ = ["DPLLSolver", "solve_dpll", "unit_propagate"]


def unit_propagate(clauses: Sequence[Sequence[int]], assignment: Assignment) -> bool:
    """Extend ``assignment`` to the unit-propagation fixpoint of ``clauses``.

    Returns False when some clause is falsified (a conflict); the
    assignment then holds whatever was assigned up to the conflict.  Each
    pass carries only the clauses still open into the next one: a clause
    found satisfied, or made unit and so satisfied, stays satisfied.
    """
    open_clauses = clauses
    changed = True
    while changed:
        changed = False
        still_open = []
        for clause in open_clauses:
            unassigned: List[int] = []
            satisfied = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    unassigned.append(literal)
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if not unassigned:
                return False
            if len(unassigned) == 1:
                literal = unassigned[0]
                assignment[abs(literal)] = literal > 0
                changed = True
            else:
                still_open.append(clause)
        open_clauses = still_open
    return True


class DPLLSolver:
    """Complete DPLL search over a CNF formula.

    The solver is stateless between calls; assumptions may be supplied as a
    list of literals that are forced before the search starts.
    """

    def __init__(self, max_decisions: Optional[int] = None):
        self.max_decisions = max_decisions
        self.decisions = 0

    def solve(self, cnf: CNF, assumptions: Tuple[int, ...] = ()) -> Optional[Assignment]:
        """Return a satisfying total assignment, or None when UNSAT.

        Raises RuntimeError when ``max_decisions`` is exhausted.
        """
        self.decisions = 0
        assignment: Assignment = {}
        for literal in assumptions:
            var, value = abs(literal), literal > 0
            if assignment.get(var, value) != value:
                return None
            assignment[var] = value
        clauses = [list(clause) for clause in cnf.clauses]
        result = self._search(clauses, assignment)
        if result is None:
            return None
        # Complete the assignment for variables never touched by the search.
        for var in range(1, cnf.num_vars + 1):
            result.setdefault(var, False)
        return result

    # ------------------------------------------------------------------
    def _search(self, clauses: List[List[int]], assignment: Assignment) -> Optional[Assignment]:
        assignment = dict(assignment)
        if not unit_propagate(clauses, assignment):
            return None
        status = self._status(clauses, assignment)
        if status is True:
            return assignment
        if status is False:
            return None

        variable = self._pick_branch_variable(clauses, assignment)
        if variable is None:
            return assignment
        self.decisions += 1
        if self.max_decisions is not None and self.decisions > self.max_decisions:
            raise RuntimeError("DPLL decision budget exhausted")
        for value in (True, False):
            extended = dict(assignment)
            extended[variable] = value
            result = self._search(clauses, extended)
            if result is not None:
                return result
        return None

    def _status(self, clauses: List[List[int]], assignment: Assignment) -> Optional[bool]:
        all_satisfied = True
        for clause in clauses:
            satisfied = False
            open_clause = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    open_clause = True
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if open_clause:
                all_satisfied = False
            else:
                return False
        return True if all_satisfied else None

    def _pick_branch_variable(
        self, clauses: List[List[int]], assignment: Assignment
    ) -> Optional[int]:
        """Most-frequent unassigned variable among unsatisfied clauses."""
        counts: Dict[int, int] = {}
        for clause in clauses:
            if any(assignment.get(abs(l)) == (l > 0) for l in clause):
                continue
            for literal in clause:
                var = abs(literal)
                if var not in assignment:
                    counts[var] = counts.get(var, 0) + 1
        if not counts:
            return None
        return max(counts, key=lambda var: (counts[var], -var))


def solve_dpll(cnf: CNF, assumptions: Tuple[int, ...] = ()) -> Optional[Assignment]:
    """Convenience wrapper: one-shot DPLL solve."""
    return DPLLSolver().solve(cnf, assumptions)
