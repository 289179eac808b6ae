"""Optimization modulo AB-theories (an extension beyond the paper).

The paper closes with test-case generation as future work; the natural next
step for a multi-domain framework is *optimization*: find the model of an
AB-problem minimizing (or maximizing) a linear objective over the theory
variables.  This module implements the standard lazy OMT loop on top of the
existing machinery:

1. run the ordinary control loop to obtain a theory-feasible Boolean
   assignment (branch);
2. *optimize* the linear objective over that branch's constraint system
   (exact simplex, branch-and-bound when integer variables are involved);
3. record the optimum, add an objective-cut — "the objective must beat the
   incumbent" — as an extra row of every subsequent theory check, and block
   the branch;
4. repeat until the Boolean space is exhausted; the incumbent is globally
   optimal.

Only problems whose definitions are all linear are supported (a nonlinear
definition raises :class:`UnsupportedTheoryError`): optimality certificates
over nonconvex constraints would need global optimization machinery that
neither the paper nor this extension claims.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPStatus, SimplexSolver
from ..linear.branch_bound import BranchAndBoundSolver
from ..sat.cnf import Assignment
from .expr import Relation
from .interface import BooleanSolverInterface, UnsupportedTheoryError
from .pipeline import complete_theory_model, declared_bound_rows
from .problem import ABProblem
from .registry import DOMAIN_BOOLEAN, SolverRegistry, default_registry
from .solver import ABModel
from .stats import SolveStatistics

__all__ = ["OptimizationStatus", "OptimizationResult", "ABOptimizer"]


class OptimizationStatus(enum.Enum):
    """Outcome of an optimization query."""

    OPTIMAL = "optimal"
    UNSAT = "unsat"
    UNBOUNDED = "unbounded"
    UNKNOWN = "unknown"


class OptimizationResult:
    """Optimum value, witness model, and loop statistics."""

    def __init__(
        self,
        status: OptimizationStatus,
        objective: Optional[Fraction] = None,
        model: Optional[ABModel] = None,
        stats: Optional[SolveStatistics] = None,
    ):
        self.status = status
        self.objective = objective
        self.model = model
        self.stats = stats or SolveStatistics()

    @property
    def is_optimal(self) -> bool:
        return self.status is OptimizationStatus.OPTIMAL

    def __repr__(self) -> str:
        return f"OptimizationResult({self.status.value}, objective={self.objective})"


class ABOptimizer:
    """Lazy OMT: branch-and-block with incumbent objective cuts."""

    def __init__(
        self,
        boolean: str = "cdcl",
        registry: Optional[SolverRegistry] = None,
        max_iterations: int = 100_000,
        max_equality_splits: int = 16,
    ):
        self.boolean = boolean
        self.registry = registry or default_registry
        self.max_iterations = max_iterations
        self.max_equality_splits = max_equality_splits
        self.stats = SolveStatistics()

    # ------------------------------------------------------------------
    def minimize(
        self, problem: ABProblem, objective: Mapping[str, Fraction]
    ) -> OptimizationResult:
        """Minimize ``sum(objective[v] * v)`` over the problem's models."""
        return self._optimize(problem, dict(objective), maximize=False)

    def maximize(
        self, problem: ABProblem, objective: Mapping[str, Fraction]
    ) -> OptimizationResult:
        """Maximize ``sum(objective[v] * v)`` over the problem's models."""
        return self._optimize(problem, dict(objective), maximize=True)

    # ------------------------------------------------------------------
    def _optimize(
        self, problem: ABProblem, objective: Dict[str, Fraction], maximize: bool
    ) -> OptimizationResult:
        self.stats = SolveStatistics()
        nonlinear = problem.nonlinear_definitions()
        if nonlinear:
            raise UnsupportedTheoryError(
                "ABOptimizer requires all definitions linear; found "
                f"{nonlinear[0].constraint}"
            )
        objective = {v: Fraction(c) for v, c in objective.items() if c != 0}
        domains = problem.variable_domains()
        simplex = SimplexSolver()
        branch_bound = BranchAndBoundSolver(simplex=simplex)
        boolean: BooleanSolverInterface = self.registry.create(DOMAIN_BOOLEAN, self.boolean)
        bound_rows = declared_bound_rows(problem)

        incumbent_value: Optional[Fraction] = None
        incumbent_model: Optional[ABModel] = None

        for _ in range(self.max_iterations):
            alpha = boolean.solve(problem.cnf)
            self.stats.boolean_queries += 1
            if alpha is None:
                break
            branch_best: Optional[Tuple[Fraction, Dict[str, Fraction]]] = None
            unbounded = False
            for branch_rows in self._branch_rows(problem, alpha):
                system = LinearSystem(branch_rows, dict(domains))
                for bound_row in bound_rows:
                    system.add(bound_row)
                if incumbent_value is not None:
                    # incumbent cut: only strictly better points matter
                    system.add(
                        LinearConstraint(
                            dict(objective),
                            Relation.GT if maximize else Relation.LT,
                            incumbent_value,
                            tag="incumbent-cut",
                        )
                    )
                outcome = self._optimize_branch(
                    system, objective, maximize, simplex, branch_bound
                )
                self.stats.linear_checks += 1
                if outcome == "unbounded":
                    unbounded = True
                    break
                if outcome is None:
                    continue
                value, point = outcome
                if branch_best is None or self._better(value, branch_best[0], maximize):
                    branch_best = (value, point)
            if unbounded:
                return OptimizationResult(
                    OptimizationStatus.UNBOUNDED, stats=self.stats
                )
            if branch_best is not None:
                value, point = branch_best
                if incumbent_value is None or self._better(value, incumbent_value, maximize):
                    incumbent_value = value
                    theory = {v: float(x) for v, x in point.items()}
                    complete_theory_model(problem, theory, domains)
                    incumbent_model = ABModel(alpha, theory)
            # Block this branch's defined-variable combination and continue.
            blocking = [
                (-var if alpha.get(var, False) else var) for var in problem.definitions
            ] or [(-var if value else var) for var, value in alpha.items()]
            self.stats.blocking_clauses += 1
            boolean.add_clause(blocking)

        if incumbent_model is None:
            return OptimizationResult(OptimizationStatus.UNSAT, stats=self.stats)
        return OptimizationResult(
            OptimizationStatus.OPTIMAL,
            objective=incumbent_value,
            model=incumbent_model,
            stats=self.stats,
        )

    # ------------------------------------------------------------------
    def _optimize_branch(
        self,
        system: LinearSystem,
        objective: Dict[str, Fraction],
        maximize: bool,
        simplex: SimplexSolver,
        branch_bound: BranchAndBoundSolver,
    ):
        """Optimum of the branch, None when infeasible, 'unbounded'."""
        if system.integer_variables():
            feasible = branch_bound.check(system)
            if feasible.status is not LPStatus.FEASIBLE:
                return None
            # Dichotomy on the objective over B&B feasibility: walk the
            # objective cut until no better integer point exists.
            value = self._objective_value(objective, feasible.point)
            point = feasible.point
            for _ in range(200):
                cut = LinearConstraint(
                    dict(objective),
                    Relation.LT if maximize is False else Relation.GT,
                    value,
                    tag="objective-cut",
                )
                tightened = system.copy()
                tightened.add(cut)
                improved = branch_bound.check(tightened)
                if improved.status is not LPStatus.FEASIBLE:
                    return value, point
                value = self._objective_value(objective, improved.point)
                point = improved.point
            return value, point  # budget hit: best found (still feasible)
        result = simplex.optimize(system, objective, maximize=maximize)
        if result.status is LPStatus.UNBOUNDED:
            return "unbounded"
        if result.status is not LPStatus.FEASIBLE:
            return None
        # Strict rows are weakened during optimization; when the optimum sits
        # on an open boundary (e.g. min x s.t. x > 0) the witness is not a
        # model.  Fall back to a strictly-feasible point — the reported
        # value is then "best attained", which is all a closed-form answer
        # can offer for an unattained infimum.
        if system.check_point(result.point):
            return result.objective, result.point
        feasible = simplex.check(system)
        if feasible.status is not LPStatus.FEASIBLE:
            return None
        return self._objective_value(objective, feasible.point), feasible.point

    @staticmethod
    def _objective_value(
        objective: Mapping[str, Fraction], point: Mapping[str, Fraction]
    ) -> Fraction:
        return sum(
            (coeff * point.get(var, Fraction(0)) for var, coeff in objective.items()),
            Fraction(0),
        )

    @staticmethod
    def _better(candidate: Fraction, reference: Fraction, maximize: bool) -> bool:
        return candidate > reference if maximize else candidate < reference

    # ------------------------------------------------------------------
    def _branch_rows(
        self, problem: ABProblem, alpha: Assignment
    ) -> Iterator[List[LinearConstraint]]:
        """All equality-split branches of the assignment's constraint set."""
        import itertools

        fixed: List[LinearConstraint] = []
        splits: List[List[LinearConstraint]] = []
        for var, definition in problem.definitions.items():
            phase = alpha.get(var, False)
            if phase:
                fixed.append(LinearConstraint.from_constraint(definition.constraint, tag=var))
            else:
                alternatives = [
                    LinearConstraint.from_constraint(alt, tag=-var)
                    for alt in definition.constraint.negated_alternatives()
                ]
                if len(alternatives) == 1:
                    fixed.append(alternatives[0])
                else:
                    splits.append(alternatives)
        if len(splits) > self.max_equality_splits:
            raise RuntimeError(
                f"{len(splits)} simultaneous negated equalities exceed the split budget"
            )
        for choice in itertools.product(*splits) if splits else [()]:
            yield fixed + list(choice)
