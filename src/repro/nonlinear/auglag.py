"""Augmented-Lagrangian nonlinear feasibility solver — the IPOPT stand-in.

The paper plugs IPOPT [11] in for "the nonlinear part": given the subset of
(in)equality constraints implied by a Boolean assignment, decide whether a
real-valued point satisfying all of them exists.  IPOPT is an interior-point
NLP code; our from-scratch substitute is a bound-constrained augmented
Lagrangian method:

* equality constraints ``h(x) = 0`` get multipliers and quadratic penalties,
* inequality constraints ``g(x) <= 0`` are handled with the standard
  ``max(0, lambda + rho g)`` clipped-multiplier form,
* the inner unconstrained subproblem is minimized by BFGS with projection
  onto the variable box and an Armijo backtracking line search,
* gradients are *symbolic* (from :meth:`repro.core.expr.Expr.diff`),
* multi-start over deterministic sample points combats local minima.

Like IPOPT, the method is local and therefore incomplete: failure to find a
feasible point yields UNKNOWN, never UNSAT.  Success is certified by exact
re-evaluation (and optionally interval arithmetic) before ABsolver trusts it.
"""

from __future__ import annotations

import enum
import math
import random
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.expr import Constraint, EvaluationError, Expr, Relation, Sub
from .intervals import Interval, check_constraint_interval
from ..core.tristate import TT

__all__ = ["NLPStatus", "NLPResult", "AugmentedLagrangianSolver", "Bounds"]

#: Per-variable box bounds; None means unbounded on that side.
Bounds = Mapping[str, Tuple[Optional[float], Optional[float]]]

#: Margin used to turn strict inequalities into closed ones.
STRICT_MARGIN = 1e-7


#: How far a variable without bounds is sampled from either side of zero.
DEFAULT_RADIUS = 100.0


def resolve_box(
    variables: Sequence[str], bounds: Optional[Bounds]
) -> List[Tuple[float, float]]:
    """The finite sampling box of ``variables`` under ``bounds``.

    A missing end becomes ±100, or lies 100 past the other end when that end
    is above 0 (below 0 for a missing lower end), so the box is never
    inverted: ``x >= 200`` samples from [200, 300].
    """
    box: List[Tuple[float, float]] = []
    for var in variables:
        lo, hi = (None, None)
        if bounds and var in bounds:
            lo, hi = bounds[var]
        if lo is None:
            lo = -DEFAULT_RADIUS if hi is None else min(-DEFAULT_RADIUS, hi - DEFAULT_RADIUS)
        if hi is None:
            hi = max(DEFAULT_RADIUS, lo + DEFAULT_RADIUS)
        box.append((lo, hi))
    return box


class NLPStatus(enum.Enum):
    """Outcome of a nonlinear feasibility query."""

    SAT = "sat"
    UNKNOWN = "unknown"  # local method found no feasible point


class NLPResult:
    """NLP outcome: status, witness point, residual, iteration counts."""

    def __init__(
        self,
        status: NLPStatus,
        point: Optional[Dict[str, float]] = None,
        residual: float = math.inf,
        starts_used: int = 0,
        certified: bool = False,
    ):
        self.status = status
        self.point = point or {}
        self.residual = residual
        self.starts_used = starts_used
        self.certified = certified

    @property
    def is_sat(self) -> bool:
        return self.status is NLPStatus.SAT

    def __repr__(self) -> str:
        return (
            f"NLPResult({self.status.value}, residual={self.residual:.3g}, "
            f"starts={self.starts_used}, certified={self.certified})"
        )


class _Residual:
    """One constraint compiled to residual form ``r(x)`` with kind tag.

    kind 'eq':   feasible iff r(x) == 0
    kind 'ineq': feasible iff r(x) <= 0
    """

    __slots__ = ("expr", "kind", "gradient", "source")

    def __init__(self, expr: Expr, kind: str, variables: Sequence[str], source: Constraint):
        self.expr = expr
        self.kind = kind
        self.source = source
        self.gradient: List[Expr] = [expr.diff(var).simplify() for var in variables]


def _compile_constraint(constraint: Constraint, variables: Sequence[str]) -> _Residual:
    difference = Sub(constraint.lhs, constraint.rhs).simplify()
    relation = constraint.relation
    if relation is Relation.EQ:
        return _Residual(difference, "eq", variables, constraint)
    if relation in (Relation.LE,):
        return _Residual(difference, "ineq", variables, constraint)
    if relation in (Relation.LT,):
        return _Residual((difference + STRICT_MARGIN).simplify(), "ineq", variables, constraint)
    if relation is Relation.GE:
        return _Residual(Sub(constraint.rhs, constraint.lhs).simplify(), "ineq", variables, constraint)
    # GT
    return _Residual(
        (Sub(constraint.rhs, constraint.lhs) + STRICT_MARGIN).simplify(), "ineq", variables, constraint
    )


class AugmentedLagrangianSolver:
    """Multi-start augmented-Lagrangian feasibility solver.

    Parameters mirror the knobs the paper exposes "via command line
    parameters": starts, outer/inner iteration budgets, tolerance, and
    whether to interval-certify successful points.
    """

    def __init__(
        self,
        max_starts: int = 12,
        outer_iterations: int = 25,
        inner_iterations: int = 120,
        tolerance: float = 1e-8,
        rho_initial: float = 10.0,
        rho_growth: float = 5.0,
        certify: bool = True,
        seed: int = 20070416,  # DATE 2007 conference date
    ):
        self.max_starts = max_starts
        self.outer_iterations = outer_iterations
        self.inner_iterations = inner_iterations
        self.tolerance = tolerance
        self.rho_initial = rho_initial
        self.rho_growth = rho_growth
        self.certify = certify
        self.seed = seed

    # ------------------------------------------------------------------
    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        """Search for a point satisfying every constraint.

        ``bounds`` supplies the variable box used for sampling start points
        and projection; a missing end is filled by :func:`resolve_box`.
        ``hints`` are extra start points (e.g. the linear solver's model).
        """
        if not constraints:
            return NLPResult(NLPStatus.SAT, {}, residual=0.0, certified=True)
        variables = sorted({name for c in constraints for name in c.variables()})
        residuals = [_compile_constraint(c, variables) for c in constraints]
        box = resolve_box(variables, bounds)

        rng = random.Random(self.seed)
        starts: List[np.ndarray] = []
        for hint in hints or ():
            starts.append(
                np.array([float(hint.get(var, 0.0)) for var in variables], dtype=float)
            )
        starts.append(self._box_center(box))
        while len(starts) < self.max_starts:
            starts.append(self._sample(box, rng))

        best_residual = math.inf
        best_point: Optional[np.ndarray] = None
        for index, start in enumerate(starts):
            point, residual = self._solve_from(start, residuals, variables, box)
            if residual < best_residual:
                best_residual = residual
                best_point = point
            if residual <= self.tolerance:
                candidate = dict(zip(variables, (float(v) for v in point)))
                if self._accept(constraints, candidate):
                    certified = (not self.certify) or self._interval_certify(
                        constraints, candidate
                    )
                    return NLPResult(
                        NLPStatus.SAT,
                        candidate,
                        residual=residual,
                        starts_used=index + 1,
                        certified=certified,
                    )
        point_dict = (
            dict(zip(variables, (float(v) for v in best_point)))
            if best_point is not None
            else {}
        )
        return NLPResult(
            NLPStatus.UNKNOWN, point_dict, residual=best_residual, starts_used=len(starts)
        )

    # ------------------------------------------------------------------
    # Augmented Lagrangian outer loop
    # ------------------------------------------------------------------
    def _solve_from(
        self,
        start: np.ndarray,
        residuals: Sequence[_Residual],
        variables: Sequence[str],
        box: Sequence[Tuple[float, float]],
    ) -> Tuple[np.ndarray, float]:
        x = self._project(start.copy(), box)
        multipliers = np.zeros(len(residuals))
        rho = self.rho_initial

        def eval_residuals(point: np.ndarray) -> Optional[np.ndarray]:
            env = dict(zip(variables, (float(v) for v in point)))
            values = np.empty(len(residuals))
            for i, residual in enumerate(residuals):
                try:
                    values[i] = residual.expr.evaluate(env)
                except EvaluationError:
                    return None
            return values

        best_x = x
        best_violation = self._max_violation(eval_residuals(x), residuals)

        for _ in range(self.outer_iterations):
            x = self._minimize_inner(x, residuals, variables, box, multipliers, rho)
            values = eval_residuals(x)
            violation = self._max_violation(values, residuals)
            if violation < best_violation:
                best_violation = violation
                best_x = x
            if violation <= self.tolerance:
                return x, violation
            if values is None:
                break  # wandered into an undefined region; give up this start
            # Multiplier updates (clipped for inequalities).
            for i, residual in enumerate(residuals):
                if residual.kind == "eq":
                    multipliers[i] += rho * values[i]
                else:
                    multipliers[i] = max(0.0, multipliers[i] + rho * values[i])
            rho *= self.rho_growth
        return best_x, best_violation

    @staticmethod
    def _max_violation(
        values: Optional[np.ndarray], residuals: Sequence[_Residual]
    ) -> float:
        if values is None:
            return math.inf
        worst = 0.0
        for value, residual in zip(values, residuals):
            violation = abs(value) if residual.kind == "eq" else max(0.0, value)
            worst = max(worst, violation)
        return worst

    # ------------------------------------------------------------------
    # Inner BFGS with box projection
    # ------------------------------------------------------------------
    def _minimize_inner(
        self,
        x0: np.ndarray,
        residuals: Sequence[_Residual],
        variables: Sequence[str],
        box: Sequence[Tuple[float, float]],
        multipliers: np.ndarray,
        rho: float,
    ) -> np.ndarray:
        n = len(x0)

        def objective_and_gradient(point: np.ndarray) -> Tuple[float, Optional[np.ndarray]]:
            env = dict(zip(variables, (float(v) for v in point)))
            total = 0.0
            grad = np.zeros(n)
            for i, residual in enumerate(residuals):
                try:
                    value = residual.expr.evaluate(env)
                except EvaluationError:
                    return math.inf, None
                if residual.kind == "eq":
                    total += multipliers[i] * value + 0.5 * rho * value * value
                    weight = multipliers[i] + rho * value
                else:
                    shifted = multipliers[i] + rho * value
                    if shifted <= 0.0:
                        total += -multipliers[i] ** 2 / (2.0 * rho)
                        continue
                    total += (shifted * shifted - multipliers[i] ** 2) / (2.0 * rho)
                    weight = shifted
                for j in range(n):
                    try:
                        grad[j] += weight * residual.gradient[j].evaluate(env)
                    except EvaluationError:
                        return math.inf, None
            return total, grad

        x = x0.copy()
        value, gradient = objective_and_gradient(x)
        if gradient is None:
            return x
        H = np.eye(n)  # inverse Hessian approximation
        for _ in range(self.inner_iterations):
            direction = -H.dot(gradient)
            if np.linalg.norm(gradient) < 1e-12:
                break
            if gradient.dot(direction) > -1e-14:
                direction = -gradient
                H = np.eye(n)
            step, new_x, new_value = self._line_search(
                x, direction, value, gradient, objective_and_gradient, box
            )
            if step == 0.0:
                break
            new_value2, new_gradient = objective_and_gradient(new_x)
            if new_gradient is None:
                break
            s = new_x - x
            y = new_gradient - gradient
            sy = s.dot(y)
            if sy > 1e-12:
                rho_bfgs = 1.0 / sy
                I = np.eye(n)
                V = I - rho_bfgs * np.outer(s, y)
                H = V.dot(H).dot(V.T) + rho_bfgs * np.outer(s, s)
            x, value, gradient = new_x, new_value2, new_gradient
            if abs(new_value - value) < 1e-16 and np.linalg.norm(s) < 1e-14:
                break
        return x

    def _line_search(
        self,
        x: np.ndarray,
        direction: np.ndarray,
        value: float,
        gradient: np.ndarray,
        objective: Callable[[np.ndarray], Tuple[float, Optional[np.ndarray]]],
        box: Sequence[Tuple[float, float]],
    ) -> Tuple[float, np.ndarray, float]:
        """Armijo backtracking with projection onto the box."""
        slope = gradient.dot(direction)
        step = 1.0
        for _ in range(40):
            candidate = self._project(x + step * direction, box)
            candidate_value, _ = objective(candidate)
            if candidate_value < value + 1e-4 * step * slope or candidate_value < value - 1e-16:
                return step, candidate, candidate_value
            step *= 0.5
        return 0.0, x, value

    # ------------------------------------------------------------------
    # Sampling and acceptance
    # ------------------------------------------------------------------
    @staticmethod
    def _box_center(box: Sequence[Tuple[float, float]]) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in box], dtype=float)

    @staticmethod
    def _sample(box: Sequence[Tuple[float, float]], rng: random.Random) -> np.ndarray:
        return np.array([rng.uniform(lo, hi) for lo, hi in box], dtype=float)

    @staticmethod
    def _project(point: np.ndarray, box: Sequence[Tuple[float, float]]) -> np.ndarray:
        projected = point.copy()
        for i, (lo, hi) in enumerate(box):
            projected[i] = min(max(projected[i], lo), hi)
        return projected

    def _accept(
        self, constraints: Sequence[Constraint], candidate: Mapping[str, float]
    ) -> bool:
        """Exact re-check of all constraints at the candidate point."""
        try:
            return all(c.evaluate(candidate, tolerance=10 * self.tolerance) for c in constraints)
        except EvaluationError:
            return False

    def _interval_certify(
        self, constraints: Sequence[Constraint], candidate: Mapping[str, float]
    ) -> bool:
        """Certify the point over a tiny interval box (robustness check)."""
        env = {
            name: Interval.around(value, 1e-12 * max(1.0, abs(value)))
            for name, value in candidate.items()
        }
        return all(check_constraint_interval(c, env) is TT for c in constraints)
