"""Damped Newton–Raphson for square nonlinear equation systems.

The augmented-Lagrangian solver handles arbitrary mixes of equalities and
inequalities; when a sub-problem happens to be a *square system of
equalities* (n equations, n unknowns — common for environment models built
from differential-equation right-hand sides), Newton's method converges
quadratically and is much cheaper.  ABsolver's nonlinear solver list tries
Newton first on such systems and falls back to the augmented Lagrangian —
the paper's "list of solvers ... if the preceding solvers thereof failed to
provide a decent result" (Sec. 4).
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.expr import Constraint, EvaluationError, Expr, Relation, Sub

__all__ = ["NewtonSolver", "NewtonResult"]


class NewtonResult:
    """Outcome of a Newton run: converged flag, point, final residual norm."""

    def __init__(self, converged: bool, point: Dict[str, float], residual: float, iterations: int):
        self.converged = converged
        self.point = point
        self.residual = residual
        self.iterations = iterations

    def __repr__(self) -> str:
        return (
            f"NewtonResult(converged={self.converged}, residual={self.residual:.3g}, "
            f"iterations={self.iterations})"
        )


class NewtonSolver:
    """Damped Newton iteration on ``F(x) = 0`` built from equality constraints."""

    def __init__(self, max_iterations: int = 60, tolerance: float = 1e-10):
        self.max_iterations = max_iterations
        self.tolerance = tolerance

    @staticmethod
    def applicable(constraints: Sequence[Constraint]) -> bool:
        """True for a square system of equalities (n eqs over n vars)."""
        if not constraints:
            return False
        if any(c.relation is not Relation.EQ for c in constraints):
            return False
        variables = {name for c in constraints for name in c.variables()}
        return len(variables) == len(constraints)

    def solve(
        self,
        constraints: Sequence[Constraint],
        start: Optional[Mapping[str, float]] = None,
    ) -> NewtonResult:
        """Run damped Newton from ``start`` (default: all zeros, nudged)."""
        if not self.applicable(constraints):
            raise ValueError("NewtonSolver requires a square system of equalities")
        variables = sorted({name for c in constraints for name in c.variables()})
        n = len(variables)
        system: List[Expr] = [Sub(c.lhs, c.rhs).simplify() for c in constraints]
        jacobian: List[List[Expr]] = [
            [equation.diff(var).simplify() for var in variables] for equation in system
        ]

        x = np.array(
            [float(start[var]) if start and var in start else 0.1 for var in variables]
        )

        def evaluate(point: np.ndarray) -> Optional[np.ndarray]:
            env = dict(zip(variables, (float(v) for v in point)))
            values = np.empty(n)
            for i, equation in enumerate(system):
                try:
                    values[i] = equation.evaluate(env)
                except EvaluationError:
                    return None
            return values

        residual_vec = evaluate(x)
        if residual_vec is None:
            return NewtonResult(False, dict(zip(variables, x)), math.inf, 0)
        residual = float(np.linalg.norm(residual_vec))

        for iteration in range(1, self.max_iterations + 1):
            if residual <= self.tolerance:
                return NewtonResult(True, dict(zip(variables, (float(v) for v in x))), residual, iteration - 1)
            env = dict(zip(variables, (float(v) for v in x)))
            J = np.empty((n, n))
            try:
                for i in range(n):
                    for j in range(n):
                        J[i, j] = jacobian[i][j].evaluate(env)
            except EvaluationError:
                break
            try:
                step = np.linalg.solve(J, -residual_vec)
            except np.linalg.LinAlgError:
                # Singular Jacobian: take a regularized least-squares step.
                step, *_ = np.linalg.lstsq(J + 1e-8 * np.eye(n), -residual_vec, rcond=None)
            # Damping: halve until the residual decreases.
            alpha = 1.0
            improved = False
            for _ in range(30):
                candidate = x + alpha * step
                candidate_vec = evaluate(candidate)
                if candidate_vec is not None:
                    candidate_res = float(np.linalg.norm(candidate_vec))
                    if candidate_res < residual:
                        x, residual_vec, residual = candidate, candidate_vec, candidate_res
                        improved = True
                        break
                alpha *= 0.5
            if not improved:
                break
        converged = residual <= self.tolerance
        return NewtonResult(
            converged, dict(zip(variables, (float(v) for v in x))), residual, self.max_iterations
        )
