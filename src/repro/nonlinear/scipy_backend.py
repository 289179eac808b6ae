"""Optional scipy-backed nonlinear solver.

ABsolver's selling point is that "the most appropriate solver for a given
task can be integrated and used" (abstract).  This module demonstrates the
claim by wrapping :func:`scipy.optimize.minimize` (SLSQP) behind the exact
same feasibility interface as the from-scratch augmented-Lagrangian engine.
It is registered in the solver registry under ``"scipy-slsqp"`` when scipy
is installed, and silently absent otherwise — no hard dependency.  scipy
itself is imported only when the solver runs, so importing :mod:`repro`
does not pay for it.
"""

from __future__ import annotations

import importlib.util
import math
import random
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from ..core.expr import Constraint, EvaluationError, Relation, Sub
from .auglag import Bounds, NLPResult, NLPStatus, STRICT_MARGIN, resolve_box

__all__ = ["ScipySLSQPSolver", "scipy_available"]


def scipy_available() -> bool:
    """True when scipy is installed in this environment (it is not imported)."""
    return importlib.util.find_spec("scipy") is not None


class ScipySLSQPSolver:
    """Feasibility via SLSQP: minimize 0 subject to the constraint set.

    Drop-in alternative backend for
    :class:`repro.nonlinear.auglag.AugmentedLagrangianSolver`; same result
    type, same multi-start strategy.
    """

    def __init__(self, max_starts: int = 8, tolerance: float = 1e-9, seed: int = 20070416):
        if not scipy_available():
            raise RuntimeError("scipy is not available; use AugmentedLagrangianSolver")
        self.max_starts = max_starts
        self.tolerance = tolerance
        self.seed = seed

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        if not constraints:
            return NLPResult(NLPStatus.SAT, {}, residual=0.0, certified=True)
        from scipy.optimize import minimize

        variables = sorted({name for c in constraints for name in c.variables()})

        scipy_constraints = []
        for constraint in constraints:
            difference = Sub(constraint.lhs, constraint.rhs).simplify()
            gradient = [difference.diff(var).simplify() for var in variables]

            def make_fun(expr, sign):
                def fun(x: np.ndarray) -> float:
                    env = dict(zip(variables, (float(v) for v in x)))
                    try:
                        return sign * expr.evaluate(env)
                    except EvaluationError:
                        return -1e12  # poison: marks the point infeasible
                return fun

            def make_jac(grads, sign):
                def jac(x: np.ndarray) -> np.ndarray:
                    env = dict(zip(variables, (float(v) for v in x)))
                    out = np.zeros(len(variables))
                    for j, g in enumerate(grads):
                        try:
                            out[j] = sign * g.evaluate(env)
                        except EvaluationError:
                            out[j] = 0.0
                    return out
                return jac

            relation = constraint.relation
            if relation is Relation.EQ:
                scipy_constraints.append(
                    {"type": "eq", "fun": make_fun(difference, 1.0), "jac": make_jac(gradient, 1.0)}
                )
            elif relation in (Relation.LE, Relation.LT):
                margin = STRICT_MARGIN if relation is Relation.LT else 0.0
                shifted = (Sub(constraint.rhs, constraint.lhs) - margin).simplify()
                shifted_grad = [shifted.diff(var).simplify() for var in variables]
                scipy_constraints.append(
                    {"type": "ineq", "fun": make_fun(shifted, 1.0), "jac": make_jac(shifted_grad, 1.0)}
                )
            else:  # GE / GT
                margin = STRICT_MARGIN if relation is Relation.GT else 0.0
                shifted = (Sub(constraint.lhs, constraint.rhs) - margin).simplify()
                shifted_grad = [shifted.diff(var).simplify() for var in variables]
                scipy_constraints.append(
                    {"type": "ineq", "fun": make_fun(shifted, 1.0), "jac": make_jac(shifted_grad, 1.0)}
                )

        box = resolve_box(variables, bounds)

        rng = random.Random(self.seed)
        starts: List[np.ndarray] = []
        for hint in hints or ():
            starts.append(np.array([float(hint.get(v, 0.0)) for v in variables]))
        starts.append(np.array([(lo + hi) / 2 for lo, hi in box]))
        while len(starts) < self.max_starts:
            starts.append(np.array([rng.uniform(lo, hi) for lo, hi in box]))

        best_residual = math.inf
        best_point: Dict[str, float] = {}
        for index, start in enumerate(starts):
            result = minimize(
                lambda x: 0.0,
                start,
                jac=lambda x: np.zeros(len(variables)),
                method="SLSQP",
                bounds=box,
                constraints=scipy_constraints,
                options={"maxiter": 200, "ftol": self.tolerance},
            )
            candidate = dict(zip(variables, (float(v) for v in result.x)))
            residual = self._max_violation(constraints, candidate)
            if residual < best_residual:
                best_residual = residual
                best_point = candidate
            if residual <= 10 * self.tolerance:
                return NLPResult(
                    NLPStatus.SAT, candidate, residual=residual, starts_used=index + 1
                )
        return NLPResult(
            NLPStatus.UNKNOWN, best_point, residual=best_residual, starts_used=len(starts)
        )

    @staticmethod
    def _max_violation(constraints: Sequence[Constraint], point: Mapping[str, float]) -> float:
        worst = 0.0
        for constraint in constraints:
            try:
                lhs = constraint.lhs.evaluate(point)
                rhs = constraint.rhs.evaluate(point)
            except EvaluationError:
                return math.inf
            relation = constraint.relation
            if relation is Relation.EQ:
                worst = max(worst, abs(lhs - rhs))
            elif relation is Relation.LE:
                worst = max(worst, lhs - rhs)
            elif relation is Relation.LT:
                # strict: equality already counts as violated (by the margin)
                worst = max(worst, lhs - rhs + STRICT_MARGIN)
            elif relation is Relation.GE:
                worst = max(worst, rhs - lhs)
            else:  # GT
                worst = max(worst, rhs - lhs + STRICT_MARGIN)
        return max(worst, 0.0)
