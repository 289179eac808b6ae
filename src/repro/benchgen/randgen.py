"""Random AB-problem generators with planted models (fuzzing support).

Downstream users (and our own property tests) need a way to stress the
solver with problems whose answer is *known by construction*:

* :func:`planted_problem` builds a random Boolean-linear problem together
  with a model it is guaranteed to admit — the generator samples a random
  theory point and a random Boolean assignment, then only emits clauses and
  constraints consistent with them.  Any SAT solver verdict other than SAT
  (or a model failing :meth:`ABProblem.check_model`) is a bug.
* :func:`random_linear_problem` builds an unconstrained random instance for
  differential testing (ABsolver configurations vs the baselines must
  agree on the verdict even when it is not known in advance).

Generators are deterministic in their ``seed``.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from ..core.expr import Const, Constraint, Expr, Relation, Var
from ..core.problem import ABProblem

__all__ = ["planted_problem", "random_linear_problem", "PlantedInstance"]


class PlantedInstance:
    """A generated problem plus the model it was built around."""

    def __init__(
        self,
        problem: ABProblem,
        boolean_model: Dict[int, bool],
        theory_model: Dict[str, float],
    ):
        self.problem = problem
        self.boolean_model = boolean_model
        self.theory_model = theory_model

    def verify(self) -> bool:
        """The planted model must satisfy the problem (generator invariant)."""
        return self.problem.check_model(self.boolean_model, self.theory_model)


def _random_linear_expr(
    rng: random.Random, variables: Sequence[str], max_terms: int = 3
) -> Tuple[Expr, Dict[str, int]]:
    terms = rng.randint(1, max_terms)
    chosen = rng.sample(list(variables), min(terms, len(variables)))
    coeffs = {var: rng.choice([-3, -2, -1, 1, 2, 3]) for var in chosen}
    expr: Optional[Expr] = None
    for var, coeff in coeffs.items():
        term: Expr = Var(var) if coeff == 1 else Const(coeff) * Var(var)
        expr = term if expr is None else expr + term
    assert expr is not None
    return expr, coeffs


def planted_problem(
    seed: int,
    num_theory_vars: int = 3,
    num_definitions: int = 5,
    num_clauses: int = 8,
    integer_vars: bool = False,
) -> PlantedInstance:
    """Generate a problem guaranteed SAT, with its planted model."""
    rng = random.Random(seed)
    variables = [f"v{i}" for i in range(num_theory_vars)]
    domain = "int" if integer_vars else "real"
    theory_model: Dict[str, float] = {
        var: float(rng.randint(-5, 5)) if integer_vars else rng.uniform(-5.0, 5.0)
        for var in variables
    }

    problem = ABProblem(name=f"planted-{seed}")
    boolean_model: Dict[int, bool] = {}

    for index in range(1, num_definitions + 1):
        expr, coeffs = _random_linear_expr(rng, variables)
        value = sum(coeffs[var] * theory_model[var] for var in coeffs)
        # Choose a relation and a bound consistent with a coin flip of the
        # defined variable's phase.
        phase = rng.random() < 0.5
        relation = rng.choice([Relation.LE, Relation.GE, Relation.LT, Relation.GT])
        offset = rng.randint(1, 4)
        if relation in (Relation.LE, Relation.LT):
            bound = value + offset if phase else value - offset
        else:
            bound = value - offset if phase else value + offset
        if integer_vars:
            bound = float(int(bound))
            # integral bounds can collide with the value; re-separate
            if relation in (Relation.LE, Relation.LT) and phase and bound < value:
                bound = value + offset
            if relation in (Relation.GE, Relation.GT) and phase and bound > value:
                bound = value - offset
        constraint = Constraint(expr, relation, Const(bound))
        actual = constraint.evaluate(theory_model)
        problem.define(index, domain, constraint)
        boolean_model[index] = actual

    # Free Boolean variables beyond the definitions.
    num_free = rng.randint(1, 4)
    for free_index in range(num_definitions + 1, num_definitions + num_free + 1):
        boolean_model[free_index] = rng.random() < 0.5
        problem.cnf.num_vars = max(problem.cnf.num_vars, free_index)

    all_vars = sorted(boolean_model)
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = []
        for _ in range(width):
            var = rng.choice(all_vars)
            clause.append(var if rng.random() < 0.5 else -var)
        # Repair: ensure the planted model satisfies the clause.
        if not any(boolean_model[abs(l)] == (l > 0) for l in clause):
            var = rng.choice([abs(l) for l in clause])
            clause.append(var if boolean_model[var] else -var)
        problem.add_clause(clause)

    for var in variables:
        problem.set_bounds(var, -50, 50)
    return PlantedInstance(problem, boolean_model, theory_model)


def random_linear_problem(
    seed: int,
    num_theory_vars: int = 3,
    num_definitions: int = 4,
    num_clauses: int = 6,
) -> ABProblem:
    """Generate an unconstrained random Boolean-linear instance."""
    rng = random.Random(seed)
    variables = [f"u{i}" for i in range(num_theory_vars)]
    problem = ABProblem(name=f"random-{seed}")
    for index in range(1, num_definitions + 1):
        expr, _ = _random_linear_expr(rng, variables)
        relation = rng.choice(
            [Relation.LE, Relation.GE, Relation.LT, Relation.GT, Relation.EQ]
        )
        problem.define(index, "real", Constraint(expr, relation, Const(rng.randint(-6, 6))))
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        clause = [
            rng.choice([1, -1]) * rng.randint(1, num_definitions) for _ in range(width)
        ]
        problem.add_clause(clause)
    return problem
