"""The nonlinear micro-benchmarks of Table 1 (rows 2-4).

Three small instances exercising the nonlinear pipeline:

* ``esat_n11_m8`` — a mixed instance with 11 clauses combining 9 linear and
  2 nonlinear sub-problems (the paper's ``esat n11 - m8 nonlinear``;
  regenerated, since the original download is offline.  Our encoding ties
  one definition to one Boolean variable, so the Boolean variable count is
  11 where the paper reports 8 — noted in EXPERIMENTS.md).
* ``nonlinear_unsat`` — two nonlinear constraints whose conjunction is
  infeasible (``x * x + y * y < 1`` and ``(x + y) * (x + y) > 8``); the
  correct answer is UNSAT, which needs interval reasoning (a local NLP
  solver alone can never conclude it).  Stage 0's interval contraction
  settles it: the first constraint bounds ``x + y`` to ``[-2, 2]``, whose
  square is at most 4.  MathSAT/CVC-Lite-style solvers reject the instance.
* ``div_operator`` — 4 linear range constraints plus one constraint using
  the division operator (the paper highlights that adding ``/`` took
  "less than an hour of programming effort").
"""

from __future__ import annotations

from ..core.expr import parse_constraint
from ..core.problem import ABProblem

__all__ = ["esat_problem", "nonlinear_unsat_problem", "div_operator_problem", "MICRO_BENCHMARKS"]


def esat_problem() -> ABProblem:
    """11 clauses over 11 defined variables: 9 linear + 2 nonlinear."""
    problem = ABProblem(name="esat_n11_m8_nonlinear")
    linear_texts = [
        "u0 + u1 <= 4",
        "u0 - u1 >= -3",
        "u1 + u2 <= 6",
        "u2 - u3 <= 2",
        "u3 + u0 >= -1",
        "u2 + u3 <= 7",
        "u1 - u3 <= 3",
        "u0 <= 2",
        "u3 >= -2",
    ]
    nonlinear_texts = [
        "u0 * u1 + u2 <= 5",
        "u2 * u2 - u3 <= 6",
    ]
    for index, text in enumerate(linear_texts + nonlinear_texts, start=1):
        problem.define(index, "real", parse_constraint(text))
    for var in ("u0", "u1", "u2", "u3"):
        problem.set_bounds(var, -10.0, 10.0)
    # 11 clauses mixing phases: stability checks hold, a few may fail.
    problem.add_clause([1])
    problem.add_clause([2, 3])
    problem.add_clause([-4, 5])
    problem.add_clause([4, 6])
    problem.add_clause([7])
    problem.add_clause([8, -9])
    problem.add_clause([9, 10])
    problem.add_clause([-10, 11])
    problem.add_clause([10, 11])
    problem.add_clause([-1, 2, 11])
    problem.add_clause([3, -6, 10])
    return problem


def nonlinear_unsat_problem() -> ABProblem:
    """Jointly infeasible nonlinear pair; expected verdict: UNSAT."""
    problem = ABProblem(name="nonlinear_unsat")
    # (x + y)^2 <= 2 (x^2 + y^2) < 2 < 8, so the pair is jointly infeasible.
    problem.define(1, "real", parse_constraint("x * x + y * y < 1"))
    problem.define(2, "real", parse_constraint("(x + y) * (x + y) > 8"))
    problem.set_bounds("x", -10.0, 10.0)
    problem.set_bounds("y", -10.0, 10.0)
    problem.add_clause([1])
    problem.add_clause([2])
    return problem


def div_operator_problem() -> ABProblem:
    """4 linear ranges + one division constraint; expected verdict: SAT."""
    problem = ABProblem(name="div_operator")
    problem.define(1, "real", parse_constraint("x >= 1"))
    problem.define(2, "real", parse_constraint("x <= 10"))
    problem.define(3, "real", parse_constraint("y >= 1"))
    problem.define(4, "real", parse_constraint("y <= 10"))
    problem.define(5, "real", parse_constraint("x / y = 2"))
    for clause_var in range(1, 6):
        problem.add_clause([clause_var])
    problem.set_bounds("x", -20.0, 20.0)
    problem.set_bounds("y", -20.0, 20.0)
    return problem


#: Benchmark id -> (factory, expected status string) for harness loops.
MICRO_BENCHMARKS = {
    "esat_n11_m8_nonlinear": (esat_problem, "sat"),
    "nonlinear_unsat": (nonlinear_unsat_problem, "unsat"),
    "div_operator": (div_operator_problem, "sat"),
}
