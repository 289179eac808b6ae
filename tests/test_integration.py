"""Cross-module integration tests: full pipelines over generated workloads."""

from repro.baselines import CVCLiteLikeSolver, MathSATLikeSolver
from repro.benchgen import fischer_problem, fischer_smtlib_text, steering_problem
from repro.core import ABProblem, ABSolver, ABSolverConfig, parse_constraint
from repro.core.circuit import Circuit
from repro.core.tristate import TT
from repro.io.dimacs import format_dimacs, parse_dimacs
from repro.io.smtlib import parse_smtlib


class TestDimacsPipeline:
    def test_steering_survives_dimacs_roundtrip(self):
        problem = steering_problem()
        again = parse_dimacs(format_dimacs(problem), name=problem.name)
        assert again.stats().as_row() == problem.stats().as_row()
        result = ABSolver().solve(again)
        assert result.is_sat

    def test_fischer_smtlib_to_dimacs_chain(self):
        """SMT-LIB text -> ABProblem -> extended DIMACS -> ABProblem."""
        benchmark = parse_smtlib(fischer_smtlib_text(2))
        text = format_dimacs(benchmark.problem)
        again = parse_dimacs(text)
        r1 = ABSolver(ABSolverConfig(linear="difference")).solve(benchmark.problem)
        r2 = ABSolver(ABSolverConfig(linear="difference")).solve(again)
        assert r1.status == r2.status


class TestCrossSolverAgreement:
    """ABsolver configurations and baselines must agree on verdicts."""

    def cases(self):
        problems = []
        # linear SAT
        p = ABProblem(name="lin-sat")
        p.add_clause([1, 2])
        p.define(1, "real", parse_constraint("x >= 5"))
        p.define(2, "real", parse_constraint("x <= 3"))
        problems.append((p, "sat"))
        # linear UNSAT
        p = ABProblem(name="lin-unsat")
        p.add_clause([1])
        p.add_clause([2])
        p.define(1, "real", parse_constraint("x >= 5"))
        p.define(2, "real", parse_constraint("x <= 3"))
        problems.append((p, "unsat"))
        # integer window
        p = ABProblem(name="int-unsat")
        p.add_clause([1])
        p.add_clause([2])
        p.define(1, "int", parse_constraint("3*x >= 4"))
        p.define(2, "int", parse_constraint("3*x <= 5"))
        problems.append((p, "unsat"))
        # difference logic
        p = ABProblem(name="dl-sat")
        p.add_clause([1])
        p.add_clause([2, 3])
        p.define(1, "real", parse_constraint("x - y <= -1"))
        p.define(2, "real", parse_constraint("y - x <= -1"))
        p.define(3, "real", parse_constraint("y - x <= 5"))
        problems.append((p, "sat"))
        return problems

    def test_all_configurations_agree(self):
        boolean_choices = ("cdcl", "dpll", "lsat")
        linear_choices = ("simplex", "difference")
        for problem, expected in self.cases():
            for boolean in boolean_choices:
                for linear in linear_choices:
                    result = ABSolver(
                        ABSolverConfig(boolean=boolean, linear=linear)
                    ).solve(problem)
                    assert result.status.value == expected, (
                        problem.name,
                        boolean,
                        linear,
                    )

    def test_baselines_agree(self):
        for problem, expected in self.cases():
            for baseline in (MathSATLikeSolver(), CVCLiteLikeSolver()):
                result = baseline.solve(problem)
                assert result.status.value == expected, (problem.name, baseline.name)


class TestCircuitConsistency:
    def test_sat_models_drive_output_tt(self):
        problem = fischer_problem(2)
        result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
        assert result.is_sat
        circuit = Circuit.from_ab_problem(problem)
        assert circuit.evaluate_boolean_assignment(result.model.boolean) is TT

    def test_theory_evaluation_of_model(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x >= 1"))
        result = ABSolver().solve(problem)
        circuit = Circuit.from_ab_problem(problem)
        assert circuit.evaluate(theory=result.model.theory) is TT


class TestSolverReuse:
    def test_solver_instance_reusable_across_problems(self):
        solver = ABSolver()
        p1 = ABProblem()
        p1.add_clause([1])
        p2 = ABProblem()
        p2.add_clause([1])
        p2.add_clause([-1])
        assert solver.solve(p1).is_sat
        assert solver.solve(p2).is_unsat
        assert solver.solve(p1).is_sat  # stats reset, state fresh

    def test_all_solutions_then_solve(self):
        solver = ABSolver()
        problem = ABProblem()
        problem.add_clause([1, 2])
        assert len(list(solver.all_solutions(problem))) == 3
        assert solver.solve(problem).is_sat
