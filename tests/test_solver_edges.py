"""Edge-case tests for the control loop and statistics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ABProblem,
    ABSolver,
    ABSolverConfig,
    ABStatus,
    parse_constraint,
)
from repro.sat import CNF, AllSATSolver


class TestIterationBudget:
    def test_budget_exhaustion_is_unknown(self):
        # a problem needing several iterations, budget of 1
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        # force the first candidate to conflict by making both true possible
        problem.add_clause([1])
        problem.add_clause([2])
        result = ABSolver(ABSolverConfig(max_iterations=1)).solve(problem)
        # either it proves unsat in one shot (conflict + empty SAT space) or
        # reports the budget; both are acceptable terminations, never a hang
        assert result.status in (ABStatus.UNSAT, ABStatus.UNKNOWN)

    def test_zero_iterations(self):
        problem = ABProblem()
        problem.add_clause([1])
        result = ABSolver(ABSolverConfig(max_iterations=0)).solve(problem)
        assert result.status is ABStatus.UNKNOWN
        assert "budget" in result.reason


class TestUnknownPropagation:
    def test_unknown_reason_mentions_nonlinear(self):
        problem = ABProblem()
        problem.add_clause([1])
        # feasible only on a measure-zero curve the local solver may miss,
        # and the refuter cannot refute (it is satisfiable): with the
        # refuter disabled and a weak NLP budget, UNKNOWN is the honest answer
        problem.define(1, "real", parse_constraint("x * x = -1"))
        config = ABSolverConfig(
            use_interval_refuter=False,
            nonlinear_options={},
        )
        result = ABSolver(config).solve(problem)
        assert result.status is ABStatus.UNKNOWN

    def test_refuter_turns_unknown_into_unsat(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x * x = -1"))
        result = ABSolver().solve(problem)
        assert result.is_unsat

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "texts, wrong",
        [
            (["exp(x * y) <= 0.5", "x * y >= 1"], ABStatus.SAT),
            (["x^300 + y >= 1", "y <= -1e300"], ABStatus.UNSAT),
        ],
    )
    def test_overflow_in_the_search_is_not_a_crash(self, texts, wrong):
        # The local search walks to points where exp or a power overflows;
        # such a point is undefined, like a domain error, not a failure.
        problem = ABProblem()
        for var, text in enumerate(texts, start=1):
            problem.define(var, "real", parse_constraint(text))
            problem.add_clause([var])
        result = ABSolver().solve(problem)
        assert result.status is not wrong


class TestStatsAccounting:
    def test_timers_accumulate(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x >= 0"))
        result = ABSolver().solve(problem)
        stats = result.stats.as_dict()
        assert stats["time_boolean"] >= 0
        assert stats["time_linear"] >= 0
        assert stats["boolean_queries"] == 1
        assert stats["linear_checks"] == 1

    def test_equality_split_counter(self):
        problem = ABProblem()
        problem.add_clause([-1])
        problem.add_clause([2])
        problem.add_clause([3])
        problem.define(1, "real", parse_constraint("x = 3"))
        problem.define(2, "real", parse_constraint("x >= 2"))
        problem.define(3, "real", parse_constraint("x <= 4"))
        result = ABSolver().solve(problem)
        assert result.stats.equality_splits >= 1

    def test_stats_reset_between_solves(self):
        solver = ABSolver()
        problem = ABProblem()
        problem.add_clause([1])
        solver.solve(problem)
        first = solver.stats.boolean_queries
        solver.solve(problem)
        assert solver.stats.boolean_queries == first


class TestAllSATProjectionProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3),
            min_size=1,
            max_size=8,
        )
    )
    def test_projected_enumeration_counts(self, clauses):
        cnf = CNF(4)
        for clause in clauses:
            cnf.add_clause(clause)
        projection = [1, 2]
        # brute force: distinct projections of total models
        expected = set()
        for bits in itertools.product([False, True], repeat=4):
            assignment = {i + 1: bits[i] for i in range(4)}
            if cnf.is_satisfied_by(assignment):
                expected.add((assignment[1], assignment[2]))
        got = {
            (m[1], m[2])
            for m in AllSATSolver(cnf, projection=projection, minimize=False)
        }
        assert got == expected


class TestAssumptions:
    def build_two_regime_problem(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 6"))
        problem.define(2, "real", parse_constraint("x <= 1"))
        return problem

    def test_assumption_selects_regime(self):
        problem = self.build_two_regime_problem()
        high = ABSolver().solve(problem, assumptions=[1, -2])
        assert high.is_sat and high.model.theory["x"] >= 6
        low = ABSolver().solve(problem, assumptions=[-1, 2])
        assert low.is_sat and low.model.theory["x"] <= 1

    def test_contradictory_assumptions(self):
        problem = self.build_two_regime_problem()
        result = ABSolver().solve(problem, assumptions=[1, 2])
        assert result.is_unsat  # x >= 6 and x <= 1 together

    def test_assumption_against_clause(self):
        problem = ABProblem()
        problem.add_clause([1])
        result = ABSolver().solve(problem, assumptions=[-1])
        assert result.is_unsat

    def test_assumptions_do_not_persist(self):
        problem = self.build_two_regime_problem()
        solver = ABSolver()
        assert solver.solve(problem, assumptions=[1, 2]).is_unsat
        assert solver.solve(problem).is_sat

    def test_assumptions_with_lsat_and_dpll(self):
        problem = self.build_two_regime_problem()
        for boolean in ("lsat", "dpll"):
            result = ABSolver(ABSolverConfig(boolean=boolean)).solve(
                problem, assumptions=[-1, 2]
            )
            assert result.is_sat and result.model.theory["x"] <= 1, boolean


class TestBoundsInteraction:
    def test_declared_bounds_constrain_linear_checks(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.set_bounds("x", -1, 4)  # bound excludes the constraint
        assert ABSolver().solve(problem).is_unsat

    def test_one_sided_bound(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x <= -5"))
        problem.set_bounds("x", low=0)
        assert ABSolver().solve(problem).is_unsat

    def test_model_respects_bounds(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x + y >= 1"))
        problem.set_bounds("x", 0, 2)
        problem.set_bounds("y", 0, 2)
        result = ABSolver().solve(problem)
        assert result.is_sat
        assert 0 <= result.model.theory["x"] <= 2
        assert 0 <= result.model.theory["y"] <= 2
