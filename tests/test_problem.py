"""Tests for the ABProblem container, model checking and pickling."""

import pickle

import pytest

from repro.core import ABSolver, parse_constraint
from repro.core.expr import Constraint
from repro.core.problem import ABProblem, Definition


class TestDefinitions:
    def test_define_and_stats(self):
        problem = ABProblem()
        problem.define(1, "int", parse_constraint("i >= 0"))
        problem.define(2, "real", parse_constraint("x * x <= 4"))
        stats = problem.stats()
        assert stats.num_linear == 1 and stats.num_nonlinear == 1

    def test_redefinition_rejected(self):
        problem = ABProblem()
        problem.define(1, "int", parse_constraint("i >= 0"))
        with pytest.raises(ValueError):
            problem.define(1, "int", parse_constraint("j >= 0"))

    def test_bad_domain_rejected(self):
        with pytest.raises(ValueError):
            Definition(1, "complex", parse_constraint("x >= 0"))

    def test_nonpositive_var_rejected(self):
        with pytest.raises(ValueError):
            Definition(0, "int", parse_constraint("x >= 0"))

    def test_define_grows_num_vars(self):
        problem = ABProblem()
        problem.define(7, "real", parse_constraint("x >= 0"))
        assert problem.cnf.num_vars == 7


class TestDomains:
    def test_int_wins_on_mixed_usage(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x + y >= 0"))
        problem.define(2, "int", parse_constraint("x <= 5"))
        domains = problem.variable_domains()
        assert domains["x"] == "int"
        assert domains["y"] == "real"

    def test_theory_variables(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("a * b >= c"))
        assert problem.theory_variables() == {"a", "b", "c"}


class TestBounds:
    def test_set_and_effective(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x + y >= 0"))
        problem.set_bounds("x", -7, 7)
        box = problem.effective_bounds(default=50)
        assert box["x"] == (-7, 7)
        assert box["y"] == (-50, 50)

    def test_one_sided(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 0"))
        problem.set_bounds("x", low=0)
        assert problem.effective_bounds(default=9)["x"] == (0, 9)

    def test_empty_bound_rejected(self):
        with pytest.raises(ValueError):
            ABProblem().set_bounds("x", 2, 1)


class TestCheckModel:
    def build(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([-2])
        problem.define(1, "real", parse_constraint("x >= 0"))
        problem.define(2, "real", parse_constraint("x > 5"))
        return problem

    def test_good_model(self):
        problem = self.build()
        assert problem.check_model({1: True, 2: False}, {"x": 3.0})

    def test_cnf_violation(self):
        problem = self.build()
        assert not problem.check_model({1: False, 2: False}, {"x": 3.0})

    def test_definition_violation(self):
        problem = self.build()
        assert not problem.check_model({1: True, 2: False}, {"x": -1.0})

    def test_negative_phase_checks_negation(self):
        problem = self.build()
        # x = 7 would make def2 true while alpha says false
        assert not problem.check_model({1: True, 2: False}, {"x": 7.0})

    def test_boundary_point_with_tolerance(self):
        """An exact boundary point must satisfy the *negation* of a strict
        constraint (regression: two-sided tolerance misjudged 10 < 10)."""
        problem = ABProblem()
        problem.add_clause([-1])
        problem.define(1, "int", parse_constraint("2*i + j < 10"))
        assert problem.check_model({1: False}, {"i": 5.0, "j": 0.0})

    def test_integrality_enforced(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "int", parse_constraint("i >= 0"))
        assert problem.check_model({1: True}, {"i": 2.0})
        assert not problem.check_model({1: True}, {"i": 2.5})

    def test_evaluation_error_fails_closed(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("1 / x > 0"))
        assert not problem.check_model({1: True}, {"x": 0.0})

    def test_internal_error_propagates(self, monkeypatch):
        def broken(self, env, tolerance=0.0):
            raise RuntimeError("internal error")

        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x > 0"))
        monkeypatch.setattr(Constraint, "evaluate", broken)
        with pytest.raises(RuntimeError):
            problem.check_model({1: True}, {"x": 1.0})


def small_problem() -> ABProblem:
    problem = ABProblem()
    problem.define(1, "real", parse_constraint("x + y <= 4"))
    problem.define(2, "real", parse_constraint("x - y >= 1"))
    problem.define(3, "real", parse_constraint("x >= 2.5"))
    problem.add_clause([1])
    problem.add_clause([2, 3])
    return problem


class TestPickleProtocol:
    def test_problem_round_trip(self):
        problem = small_problem()
        clone = pickle.loads(pickle.dumps(problem))
        assert clone.cnf.clauses == problem.cnf.clauses
        assert set(clone.definitions) == set(problem.definitions)
        for var in problem.definitions:
            original = problem.definitions[var].constraint
            copied = clone.definitions[var].constraint
            assert str(copied) == str(original)

    def test_model_round_trip(self):
        result = ABSolver().solve(small_problem())
        assert result.is_sat
        clone = pickle.loads(pickle.dumps(result.model))
        assert clone == result.model
        assert hash(clone) == hash(result.model)
