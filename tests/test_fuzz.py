"""Differential / planted-model fuzzing across the whole solver stack."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import CVCLiteLikeSolver, MathSATLikeSolver
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.core import ABSolver, ABSolverConfig


class TestGeneratorInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_planted_model_is_valid(self, seed):
        instance = planted_problem(seed)
        assert instance.verify(), seed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_planted_integer_model_is_valid(self, seed):
        instance = planted_problem(seed, integer_vars=True)
        assert instance.verify(), seed

    def test_determinism(self):
        a = planted_problem(42)
        b = planted_problem(42)
        assert a.problem.cnf.clauses == b.problem.cnf.clauses
        assert a.theory_model == b.theory_model


class TestPlantedSolving:
    """Every planted instance is SAT by construction; the solver must agree
    and return a model passing the full check."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_absolver_finds_planted_sat(self, seed):
        instance = planted_problem(seed)
        result = ABSolver().solve(instance.problem)
        assert result.is_sat, seed
        assert instance.problem.check_model(
            result.model.boolean, result.model.theory
        ), seed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_absolver_integer_instances(self, seed):
        instance = planted_problem(seed, integer_vars=True)
        result = ABSolver().solve(instance.problem)
        assert result.is_sat, seed

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lsat_configuration(self, seed):
        instance = planted_problem(seed)
        result = ABSolver(ABSolverConfig(boolean="lsat")).solve(instance.problem)
        assert result.is_sat, seed


class TestDifferential:
    """All engines must agree on random instances of unknown status."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_configurations_agree(self, seed):
        problem = random_linear_problem(seed)
        reference = ABSolver().solve(problem)
        assert reference.status.value in ("sat", "unsat"), seed
        for config in (
            ABSolverConfig(boolean="lsat"),
            ABSolverConfig(boolean="dpll"),
            ABSolverConfig(refine_conflicts=False),
        ):
            other = ABSolver(config).solve(problem)
            assert other.status == reference.status, (seed, config.boolean)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_baselines_agree(self, seed):
        problem = random_linear_problem(seed)
        reference = ABSolver().solve(problem)
        for baseline in (MathSATLikeSolver(), CVCLiteLikeSolver()):
            other = baseline.solve(problem)
            assert other.status == reference.status, (seed, baseline.name)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sat_models_always_check(self, seed):
        problem = random_linear_problem(seed)
        result = ABSolver().solve(problem)
        if result.is_sat:
            assert problem.check_model(result.model.boolean, result.model.theory), seed
