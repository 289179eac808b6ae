"""Differential / planted-model fuzzing across the whole solver stack."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines import CVCLiteLikeSolver, MathSATLikeSolver
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.core import ABProblem, ABSolver, ABSolverConfig, parse_constraint
from repro.core.certify import verify_certificate


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


def _difference_problem(seed):
    """A seeded AB-problem inside the difference-logic fragment.

    2-3 groups of 2-4 real variables; 6-16 definitions ``x - y REL c`` or
    ``±x REL c``, each within one group; random clauses over the
    definition variables.  Every candidate's system spans the groups, so
    it has several variable-sharing components.
    """
    rng = random.Random(seed)
    groups = [
        [f"g{group}v{index}" for index in range(rng.randint(2, 4))]
        for group in range(rng.randint(2, 3))
    ]
    problem = ABProblem(name=f"difference-{seed}")
    count = rng.randint(6, 16)
    for var in range(1, count + 1):
        group = rng.choice(groups)
        # Few equations: each negated one splits every candidate in two.
        relation = rng.choice(["<=", "<", ">=", ">"] * 2 + ["="])
        bound = rng.randint(-5, 5)
        if rng.random() < 0.6:
            x, y = rng.sample(group, 2)
            text = f"{x} - {y} {relation} {bound}"
        else:
            x = rng.choice(group)
            text = rng.choice([f"{x} {relation} {bound}", f"0 - {x} {relation} {bound}"])
        problem.define(var, "real", parse_constraint(text))
    for _ in range(rng.randint(count // 2, count)):
        clause = [rng.choice([1, -1]) * rng.randint(1, count) for _ in range(rng.randint(1, 3))]
        problem.add_clause(clause)
    return problem


class TestDifferenceEngineMatrix:
    """The difference engine against the simplex on multi-component
    candidate systems; SAT models checked, UNSAT verdicts certified."""

    def test_difference_agrees_with_simplex(self):
        verdicts = {"sat": 0, "unsat": 0}
        for seed in range(200):
            problem = _difference_problem(seed)
            result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
            reference = ABSolver(ABSolverConfig(linear="simplex")).solve(problem)
            assert result.status == reference.status, seed
            verdicts[result.status.value] += 1
            if result.is_sat:
                assert problem.check_model(result.model.boolean, result.model.theory), seed
            else:
                certified = ABSolver(
                    ABSolverConfig(linear="difference", record_certificate=True)
                ).solve(problem)
                assert certified.is_unsat, seed
                assert verify_certificate(problem, certified.certificate), seed
        assert min(verdicts.values()) >= 40, verdicts
