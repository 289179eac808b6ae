"""End-to-end tests for the ABsolver control loop."""

import random

import pytest

from repro.core import (
    ABProblem,
    ABSolver,
    ABSolverConfig,
    ABStatus,
    parse_constraint,
)
from repro.benchgen.nonlinear_micro import div_operator_problem, nonlinear_unsat_problem
from repro.benchgen.randgen import random_linear_problem
from repro.core.certify import verify_certificate
from repro.core.interface import AugLagNonlinearAdapter, CDCLBooleanAdapter
from repro.core.registry import default_registry
from repro.nonlinear import scipy_available
from repro.sat.cnf import CNF


def solve(problem, **config_kwargs):
    return ABSolver(ABSolverConfig(**config_kwargs)).solve(problem)


def fig2_problem():
    problem = ABProblem(name="fig2")
    problem.add_clause([1])
    problem.add_clause([-2, 3])
    problem.add_clause([4])
    problem.add_clause([5])
    problem.define(1, "int", parse_constraint("i >= 0"))
    problem.define(5, "int", parse_constraint("j >= 0"))
    problem.define(2, "int", parse_constraint("2*i + j < 10"))
    problem.define(3, "int", parse_constraint("i + j < 5"))
    problem.define(4, "real", parse_constraint("a * x + 3.5 / (4 - y) + 2 * y >= 7.1"))
    for var in ("a", "x", "y"):
        problem.set_bounds(var, -10, 10)
    return problem


class TestBooleanOnly:
    def test_sat(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.add_clause([-1, 2])
        result = solve(problem)
        assert result.is_sat
        assert result.model.boolean[2] is True

    def test_unsat(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([-1])
        assert solve(problem).is_unsat

    def test_empty_problem_sat(self):
        assert solve(ABProblem()).is_sat


class TestModelGuard:
    """The loop re-checks an accepted candidate with ``check_model`` alone."""

    def test_engine_violating_a_boolean_clause_is_caught(self):
        """An engine whose assignment breaks a clause no definition touches
        must make the solve fail loudly, never answer SAT."""

        class Liar(CDCLBooleanAdapter):
            def solve(self, cnf, assumptions=()):
                alpha = super().solve(cnf, assumptions)
                if alpha is not None:
                    alpha = dict(alpha)
                    alpha[2] = not alpha[2]
                return alpha

        registry = default_registry.copy()
        registry.register("boolean", "liar", Liar)
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 0"))
        problem.add_clause([1])
        problem.add_clause([2, 3])
        problem.add_clause([2, -3])  # forces the Boolean-only variable 2
        solver = ABSolver(ABSolverConfig(boolean="liar"), registry=registry)
        with pytest.raises(AssertionError, match="model check"):
            solver.solve(problem)

    @pytest.mark.parametrize("boolean", default_registry.available("boolean"))
    def test_engines_assign_every_clause_variable(self, boolean):
        """``check_model`` reads a missing variable as False; every engine
        leaves none of a clause's variables out of its assignment."""
        rng = random.Random(11)
        for _ in range(60):
            num_vars = rng.randint(1, 12)
            cnf = CNF(num_vars + rng.randint(0, 3))
            for _ in range(rng.randint(1, 30)):
                width = rng.randint(1, 3)
                cnf.add_clause(
                    [rng.choice((-1, 1)) * rng.randint(1, num_vars) for _ in range(width)]
                )
            engine = default_registry.create("boolean", boolean)
            alpha = engine.solve(cnf)
            if alpha is not None:
                assert cnf.variables() <= set(alpha)
                assert cnf.is_satisfied_by(alpha)


class TestPaperExample:
    def test_fig2_sat_with_valid_model(self):
        problem = fig2_problem()
        result = solve(problem)
        assert result.is_sat
        assert problem.check_model(result.model.boolean, result.model.theory)

    def test_fig2_all_boolean_solver_choices(self):
        problem = fig2_problem()
        for boolean in default_registry.available("boolean"):
            result = solve(problem, boolean=boolean)
            assert result.is_sat, boolean

    def test_fig2_int_vars_are_integral(self):
        result = solve(fig2_problem())
        assert result.model.theory["i"] == int(result.model.theory["i"])
        assert result.model.theory["j"] == int(result.model.theory["j"])


class TestLinearConflicts:
    def test_unsat_via_iis(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        # Presolve off: it proves this forced-row contradiction before the
        # loop, and the point here is the IIS refinement path.
        result = solve(problem, use_presolve=False)
        assert result.is_unsat
        assert result.stats.conflicts_refined >= 1

    def test_conflict_forces_boolean_flip(self):
        problem = ABProblem()
        problem.add_clause([1, 2])  # at least one of two incompatible ranges
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        result = solve(problem)
        assert result.is_sat
        boolean = result.model.boolean
        assert boolean[1] != boolean[2]

    def test_unsat_without_refinement(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        result = solve(problem, refine_conflicts=False)
        assert result.is_unsat
        assert result.stats.conflicts_refined == 0

    def test_refinement_reduces_iterations(self):
        """The IIS ablation: refined blocking needs <= iterations."""
        problem = ABProblem()
        # several independent free variables inflate the assignment space
        for var in range(1, 7):
            problem.add_clause([var, var + 10])
        problem.add_clause([20])
        problem.add_clause([21])
        problem.define(20, "real", parse_constraint("q >= 5"))
        problem.define(21, "real", parse_constraint("q <= 3"))
        refined = solve(problem, refine_conflicts=True)
        coarse = solve(problem, refine_conflicts=False)
        assert refined.is_unsat and coarse.is_unsat
        assert refined.stats.boolean_queries <= coarse.stats.boolean_queries


class TestEqualitySplits:
    def test_negated_equality_unsat(self):
        problem = ABProblem()
        problem.add_clause([-1])
        problem.add_clause([2])
        problem.add_clause([3])
        problem.define(1, "real", parse_constraint("x = 3"))
        problem.define(2, "real", parse_constraint("x >= 3"))
        problem.define(3, "real", parse_constraint("x <= 3"))
        assert solve(problem).is_unsat

    def test_negated_equality_sat(self):
        problem = ABProblem()
        problem.add_clause([-1])
        problem.add_clause([2])
        problem.add_clause([3])
        problem.define(1, "real", parse_constraint("x = 3"))
        problem.define(2, "real", parse_constraint("x >= 2"))
        problem.define(3, "real", parse_constraint("x <= 4"))
        result = solve(problem)
        assert result.is_sat
        assert result.model.theory["x"] != pytest.approx(3.0)

    def test_split_budget_enforced(self):
        problem = ABProblem()
        for var in range(1, 6):
            problem.add_clause([-var])
            problem.define(var, "real", parse_constraint(f"x{var} = {var}"))
        config = ABSolverConfig(max_equality_splits=2)
        with pytest.raises(RuntimeError):
            ABSolver(config).solve(problem)


class TestNonlinear:
    def test_nonlinear_sat(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x * x + y * y = 25"))
        problem.define(2, "real", parse_constraint("x - y = 1"))
        problem.set_bounds("x", -10, 10)
        problem.set_bounds("y", -10, 10)
        result = solve(problem)
        assert result.is_sat
        theory = result.model.theory
        assert theory["x"] ** 2 + theory["y"] ** 2 == pytest.approx(25, abs=1e-4)

    def test_nonlinear_unsat_via_refuter(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x * x < 0"))
        result = solve(problem)
        assert result.is_unsat
        assert result.stats.interval_refutations >= 1

    def test_nonlinear_unknown_without_refuter(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.define(1, "real", parse_constraint("x * x < 0"))
        result = solve(problem, use_interval_refuter=False)
        assert result.status is ABStatus.UNKNOWN
        assert "nonlinear" in result.reason

    def test_branch_probe_refutes_before_any_local_search(self):
        """One contraction of the declared box refutes ``nonlinear_unsat``
        inside the nonlinear branch check, and its lemma verifies."""
        problem = nonlinear_unsat_problem()
        result = solve(problem)
        assert result.is_unsat
        assert result.stats.interval_refutations == 1
        assert result.stats.nonlinear_calls == 0
        certified = solve(nonlinear_unsat_problem(), record_certificate=True)
        assert certified.is_unsat
        assert verify_certificate(problem, certified.certificate)

    @pytest.mark.parametrize("use_presolve", [True, False])
    def test_contracted_box_reaches_the_local_search(self, use_presolve):
        """``div_operator`` declares ``[-20, 20]``; its forced ranges put
        ``x`` and ``y`` in ``[1, 10]``, and the local search samples there
        with or without stage 0."""
        seen = []

        class Recording(AugLagNonlinearAdapter):
            def solve(self, constraints, bounds=None, hints=None):
                seen.append(dict(bounds))
                return super().solve(constraints, bounds=bounds, hints=hints)

        registry = default_registry.copy()
        registry.register("nonlinear", "auglag", Recording)
        problem = div_operator_problem()
        assert problem.bounds["x"] == problem.bounds["y"] == (-20.0, 20.0)
        config = ABSolverConfig(use_presolve=use_presolve)
        result = ABSolver(config, registry=registry).solve(problem)
        assert result.is_sat
        assert seen
        for bounds in seen:
            for var in ("x", "y"):
                low, high = bounds[var]
                assert 1 <= low <= high <= 10, (var, bounds[var])

    @pytest.mark.parametrize(
        "engine",
        [
            "auglag",
            pytest.param(
                "scipy-slsqp",
                marks=pytest.mark.skipif(
                    not scipy_available(), reason="scipy not installed"
                ),
            ),
        ],
    )
    def test_half_open_box_beyond_the_default_range(self, engine):
        """The Boolean search chooses ``x >= 200`` and ``x * x >= 40000``;
        the probe's root box ``(200, None)`` must not become the inverted
        box (200, 100) in the local search."""
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 200"))
        problem.define(2, "real", parse_constraint("x * x >= 40000"))
        problem.define(3, "real", parse_constraint("x * x <= -1"))
        problem.add_clause([1, 3])
        problem.add_clause([2, 3])
        result = solve(problem, nonlinear=(engine,))
        assert result.is_sat
        assert result.model.theory["x"] >= 200
        assert problem.check_model(result.model.boolean, result.model.theory)

    def test_mixed_linear_nonlinear(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.add_clause([3])
        problem.define(1, "real", parse_constraint("x * y >= 6"))
        problem.define(2, "real", parse_constraint("x + y <= 5"))
        problem.define(3, "real", parse_constraint("x >= 0"))
        problem.set_bounds("x", 0, 10)
        problem.set_bounds("y", -10, 10)
        result = solve(problem)
        assert result.is_sat
        assert problem.check_model(result.model.boolean, result.model.theory)

    def test_division_constraint(self):
        problem = ABProblem()
        for var in range(1, 6):
            problem.add_clause([var])
        problem.define(1, "real", parse_constraint("x >= 1"))
        problem.define(2, "real", parse_constraint("x <= 10"))
        problem.define(3, "real", parse_constraint("y >= 1"))
        problem.define(4, "real", parse_constraint("y <= 10"))
        problem.define(5, "real", parse_constraint("x / y = 2"))
        result = solve(problem)
        assert result.is_sat
        theory = result.model.theory
        assert theory["x"] / theory["y"] == pytest.approx(2, abs=1e-4)


class TestIntegerDomains:
    def test_forced_integer_value(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "int", parse_constraint("x > 1"))
        problem.define(2, "int", parse_constraint("x < 3"))
        result = solve(problem)
        assert result.is_sat
        assert result.model.theory["x"] == 2.0

    def test_integer_infeasible_window(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "int", parse_constraint("3*x >= 4"))
        problem.define(2, "int", parse_constraint("3*x <= 5"))
        assert solve(problem).is_unsat


class TestAllSolutions:
    def test_boolean_enumeration(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        models = list(ABSolver().all_solutions(problem))
        assert len(models) == 3

    def test_enumeration_with_theory_filter(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        # models where both are true are theory-infeasible -> filtered
        models = list(ABSolver().all_solutions(problem))
        assert len(models) == 2

    def test_limit(self):
        problem = ABProblem()
        problem.add_clause([1, 2, 3])
        models = list(ABSolver().all_solutions(problem, limit=2))
        assert len(models) == 2

    def test_lsat_and_cdcl_agree(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        lsat_solver = ABSolver(ABSolverConfig(boolean="lsat"))
        cdcl_solver = ABSolver(ABSolverConfig(boolean="cdcl"))
        lsat = list(lsat_solver.all_solutions(problem))
        cdcl = list(cdcl_solver.all_solutions(problem))
        assert len(lsat) == len(cdcl) == 2
        # LSAT enumerates natively; CDCL by blocking one model per query.
        assert lsat_solver.stats.boolean_queries == 0
        assert cdcl_solver.stats.models_enumerated == 3
        assert cdcl_solver.stats.boolean_queries >= cdcl_solver.stats.models_enumerated

    def test_engine_ignoring_blocking_clauses_fails_loudly(self):
        """Bookkeeping enumeration blocks each model through ``add_clause``;
        a plug-in that drops those clauses would loop forever, so the
        repeated model raises instead."""

        class Forgetful(CDCLBooleanAdapter):
            def add_clause(self, literals, protected=True):
                pass

        registry = default_registry.copy()
        registry.register("boolean", "forgetful", Forgetful)
        problem = ABProblem()
        problem.add_clause([1, 2])
        solver = ABSolver(ABSolverConfig(boolean="forgetful"), registry=registry)
        with pytest.raises(RuntimeError, match="repeated a model"):
            list(solver.all_solutions(problem))

    @pytest.mark.parametrize(
        "config",
        [
            ABSolverConfig(boolean="lsat", boolean_options={"reduce_interval": 1}),
            ABSolverConfig(boolean="lsat", reduce_interval=1),
            ABSolverConfig(boolean="cdcl", boolean_options={"reduce_interval": 1}),
        ],
        ids=["lsat-options", "lsat-config", "cdcl-options"],
    )
    def test_enumerator_takes_the_boolean_options(self, config):
        """The native all-SAT enumerator runs under the same merged Boolean
        options as single-model solving: a reduction interval of 1 reaches
        the kernel whichever way it is given."""
        rng = random.Random(3)
        problem = ABProblem()
        for _ in range(120):
            variables = rng.sample(range(1, 31), 3)
            problem.add_clause([v if rng.random() < 0.5 else -v for v in variables])
        solver = ABSolver(config)
        assert len(list(solver.all_solutions(problem))) == 3
        assert solver.stats.clauses_reduced > 0


class TestSeedDeterminism:
    def test_same_seed_identical_statistics(self):
        problem = random_linear_problem(11)

        def counters(seed):
            solver = ABSolver(ABSolverConfig(boolean_options={"seed": seed}))
            solver.solve(problem)
            return {
                key: value
                for key, value in solver.stats.as_dict().items()
                # Wall-clock and intern-table hits measure the process
                # environment, not the seeded search: the first run
                # populates the global hash-cons table, so an identical
                # second run hits entries the first one created.
                if not key.startswith("time_") and key != "intern_hits"
            }

        assert counters(7) == counters(7)
        assert counters(123) == counters(123)


class TestConfig:
    def test_unknown_solver_name_raises(self):
        problem = ABProblem()
        problem.add_clause([1])
        with pytest.raises(KeyError):
            solve(problem, boolean="zchaff-9000")

    def test_dpll_backend(self):
        problem = fig2_problem()
        result = solve(problem, boolean="dpll")
        assert result.is_sat

    def test_difference_linear_backend(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x - y <= -1"))
        problem.define(2, "real", parse_constraint("y - x <= -1"))
        result = solve(problem, linear="difference")
        assert result.is_unsat

    def test_stats_populated(self):
        result = solve(fig2_problem())
        stats = result.stats.as_dict()
        assert stats["boolean_queries"] >= 1
        assert stats["linear_checks"] >= 1
