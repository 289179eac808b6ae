"""Tests for incremental solve sessions (`repro.core.session`).

Covers the assertion-stack semantics (push/pop, activation literals, lemma
retraction), clause and translation reuse across checks, parity with the
one-shot :class:`~repro.core.solver.ABSolver` on the random corpus, the
immutable/hashable :class:`~repro.core.solver.ABModel`, the per-stage
statistics, and the ``--check-incremental`` / ``--stats-json`` CLI modes.
"""

import gc
import json
import random
import weakref

import pytest

from repro import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.benchgen import fischer_unroll_family, watertank_unroll_family
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.cli import main
from repro.core.registry import DOMAIN_BOOLEAN, default_registry
from repro.core.solver import ABModel, ABStatus
from repro.core.stats import SolveStatistics


def _base_problem() -> ABProblem:
    """x in [0, 10] with a single forced definition literal."""
    problem = ABProblem(name="base")
    problem.define(1, "real", parse_constraint("x >= 0"))
    problem.define(2, "real", parse_constraint("x <= 10"))
    problem.add_clause([1])
    problem.add_clause([2])
    return problem


class TestAssertionStack:
    def test_pop_past_level_zero_raises(self):
        session = SolverSession()
        with pytest.raises(IndexError):
            session.pop()
        session.push()
        session.pop()
        with pytest.raises(IndexError):
            session.pop()

    def test_push_pop_depth(self):
        session = SolverSession()
        assert session.depth == 0
        assert session.push() == 1
        assert session.push() == 2
        session.pop()
        assert session.depth == 1

    def test_pop_retracts_clauses_and_definitions(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        assert session.check().is_sat

        session.push()
        session.assert_constraint(parse_constraint("x >= 20"))
        assert session.check().is_unsat

        session.pop()
        result = session.check()
        assert result.is_sat
        assert session.problem.check_model(result.model.boolean, result.model.theory)

    def test_pop_restores_bounds(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.push()
        session.set_bounds("x", 20, 30)  # contradicts x <= 10
        assert session.check().is_unsat
        session.pop()
        assert session.check().is_sat
        # the base bound survives the pop untouched
        assert "x" not in session.problem.bounds

    def test_popped_frame_lemmas_are_retracted(self):
        """A theory lemma resting on a popped definition must stop pruning."""
        # Presolve would prove the in-frame conflict before any lemma is
        # derived; disable it so the guard/retraction machinery is exercised.
        session = SolverSession(ABSolverConfig(use_presolve=False))
        session.assert_problem(_base_problem())
        session.push()
        # An in-frame conflict: the refutation lemma mentions the frame's
        # definition literal, so it is guarded by the frame's activation var.
        session.assert_constraint(parse_constraint("x <= -1"))
        assert session.check().is_unsat
        assert session.stats.blocking_clauses >= 1
        session.pop()
        assert session.stats.lemmas_retracted >= 1
        # After the pop the very same Boolean candidates must be admissible
        # again: the check must not leak the popped frame's blocked models.
        result = session.check()
        assert result.is_sat
        assert session.problem.check_model(result.model.boolean, result.model.theory)

    def test_repeated_push_pop_cycles(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        for low, expected_sat in ((2, True), (12, False), (5, True), (11, False)):
            session.push()
            session.assert_constraint(parse_constraint(f"x >= {low}"))
            result = session.check()
            assert result.is_sat is expected_sat
            session.pop()
        assert session.check().is_sat

    def test_activation_variable_collision_raises(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.push()
        session.assert_clause([1])
        session.check()  # materializes the frame's activation variable (3)
        with pytest.raises(ValueError):
            session.assert_clause([3])

    def test_reserve_variables_prevents_collision(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.reserve_variables(10)
        session.push()
        session.assert_clause([1])
        session.check()
        session.assert_clause([3])  # reserved, hence below every act var
        assert session.check().is_sat

    def test_assert_problem_identical_redefinition_is_skipped(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.assert_problem(_base_problem())  # same definitions again
        assert session.check().is_sat

    def test_assert_problem_conflicting_redefinition_raises(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        other = ABProblem()
        other.define(1, "real", parse_constraint("x >= 99"))
        with pytest.raises(ValueError):
            session.assert_problem(other)


def _assert_clause_by_clause(session: SolverSession, problem: ABProblem) -> None:
    """What ``assert_problem`` amounts to, one ``assert_clause`` per clause."""
    session.reserve_variables(problem.cnf.num_vars)
    for clause in problem.cnf.clauses:
        session.assert_clause(clause)
    for definition in problem.definitions.values():
        if definition.boolean_var not in session.problem.definitions:
            session.define(definition.boolean_var, definition.domain, definition.constraint)
    for variable, (low, high) in problem.bounds.items():
        session.set_bounds(variable, low, high)


def _random_delta(seed: int, num_vars: int) -> ABProblem:
    """Random clauses over ``1..num_vars + 1`` (one variable is new)."""
    rng = random.Random(seed)
    delta = ABProblem()
    for _ in range(rng.randint(1, 6)):
        width = rng.randint(1, 3)
        delta.add_clause(
            [rng.choice((-1, 1)) * rng.randint(1, num_vars + 1) for _ in range(width)]
        )
    return delta


class TestClauseIntake:
    """``assert_problem`` takes a CNF's clauses in one step; the result must
    be what asserting them one by one gives, whatever the session's state."""

    SEEDS = range(12)

    @staticmethod
    def _pair(config=None):
        return SolverSession(config), SolverSession(config)

    @staticmethod
    def _same_state(whole: SolverSession, single: SolverSession) -> None:
        assert whole.problem.cnf.clauses == single.problem.cnf.clauses
        assert whole.problem.cnf.num_vars == single.problem.cnf.num_vars
        assert whole._max_var == single._max_var

    def test_frame_zero_before_the_first_check(self):
        for seed in self.SEEDS:
            problem = planted_problem(seed).problem
            whole, single = self._pair()
            whole.assert_problem(problem)
            _assert_clause_by_clause(single, problem)
            self._same_state(whole, single)
            assert whole.problem.cnf.clauses == problem.cnf.clauses
            assert whole.check().status == single.check().status == ABStatus.SAT

    @pytest.mark.parametrize("checked_first", [False, True])
    def test_pushed_frame_is_retracted_by_pop(self, checked_first):
        for seed in self.SEEDS:
            base = planted_problem(seed).problem
            fresh = base.cnf.num_vars + 2
            delta = _random_delta(seed, base.cnf.num_vars)
            delta.add_clause([fresh])
            delta.add_clause([-fresh])  # the frame is UNSAT
            whole, single = self._pair()
            for session, intake in (
                (whole, SolverSession.assert_problem),
                (single, _assert_clause_by_clause),
            ):
                session.assert_problem(base)
                if checked_first:
                    assert session.check().is_sat
                session.push()
                intake(session, delta)
            self._same_state(whole, single)
            assert whole.check().status == single.check().status == ABStatus.UNSAT
            whole.pop()
            single.pop()
            assert whole.problem.cnf.clauses == base.cnf.clauses
            self._same_state(whole, single)
            assert whole.check().status == single.check().status == ABStatus.SAT

    def test_clauses_after_the_first_check_reach_the_engine(self):
        # Without presolve only the Boolean engine can see the new clause,
        # which blocks the model the first check returned.
        config = ABSolverConfig(use_presolve=False)
        for seed in self.SEEDS:
            base = planted_problem(seed).problem
            whole, single = self._pair(config)
            first = None
            for session, intake in (
                (whole, SolverSession.assert_problem),
                (single, _assert_clause_by_clause),
            ):
                session.assert_problem(base)
                result = session.check()
                assert result.is_sat
                first = result.model.boolean
                delta = _random_delta(seed, base.cnf.num_vars)
                delta.add_clause(
                    [-var if first[var] else var for var in sorted(base.cnf.variables())]
                )
                intake(session, delta)
            self._same_state(whole, single)
            verdict = whole.check()
            assert verdict.status == single.check().status
            if verdict.is_sat:
                assert whole.problem.check_model(verdict.model.boolean, verdict.model.theory)
                assert any(
                    verdict.model.boolean.get(var, False) != first[var]
                    for var in base.cnf.variables()
                )

    def test_presolve_sees_clauses_asserted_after_a_check(self):
        for seed in self.SEEDS:
            base = planted_problem(seed).problem
            fresh = base.cnf.num_vars + 1
            contradiction = ABProblem()
            contradiction.add_clause([fresh])
            contradiction.add_clause([-fresh])
            whole, single = self._pair(ABSolverConfig(use_presolve=True))
            whole.assert_problem(base)
            single.assert_problem(base)
            assert whole.check().is_sat and single.check().is_sat
            whole.assert_problem(contradiction)
            _assert_clause_by_clause(single, contradiction)
            self._same_state(whole, single)
            for session in (whole, single):
                result = session.check()
                assert result.is_unsat
                assert result.reason.startswith("presolve:")

    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_activation_variable_fails_before_any_clause(self, position):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.push()
        session.assert_clause([1])
        session.check()  # materializes the frame's activation variable (3)
        clauses = session.problem.cnf.clauses[:]
        problem = ABProblem()
        # Each clause contradicts the units [1] and [2] asserted so far.
        for index, clause in enumerate(([-1], [-2], [-1, -2])):
            problem.add_clause(clause + [3] if index == position else clause)
        with pytest.raises(ValueError, match="activation variable"):
            session.assert_problem(problem)
        assert session.problem.cnf.clauses == clauses
        assert session.problem.cnf.num_vars == 2
        # Nothing reached the engine either.
        assert session.check().is_sat


class TestReuse:
    def test_frame_independent_lemmas_are_reused(self):
        """Monotone (no-frame) sessions carry every lemma to later checks."""
        family = watertank_unroll_family(6)
        session = SolverSession(ABSolverConfig(linear="difference"))
        family.layers[0].apply_to_session(session)
        reused = []
        for depth in range(1, family.max_depth + 1):
            family.layers[depth].apply_to_session(session)
            result = session.check(family.check_assumptions(depth))
            assert result.status.value == family.expected_status(depth)
            reused.append(session.last_stats.clauses_reused)
        assert reused[-1] > 0
        assert session.stats.clauses_reused > 0
        assert session.stats.translation_cache_hits > 0
        assert session.stats.lemmas_retracted == 0

    def test_translation_cache_hits_across_checks(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        assert session.check().is_sat
        assert session.check().is_sat  # same query again: rows all cached
        assert session.stats.translation_cache_hits > 0

    def test_translation_counters_are_exact(self):
        """Hits and misses count the definition rows of every materialized
        branch, once each; the declared-bound rows count as neither."""
        problem = ABProblem(name="counted")
        problem.define(1, "real", parse_constraint("x - y >= 3"))
        problem.define(2, "real", parse_constraint("y - x >= 1"))
        problem.define(3, "real", parse_constraint("x = 5"))
        problem.define(4, "real", parse_constraint("y <= 1"))
        problem.define(5, "real", parse_constraint("x - y <= 2"))
        problem.add_clause([1, 2])
        problem.add_clause([3, 4])
        problem.add_clause([-3, 5])
        problem.set_bounds("x", 0, 10)
        problem.set_bounds("y", 0, 10)
        session = SolverSession(ABSolverConfig(linear="difference"))
        session.assert_problem(problem)
        counts = []
        for _ in range(2):
            assert session.check().is_sat
            counts.append(
                (session.stats.translation_cache_hits, session.stats.translation_cache_misses)
            )
        assert counts == [(8, 7), (13, 7)]

    def test_check_assumptions_toggle_without_popping(self):
        """The waiver-literal BMC idiom: assumptions arm per-depth goals."""
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.assert_clause([3, 4])  # goal "x >= 7" (3) with waiver (4)
        other = ABProblem()
        other.define(3, "real", parse_constraint("x >= 7"))
        session.assert_problem(other)
        armed = session.check([-4])
        assert armed.is_sat and armed.model.theory["x"] >= 7
        waived = session.check([4, -3])
        assert waived.is_sat and waived.model.theory["x"] < 7


class TestWidenedBounds:
    """A bound widened after a check re-admits what the narrower box
    excluded: the theory lemmas and presolve units derived under it go."""

    def _session(self, use_presolve):
        session = SolverSession(ABSolverConfig(use_presolve=use_presolve))
        session.define(1, "real", parse_constraint("x >= 20"))
        session.define(2, "real", parse_constraint("x <= 50"))
        session.assert_clause([1, -2])
        session.set_bounds("x", 0, 10)
        assert session.check().is_unsat
        return session

    @pytest.mark.parametrize("use_presolve", [True, False])
    def test_in_frame_zero(self, use_presolve):
        session = self._session(use_presolve)
        session.set_bounds("x", 0, 30)
        result = session.check()
        assert result.is_sat
        assert 20 <= result.model.theory["x"] <= 30
        assert session.problem.check_model(result.model.boolean, result.model.theory)

    @pytest.mark.parametrize("use_presolve", [True, False])
    def test_in_a_frame_and_after_its_pop(self, use_presolve):
        session = self._session(use_presolve)
        session.push()
        session.assert_clause([2])
        session.set_bounds("x", 0, 30)
        assert session.check().is_sat
        session.pop()
        assert session.check().is_unsat

    def test_tightening_keeps_the_lemmas(self):
        session = self._session(False)
        session.set_bounds("x", 1, 10)
        assert session.check().is_unsat
        assert session.last_stats.clauses_reused > 0
        assert session.stats.lemmas_retracted == 0


class TestImportLemmas:
    """Imported lemmas take the path of derived ones: guarded, then sent."""

    def test_undefined_variable_raises(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        with pytest.raises(ValueError, match="variable 7"):
            session.import_lemmas([[1], [-1, 7]])
        # Nothing was imported, not even the valid first clause.
        assert session.stats.lemmas_imported == 0
        assert session.check().is_sat

    def test_lemma_listener_is_not_called(self):
        heard = []
        session = SolverSession(ABSolverConfig(use_presolve=False))
        session.lemma_listener = lambda clause, definite: heard.append(clause)
        problem = _base_problem()
        problem.define(3, "real", parse_constraint("x >= 20"))
        problem.add_clause([3])
        session.assert_problem(problem)
        # x <= 10 and x >= 20 cannot both hold.
        assert session.import_lemmas([[-2, -3]]) == 1
        assert session.check().is_unsat
        assert heard == []
        assert session.last_stats.linear_checks == 0

    def test_pop_retracts_lemma_on_a_pushed_definition(self):
        session = SolverSession(ABSolverConfig(use_presolve=False))
        session.assert_problem(_base_problem())
        session.reserve_variables(10)
        session.push()
        session.define(3, "real", parse_constraint("x >= 20"))
        session.import_lemmas([[-3]])
        assert session.check([3]).is_unsat
        assert session.last_stats.linear_checks == 0
        session.pop()
        assert session.stats.lemmas_retracted == 1
        # Variable 3 now means something satisfiable: the retracted lemma
        # must no longer force it false.
        session.define(3, "real", parse_constraint("x >= 5"))
        result = session.check([3])
        assert result.is_sat
        assert result.model.theory["x"] >= 5

    @pytest.mark.parametrize("use_presolve", [True, False])
    def test_lemma_on_a_frame_clause_goes_with_that_frame(self, use_presolve):
        # A solver with presolve on derives [-4] from the bound x <= 3 that
        # unit propagation deduces from frame 1's clause [5]; the lemma
        # names neither frame 1 nor 5, so the importing session must guard
        # it by frame 1 whether or not it presolves itself.
        problem = ABProblem()
        problem.define(4, "real", parse_constraint("x >= 5"))
        problem.define(5, "real", parse_constraint("x <= 3"))
        session = SolverSession(ABSolverConfig(use_presolve=use_presolve))
        session.assert_problem(problem)
        session.reserve_variables(10)
        assert session.check([4]).is_sat
        session.push()
        session.assert_clause([5])
        session.import_lemmas([[-4]])
        assert session.check([4]).is_unsat
        session.pop()
        assert session.check([4]).is_sat


def _conflicted() -> ABProblem:
    """``x >= 0``, ``x <= 10`` and ``x >= 20``, all forced: one theory conflict."""
    problem = ABProblem()
    problem.define(1, "real", parse_constraint("x >= 0"))
    problem.define(2, "real", parse_constraint("x <= 10"))
    problem.define(3, "real", parse_constraint("x >= 20"))
    for var in (1, 2, 3):
        problem.add_clause([var])
    return problem


def _derived_lemmas():
    """The definite lemmas one session derives while refuting ``_conflicted``."""
    derived = []
    # Presolve would prove this UNSAT before any lemma is derived; disable
    # it so the producer actually hits the theory conflict.
    producer = SolverSession(ABSolverConfig(use_presolve=False))
    producer.lemma_listener = (
        lambda clause, definite: derived.append(clause) if definite else None
    )
    producer.assert_problem(_conflicted())
    assert producer.check().is_unsat
    assert derived
    return derived


class TestMemoization:
    def test_bound_rows_cache_hits(self):
        family = fischer_unroll_family(3)
        solver = ABSolver(ABSolverConfig())
        result = solver.solve(
            family.problem_at_depth(3), assumptions=family.check_assumptions(3)
        )
        assert result.is_sat
        assert solver.stats.bound_rows_cache_hits > 0

    def test_imported_lemmas_preempt_the_conflict(self):
        # A definite lemma derived by one session and imported into another
        # rules out the conflicting candidate before any theory check: no
        # linear check, no duplicate IIS refinement.
        derived = _derived_lemmas()
        consumer = SolverSession(ABSolverConfig(use_presolve=False))
        consumer.assert_problem(_conflicted())
        assert consumer.import_lemmas(derived) == len(derived)
        result = consumer.check()
        assert result.is_unsat
        assert consumer.stats.linear_checks == 0
        assert consumer.stats.conflicts_refined == 0


class TestOneShotParity:
    def test_planted_corpus_parity(self):
        for seed in range(25):
            instance = planted_problem(seed)
            oneshot = ABSolver().solve(instance.problem)
            session = SolverSession()
            session.assert_problem(instance.problem)
            incremental = session.check()
            assert oneshot.status == incremental.status == ABStatus.SAT
            assert instance.problem.check_model(
                incremental.model.boolean, incremental.model.theory
            )

    def test_random_corpus_parity(self):
        for seed in range(25):
            problem = random_linear_problem(seed)
            oneshot = ABSolver().solve(problem)
            session = SolverSession()
            session.assert_problem(problem)
            incremental = session.check()
            assert oneshot.status == incremental.status

    def test_pushed_delta_matches_one_shot_of_combined_problem(self):
        for seed in range(8):
            base = planted_problem(seed).problem
            extra_var = base.cnf.num_vars + 1
            constraint = parse_constraint("v0 >= 100")

            combined = planted_problem(seed).problem
            combined.define(extra_var, "real", constraint)
            combined.add_clause([extra_var])
            expected = ABSolver().solve(combined)

            session = SolverSession()
            session.assert_problem(base)
            session.push()
            session.define(extra_var, "real", constraint)
            session.assert_clause([extra_var])
            assert session.check().status == expected.status
            session.pop()
            assert session.check().status == ABStatus.SAT

    def test_solver_solve_is_a_session_wrapper(self):
        problem = _base_problem()
        result = ABSolver().solve(problem)
        assert result.is_sat
        assert result.stats.queries == 1


class TestEveryBooleanEngine:
    """Every registered Boolean engine serves a session's later queries.

    The loop asks one engine for candidate after candidate under changing
    assumptions and added clauses, so an engine that simplifies its
    formula away at the first query cannot take part.
    """

    @staticmethod
    def _problem() -> ABProblem:
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.add_clause([1, 2])
        problem.add_clause([2, 3])
        return problem

    @pytest.mark.parametrize("boolean", default_registry.available(DOMAIN_BOOLEAN))
    def test_later_queries_get_definite_verdicts(self, boolean):
        definite = (ABStatus.SAT, ABStatus.UNSAT)
        session = SolverSession(ABSolverConfig(boolean=boolean))
        session.assert_problem(self._problem())
        assert session.check([3]).status in definite
        assert session.check([-2]).status in definite
        session.assert_clause([-2, 1])
        assert session.check().status in definite

    @pytest.mark.parametrize("boolean", default_registry.available(DOMAIN_BOOLEAN))
    def test_all_solutions_match_cdcl(self, boolean):
        problem = self._problem()
        reference = set(ABSolver(ABSolverConfig(boolean="cdcl")).all_solutions(problem))
        models = set(ABSolver(ABSolverConfig(boolean=boolean)).all_solutions(problem))
        assert len(reference) == 5
        assert models == reference


class TestLifetime:
    """The pipeline and its stages form no reference cycle, so a dropped
    session frees its engines and caches without the cyclic collector."""

    @staticmethod
    def _problem() -> ABProblem:
        """A linear conflict to refine (``y <= x - 5`` against ``y >= x``,
        the first candidate), then a nonlinear search."""
        problem = _base_problem()
        problem.define(3, "real", parse_constraint("y >= x"))
        problem.define(4, "real", parse_constraint("x * x >= 4"))
        problem.define(5, "real", parse_constraint("y > x - 5"))
        problem.add_clause([3])
        problem.add_clause([-5, 4])
        return problem

    @pytest.mark.parametrize("linear", ["simplex", "difference"])
    def test_dropped_session_frees_its_pipeline(self, linear):
        gc.disable()
        try:
            session = SolverSession(ABSolverConfig(linear=linear))
            session.assert_problem(self._problem())
            result = session.check()
            assert result.status == ABStatus.SAT
            assert result.stats.conflicts_refined and result.stats.nonlinear_calls
            pipeline = weakref.ref(session.pipeline)
            del session
            assert pipeline() is None
        finally:
            gc.enable()


class TestABModel:
    def test_immutable(self):
        model = ABModel({1: True}, {"x": 0.5})
        with pytest.raises(AttributeError):
            model.boolean = {}
        with pytest.raises(AttributeError):
            model.extra = 1

    def test_accessors_return_copies(self):
        model = ABModel({1: True}, {"x": 0.5})
        model.boolean[2] = False
        model.theory["y"] = 1.0
        assert model.boolean == {1: True}
        assert model.theory == {"x": 0.5}

    def test_hashable_and_set_dedupe(self):
        a = ABModel({1: True}, {"x": 0.5})
        b = ABModel({1: True}, {"x": 0.5})
        c = ABModel({1: False}, {"x": 0.5})
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2


class TestStatistics:
    def test_per_stage_timers_recorded(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.check()
        payload = session.stats.as_dict()
        assert payload["queries"] == 1
        assert payload["time_boolean"] > 0
        assert payload["time_translate"] > 0
        assert payload["time_linear"] > 0

    def test_merge_accumulates(self):
        a, b = SolveStatistics(), SolveStatistics()
        a.boolean_queries = 2
        b.boolean_queries = 3
        b.clauses_reused = 1
        merged = a.merge(b)
        assert merged is a
        assert a.boolean_queries == 5 and a.clauses_reused == 1

    def test_last_stats_covers_single_query(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        session.check()
        session.check()
        assert session.last_stats.queries == 1
        assert session.stats.queries == 2


class TestCacheRegression:
    """Would have caught the dead warm-start cache of a committed bench record.

    ``BENCH_incremental_unroll.json`` once showed ``warm_start_hits: 0``:
    the warm cache was cleared on every bounds/definition change.  These
    tests pin the counter nonzero on scripted re-check sequences.
    """

    def test_warm_start_hits_on_recheck(self):
        session = SolverSession()  # default config: warm start is on
        session.assert_problem(_base_problem())
        assert session.check().is_sat
        assert session.check().is_sat
        assert session.stats.warm_start_hits >= 1

    def test_warm_start_survives_bounds_changes(self):
        session = SolverSession()
        session.assert_problem(_base_problem())
        assert session.check().is_sat
        session.push()
        session.set_bounds("x", 1, 9)  # used to wipe the warm cache
        assert session.check().is_sat
        session.pop()
        assert session.check().is_sat
        assert session.stats.warm_start_hits >= 1

    def test_warm_start_hits_in_difference_simplex_fallback(self):
        # A row outside the difference fragment sends its component to the
        # adapter's simplex fallback, which keeps the simplex warm start.
        session = SolverSession(ABSolverConfig(linear="difference"))
        problem = _base_problem()
        problem.define(3, "real", parse_constraint("2*x + y <= 5"))
        problem.add_clause([3])
        session.assert_problem(problem)
        assert session.check().is_sat
        assert session.check().is_sat
        assert session.stats.warm_start_hits >= 1


CNF_BASE = """p cnf 2 2
1 0
2 0
c def real 1 x >= 0
c def real 2 x <= 10
"""

CNF_STEP_SAT = """p cnf 3 1
3 0
c def real 3 x >= 4
"""

CNF_STEP_UNSAT = """p cnf 4 1
4 0
c def real 4 x <= 3
"""


class TestCli:
    @pytest.fixture
    def delta_files(self, tmp_path):
        paths = []
        for name, text in (
            ("base.cnf", CNF_BASE),
            ("step1.cnf", CNF_STEP_SAT),
            ("step2.cnf", CNF_STEP_UNSAT),
        ):
            path = tmp_path / name
            path.write_text(text)
            paths.append(str(path))
        return paths

    def test_check_incremental_exit_code_tracks_last_check(self, delta_files, capsys):
        assert main(["--check-incremental"] + delta_files) == 20
        out = capsys.readouterr().out
        assert out.count("sat") >= 2 and "unsat" in out

    def test_check_incremental_sat_prefix(self, delta_files):
        assert main(["--check-incremental"] + delta_files[:2]) == 10

    def test_multiple_inputs_require_flag(self, delta_files, capsys):
        assert main(delta_files) == 2
        assert "--check-incremental" in capsys.readouterr().err

    def test_stats_json_to_file(self, delta_files, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["--stats-json", str(out), delta_files[0]]) == 10
        payload = json.loads(out.read_text())
        assert payload["boolean_queries"] >= 1
        assert payload["queries"] == 1

    def test_stats_json_to_stdout(self, delta_files, capsys):
        assert (
            main(["--check-incremental", "--stats-json", "-", "--quiet"] + delta_files)
            == 20
        )
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{") :])
        assert payload["queries"] == 3
        assert payload["translation_cache_hits"] > 0
