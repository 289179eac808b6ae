"""Tests for incremental solve sessions (`repro.core.session`).

Covers the assertion-stack semantics (push/pop, activation literals, lemma
retraction), clause and translation reuse across checks, parity with the
one-shot :class:`~repro.core.solver.ABSolver` on the random corpus, the
immutable/hashable :class:`~repro.core.solver.ABModel`, the per-stage
statistics, and the ``--check-incremental`` / ``--stats-json`` CLI modes.
"""

import json

import pytest

from repro import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.benchgen import watertank_unroll_family
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
    """Would have caught the dead caches of the committed bench records.

    ``BENCH_incremental_unroll.json`` once showed ``warm_start_hits: 0`` and
    ``blocking_template_hits: 0``: the warm cache was cleared on every
    bounds/definition change, and blocking templates were never replayed.
    These tests pin the counters nonzero on scripted re-check sequences.
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

    def test_blocking_template_hits_on_pop_recheck(self):
        # The same in-frame conflict asserted twice: the second cycle's
        # candidate is re-blocked from the template recorded by the first,
        # with no second IIS derivation.  Presolve off: it would prove the
        # conflict up front and no template would ever be recorded.
        session = SolverSession(ABSolverConfig(use_presolve=False))
        session.assert_problem(_base_problem())
        session.reserve_variables(10)
        constraint = parse_constraint("x >= 20")
        refined = []
        for _ in range(2):
            session.push()
            session.define(3, "real", constraint)
            session.assert_clause([3])
            assert session.check().is_unsat
            refined.append(session.last_stats.conflicts_refined)
            session.pop()
        assert session.stats.blocking_template_hits >= 1
        assert refined[1] < refined[0]
        assert session.check().is_sat

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
