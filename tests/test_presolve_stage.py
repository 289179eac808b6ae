"""The formula-level presolve stage: soundness, incrementality, events.

The contract under test: everything the :class:`~repro.core.presolve.BoundStore`
records is *implied* by the declared bounds plus the CNF-forced definition
constraints, so turning the stage on must never change a verdict, a model's
validity, or an all-models set — only how fast the loop gets there.

* verdict + model agreement with/without presolve on 55 random problems
  (the ``test_parallel_agreement`` corpus: 30 unconstrained random linear
  + 25 planted-SAT instances);
* all-models *set* equality with/without presolve;
* strict-vs-nonstrict bound edge cases (``x > 1`` vs ``x >= 1`` against
  ``x <= 1``), exercised end-to-end and on the store directly;
* incremental sessions: push/pop restores the store exactly (snapshot and
  fingerprint equality), frame deltas are picked up;
* unit emission, infeasibility short-circuit, and the new obs events
  (``BoundTightened``, ``PresolveFixedVar``, ``PresolveInfeasible``).
"""

from fractions import Fraction

import pytest

from repro import (
    ABProblem,
    ABSolver,
    ABSolverConfig,
    ABStatus,
    SolverSession,
    parse_constraint,
)
from repro.benchgen.nonlinear_micro import nonlinear_unsat_problem
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.core.presolve import BoundStore, PresolveStage, propagate_rows
from repro.obs.events import (
    BoundTightened,
    CollectingSink,
    PresolveFixedVar,
    PresolveInfeasible,
)
from repro.obs.observer import Observer

RANDOM_SEEDS = list(range(30))
PLANTED_SEEDS = list(range(100, 125))


def _solve(problem, use_presolve, **kwargs):
    solver = ABSolver(ABSolverConfig(use_presolve=use_presolve, **kwargs))
    return solver.solve(problem), solver.stats


class TestVerdictAgreement:
    """Presolve on vs off must agree on every random problem."""

    @pytest.mark.parametrize("seed", RANDOM_SEEDS)
    def test_random_linear(self, seed):
        problem = random_linear_problem(seed)
        with_presolve, _ = _solve(random_linear_problem(seed), True)
        without, _ = _solve(problem, False)
        assert with_presolve.status == without.status, (
            f"random-{seed}: presolve changed the verdict"
        )
        if with_presolve.is_sat:
            assert problem.check_model(
                with_presolve.model.boolean, with_presolve.model.theory
            ), f"random-{seed}: invalid model under presolve"

    @pytest.mark.parametrize("seed", PLANTED_SEEDS)
    def test_planted_sat(self, seed):
        instance = planted_problem(seed)
        with_presolve, _ = _solve(instance.problem, True)
        without, _ = _solve(planted_problem(seed).problem, False)
        assert with_presolve.is_sat and without.is_sat, seed
        assert instance.problem.check_model(
            with_presolve.model.boolean, with_presolve.model.theory
        ), f"planted-{seed}: invalid model under presolve"


class TestModelSetAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 7, 11, 101, 104, 109, 117])
    def test_all_models_same_set(self, seed):
        if seed >= 100:
            problem = planted_problem(seed).problem
        else:
            problem = random_linear_problem(seed)
        on = set(
            ABSolver(ABSolverConfig(use_presolve=True)).all_solutions(
                problem, limit=64
            )
        )
        off = set(
            ABSolver(ABSolverConfig(use_presolve=False)).all_solutions(
                problem, limit=64
            )
        )
        assert on == off, f"{seed}: presolve changed the model set"


class TestStrictBounds:
    """Strict vs nonstrict endpoints through the whole stage."""

    def _problem(self, first, second):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint(first))
        problem.define(2, "real", parse_constraint(second))
        problem.add_clause([1])
        problem.add_clause([2])
        return problem

    def test_nonstrict_meet_is_sat_and_fixed(self):
        result, _ = _solve(self._problem("x >= 1", "x <= 1"), True)
        assert result.is_sat
        assert result.model.theory["x"] == 1.0

    def test_strict_lower_against_equal_upper_is_unsat(self):
        result, stats = _solve(self._problem("x > 1", "x <= 1"), True)
        assert result.is_unsat
        assert result.reason.startswith("presolve:")
        assert stats.boolean_queries == 0

    def test_strict_pair_at_same_point_is_unsat(self):
        result, _ = _solve(self._problem("x > 1", "x < 1"), True)
        assert result.is_unsat

    def test_agreement_with_presolve_off(self):
        for first, second in (
            ("x >= 1", "x <= 1"),
            ("x > 1", "x <= 1"),
            ("x > 1", "x < 1"),
            ("x >= 1", "x < 1"),
        ):
            on, _ = _solve(self._problem(first, second), True)
            off, _ = _solve(self._problem(first, second), False)
            assert on.status == off.status, (first, second)

    def test_store_strict_wins_at_equal_value(self):
        store = BoundStore({})
        assert store.tighten_lower("x", Fraction(1), False, "propagation")
        # Same endpoint, strict: a strictly tighter bound, so it must win.
        assert store.tighten_lower("x", Fraction(1), True, "propagation")
        entry = store.bounds_of("x")
        assert entry.lower == 1 and entry.lower_strict
        # Weaker (nonstrict at the same point) must NOT undo strictness.
        assert not store.tighten_lower("x", Fraction(1), False, "propagation")
        assert store.bounds_of("x").lower_strict

    def test_store_strict_meet_marks_infeasible(self):
        store = BoundStore({})
        store.tighten_lower("x", Fraction(1), True, "propagation")
        store.tighten_upper("x", Fraction(1), False, "propagation")
        assert store.infeasible


class TestIncrementalSessions:
    def _base_problem(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 0"))
        problem.define(2, "real", parse_constraint("x <= 10"))
        problem.add_clause([1])
        problem.add_clause([2])
        return problem

    def test_push_pop_restores_store_exactly(self):
        session = SolverSession()
        session.assert_problem(self._base_problem())
        assert session.check().is_sat
        stage = session.pipeline.presolve
        base = stage.ensure(session.problem)
        base_snapshot = base.snapshot()
        base_fingerprint = base.fingerprint()

        session.push()
        session.assert_constraint(parse_constraint("x >= 5"))
        assert session.check().is_sat
        pushed = stage.ensure(session.problem)
        assert pushed.snapshot() != base_snapshot  # the frame tightened x

        session.pop()
        assert session.check().is_sat
        restored = stage.ensure(session.problem)
        assert restored.snapshot() == base_snapshot
        assert restored.fingerprint() == base_fingerprint

    def test_frame_constraint_reaches_store(self):
        session = SolverSession()
        session.assert_problem(self._base_problem())
        session.push()
        session.assert_constraint(parse_constraint("x >= 4"))
        assert session.check().is_sat
        store = session.pipeline.presolve.ensure(session.problem)
        entry = store.bounds_of("x")
        assert entry is not None and entry.lower == 4

    def test_in_frame_infeasibility_pops_clean(self):
        session = SolverSession()
        session.assert_problem(self._base_problem())
        session.push()
        session.assert_constraint(parse_constraint("x >= 20"))
        assert session.check().is_unsat
        session.pop()
        result = session.check()
        assert result.is_sat
        assert session.problem.check_model(
            result.model.boolean, result.model.theory
        )

    def test_repeated_cycles_agree_with_presolve_off(self):
        for use_presolve in (True, False):
            session = SolverSession(
                ABSolverConfig(use_presolve=use_presolve)
            )
            session.assert_problem(self._base_problem())
            verdicts = []
            for low in (2, 12, 5, 11):
                session.push()
                session.assert_constraint(parse_constraint(f"x >= {low}"))
                verdicts.append(session.check().status)
                session.pop()
            assert verdicts == [
                ABStatus.SAT,
                ABStatus.UNSAT,
                ABStatus.SAT,
                ABStatus.UNSAT,
            ], f"use_presolve={use_presolve}"


class TestUnitsAndCounters:
    def _deduce_problem(self):
        # Variable 1 is forced; 2 and 3 are free but decided by the box
        # ([0, 10]): "x <= 50" is implied, "x >= 90" impossible.
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x <= 10"))
        problem.define(2, "real", parse_constraint("x <= 50"))
        problem.define(3, "real", parse_constraint("x >= 90"))
        problem.add_clause([1])
        problem.add_clause([2, 3])
        problem.set_bounds("x", 0, 100)
        return problem

    def test_units_emitted_and_counted(self):
        result, stats = _solve(self._deduce_problem(), True)
        assert result.is_sat
        assert stats.presolve_units_emitted >= 2  # +2 and -3
        assert stats.presolve_rows_dropped > 0

    def test_counters_zero_when_disabled(self):
        result, stats = _solve(self._deduce_problem(), False)
        assert result.is_sat
        assert stats.presolve_units_emitted == 0
        assert stats.presolve_rows_dropped == 0
        assert stats.contractor_presolve_calls == 0

    def test_certificate_recording_disables_presolve(self):
        result, stats = _solve(
            self._deduce_problem(), True, record_certificate=True
        )
        assert result.is_sat
        assert stats.presolve_units_emitted == 0

    def test_contractor_called_for_nonlinear_definitions(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x * x <= 4"))
        problem.add_clause([1])
        problem.set_bounds("x", -10, 10)
        result, stats = _solve(problem, True)
        assert result.is_sat
        assert stats.contractor_presolve_calls >= 1

    def test_interval_refuter_off_disables_nonlinear_deduction(self):
        # With the refuter disabled the stage must not use interval
        # arithmetic at all (TestUnknownAgreement in the parallel suite
        # relies on x*x + y*y <= -1 staying UNKNOWN).
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x * x + y * y <= -1"))
        problem.add_clause([1])
        result, stats = _solve(problem, True, use_interval_refuter=False)
        assert result.status is ABStatus.UNKNOWN
        assert stats.contractor_presolve_calls == 0


class TestInfeasibleShortCircuit:
    def test_linear_contradiction_skips_the_loop(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        problem.add_clause([1])
        problem.add_clause([2])
        result, stats = _solve(problem, True)
        assert result.is_unsat
        assert result.reason.startswith("presolve:")
        assert stats.boolean_queries == 0
        assert stats.linear_checks == 0

    def test_boolean_contradiction_detected(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([-1])
        result, _ = _solve(problem, True)
        assert result.is_unsat

    def test_square_conflict_empties_the_box(self):
        # x*x + y*y < 1 bounds x + y to [-2, 2], so (x+y)*(x+y) <= 4 < 8:
        # the contraction sees it once a square is read as one quantity.
        result, stats = _solve(nonlinear_unsat_problem(), True)
        assert result.is_unsat
        assert result.reason.startswith("presolve")
        assert stats.boolean_queries == 0


def _unit_problem(texts):
    problem = ABProblem()
    for var, text in enumerate(texts, start=1):
        problem.define(var, "real", parse_constraint(text))
        problem.add_clause([var])
    problem.set_bounds("x", -10.0, 10.0)
    return problem


class TestOddPowerBoundaries:
    """A cube whose target touches its root keeps the root."""

    @pytest.mark.parametrize(
        "texts, value",
        [
            (["x^3 >= 8", "x = 2"], 2.0),
            (["x^3 <= -8", "x >= -2", "x <= -2"], -2.0),
        ],
    )
    def test_touching_root_is_sat(self, texts, value):
        for use_presolve in (True, False):
            result, _ = _solve(_unit_problem(texts), use_presolve)
            assert result.is_sat, (use_presolve, result.reason)
            assert result.model.theory["x"] == pytest.approx(value)

    def test_root_beyond_the_point_is_unsat(self):
        result, _ = _solve(_unit_problem(["x^3 >= 8.000001", "x = 2"]), True)
        assert result.is_unsat


class TestEvents:
    def _collect(self, problem, **kwargs):
        observer = Observer()
        sink = observer.subscribe(CollectingSink())
        result = ABSolver(
            ABSolverConfig(observer=observer, **kwargs)
        ).solve(problem)
        return result, sink.events

    def test_bound_tightened_and_fixed_var(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 1"))
        problem.define(2, "real", parse_constraint("x <= 1"))
        problem.add_clause([1])
        problem.add_clause([2])
        problem.set_bounds("x", -10, 10)
        result, events = self._collect(problem)
        assert result.is_sat
        tightened = [e for e in events if isinstance(e, BoundTightened)]
        fixed = [e for e in events if isinstance(e, PresolveFixedVar)]
        assert any(e.variable == "x" for e in tightened)
        assert any(e.variable == "x" and e.value == 1.0 for e in fixed)

    def test_presolve_infeasible_event(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        problem.add_clause([1])
        problem.add_clause([2])
        result, events = self._collect(problem)
        assert result.is_unsat
        infeasible = [e for e in events if isinstance(e, PresolveInfeasible)]
        assert infeasible and infeasible[0].reason

    def test_no_presolve_events_when_disabled(self):
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 1"))
        problem.define(2, "real", parse_constraint("x <= 1"))
        problem.add_clause([1])
        problem.add_clause([2])
        result, events = self._collect(problem, use_presolve=False)
        assert result.is_sat
        assert not [
            e
            for e in events
            if isinstance(
                e, (BoundTightened, PresolveFixedVar, PresolveInfeasible)
            )
        ]


class TestPropagationSubstrate:
    def test_propagate_rows_tightens_through_chain(self):
        from repro.linear.lp import LinearConstraint

        store = BoundStore({"x": (0.0, 10.0)})
        rows = [
            LinearConstraint.from_constraint(parse_constraint("y <= x")),
            LinearConstraint.from_constraint(parse_constraint("z <= y - 1")),
        ]
        propagate_rows(store, rows)
        assert not store.infeasible
        assert store.bounds_of("y").upper == 10
        assert store.bounds_of("z").upper == 9

    def test_float_box_is_outward(self):
        store = BoundStore({})
        store.tighten_lower("x", Fraction(1, 3), False, "propagation")
        store.tighten_upper("x", Fraction(2, 3), False, "propagation")
        low, high = store.float_box()["x"]
        assert low <= 1 / 3 and high >= 2 / 3
