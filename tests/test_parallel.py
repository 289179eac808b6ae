"""Tests for the parallel solving subsystem (repro.parallel)."""

import inspect
import json
import multiprocessing
import os
import pickle
import queue
from types import SimpleNamespace

import pytest

from repro import (
    ABProblem,
    ABSolver,
    ABSolverConfig,
    ABStatus,
    ParallelSolver,
    SolverSession,
)
from repro.benchgen import fischer_unroll_family
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.core.expr import parse_constraint
from repro.core.pipeline import SolvePipeline
from repro.core.verdict_cache import VerdictCache
from repro.obs.observer import Observer
from repro.parallel import (
    SolveTask,
    WorkerOutcome,
    build_cubes,
    default_cube_depth,
    generate_cubes,
    pick_split_variables,
    portfolio_configs,
    split_cube,
)
from repro.parallel import worker
from repro.parallel.worker import _execute


def small_problem() -> ABProblem:
    problem = ABProblem()
    problem.define(1, "real", parse_constraint("x + y <= 4"))
    problem.define(2, "real", parse_constraint("x - y >= 1"))
    problem.define(3, "real", parse_constraint("x >= 2.5"))
    problem.add_clause([1])
    problem.add_clause([2, 3])
    return problem


def definitions_unsat_problem() -> ABProblem:
    """Boolean-satisfiable, theory-unsat in every candidate; refinement off
    forces the fallback full-assignment blocking template."""
    problem = ABProblem()
    problem.define(1, "real", parse_constraint("x >= 5"))
    problem.define(2, "real", parse_constraint("x <= 1"))
    problem.define(3, "real", parse_constraint("y >= 0"))
    problem.add_clause([1])
    problem.add_clause([2])
    problem.add_clause([3, -3])
    return problem


class TestCubeSplitting:
    def test_pick_prefers_definition_variables(self):
        problem = small_problem()
        chosen = pick_split_variables(problem, 2)
        assert len(chosen) == 2
        assert set(chosen) <= set(problem.definitions)

    def test_pick_is_deterministic_and_bounded(self):
        problem = small_problem()
        assert pick_split_variables(problem, 2) == pick_split_variables(problem, 2)
        assert len(pick_split_variables(problem, 50)) <= problem.cnf.num_vars
        assert pick_split_variables(problem, 0) == []

    def test_cubes_partition_the_space(self):
        cubes = generate_cubes([3, 7])
        assert len(cubes) == 4
        assert len(set(cubes)) == 4
        # every cube decides both variables, one polarity each
        for cube in cubes:
            assert sorted(abs(l) for l in cube) == [3, 7]
        # all sign combinations present => exhaustive partition
        assert {tuple(l > 0 for l in cube) for cube in cubes} == {
            (True, True),
            (True, False),
            (False, True),
            (False, False),
        }

    def test_empty_split_is_single_true_cube(self):
        assert generate_cubes([]) == [()]
        assert default_cube_depth(1) == 0
        assert default_cube_depth(2) == 1
        assert default_cube_depth(4) == 2
        assert default_cube_depth(5) == 3

    def test_build_cubes_on_problem(self):
        assert len(build_cubes(small_problem(), 2)) == 4

    def test_split_cube_refines_disjointly(self):
        problem = small_problem()
        cube = tuple(build_cubes(problem, 1)[0])
        children = split_cube(problem, cube)
        assert children is not None and len(children) == 2
        left, right = children
        # Both children extend the parent by one fresh variable, with
        # opposite phases — together they cover exactly the parent cube.
        assert left[: len(cube)] == cube and right[: len(cube)] == cube
        assert left[-1] == -right[-1]
        assert abs(left[-1]) not in {abs(l) for l in cube}

    def test_split_cube_exhausts(self):
        problem = small_problem()
        cube = ()
        for _ in range(problem.cnf.num_vars + 1):
            children = split_cube(problem, cube)
            if children is None:
                break
            cube = children[0]
        assert split_cube(problem, cube) is None


class TestDynamicSplitting:
    def test_hard_cube_splits_and_verdict_stays_correct(self):
        # A tiny split budget forces every top-level cube to be abandoned
        # and re-split; the join must still reach the sequential verdict
        # and count the splits.  Presolve off: its per-cube refinements can
        # settle cubes inside the budget, leaving nothing to split.
        problem = planted_problem(4).problem
        config = ABSolverConfig(use_presolve=False)
        split_budget = 1
        # Precondition: each top-level cube, solved alone, polls (one poll
        # per candidate) more often than the budget allows, so no cube can
        # finish -- and stop the solve first-win -- before it splits.
        for cube in build_cubes(problem, 1):
            polls = []
            session = SolverSession(config)
            session.assert_problem(problem)
            session.check(cube, poll=lambda: polls.append(cube) or True)
            assert len(polls) > split_budget, cube
        with ParallelSolver(
            config,
            jobs=2,
            mode="cube",
            cube_depth=1,
            split_budget=split_budget,
        ) as solver:
            result = solver.solve(problem)
        assert result.is_sat
        assert result.status is ABSolver(config).solve(problem).status
        split = solver.last_stats.registry.counter("cubes_split").value
        dispatched = solver.last_stats.registry.counter("cubes_dispatched").value
        assert split >= 1
        assert dispatched >= 2 + 2 * split  # children joined the task set

    def test_unsat_survives_splitting(self):
        problem = definitions_unsat_problem()
        with ParallelSolver(
            jobs=2, mode="cube", cube_depth=1, split_budget=1
        ) as solver:
            result = solver.solve(problem)
        assert result.is_unsat

    def test_deterministic_mode_disables_splitting(self):
        solver = ParallelSolver(
            jobs=2, mode="cube", deterministic=True, split_budget=5
        )
        assert solver._effective_split_budget() == 0
        solver_default = ParallelSolver(jobs=2, mode="cube")
        assert solver_default._effective_split_budget() > 0


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

    def test_statistics_round_trip(self):
        solver = ABSolver()
        solver.solve(small_problem())
        clone = pickle.loads(pickle.dumps(solver.stats))
        assert clone.as_dict() == solver.stats.as_dict()

    def test_task_and_outcome_round_trip(self):
        task = SolveTask(
            task_id=3,
            gen=7,
            kind=SolveTask.CHECK,
            problem=small_problem(),
            config=ABSolverConfig(seed=5),
            label="x",
            assumptions=(1, -2),
            cube=(1, -2),
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.task_id == 3 and clone.gen == 7
        assert clone.assumptions == (1, -2)
        assert clone.config.seed == 5 and clone.label == "x"
        outcome = WorkerOutcome(task_id=1, worker_id=0, gen=7, status="unsat")
        assert pickle.loads(pickle.dumps(outcome)).status == "unsat"

    def test_task_config_keeps_every_field(self, tmp_path):
        """A task carries the caller's whole config across the process
        boundary: every constructor argument survives the pickle, the
        observer stays behind, and the verdict cache reopens on the same
        directory with the same capacity."""
        arguments = dict(
            boolean="lsat",
            linear="difference",
            nonlinear=("auglag",),
            refine_conflicts=False,
            use_interval_refuter=False,
            record_certificate=True,
            max_iterations=77,
            max_equality_splits=3,
            tolerance=1e-4,
            boolean_options={"restart_base": 9},
            linear_options={"refine_minimal": False},
            nonlinear_options={"max_iterations": 5},
            refuter_options={"max_boxes": 11},
            seed=13,
            observer=Observer(),
            use_presolve=False,
            verdict_cache=VerdictCache(str(tmp_path), capacity=7),
            clause_decay=0.5,
            reduce_interval=17,
        )
        parameters = inspect.signature(ABSolverConfig).parameters
        assert arguments.keys() == parameters.keys()
        assert all(arguments[name] != p.default for name, p in parameters.items())
        config = ABSolverConfig(**arguments)
        config.verdict_cache.store("key", "unsat")
        task = SolveTask(
            task_id=0,
            gen=1,
            kind=SolveTask.CHECK,
            problem=small_problem(),
            config=ParallelSolver(config)._task_config(),
        )
        clone = pickle.loads(pickle.dumps(task)).config
        assert vars(clone).keys() == vars(config).keys()
        assert config.observer is arguments["observer"]  # caller's config untouched
        for name, value in vars(config).items():
            if name == "observer":
                assert clone.observer is None
            elif name == "verdict_cache":
                cache = clone.verdict_cache
                assert cache is not value and len(cache) == 0
                assert (cache.directory, cache.capacity) == (str(tmp_path), 7)
                # A fresh cache: entries arrive through the disk mirror.
                assert cache.lookup("key").status == "unsat"
            else:
                assert getattr(clone, name) == value, name


class TestPersistentSessions:
    def test_session_key_covers_every_config_field(self, monkeypatch):
        monkeypatch.setattr(worker, "_SESSIONS", {})

        def session(config, label="base"):
            task = SolveTask(
                task_id=0,
                gen=1,
                kind=SolveTask.CHECK,
                problem=small_problem(),
                config=config,
                label=label,
            )
            return worker._session_for(task)

        config = ABSolverConfig()
        first = session(config, "cube-0")
        # Cube tasks of one solve share the session; the label is no key.
        assert session(config, "cube-1") is first
        assert session(pickle.loads(pickle.dumps(config)), "cube-2") is first
        # Kernel knobs and certificate recording take part in the key.
        for knob in ({"clause_decay": 0.5}, {"reduce_interval": 7},
                     {"record_certificate": True}):
            assert session(ABSolverConfig(**knob)) is not first, knob


class TestPortfolioLadder:
    def test_ladder_is_deterministic_prefix(self):
        base = ABSolverConfig()
        four = portfolio_configs(base, 4)
        two = portfolio_configs(base, 2)
        assert [label for label, _ in four[:2]] == [label for label, _ in two]
        assert four[0][1] is base  # entry 0 IS the base config
        assert four[1][1].linear == "difference"
        assert len({(label, config.seed) for label, config in four}) == 4

    def test_ladder_respects_non_cdcl_base(self):
        for _, config in portfolio_configs(ABSolverConfig(boolean="dpll"), 6):
            if config.boolean == "dpll":
                # DPLL accepts no restart/seed options
                assert "restart_base" not in config.boolean_options
            # every rung must build its engines without blowing up
            SolvePipeline(config)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError):
            portfolio_configs(ABSolverConfig(), 0)

    def test_every_rung_answers_repeated_queries(self, monkeypatch):
        """Workers keep one session per config and problem, so each rung
        must answer a second query whose assumptions differ from the
        first's."""
        monkeypatch.setattr(worker, "_SESSIONS", {})
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.add_clause([1, 2])
        problem.add_clause([2, 3])
        for index, (label, config) in enumerate(
            portfolio_configs(ABSolverConfig(), 4)
        ):
            for assumptions in ([3], [-2]):
                task = SolveTask(
                    task_id=index,
                    gen=1,
                    kind=SolveTask.CHECK,
                    problem=problem,
                    config=config,
                    label=label,
                    assumptions=assumptions,
                )
                outcome = _execute(
                    task, 0, queue.Queue(), queue.Queue(), SimpleNamespace(value=1)
                )
                assert outcome.status == "sat", (label, assumptions, outcome.error)


class TestSeedDeterminism:
    def test_same_seed_identical_statistics(self):
        problem = random_linear_problem(11)

        def counters(seed):
            solver = ABSolver(ABSolverConfig(seed=seed))
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

    def test_seed_flows_into_cdcl(self):
        from repro.core.pipeline import SolvePipeline

        pipeline = SolvePipeline(ABSolverConfig(seed=99))
        assert pipeline.candidate._boolean._options.get("seed") == 99
        unseeded = SolvePipeline(ABSolverConfig())
        assert "seed" not in unseeded.candidate._boolean._options


class TestMemoization:
    def test_bound_rows_cache_hits(self):
        family = fischer_unroll_family(3)
        solver = ABSolver(ABSolverConfig())
        result = solver.solve(
            family.problem_at_depth(3), assumptions=family.check_assumptions(3)
        )
        assert result.is_sat
        assert solver.stats.bound_rows_cache_hits > 0

    def test_blocking_template_hits(self):
        # A definite lemma derived by one session and lazily imported into
        # another re-blocks the matching candidate from the template cache —
        # no theory check, no duplicate IIS refinement.
        def conflicted() -> ABProblem:
            problem = ABProblem()
            problem.define(1, "real", parse_constraint("x >= 0"))
            problem.define(2, "real", parse_constraint("x <= 10"))
            problem.define(3, "real", parse_constraint("x >= 20"))
            for var in (1, 2, 3):
                problem.add_clause([var])
            return problem

        # Presolve would prove this UNSAT before any lemma is derived;
        # disable it so the producer actually hits the theory conflict.
        derived = []
        producer = SolverSession(ABSolverConfig(use_presolve=False))
        producer.lemma_listener = (
            lambda clause, definite: derived.append(clause) if definite else None
        )
        producer.assert_problem(conflicted())
        assert producer.check().is_unsat
        assert derived

        consumer = SolverSession(ABSolverConfig(use_presolve=False))
        consumer.assert_problem(conflicted())
        assert consumer.import_lemmas(derived, lazy=True) == len(derived)
        result = consumer.check()
        assert result.is_unsat
        assert consumer.stats.blocking_template_hits >= 1
        # The foreign lemma preempted the conflict: nothing to re-refine.
        assert consumer.stats.conflicts_refined == 0


class TestParallelSolve:
    def test_cube_mode_sat(self):
        sequential = ABSolver().solve(small_problem())
        with ParallelSolver(jobs=2, mode="cube", cube_depth=2) as solver:
            result = solver.solve(small_problem())
        assert result.status == sequential.status == ABStatus.SAT
        assert small_problem().check_model(
            result.model.boolean, result.model.theory
        )
        assert solver.last_stats.registry.counter("parallel_tasks").value == 4

    def test_portfolio_mode_sat(self):
        with ParallelSolver(jobs=2, mode="portfolio") as solver:
            result = solver.solve(small_problem())
        assert result.status is ABStatus.SAT
        labels = [label for label, _ in solver.last_tasks]
        assert labels == ["base", "difference"]

    def test_cube_mode_unsat_needs_all_cubes(self):
        problem = definitions_unsat_problem()
        with ParallelSolver(jobs=2, mode="cube", cube_depth=2) as solver:
            result = solver.solve(problem)
        assert result.is_unsat
        statuses = [status for _, status in solver.last_tasks]
        assert statuses == ["unsat"] * len(statuses)

    def test_deterministic_mode_fixed_witness(self):
        problem = planted_problem(5).problem

        def witness():
            with ParallelSolver(
                jobs=2, mode="cube", cube_depth=2, deterministic=True
            ) as solver:
                result = solver.solve(problem)
            assert result.is_sat
            return result.model

        assert witness() == witness()

    def test_all_models_sharding_matches_sequential(self):
        problem = small_problem()
        sequential = set(ABSolver().all_solutions(small_problem()))
        with ParallelSolver(jobs=2, mode="cube", cube_depth=1) as solver:
            sharded = solver.all_solutions(problem)
        assert set(sharded) == sequential
        assert len(sharded) == len(sequential)  # dedup keeps them unique

    def test_portfolio_workers_honour_record_certificate(self):
        """Certificate recording switches stage 0 off in the workers, as it
        does in the sequential solver."""
        problem = ABProblem()
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        problem.add_clause([1])
        problem.add_clause([2])
        config = ABSolverConfig(record_certificate=True)
        with ParallelSolver(
            config, jobs=2, mode="portfolio", deterministic=True
        ) as solver:
            result = solver.solve(problem)
        assert result.is_unsat
        assert "presolve" not in result.stats.timers
        assert result.stats.boolean_queries >= 1

    def test_pool_reuse_across_solves(self):
        with ParallelSolver(jobs=2, mode="cube", cube_depth=1) as solver:
            first = solver.solve(small_problem())
            workers = list(solver._workers)
            second = solver.solve(definitions_unsat_problem())
            assert first.is_sat and second.is_unsat
            assert solver._workers == workers  # same processes, no respawn

    def test_worker_error_propagates(self):
        task = SolveTask(
            task_id=0,
            gen=1,
            kind="no-such-kind",
            problem=small_problem(),
            config=ABSolverConfig(),
        )
        outcome = _execute(task, 0, None, None, None)
        assert outcome.status == WorkerOutcome.ERROR
        assert "no-such-kind" in outcome.error


class TestLemmaSharing:
    def test_check_session_imports_lemmas(self):
        family = fischer_unroll_family(4)
        session = SolverSession(ABSolverConfig())
        session.assert_problem(family.problem_at_depth(4))
        with ParallelSolver(jobs=2, mode="cube", cube_depth=1) as solver:
            result = solver.check_session(
                session, assumptions=family.check_assumptions(4)
            )
        assert result.is_sat
        assert solver.shared_lemmas, "expected definite lemmas from the workers"
        imported = session.stats.registry.counter("lemmas_imported").value
        assert imported >= len(solver.shared_lemmas)
        # the enriched session still answers correctly
        assert session.check(family.check_assumptions(4)).is_sat

    def test_lemma_counters_recorded(self):
        family = fischer_unroll_family(4)
        with ParallelSolver(jobs=2, mode="portfolio") as solver:
            solver.solve(
                family.problem_at_depth(4),
                assumptions=family.check_assumptions(4),
            )
            shared = solver.last_stats.registry.counter("lemmas_shared").value
            assert shared > 0


class TestCancellationAndShutdown:
    def test_timeout_returns_unknown_and_leaves_no_orphans(self):
        # A hard instance: nonlinear-indefinite candidates with refinement
        # and interval refutation off grind through an exponential candidate
        # stream — far longer than the timeout.
        problem = ABProblem()
        for index in range(1, 9):
            problem.define(
                index, "real", parse_constraint(f"x*x + y*y >= {index + 1}")
            )
            problem.add_clause([index, -index])
        problem.define(9, "real", parse_constraint("x*x + y*y <= -1"))
        problem.add_clause([9])
        config = ABSolverConfig(refine_conflicts=False, use_interval_refuter=False)
        solver = ParallelSolver(
            config=config, jobs=2, mode="cube", cube_depth=1, timeout=0.3, grace=1.0
        )
        with solver:
            result = solver.solve(problem)
            assert result.status is ABStatus.UNKNOWN
            assert "timeout" in result.reason or "cancelled" in result.reason
        for process in multiprocessing.active_children():
            process.join(timeout=5)
        assert not multiprocessing.active_children()

    def test_close_reaps_workers(self):
        solver = ParallelSolver(jobs=3, mode="cube", cube_depth=2)
        solver.solve(small_problem())
        # Cube-mode pools are capped at the core count: surplus jobs become
        # queued work for the active workers, not extra processes.
        assert len(solver._workers) == solver.worker_count()
        assert solver.worker_count() == min(3, max(1, os.cpu_count() or 1))
        solver.close()
        assert not multiprocessing.active_children()

    def test_portfolio_pool_is_not_capped(self):
        solver = ParallelSolver(jobs=3, mode="portfolio")
        assert solver.worker_count() == 3

    def test_pool_respawns_after_timeout(self):
        solver = ParallelSolver(jobs=2, mode="cube", cube_depth=1, timeout=30.0)
        with solver:
            assert solver.solve(small_problem()).is_sat
            assert solver.solve(small_problem()).is_sat  # pool still healthy

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            ParallelSolver(jobs=0)
        with pytest.raises(ValueError):
            ParallelSolver(mode="race")


def _hard_problem() -> ABProblem:
    """Nonlinear-indefinite grinder (same shape as the timeout test above)."""
    problem = ABProblem()
    for index in range(1, 9):
        problem.define(index, "real", parse_constraint(f"x*x + y*y >= {index + 1}"))
        problem.add_clause([index, -index])
    problem.define(9, "real", parse_constraint("x*x + y*y <= -1"))
    problem.add_clause([9])
    return problem


def _check_dump_schema(lines):
    """Assert the flight-dump JSONL invariants every reader relies on."""
    assert lines, "empty flight dump"
    header = lines[0]
    assert header["kind"] == "flight-header"
    assert header["schema"] == 1
    assert header["events_recorded"] >= header["events_dropped"] >= 0
    known = {"flight-header", "event", "span", "note", "counters", "active-spans"}
    for line in lines:
        assert isinstance(line, dict) and line.get("kind") in known
        if line["kind"] in ("event", "span", "note"):
            assert line["t"] >= 0
    for line in lines:
        if line["kind"] == "active-spans":
            for span in line["spans"]:
                assert {"name", "depth", "age_us"} <= set(span)


class TestFlightRecording:
    def test_timed_out_solve_leaves_valid_dump(self, tmp_path):
        """The acceptance scenario: a killed parallel solve leaves a
        schema-valid JSONL post-mortem, written before control returns."""
        target = tmp_path / "flight.jsonl"
        config = ABSolverConfig(refine_conflicts=False, use_interval_refuter=False)
        solver = ParallelSolver(
            config=config,
            jobs=2,
            mode="cube",
            cube_depth=1,
            timeout=0.3,
            grace=1.5,
            flight_record=str(target),
        )
        with solver:
            result = solver.solve(_hard_problem())
        assert result.status is ABStatus.UNKNOWN
        assert target.exists()
        lines = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        _check_dump_schema(lines)
        assert lines[0]["recorder"] == "coordinator"
        assert lines[0]["reason"] == "timeout"

    def test_worker_dumps_survive_cancellation(self, tmp_path):
        """Per-worker rings come home in cancelled outcomes and are merged
        into the coordinator dump tagged with worker/task ids."""
        target = tmp_path / "flight.jsonl"
        config = ABSolverConfig(refine_conflicts=False, use_interval_refuter=False)
        solver = ParallelSolver(
            config=config,
            jobs=2,
            mode="cube",
            cube_depth=1,
            timeout=0.3,
            grace=1.5,
            flight_record=str(target),
        )
        with solver:
            solver.solve(_hard_problem())
            dumps = solver._worker_dumps
        # Workers that noticed the cancellation within the grace window
        # shipped their rings back despite never producing a verdict.
        assert dumps, "no worker flight dumps survived the timeout"
        for worker_id, task_id, dump in dumps:
            _check_dump_schema(dump)
            assert dump[0]["recorder"] == f"worker-{worker_id}"
            assert dump[0]["reason"] in ("cancelled", "sat", "unsat", "unknown")
        lines = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        tagged = [line for line in lines if "worker" in line]
        assert tagged, "worker lines missing from the merged dump"
        assert all("task" in line for line in tagged)

    def test_requested_dump_on_success(self, tmp_path):
        target = tmp_path / "flight.jsonl"
        with ParallelSolver(
            jobs=2, mode="cube", cube_depth=1, flight_record=str(target)
        ) as solver:
            assert solver.solve(small_problem()).is_sat
            assert solver.write_flight_dump() == str(target)
        lines = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        _check_dump_schema(lines)
        assert lines[0]["reason"] == "requested"
        counters = [
            line
            for line in lines
            if line["kind"] == "counters" and "worker" not in line
        ]
        assert counters and counters[0]["counters"]["parallel_tasks"] == 2

    def test_worker_error_auto_dumps_before_raise(self, tmp_path):
        target = tmp_path / "flight.jsonl"
        solver = ParallelSolver(jobs=2, flight_record=str(target))
        error = WorkerOutcome(
            task_id=0, worker_id=1, gen=1, status=WorkerOutcome.ERROR, error="boom"
        )
        solver._maybe_auto_dump({0: error}, timed_out=False)
        lines = [
            json.loads(line) for line in target.read_text().splitlines()
        ]
        assert lines[0]["reason"] == "worker-error"

    def test_worker_exception_ring_records_the_failure(self):
        task = SolveTask(
            task_id=3,
            gen=1,
            kind="no-such-kind",
            problem=small_problem(),
            config=ABSolverConfig(),
            observe=True,
        )
        outcome = _execute(task, 0, None, None, None)
        assert outcome.status == WorkerOutcome.ERROR
        _, ring = outcome.observed
        _check_dump_schema(ring)
        notes = [l for l in ring if l["kind"] == "note"]
        assert notes[0]["note"] == "task-start" and notes[0]["task_kind"] == "no-such-kind"
        assert any(l["note"] == "worker-exception" for l in notes)

    def test_flight_record_off_adds_nothing(self):
        with ParallelSolver(jobs=2, mode="cube", cube_depth=1) as solver:
            assert solver.solve(small_problem()).is_sat
            assert solver.flight_recorder is None
            assert solver._worker_dumps == []
            assert solver.write_flight_dump() is None

    def test_coordinator_progress_ticks(self):
        from repro.obs.observer import Observer
        from repro.obs.progress import ProgressMonitor, ProgressSnapshot

        observer = Observer()
        seen = []
        observer.subscribe(seen.append, ProgressSnapshot)
        monitor = ProgressMonitor(observer, interval=0.0)
        config = ABSolverConfig(observer=observer)
        with ParallelSolver(
            config=config, jobs=2, mode="cube", cube_depth=1
        ) as solver:
            assert solver.solve(small_problem()).is_sat
        assert monitor.snapshots >= 1
        assert all(event.stage == "parallel" for event in seen)
