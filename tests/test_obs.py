"""Tests for the observability layer: the observer and its sinks (span
tracer, event sinks, flight recorder, progress monitor, memory profiler),
the stage histograms, SolveStatistics, bench records, and the overhead
guard."""

import io
import json
import pickle
import subprocess
import time
from dataclasses import dataclass

import pytest

from repro import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.core.stats import SolveStatistics
# Aliased: the repo's pytest config collects bench_* names as benchmarks.
from repro.obs.bench_record import bench_record_payload as make_bench_payload
from repro.obs.bench_record import (
    git_dirty,
    git_sha,
    latest_record,
    load_trajectory,
    write_bench_record,
)
from repro.obs.events import (
    BlockingClauseAdded,
    CandidateFound,
    CheckStarted,
    CollectingSink,
    ConflictRefined,
    FramePopped,
    FramePushed,
    LemmaReused,
    SolveEvent,
    TheoryFeasible,
    VerboseSink,
    VerdictReached,
)
from repro.obs.metrics import Histogram
from repro.obs.observer import Observer
from repro.obs.profile import MemoryProfiler
from repro.obs.progress import (
    ProgressMonitor,
    ProgressRenderer,
    ProgressSnapshot,
    StageStalled,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import SpanTracer


def _sat_problem():
    problem = ABProblem()
    problem.add_clause([1])
    problem.define(1, "real", parse_constraint("x >= 0"))
    return problem


def _unsat_problem():
    problem = ABProblem()
    problem.add_clause([1])
    problem.add_clause([2])
    problem.define(1, "real", parse_constraint("x >= 5"))
    problem.define(2, "real", parse_constraint("x <= 3"))
    return problem


def _all_stage_problem():
    """SAT problem whose solve visits all five stages.

    The first candidate (default phases) leaves variable 1 false, making
    ``x < 4`` clash with the asserted ``x >= 4.5`` — a linear conflict that
    exercises ``refine``; the second candidate carries the nonlinear
    ``x * x >= 25`` to the nonlinear stage and succeeds.
    """
    problem = ABProblem()
    problem.add_clause([2])
    problem.add_clause([3])
    problem.define(1, "real", parse_constraint("x >= 4"))
    problem.define(2, "real", parse_constraint("x >= 4.5"))
    problem.define(3, "real", parse_constraint("x * x >= 25"))
    problem.set_bounds("x", -100.0, 100.0)
    return problem


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
def _traced():
    tracer = SpanTracer()
    return Observer(tracer=tracer), tracer


class TestSpanTracer:
    def test_nesting_depth_and_containment(self):
        observer, tracer = _traced()
        with observer.span("outer"):
            with observer.span("inner"):
                pass
            with observer.span("sibling"):
                pass
        spans = {span.name: span for span in tracer.spans}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["sibling"].depth == 1
        # Children are contained in the parent's [start, end] interval.
        for child in ("inner", "sibling"):
            assert spans[child].start_us >= spans["outer"].start_us
            assert spans[child].end_us <= spans["outer"].end_us
        assert tracer.open_depth == 0

    def test_exception_marks_span_and_unwinds(self):
        observer, tracer = _traced()
        with pytest.raises(ValueError):
            with observer.span("outer"):
                with observer.span("broken"):
                    raise ValueError("boom")
        names = [span.name for span in tracer.spans]
        assert names == ["broken", "outer"]
        assert all(span.error for span in tracer.spans)
        assert tracer.open_depth == 0
        # The tracer stays usable after the exception, at depth 0.
        with observer.span("after"):
            pass
        assert tracer.spans[-1].name == "after"
        assert tracer.spans[-1].depth == 0
        assert not tracer.spans[-1].error

    def test_args_and_instants_recorded(self):
        observer, tracer = _traced()
        with observer.span("linear", backend="simplex", rows=3):
            observer.instant("push", depth=1)
        assert tracer.spans[0].args == {"backend": "simplex", "rows": 3}
        assert tracer.instants[0].name == "push"
        assert tracer.instants[0].depth == 1  # nested under the open span

    def test_chrome_export_schema(self, tmp_path):
        observer, tracer = _traced()
        with observer.span("outer"):
            with observer.span("inner", detail=1):
                pass
        observer.instant("mark")
        target = tmp_path / "trace.json"
        tracer.export_chrome(str(target))
        payload = json.loads(target.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i", "M"}
        timed = [event for event in events if event["ph"] != "M"]
        for event in timed:
            assert {"name", "ts", "pid", "tid"} <= set(event)
        timestamps = [event["ts"] for event in timed]
        assert timestamps == sorted(timestamps)  # monotonic ts
        complete = [event for event in timed if event["ph"] == "X"]
        assert all("dur" in event and event["dur"] >= 0 for event in complete)

    def test_jsonl_export(self, tmp_path):
        observer, tracer = _traced()
        with observer.span("a"):
            pass
        with observer.span("b", tag=7):
            pass
        target = tmp_path / "spans.jsonl"
        tracer.export_jsonl(str(target))
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert lines[1]["args"] == {"tag": 7}


# ----------------------------------------------------------------------
# Event routing
# ----------------------------------------------------------------------
class TestEventBus:
    def test_inactive_until_subscribed(self):
        observer = Observer()
        assert not observer.active
        sink = CollectingSink()
        observer.subscribe(sink)
        assert observer.active
        observer.unsubscribe(sink)
        assert not observer.active

    def test_typed_subscription(self):
        observer = Observer()
        verdicts = CollectingSink()
        everything = CollectingSink()
        observer.subscribe(verdicts, VerdictReached)
        observer.subscribe(everything)
        observer.publish(CandidateFound(iteration=0, defined_true=1))
        observer.publish(VerdictReached(status="sat", iterations=1))
        assert [type(e) for e in verdicts.events] == [VerdictReached]
        assert len(everything.events) == 2

    def test_event_payload_matches_fields(self):
        event = BlockingClauseAdded(iteration=3, blocking_size=2, definite=True)
        assert event.payload() == {
            "iteration": 3,
            "blocking_size": 2,
            "definite": True,
        }
        assert event.legacy_name == "theory-conflict"


class TestSolveEventStream:
    def _solve_collecting(self, problem, **config_kwargs):
        observer = Observer()
        sink = observer.subscribe(CollectingSink())
        config = ABSolverConfig(observer=observer, **config_kwargs)
        result = ABSolver(config).solve(problem)
        return result, sink.events

    def test_conflict_refinement_loop_ordering(self):
        # Presolve would short-circuit this contradiction before the loop
        # (PresolveInfeasible instead of conflict triples); disable it so the
        # refinement event stream is actually exercised.
        result, events = self._solve_collecting(_unsat_problem(), use_presolve=False)
        assert result.is_unsat
        kinds = [type(event) for event in events]
        assert kinds[0] is CheckStarted
        assert kinds[-1] is VerdictReached
        assert events[-1].status == "unsat"
        # Each conflict is a CandidateFound -> ConflictRefined ->
        # BlockingClauseAdded triple, in that order, same iteration.
        blocks = [e for e in events if isinstance(e, BlockingClauseAdded)]
        assert blocks
        assert all(block.blocking_size >= 1 for block in blocks)
        for block in blocks:
            at = events.index(block)
            candidates = [
                e
                for e in events[:at]
                if isinstance(e, CandidateFound) and e.iteration == block.iteration
            ]
            assert candidates, "blocking clause without a preceding candidate"
            refined = [
                e
                for e in events[events.index(candidates[-1]) : at]
                if isinstance(e, ConflictRefined)
            ]
            assert refined, "conflict was blocked without a refinement event"
            assert refined[-1].minimal
        assert not any(isinstance(e, TheoryFeasible) for e in events)

    def test_sat_stream_ends_with_feasible_verdict(self):
        result, events = self._solve_collecting(_sat_problem())
        assert result.is_sat
        assert any(isinstance(e, CandidateFound) for e in events)
        assert isinstance(events[-1], VerdictReached) and events[-1].status == "sat"
        feasible = [e for e in events if isinstance(e, TheoryFeasible)]
        assert len(feasible) == 1

    def test_session_lifecycle_events(self):
        observer = Observer()
        sink = observer.subscribe(CollectingSink())
        session = SolverSession(ABSolverConfig(observer=observer))
        session.assert_problem(_sat_problem())
        session.check()
        session.push()
        session.assert_constraint(parse_constraint("x >= 1"))
        session.check()
        session.pop()
        kinds = [type(e) for e in sink.events]
        assert kinds.count(CheckStarted) == 2
        assert FramePushed in kinds and FramePopped in kinds
        pushed = next(e for e in sink.events if isinstance(e, FramePushed))
        assert pushed.depth == 1
        # A session that learned lemmas earlier reports reuse on later checks.
        reused = [e for e in sink.events if isinstance(e, LemmaReused)]
        for event in reused:
            assert event.count > 0

    def test_verbose_sink_format(self):
        stream = io.StringIO()
        sink = VerboseSink(stream)
        sink(CandidateFound(iteration=0, defined_true=2))
        sink(VerdictReached(status="sat", iterations=1))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "  [boolean-model] iteration=0 defined_true=2"
        assert lines[1] == "  [verdict] status=sat iterations=1"


# ----------------------------------------------------------------------
# Traced solves: nested stage spans
# ----------------------------------------------------------------------
class TestTracedSolve:
    def test_all_five_stages_appear_nested(self):
        # Presolve off: it would deduce the conflicting variable's phase up
        # front and skip the refine stage this test wants to observe.
        observer, tracer = _traced()
        config = ABSolverConfig(observer=observer, use_presolve=False)
        result = ABSolver(config).solve(_all_stage_problem())
        assert result.is_sat
        names = {span.name for span in tracer.spans}
        assert {"boolean", "translate", "linear", "nonlinear", "refine"} <= names
        check = next(s for s in tracer.spans if s.name == "session.check")
        for span in tracer.spans:
            if span.name in ("boolean", "translate", "linear", "nonlinear", "refine"):
                assert span.depth > check.depth
                assert span.start_us >= check.start_us
                assert span.end_us <= check.end_us + 1.0  # float slack

    def test_backend_names_attached(self):
        observer, tracer = _traced()
        ABSolver(ABSolverConfig(observer=observer)).solve(_sat_problem())
        boolean = next(s for s in tracer.spans if s.name == "boolean")
        linear = next(s for s in tracer.spans if s.name == "linear")
        assert boolean.args["backend"] == "cdcl"
        assert linear.args["backend"] == "simplex"

    def test_session_push_pop_traced(self):
        observer, tracer = _traced()
        session = SolverSession(ABSolverConfig(observer=observer))
        session.assert_problem(_sat_problem())
        session.check()
        session.push()
        session.pop()
        assert any(mark.name == "session.push" for mark in tracer.instants)
        assert any(span.name == "session.pop" for span in tracer.spans)


# ----------------------------------------------------------------------
# Stage histograms
# ----------------------------------------------------------------------
class TestMetrics:
    def test_histogram_percentiles(self):
        histogram = Histogram("t")
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
            histogram.observe(value)
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(95) == 10.0
        assert histogram.percentile(100) == 10.0
        summary = histogram.summary()
        assert summary["count"] == 10
        assert summary["total"] == pytest.approx(55.0)
        assert summary["p50"] == 5.0

    def test_empty_histogram_summary(self):
        summary = Histogram("t").summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0


# ----------------------------------------------------------------------
# SolveStatistics
# ----------------------------------------------------------------------
class TestStatsFacade:
    def test_facade_matches_legacy_dict_output(self):
        """as_dict lists every counter, then the ``time_<key>`` totals."""
        stats = SolveStatistics()
        stats.boolean_queries = 3
        stats.linear_checks += 2
        with stats.timed("linear"):
            pass
        with stats.timed("boolean"):
            pass
        expected = {field: 0 for field in SolveStatistics._COUNTERS}
        expected["boolean_queries"] = 3
        expected["linear_checks"] = 2
        expected["time_linear"] = stats.timers["linear"]
        expected["time_boolean"] = stats.timers["boolean"]
        assert stats.as_dict() == expected

    def test_counter_attributes_behave_like_ints(self):
        stats = SolveStatistics()
        assert stats.nonlinear_calls == 0
        stats.nonlinear_calls += 1
        stats.nonlinear_calls += 1
        assert stats.nonlinear_calls == 2
        assert stats.as_dict()["nonlinear_calls"] == 2

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            SolveStatistics().no_such_counter

    def test_assigning_an_undeclared_counter_raises(self):
        """A misspelt counter fails loudly instead of becoming an attribute
        that merge and as_dict never see."""
        stats = SolveStatistics()
        with pytest.raises(AttributeError):
            stats.boolean_querys = 1
        with pytest.raises(AttributeError):
            stats.no_such_counter += 1

    def test_merge_known_counters_and_timers(self):
        a, b = SolveStatistics(), SolveStatistics()
        a.boolean_queries = 2
        b.boolean_queries = 3
        with b.timed("linear"):
            time.sleep(0.001)
        merged = a.merge(b)
        assert merged is a
        assert a.boolean_queries == 5
        assert a.timers["linear"] == pytest.approx(b.timers["linear"])

    def test_merge_preserves_unknown_counters(self):
        """Regression: a counter only one side set used to vanish on merge
        when it sat outside the historical counter tuple."""
        a, b = SolveStatistics(), SolveStatistics()
        b.lemmas_imported += 4
        a.merge(b)
        assert a.lemmas_imported == 4
        assert a.as_dict()["lemmas_imported"] == 4
        a.merge(b)
        assert a.lemmas_imported == 8

    def test_pickle_round_trip_keeps_counters_and_histograms(self):
        stats = SolveStatistics()
        stats.boolean_queries = 7
        stats.lemmas_imported = 2
        for _ in range(3):
            with stats.timed("linear"):
                pass
        copy = pickle.loads(pickle.dumps(stats))
        assert copy.as_dict() == stats.as_dict()
        assert copy.stage_summaries() == stats.stage_summaries()
        assert copy.stage_summaries()["linear"]["count"] == 3

    def test_snapshot_counters_match_as_dict(self):
        stats = ABSolver().solve(_sat_problem()).stats
        snapshot = stats.snapshot()
        flat = stats.as_dict()
        assert set(snapshot["counters"]) == {
            name for name in flat if not name.startswith("time_")
        }
        assert all(snapshot["counters"][name] == flat[name] for name in snapshot["counters"])
        assert snapshot["stages"] == stats.stage_summaries()

    def test_stage_summaries_expose_percentiles(self):
        stats = SolveStatistics()
        for _ in range(4):
            with stats.timed("linear"):
                pass
        summaries = stats.stage_summaries()
        assert summaries["linear"]["count"] == 4
        assert {"p50", "p95", "total", "mean", "max"} <= set(summaries["linear"])

    def test_solve_populates_histograms(self):
        result = ABSolver().solve(_sat_problem())
        summaries = result.stats.stage_summaries()
        assert summaries["boolean"]["count"] >= 1
        assert summaries["linear"]["count"] >= 1
        assert result.stats.as_dict()["time_boolean"] > 0


# ----------------------------------------------------------------------
# Bench records
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_payload_shape(self):
        result = ABSolver().solve(_sat_problem())
        payload = make_bench_payload(
            "demo", wall_seconds=1.25, stats=result.stats, extra={"depth": 3}
        )
        assert "schema" not in payload  # the trajectory container owns it
        assert payload["benchmark"] == "demo"
        assert payload["wall_seconds"] == 1.25
        assert payload["counters"]["boolean_queries"] >= 1
        assert "boolean" in payload["stages"]
        assert payload["stages"]["boolean"]["samples"] >= 1
        assert payload["extra"] == {"depth": 3}
        assert payload["git_sha"] is None or len(payload["git_sha"]) == 40

    def test_payload_marks_a_dirty_tree(self, tmp_path, monkeypatch):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                cwd=tmp_path,
                check=True,
                capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "base")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "untracked.txt").write_text("ignored\n")
        clean = make_bench_payload("demo")
        assert clean["git_dirty"] is False
        assert len(clean["git_sha"]) == 40
        (tmp_path / "tracked.txt").write_text("two\n")
        dirty = make_bench_payload("demo")
        assert dirty["git_dirty"] is True
        assert dirty["git_sha"] == clean["git_sha"]

    def test_git_dirty_is_none_outside_git(self, tmp_path):
        assert git_dirty(str(tmp_path)) is None
        assert git_sha(str(tmp_path)) is None

    def test_payload_carries_memory_attribution(self):
        payload = make_bench_payload(
            "demo", memory={"sample_every": 8, "stages": {}}
        )
        assert payload["memory"]["sample_every"] == 8

    def test_write_bench_record(self, tmp_path):
        path = write_bench_record("unit_demo", wall_seconds=0.5, directory=str(tmp_path))
        assert path.endswith("BENCH_unit_demo.json")
        container = json.loads((tmp_path / "BENCH_unit_demo.json").read_text())
        assert container["schema"] == 2
        assert container["benchmark"] == "unit_demo"
        latest = container["trajectory"][-1]
        assert latest["benchmark"] == "unit_demo"
        assert latest["wall_seconds"] == 0.5

    def test_appends_accumulate_a_trajectory(self, tmp_path):
        for run in range(3):
            write_bench_record(
                "traj_demo", wall_seconds=float(run), directory=str(tmp_path)
            )
        trajectory = load_trajectory(str(tmp_path / "BENCH_traj_demo.json"))
        assert [entry["wall_seconds"] for entry in trajectory] == [0.0, 1.0, 2.0]
        assert latest_record(str(tmp_path / "BENCH_traj_demo.json"))[
            "wall_seconds"
        ] == 2.0

    def test_legacy_flat_record_still_loads(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({"schema": 1, "benchmark": "old", "wall_seconds": 9.0}))
        assert load_trajectory(str(legacy)) == [
            {"schema": 1, "benchmark": "old", "wall_seconds": 9.0}
        ]
        # Appending migrates the flat record into a trajectory container.
        write_bench_record("old", wall_seconds=1.0, directory=str(tmp_path))
        container = json.loads(legacy.read_text())
        assert container["schema"] == 2
        assert [e["wall_seconds"] for e in container["trajectory"]] == [9.0, 1.0]

    def test_record_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RECORD_DIR", str(tmp_path / "records"))
        path = write_bench_record("env_demo")
        assert str(tmp_path / "records") in path


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def _dump(self, recorder, reason="requested"):
        stream = io.StringIO()
        recorder.dump_jsonl(stream, reason=reason)
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=16)
        for index in range(100):
            recorder(CandidateFound(iteration=index, defined_true=0))
        assert len(recorder) == 16
        assert recorder.recorded == 100
        assert recorder.dropped == 84
        lines = self._dump(recorder)
        header = lines[0]
        assert header["events_recorded"] == 100
        assert header["events_dropped"] == 84
        # Only the newest entries survive, in order.
        events = [line for line in lines if line["kind"] == "event"]
        assert [event["iteration"] for event in events] == list(range(84, 100))

    def test_dump_schema(self):
        observer, _ = _traced()
        recorder = FlightRecorder().attach(observer)
        result = ABSolver(ABSolverConfig(observer=observer)).solve(_sat_problem())
        recorder.bind_stats(result.stats)
        lines = self._dump(recorder, reason="unit-test")
        header = lines[0]
        assert header["kind"] == "flight-header"
        assert header["schema"] == FlightRecorder.SCHEMA_VERSION
        assert header["recorder"] == "absolver"
        assert header["reason"] == "unit-test"
        kinds = {line["kind"] for line in lines}
        assert {"flight-header", "event", "span", "counters", "active-spans"} <= kinds
        counters = next(line for line in lines if line["kind"] == "counters")
        assert counters["counters"]["boolean_queries"] >= 1
        assert "samples" in counters["stages"]["boolean"]
        # The solve finished, so no span is still open.
        active = next(line for line in lines if line["kind"] == "active-spans")
        assert active["spans"] == []
        # Every ring entry is timestamped relative to the recorder epoch.
        for line in lines[1:-2]:
            assert line["t"] >= 0

    def test_active_spans_capture_the_stuck_stack(self):
        observer, _ = _traced()
        recorder = FlightRecorder().attach(observer)
        with observer.span("outer"):
            with observer.span("inner", backend="simplex"):
                lines = self._dump(recorder, reason="stall")
        active = next(line for line in lines if line["kind"] == "active-spans")
        names = [span["name"] for span in active["spans"]]
        assert names == ["outer", "inner"]
        assert active["spans"][1]["args"] == {"backend": "simplex"}
        assert all(span["age_us"] >= 0 for span in active["spans"])

    def test_reserved_keys_survive_field_collisions(self):
        @dataclass(frozen=True)
        class Clobbering(SolveEvent):
            kind: str
            t: float
            event: str

        recorder = FlightRecorder()
        recorder(Clobbering(kind="check", t=-1.0, event="clobber"))
        entry = self._dump(recorder)[1]
        assert entry["kind"] == "event"
        assert entry["event"] == "Clobbering"
        assert entry["t"] >= 0

    def test_detach_stops_recording(self):
        observer, _ = _traced()
        recorder = FlightRecorder().attach(observer)
        observer.publish(VerdictReached(status="sat", iterations=1))
        recorder.detach()
        assert not observer.active
        assert observer.recorder is None
        observer.publish(VerdictReached(status="sat", iterations=2))
        with observer.span("after"):
            pass
        assert recorder.recorded == 1

    def test_dump_to_path(self, tmp_path):
        recorder = FlightRecorder()
        recorder(VerdictReached(status="unsat", iterations=3))
        target = tmp_path / "flight.jsonl"
        recorder.dump_jsonl(str(target), reason="exception")
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines[0]["reason"] == "exception"
        assert lines[1]["event"] == "VerdictReached"
        assert lines[1]["status"] == "unsat"


# ----------------------------------------------------------------------
# Progress heartbeats and the stall watchdog
# ----------------------------------------------------------------------
class TestProgress:
    def test_first_tick_always_emits(self):
        observer = Observer()
        sink = observer.subscribe(CollectingSink(), ProgressSnapshot)
        monitor = ProgressMonitor(observer, interval=3600.0)
        monitor.tick("boolean", iteration=0, boolean_queries=1)
        assert monitor.snapshots == 1
        assert sink.events[0].stage == "boolean"

    def test_interval_rate_limits(self):
        clock = FakeClock()
        observer = Observer()
        sink = observer.subscribe(CollectingSink(), ProgressSnapshot)
        monitor = ProgressMonitor(observer, interval=1.0, clock=clock)
        for _ in range(10):
            monitor.tick("boolean")
            clock.advance(0.3)
        # 3 seconds of ticks at a 1s interval: first + two refreshes... the
        # emission points are t=0, t>=1 (t=1.2), t>=2.2 (t=2.4).
        assert monitor.snapshots == 3
        assert len(sink.events) == 3

    def test_stall_detected_at_tick_time(self):
        clock = FakeClock()
        observer = Observer()
        stalls = observer.subscribe(CollectingSink(), StageStalled)
        monitor = ProgressMonitor(observer, interval=0.0, stall_budget=5.0, clock=clock)
        monitor.tick("linear")
        clock.advance(20.0)
        monitor.tick("linear")
        assert monitor.stalls == 1
        event = stalls.events[0]
        assert event.stage == "linear"
        assert event.stalled_for == pytest.approx(20.0)
        assert event.budget == 5.0

    def test_watchdog_fires_once_per_episode(self):
        observer = Observer()
        stalls = observer.subscribe(CollectingSink(), StageStalled)
        monitor = ProgressMonitor(observer, interval=0.0, stall_budget=0.05)
        monitor.tick("nonlinear")
        monitor.start_watchdog(poll_interval=0.02)
        try:
            deadline = time.monotonic() + 2.0
            while not stalls.events and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            monitor.stop_watchdog()
        assert monitor.stalls == 1  # one alarm, not one per poll
        assert stalls.events[0].stage == "nonlinear"

    def test_pipeline_emits_heartbeat_on_watertank_family(self):
        from repro.benchgen import watertank_unroll_family

        family = watertank_unroll_family(4)
        observer = Observer()
        sink = observer.subscribe(CollectingSink(), ProgressSnapshot)
        monitor = ProgressMonitor(observer, interval=0.0)
        # Difference logic settles the depth-4 unroll in tens of
        # milliseconds (16 Boolean queries), still ticking presolve and
        # several loop iterations; exact simplex takes seconds.
        config = ABSolverConfig(linear="difference", observer=observer)
        depth = family.max_depth
        result = ABSolver(config).solve(
            family.problem_at_depth(depth),
            assumptions=family.check_assumptions(depth),
        )
        assert result.status.value in ("sat", "unsat")
        assert monitor.snapshots >= 1
        stages = {event.stage for event in sink.events}
        assert "presolve" in stages or "boolean" in stages

    def test_renderer_formats_both_events(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream)
        renderer(
            ProgressSnapshot(
                elapsed=1.5,
                stage="linear",
                iteration=7,
                boolean_queries=9,
                blocking_clauses=4,
                presolve_units=2,
            )
        )
        renderer(StageStalled(stage="nonlinear", stalled_for=31.0, budget=30.0))
        lines = stream.getvalue().splitlines()
        assert lines[0] == (
            "[progress +1.5s] stage=linear iter=7 boolean=9 blocked=4 "
            "presolve_units=2"
        )
        assert lines[1] == (
            "[stalled] stage=nonlinear no progress for 31.0s (budget 30.0s)"
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressMonitor(Observer(), interval=-1.0)
        with pytest.raises(ValueError):
            ProgressMonitor(Observer(), stall_budget=0.0)


class FakeClock:
    """Deterministic monotonic clock for rate-limit and stall tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Memory profiler
# ----------------------------------------------------------------------
class TestMemoryProfiler:
    def test_attributes_growth_to_stages(self):
        profiler = MemoryProfiler(sample_every=1)
        profiler.start()
        try:
            keep = []
            for _ in range(4):
                with profiler.measure("linear"):
                    keep.append(bytearray(64 * 1024))
                with profiler.measure("boolean"):
                    pass
            summary = profiler.summary()
        finally:
            profiler.stop()
        linear = summary["stages"]["linear"]
        assert linear["entries"] == 4
        assert linear["samples"] == 4
        assert linear["net_kb"] > 4 * 60  # ~64 KiB growth per sampled entry
        assert linear["peak_kb"] >= 60
        assert summary["stages"]["boolean"]["net_kb"] < linear["net_kb"]
        assert summary["sample_every"] == 1

    def test_sampling_counts_every_entry(self):
        profiler = MemoryProfiler(sample_every=8)
        profiler.start()
        try:
            for _ in range(20):
                with profiler.measure("boolean"):
                    pass
            summary = profiler.summary()
        finally:
            profiler.stop()
        boolean = summary["stages"]["boolean"]
        assert boolean["entries"] == 20
        assert boolean["samples"] == 3  # entries 0, 8, 16

    def test_unstarted_profiler_still_counts(self):
        profiler = MemoryProfiler()
        with profiler.measure("linear"):
            pass
        assert profiler.summary()["stages"]["linear"] == {
            "entries": 1,
            "samples": 0,
            "net_kb": 0.0,
            "peak_kb": 0.0,
        }

    def test_solve_with_profiler_lands_in_config(self):
        profiler = MemoryProfiler(sample_every=1)
        profiler.start()
        try:
            config = ABSolverConfig(observer=Observer(profiler=profiler))
            result = ABSolver(config).solve(_sat_problem())
            assert result.is_sat
            stages = profiler.summary()["stages"]
        finally:
            profiler.stop()
        assert {"boolean", "linear"} <= set(stages)
        assert stages["boolean"]["entries"] >= 1


# ----------------------------------------------------------------------
# The observer itself: fast paths, the one config field, composed sinks
# ----------------------------------------------------------------------
class TestObserver:
    def test_span_without_tracer_is_shared_noop(self):
        observer = Observer()
        handle_a = observer.span("x", anything=1)
        handle_b = Observer().span("y")
        assert handle_a is handle_b  # one preallocated no-op handle
        with handle_a:
            pass
        observer.instant("marker")

    def test_stage_without_sinks_only_times(self):
        stats = SolveStatistics()
        with Observer().stage(stats, "linear", {"rows": 3}):
            pass
        assert stats.stage_summaries()["linear"]["count"] == 1
        # With an (unstarted) profiler attached the entry is also counted.
        profiler = MemoryProfiler()
        with Observer(profiler=profiler).stage(stats, "linear", {}):
            pass
        assert profiler.summary()["stages"]["linear"]["entries"] == 1
        assert stats.stage_summaries()["linear"]["count"] == 2

    @pytest.mark.parametrize(
        "field", ["trace", "tracer", "event_bus", "progress_monitor", "memory_profiler"]
    )
    def test_config_has_one_observability_field(self, field):
        with pytest.raises(TypeError):
            ABSolverConfig(**{field: None})

    def test_every_sink_at_once_sees_what_each_sees_alone(self):
        """One solve with all five sinks attached: each receives what it
        receives alone, and the solve itself is unchanged."""

        def solve(observer=None):
            # Presolve off: the solve then visits all five loop stages.
            config = ABSolverConfig(use_presolve=False, observer=observer)
            return ABSolver(config).solve(_all_stage_problem())

        def counters(result):
            return {
                key: value
                for key, value in result.stats.as_dict().items()
                if not key.startswith("time_")
            }

        solve()  # warm the interning table, so intern_hits compare equal
        plain = solve()

        spans_alone = SpanTracer()
        solve(Observer(tracer=spans_alone))
        events_alone = Observer()
        events_sink = events_alone.subscribe(CollectingSink())
        solve(events_alone)
        ticks_alone = Observer()
        ticks_sink = ticks_alone.subscribe(CollectingSink(), ProgressSnapshot)
        ProgressMonitor(ticks_alone, interval=0.0)
        solve(ticks_alone)

        tracer = SpanTracer()
        profiler = MemoryProfiler(sample_every=1)
        observer = Observer(tracer=tracer, profiler=profiler)
        sink = observer.subscribe(CollectingSink())
        recorder = FlightRecorder().attach(observer)
        ProgressMonitor(observer, interval=0.0)
        profiler.start()
        try:
            result = solve(observer)
            memory = profiler.summary()
        finally:
            profiler.stop()

        assert result.status is plain.status
        assert counters(result) == counters(plain)
        assert [s.name for s in tracer.spans] == [s.name for s in spans_alone.spans]
        solve_events = [
            type(e) for e in sink.events if not isinstance(e, ProgressSnapshot)
        ]
        assert solve_events == [type(e) for e in events_sink.events]
        assert [e.stage for e in sink.of_type(ProgressSnapshot)] == [
            e.stage for e in ticks_sink.events
        ]
        ring = {line["kind"] for line in recorder.snapshot_lines()}
        assert {"span", "event"} <= ring
        assert "boolean" in memory["stages"]


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
def _midsize_solve(observer=None):
    """One mid-size difference-logic solve (the FISCHER unroll at depth 6)."""
    from repro.benchgen import fischer_unroll_family

    family = fischer_unroll_family(6)
    config = ABSolverConfig(linear="difference", observer=observer)
    result = ABSolver(config).solve(
        family.problem_at_depth(6), assumptions=family.check_assumptions(6)
    )
    assert result.status.value == (family.expected_status(6) or result.status.value)
    return result


def _best_of_alternating(runs, make_base, make_other):
    """Best-of-``runs`` wall time per side, alternating base and other solves
    one by one so a host speed change hits both sides alike."""
    best = {"base": float("inf"), "other": float("inf")}
    for _ in range(runs):
        for side, make in (("base", make_base), ("other", make_other)):
            observer = make()
            started = time.perf_counter()
            _midsize_solve(observer)
            best[side] = min(best[side], time.perf_counter() - started)
    return best["base"], best["other"]


class TestOverheadGuard:
    def test_null_span_fast_path_is_cheap(self):
        """A span on an observer without a tracer must be allocation-free and fast."""
        observer = Observer()
        started = time.perf_counter()
        for _ in range(100_000):
            with observer.span("stage"):
                pass
        elapsed = time.perf_counter() - started
        # Generous even for slow CI runners: 100k no-op spans in under half
        # a second is ~5us per span worst case; typical is ~0.2us.
        assert elapsed < 0.5

    def test_tracing_overhead_within_five_percent(self):
        """Instrumentation cost on a mid-size solve stays under 5%.

        The traced-off path is the shipped default (an observer with no
        sinks); running the same solve fully traced within 5% of it bounds
        what the instrumentation can cost — and a fortiori the traced-off
        solve sits within 5% of pre-instrumentation wall time.  Best-of-5
        strips scheduler noise.
        """
        _midsize_solve()  # warm imports and code paths
        untraced, traced = _best_of_alternating(
            5, lambda: None, lambda: Observer(tracer=SpanTracer())
        )
        # 5% relative margin plus a small absolute cushion so a sub-50ms
        # baseline does not turn scheduler jitter into flakes.
        assert traced <= untraced * 1.05 + 0.005, (
            f"traced {traced * 1000:.1f}ms vs untraced {untraced * 1000:.1f}ms "
            "exceeds the 5% instrumentation budget"
        )

    def test_recorder_overhead_within_five_percent(self):
        """A flight recorder on a fully traced solve stays under 5% extra.

        Both sides run traced with an active observer, so the comparison
        isolates what the *recorder* adds: one ring append per event and
        per span close.  Best-of-5 strips scheduler noise.
        """
        _midsize_solve()  # warm imports and code paths

        def traced(recorded):
            observer = Observer(tracer=SpanTracer())
            if recorded:
                FlightRecorder().attach(observer)
            else:
                observer.subscribe(lambda event: None)  # active either way
            return observer

        plain, recorded = _best_of_alternating(
            5, lambda: traced(False), lambda: traced(True)
        )
        assert recorded <= plain * 1.05 + 0.005, (
            f"recorded {recorded * 1000:.1f}ms vs plain {plain * 1000:.1f}ms "
            "exceeds the 5% flight-recorder budget"
        )
