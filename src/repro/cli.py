"""The ``absolver`` command-line tool.

"The various constituents of our solver are customisable via command line
parameters, say, to allow the use of specific heuristics" (paper, Sec. 1.1).
The stand-alone executable reads the extended DIMACS format (or SMT-LIB 1.2
with ``--smtlib``), runs the configured solver combination, and prints the
verdict plus the witness model.

Examples::

    absolver problem.cnf
    absolver --boolean lsat --linear simplex --all-models problem.cnf
    absolver --smtlib FISCHER4-1-fair.smt
    absolver --linear difference --stats problem.cnf
    absolver --check-incremental base.cnf step1.cnf step2.cnf
    absolver --stats-json - problem.cnf
    absolver --trace-chrome trace.json --trace spans.jsonl problem.cnf
    absolver --progress --flight-record flight.jsonl --jobs 4 problem.cnf
    absolver --profile-memory --stats-json - problem.cnf

``--trace-chrome`` writes the solve as a Chrome ``trace_event`` file —
open it in ``chrome://tracing`` or https://ui.perfetto.dev to see the
staged pipeline (boolean / translate / linear / nonlinear / refine spans)
as a flamegraph.  ``--verbose`` prints the typed solver events through a
:class:`repro.obs.events.VerboseSink`.

The deep-diagnostics flags (see ``docs/OBSERVABILITY.md``): ``--progress``
prints live heartbeats (and stall alarms, tunable via
``--progress-interval`` / ``--stall-budget``) to stderr;
``--flight-record PATH`` keeps a bounded ring of recent events/spans and
writes a JSONL post-mortem on exception, parallel timeout, or exit;
``--profile-memory`` attributes allocations to pipeline stages via
sampled ``tracemalloc`` (summary in ``--stats-json`` under ``memory``).

With ``--check-incremental`` the inputs form one *incremental session*:
each file is a delta (sharing the variable numbering of its predecessors)
asserted into a fresh stack frame of a
:class:`~repro.core.session.SolverSession` and checked, so learned clauses,
theory lemmas, and translation caches carry over from one check to the
next.  The exit code reflects the last check.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from .core.registry import DOMAIN_BOOLEAN, DOMAIN_LINEAR, DOMAIN_NONLINEAR, default_registry
from .core.solver import ABSolver, ABSolverConfig, ABStatus
from .io.dimacs import parse_dimacs_file
from .io.smtlib import parse_smtlib

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="absolver",
        description="Multi-domain (Boolean + linear + nonlinear) constraint solver",
    )
    parser.add_argument(
        "input",
        nargs="+",
        help="problem file(s) (extended DIMACS; SMT-LIB with --smtlib; model "
        "file with --model); several files require --check-incremental",
    )
    parser.add_argument(
        "--check-incremental",
        action="store_true",
        help="treat the inputs as one incremental session: assert each file "
        "as a delta in its own frame and check after each",
    )
    parser.add_argument("--smtlib", action="store_true", help="parse input as SMT-LIB v1.2")
    parser.add_argument(
        "--model",
        action="store_true",
        help="parse input as a Simulink-like model file and convert it (Fig. 3 pipeline)",
    )
    parser.add_argument(
        "--goal",
        default="satisfy",
        choices=("satisfy", "violate"),
        help="with --model: search for a satisfying input or a counterexample",
    )
    parser.add_argument(
        "--output-port",
        default=None,
        help="with --model: which Boolean outport to analyse (default: the only one)",
    )
    parser.add_argument(
        "--boolean",
        default="cdcl",
        choices=default_registry.available(DOMAIN_BOOLEAN),
        help="Boolean solver (default: cdcl)",
    )
    parser.add_argument(
        "--linear",
        default="simplex",
        choices=default_registry.available(DOMAIN_LINEAR),
        help="linear solver (default: simplex)",
    )
    parser.add_argument(
        "--nonlinear",
        default="newton,auglag",
        help="comma-separated nonlinear solver list (default: newton,auglag)",
    )
    parser.add_argument(
        "--all-models", action="store_true", help="enumerate all models instead of one"
    )
    parser.add_argument(
        "--max-models", type=int, default=None, help="cap for --all-models output"
    )
    parser.add_argument(
        "--no-refine",
        action="store_true",
        help="disable IIS conflict refinement (block full assignments)",
    )
    parser.add_argument(
        "--no-presolve",
        action="store_true",
        help="disable the formula-level presolve stage (bound propagation, "
        "interval contraction, unit deduction)",
    )
    parser.add_argument("--stats", action="store_true", help="print solver statistics")
    parser.add_argument(
        "--stats-json",
        metavar="PATH",
        default=None,
        help="write the solver statistics as JSON to PATH ('-' for stdout); "
        "includes per-stage latency summaries (count/total/p50/p95)",
    )
    parser.add_argument("--quiet", action="store_true", help="print only the verdict")
    parser.add_argument(
        "--verbose", action="store_true", help="trace every control-loop step"
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record nested solver spans and write them as JSONL to PATH",
    )
    parser.add_argument(
        "--trace-chrome",
        metavar="PATH",
        default=None,
        help="record nested solver spans and write a Chrome trace_event file "
        "to PATH (open in chrome://tracing or https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live progress heartbeats (and stall alarms) to stderr",
    )
    parser.add_argument(
        "--progress-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between --progress heartbeats (default: 1.0)",
    )
    parser.add_argument(
        "--stall-budget",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="with --progress: raise a stage-stalled alarm after this many "
        "seconds without a progress tick (default: 30)",
    )
    parser.add_argument(
        "--flight-record",
        metavar="PATH",
        default=None,
        help="keep a bounded in-memory flight recorder and write its JSONL "
        "post-mortem to PATH on exception, parallel timeout, or exit",
    )
    parser.add_argument(
        "--profile-memory",
        action="store_true",
        help="attribute allocations to pipeline stages via sampled "
        "tracemalloc (summary lands in --stats-json under 'memory')",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="solve across N worker processes (default 1 = in-process)",
    )
    parser.add_argument(
        "--parallel",
        default="cube",
        choices=("cube", "portfolio"),
        help="parallel mode with --jobs > 1: cube-and-conquer partitioning "
        "or a diversified portfolio race (default: cube)",
    )
    parser.add_argument(
        "--cube-depth",
        type=int,
        default=None,
        metavar="K",
        help="split into 2^K cubes (default: smallest K covering --jobs)",
    )
    parser.add_argument(
        "--cube-split-budget",
        type=int,
        default=None,
        metavar="N",
        help="with --parallel cube: iteration budget after which a worker "
        "abandons a hard cube and hands back two lookahead-refined halves "
        "(0 disables self-splitting; default 64 when --jobs > 1)",
    )
    parser.add_argument(
        "--parallel-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget for a parallel solve; on expiry workers are "
        "cancelled (then terminated) and the verdict is unknown",
    )
    parser.add_argument(
        "--verdict-cache",
        action="store_true",
        help="consult a cross-query verdict/lemma cache keyed on canonical "
        "problem fingerprints before running the pipeline (in-memory "
        "unless --verdict-cache-dir is given)",
    )
    parser.add_argument(
        "--verdict-cache-dir",
        metavar="DIR",
        default=None,
        help="persist verdict-cache entries as JSON files under DIR so "
        "repeated runs (and parallel workers) share verdicts; implies "
        "--verdict-cache",
    )
    parser.add_argument(
        "--clause-decay",
        type=float,
        default=None,
        metavar="F",
        help="CDCL learned-clause activity decay factor in (0, 1]; smaller "
        "forgets rarely-used learned clauses faster (kernel default: 0.999)",
    )
    parser.add_argument(
        "--reduce-interval",
        type=int,
        default=None,
        metavar="N",
        help="conflicts between CDCL clause-database reduction sweeps; "
        "0 disables reduction (kernel default: 2000)",
    )
    parser.add_argument(
        "--minimize",
        metavar="EXPR",
        default=None,
        help="optimize: find the model minimizing a linear expression, e.g. 'x + 2*y'",
    )
    parser.add_argument(
        "--maximize",
        metavar="EXPR",
        default=None,
        help="optimize: find the model maximizing a linear expression",
    )
    return parser


def _load_problem(args, path: str):
    """Parse one input file according to the format flags."""
    if args.smtlib:
        with open(path, "r", encoding="utf-8") as handle:
            return parse_smtlib(handle.read()).problem
    if args.model:
        from .io.mdl import parse_model_file
        from .simulink import model_to_problem

        model = parse_model_file(path)
        return model_to_problem(model, output=args.output_port, goal=args.goal)
    return parse_dimacs_file(path)


def _emit_stats_json(args, stats, observer) -> None:
    """Honour ``--stats-json PATH`` ('-' writes to stdout).

    On top of the flat counter/total dict the payload carries a ``stages``
    object with per-stage latency summaries (count, total, mean, p50, p95,
    max seconds) from the metrics histograms, and — with
    ``--profile-memory`` — a ``memory`` object with the per-stage
    allocation attribution.
    """
    if args.stats_json is None:
        return
    record = dict(stats.as_dict())
    record["stages"] = stats.stage_summaries()
    if observer.profiler is not None:
        record["memory"] = observer.profiler.summary()
    payload = json.dumps(record, indent=2, sort_keys=True)
    if args.stats_json == "-":
        print(payload)
    else:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _build_observer(args):
    """The one observer the CLI flags ask for, with its sinks attached.

    With no diagnostics flag it has no sinks, so the default invocation
    keeps the zero-overhead fast paths.  For parallel runs the coordinator
    owns its own flight recorder (merging per-worker rings), so the
    CLI-side recorder is only attached for in-process solves.
    """
    from .obs.events import VerboseSink
    from .obs.observer import Observer
    from .obs.profile import MemoryProfiler
    from .obs.progress import ProgressMonitor, ProgressRenderer
    from .obs.recorder import FlightRecorder
    from .obs.trace import SpanTracer

    observer = Observer(
        tracer=SpanTracer(process_name="absolver")
        if args.trace or args.trace_chrome or args.flight_record
        else None,
        profiler=MemoryProfiler() if args.profile_memory else None,
    )
    if args.verbose:
        observer.subscribe(VerboseSink())
    if args.progress:
        ProgressMonitor(
            observer,
            interval=args.progress_interval,
            stall_budget=args.stall_budget if args.stall_budget > 0 else None,
        ).start_watchdog()
        ProgressRenderer().attach(observer)
    if args.flight_record and args.jobs <= 1:
        FlightRecorder().attach(observer)
    if observer.profiler is not None:
        observer.profiler.start()
    return observer


def _export_traces(args, observer) -> None:
    """Write the recorded spans to the files the trace flags name."""
    tracer = observer.tracer
    if tracer is None:
        return
    if args.trace:
        tracer.export_jsonl(args.trace)
    if args.trace_chrome:
        tracer.export_chrome(args.trace_chrome)


def _dump_flight(args, observer, stats=None, reason="requested") -> None:
    """Write the in-process flight dump to the ``--flight-record`` path.

    Parallel runs are left alone: the coordinator writes the merged dump
    (its ring plus every worker's) itself, and overwriting it with the
    coordinator's ring alone would lose the workers' post-mortems.
    """
    recorder = observer.recorder
    if recorder is None or not args.flight_record or args.jobs > 1:
        return
    if stats is not None:
        recorder.bind_stats(stats)
    recorder.dump_jsonl(args.flight_record, reason=reason)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.smtlib and args.model:
        print("error: --smtlib and --model are mutually exclusive", file=sys.stderr)
        return 2
    if len(args.input) > 1 and not args.check_incremental:
        print(
            "error: several input files require --check-incremental",
            file=sys.stderr,
        )
        return 2
    if args.check_incremental and args.model:
        print(
            "error: --check-incremental expects constraint files, not --model",
            file=sys.stderr,
        )
        return 2

    nonlinear = [name.strip() for name in args.nonlinear.split(",") if name.strip()]
    for name in nonlinear:
        if name not in default_registry.available(DOMAIN_NONLINEAR):
            print(f"error: unknown nonlinear solver {name!r}", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 2

    verdict_cache = None
    if args.verdict_cache or args.verdict_cache_dir:
        from .core.verdict_cache import VerdictCache

        verdict_cache = VerdictCache(directory=args.verdict_cache_dir)

    observer = _build_observer(args)
    config = ABSolverConfig(
        boolean=args.boolean,
        linear=args.linear,
        nonlinear=nonlinear,
        refine_conflicts=not args.no_refine,
        use_presolve=not args.no_presolve,
        clause_decay=args.clause_decay,
        reduce_interval=args.reduce_interval,
        verdict_cache=verdict_cache,
        observer=observer,
    )

    try:
        return _dispatch(args, config)
    except BaseException:
        # The post-mortem must survive the exception it explains (the
        # parallel coordinator writes its own dump before raising).
        _dump_flight(args, observer, reason="exception")
        raise
    finally:
        if observer.progress is not None:
            observer.progress.stop_watchdog()
        if observer.profiler is not None:
            observer.profiler.stop()


def _dispatch(args, config) -> int:
    """Route to the incremental / optimizing / parallel / in-process path."""
    observer = config.observer
    if args.check_incremental:
        exit_code = _run_incremental(args, config)
        _export_traces(args, observer)
        _dump_flight(args, observer)
        return exit_code

    problem = _load_problem(args, args.input[0])

    if args.minimize is not None or args.maximize is not None:
        return _run_optimization(args, problem)

    if args.jobs > 1:
        return _run_parallel(args, config, problem)

    solver = ABSolver(config)

    started = time.perf_counter()
    if args.all_models:
        count = 0
        for model in solver.all_solutions(problem, limit=args.max_models):
            count += 1
            if not args.quiet:
                print(f"model {count}: boolean={model.boolean} theory={model.theory}")
        elapsed = time.perf_counter() - started
        print(f"{count} model(s) in {elapsed:.3f}s")
        if args.stats:
            print(f"stats: {solver.stats.as_dict()}")
        _emit_stats_json(args, solver.stats, observer)
        _export_traces(args, observer)
        _dump_flight(args, observer, solver.stats)
        return 0 if count else 20

    result = solver.solve(problem)
    elapsed = time.perf_counter() - started
    print(f"{result.status.value} ({elapsed:.3f}s)")
    if result.is_sat and not args.quiet:
        assert result.model is not None
        print(f"boolean: {result.model.boolean}")
        print(f"theory:  {result.model.theory}")
    if result.status is ABStatus.UNKNOWN and result.reason:
        print(f"reason: {result.reason}")
    if args.stats:
        print(f"stats: {result.stats.as_dict()}")
    _emit_stats_json(args, result.stats, observer)
    _export_traces(args, observer)
    _dump_flight(args, observer, result.stats)
    # Exit codes follow SAT-solver convention: 10 SAT, 20 UNSAT, 0 unknown.
    if result.is_sat:
        return 10
    if result.is_unsat:
        return 20
    return 0


def _run_parallel(args, config, problem) -> int:
    """``--jobs N``: route the solve through the parallel coordinator.

    Chrome traces are the *merged* coordinator + worker events (one lane
    per worker process); JSONL span traces stay coordinator-only.
    """
    from .parallel import ParallelSolver

    solver = ParallelSolver(
        config=config,
        jobs=args.jobs,
        mode=args.parallel,
        cube_depth=args.cube_depth,
        timeout=args.parallel_timeout,
        split_budget=args.cube_split_budget,
        flight_record=args.flight_record,
    )
    started = time.perf_counter()
    with solver:
        if args.all_models:
            models = solver.all_solutions(problem, limit=args.max_models)
            elapsed = time.perf_counter() - started
            for count, model in enumerate(models, start=1):
                if not args.quiet:
                    print(
                        f"model {count}: boolean={model.boolean} theory={model.theory}"
                    )
            print(f"{len(models)} model(s) in {elapsed:.3f}s")
            stats = solver.last_stats
            exit_code = 0 if models else 20
        else:
            result = solver.solve(problem)
            elapsed = time.perf_counter() - started
            print(f"{result.status.value} ({elapsed:.3f}s)")
            if result.is_sat and not args.quiet:
                assert result.model is not None
                print(f"boolean: {result.model.boolean}")
                print(f"theory:  {result.model.theory}")
            if result.status is ABStatus.UNKNOWN and result.reason:
                print(f"reason: {result.reason}")
            if not args.quiet:
                summary = ", ".join(
                    f"{label}={status}" for label, status in solver.last_tasks
                )
                print(f"parallel: mode={args.parallel} jobs={args.jobs} [{summary}]")
            stats = result.stats
            exit_code = 10 if result.is_sat else 20 if result.is_unsat else 0
        if args.stats and stats is not None:
            print(f"stats: {stats.as_dict()}")
        if stats is not None:
            _emit_stats_json(args, stats, config.observer)
        if args.trace:
            config.observer.tracer.export_jsonl(args.trace)
        if args.trace_chrome:
            solver.export_chrome(args.trace_chrome)
        if args.flight_record:
            solver.write_flight_dump()
    return exit_code


def _run_incremental(args, config) -> int:
    """``--check-incremental``: one session, one frame + check per file."""
    from .core.session import SolverSession

    session = SolverSession(config)
    problems = [_load_problem(args, path) for path in args.input]
    # Frame activation variables are allocated above the highest variable
    # seen so far; reserve the whole numbering range before the first check
    # so later delta files cannot collide with them.
    session.reserve_variables(max(problem.cnf.num_vars for problem in problems))
    exit_code = 0
    for index, (path, problem) in enumerate(zip(args.input, problems)):
        if index:
            session.push()
        try:
            session.assert_problem(problem)
        except ValueError as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
        started = time.perf_counter()
        result = session.check()
        elapsed = time.perf_counter() - started
        reused = session.last_stats.clauses_reused if session.last_stats else 0
        print(
            f"{path}: {result.status.value} "
            f"({elapsed:.3f}s, depth {session.depth}, {reused} lemma(s) reused)"
        )
        if result.is_sat and not args.quiet:
            assert result.model is not None
            print(f"  boolean: {result.model.boolean}")
            print(f"  theory:  {result.model.theory}")
        if result.status is ABStatus.UNKNOWN and result.reason:
            print(f"  reason: {result.reason}")
        exit_code = 10 if result.is_sat else 20 if result.is_unsat else 0
    if args.stats:
        print(f"stats: {session.stats.as_dict()}")
    _emit_stats_json(args, session.stats, config.observer)
    if config.observer.recorder is not None:
        config.observer.recorder.bind_stats(session.stats)
    return exit_code


def _run_optimization(args, problem) -> int:
    """Handle --minimize / --maximize queries via the OMT extension."""
    from .core.expr import NonlinearExpressionError, parse_expression
    from .core.optimize import ABOptimizer, OptimizationStatus

    if args.minimize is not None and args.maximize is not None:
        print("error: --minimize and --maximize are mutually exclusive", file=sys.stderr)
        return 2
    text = args.minimize if args.minimize is not None else args.maximize
    try:
        form = parse_expression(text).linear_form()
    except NonlinearExpressionError:
        print(f"error: objective {text!r} is not linear", file=sys.stderr)
        return 2
    optimizer = ABOptimizer(boolean=args.boolean)
    started = time.perf_counter()
    if args.minimize is not None:
        result = optimizer.minimize(problem, form.coeffs)
    else:
        result = optimizer.maximize(problem, form.coeffs)
    elapsed = time.perf_counter() - started
    print(f"{result.status.value} ({elapsed:.3f}s)")
    if result.status is OptimizationStatus.OPTIMAL:
        # the constant term of the objective shifts the reported optimum
        print(f"objective: {result.objective + form.constant}")
        if not args.quiet:
            print(f"theory:  {result.model.theory}")
            print(f"boolean: {result.model.boolean}")
        return 10
    if result.status is OptimizationStatus.UNSAT:
        return 20
    return 0


if __name__ == "__main__":
    sys.exit(main())
