"""Parallel solving speedup: portfolio racing and cube-and-conquer.

The bench sweeps the FISCHER process-unroll family (the paper's BMC
workload) through :class:`~repro.parallel.ParallelSolver` with persistent
worker pools, in two modes:

* **portfolio** at ``jobs`` 1 / 2 / 4 — asserts a >= 1.5x wall-clock
  speedup of jobs=4 over jobs=1.  Where the speedup comes from — and why
  it is honest on a 1-core box: the portfolio ladder is a fixed function
  of the base config (see :func:`repro.parallel.portfolio.portfolio_configs`).
  ``jobs=1`` races only entry 0, the base configuration (plain simplex
  here — the sequential baseline a user without the parallel subsystem
  would run).  ``jobs>=2`` adds the difference-logic specialist, which
  answers the QF_RDL unroll family two orders of magnitude faster;
  first-definite-verdict-wins cancels the grinding base worker almost
  immediately.  The win is *algorithmic* diversification, so it survives
  time-slicing on a single core.
* **cube** at ``jobs`` 1 / 4 on the deepest configured depth — asserts
  jobs=4 wall-clock <= jobs=1 within a 10% noise margin (best of two
  runs per level).  Cube workers are capped at the core count
  (:meth:`~repro.parallel.coordinator.ParallelSolver.worker_count`), so
  on a 1-core box jobs=4 is a *scan*: one worker drains the four cubes
  through a persistent session, instantly-refutable cubes die by Boolean
  propagation, and the first satisfiable cube ends the solve.  The
  partitioning must therefore cost nothing against the sequential solve
  — that "<=" is exactly what the assertion pins (on a multi-core box
  the same scan spreads over real cores and the margin turns into a
  speedup).  A third **split-demo** row runs ``cube_depth=1`` with
  ``split_budget=2`` so the shallow cubes blow their budget and
  self-split (``cubes_split > 0``), exercising the dynamic work-stealing
  path end to end.  A fourth **handoff** row runs ``check_session``: the
  pool's shared lemmas are imported into a live session, and its
  sequential re-check must run fewer ``linear_checks`` than the same
  query in a fresh session.

Environment knobs:

* ``REPRO_PARALLEL_DEPTHS`` (default ``5,6``) — comma-separated FISCHER
  unroll depths swept per portfolio jobs level; cube rows use the
  deepest one.
"""

import os
import time

from repro import ABSolverConfig, SolverSession
from repro.benchgen import fischer_unroll_family
from repro.parallel import ParallelSolver

from conftest import record_bench, register_report, report_rows

_JOB_LEVELS = (1, 2, 4)

#: Accepted jobs=4 vs jobs=1 cube-scan overhead: timing noise on a
#: time-sliced single core runs to ~10% between identical runs.
_CUBE_NOISE_MARGIN = 1.10


def _depths():
    raw = os.environ.get("REPRO_PARALLEL_DEPTHS", "5,6")
    return tuple(int(part) for part in raw.split(",") if part.strip())


#: mode -> jobs (or label) -> {"seconds", "verdicts", "stats"}.
_MEASURED = {}


def _portfolio_sweep(jobs: int):
    """Solve every configured depth through one persistent pool."""
    depths = _depths()
    family = fischer_unroll_family(max(depths))
    verdicts = []
    stats = None
    started = time.perf_counter()
    with ParallelSolver(config=ABSolverConfig(), jobs=jobs, mode="portfolio") as solver:
        for depth in depths:
            result = solver.solve(
                family.problem_at_depth(depth),
                assumptions=family.check_assumptions(depth),
            )
            expected = family.expected_status(depth)
            assert expected is None or result.status.value == expected, (
                f"fischer depth {depth} (portfolio, jobs={jobs}): "
                f"said {result.status.value}, expected {expected}"
            )
            verdicts.append(result.status.value)
        stats = solver.stats
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": verdicts,
        "stats": stats,
    }


def _cube_solve(jobs: int, rounds: int = 2, **solver_kwargs):
    """Solve the deepest depth in cube mode; keep the best of ``rounds``.

    Each round uses a fresh pool (fresh worker processes), so the best-of
    filter removes scheduler jitter, not warm-cache advantage.
    """
    depth = max(_depths())
    family = fischer_unroll_family(depth)
    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        with ParallelSolver(
            config=ABSolverConfig(), jobs=jobs, mode="cube", **solver_kwargs
        ) as solver:
            result = solver.solve(
                family.problem_at_depth(depth),
                assumptions=family.check_assumptions(depth),
            )
            stats = solver.stats
        elapsed = time.perf_counter() - started
        expected = family.expected_status(depth)
        assert expected is None or result.status.value == expected, (
            f"fischer depth {depth} (cube, jobs={jobs}): "
            f"said {result.status.value}, expected {expected}"
        )
        if best is None or elapsed < best["seconds"]:
            best = {
                "seconds": elapsed,
                "verdicts": [result.status.value],
                "stats": stats,
            }
    return best


def _session_handoff():
    """Parallel solve, then hand the shared lemmas to a live session.

    ``check_session`` imports the pool's definite lemmas back into the
    session, so the sequential re-check skips the conflicts the workers
    already refined: it runs fewer ``linear_checks`` than the same query
    in a fresh session.  Runs on the difference-logic config so the row
    measures the handoff, not the engine.
    """
    depth = max(_depths())
    family = fischer_unroll_family(depth)
    config = ABSolverConfig(linear="difference")
    session = SolverSession(config)
    session.assert_problem(family.problem_at_depth(depth))
    assumptions = family.check_assumptions(depth)
    started = time.perf_counter()
    with ParallelSolver(config=config, jobs=4, mode="cube") as solver:
        parallel_result = solver.check_session(session, assumptions=assumptions)
    sequential_result = session.check(assumptions)
    assert parallel_result.status.value == sequential_result.status.value
    seconds = time.perf_counter() - started
    fresh = SolverSession(config)
    fresh.assert_problem(family.problem_at_depth(depth))
    fresh_result = fresh.check(assumptions)
    assert fresh_result.status.value == sequential_result.status.value
    return {
        "seconds": seconds,
        "verdicts": [sequential_result.status.value],
        "stats": session.stats,
        "shared_lemmas": len(solver.shared_lemmas),
        "recheck_linear_checks": sequential_result.stats.linear_checks,
        "fresh_linear_checks": fresh_result.stats.linear_checks,
    }


def bench_portfolio_scaling(benchmark):
    """Portfolio race over the FISCHER sweep at jobs 1, 2, 4."""
    measured = _MEASURED.setdefault("portfolio", {})

    def run():
        for jobs in _JOB_LEVELS:
            measured[jobs] = _portfolio_sweep(jobs)

    benchmark.pedantic(run, rounds=1, iterations=1)


def bench_cube_scaling(benchmark):
    """Cube-and-conquer at jobs 1 vs 4, plus the dynamic-split demo."""
    measured = _MEASURED.setdefault("cube", {})

    def run():
        for jobs in (1, 4):
            measured[jobs] = _cube_solve(jobs)
        # Deliberately shallow cubes + tiny budget: both depth-1 cubes
        # outlive 2 pipeline iterations, return SPLIT with lookahead
        # subcubes, and the refined halves finish the solve.
        measured["split-demo"] = _cube_solve(
            4, rounds=1, cube_depth=1, split_budget=2
        )
        measured["handoff"] = _session_handoff()

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    portfolio = _MEASURED.get("portfolio", {})
    if not portfolio:
        return
    header = ["mode", "jobs", "wall s", "speedup vs jobs=1", "cubes_split", "verdicts"]
    rows = []
    for mode in ("portfolio", "cube"):
        measured = _MEASURED.get(mode, {})
        base = measured.get(1)
        for jobs in sorted(measured, key=str):
            entry = measured[jobs]
            speedup = base["seconds"] / max(entry["seconds"], 1e-9) if base else 0.0
            rows.append(
                [
                    mode,
                    jobs,
                    f"{entry['seconds']:.3f}",
                    f"{speedup:.2f}x",
                    entry["stats"].cubes_split,
                    ",".join(entry["verdicts"]),
                ]
            )
    report_rows("Parallel solving — FISCHER scaling", header, rows)

    failures = []
    speedup_4v1 = 0.0
    if 1 in portfolio and 4 in portfolio:
        speedup_4v1 = portfolio[1]["seconds"] / max(portfolio[4]["seconds"], 1e-9)
        if speedup_4v1 < 1.5:
            failures.append(
                f"portfolio jobs=4 speedup {speedup_4v1:.2f}x < 1.5x over jobs=1"
            )
    for jobs, entry in portfolio.items():
        if jobs == 1:
            continue
        if entry["verdicts"] != portfolio[1]["verdicts"]:
            failures.append(f"portfolio jobs={jobs} verdicts diverge from jobs=1")

    cube = _MEASURED.get("cube", {})
    cube_ratio = 0.0
    if 1 in cube and 4 in cube:
        cube_ratio = cube[4]["seconds"] / max(cube[1]["seconds"], 1e-9)
        if cube_ratio > _CUBE_NOISE_MARGIN:
            failures.append(
                f"cube jobs=4 took {cube_ratio:.2f}x jobs=1 "
                f"(margin {_CUBE_NOISE_MARGIN}x): partitioning is not free"
            )
    demo = cube.get("split-demo")
    if demo is not None and demo["stats"].cubes_split <= 0:
        failures.append("split-demo run never self-split a cube")
    handoff = cube.get("handoff")
    if (
        handoff is not None
        and handoff["recheck_linear_checks"] >= handoff["fresh_linear_checks"]
    ):
        failures.append(
            f"session handoff re-check ran {handoff['recheck_linear_checks']} "
            f"linear checks, not fewer than a fresh session's "
            f"{handoff['fresh_linear_checks']}"
        )

    handoff_checks = {
        f"handoff_{key}": handoff[key]
        for key in ("recheck_linear_checks", "fresh_linear_checks")
        if handoff is not None
    }
    combined = None
    total_wall = 0.0
    per_level = {}
    for mode, measured in sorted(_MEASURED.items()):
        for jobs, entry in sorted(measured.items(), key=lambda kv: str(kv[0])):
            key = f"{mode}_jobs{jobs}" if isinstance(jobs, int) else str(jobs)
            per_level[f"{key}_seconds"] = entry["seconds"]
            total_wall += entry["seconds"]
            stats = entry["stats"]
            combined = stats if combined is None else combined.merge(stats)
    record_bench(
        "parallel_scaling",
        wall_seconds=total_wall,
        stats=combined,
        extra={
            "depths": list(_depths()),
            "job_levels": list(_JOB_LEVELS),
            "portfolio_speedup_4v1": speedup_4v1,
            "cube_jobs4_over_jobs1": cube_ratio,
            **handoff_checks,
            **per_level,
        },
    )
    assert not failures, "; ".join(failures)


register_report(_report)
