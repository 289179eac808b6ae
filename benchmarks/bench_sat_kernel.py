"""CDCL kernel benchmark (the reproduction contract for the committed
``BENCH_sat_kernel.json``).

Checks the live kernel (``repro.sat.cdcl`` — heap VSIDS, blocker watches,
LBD clause-database reduction, learned-clause minimization) on the two
workload families the paper's control loop actually generates:

* **sudoku all-models** — one under-constrained grid, hundreds of models
  enumerated incrementally with blocking clauses.  This is the long-lived
  solver-session shape (thousands of protected clauses accumulate).
  Gates: the runs with reduction on and off enumerate the same number of
  models, none repeats a model and every model is valid, reduction
  fires, and with reduction on the live learned-clause count stays
  **bounded** below the total ever learned.  The record keeps the
  models, heap decisions, deleted clauses and minimized literals, so
  ``tools/bench_compare.py`` flags extra kernel work.
* **BMC unroll** — watertank and fischer Boolean skeletons solved at
  increasing depths under assumptions (the incremental BMC shape).  The
  gate is **verdict agreement** at every depth between the kernel with
  reduction, the kernel without it, and the independent
  :class:`~repro.sat.dpll.DPLLSolver`.

Until the frozen pre-overhaul kernel was deleted, this bench raced it
and gated on at least 2x its models per second.  That race is retired;
its last figure, 7.32x (``wall_ratio`` at e557c78), is the last race
entry in the committed record and stands as the historical baseline.

Environment knobs:

* ``REPRO_SAT_KERNEL_BLANKS`` (default 64) — sudoku cells blanked.
* ``REPRO_SAT_KERNEL_MODELS`` (default 400) — models enumerated per run.
* ``REPRO_SAT_KERNEL_DEPTH`` (default 10) — max BMC unroll depth.
"""

import os
import time

from repro.benchgen import (
    PUZZLES,
    fischer_unroll_family,
    parse_grid,
    watertank_unroll_family,
)
from repro.benchgen.sudoku import encode_sudoku_sat
from repro.core.stats import SolveStatistics
from repro.sat.cdcl import CDCLSolver
from repro.sat.dpll import DPLLSolver

from conftest import record_bench, register_report, report_rows

#: Reduction cadence for the enumeration run — low enough that sweeps
#: actually fire on a few hundred blocking-clause conflicts.
REDUCE_INTERVAL = 300

#: Diversification seed for the sudoku enumeration; a fixed seed keeps
#: the recorded work counters comparable from run to run.
BENCH_SEED = 5


def _blanks() -> int:
    return int(os.environ.get("REPRO_SAT_KERNEL_BLANKS", "64"))


def _model_limit() -> int:
    return int(os.environ.get("REPRO_SAT_KERNEL_MODELS", "400"))


def _max_depth() -> int:
    return int(os.environ.get("REPRO_SAT_KERNEL_DEPTH", "10"))


_MEASURED = {}


# ---------------------------------------------------------------------------
# 1. Sudoku all-models: model sets, bounded DB
# ---------------------------------------------------------------------------
def _sudoku_cnf():
    """An under-constrained sudoku: one published grid, first N clues gone."""
    grid = parse_grid(PUZZLES["2006_05_29_easy"])
    removed = 0
    for row in range(9):
        for column in range(9):
            if grid[row][column] and removed < _blanks():
                grid[row][column] = 0
                removed += 1
    return encode_sudoku_sat(grid)[0].cnf


def _enumerate(solver) -> tuple:
    """Enumerate up to the model limit with blocking clauses; time it."""
    models = []
    started = time.perf_counter()
    while len(models) < _model_limit():
        model = solver.solve()
        if model is None:
            break
        models.append(frozenset(model.items()))
        blocking = [(-var if value else var) for var, value in model.items()]
        solver.add_clause(blocking)
    return models, time.perf_counter() - started


def _valid(cnf, models) -> bool:
    lookup = [dict(model) for model in models]
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for model in lookup
        for clause in cnf.clauses
    )


def _measure_sudoku_allmodels():
    cnf = _sudoku_cnf()
    reduced = CDCLSolver(cnf, seed=BENCH_SEED, reduce_interval=REDUCE_INTERVAL)
    reduced_models, seconds = _enumerate(reduced)
    unreduced_models, _ = _enumerate(CDCLSolver(cnf, seed=BENCH_SEED, reduce_interval=0))

    # The model space dwarfs the enumeration limit, so the two runs
    # legitimately surface *different* subsets; full-set equality on
    # complete enumerations is asserted in tests/test_cdcl_kernel.py.
    # Here the integrity gate is: both runs enumerated the same *number*
    # of models, none repeated one (protected blocking clauses survived
    # every reduction sweep), and every model is genuine.
    enumeration_ok = (
        len(reduced_models) == len(unreduced_models)
        and all(len(run) == len(set(run)) for run in (reduced_models, unreduced_models))
        and _valid(cnf, reduced_models)
    )
    _MEASURED["sudoku"] = {
        "models": len(reduced_models),
        "seconds": seconds,
        "enumeration_ok": enumeration_ok,
        "counters": reduced.counters(),
        "learned_live": reduced.learned_live,
        "learned_total": reduced.learned_clauses,
    }


# ---------------------------------------------------------------------------
# 2. BMC unroll: verdict agreement with DPLL at every depth
# ---------------------------------------------------------------------------
def _measure_bmc_unroll():
    depths_checked = 0
    disagreements = []
    decisions = 0
    for name, family in (
        ("watertank", watertank_unroll_family(_max_depth())),
        ("fischer", fischer_unroll_family(min(_max_depth(), 6))),
    ):
        for depth in range(1, family.max_depth + 1):
            cnf = family.problem_at_depth(depth).cnf
            assumptions = tuple(family.check_assumptions(depth))
            reduced = CDCLSolver(cnf, seed=1, reduce_interval=50)
            unreduced = CDCLSolver(cnf, seed=1, reduce_interval=0)
            verdicts = [
                reduced.solve(assumptions=assumptions) is not None,
                unreduced.solve(assumptions=assumptions) is not None,
                DPLLSolver().solve(cnf, assumptions) is not None,
            ]
            depths_checked += 1
            decisions += reduced.decisions
            if len(set(verdicts)) != 1:
                disagreements.append((name, depth, verdicts))
    _MEASURED["bmc"] = {
        "depths": depths_checked,
        "disagreements": disagreements,
        "decisions": decisions,
    }


def bench_sat_kernel(benchmark):
    def run():
        _measure_sudoku_allmodels()
        _measure_bmc_unroll()

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    if not _MEASURED:
        return
    sudoku = _MEASURED["sudoku"]
    bmc = _MEASURED["bmc"]
    counters = sudoku["counters"]
    rows = [
        [
            "sudoku all-models (reduction on)",
            f"{sudoku['models']} models",
            f"{sudoku['seconds']:.2f} s",
            f"{sudoku['models'] / sudoku['seconds']:.0f} models/s",
        ],
        [
            "learned-clause DB (reduction on)",
            f"{sudoku['learned_total']} learned",
            f"{sudoku['learned_live']} live",
            f"{counters['clauses_reduced']} deleted",
        ],
        [
            "BMC unroll verdicts",
            f"{bmc['depths']} depths",
            "reduce-50 vs reduce-0 vs DPLL",
            "agree" if not bmc["disagreements"] else f"{bmc['disagreements']}",
        ],
    ]
    report_rows(
        "CDCL kernel (reduction on/off, DPLL reference)",
        ["measurement", "count", "detail", "result"],
        rows,
    )

    failures = []
    if not sudoku["enumeration_ok"]:
        failures.append(
            "enumeration integrity failed (repeated, invalid, or missing models)"
        )
    if counters["clauses_reduced"] <= 0:
        failures.append("clause-database reduction never fired")
    if sudoku["learned_live"] >= sudoku["learned_total"]:
        failures.append(
            "reduction did not bound the live learned-clause count "
            f"({sudoku['learned_live']} live of {sudoku['learned_total']})"
        )
    if bmc["disagreements"]:
        failures.append(f"BMC verdict disagreements: {bmc['disagreements']}")

    stats = SolveStatistics()
    stats.models_enumerated = sudoku["models"]
    stats.heap_decisions = counters["heap_decisions"]
    stats.clauses_reduced = counters["clauses_reduced"]
    stats.clauses_minimized_lits = counters["clauses_minimized_lits"]
    record_bench(
        "sat_kernel",
        wall_seconds=sudoku["seconds"],
        stats=stats,
        extra={
            "blanks": _blanks(),
            "model_limit": _model_limit(),
            "reduce_interval": REDUCE_INTERVAL,
            "models_enumerated": sudoku["models"],
            "learned_total": sudoku["learned_total"],
            "learned_live": sudoku["learned_live"],
            "clauses_reduced": counters["clauses_reduced"],
            "clauses_minimized_lits": counters["clauses_minimized_lits"],
            "bmc_depths": bmc["depths"],
            "bmc_decisions": bmc["decisions"],
        },
    )
    assert not failures, "; ".join(failures)


register_report(_report)
