"""Table 3 — "Results: Sudoku puzzles" (paper, Sec. 5.3).

Ten dated puzzles, three engines:

* ABsolver with the specialised LSAT + COIN combination — per-puzzle time
  is small and *flat* across puzzles (the paper: ~0.28 s each);
* CVC-Lite-like — aborts with out-of-memory on every 9x9 instance (the
  ``–*`` entries): its eager finite-domain case split over 81 nine-valued
  integer cells exhausts the memory budget immediately;
* MathSAT-like — solves, and in the paper orders of magnitude slower than
  ABsolver (75–137 minutes vs 0.28 s): its tightly-integrated architecture
  re-solves one *monolithic* LP over all 648 integer-order constraints
  instead of exploiting the per-cell decomposition.  Here that gap is not
  reproduced (3.5–5x on the easy 9x9, see EXPERIMENTS.md): unit
  propagation settles the encoding, and the baseline's two exact LP
  checks per puzzle are cheap, so the report's ``easy > 20 * absolver``
  shape assertion fails when this file runs whole.

The default harness measures MathSAT-like on one easy 9x9 instance plus
the shrunken 4x4 bank, and skips the remaining 9x9 rows unless
REPRO_FULL_TABLE3 is set.  CVC-like rows cost microseconds (they abort
immediately), so all ten run.
"""

import os
import time

import pytest

from repro.baselines import CVCLiteLikeSolver, MathSATLikeSolver, OutOfMemoryAbort
from repro.benchgen import (
    PUZZLES,
    check_grid,
    decode_solution,
    parse_grid,
    sudoku_problem,
)
from repro.benchgen.sudoku import MINI_PUZZLES, mini_sudoku_problem
from repro.core import ABSolver, ABSolverConfig

from conftest import register_report, report_rows, skip_slow_baselines, sudoku_puzzle_ids

#: Paper-reported runtimes (puzzle id -> (absolver, cvc, mathsat)).
PAPER_TIMES = {
    "2006_05_23_hard": ("0m0.283s", "-*", "84m7.385s"),
    "2006_05_24_hard": ("0m0.283s", "-*", "99m48.447s"),
    "2006_05_25_hard": ("0m0.282s", "-*", "107m0.860s"),
    "2006_05_26_hard": ("0m0.289s", "-*", "112m30.929s"),
    "2006_05_27_hard": ("0m0.289s", "-*", "89m48.470s"),
    "2006_05_28_hard": ("0m0.282s", "-*", "117m29.500s"),
    "2006_05_29_easy": ("0m0.279s", "-*", "81m27.008s"),
    "2006_05_29_hard": ("0m0.283s", "-*", "137m31.245s"),
    "2006_05_30_easy": ("0m0.287s", "-*", "75m17.435s"),
    "2006_05_30_hard": ("0m0.283s", "-*", "94m35.672s"),
}

_PUZZLES = sudoku_puzzle_ids()
_measured = {}


def _absolver_solve(puzzle_id):
    problem = sudoku_problem(puzzle_id)
    solver = ABSolver(ABSolverConfig(boolean="lsat", linear="simplex"))
    result = solver.solve(problem)
    assert result.is_sat
    grid = decode_solution(result.model.theory)
    assert check_grid(grid, parse_grid(PUZZLES[puzzle_id]))


@pytest.mark.parametrize("puzzle_id", _PUZZLES)
def bench_table3_absolver(benchmark, puzzle_id):
    started = time.perf_counter()
    benchmark.pedantic(_absolver_solve, args=(puzzle_id,), rounds=1, iterations=1)
    _measured[("absolver", puzzle_id)] = time.perf_counter() - started


@pytest.mark.parametrize("puzzle_id", _PUZZLES)
def bench_table3_cvclite_like_oom(benchmark, puzzle_id):
    """Every 9x9 instance must abort with out-of-memory (the -* entries)."""

    def run():
        with pytest.raises(OutOfMemoryAbort):
            CVCLiteLikeSolver().solve(sudoku_problem(puzzle_id))

    started = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    _measured[("cvc", puzzle_id)] = time.perf_counter() - started


def bench_table3_mathsat_like_easy(benchmark):
    """One full MathSAT-like run on an easy 9x9 puzzle."""
    if skip_slow_baselines():
        pytest.skip("REPRO_SKIP_SLOW_BASELINES is set")
    puzzle_id = "2006_05_29_easy"

    def run():
        result = MathSATLikeSolver().solve(sudoku_problem(puzzle_id))
        assert result.is_sat

    started = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    _measured[("mathsat", puzzle_id)] = time.perf_counter() - started


@pytest.mark.skipif(
    not os.environ.get("REPRO_FULL_TABLE3"),
    reason="full 9x9 MathSAT-like sweep runs only with REPRO_FULL_TABLE3=1",
)
@pytest.mark.parametrize("puzzle_id", [p for p in _PUZZLES if p != "2006_05_29_easy"])
def bench_table3_mathsat_like_full(benchmark, puzzle_id):
    def run():
        result = MathSATLikeSolver().solve(sudoku_problem(puzzle_id))
        assert result.is_sat

    started = time.perf_counter()
    benchmark.pedantic(run, rounds=1, iterations=1)
    _measured[("mathsat", puzzle_id)] = time.perf_counter() - started


@pytest.mark.parametrize("puzzle_id", sorted(MINI_PUZZLES))
def bench_table3_mini_scale_model(benchmark, puzzle_id):
    """Shrunken 4x4 instances: the ABsolver/MathSAT ratio in seconds."""

    def run():
        problem = mini_sudoku_problem(puzzle_id)
        fast = ABSolver(ABSolverConfig(boolean="lsat")).solve(problem)
        assert fast.is_sat
        slow = MathSATLikeSolver().solve(mini_sudoku_problem(puzzle_id))
        assert slow.is_sat
        return fast, slow

    def timed():
        t0 = time.perf_counter()
        problem = mini_sudoku_problem(puzzle_id)
        fast = ABSolver(ABSolverConfig(boolean="lsat")).solve(problem)
        t1 = time.perf_counter()
        slow = MathSATLikeSolver().solve(mini_sudoku_problem(puzzle_id))
        t2 = time.perf_counter()
        assert fast.is_sat and slow.is_sat
        _measured[("mini-absolver", puzzle_id)] = t1 - t0
        _measured[("mini-mathsat", puzzle_id)] = t2 - t1

    benchmark.pedantic(timed, rounds=1, iterations=1)


def _report():
    rows = []
    for puzzle_id in _PUZZLES:
        paper = PAPER_TIMES.get(puzzle_id, ("-", "-", "-"))
        mathsat = _measured.get(("mathsat", puzzle_id))
        rows.append(
            [
                puzzle_id,
                _fmt(("absolver", puzzle_id)),
                f"OOM ({_measured.get(('cvc', puzzle_id), 0):.3f}s)"
                if ("cvc", puzzle_id) in _measured
                else "-",
                f"{mathsat:.1f}s" if mathsat is not None else "(skipped)",
                paper[0],
                paper[1],
                paper[2],
            ]
        )
    for puzzle_id in sorted(MINI_PUZZLES):
        rows.append(
            [
                f"{puzzle_id} (4x4)",
                _fmt(("mini-absolver", puzzle_id)),
                "OOM (eager split)",
                _fmt(("mini-mathsat", puzzle_id)),
                "-",
                "-",
                "-",
            ]
        )
    report_rows(
        "Table 3: Sudoku puzzles",
        ["Benchmark", "ABSOLVER", "CVC-like", "MathSAT-like", "ABSOLVER (paper)", "CVC Lite (paper)", "MathSAT (paper)"],
        rows,
    )
    # Shape assertions: ABsolver flat & fast; MathSAT-like orders slower.
    absolver_times = [v for k, v in _measured.items() if k[0] == "absolver"]
    if len(absolver_times) >= 2:
        assert max(absolver_times) < 10.0
        assert max(absolver_times) / max(min(absolver_times), 1e-9) < 20
    easy = _measured.get(("mathsat", "2006_05_29_easy"))
    if easy is not None and ("absolver", "2006_05_29_easy") in _measured:
        assert easy > 20 * _measured[("absolver", "2006_05_29_easy")]


def _fmt(key):
    value = _measured.get(key)
    return f"{value:.3f}s" if value is not None else "-"


register_report(_report)
