"""Ablation — the paper's Sec. 5.3 encoding claim, made measurable.

"There are various works that describe how to translate a Sudoku problem
to a SAT-instance, e.g., [6, 12].  However, having a solver at hand which
solves Boolean as well as linear problems, the Sudoku puzzle can be tackled
more efficiently as a mixed problem and the encoding is more natural as it
can make use of integers."

The bench solves the same puzzle two ways:

* mixed Boolean + integer-linear (order encoding, the Table 3 route),
* the classical pure-SAT encoding ([6, 12]) on our CDCL engine.

Both must produce the same (unique) grid; the report shows the sizes and
times side by side.  "Naturalness" is visible in the encoding sizes: the
mixed route carries 648 small integer constraints instead of hand-rolled
cardinality clauses over 729 variables.
"""

import time

from repro.benchgen import PUZZLES, check_grid, decode_solution, parse_grid, sudoku_problem
from repro.benchgen.sudoku import decode_sat_solution, encode_sudoku_sat
from repro.core import ABSolver, ABSolverConfig
from repro.sat import solve_cdcl

from conftest import register_report, report_rows

_PUZZLE = "2006_05_29_easy"
_measured = {}


def bench_encoding_mixed(benchmark):
    def run():
        problem = sudoku_problem(_PUZZLE)
        result = ABSolver(ABSolverConfig(boolean="lsat")).solve(problem)
        assert result.is_sat
        return decode_solution(result.model.theory), problem.stats()

    started = time.perf_counter()
    grid, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured["mixed"] = (time.perf_counter() - started, stats.num_clauses, grid)


def bench_encoding_pure_sat(benchmark):
    def run():
        problem, value_vars = encode_sudoku_sat(parse_grid(PUZZLES[_PUZZLE]))
        model = solve_cdcl(problem.cnf)
        assert model is not None
        return decode_sat_solution(model, value_vars), problem.stats()

    started = time.perf_counter()
    grid, stats = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured["pure-sat"] = (time.perf_counter() - started, stats.num_clauses, grid)


def _report():
    rows = [
        [route, f"{data[0]:.3f}s", data[1]]
        for route, data in sorted(_measured.items())
    ]
    report_rows(
        f"Ablation: Sudoku encodings on {_PUZZLE} (mixed vs pure-SAT [6,12])",
        ["encoding", "time", "#clauses"],
        rows,
    )
    # all routes must agree on the unique solution
    grids = [data[2] for data in _measured.values()]
    clues = parse_grid(PUZZLES[_PUZZLE])
    for grid in grids:
        assert check_grid(grid, clues)
    assert all(grid == grids[0] for grid in grids)


register_report(_report)
