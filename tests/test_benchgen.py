"""Tests for the benchmark generators (Table 1-3 workloads)."""

import pytest

from repro.benchgen import (
    MICRO_BENCHMARKS,
    NOMINAL_POINT,
    PUZZLES,
    SENSOR_RANGES,
    TARGET_CLAUSES,
    check_grid,
    decode_solution,
    div_operator_problem,
    encode_sudoku,
    esat_problem,
    fischer_problem,
    fischer_smtlib_text,
    format_grid,
    makespan_bound,
    parse_grid,
    steering_problem,
    sudoku_problem,
)
from repro.core import ABSolver, ABSolverConfig
from repro.io.smtlib import parse_smtlib


class TestSteering:
    def test_published_size(self):
        """Sec. 3: 976 CNF clauses, 24 constraints (4 linear, 20 nonlinear)."""
        problem = steering_problem()
        stats = problem.stats()
        assert stats.num_clauses == TARGET_CLAUSES == 976
        assert stats.num_linear == 4
        assert stats.num_nonlinear == 20

    def test_sensor_ranges_published(self):
        assert SENSOR_RANGES["yaw"] == (-7.0, 7.0)
        assert SENSOR_RANGES["lat"] == (-20.0, 20.0)
        assert SENSOR_RANGES["w1"] == (-400.0, 400.0)
        assert SENSOR_RANGES["delta"] == (-1.0, 1.0)

    def test_nominal_point_satisfies_all_constraints(self):
        problem = steering_problem()
        for definition in problem.definitions.values():
            assert definition.constraint.evaluate(NOMINAL_POINT), definition

    def test_solvable(self):
        problem = steering_problem()
        result = ABSolver().solve(problem)
        assert result.is_sat
        assert problem.check_model(result.model.boolean, result.model.theory)

    def test_bounds_declared(self):
        problem = steering_problem()
        for sensor in SENSOR_RANGES:
            assert sensor in problem.bounds


class TestFischer:
    def test_text_is_valid_smtlib(self):
        benchmark = parse_smtlib(fischer_smtlib_text(3))
        assert benchmark.name == "FISCHER3-1-fair"
        assert benchmark.status == "sat"

    def test_makespan_bound(self):
        assert makespan_bound(1) == 2
        assert makespan_bound(4) == 6
        assert makespan_bound(11) == 16

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            fischer_smtlib_text(0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_instances_sat_with_valid_schedule(self, n):
        problem = fischer_problem(n)
        result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
        assert result.is_sat
        theory = result.model.theory
        bound = makespan_bound(n)
        # verify the schedule: durations, mutual exclusion, makespan
        for i in range(1, n + 1):
            start, end = theory[f"t_{i}"], theory[f"c_{i}"]
            assert start >= -1e-9
            assert end <= bound + 1e-9
            assert end - start >= 1 - 1e-9
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                si, ei = theory[f"t_{i}"], theory[f"c_{i}"]
                sj, ej = theory[f"t_{j}"], theory[f"c_{j}"]
                assert ei <= sj + 1e-9 or ej <= si + 1e-9, "critical sections overlap"

    def test_fairness_at_least_one_slow(self):
        problem = fischer_problem(3)
        result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
        theory = result.model.theory
        durations = [theory[f"c_{i}"] - theory[f"t_{i}"] for i in range(1, 4)]
        assert any(d >= 2 - 1e-6 for d in durations)

    def test_size_grows_with_n(self):
        small = fischer_problem(2).stats()
        large = fischer_problem(4).stats()
        assert large.num_clauses > small.num_clauses
        assert large.num_linear > small.num_linear

    def test_simplex_and_difference_agree(self):
        problem = fischer_problem(2)
        r1 = ABSolver(ABSolverConfig(linear="simplex")).solve(problem)
        r2 = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
        assert r1.status == r2.status


class TestSudokuEncoding:
    def test_grid_parsing(self):
        grid = parse_grid(PUZZLES["2006_05_29_easy"])
        assert len(grid) == 9
        assert grid[0][2] == 3

    def test_grid_parsing_rejects_bad_length(self):
        with pytest.raises(ValueError):
            parse_grid("123")

    def test_format_grid_roundtrip_visual(self):
        grid = parse_grid(PUZZLES["2006_05_29_easy"])
        text = format_grid(grid)
        assert text.count("|") > 0
        assert "3" in text

    def test_problem_shape(self):
        problem = sudoku_problem("2006_05_29_easy")
        stats = problem.stats()
        assert stats.num_linear == 648  # 81 cells x 8 order constraints
        assert stats.num_nonlinear == 0
        assert stats.num_clauses > 10_000

    def test_unknown_puzzle_rejected(self):
        with pytest.raises(KeyError):
            sudoku_problem("2025_01_01_impossible")

    def test_check_grid_rejects_bad(self):
        grid = [[1] * 9 for _ in range(9)]
        assert not check_grid(grid)

    def test_check_grid_accepts_valid(self):
        base = [
            [5, 3, 4, 6, 7, 8, 9, 1, 2],
            [6, 7, 2, 1, 9, 5, 3, 4, 8],
            [1, 9, 8, 3, 4, 2, 5, 6, 7],
            [8, 5, 9, 7, 6, 1, 4, 2, 3],
            [4, 2, 6, 8, 5, 3, 7, 9, 1],
            [7, 1, 3, 9, 2, 4, 8, 5, 6],
            [9, 6, 1, 5, 3, 7, 2, 8, 4],
            [2, 8, 7, 4, 1, 9, 6, 3, 5],
            [3, 4, 5, 2, 8, 6, 1, 7, 9],
        ]
        assert check_grid(base)

    def test_solve_one_puzzle_end_to_end(self):
        puzzle_id = "2006_05_29_easy"
        problem = sudoku_problem(puzzle_id)
        result = ABSolver(ABSolverConfig(boolean="lsat")).solve(problem)
        assert result.is_sat
        grid = decode_solution(result.model.theory)
        assert check_grid(grid, parse_grid(PUZZLES[puzzle_id]))

    def test_encode_empty_grid_is_sat(self):
        encoding = encode_sudoku([[0] * 9 for _ in range(9)])
        result = ABSolver().solve(encoding.problem)
        assert result.is_sat
        assert check_grid(decode_solution(result.model.theory))

    def test_contradictory_clues_unsat(self):
        grid = [[0] * 9 for _ in range(9)]
        grid[0][0] = 5
        grid[0][1] = 5  # same row, same value
        encoding = encode_sudoku(grid)
        assert ABSolver().solve(encoding.problem).is_unsat

    def test_all_bank_puzzles_have_81_cells(self):
        for puzzle_id, text in PUZZLES.items():
            grid = parse_grid(text)
            clues = sum(1 for r in range(9) for c in range(9) if grid[r][c])
            assert 15 <= clues <= 40, puzzle_id


class TestSudokuSatEncoding:
    def test_pure_sat_solves(self):
        from repro.benchgen.sudoku import decode_sat_solution, encode_sudoku_sat
        from repro.sat import solve_cdcl

        puzzle_id = "2006_05_30_easy"
        clues = parse_grid(PUZZLES[puzzle_id])
        problem, value_vars = encode_sudoku_sat(clues)
        assert not problem.definitions  # no arithmetic at all
        model = solve_cdcl(problem.cnf)
        assert model is not None
        grid = decode_sat_solution(model, value_vars)
        assert check_grid(grid, clues)

    def test_sat_and_mixed_encodings_agree(self):
        from repro.benchgen.sudoku import decode_sat_solution, encode_sudoku_sat
        from repro.sat import solve_cdcl

        puzzle_id = "2006_05_29_easy"
        clues = parse_grid(PUZZLES[puzzle_id])
        sat_problem, value_vars = encode_sudoku_sat(clues)
        sat_grid = decode_sat_solution(solve_cdcl(sat_problem.cnf), value_vars)
        mixed = ABSolver(ABSolverConfig(boolean="lsat")).solve(sudoku_problem(puzzle_id))
        mixed_grid = decode_solution(mixed.model.theory)
        # proper puzzles have a unique solution, so the grids must coincide
        assert sat_grid == mixed_grid

    def test_mini_puzzles_solve(self):
        from repro.benchgen.sudoku import MINI_PUZZLES, mini_sudoku_problem

        for puzzle_id in MINI_PUZZLES:
            result = ABSolver().solve(mini_sudoku_problem(puzzle_id))
            assert result.is_sat, puzzle_id
            grid = decode_solution(result.model.theory, side=4)
            for row in grid:
                assert sorted(row) == [1, 2, 3, 4], (puzzle_id, grid)


class TestFischerUnsat:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tight_deadline_unsat(self, n):
        from repro.benchgen import fischer_unsat_problem

        problem = fischer_unsat_problem(n)
        result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
        assert result.is_unsat

    def test_status_attribute_flips(self):
        from repro.benchgen.fischer import fischer_smtlib_text

        assert ":status sat" in fischer_smtlib_text(3)
        assert ":status unsat" in fischer_smtlib_text(3, bound=3)

    def test_baselines_agree_on_unsat(self):
        from repro.baselines import MathSATLikeSolver
        from repro.benchgen import fischer_unsat_problem

        problem = fischer_unsat_problem(2)
        assert MathSATLikeSolver().solve(problem).is_unsat


class TestNonlinearMicro:
    def test_esat_shape(self):
        stats = esat_problem().stats()
        assert stats.num_clauses == 11
        assert stats.num_linear == 9
        assert stats.num_nonlinear == 2

    def test_div_shape(self):
        stats = div_operator_problem().stats()
        assert stats.num_linear == 4
        assert stats.num_nonlinear == 1

    def test_expected_verdicts(self):
        for name, (factory, expected) in MICRO_BENCHMARKS.items():
            result = ABSolver().solve(factory())
            assert result.status.value == expected, name

    def test_esat_model_valid(self):
        problem = esat_problem()
        result = ABSolver().solve(problem)
        assert result.is_sat
        assert problem.check_model(result.model.boolean, result.model.theory)

    def test_div_model_has_ratio_two(self):
        result = ABSolver().solve(div_operator_problem())
        theory = result.model.theory
        assert theory["x"] / theory["y"] == pytest.approx(2.0, abs=1e-4)
