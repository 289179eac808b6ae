"""Sudoku as a mixed Boolean–integer AB-problem (paper, Sec. 5.3).

"Having a solver at hand which solves Boolean as well as linear problems,
the Sudoku puzzle can be tackled more efficiently as a mixed problem and
the encoding is more natural as it can make use of integers."

Encoding.  Each cell (r, c) is an integer theory variable ``x_r_c`` in
[1, 9].  The Boolean side uses the *order encoding*: defined variables
``o_{r,c,k} <-> (x_r_c <= k)`` for k = 1..8, with monotonicity clauses
``o_k -> o_{k+1}``.  Derived value literals ``v_{r,c,k} <-> (x = k)`` are
plain Tseitin products of adjacent order variables (no arithmetic equality,
hence no negated-equation case splits), and the Sudoku rules — at most one
occurrence of each value per row/column/box — are pure clauses over the
value literals.  Clue cells are fixed with unit clauses.

The theory component decomposes into one tiny system per cell, which is why
the specialised LSAT+COIN combination is flat and fast across puzzles: the
Boolean engine does the real work, and the integer-linear engine certifies
(and supplies) the numeric cell values.

The puzzle bank mirrors the paper's Table 3 row ids (dated puzzles from
sudoku.zeit.de, 2006-05-23 .. 2006-05-30); the 2006 archive is not
reachable offline, so the bank carries well-known published puzzles of the
corresponding difficulty labels.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.expr import Const, Constraint, Relation, Var
from ..core.problem import ABProblem

__all__ = [
    "PUZZLES",
    "parse_grid",
    "format_grid",
    "encode_sudoku",
    "decode_solution",
    "check_grid",
    "sudoku_problem",
]

#: The Table 3 puzzle bank: row id -> 81-character grid ('.' = blank).
#: Difficulty labels follow the paper's ids (easy/hard).
PUZZLES: Dict[str, str] = {
    # "hard" puzzles (sparse clue sets, require search beyond naked singles)
    "2006_05_23_hard": (
        "4.....8.5.3..........7......2.....6.....8.4......1.......6.3.7.5..2.....1.4......"
    )[:81],
    "2006_05_24_hard": (
        "52...6.........7.13...........4..8..6......5...........418.........3..2...87....."
    )[:81],
    "2006_05_25_hard": (
        "6.....8.3.4.7.................5.4.7.3..2.....1.6.......2.....5.....8.6......1...."
    )[:81],
    "2006_05_26_hard": (
        "48.3............71.2.......7.5....6....2..8.............1.76...3.....4......5...."
    )[:81],
    "2006_05_27_hard": (
        "....14....3....2...7..........9...3.6.1.............8.2.....1.4....5.6.....7.8..."
    )[:81],
    "2006_05_28_hard": (
        "......52..8.4......3...9...5.1...6..2..7........3.....6...1..........7.4.......3."
    )[:81],
    "2006_05_29_easy": (
        "..3.2.6..9..3.5..1..18.64....81.29..7.......8..67.82....26.95..8..2.3..9..5.1.3.."
    )[:81],
    "2006_05_29_hard": (
        "6..3.2....5.....1..........7.26............543.........8.15........4.2........7.."
    )[:81],
    "2006_05_30_easy": (
        "2...8.3...6..7..84.3.5..2.9...1.54.8.........4.27.6...3.1..7.4.72..4..6...4.1...3"
    )[:81],
    "2006_05_30_hard": (
        ".524.........7.1..............8.2...3.....6...9.5.....1.6.3...........897........"
    )[:81],
}


def parse_grid(text: str) -> List[List[int]]:
    """Parse an 81-character puzzle string into a 9x9 grid (0 = blank)."""
    cells = [c for c in text if c in "0123456789."]
    if len(cells) != 81:
        raise ValueError(f"puzzle must contain 81 cells, got {len(cells)}")
    grid: List[List[int]] = []
    for r in range(9):
        row = []
        for c in range(9):
            ch = cells[9 * r + c]
            row.append(0 if ch in ".0" else int(ch))
        grid.append(row)
    return grid


def format_grid(grid: Sequence[Sequence[int]]) -> str:
    """Render a grid with box separators for terminal output."""
    lines: List[str] = []
    for r in range(9):
        if r in (3, 6):
            lines.append("------+-------+------")
        cells = []
        for c in range(9):
            if c in (3, 6):
                cells.append("|")
            value = grid[r][c]
            cells.append(str(value) if value else ".")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def _units(side: int = 9) -> List[List[Tuple[int, int]]]:
    """The Sudoku units (rows, columns, boxes) as cell lists.

    ``side`` must be a perfect square (4 for the shrunken variant used to
    give slow baselines a finishable workload, 9 for the real game).
    """
    box = int(round(side**0.5))
    if box * box != side:
        raise ValueError(f"side must be a perfect square, got {side}")
    units: List[List[Tuple[int, int]]] = []
    for r in range(side):
        units.append([(r, c) for c in range(side)])
    for c in range(side):
        units.append([(r, c) for r in range(side)])
    for br in range(box):
        for bc in range(box):
            units.append(
                [(box * br + dr, box * bc + dc) for dr in range(box) for dc in range(box)]
            )
    return units


class SudokuEncoding:
    """Book-keeping produced by :func:`encode_sudoku`."""

    def __init__(
        self,
        problem: ABProblem,
        order_vars: Dict[Tuple[int, int, int], int],
        value_vars: Dict[Tuple[int, int, int], int],
    ):
        self.problem = problem
        self.order_vars = order_vars  # (r, c, k) -> bool var of (x <= k), k=1..8
        self.value_vars = value_vars  # (r, c, k) -> bool var of (x == k), k=1..9


def encode_sudoku(
    grid: Sequence[Sequence[int]], name: str = "sudoku", side: int = 9
) -> SudokuEncoding:
    """Encode a (possibly partially filled) grid as an AB-problem.

    ``side`` selects the variant: 9 for standard Sudoku, 4 for the shrunken
    2x2-box game (used to hand slow baselines a finishable instance).
    """
    if len(grid) != side or any(len(row) != side for row in grid):
        raise ValueError(f"grid must be {side}x{side}")
    problem = ABProblem(name=name)
    order_vars: Dict[Tuple[int, int, int], int] = {}
    value_vars: Dict[Tuple[int, int, int], int] = {}

    def new_var() -> int:
        problem.cnf.num_vars += 1
        return problem.cnf.num_vars

    # Order variables with their arithmetic definitions.
    for r in range(side):
        for c in range(side):
            cell = Var(f"x_{r}_{c}")
            for k in range(1, side):
                var = new_var()
                order_vars[(r, c, k)] = var
                problem.define(var, "int", Constraint(cell, Relation.LE, Const(k)))
            problem.set_bounds(f"x_{r}_{c}", 1, side)

    # Monotonicity: (x <= k) -> (x <= k+1).
    for r in range(side):
        for c in range(side):
            for k in range(1, side - 1):
                problem.add_clause([-order_vars[(r, c, k)], order_vars[(r, c, k + 1)]])

    # Value literals v_k <-> (x = k), from the order chain.
    for r in range(side):
        for c in range(side):
            for k in range(1, side + 1):
                var = new_var()
                value_vars[(r, c, k)] = var
                if k == 1:
                    # v_1 <-> o_1
                    o1 = order_vars[(r, c, 1)]
                    problem.add_clause([-var, o1])
                    problem.add_clause([var, -o1])
                elif k == side:
                    # v_side <-> not o_{side-1}
                    last = order_vars[(r, c, side - 1)]
                    problem.add_clause([-var, -last])
                    problem.add_clause([var, last])
                else:
                    # v_k <-> o_k and not o_{k-1}
                    ok = order_vars[(r, c, k)]
                    oprev = order_vars[(r, c, k - 1)]
                    problem.add_clause([-var, ok])
                    problem.add_clause([-var, -oprev])
                    problem.add_clause([var, -ok, oprev])

    # Sudoku rules: each value at most once per unit.  ("At least once" is
    # implied per-cell by the order chain; per-unit it then follows by
    # counting, but the explicit at-least-one clause helps propagation.)
    for unit in _units(side):
        for k in range(1, side + 1):
            cells = [value_vars[(r, c, k)] for (r, c) in unit]
            problem.add_clause(cells)  # value k appears somewhere in the unit
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    problem.add_clause([-cells[i], -cells[j]])

    # Clues.
    for r in range(side):
        for c in range(side):
            value = grid[r][c]
            if value:
                problem.add_clause([value_vars[(r, c, value)]])
    return SudokuEncoding(problem, order_vars, value_vars)


#: Shrunken 4x4 instances: workloads on which the all-in-one baselines can
#: actually terminate, preserving Table 3's relative shape at reduced scale.
MINI_PUZZLES: Dict[str, str] = {
    "mini_1": "1..." "..2." ".3.." "...4",
    "mini_2": ".2.." "3..." "...1" "..4.",
    "mini_3": "..3." "4..." "...2" ".1..",
}


def mini_sudoku_problem(puzzle_id: str) -> ABProblem:
    """Encode a 4x4 bank puzzle."""
    text = MINI_PUZZLES[puzzle_id]
    grid = [[0 if ch == "." else int(ch) for ch in text[4 * r : 4 * r + 4]] for r in range(4)]
    return encode_sudoku(grid, name=puzzle_id, side=4).problem


def sudoku_problem(puzzle_id: str) -> ABProblem:
    """Encode a bank puzzle by its Table 3 row id."""
    if puzzle_id not in PUZZLES:
        raise KeyError(f"unknown puzzle {puzzle_id!r}; known: {sorted(PUZZLES)}")
    return encode_sudoku(parse_grid(PUZZLES[puzzle_id]), name=puzzle_id).problem


def encode_sudoku_sat(
    grid: Sequence[Sequence[int]], name: str = "sudoku-sat", side: int = 9
) -> Tuple[ABProblem, Dict[Tuple[int, int, int], int]]:
    """The classical pure-SAT encoding ([6, 12] in the paper).

    One Boolean variable per (row, column, value); clauses for
    at-least-one / at-most-one per cell and at-most-one per unit and value,
    plus per-unit at-least-one support clauses.  No arithmetic definitions
    at all — this is the encoding the paper contrasts its "more natural"
    mixed encoding against (Sec. 5.3).

    Returns the problem and the (r, c, k) -> variable map for decoding.
    """
    if len(grid) != side or any(len(row) != side for row in grid):
        raise ValueError(f"grid must be {side}x{side}")
    problem = ABProblem(name=name)
    value_vars: Dict[Tuple[int, int, int], int] = {}
    for r in range(side):
        for c in range(side):
            for k in range(1, side + 1):
                problem.cnf.num_vars += 1
                value_vars[(r, c, k)] = problem.cnf.num_vars
    for r in range(side):
        for c in range(side):
            cell = [value_vars[(r, c, k)] for k in range(1, side + 1)]
            problem.add_clause(cell)  # at least one value
            for i in range(len(cell)):
                for j in range(i + 1, len(cell)):
                    problem.add_clause([-cell[i], -cell[j]])  # at most one
    for unit in _units(side):
        for k in range(1, side + 1):
            cells = [value_vars[(r, c, k)] for (r, c) in unit]
            problem.add_clause(cells)
            for i in range(len(cells)):
                for j in range(i + 1, len(cells)):
                    problem.add_clause([-cells[i], -cells[j]])
    for r in range(side):
        for c in range(side):
            if grid[r][c]:
                problem.add_clause([value_vars[(r, c, grid[r][c])]])
    return problem, value_vars


def decode_sat_solution(
    boolean_model: Mapping[int, bool],
    value_vars: Mapping[Tuple[int, int, int], int],
    side: int = 9,
) -> List[List[int]]:
    """Recover the grid from a pure-SAT model."""
    grid = [[0] * side for _ in range(side)]
    for (r, c, k), var in value_vars.items():
        if boolean_model.get(var, False):
            if grid[r][c]:
                raise ValueError(f"cell ({r},{c}) has two values")
            grid[r][c] = k
    return grid


def decode_solution(theory_model: Mapping[str, float], side: int = 9) -> List[List[int]]:
    """Recover the solved grid from a theory model."""
    grid = [[0] * side for _ in range(side)]
    for r in range(side):
        for c in range(side):
            value = theory_model.get(f"x_{r}_{c}")
            if value is None:
                raise ValueError(f"theory model is missing cell x_{r}_{c}")
            grid[r][c] = int(round(value))
    return grid


def check_grid(grid: Sequence[Sequence[int]], clues: Optional[Sequence[Sequence[int]]] = None) -> bool:
    """Validate a completed grid (and clue consistency when given)."""
    for row in grid:
        if len(row) != 9 or any(not 1 <= v <= 9 for v in row):
            return False
    for unit in _units():
        values = [grid[r][c] for (r, c) in unit]
        if sorted(values) != list(range(1, 10)):
            return False
    if clues is not None:
        for r in range(9):
            for c in range(9):
                if clues[r][c] and clues[r][c] != grid[r][c]:
                    return False
    return True
