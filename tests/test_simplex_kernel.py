"""The integer simplex kernel against the Fraction tableau it replaced.

:class:`FractionSimplex` keeps the two-phase simplex with one
:class:`~fractions.Fraction` per tableau entry (``_FractionTableau``,
``_solve``, ``_run_phase``, ``_drive_out_artificials``) and the Fraction
Gauss–Jordan loop of the float filter's basis solve.  Both kernels compute
the same values, so Bland's rule must pick the same pivots and every
answer must agree exactly: status, point, objective, Farkas core and
pivot count.
"""

import random
from fractions import Fraction
from typing import List, Optional, Set, Tuple

import pytest

from repro.core.expr import Relation
from repro.linear import (
    BranchAndBoundSolver,
    LinearConstraint,
    LinearSystem,
    LPResult,
    LPStatus,
    SimplexSolver,
)
from repro.linear.numpy_simplex import _exact_gaussian_solve
from repro.linear.simplex import _Unbounded

_ZERO = Fraction(0)
_ONE = Fraction(1)
_DENOMINATORS = (1, 2, 3, 7)


class _FractionTableau:
    """Dense simplex tableau over Fractions (the reference kernel)."""

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self.rows: List[List[Fraction]] = []
        self.rhs: List[Fraction] = []
        self.basis: List[int] = []

    def add_row(self, row: List[Fraction], rhs: Fraction, basic_col: int) -> None:
        assert rhs >= 0, "tableau rows require non-negative rhs"
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic_col)

    def pivot(self, row_index: int, col: int) -> None:
        pivot_row = self.rows[row_index]
        pivot_value = pivot_row[col]
        inv = _ONE / pivot_value
        self.rows[row_index] = [value * inv for value in pivot_row]
        self.rhs[row_index] *= inv
        pivot_row = self.rows[row_index]
        for i, row in enumerate(self.rows):
            if i == row_index:
                continue
            factor = row[col]
            if factor == 0:
                continue
            self.rows[i] = [value - factor * pivot_row[j] for j, value in enumerate(row)]
            self.rhs[i] -= factor * self.rhs[row_index]
        self.basis[row_index] = col

    def solution(self) -> List[Fraction]:
        values = [_ZERO] * self.num_cols
        for row_index, col in enumerate(self.basis):
            values[col] = self.rhs[row_index]
        return values


class FractionSimplex(SimplexSolver):
    """:class:`SimplexSolver` with the Fraction tableau as its kernel."""

    def _solve(self, rows, objective, maximize, epsilon_mode=False):
        self.pivots = 0
        variables, col_of_pos, col_of_neg, normalized, source_of = (
            self._normalized_le_form(rows, epsilon_mode)
        )
        num_structural = len(col_of_pos) + len(col_of_neg)
        num_rows = len(normalized)
        slack_base = num_structural
        artificial_base = slack_base + num_rows
        num_artificials = sum(1 for _, bound in normalized if bound < 0)
        total_cols = artificial_base + num_artificials

        tableau = _FractionTableau(total_cols)
        artificial_cols: List[int] = []
        art_index = 0
        for i, (cols, bound) in enumerate(normalized):
            row_vec = [_ZERO] * total_cols
            slack_col = slack_base + i
            if bound >= 0:
                for col, coeff in cols.items():
                    row_vec[col] = coeff
                row_vec[slack_col] = _ONE
                tableau.add_row(row_vec, bound, slack_col)
            else:
                for col, coeff in cols.items():
                    row_vec[col] = -coeff
                row_vec[slack_col] = -_ONE
                art_col = artificial_base + art_index
                art_index += 1
                row_vec[art_col] = _ONE
                artificial_cols.append(art_col)
                tableau.add_row(row_vec, -bound, art_col)

        def farkas_core(z: List[Fraction]) -> List[int]:
            core: set = set()
            for i in range(num_rows):
                if z[slack_base + i] != 0 and source_of[i] is not None:
                    core.add(source_of[i])
            return sorted(core)

        if artificial_cols:
            cost = [_ZERO] * total_cols
            for col in artificial_cols:
                cost[col] = _ONE
            value, z = self._run_phase(tableau, cost, minimize=True, banned=set())
            if value > 0:
                return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
            self._drive_out_artificials(tableau, set(artificial_cols))

        banned = set(artificial_cols)
        if objective is None:
            point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
            return LPResult(LPStatus.FEASIBLE, point, _ZERO)

        cost = [_ZERO] * total_cols
        for var, coeff in objective.items():
            if var in col_of_pos:
                cost[col_of_pos[var]] += coeff
            if var in col_of_neg:
                cost[col_of_neg[var]] -= coeff
        try:
            value, z = self._run_phase(tableau, cost, minimize=not maximize, banned=banned)
        except _Unbounded:
            return LPResult(LPStatus.UNBOUNDED)
        if epsilon_mode and value <= 0:
            return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
        point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
        return LPResult(LPStatus.FEASIBLE, point, value)

    def _run_phase(
        self, tableau, cost: List[Fraction], minimize: bool, banned: Set[int]
    ) -> Tuple[Fraction, List[Fraction]]:
        sign = _ONE if minimize else -_ONE
        z = [sign * c for c in cost]
        z_value = _ZERO
        for row_index, col in enumerate(tableau.basis):
            factor = z[col]
            if factor == 0:
                continue
            row = tableau.rows[row_index]
            z = [zj - factor * row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[row_index]

        while True:
            entering = -1
            for col in range(tableau.num_cols):
                if col in banned:
                    continue
                if z[col] < 0:
                    entering = col
                    break
            if entering < 0:
                break
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for row_index, row in enumerate(tableau.rows):
                coeff = row[entering]
                if coeff <= 0:
                    continue
                ratio = tableau.rhs[row_index] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and tableau.basis[row_index] < tableau.basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = row_index
            if leaving < 0:
                raise _Unbounded()
            self.pivots += 1
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot budget exhausted")
            factor = z[entering]
            tableau.pivot(leaving, entering)
            pivot_row = tableau.rows[leaving]
            z = [zj - factor * pivot_row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[leaving]
        objective_value = -z_value
        return (objective_value if minimize else -objective_value), z

    def _drive_out_artificials(self, tableau, artificial_cols: Set[int]) -> None:
        for row_index, col in enumerate(tableau.basis):
            if col not in artificial_cols:
                continue
            row = tableau.rows[row_index]
            replacement = -1
            for j in range(tableau.num_cols):
                if j in artificial_cols:
                    continue
                if row[j] != 0:
                    replacement = j
                    break
            if replacement >= 0:
                tableau.pivot(row_index, replacement)


def _fraction_gaussian_solve(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """The float filter's Fraction Gauss–Jordan loop (the reference)."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    v = list(rhs)
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot_row is None:
            return None
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            v[col], v[pivot_row] = v[pivot_row], v[col]
        inv = _ONE / m[col][col]
        m[col] = [value * inv for value in m[col]]
        v[col] *= inv
        for r in range(n):
            if r == col:
                continue
            factor = m[r][col]
            if factor == 0:
                continue
            m[r] = [value - factor * m[col][j] for j, value in enumerate(m[r])]
            v[r] -= factor * v[col]
    return v


def _fraction(rng: random.Random, low: int, high: int) -> Fraction:
    return Fraction(rng.randint(low, high), rng.choice(_DENOMINATORS))


def _random_system(rng: random.Random) -> Tuple[LinearSystem, List[str]]:
    """2–6 variables, 1–14 rows of all five relations; half hold at a planted point."""
    names = [f"x{i}" for i in range(rng.randint(2, 6))]
    point = {name: _fraction(rng, -4, 4) for name in names}
    planted = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(1, 14)):
        support = rng.sample(names, rng.randint(1, len(names)))
        coeffs = {name: _fraction(rng, -6, 6) for name in support}
        relation = rng.choice(list(Relation))
        if planted:
            value = sum(coeffs[name] * point[name] for name in support)
            gap = _fraction(rng, 0 if relation in (Relation.LE, Relation.GE) else 1, 4)
            bound = {
                Relation.LE: value + gap,
                Relation.LT: value + gap,
                Relation.GE: value - gap,
                Relation.GT: value - gap,
                Relation.EQ: value,
            }[relation]
        else:
            bound = _fraction(rng, -12, 12)
        rows.append(LinearConstraint(coeffs, relation, bound))
    return LinearSystem(rows), names


def _answer(solver: SimplexSolver, result: LPResult):
    return (result.status, result.point, result.objective, result.core_indices, solver.pivots)


def _assert_kernels_agree(call) -> None:
    integer, fraction = SimplexSolver(), FractionSimplex()
    assert _answer(integer, call(integer)) == _answer(fraction, call(fraction))


class TestSimplexKernel:
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_systems_match_the_fraction_tableau(self, seed):
        rng = random.Random(seed)
        statuses = set()
        for _ in range(60):
            sys_, names = _random_system(rng)
            objective = {name: _fraction(rng, -5, 5) for name in rng.sample(names, 2)}
            _assert_kernels_agree(lambda solver: solver.check(sys_))
            for maximize in (False, True):
                _assert_kernels_agree(
                    lambda solver: solver.optimize(sys_, objective, maximize=maximize)
                )
                statuses.add(SimplexSolver().optimize(sys_, objective, maximize).status)
        assert statuses == set(LPStatus)

    def test_strict_equality_and_unbounded_cases(self):
        x, y = "x", "y"
        rows = [
            LinearConstraint({x: Fraction(1), y: Fraction(-1, 3)}, Relation.LT, Fraction(2, 7)),
            LinearConstraint({x: Fraction(2, 3), y: Fraction(1)}, Relation.EQ, Fraction(-1, 2)),
            LinearConstraint({y: Fraction(3)}, Relation.GT, Fraction(-5, 2)),
        ]
        sys_ = LinearSystem(rows)
        _assert_kernels_agree(lambda solver: solver.check(sys_))
        for objective in ({x: _ONE}, {x: Fraction(-1, 2), y: Fraction(7)}, {}):
            for maximize in (False, True):
                _assert_kernels_agree(
                    lambda solver: solver.optimize(sys_, objective, maximize=maximize)
                )
        open_ray = LinearSystem([LinearConstraint({x: _ONE, y: _ONE}, Relation.GE, _ONE)])
        assert SimplexSolver().optimize(open_ray, {x: _ONE}, maximize=True).status is (
            LPStatus.UNBOUNDED
        )
        _assert_kernels_agree(lambda solver: solver.optimize(open_ray, {x: _ONE}, maximize=True))


def _random_integer_system(rng: random.Random) -> LinearSystem:
    """2–3 integer variables in a box, 1–5 rows with fractional coefficients."""
    names = [f"n{i}" for i in range(rng.randint(2, 3))]
    rows = []
    for name in names:
        rows.append(LinearConstraint({name: _ONE}, Relation.LE, Fraction(rng.randint(1, 6))))
        rows.append(LinearConstraint({name: _ONE}, Relation.GE, Fraction(-rng.randint(1, 6))))
    for _ in range(rng.randint(1, 5)):
        support = rng.sample(names, rng.randint(1, len(names)))
        coeffs = {name: _fraction(rng, -6, 6) for name in support}
        rows.append(LinearConstraint(coeffs, rng.choice(list(Relation)), _fraction(rng, -6, 6)))
    return LinearSystem(rows, {name: "int" for name in names})


class TestBranchAndBoundKernel:
    @pytest.mark.parametrize("seed", range(2))
    def test_seeded_integer_systems_match_the_fraction_tableau(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            sys_ = _random_integer_system(rng)
            integer = BranchAndBoundSolver(simplex=SimplexSolver()).check(sys_)
            fraction = BranchAndBoundSolver(simplex=FractionSimplex()).check(sys_)
            assert (integer.status, integer.point) == (fraction.status, fraction.point)


def _random_matrix(rng: random.Random, n: int) -> List[List[Fraction]]:
    return [
        [_fraction(rng, -5, 5) if rng.random() < 0.7 else _ZERO for _ in range(n)]
        for _ in range(n)
    ]


def _singular(rng: random.Random, n: int) -> List[List[Fraction]]:
    """A matrix whose last row is a combination of the others."""
    matrix = _random_matrix(rng, n)
    weights = [_fraction(rng, -3, 3) for _ in range(n - 1)]
    matrix[-1] = [
        sum((w * row[j] for w, row in zip(weights, matrix)), _ZERO) for j in range(n)
    ]
    order = list(range(n))
    rng.shuffle(order)
    return [matrix[i] for i in order]


class TestGaussJordanKernel:
    @pytest.mark.parametrize("seed", range(3))
    def test_nonsingular_systems_match(self, seed):
        rng = random.Random(seed)
        solved = 0
        for _ in range(200):
            n = rng.randint(1, 7)
            matrix = _random_matrix(rng, n)
            rhs = [_fraction(rng, -9, 9) for _ in range(n)]
            expected = _fraction_gaussian_solve(matrix, rhs)
            assert _exact_gaussian_solve(matrix, rhs) == expected
            solved += expected is not None
        assert solved > 100

    @pytest.mark.parametrize("seed", range(3))
    def test_singular_systems_give_none(self, seed):
        rng = random.Random(seed)
        for _ in range(100):
            n = rng.randint(2, 7)
            matrix = _singular(rng, n)
            rhs = [_fraction(rng, -9, 9) for _ in range(n)]
            assert _fraction_gaussian_solve(matrix, rhs) is None
            assert _exact_gaussian_solve(matrix, rhs) is None

    def test_solution_solves_the_system(self):
        matrix = [
            [Fraction(0), Fraction(2, 3), Fraction(1)],
            [Fraction(-1, 7), Fraction(0), Fraction(5)],
            [Fraction(3), Fraction(1, 2), Fraction(0)],
        ]
        rhs = [Fraction(1), Fraction(-2, 3), Fraction(7, 2)]
        solution = _exact_gaussian_solve(matrix, rhs)
        for row, value in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == value
