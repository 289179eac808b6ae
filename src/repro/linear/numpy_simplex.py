"""Float64 simplex filter with exact-rational certification.

DESIGN.md row 9 allows a float tableau behind the exact engine as long as
verdicts stay sound.  :class:`NumpySimplexSolver` implements the classic
*filter + certificate* architecture used by hybrid LP codes:

1. Run a vectorized float64 two-phase simplex (Dantzig pricing, dense numpy
   tableau) over the same ``A x <= b`` normalization the exact engine uses.
2. Certify the float outcome with exact rational arithmetic:

   * float **FEASIBLE** — re-solve the final *basis* exactly (one
     Gauss–Jordan elimination on the exact engine's integer tableau, not a
     pivot-by-pivot replay) and validate the resulting point against every
     input row, strict inequalities included;
   * float **INFEASIBLE** — collect the rows with nonzero dual multipliers
     (the float Farkas support, typically a handful of rows) and re-check
     just that subsystem with the exact engine; its exact Farkas core is
     returned as the conflict.

3. Anything the certificate step cannot confirm — a near-zero pivot below
   ``PIVOT_TOLERANCE``, a singular basis, a failed validation, a cycling
   float run — falls back to the full exact solve.  ``numpy_accepts`` and
   ``numpy_fallbacks`` count the two paths.

The float run therefore only ever *proposes* a basis or a conflict support;
every verdict that leaves this module is backed by exact arithmetic, so the
SAT/UNSAT answers ABsolver derives from it are as sound as the exact
engine's.  When numpy is not importable the class degrades to the
exact engine transparently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.expr import Relation
from .lp import LinearConstraint
from .simplex import EPSILON_VAR, LPResult, LPStatus, SimplexSolver, _Tableau

try:  # numpy is an optional accelerator, never a hard dependency
    import numpy as _np
except ImportError:  # pragma: no cover - exercised only on numpy-less boxes
    _np = None

__all__ = ["NumpySimplexSolver", "numpy_available"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def numpy_available() -> bool:
    """Whether the float64 path can run (numpy imported successfully)."""
    return _np is not None


class NumpySimplexSolver(SimplexSolver):
    """Exact simplex with a float64 fast path for feasibility checks.

    Args:
        max_pivots: exact-engine pivot budget (inherited safety net).
        warm_start: enable the canonical-keyed feasible-point cache
            (see :class:`SimplexSolver`).
        min_rows: systems with fewer rows skip the float path entirely —
            numpy array setup costs more than exact pivoting on tiny
            (difference-logic sized) components.

    Attributes:
        numpy_accepts: checks answered by the float path (exact-certified).
        numpy_fallbacks: checks where the float path ran but certification
            failed, falling back to the full exact solve.
    """

    #: Pivot elements below this magnitude are treated as degenerate: the
    #: float run aborts and the exact engine takes over.
    PIVOT_TOLERANCE = 1e-7
    #: Reduced-cost / objective tolerance of the float phases.
    VALUE_TOLERANCE = 1e-9

    def __init__(
        self,
        max_pivots: int = 200_000,
        warm_start: bool = False,
        min_rows: int = 8,
    ):
        super().__init__(max_pivots=max_pivots, warm_start=warm_start)
        self.min_rows = min_rows
        self.numpy_accepts = 0
        self.numpy_fallbacks = 0

    # ------------------------------------------------------------------
    def _solve(
        self,
        rows: Sequence[LinearConstraint],
        objective: Optional[Dict[str, Fraction]],
        maximize: bool,
        epsilon_mode: bool = False,
    ) -> LPResult:
        # The float filter handles feasibility-shaped calls only: plain
        # feasibility (objective None) and the strict-inequality epsilon
        # maximization.  Genuine optimization (branch-and-bound objectives)
        # stays on the exact engine.
        feasibility_call = objective is None or epsilon_mode
        if _np is None or not feasibility_call or len(rows) < self.min_rows:
            return super()._solve(rows, objective, maximize, epsilon_mode)
        result = self._float_filtered(rows, epsilon_mode)
        if result is not None:
            self.numpy_accepts += 1
            return result
        self.numpy_fallbacks += 1
        return super()._solve(rows, objective, maximize, epsilon_mode)

    # ------------------------------------------------------------------
    # The float64 proposal run
    # ------------------------------------------------------------------
    def _float_filtered(
        self, rows: Sequence[LinearConstraint], epsilon_mode: bool
    ) -> Optional[LPResult]:
        """Float propose + exact certify; ``None`` demands the exact path."""
        variables, col_of_pos, col_of_neg, normalized, source_of = (
            self._normalized_le_form(rows, epsilon_mode)
        )
        num_structural = len(col_of_pos) + len(col_of_neg)
        num_rows = len(normalized)
        slack_base = num_structural
        artificial_base = slack_base + num_rows
        negative_rows = [i for i, (_, bound) in enumerate(normalized) if bound < 0]
        total_cols = artificial_base + len(negative_rows)

        A = _np.zeros((num_rows, total_cols))
        b = _np.zeros(num_rows)
        basis: List[int] = []
        artificial_of_row: Dict[int, int] = {}
        art_index = 0
        for i, (cols, bound) in enumerate(normalized):
            sign = 1.0 if bound >= 0 else -1.0
            for col, coeff in cols.items():
                A[i, col] = sign * float(coeff)
            A[i, slack_base + i] = sign
            b[i] = sign * float(bound)
            if bound >= 0:
                basis.append(slack_base + i)
            else:
                art_col = artificial_base + art_index
                art_index += 1
                A[i, art_col] = 1.0
                artificial_of_row[i] = art_col
                basis.append(art_col)

        artificial_cols = set(artificial_of_row.values())
        scale = max(1.0, float(_np.max(_np.abs(b))) if num_rows else 1.0)
        tol = self.VALUE_TOLERANCE * scale

        # ---- Phase 1: minimize the artificial sum ------------------------
        if artificial_cols:
            cost = _np.zeros(total_cols)
            for col in artificial_cols:
                cost[col] = 1.0
            outcome = self._float_phase(A, b, basis, cost, banned=set())
            if outcome is None:
                return None  # degenerate / cycling: exact path decides
            value, z = outcome
            if value > tol:
                support = self._dual_support(z, slack_base, num_rows, source_of)
                return self._certify_infeasible(rows, support)
            self._float_drive_out(A, b, basis, artificial_cols)

        # ---- Phase 2 (strict mode only): maximize epsilon ----------------
        eps_value = 0.0
        if epsilon_mode:
            eps_col = col_of_pos[EPSILON_VAR]
            cost = _np.zeros(total_cols)
            cost[eps_col] = -1.0  # minimize -eps == maximize eps
            outcome = self._float_phase(A, b, basis, cost, banned=artificial_cols)
            if outcome is None:
                return None
            _, z = outcome
            for i, col in enumerate(basis):
                if col == eps_col:
                    eps_value = float(b[i])
            if eps_value <= tol:
                support = self._dual_support(z, slack_base, num_rows, source_of)
                return self._certify_infeasible(rows, support)

        return self._certify_feasible(
            rows,
            variables,
            col_of_pos,
            col_of_neg,
            normalized,
            basis,
            slack_base,
            artificial_of_row,
            epsilon_mode,
        )

    def _float_phase(
        self, A, b, basis: List[int], cost, banned: set
    ) -> Optional[Tuple[float, "object"]]:
        """One float simplex phase; returns ``(value, reduced costs)``.

        ``None`` signals a numerically untrustworthy run — a pivot below
        :data:`PIVOT_TOLERANCE`, an (impossible-but-numeric) unbounded ray,
        or the iteration cap — and sends the caller to the exact engine.
        """
        num_rows, total_cols = A.shape
        z = cost.astype(float).copy()
        z_value = 0.0
        for i, col in enumerate(basis):
            factor = z[col]
            if factor != 0.0:
                z -= factor * A[i]
                z_value -= factor * b[i]
        allowed = _np.ones(total_cols, dtype=bool)
        for col in banned:
            allowed[col] = False
        cap = min(self.max_pivots, 64 * (num_rows + total_cols))
        for _ in range(cap):
            priced = _np.where(allowed, z, _np.inf)
            entering = int(_np.argmin(priced))
            if priced[entering] >= -self.VALUE_TOLERANCE:
                return -z_value, z  # optimal (value in minimize orientation)
            column = A[:, entering]
            positive = column > self.PIVOT_TOLERANCE
            if not positive.any():
                return None  # numerically unbounded: let exact decide
            ratios = _np.full(num_rows, _np.inf)
            ratios[positive] = b[positive] / column[positive]
            leaving = int(_np.argmin(ratios))
            pivot = column[leaving]
            if pivot < self.PIVOT_TOLERANCE:
                return None  # degenerate pivot: exact fallback
            A[leaving] /= pivot
            b[leaving] /= pivot
            factors = A[:, entering].copy()
            factors[leaving] = 0.0
            A -= _np.outer(factors, A[leaving])
            b -= factors * b[leaving]
            factor = z[entering]
            z -= factor * A[leaving]
            z_value -= factor * b[leaving]
            basis[leaving] = entering
        return None  # iteration cap: exact fallback

    @staticmethod
    def _float_drive_out(A, b, basis: List[int], artificial_cols: set) -> None:
        """Pivot basic artificials (value ~0) out where a replacement exists."""
        num_rows, total_cols = A.shape
        for row_index in range(num_rows):
            if basis[row_index] not in artificial_cols:
                continue
            row = A[row_index]
            for col in range(total_cols):
                if col in artificial_cols or abs(row[col]) < 1e-9:
                    continue
                pivot = row[col]
                A[row_index] /= pivot
                b[row_index] /= pivot
                factors = A[:, col].copy()
                factors[row_index] = 0.0
                A -= _np.outer(factors, A[row_index])
                b -= factors * b[row_index]
                basis[row_index] = col
                break

    @staticmethod
    def _dual_support(
        z, slack_base: int, num_rows: int, source_of: List[Optional[int]]
    ) -> List[int]:
        """Original-row indices with nonzero dual in the float certificate."""
        support = set()
        for i in range(num_rows):
            if abs(z[slack_base + i]) > 1e-12 and source_of[i] is not None:
                support.add(source_of[i])
        return sorted(support)

    # ------------------------------------------------------------------
    # Exact certification
    # ------------------------------------------------------------------
    def _certify_infeasible(
        self, rows: Sequence[LinearConstraint], support: List[int]
    ) -> Optional[LPResult]:
        """Exact-check the float conflict support; confirm or fall back."""
        if not support:
            return None
        sub_rows = [rows[i] for i in support]
        has_strict = any(
            row.relation in (Relation.LT, Relation.GT) for row in sub_rows
        )
        if has_strict:
            exact = SimplexSolver._solve(
                self,
                sub_rows,
                objective={EPSILON_VAR: _ONE},
                maximize=True,
                epsilon_mode=True,
            )
        else:
            exact = SimplexSolver._solve(
                self, sub_rows, objective=None, maximize=False
            )
        if exact.status is not LPStatus.INFEASIBLE:
            return None  # float support was wrong: full exact solve
        core = exact.core_indices or list(range(len(sub_rows)))
        return LPResult(
            LPStatus.INFEASIBLE,
            core_indices=sorted(support[i] for i in core),
        )

    def _certify_feasible(
        self,
        rows: Sequence[LinearConstraint],
        variables: List[str],
        col_of_pos: Dict[str, int],
        col_of_neg: Dict[str, int],
        normalized: List[Tuple[Dict[int, Fraction], Fraction]],
        basis: List[int],
        slack_base: int,
        artificial_of_row: Dict[int, int],
        epsilon_mode: bool,
    ) -> Optional[LPResult]:
        """Exact basis solution + validation; confirm or fall back."""
        num_rows = len(normalized)
        # Exact equality form: row i is  sign * (cols, slack_i) [+ art_i] = sign * bound
        # with sign = -1 on negative-bound rows (matching the float build).
        def exact_entry(i: int, col: int) -> Fraction:
            cols, bound = normalized[i]
            sign = _ONE if bound >= 0 else -_ONE
            if col == slack_base + i:
                return sign
            if artificial_of_row.get(i) == col:
                return _ONE
            if col < slack_base:
                return sign * cols.get(col, _ZERO)
            return _ZERO

        matrix = [
            [exact_entry(i, basis[j]) for j in range(num_rows)]
            for i in range(num_rows)
        ]
        rhs = [
            (bound if bound >= 0 else -bound) for (_, bound) in normalized
        ]
        solution = _exact_gaussian_solve(matrix, rhs)
        if solution is None:
            return None  # singular float basis: exact fallback
        values: Dict[int, Fraction] = {}
        for j in range(num_rows):
            if solution[j] < 0:
                return None  # basis proposal infeasible: exact fallback
            values[basis[j]] = solution[j]
        for i, art_col in artificial_of_row.items():
            if values.get(art_col, _ZERO) != 0:
                return None  # a basic artificial survived: exact fallback
        point: Dict[str, Fraction] = {}
        eps_exact = values.get(col_of_pos.get(EPSILON_VAR, -1), _ZERO)
        for var in variables:
            if var == EPSILON_VAR:
                continue
            positive = values.get(col_of_pos[var], _ZERO)
            negative = values.get(col_of_neg[var], _ZERO)
            point[var] = positive - negative
        if not self._point_satisfies(rows, point):
            return None  # strict margins or rounding betrayed us: exact path
        objective = eps_exact if epsilon_mode else _ZERO
        return LPResult(LPStatus.FEASIBLE, point, objective)


def _exact_gaussian_solve(
    matrix: List[List[Fraction]], rhs: List[Fraction]
) -> Optional[List[Fraction]]:
    """Solve a square Fraction system by Gauss–Jordan elimination.

    The elimination pivots the exact simplex's integer tableau, one column
    at a time on the first row not pivoted yet.  Returns the solution
    vector, or ``None`` when the matrix is singular (the float run proposed
    a rank-deficient basis).
    """
    n = len(matrix)
    tableau = _Tableau(n)
    for row, value in zip(matrix, rhs):
        tableau.add_row({j: entry for j, entry in enumerate(row) if entry}, value, -1)
    free = list(range(n))
    for col in range(n):
        row_index = next((r for r in free if tableau.rows[r][col]), None)
        if row_index is None:
            return None
        free.remove(row_index)
        tableau.pivot(row_index, col)
    return tableau.solution()
