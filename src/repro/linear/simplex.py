"""Exact two-phase simplex — the reproduction's stand-in for COIN [5].

ABsolver routes the linear constituent of an AB-problem to an LP engine and
only needs three answers back: a feasible point, INFEASIBLE, or (when an
objective is supplied, e.g. by branch-and-bound) an optimum.  This module
implements a textbook two-phase primal simplex in exact rational arithmetic
with Bland's anti-cycling rule, so the SAT/UNSAT verdicts that ABsolver
derives from it are sound — no float tolerance games.

The tableau pivots over integers: each row is its integer numerators, its
rhs numerator and one positive denominator, built from the rows'
:class:`fractions.Fraction` coefficients scaled by their LCM and kept reduced
by the gcd after each pivot.  Every value equals the one a tableau of
Fractions would hold, so Bland's rule picks the same pivots; Fractions
appear only in the points and objectives handed back.

Strict inequalities are decided with the standard infinitesimal trick: a
fresh epsilon variable is added, every ``<`` / ``>`` row is weakened by
epsilon, and epsilon is maximized (capped at 1).  The strict system is
feasible iff the optimum is positive.

A system whose non-trivial rows all mention one variable (each Sudoku
cell) needs no tableau: :meth:`SimplexSolver.check` decides it as an exact
interval intersection under the same epsilon cap, returning the status,
point and objective the tableau would.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.expr import Relation
from .lp import LinearConstraint, LinearSystem

__all__ = ["LPStatus", "LPResult", "SimplexSolver", "check_feasibility", "optimize"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Name of the synthetic epsilon variable used for strict inequalities.
EPSILON_VAR = "__eps__"


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPResult:
    """LP outcome: status, a witness point (vars -> Fraction), objective.

    On INFEASIBLE, ``core_indices`` (when available) lists indices into the
    *non-trivial* rows of the checked system that form a Farkas-certified
    infeasible subset — a cheap starting point for IIS extraction.
    """

    def __init__(
        self,
        status: LPStatus,
        point: Optional[Dict[str, Fraction]] = None,
        objective: Optional[Fraction] = None,
        core_indices: Optional[List[int]] = None,
    ):
        self.status = status
        self.point = point or {}
        self.objective = objective
        self.core_indices = core_indices

    @property
    def is_feasible(self) -> bool:
        return self.status is LPStatus.FEASIBLE

    def __repr__(self) -> str:
        return f"LPResult({self.status.value}, objective={self.objective})"


class _Tableau:
    """Simplex tableau over integers: one positive denominator per row.

    Row ``i`` reads ``sum(rows[i][j] * x_j) = rhs[i]`` divided through by
    ``den[i] > 0``, so its entry at column ``j`` is ``rows[i][j] / den[i]``
    and its right-hand side ``rhs[i] / den[i]``.  Each row is kept reduced
    (its numerators, rhs and denominator share no factor), every value is
    exact, and no :class:`~fractions.Fraction` is built while pivoting.  The
    simplex driver adds equality rows ``A x = b`` with ``b >= 0`` and an
    initial basis of slack/artificial columns, and keeps its objective row
    apart in the same form (:func:`_subtract`).
    """

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self.rows: List[List[int]] = []
        self.rhs: List[int] = []
        self.den: List[int] = []
        self.basis: List[int] = []

    def add_row(self, coeffs: Mapping[int, Fraction], rhs: Fraction, basic_col: int) -> None:
        """Append ``sum(coeffs[j] * x_j) = rhs`` scaled by its denominators' LCM.

        The scaled row is reduced already: some value's denominator carries
        each prime of the LCM to its full power.
        """
        scale = math.lcm(rhs.denominator, *(coeff.denominator for coeff in coeffs.values()))
        row = [0] * self.num_cols
        for col, coeff in coeffs.items():
            row[col] = coeff.numerator * (scale // coeff.denominator)
        self.rows.append(row)
        self.rhs.append(rhs.numerator * (scale // rhs.denominator))
        self.den.append(scale)
        self.basis.append(basic_col)

    def pivot(self, row_index: int, col: int) -> List[int]:
        """Make ``col`` basic in ``row_index`` and return that row's support.

        The pivot row keeps its numerators and takes the pivot element as
        its denominator (negating the row when the element is negative), so
        its entry at ``col`` reads 1; every other row with a nonzero entry at
        ``col`` subtracts its multiple of it at the pivot row's nonzero
        columns only.
        """
        rows, rhs, den = self.rows, self.rhs, self.den
        pivot_row = rows[row_index]
        pivot_rhs = rhs[row_index]
        pivot_den = pivot_row[col]
        if pivot_den < 0:
            pivot_row = [-value for value in pivot_row]
            pivot_rhs = -pivot_rhs
            pivot_den = -pivot_den
        pivot_row, pivot_rhs, pivot_den = _reduced(pivot_row, pivot_rhs, pivot_den)
        rows[row_index], rhs[row_index], den[row_index] = pivot_row, pivot_rhs, pivot_den
        support = [j for j, value in enumerate(pivot_row) if value]
        for i, row in enumerate(rows):
            if i != row_index and row[col]:
                rows[i], rhs[i], den[i] = _subtract(
                    row, rhs[i], den[i], col, pivot_row, pivot_rhs, pivot_den, support
                )
        self.basis[row_index] = col
        return support

    def solution(self) -> List[Fraction]:
        values = [_ZERO] * self.num_cols
        for row_index, col in enumerate(self.basis):
            values[col] = Fraction(self.rhs[row_index], self.den[row_index])
        return values


def _reduced(row: List[int], rhs: int, den: int) -> Tuple[List[int], int, int]:
    """``row``, ``rhs`` and ``den`` divided by their greatest common divisor."""
    divisor = math.gcd(den, rhs)
    if divisor != 1:
        divisor = math.gcd(divisor, *row)
        if divisor != 1:
            return [value // divisor for value in row], rhs // divisor, den // divisor
    return row, rhs, den


def _subtract(
    row: List[int],
    rhs: int,
    den: int,
    col: int,
    pivot_row: List[int],
    pivot_rhs: int,
    pivot_den: int,
    support: Sequence[int],
) -> Tuple[List[int], int, int]:
    """Eliminate ``col`` from a row by a pivot row whose entry there is 1.

    Both rows are ``(numerators, rhs, denominator)`` triples; ``support``
    lists the pivot row's nonzero columns, the only ones whose numerators
    change beyond the common rescaling.  Returns the reduced result, which
    may be ``row`` itself updated in place.
    """
    factor = row[col]
    divisor = math.gcd(factor, pivot_den)
    scale = pivot_den // divisor
    factor //= divisor
    if scale != 1:
        row = [value * scale for value in row]
        rhs *= scale
        den *= scale
    for j in support:
        row[j] -= factor * pivot_row[j]
    return _reduced(row, rhs - factor * pivot_rhs, den)


class SimplexSolver:
    """Two-phase primal simplex for :class:`LinearSystem` feasibility/optima.

    ``max_pivots`` bounds the total pivot count (a safety net; Bland's rule
    already guarantees termination).

    ``warm_start`` enables the incremental-session warm-start hook: after a
    feasible check, the optimal point (i.e. the witness the final basis
    evaluates to) is cached under the *structural* signature of the system —
    coefficients and relations, but not the right-hand sides.  A later check
    whose rows differ only in their bounds first re-validates the cached
    point with exact arithmetic and, when it still satisfies every row,
    answers without pivoting at all (``warm_hits`` counts these).  The
    fallback is always a full solve, so verdicts are unaffected.
    """

    #: Cap on cached warm-start points (structural signatures).
    WARM_CACHE_LIMIT = 512

    def __init__(self, max_pivots: int = 200_000, warm_start: bool = False):
        self.max_pivots = max_pivots
        self.pivots = 0
        self.warm_start = warm_start
        self.warm_hits = 0
        self._warm_points: Dict[object, Dict[str, Fraction]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, system: LinearSystem) -> LPResult:
        """Decide feasibility of the system (strict inequalities included).

        On infeasibility the result carries ``core_indices`` (positions in
        ``system.rows``) whenever a certificate is available: the Farkas
        support of the tableau, or a crossing pair of rows for a system over
        one variable, which is decided in closed form
        (:meth:`_solve_single_variable`).
        """
        trivial = self._check_trivial_rows(system)
        if trivial is not None:
            if trivial.status is LPStatus.INFEASIBLE:
                core = [
                    index
                    for index, row in enumerate(system.rows)
                    if row.is_trivial() and not row.trivially_true()
                ][:1]
                return LPResult(LPStatus.INFEASIBLE, core_indices=core)
            return trivial
        positions = [i for i, row in enumerate(system.rows) if not row.is_trivial()]
        rows = [system.rows[i] for i in positions]
        signature: Optional[object] = None
        if self.warm_start:
            signature = self._structural_signature(rows)
            cached = self._warm_points.get(signature)
            if cached is not None and self._point_satisfies(rows, cached):
                self.warm_hits += 1
                return LPResult(LPStatus.FEASIBLE, dict(cached), _ZERO)
        has_strict = any(row.relation in (Relation.LT, Relation.GT) for row in rows)
        variables = {var for row in rows for var in row.coeffs}
        if len(variables) == 1:
            result = self._solve_single_variable(rows, variables.pop(), has_strict)
        elif not has_strict:
            result = self._solve(rows, objective=None, maximize=False)
        else:
            # Maximize epsilon; strictly feasible iff optimum > 0 (handled
            # inside _solve via epsilon_mode).
            result = self._solve(
                rows,
                objective={EPSILON_VAR: _ONE},
                maximize=True,
                epsilon_mode=True,
            )
        if result.status is LPStatus.INFEASIBLE and result.core_indices is not None:
            result.core_indices = sorted(positions[i] for i in result.core_indices)
        if result.status is LPStatus.FEASIBLE:
            result.point.pop(EPSILON_VAR, None)
            if signature is not None:
                if len(self._warm_points) >= self.WARM_CACHE_LIMIT:
                    self._warm_points.clear()
                self._warm_points[signature] = dict(result.point)
        return result

    @staticmethod
    def _solve_single_variable(
        rows: Sequence[LinearConstraint], var: str, epsilon_mode: bool
    ) -> LPResult:
        """Closed form of :meth:`_solve` for non-trivial rows over one variable.

        Each row reads ``a*var + s*eps <= c`` as in :meth:`_normalized_le_form`
        (``s = 1`` on a strict row).  With ``p = c/a`` and ``q = s/|a|`` it
        bounds ``var`` above by ``p - q*eps`` when ``a > 0`` and below by
        ``p + q*eps`` when ``a < 0``.  An upper row ``u`` and a lower row ``l``
        admit exactly the ``eps`` with ``eps*(q_u + q_l) <= p_u - p_l``, so the
        tableau's optimum is ``eps* = min(1, (p_u - p_l)/(q_u + q_l))`` over the
        pairs, and its vertex is 0 clipped into the interval at ``eps*``
        (Bland's rule moves ``var`` from the all-slack basis to the nearest
        bound).  A refutation is one crossing pair, which is irreducible: a
        single non-trivial row over one variable is satisfiable.
        """
        uppers: List[Tuple[Fraction, Fraction, int]] = []
        lowers: List[Tuple[Fraction, Fraction, int]] = []
        for index, row in enumerate(rows):
            coeff = row.coeffs[var]
            relation = row.relation
            strict = relation in (Relation.LT, Relation.GT)
            bound = (row.bound / coeff, _ONE / abs(coeff) if strict else _ZERO, index)
            upper = relation in (Relation.LE, Relation.LT, Relation.EQ)
            lower = relation in (Relation.GE, Relation.GT, Relation.EQ)
            if coeff < 0:
                upper, lower = lower, upper
            if upper:
                uppers.append(bound)
            if lower:
                lowers.append(bound)
        eps = _ONE if epsilon_mode else _ZERO
        if uppers and lowers:
            high = min(uppers, key=lambda bound: bound[0])
            low = max(lowers, key=lambda bound: bound[0])
            if low[0] > high[0]:
                return LPResult(LPStatus.INFEASIBLE, core_indices=sorted((high[2], low[2])))
            if epsilon_mode:
                crossing: List[int] = []
                for p_u, q_u, i_u in uppers:
                    for p_l, q_l, i_l in lowers:
                        k = q_u + q_l
                        if k > 0 and p_u - p_l < eps * k:
                            eps, crossing = (p_u - p_l) / k, [i_u, i_l]
                if eps <= 0:
                    return LPResult(LPStatus.INFEASIBLE, core_indices=sorted(crossing))
        value = _ZERO
        if lowers:
            value = max(value, max(p + q * eps for p, q, _ in lowers))
        if uppers:
            value = min(value, min(p - q * eps for p, q, _ in uppers))
        return LPResult(LPStatus.FEASIBLE, {var: value}, eps)

    @staticmethod
    def _structural_signature(rows: Sequence[LinearConstraint]) -> object:
        """Canonical hashable key over normalized rows, ignoring bounds.

        Each row is normalized by the magnitude of its leading coefficient
        (smallest variable name), so rows equal up to positive scaling —
        ``2x - 2y <= 5`` and ``x - y <= 7`` — share a key.  Right-hand
        sides are deliberately excluded: a later check whose rows differ
        only in their bounds re-validates the cached point exactly before
        answering, so signature collisions cost a failed validation, never
        a wrong verdict.
        """
        canonical = set()
        for row in rows:
            items = sorted(row.coeffs.items())
            if items:
                scale = abs(items[0][1])
                if scale not in (0, 1):
                    items = [(var, coeff / scale) for var, coeff in items]
            canonical.add((tuple(items), row.relation))
        return frozenset(canonical)

    @staticmethod
    def _point_satisfies(
        rows: Sequence[LinearConstraint], point: Mapping[str, Fraction]
    ) -> bool:
        """Exact (Fraction) feasibility of a candidate point, strict rows included."""
        for row in rows:
            lhs = sum(
                (coeff * point.get(var, _ZERO) for var, coeff in row.coeffs.items()),
                _ZERO,
            )
            if row.relation is Relation.LE:
                ok = lhs <= row.bound
            elif row.relation is Relation.GE:
                ok = lhs >= row.bound
            elif row.relation is Relation.EQ:
                ok = lhs == row.bound
            elif row.relation is Relation.LT:
                ok = lhs < row.bound
            elif row.relation is Relation.GT:
                ok = lhs > row.bound
            else:  # pragma: no cover - Relation is a closed enum
                raise ValueError(f"unknown relation {row.relation}")
            if not ok:
                return False
        return True

    def optimize(
        self,
        system: LinearSystem,
        objective: Mapping[str, Fraction],
        maximize: bool = False,
    ) -> LPResult:
        """Optimize a linear objective over the system.

        Strict rows are weakened to weak ones for optimization purposes (the
        optimum over the closure bounds the strict optimum); branch-and-bound
        only ever calls this on weak systems.
        """
        trivial = self._check_trivial_rows(system)
        if trivial is not None:
            return trivial
        rows = [row for row in system.rows if not row.is_trivial()]
        return self._solve(rows, objective=dict(objective), maximize=maximize)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_trivial_rows(self, system: LinearSystem) -> Optional[LPResult]:
        for row in system.rows:
            if row.is_trivial() and not row.trivially_true():
                return LPResult(LPStatus.INFEASIBLE)
        if all(row.is_trivial() for row in system.rows):
            return LPResult(LPStatus.FEASIBLE, {}, _ZERO)
        return None

    def _normalized_le_form(
        self, rows: Sequence[LinearConstraint], epsilon_mode: bool
    ) -> Tuple[
        List[str],
        Dict[str, int],
        Dict[str, int],
        List[Tuple[Dict[int, Fraction], Fraction]],
        List[Optional[int]],
    ]:
        """Normalize ``rows`` to ``A x <= b`` over split non-negative columns.

        Returns ``(variables, col_of_pos, col_of_neg, normalized, source_of)``
        where each free variable ``v`` owns two columns (``v+``, ``v-``), the
        epsilon variable (strict-inequality mode) owns one, ``normalized`` is
        a list of ``(sparse column -> coefficient, bound)`` pairs and
        ``source_of[i]`` is the index of the originating input row (``None``
        for the synthetic epsilon cap).  Shared by the exact tableau build
        and the float64 path of
        :class:`repro.linear.numpy_simplex.NumpySimplexSolver`.
        """
        variables = sorted({v for row in rows for v in row.coeffs})
        if epsilon_mode:
            variables.append(EPSILON_VAR)

        # Column layout: for each free variable v two columns (v+, v-);
        # epsilon gets a single non-negative column; then slacks/artificials.
        col_of_pos: Dict[str, int] = {}
        col_of_neg: Dict[str, int] = {}
        next_col = 0
        for var in variables:
            col_of_pos[var] = next_col
            next_col += 1
            if var != EPSILON_VAR:
                col_of_neg[var] = next_col
                next_col += 1

        # Normalize all rows to <= form over the split columns; remember the
        # originating row of each normalized row for Farkas cores.
        normalized: List[Tuple[Dict[int, Fraction], Fraction]] = []
        source_of: List[Optional[int]] = []

        def add_le(
            coeffs: Mapping[str, Fraction],
            bound: Fraction,
            eps_coeff: Fraction,
            source: Optional[int],
        ) -> None:
            cols: Dict[int, Fraction] = {}
            for var, coeff in coeffs.items():
                cols[col_of_pos[var]] = cols.get(col_of_pos[var], _ZERO) + coeff
                cols[col_of_neg[var]] = cols.get(col_of_neg[var], _ZERO) - coeff
            if eps_coeff != 0:
                eps_col = col_of_pos[EPSILON_VAR]
                cols[eps_col] = cols.get(eps_col, _ZERO) + eps_coeff
            normalized.append(({c: v for c, v in cols.items() if v != 0}, bound))
            source_of.append(source)

        for index, row in enumerate(rows):
            if row.relation is Relation.LE:
                add_le(row.coeffs, row.bound, _ZERO, index)
            elif row.relation is Relation.GE:
                add_le({v: -c for v, c in row.coeffs.items()}, -row.bound, _ZERO, index)
            elif row.relation is Relation.EQ:
                add_le(row.coeffs, row.bound, _ZERO, index)
                add_le({v: -c for v, c in row.coeffs.items()}, -row.bound, _ZERO, index)
            elif row.relation is Relation.LT:
                # Without epsilon_mode, strict rows are weakened to <=.
                add_le(row.coeffs, row.bound, _ONE if epsilon_mode else _ZERO, index)
            elif row.relation is Relation.GT:
                add_le(
                    {v: -c for v, c in row.coeffs.items()},
                    -row.bound,
                    _ONE if epsilon_mode else _ZERO,
                    index,
                )
            else:  # pragma: no cover - Relation is a closed enum
                raise ValueError(f"unknown relation {row.relation}")
        if epsilon_mode:
            # 0 <= eps <= 1 (upper bound keeps the LP bounded).
            add_le({}, _ONE, _ONE, None)
        return variables, col_of_pos, col_of_neg, normalized, source_of

    def _solve(
        self,
        rows: Sequence[LinearConstraint],
        objective: Optional[Dict[str, Fraction]],
        maximize: bool,
        epsilon_mode: bool = False,
    ) -> LPResult:
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

        tableau = _Tableau(total_cols)
        artificial_cols: List[int] = []
        for i, (cols, bound) in enumerate(normalized):
            slack_col = slack_base + i
            if bound >= 0:
                coeffs = dict(cols)
                coeffs[slack_col] = _ONE
                tableau.add_row(coeffs, bound, slack_col)
            else:
                # Multiply by -1: -a x - s = -b, add artificial.
                coeffs = {col: -coeff for col, coeff in cols.items()}
                coeffs[slack_col] = -_ONE
                art_col = artificial_base + len(artificial_cols)
                coeffs[art_col] = _ONE
                artificial_cols.append(art_col)
                tableau.add_row(coeffs, -bound, art_col)

        def farkas_core(z: List[int]) -> List[int]:
            """Rows with a nonzero dual in the certificate: y_i = ∓z[slack_i]."""
            core: set = set()
            for i in range(num_rows):
                if z[slack_base + i] != 0 and source_of[i] is not None:
                    core.add(source_of[i])
            return sorted(core)

        # ---- Phase 1: minimize the sum of artificials -------------------
        if artificial_cols:
            cost = {col: _ONE for col in artificial_cols}
            value, z = self._run_phase(tableau, cost, minimize=True, banned=set())
            if value > 0:
                return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
            self._drive_out_artificials(tableau, set(artificial_cols))

        banned = set(artificial_cols)

        # ---- Phase 2 -----------------------------------------------------
        if objective is None:
            point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
            return LPResult(LPStatus.FEASIBLE, point, _ZERO)

        cost: Dict[int, Fraction] = {}
        for var, coeff in objective.items():
            if var in col_of_pos:
                cost[col_of_pos[var]] = Fraction(coeff)
            if var in col_of_neg:
                cost[col_of_neg[var]] = -Fraction(coeff)
        try:
            value, z = self._run_phase(tableau, cost, minimize=not maximize, banned=banned)
        except _Unbounded:
            return LPResult(LPStatus.UNBOUNDED)
        if epsilon_mode and value <= 0:
            # Max epsilon is non-positive: strictly infeasible; the phase-2
            # duals certify which strict/weak rows conflict.
            return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
        point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
        return LPResult(LPStatus.FEASIBLE, point, value)

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        tableau: _Tableau,
        cost: Mapping[int, Fraction],
        minimize: bool,
        banned: Set[int],
    ) -> Tuple[Fraction, List[int]]:
        """Run simplex on the objective ``sum(cost[j] * x_j)``.

        Returns ``(objective value, reduced-cost numerators)``; the reduced
        costs share one positive denominator, so their signs on slack
        columns encode the dual solution used for Farkas cores.  ``banned``
        columns (phase-1 artificials during phase 2) never enter the basis.
        Raises :class:`_Unbounded` on an unbounded objective.

        The reduced-cost row is kept like a tableau row, with ``-(objective)``
        in the "minimize" orientation as its rhs.  A row's rhs and entering
        coefficient share its denominator, so the ratio test compares
        ``rhs_i / a_i`` by cross-multiplying numerators.
        """
        sign = 1 if minimize else -1
        z_den = math.lcm(*(coeff.denominator for coeff in cost.values()))
        z = [0] * tableau.num_cols
        for col, coeff in cost.items():
            z[col] = sign * coeff.numerator * (z_den // coeff.denominator)
        z_rhs = 0
        rows, rhs, den, basis = tableau.rows, tableau.rhs, tableau.den, tableau.basis
        # Reduced-cost row: start from cost, eliminate basic columns.
        for row_index, col in enumerate(basis):
            if z[col]:
                row = rows[row_index]
                support = [j for j, value in enumerate(row) if value]
                z, z_rhs, z_den = _subtract(
                    z, z_rhs, z_den, col, row, rhs[row_index], den[row_index], support
                )

        while True:
            entering = -1
            for col in range(tableau.num_cols):
                if col in banned:
                    continue
                if z[col] < 0:
                    entering = col  # Bland: smallest index with negative cost
                    break
            if entering < 0:
                break
            # Ratio test (Bland tie-break on basis variable index).
            leaving = -1
            best_rhs = best_coeff = 0
            for row_index, row in enumerate(rows):
                coeff = row[entering]
                if coeff <= 0:
                    continue
                if leaving < 0:
                    leaving, best_rhs, best_coeff = row_index, rhs[row_index], coeff
                    continue
                ratio, best_ratio = rhs[row_index] * best_coeff, best_rhs * coeff
                if ratio < best_ratio or (
                    ratio == best_ratio and basis[row_index] < basis[leaving]
                ):
                    leaving, best_rhs, best_coeff = row_index, rhs[row_index], coeff
            if leaving < 0:
                raise _Unbounded()
            self.pivots += 1
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot budget exhausted")
            support = tableau.pivot(leaving, entering)
            z, z_rhs, z_den = _subtract(
                z, z_rhs, z_den, entering, rows[leaving], rhs[leaving], den[leaving], support
            )
        # z_rhs / z_den now holds -(objective) in the "sign" orientation.
        value = Fraction(z_rhs, z_den)
        return (-value if minimize else value), z

    def _drive_out_artificials(self, tableau: _Tableau, artificial_cols: Set[int]) -> None:
        """Pivot basic artificials (at value 0) out of the basis if possible."""
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
            # If no replacement exists the row is all-zero (redundant) and the
            # artificial stays basic at value 0, which is harmless.

    def _extract_point(
        self,
        tableau: _Tableau,
        variables: Sequence[str],
        col_of_pos: Mapping[str, int],
        col_of_neg: Mapping[str, int],
    ) -> Dict[str, Fraction]:
        values = tableau.solution()
        point: Dict[str, Fraction] = {}
        for var in variables:
            positive = values[col_of_pos[var]]
            negative = values[col_of_neg[var]] if var in col_of_neg else _ZERO
            point[var] = positive - negative
        return point


class _Unbounded(Exception):
    """Internal: the phase-2 objective is unbounded."""


def check_feasibility(system: LinearSystem) -> LPResult:
    """Module-level convenience wrapper around :meth:`SimplexSolver.check`."""
    return SimplexSolver().check(system)


def optimize(
    system: LinearSystem, objective: Mapping[str, Fraction], maximize: bool = False
) -> LPResult:
    """Module-level convenience wrapper around :meth:`SimplexSolver.optimize`."""
    return SimplexSolver().optimize(system, objective, maximize=maximize)
