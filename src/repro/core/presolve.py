"""Formula-level presolve: stage 0 of the solve pipeline.

Presolve is a formula-level deduction, not an LP-call reduction: the
CDCL, interval, and cube layers all consume what it derives, while the
linear engine decides single-variable bound systems in closed form
(:meth:`repro.linear.simplex.SimplexSolver.check`).
:class:`PresolveStage` runs the deduction **once per query** (and
incrementally per :class:`~repro.core.session.SolverSession` frame, via
cache invalidation hooks) and publishes the result as a
:class:`BoundStore` that every downstream layer consumes:

* the theory translation appends the store's tightened bound rows to each
  candidate system instead of the raw declared box;
* the nonlinear search and the interval refuter start from the tightened
  (outward-rounded) float box;
* deduced unit facts are emitted to the CDCL layer as definite lemmas, so
  the Boolean search space shrinks before the first candidate;
* cube-and-conquer refines each cube's box with the same propagator
  (:func:`repro.parallel.cubes.refine_cube_bounds`).

Everything the store deduces is *implied* by the asserted formula: the
declared bounds, plus the constraints of definition literals that Boolean
unit propagation over the (guard-free) CNF forces in every model.  Bound
propagation runs over those forced rows with exact :class:`~fractions.
Fraction` arithmetic (:class:`_Bounds` and the row-image helpers below),
the HC4 contractor narrows over the forced nonlinear constraints, and unit
deduction phases un-forced definitions whose constraint is redundant or
impossible over the tightened box.  Because every fact is implied, the
verdict — and the set of models — of the query is unchanged; presolve only
prunes work.

Nonlinear deductions (the contractor and interval-based phasing) are gated
on ``config.use_interval_refuter`` so that disabling interval reasoning
disables *all* of it, and presolve is skipped entirely when
``record_certificate`` is set — a certificate must be re-checkable without
trusting the presolver.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..linear.lp import LinearConstraint
from ..obs.events import BoundTightened, PresolveFixedVar
from ..sat.dpll import unit_propagate
from .expr import Constraint, Relation
from .problem import ABProblem
from .tristate import FF, TT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .pipeline import SolvePipeline

__all__ = ["BoundStore", "PresolveStage", "propagate_rows"]

#: Denominator cap when converting declared float bounds to exact
#: fractions — must match the translation stage's bound-row conversion.
_DENOMINATOR_CAP = 10**9

#: Outer deduce-then-propagate rounds (each deduced unit adds its
#: constraint to the forced set, which can tighten further).
_DEDUCTION_ROUNDS = 4

#: Fixpoint rounds for one propagation pass over the forced rows.
_PROPAGATION_ROUNDS = 20


def _to_fraction(value: float) -> Fraction:
    return Fraction(value).limit_denominator(_DENOMINATOR_CAP)


class _Bounds:
    """Mutable (lower, strict_lower, upper, strict_upper) per variable."""

    __slots__ = ("lower", "lower_strict", "upper", "upper_strict")

    def __init__(self):
        self.lower: Optional[Fraction] = None
        self.lower_strict = False
        self.upper: Optional[Fraction] = None
        self.upper_strict = False

    def tighten_lower(self, value: Fraction, strict: bool) -> None:
        if self.lower is None or value > self.lower or (
            value == self.lower and strict and not self.lower_strict
        ):
            self.lower = value
            self.lower_strict = strict

    def tighten_upper(self, value: Fraction, strict: bool) -> None:
        if self.upper is None or value < self.upper or (
            value == self.upper and strict and not self.upper_strict
        ):
            self.upper = value
            self.upper_strict = strict

    @property
    def infeasible(self) -> bool:
        if self.lower is None or self.upper is None:
            return False
        if self.lower > self.upper:
            return True
        if self.lower == self.upper and (self.lower_strict or self.upper_strict):
            return True
        return False

    @property
    def fixed_value(self) -> Optional[Fraction]:
        if (
            self.lower is not None
            and self.lower == self.upper
            and not self.lower_strict
            and not self.upper_strict
        ):
            return self.lower
        return None


def _row_bounds_image(
    row: LinearConstraint, bounds: Dict[str, _Bounds]
) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Interval image of the row's lhs over current bounds (None = inf)."""
    low: Optional[Fraction] = Fraction(0)
    high: Optional[Fraction] = Fraction(0)
    for var, coeff in row.coeffs.items():
        entry = bounds.get(var)
        var_low = entry.lower if entry else None
        var_high = entry.upper if entry else None
        if coeff > 0:
            contribution_low, contribution_high = var_low, var_high
        else:
            contribution_low, contribution_high = var_high, var_low
        if low is not None:
            low = None if contribution_low is None else low + coeff * contribution_low
        if high is not None:
            high = None if contribution_high is None else high + coeff * contribution_high
    return low, high


def _row_redundant(
    row: LinearConstraint, bounds: Dict[str, _Bounds]
) -> bool:
    low, high = _row_bounds_image(row, bounds)
    relation, bound = row.relation, row.bound
    if relation is Relation.LE:
        return high is not None and high <= bound
    if relation is Relation.LT:
        return high is not None and high < bound
    if relation is Relation.GE:
        return low is not None and low >= bound
    if relation is Relation.GT:
        return low is not None and low > bound
    return False  # equalities are never dropped as redundant here


def _row_impossible(row: LinearConstraint, bounds: Dict[str, _Bounds]) -> bool:
    low, high = _row_bounds_image(row, bounds)
    relation, bound = row.relation, row.bound
    if relation in (Relation.LE, Relation.LT):
        if low is not None and (low > bound or (low == bound and relation is Relation.LT)):
            return True
    if relation in (Relation.GE, Relation.GT):
        if high is not None and (high < bound or (high == bound and relation is Relation.GT)):
            return True
    if relation is Relation.EQ:
        if low is not None and low > bound:
            return True
        if high is not None and high < bound:
            return True
    return False


def _outward_float_bounds(
    entry: _Bounds,
) -> Tuple[Optional[float], Optional[float]]:
    """Convert exact bounds to floats, rounded *outward* (sound box)."""
    low: Optional[float] = None
    high: Optional[float] = None
    if entry.lower is not None:
        low = float(entry.lower)
        if Fraction(low) > entry.lower:
            low = math.nextafter(low, -math.inf)
    if entry.upper is not None:
        high = float(entry.upper)
        if Fraction(high) < entry.upper:
            high = math.nextafter(high, math.inf)
    return low, high


class BoundStore:
    """Canonical per-variable bounds with provenance, shared across layers.

    The store is computed once by :class:`PresolveStage` and then treated
    as immutable by its consumers.  Bounds are exact
    :class:`~fractions.Fraction` endpoints with strictness flags
    (:class:`_Bounds`); consumers pick the representation they need —
    exact singleton rows for the LP layers
    (:meth:`bound_rows`), an outward-rounded float box for interval and
    nonlinear code (:meth:`float_box`).
    """

    def __init__(
        self, declared: Dict[str, Tuple[Optional[float], Optional[float]]]
    ):
        self.declared = dict(declared)
        self._bounds: Dict[str, _Bounds] = {}
        #: variable -> how its current bounds were deduced
        #: ("declared" / "propagation" / "contraction").
        self.provenance: Dict[str, str] = {}
        for var, (low, high) in declared.items():
            entry = self._entry(var)
            if low is not None:
                entry.tighten_lower(_to_fraction(low), False)
            if high is not None:
                entry.tighten_upper(_to_fraction(high), False)
            self.provenance[var] = "declared"
        #: True when some variable's box is narrower than declared.
        self.tightened = False
        #: Unit literals (over definition variables) implied by the store.
        self.units: List[int] = []
        #: Variables pinned to a single value.
        self.fixed: Dict[str, Fraction] = {}
        self.infeasible = False
        self.infeasible_reason = ""
        self.rows_dropped = 0
        #: Set once the units have been pushed into the Boolean solver, so
        #: repeated queries against an unchanged store do not re-emit.
        self.emitted = False
        self._rows_cache: Optional[List[LinearConstraint]] = None
        self._fingerprint_cache: Optional[str] = None

    # -- mutation (presolve stage only) ---------------------------------
    def _entry(self, var: str) -> _Bounds:
        entry = self._bounds.get(var)
        if entry is None:
            entry = _Bounds()
            self._bounds[var] = entry
        return entry

    def tighten_lower(
        self, var: str, value: Fraction, strict: bool, source: str
    ) -> bool:
        entry = self._entry(var)
        before = (entry.lower, entry.lower_strict)
        entry.tighten_lower(value, strict)
        changed = (entry.lower, entry.lower_strict) != before
        if changed:
            self.tightened = True
            self.provenance[var] = source
            self._rows_cache = None
            self._fingerprint_cache = None
            if entry.infeasible:
                self.mark_infeasible(f"empty bounds for {var}")
        return changed

    def tighten_upper(
        self, var: str, value: Fraction, strict: bool, source: str
    ) -> bool:
        entry = self._entry(var)
        before = (entry.upper, entry.upper_strict)
        entry.tighten_upper(value, strict)
        changed = (entry.upper, entry.upper_strict) != before
        if changed:
            self.tightened = True
            self.provenance[var] = source
            self._rows_cache = None
            self._fingerprint_cache = None
            if entry.infeasible:
                self.mark_infeasible(f"empty bounds for {var}")
        return changed

    def mark_infeasible(self, reason: str) -> None:
        if not self.infeasible:
            self.infeasible = True
            self.infeasible_reason = reason

    # -- consumption -----------------------------------------------------
    @property
    def contentful(self) -> bool:
        """Whether the store deduced anything beyond the declared box."""
        return self.tightened or bool(self.units) or self.infeasible

    def bounds_of(self, var: str) -> Optional[_Bounds]:
        return self._bounds.get(var)

    def bound_rows(self) -> List[LinearConstraint]:
        """The store as exact singleton rows (for the LP translation)."""
        if self._rows_cache is None:
            rows: List[LinearConstraint] = []
            for var in sorted(self._bounds):
                entry = self._bounds[var]
                if entry.lower is not None:
                    relation = (
                        Relation.GT if entry.lower_strict else Relation.GE
                    )
                    rows.append(
                        LinearConstraint(
                            {var: Fraction(1)}, relation, entry.lower
                        )
                    )
                if entry.upper is not None:
                    relation = (
                        Relation.LT if entry.upper_strict else Relation.LE
                    )
                    rows.append(
                        LinearConstraint(
                            {var: Fraction(1)}, relation, entry.upper
                        )
                    )
            self._rows_cache = rows
        return self._rows_cache

    def float_box(
        self,
        base: Optional[
            Dict[str, Tuple[Optional[float], Optional[float]]]
        ] = None,
    ) -> Dict[str, Tuple[Optional[float], Optional[float]]]:
        """The store as a float box (outward-rounded, so a sound superset).

        Starts from ``base`` (typically the problem's declared bounds) and
        overlays every store entry; strictness is dropped, which only
        widens the box.
        """
        box = dict(base or {})
        for var, entry in self._bounds.items():
            low, high = _outward_float_bounds(entry)
            if low is not None or high is not None:
                box[var] = (low, high)
        return box

    def snapshot(self) -> Dict[str, Tuple]:
        """Comparable view of the exact bounds (tests: push/pop restore)."""
        return {
            var: (
                entry.lower,
                entry.lower_strict,
                entry.upper,
                entry.upper_strict,
            )
            for var, entry in self._bounds.items()
        }

    def fingerprint(self) -> str:
        """Canonical key for the store's deductions.

        A stable content digest (like ``Expr.fingerprint``): bounds are
        emitted in sorted variable order with exact Fraction reprs, so the
        key is identical across processes and independent of deduction
        order.  :meth:`PresolveStage.ensure` compares a recomputed store's
        key with the previous one's: on a match the translation stage keeps
        its bound rows and the emitted units are not re-sent.
        """
        if self._fingerprint_cache is None:
            import hashlib

            digest = hashlib.blake2b(digest_size=16)
            snapshot = self.snapshot()
            for var in sorted(snapshot):
                lower, lower_strict, upper, upper_strict = snapshot[var]
                digest.update(
                    f"{var}:{lower!r}:{lower_strict}:{upper!r}:{upper_strict};".encode()
                )
            digest.update(("u" + ",".join(map(str, sorted(self.units)))).encode())
            digest.update(b"i1" if self.infeasible else b"i0")
            self._fingerprint_cache = digest.hexdigest()
        return self._fingerprint_cache


def propagate_rows(store: BoundStore, rows: List[LinearConstraint]) -> None:
    """Tighten ``store`` to fixpoint over linear rows that must all hold.

    Module-level so the cube splitter
    (:func:`repro.parallel.cubes.refine_cube_bounds`) can run the same
    propagation over a cube's decision literals without a pipeline.
    """
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for row in rows:
            if not row.coeffs:
                if not row.trivially_true():
                    store.mark_infeasible("contradictory constant row")
                    return
                continue
            if _row_impossible(row, store._bounds):
                store.mark_infeasible(
                    f"forced row over {sorted(row.coeffs)} impossible"
                )
                return
            for target in row.coeffs:
                changed |= _tighten_from_row(store, row, target)
                if store.infeasible:
                    return
        if not changed:
            return


def _tighten_from_row(
    store: BoundStore, row: LinearConstraint, target: str
) -> bool:
    """Derive ``target``'s implied bound from the row's rest-interval."""
    rest_low: Optional[Fraction] = Fraction(0)
    rest_high: Optional[Fraction] = Fraction(0)
    for var, coeff in row.coeffs.items():
        if var == target:
            continue
        entry = store.bounds_of(var)
        var_low = entry.lower if entry else None
        var_high = entry.upper if entry else None
        if coeff > 0:
            low_part, high_part = var_low, var_high
        else:
            low_part, high_part = var_high, var_low
        if rest_low is not None:
            rest_low = (
                None if low_part is None else rest_low + coeff * low_part
            )
        if rest_high is not None:
            rest_high = (
                None
                if high_part is None
                else rest_high + coeff * high_part
            )
    coeff = row.coeffs[target]
    relation = row.relation
    changed = False
    if relation in (Relation.LE, Relation.LT, Relation.EQ):
        # coeff*target <= bound - rest  =>  bound on target
        if rest_low is not None:
            value = (row.bound - rest_low) / coeff
            strict = relation is Relation.LT
            if coeff > 0:
                changed |= store.tighten_upper(
                    target, value, strict, "propagation"
                )
            else:
                changed |= store.tighten_lower(
                    target, value, strict, "propagation"
                )
    if relation in (Relation.GE, Relation.GT, Relation.EQ):
        if rest_high is not None:
            value = (row.bound - rest_high) / coeff
            strict = relation is Relation.GT
            if coeff > 0:
                changed |= store.tighten_lower(
                    target, value, strict, "propagation"
                )
            else:
                changed |= store.tighten_upper(
                    target, value, strict, "propagation"
                )
    return changed


class PresolveStage:
    """Stage 0: formula-level bound deduction shared by every layer.

    Unlike stages 1-5 this stage does not run per candidate: ``ensure``
    computes (or reuses) the :class:`BoundStore` for the current asserted
    stack, and the pipeline invalidates it whenever the formula changes
    (clauses asserted/retracted, definitions added/removed, bounds set).
    """

    name = "presolve"

    def __init__(self, pipeline: "SolvePipeline"):
        self._pipeline = pipeline
        self._store: Optional[BoundStore] = None
        self._stale = True

    # -- lifecycle -------------------------------------------------------
    def invalidate(self) -> None:
        """The formula changed; recompute lazily on the next ``ensure``."""
        self._stale = True

    def active_store(self) -> Optional[BoundStore]:
        """The store for the current formula, or None when disabled/stale."""
        if self._stale:
            return None
        return self._store

    @property
    def enabled(self) -> bool:
        config = self._pipeline.config
        if not getattr(config, "use_presolve", True):
            return False
        # Certificates must be re-checkable without trusting the presolver.
        if getattr(config, "record_certificate", False):
            return False
        return True

    def ensure(self, problem: ABProblem) -> Optional[BoundStore]:
        """Compute (or reuse) the store for ``problem``'s current state."""
        if not self.enabled:
            self._store = None
            self._stale = True
            return None
        if not self._stale and self._store is not None:
            return self._store
        previous = self._store
        with self._pipeline.stage(self.name):
            store = self._compute(problem)
        if previous is not None:
            if previous.fingerprint() == store.fingerprint():
                # Same deductions: keep downstream caches (and the
                # emitted flag, so units are not re-sent).
                store.emitted = previous.emitted
            else:
                self._pipeline.presolve_store_changed()
        elif store.contentful:
            self._pipeline.presolve_store_changed()
        self._store = store
        self._stale = False
        self._publish(store)
        return store

    # -- computation -----------------------------------------------------
    def _compute(self, problem: ABProblem) -> BoundStore:
        store = BoundStore(problem.bounds)
        stats = self._pipeline.stats

        # 1. Boolean unit propagation over the guard-free mirror CNF: the
        # forced literals hold in every model, so the constraints they tag
        # are implied theory facts.
        forced: Dict[int, bool] = {}
        if not unit_propagate(problem.cnf.clauses, forced):
            store.mark_infeasible("boolean unit propagation")
            return store

        use_intervals = getattr(
            self._pipeline.config, "use_interval_refuter", True
        )

        rows, nonlinear = self._forced_constraints(problem, forced)
        phased: Set[int] = set()
        for _ in range(_DEDUCTION_ROUNDS):
            propagate_rows(store, rows)
            if store.infeasible:
                return store
            if use_intervals and nonlinear:
                stats.contractor_presolve_calls += 1
                self._contract(store, nonlinear)
                if store.infeasible:
                    return store
            units = self._deduce_units(
                problem, store, forced, phased, use_intervals
            )
            if not units:
                break
            for literal in units:
                store.units.append(literal)
                forced[abs(literal)] = literal > 0
            new_rows, new_nonlinear = self._forced_constraints(
                problem, {abs(l): l > 0 for l in units}
            )
            rows += new_rows
            nonlinear += new_nonlinear

        # Account rows the tightened box absorbs (the downstream LP never
        # needs them as separate constraints).
        for row in rows:
            if len(row.coeffs) == 1 or _row_redundant(row, store._bounds):
                store.rows_dropped += 1
        stats.presolve_rows_dropped += store.rows_dropped

        for var, entry in store._bounds.items():
            value = entry.fixed_value
            if value is not None:
                store.fixed[var] = value
        return store

    def _forced_constraints(
        self, problem: ABProblem, forced: Dict[int, bool]
    ) -> Tuple[List[LinearConstraint], List[Constraint]]:
        """Constraints implied by forced definition literals."""
        rows: List[LinearConstraint] = []
        nonlinear: List[Constraint] = []
        for var, definition in problem.definitions.items():
            phase = forced.get(var)
            if phase is None:
                continue
            if phase:
                constraint = definition.constraint
            else:
                alternatives = definition.constraint.negated_alternatives()
                if len(alternatives) != 1:
                    continue  # EQ-negation splits into a disjunction
                constraint = alternatives[0]
            if constraint.is_linear():
                rows.append(
                    LinearConstraint.from_constraint(
                        constraint, tag=var if phase else -var
                    )
                )
            else:
                nonlinear.append(constraint)
        return rows, nonlinear

    def _contract(
        self, store: BoundStore, constraints: List[Constraint]
    ) -> None:
        """One HC4 pass over the forced nonlinear constraints."""
        from ..nonlinear.contract import contract_box
        from ..nonlinear.intervals import Interval

        variables: Set[str] = set()
        for constraint in constraints:
            variables |= constraint.variables()
        box = {}
        for var in variables:
            entry = store.bounds_of(var)
            low, high = (
                _outward_float_bounds(entry) if entry else (None, None)
            )
            box[var] = Interval(
                -math.inf if low is None else low,
                math.inf if high is None else high,
            )
        contracted = contract_box(constraints, box)
        if contracted is None:
            store.mark_infeasible("interval contraction emptied the box")
            return
        for var, interval in contracted.items():
            if math.isfinite(interval.lo):
                store.tighten_lower(
                    var, Fraction(interval.lo), False, "contraction"
                )
            if math.isfinite(interval.hi):
                store.tighten_upper(
                    var, Fraction(interval.hi), False, "contraction"
                )
            if store.infeasible:
                return

    def _deduce_units(
        self,
        problem: ABProblem,
        store: BoundStore,
        forced: Dict[int, bool],
        phased: Set[int],
        use_intervals: bool,
    ) -> List[int]:
        """Phase un-forced definitions decided everywhere on the box."""
        from ..nonlinear.intervals import Interval, check_constraint_interval

        units: List[int] = []
        env: Optional[Dict[str, Interval]] = None
        for var, definition in problem.definitions.items():
            if var in forced or var in phased:
                continue
            constraint = definition.constraint
            literal: Optional[int] = None
            if constraint.is_linear():
                row = LinearConstraint.from_constraint(constraint)
                if _row_redundant(row, store._bounds):
                    literal = var
                elif _row_impossible(row, store._bounds):
                    literal = -var
            elif use_intervals:
                if env is None:
                    env = {}
                    for name, (low, high) in store.float_box(
                        problem.bounds
                    ).items():
                        env[name] = Interval(
                            -math.inf if low is None else low,
                            math.inf if high is None else high,
                        )
                missing = constraint.variables() - set(env)
                for name in missing:
                    env[name] = Interval(-math.inf, math.inf)
                verdict = check_constraint_interval(constraint, env)
                if verdict is TT:
                    literal = var
                elif verdict is FF:
                    literal = -var
            if literal is not None:
                phased.add(var)
                units.append(literal)
        return units

    # -- observability ---------------------------------------------------
    def _publish(self, store: BoundStore) -> None:
        observer = self._pipeline.observer
        if not observer.active:
            return
        for var, entry in store._bounds.items():
            if store.provenance.get(var, "declared") == "declared":
                continue
            low, high = _outward_float_bounds(entry)
            observer.publish(
                BoundTightened(
                    variable=var,
                    lower=low,
                    upper=high,
                    source=store.provenance[var],
                )
            )
        for var, value in store.fixed.items():
            observer.publish(PresolveFixedVar(variable=var, value=float(value)))
