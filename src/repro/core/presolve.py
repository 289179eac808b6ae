"""Formula-level presolve: the opt-in stage 0 of the solve pipeline.

The stage runs only under ``ABSolverConfig(use_presolve=True)``; the CLI
never turns it on.  It is off by default: on the paper's workloads it costs
more than it prunes, and the one conflict it used to settle alone, the
paper's ``nonlinear_unsat``, is refuted by the nonlinear branch probe
(one HC4 contraction per branch, :meth:`repro.core.pipeline.SolvePipeline.
_check_branch`).

Presolve is a formula-level deduction, not an LP-call reduction: the
CDCL and interval layers both consume what it derives, while the
linear engine decides single-variable bound systems in closed form
(:meth:`repro.linear.simplex.SimplexSolver.check`).
:class:`PresolveStage` runs the deduction at most **once per query** and
publishes the result as a :class:`BoundStore` that every downstream layer
consumes:

* the theory translation appends the store's tightened bound rows to each
  candidate system instead of the raw declared box;
* the nonlinear search and the interval refuter start from the tightened
  (outward-rounded) float box;
* deduced unit facts are emitted to the CDCL layer as definite lemmas, so
  the Boolean search space shrinks before the first candidate.

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

The stage keeps what its last computation saw and derived.  When the
asserted formula has only grown since then — clauses appended, definitions
added, declared bounds added or tightened, as a
:class:`~repro.core.session.SolverSession` deepening an unroll does — the
next computation resumes from the last store: it propagates only from the
new forced rows and the rows over variables whose bounds moved, and
deduces units only over new definitions and definitions over moved
variables.  A retraction (``pop``, a removed definition), a widened or
removed bound, or an infeasible last store drops that state, and the next
computation starts from the empty one: a one-shot query is the same code
resuming from nothing.  Within the round caps both reach the same store.

Nonlinear deductions (the contractor and interval-based phasing) are gated
on ``config.use_interval_refuter`` so that disabling interval reasoning
disables *all* of it, and presolve is skipped entirely when
``record_certificate`` is set — a certificate must be re-checkable without
trusting the presolver.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TYPE_CHECKING,
)

from ..linear.lp import LinearConstraint
from ..obs.events import BoundTightened, PresolveFixedVar
from ..sat.dpll import unit_propagate
from .expr import Constraint, Relation
from .problem import ABProblem, Definition, widens
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
    row: LinearConstraint, low: Optional[Fraction], high: Optional[Fraction]
) -> bool:
    """Whether the row holds wherever its lhs lies in ``[low, high]``."""
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


def _row_impossible(
    row: LinearConstraint, low: Optional[Fraction], high: Optional[Fraction]
) -> bool:
    """Whether the row fails wherever its lhs lies in ``[low, high]``."""
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

    The store is built by :class:`PresolveStage`, which extends it in
    place while the asserted formula only grows; its consumers only read
    it.  Bounds are exact
    :class:`~fractions.Fraction` endpoints with strictness flags
    (:class:`_Bounds`); consumers pick the representation they need —
    exact singleton rows for the LP layers
    (:meth:`bound_rows`), an outward-rounded float box for interval and
    nonlinear code (:meth:`float_box`).
    """

    def __init__(
        self, declared: Dict[str, Tuple[Optional[float], Optional[float]]]
    ):
        #: The declared box the store starts from (see :meth:`declare`).
        self.declared: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
        self._bounds: Dict[str, _Bounds] = {}
        #: variable -> how its current bounds were deduced
        #: ("declared" / "propagation" / "contraction").
        self.provenance: Dict[str, str] = {}
        #: True when some variable's box is narrower than declared.
        self.tightened = False
        #: Unit literals (over definition variables) implied by the store.
        self.units: List[int] = []
        #: How many of :attr:`units` the pipeline has sent to the Boolean
        #: engine; a resumed store appends units, so only the rest are sent.
        self.units_sent = 0
        #: Variables pinned to a single value.
        self.fixed: Dict[str, Fraction] = {}
        self.infeasible = False
        self.infeasible_reason = ""
        self.rows_dropped = 0
        self._rows_cache: Optional[List[LinearConstraint]] = None
        for var, (low, high) in declared.items():
            self.declare(var, low, high)

    # -- mutation (presolve stage only) ---------------------------------
    def _entry(self, var: str) -> _Bounds:
        entry = self._bounds.get(var)
        if entry is None:
            entry = _Bounds()
            self._bounds[var] = entry
        return entry

    def declare(
        self, var: str, low: Optional[float], high: Optional[float]
    ) -> bool:
        """Narrow ``var`` to a declared bound; returns whether it moved.

        A variable whose bounds are exactly its declared ones has
        provenance ``declared``, as in a store built from that box, so a
        declared bound that catches up with a deduced one leaves nothing
        counted as tightened.
        """
        self.declared[var] = (low, high)
        lower = None if low is None else _to_fraction(low)
        upper = None if high is None else _to_fraction(high)
        entry = self._bounds.get(var)
        if entry is None:
            entry = self._bounds[var] = _Bounds()
            entry.lower = lower
            entry.upper = upper
            self.provenance[var] = "declared"
            if lower is None and upper is None:
                return False
            self._rows_cache = None
            return True
        before = (entry.lower, entry.lower_strict, entry.upper, entry.upper_strict)
        if lower is not None:
            entry.tighten_lower(lower, False)
        if upper is not None:
            entry.tighten_upper(upper, False)
        after = (entry.lower, entry.lower_strict, entry.upper, entry.upper_strict)
        if after == (lower, False, upper, False):
            source = self.provenance.get(var, "declared")
            self.provenance[var] = "declared"
            if source != "declared":
                self.tightened = any(
                    origin != "declared" for origin in self.provenance.values()
                )
        if after == before:
            return False
        self._rows_cache = None
        if entry.infeasible:
            self.mark_infeasible(f"empty bounds for {var}")
        return True

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
        order.  When :meth:`PresolveStage.ensure` starts a store from empty
        again, it compares the new store's key with the previous one's: on
        a match the translation stage keeps its bound rows.
        """
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
        return digest.hexdigest()


def propagate_rows(
    store: BoundStore,
    rows: Sequence[LinearConstraint],
    start: Optional[Iterable[int]] = None,
    occurrences: Optional[Dict[str, List[int]]] = None,
) -> Set[str]:
    """Tighten ``store`` to fixpoint over linear rows that must all hold.

    The first round visits the rows at the indices ``start`` (every row
    when None); each later round visits only the rows over the variables
    the round before tightened, found through ``occurrences`` (variable ->
    indices of the rows over it, built from ``rows`` when None), for at
    most ``_PROPAGATION_ROUNDS`` rounds.  Returns the variables tightened.
    """
    if occurrences is None:
        occurrences = {}
        for index, row in enumerate(rows):
            for var in row.coeffs:
                occurrences.setdefault(var, []).append(index)
    queue: Iterable[int] = range(len(rows)) if start is None else sorted(set(start))
    bounds = store._bounds
    tightened: Set[str] = set()
    for _ in range(_PROPAGATION_ROUNDS):
        touched: Set[str] = set()
        for index in queue:
            row = rows[index]
            if not row.coeffs:
                if not row.trivially_true():
                    store.mark_infeasible("contradictory constant row")
                    return tightened
                continue
            if _row_impossible(row, *_row_bounds_image(row, bounds)):
                store.mark_infeasible(
                    f"forced row over {sorted(row.coeffs)} impossible"
                )
                return tightened
            for target in row.coeffs:
                if _tighten_from_row(store, row, target):
                    touched.add(target)
                    if store.infeasible:
                        return tightened
        if not touched:
            break
        tightened |= touched
        queue = sorted(
            {index for var in touched for index in occurrences.get(var, ())}
        )
    return tightened


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


class _Resume:
    """What a :class:`PresolveStage` computation saw and derived.

    The next computation extends :attr:`store` from here while the problem
    only grows (:meth:`grows_to`).  Boolean-forced literals and deduced
    units are kept apart: deduced units never enter clause propagation.
    """

    __slots__ = (
        "problem",
        "store",
        "clauses_seen",
        "forced",
        "positions",
        "definitions_over",
        "deduced",
        "rows",
        "occurrences",
        "pending",
        "revisit",
        "dropped",
        "nonlinear",
    )

    def __init__(self, problem: ABProblem):
        self.problem = problem
        self.store = BoundStore({})
        #: Leading clauses of ``problem.cnf`` already propagated.
        self.clauses_seen = 0
        #: Variable -> phase forced by Boolean unit propagation.
        self.forced: Dict[int, bool] = {}
        #: Definition variable -> its place among the definitions seen.
        self.positions: Dict[int, int] = {}
        #: Theory variable -> definitions over it that were not forced
        #: when first seen (the candidates for unit deduction).
        self.definitions_over: Dict[str, List[int]] = {}
        #: Definition variable -> the unit deduced for it.
        self.deduced: Dict[int, int] = {}
        #: The forced linear rows, and variable -> indices of rows over it.
        self.rows: List[LinearConstraint] = []
        self.occurrences: Dict[str, List[int]] = {}
        #: Rows not yet propagated, and variables moved outside propagation
        #: whose rows the next propagation must visit.
        self.pending: List[int] = []
        self.revisit: Set[str] = set()
        #: Indices of the rows the box absorbs.
        self.dropped: Set[int] = set()
        #: The forced nonlinear constraints.
        self.nonlinear: List[Constraint] = []

    def grows_to(self, problem: ABProblem) -> bool:
        """Whether ``problem`` only grew since this state was computed."""
        if problem is not self.problem or self.store.infeasible:
            return False
        if len(problem.cnf.clauses) < self.clauses_seen:
            return False
        if len(problem.definitions) < len(self.positions):
            return False
        bounds = problem.bounds
        return not any(
            var not in bounds or widens(seen, bounds[var])
            for var, seen in self.store.declared.items()
        )


class PresolveStage:
    """Stage 0: formula-level bound deduction shared by every layer.

    Unlike stages 1-5 this stage does not run per candidate: ``ensure``
    computes (or reuses) the :class:`BoundStore` for the current asserted
    stack.  The pipeline marks it stale when the formula grows (clauses
    asserted, definitions added, bounds set), and the next ``ensure``
    extends the last store; a retraction (``retract``) makes it start from
    empty instead.
    """

    name = "presolve"

    def __init__(self, pipeline: "SolvePipeline"):
        self._pipeline = weakref.proxy(pipeline)  # no cycle: see core/pipeline.py
        self._store: Optional[BoundStore] = None
        self._stale = True
        self._resume: Optional[_Resume] = None
        #: Definition literal -> (the definition's constraint, what the
        #: literal implies): see :meth:`_implied`.
        self._implied_by: Dict[int, Tuple[Constraint, object]] = {}

    # -- lifecycle -------------------------------------------------------
    def invalidate(self) -> None:
        """The formula grew; extend the store on the next ``ensure``."""
        self._stale = True

    def retract(self, variables: Sequence[int] = ()) -> None:
        """The formula lost clauses or the definitions of ``variables``;
        the next ``ensure`` starts from empty."""
        self._stale = True
        self._resume = None
        for var in variables:
            self._implied_by.pop(var, None)
            self._implied_by.pop(-var, None)

    def active_store(self) -> Optional[BoundStore]:
        """The store for the current formula, or None when disabled/stale."""
        if self._stale:
            return None
        return self._store

    @property
    def enabled(self) -> bool:
        config = self._pipeline.config
        if not config.use_presolve:
            return False
        # Certificates must be re-checkable without trusting the presolver.
        if getattr(config, "record_certificate", False):
            return False
        return True

    def ensure(self, problem: ABProblem) -> Optional[BoundStore]:
        """Compute (or reuse) the store for ``problem``'s current state."""
        if not self.enabled:
            self._store = None
            self._resume = None
            self._stale = True
            return None
        if not self._stale and self._store is not None:
            return self._store
        previous = self._store
        with self._pipeline.stage(self.name):
            store, moved = self._extend(problem)
        if store is previous:
            changed = bool(moved)
        elif previous is None:
            changed = store.contentful
        else:
            changed = previous.fingerprint() != store.fingerprint()
        if changed:
            self._pipeline.presolve_store_changed()
        self._store = store
        self._stale = False
        self._publish(store)
        return store

    # -- computation -----------------------------------------------------
    def _extend(self, problem: ABProblem) -> Tuple[BoundStore, Set[str]]:
        """Bring the last store up to ``problem``; returns it and the
        variables whose bounds moved."""
        resume = self._resume
        if resume is None or not resume.grows_to(problem):
            resume = self._resume = _Resume(problem)
        store = resume.store
        stats = self._pipeline.stats
        rows = resume.rows
        first_new_row = len(rows)

        # 1. Declared bounds added or tightened since then.
        fresh: Set[str] = set()
        declared = store.declared
        for var, (low, high) in problem.bounds.items():
            if declared.get(var) != (low, high) and store.declare(var, low, high):
                fresh.add(var)
        resume.revisit |= fresh
        moved = set(fresh)
        if store.infeasible:
            return store, moved

        # 2. Boolean unit propagation over the clauses appended since then:
        # the forced literals hold in every model, so the constraints they
        # tag are implied theory facts.  Literals they force make old
        # clauses unit only through a pass over all of them.
        clauses = problem.cnf.clauses
        forced = resume.forced
        known = len(forced)
        seen = resume.clauses_seen
        resume.clauses_seen = len(clauses)
        if not unit_propagate(clauses[seen:] if seen else clauses, forced) or (
            seen and len(forced) > known and not unit_propagate(clauses, forced)
        ):
            store = resume.store = BoundStore(problem.bounds)
            store.mark_infeasible("boolean unit propagation")
            return store, moved

        # 3. The constraints of newly forced definition literals, and the
        # new definitions.
        definitions = problem.definitions
        positions = resume.positions
        for var, phase in itertools.islice(forced.items(), known, None):
            if var in positions:
                self._force(resume, definitions[var], phase)
        candidates: Set[int] = set()
        for var in itertools.islice(definitions, len(positions), None):
            definition = definitions[var]
            positions[var] = len(positions)
            phase = forced.get(var)
            if phase is not None:
                self._add_constraint(resume, definition, var if phase else -var)
                continue
            candidates.add(var)
            for name in definition.constraint.variables():
                resume.definitions_over.setdefault(name, []).append(var)

        # 4. Propagate from the new rows and the rows over moved variables,
        # contract, and deduce units over the new definitions and the
        # definitions over moved variables, until nothing is deduced.
        use_intervals = getattr(
            self._pipeline.config, "use_interval_refuter", True
        )
        occurrences = resume.occurrences
        for _ in range(_DEDUCTION_ROUNDS):
            start = resume.pending
            for var in resume.revisit:
                start.extend(occurrences.get(var, ()))
            resume.pending = []
            resume.revisit = set()
            fresh |= propagate_rows(store, rows, start, occurrences)
            if store.infeasible:
                return store, moved | fresh
            if use_intervals and resume.nonlinear:
                stats.contractor_presolve_calls += 1
                contracted = self._contract(store, resume.nonlinear)
                resume.revisit |= contracted
                fresh |= contracted
                if store.infeasible:
                    return store, moved | fresh
            for var in fresh:
                candidates.update(resume.definitions_over.get(var, ()))
            moved |= fresh
            fresh = set()
            units = self._deduce_units(problem, store, resume, candidates, use_intervals)
            candidates = set()
            if not units:
                break
            for literal in units:
                store.units.append(literal)
                resume.deduced[abs(literal)] = literal
                self._add_constraint(resume, definitions[abs(literal)], literal)

        # Account rows the tightened box absorbs (the downstream LP never
        # needs them as separate constraints): a row is absorbed for good,
        # so only new rows and rows over moved variables are looked at.
        bounds = store._bounds
        dropped = resume.dropped
        check = set(range(first_new_row, len(rows)))
        if first_new_row:
            for var in moved:
                check.update(occurrences.get(var, ()))
            check -= dropped
        for index in check:
            row = rows[index]
            if len(row.coeffs) == 1 or _row_redundant(
                row, *_row_bounds_image(row, bounds)
            ):
                dropped.add(index)
        store.rows_dropped = len(dropped)
        stats.presolve_rows_dropped += store.rows_dropped

        for var in sorted(moved):
            value = bounds[var].fixed_value
            if value is not None:
                store.fixed[var] = value
        return store, moved

    def _force(self, resume: _Resume, definition: Definition, phase: bool) -> None:
        """Boolean propagation forces ``definition``'s literal of ``phase``.

        A definition deduced earlier stops being a unit, as it is in a
        store built from empty, where deduction skips forced definitions.
        """
        var = definition.boolean_var
        literal = var if phase else -var
        deduced = resume.deduced.pop(var, None)
        if deduced is not None:
            store = resume.store
            index = store.units.index(deduced)
            del store.units[index]
            if index < store.units_sent:
                store.units_sent -= 1
            if deduced == literal:
                return  # its constraint is in already
        self._add_constraint(resume, definition, literal)

    def _add_constraint(
        self, resume: _Resume, definition: Definition, literal: int
    ) -> None:
        """Add the constraint ``literal`` implies to the forced set."""
        implied = self._implied(definition, literal)
        if implied is None:
            return
        if not isinstance(implied, LinearConstraint):
            resume.nonlinear.append(implied)
            return
        index = len(resume.rows)
        resume.rows.append(implied)
        resume.pending.append(index)
        for var in implied.coeffs:
            resume.occurrences.setdefault(var, []).append(index)

    def _implied(
        self, definition: Definition, literal: int
    ) -> Optional[object]:
        """What ``literal`` implies: its row when linear, else its
        constraint; None for a negated equation, which splits into a
        disjunction.  Worked out once per definition and phase."""
        cached = self._implied_by.get(literal)
        if cached is not None and cached[0] is definition.constraint:
            return cached[1]
        implied: Optional[object] = definition.constraint
        if literal < 0:
            alternatives = definition.constraint.negated_alternatives()
            implied = alternatives[0] if len(alternatives) == 1 else None
        if implied is not None and implied.is_linear():
            implied = LinearConstraint.from_constraint(implied, tag=literal)
        self._implied_by[literal] = (definition.constraint, implied)
        return implied

    def _contract(
        self, store: BoundStore, constraints: List[Constraint]
    ) -> Set[str]:
        """One HC4 pass over the forced nonlinear constraints; returns the
        variables it tightened."""
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
        tightened: Set[str] = set()
        contracted = contract_box(constraints, box)
        if contracted is None:
            store.mark_infeasible("interval contraction emptied the box")
            return tightened
        for var, interval in contracted.items():
            if math.isfinite(interval.lo) and store.tighten_lower(
                var, Fraction(interval.lo), False, "contraction"
            ):
                tightened.add(var)
            if math.isfinite(interval.hi) and store.tighten_upper(
                var, Fraction(interval.hi), False, "contraction"
            ):
                tightened.add(var)
            if store.infeasible:
                break
        return tightened

    def _deduce_units(
        self,
        problem: ABProblem,
        store: BoundStore,
        resume: _Resume,
        candidates: Set[int],
        use_intervals: bool,
    ) -> List[int]:
        """Phase the candidate definitions decided everywhere on the box."""
        from ..nonlinear.intervals import Interval, check_constraint_interval

        units: List[int] = []
        env: Optional[Dict[str, Interval]] = None
        definitions = problem.definitions
        bounds = store._bounds
        for var in sorted(candidates, key=resume.positions.__getitem__):
            if var in resume.forced or var in resume.deduced:
                continue
            definition = definitions[var]
            constraint = definition.constraint
            literal: Optional[int] = None
            if constraint.is_linear():
                row = self._implied(definition, var)
                low, high = _row_bounds_image(row, bounds)
                if _row_redundant(row, low, high):
                    literal = var
                elif _row_impossible(row, low, high):
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
