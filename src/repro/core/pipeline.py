"""The staged ABsolver pipeline: the control loop as composable stages.

The loop's five conceptual steps (paper, Sec. 1 and Sec. 4) are explicit
stage objects, each owning its substrate solver(s) and memoized state and
each timed under its ``name``:

* :class:`CandidateGenerationStage` — query the Boolean solver for the next
  candidate assignment and feed blocking clauses back to it;
* :class:`TheoryTranslationStage` — turn a Boolean assignment into theory
  constraint branches, with a memoized definition-literal -> linear-row
  cache;
* :class:`LinearCheckStage` — decide the linear constituent (tracking
  warm-start reuse when the configured LP adapter supports it);
* :class:`NonlinearCheckStage` — route surviving candidates through the
  configured nonlinear solver list;
* :class:`ConflictRefinementStage` — explain failures (IIS refinement,
  interval refutation, including a one-box probe of each nonlinear branch
  before its local search) as blocking clauses.

:class:`SolvePipeline` wires the stages into the classic lazy-SMT loop.  It
is deliberately *query-scoped but state-persistent*: running a second query
against the same pipeline reuses the Boolean solver's clause database and
activities plus the translation caches, which is exactly what
:class:`repro.core.session.SolverSession` builds its ``push``/``pop``
incremental interface on.  The one-shot :class:`~repro.core.solver.ABSolver`
uses a single-use pipeline.

Each stage reaches its pipeline through a weak proxy, so the pipeline and
its stages form no reference cycle: a dropped session or solver frees its
engines and caches at once instead of at the next cyclic collection.
"""

from __future__ import annotations

import itertools
import math
import weakref
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPResult, LPStatus
from ..nonlinear.auglag import Bounds, NLPStatus
from ..nonlinear.refute import IntervalRefuter, RefuteResult, RefuteStatus
from ..obs.events import (
    BlockingClauseAdded,
    CandidateFound,
    ConflictRefined,
    IntervalRefuted,
    NonlinearFallback,
    PresolveInfeasible,
    TheoryFeasible,
    VerdictReached,
)
from ..obs.observer import Observer
from ..sat.cnf import CNF, Assignment
from .expr import Constraint, Relation
from .interface import (
    BooleanSolverInterface,
    LinearSolverInterface,
    NonlinearSolverInterface,
    Refinement,
)
from .presolve import PresolveStage
from .problem import ABProblem
from .registry import (
    DOMAIN_BOOLEAN,
    DOMAIN_LINEAR,
    DOMAIN_NONLINEAR,
    SolverRegistry,
    default_registry,
)
from .stats import SolveStatistics

__all__ = [
    "BranchItem",
    "TranslationPlan",
    "TheoryVerdict",
    "CandidateGenerationStage",
    "TheoryTranslationStage",
    "LinearCheckStage",
    "NonlinearCheckStage",
    "ConflictRefinementStage",
    "SolvePipeline",
    "CDCL_FAMILY",
    "complete_theory_model",
    "declared_bound_rows",
]

#: The Boolean engines built on the CDCL kernel: the only ones that take
#: the ``seed``, ``clause_decay``, ``reduce_interval`` and
#: ``restart_base`` options.
CDCL_FAMILY = ("cdcl", "lsat")

#: Boxes the branch probe explores before the local search: the root box
#: alone, that is one HC4 contraction and the three-valued check on it.
#: A larger budget spends its boxes on satisfiable branches.
PROBE_BOXES = 1

#: A lemma callback: receives the blocking clause and whether the conflict
#: was definite, and returns the clause that should actually reach the
#: Boolean solver (sessions guard it with an activation literal).
LemmaHook = Callable[[List[int], bool], List[int]]


class BranchItem:
    """One constraint of a branch and its origin tag.

    ``tag`` is the signed Boolean definition literal the constraint came
    from (a negated equation contributes one of its alternatives, each
    tagged ``-var``).
    """

    __slots__ = ("constraint", "tag")

    def __init__(self, constraint: Constraint, tag: int):
        self.constraint = constraint
        self.tag = tag

    def __repr__(self) -> str:
        return f"BranchItem(tag={self.tag})"


class TranslationPlan:
    """Outcome of splitting an assignment: fixed items plus equality splits."""

    __slots__ = ("fixed", "splits")

    def __init__(self, fixed: List[BranchItem], splits: List[List[BranchItem]]):
        self.fixed = fixed
        self.splits = splits

    def branches(self):
        """Iterate the fully-split branches (cartesian product of choices)."""
        if not self.splits:
            yield list(self.fixed)
            return
        for choice in itertools.product(*self.splits):
            yield self.fixed + list(choice)


class TheoryVerdict:
    """Outcome of checking one Boolean assignment against theory."""

    __slots__ = ("feasible", "theory_model", "blocking", "definite")

    def __init__(
        self,
        feasible: bool,
        theory_model: Optional[Dict[str, float]] = None,
        blocking: Optional[List[int]] = None,
        definite: bool = True,
    ):
        self.feasible = feasible
        self.theory_model = theory_model
        self.blocking = blocking
        self.definite = definite  # False when incompleteness was involved


# ----------------------------------------------------------------------
# Module-level helpers shared by the stages and the entry points
# ----------------------------------------------------------------------
def complete_theory_model(
    problem: ABProblem,
    theory_model: Dict[str, float],
    domains: Mapping[str, str],
) -> None:
    """Give unconstrained theory variables a (bound-respecting) value."""
    for var in problem.theory_variables():
        if var in theory_model:
            if domains.get(var) == "int":
                theory_model[var] = float(round(theory_model[var]))
            continue
        low, high = problem.bounds.get(var, (None, None))
        value = 0.0
        if low is not None and value < low:
            value = float(low)
        if high is not None and value > high:
            value = float(high)
        if domains.get(var) == "int":
            value = float(math.ceil(value)) if low is not None and value == low else float(round(value))
        theory_model[var] = value


def declared_bound_rows(problem: ABProblem) -> List[LinearConstraint]:
    """The problem's declared variable box as untagged linear rows."""
    rows: List[LinearConstraint] = []
    for var, (low, high) in problem.bounds.items():
        if low is not None:
            rows.append(
                LinearConstraint({var: Fraction(1)}, Relation.GE, Fraction(low).limit_denominator(10**9))
            )
        if high is not None:
            rows.append(
                LinearConstraint({var: Fraction(1)}, Relation.LE, Fraction(high).limit_denominator(10**9))
            )
    return rows


def _integral_ok(
    point: Mapping[str, float], domains: Mapping[str, str], tolerance: float
) -> bool:
    for var, value in point.items():
        if domains.get(var) == "int" and abs(value - round(value)) > tolerance:
            return False
    return True


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class CandidateGenerationStage:
    """Stage 1: produce Boolean candidate assignments, absorb blocking clauses.

    The wrapped Boolean adapter persists across queries — learned clauses,
    VSIDS activities, and saved phases all carry over, which is the main
    clause-reuse lever of incremental sessions.  Session lemmas are guarded
    by activation literals, so the clause database stays valid across
    structural changes.
    """

    name = "boolean"

    #: Kernel counters mirrored into :class:`SolveStatistics` after each
    #: solve call (delta-synced, like ``warm_start_hits`` in the linear
    #: stage, because the adapter reports cumulative totals).
    _KERNEL_COUNTERS = ("heap_decisions", "clauses_reduced", "clauses_minimized_lits")

    def __init__(self, pipeline: "SolvePipeline", boolean: BooleanSolverInterface):
        self._pipeline = weakref.proxy(pipeline)
        self._boolean = boolean
        self._cnf: Optional[CNF] = None
        self._kernel_seen = {name: 0 for name in self._KERNEL_COUNTERS}

    @property
    def solver(self) -> BooleanSolverInterface:
        return self._boolean

    def prepare(self, cnf: CNF) -> None:
        """Bind the CNF fed to the adapter's first solve."""
        if self._cnf is None:
            self._cnf = cnf

    @property
    def prepared(self) -> bool:
        return self._cnf is not None

    def next_candidate(self, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._cnf is None:
            raise RuntimeError("CandidateGenerationStage.prepare was never called")
        pipeline = self._pipeline
        stats = pipeline.stats
        with pipeline.stage(self.name, backend=self._boolean.name):
            alpha = self._boolean.solve(self._cnf, assumptions)
        stats.boolean_queries += 1
        kernel_stats = getattr(self._boolean, "statistics", None)
        if kernel_stats:
            seen = self._kernel_seen
            for name in self._KERNEL_COUNTERS:
                total = kernel_stats.get(name, 0)
                if total > seen[name]:
                    setattr(stats, name, getattr(stats, name) + total - seen[name])
                    seen[name] = total
        return alpha

    def block(self, clause: Sequence[int]) -> None:
        # Blocking clauses are not implied by the formula; mark them
        # protected so clause-database reduction can never delete them.
        self._boolean.add_clause(clause, protected=True)


class TheoryTranslationStage:
    """Stage 2: Boolean assignment -> theory constraint branches, memoized.

    ``(tag, constraint fingerprint)`` -> :class:`LinearConstraint` (the
    expensive ``linear_form`` normalization) plus the negation-alternative
    lists.  Rows are content-addressed via :meth:`Constraint.fingerprint`,
    so they survive definition retraction/redefinition: a re-pushed
    definition with the same content hits immediately, while changed
    content simply keys a new entry.  The bound rows shared by every
    system are memoized until the bounds or the presolve store change.

    Both survive across queries of a session;
    :meth:`invalidate_definitions` drops the per-variable alternative
    lists of retracted definitions.  Each branch's
    :class:`LinearSystem` is built afresh from the cached rows; handing
    back the same row objects lets each row keep what an engine derived
    from it (its difference-logic edges).  :meth:`materialize` adds its
    row-cache hits and misses to the statistics once per branch; the bound
    rows count as neither.
    """

    name = "translate"

    ROW_CACHE_LIMIT = 8192

    def __init__(self, pipeline: "SolvePipeline"):
        self._pipeline = weakref.proxy(pipeline)
        self._rows: Dict[object, LinearConstraint] = {}
        self._alternatives: Dict[int, List[Constraint]] = {}
        self._bound_rows: Optional[List[LinearConstraint]] = None

    # -- assignment splitting ------------------------------------------
    def plan(self, problem: ABProblem, alpha: Assignment) -> TranslationPlan:
        stats = self._pipeline.stats
        fixed: List[BranchItem] = []
        splits: List[List[BranchItem]] = []
        for var, definition in problem.definitions.items():
            phase = alpha.get(var, False)
            if phase:
                fixed.append(BranchItem(definition.constraint, var))
            else:
                alternatives = self._alternatives.get(var)
                if alternatives is None:
                    alternatives = definition.constraint.negated_alternatives()
                    self._alternatives[var] = alternatives
                if len(alternatives) == 1:
                    fixed.append(BranchItem(alternatives[0], -var))
                else:
                    stats.equality_splits += 1
                    splits.append([BranchItem(alt, -var) for alt in alternatives])
        return TranslationPlan(fixed, splits)

    # -- branch materialization ----------------------------------------
    def materialize(
        self,
        problem: ABProblem,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
    ) -> Tuple[LinearSystem, List[Tuple[Constraint, int]]]:
        """Build the linear system + nonlinear list of a branch."""
        linear_rows: List[LinearConstraint] = []
        nonlinear: List[Tuple[Constraint, int]] = []
        misses = 0
        for item in branch:
            if item.constraint.is_linear():
                row_key = (item.tag, item.constraint.fingerprint())
                row = self._rows.get(row_key)
                if row is None:
                    misses += 1
                    row = LinearConstraint.from_constraint(item.constraint, tag=item.tag)
                    if len(self._rows) >= self.ROW_CACHE_LIMIT:
                        self._rows.clear()
                    self._rows[row_key] = row
                linear_rows.append(row)
            else:
                nonlinear.append((item.constraint, item.tag))
        # Counted once per branch: a counter increment costs far more than
        # a cache lookup.
        stats = self._pipeline.stats
        stats.translation_cache_hits += len(linear_rows) - misses
        stats.translation_cache_misses += misses

        system = LinearSystem(linear_rows, domains)
        for row in self._get_bound_rows(problem):
            system.add(row)
        return system, nonlinear

    def _get_bound_rows(self, problem: ABProblem) -> List[LinearConstraint]:
        """Variable bounds become untagged rows of every LP.

        When the presolve stage holds an active :class:`BoundStore`, its
        tightened (still implied) bounds replace the raw declared box —
        this is the single point through which the shared store reaches
        the linear engines.
        """
        if self._bound_rows is not None:
            self._pipeline.stats.bound_rows_cache_hits += 1
            return self._bound_rows
        store = self._pipeline.presolve.active_store()
        rows = store.bound_rows() if store is not None else declared_bound_rows(problem)
        self._bound_rows = rows
        return rows

    # -- invalidation ---------------------------------------------------
    def invalidate_definitions(self, variables: Sequence[int]) -> None:
        """Drop per-variable caches of retracted (popped) definitions.

        Translated rows are content-addressed (tag + constraint
        fingerprint) and stay valid across retraction — a redefinition
        with different content keys a fresh entry on its own.
        """
        for var in variables:
            self._alternatives.pop(var, None)

    def bounds_changed(self) -> None:
        self._bound_rows = None


class LinearCheckStage:
    """Stage 3: decide the linear constituent of a branch."""

    name = "linear"

    def __init__(self, pipeline: "SolvePipeline", linear: LinearSolverInterface):
        self._pipeline = weakref.proxy(pipeline)
        self._linear = linear
        self._warm_seen = 0
        self._numpy_seen = (0, 0)

    @property
    def solver(self) -> LinearSolverInterface:
        return self._linear

    def check(self, system: LinearSystem) -> LPResult:
        pipeline = self._pipeline
        stats = pipeline.stats
        with pipeline.stage(
            self.name, backend=self._linear.name, rows=len(system.rows)
        ):
            result = self._linear.check(system)
        stats.linear_checks += 1
        hits = getattr(self._linear, "warm_start_hits", 0)
        if hits > self._warm_seen:
            stats.warm_start_hits += hits - self._warm_seen
            self._warm_seen = hits
        accepts = getattr(self._linear, "numpy_accepts", 0)
        fallbacks = getattr(self._linear, "numpy_fallbacks", 0)
        seen_accepts, seen_fallbacks = self._numpy_seen
        if accepts > seen_accepts or fallbacks > seen_fallbacks:
            stats.numpy_accepts += accepts - seen_accepts
            stats.numpy_fallbacks += fallbacks - seen_fallbacks
            self._numpy_seen = (accepts, fallbacks)
        return result


class NonlinearCheckStage:
    """Stage 4: route a surviving candidate through the nonlinear solver list.

    "at each of those steps a list of solvers is used, if more than one
    solver is enabled for some domain and the preceding solvers thereof
    failed to provide a decent result" (Sec. 4).
    """

    name = "nonlinear"

    def __init__(
        self,
        pipeline: "SolvePipeline",
        chain: Sequence[NonlinearSolverInterface],
        tolerance: float,
    ):
        self._pipeline = weakref.proxy(pipeline)
        self._chain = list(chain)
        self._tolerance = tolerance

    def search(
        self,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
        hint: Mapping[str, float],
        bounds: Bounds,
    ) -> Optional[Dict[str, float]]:
        """Find a theory point satisfying the whole branch in ``bounds``, or None."""
        pipeline = self._pipeline
        stats = pipeline.stats
        observer = pipeline.observer
        all_constraints = [item.constraint for item in branch]
        hints = [dict(hint)]
        for solver in self._chain:
            if not solver.applicable(all_constraints):
                continue
            with pipeline.stage(
                self.name, backend=solver.name, constraints=len(all_constraints)
            ):
                nlp = solver.solve(all_constraints, bounds=bounds, hints=hints)
            stats.nonlinear_calls += 1
            if nlp.status is NLPStatus.SAT and _integral_ok(
                nlp.point, domains, self._tolerance
            ):
                return dict(nlp.point)
            # "the preceding solvers thereof failed to provide a decent
            # result" (Sec. 4): the loop falls through to the next solver.
            if observer.active:
                observer.publish(
                    NonlinearFallback(solver=solver.name, status=nlp.status.value)
                )
        return None


class ConflictRefinementStage:
    """Stage 5: explain a failed branch as a (small) blocking clause.

    Linear conflicts go through the LP adapter's IIS refinement; nonlinear
    branches meet the interval branch-and-prune refuter twice: with a
    one-box budget before the local search (the probe), and in full when
    the search finds no point.  A refutation certifies the conflict; a
    failure of both marks the query incomplete.
    """

    name = "refine"

    def __init__(
        self,
        pipeline: "SolvePipeline",
        linear: LinearSolverInterface,
        refine_conflicts: bool,
        use_interval_refuter: bool,
    ):
        self._pipeline = weakref.proxy(pipeline)
        self._linear = linear
        self._refine_conflicts = refine_conflicts
        self._use_interval_refuter = use_interval_refuter

    def refine_linear(self, system: LinearSystem) -> Refinement:
        pipeline = self._pipeline
        stats = pipeline.stats
        if not self._refine_conflicts:
            tags = [row.tag for row in system.rows if isinstance(row.tag, int)]
            return Refinement(tags, minimal=False)
        with pipeline.stage(self.name, kind="iis", backend=self._linear.name):
            refinement = self._linear.refine(system)
        stats.conflicts_refined += 1
        if pipeline.observer.active:
            pipeline.observer.publish(
                ConflictRefined(
                    minimal=refinement.minimal,
                    core_size=len(refinement.conflicting_tags),
                )
            )
        return refinement

    def refute_interval(
        self,
        branch: Sequence[BranchItem],
        box: Bounds,
        max_boxes: Optional[int] = None,
    ) -> Optional[RefuteResult]:
        """Try to certify infeasibility of the branch over interval boxes.

        The search starts from ``box``; a variable without a bound there gets
        an unbounded interval, so a refutation remains globally sound.
        ``max_boxes`` caps the boxes explored (``None``: the refuter's own
        budget).  Returns None when the interval refuter is switched off.
        """
        if not self._use_interval_refuter:
            return None
        pipeline = self._pipeline
        constraints = [item.constraint for item in branch]
        variables = sorted({v for c in constraints for v in c.variables()})
        bounds: Dict[str, Tuple[float, float]] = {}
        for var in variables:
            low, high = box.get(var, (None, None))
            bounds[var] = (
                low if low is not None else -math.inf,
                high if high is not None else math.inf,
            )
        refuter = IntervalRefuter() if max_boxes is None else IntervalRefuter(max_boxes)
        with pipeline.stage(self.name, kind="interval", constraints=len(constraints)):
            result = refuter.refute(constraints, bounds)
        if result.status is RefuteStatus.REFUTED:
            pipeline.stats.interval_refutations += 1
            if pipeline.observer.active:
                pipeline.observer.publish(IntervalRefuted(branch_size=len(branch)))
        return result


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class SolvePipeline:
    """Candidate -> translate -> linear -> nonlinear -> refine, in a loop.

    One pipeline owns one set of substrate solvers and caches; it may serve
    many queries against the *same* evolving problem (that is what sessions
    do).  ``stats`` is swapped per query by the owner.
    """

    def __init__(
        self,
        config,  # ABSolverConfig; untyped to avoid a circular import
        registry: Optional[SolverRegistry] = None,
        stats: Optional[SolveStatistics] = None,
    ):
        self.config = config
        self.registry = registry or default_registry
        self.stats = stats or SolveStatistics()
        #: The config's :class:`~repro.obs.observer.Observer`, or a private
        #: one with no sinks (inactive: publishers check
        #: :attr:`Observer.active` before building events).
        self.observer = getattr(config, "observer", None) or Observer()
        #: Optional :class:`repro.core.verdict_cache.VerdictCache` consulted
        #: by :meth:`run_query` before the solve and populated on completion.
        self.verdict_cache = getattr(config, "verdict_cache", None)

        #: The Boolean engine's keyword arguments: ``boolean_options`` over
        #: the config-level ``clause_decay`` and ``reduce_interval``.  Only
        #: CDCL-family engines take those two; other Boolean backends
        #: (plain DPLL) ignore them.  All-models enumeration builds its
        #: enumerator from the same options.
        self.boolean_options = dict(config.boolean_options)
        if config.boolean in CDCL_FAMILY:
            for knob in ("clause_decay", "reduce_interval"):
                value = getattr(config, knob)
                if value is not None:
                    self.boolean_options.setdefault(knob, value)
        linear: LinearSolverInterface = self.registry.create(
            DOMAIN_LINEAR, config.linear, **config.linear_options
        )
        chain: List[NonlinearSolverInterface] = [
            self.registry.create(DOMAIN_NONLINEAR, name, **config.nonlinear_options)
            for name in config.nonlinear
        ]

        self.presolve = PresolveStage(self)
        self.candidate = self._new_candidate_stage()
        self.translation = TheoryTranslationStage(self)
        self.linear = LinearCheckStage(self, linear)
        self.nonlinear = NonlinearCheckStage(self, chain, config.tolerance)
        self.refinement = ConflictRefinementStage(
            self,
            linear,
            refine_conflicts=config.refine_conflicts,
            use_interval_refuter=config.use_interval_refuter,
        )
        #: Memoized defined-variable order of :meth:`fallback_blocking_clause`
        #: (``None`` = recompute; invalidated on definition changes).
        self._blocking_vars: Optional[Tuple[int, ...]] = None

    def _new_candidate_stage(self) -> CandidateGenerationStage:
        boolean: BooleanSolverInterface = self.registry.create(
            DOMAIN_BOOLEAN, self.config.boolean, **self.boolean_options
        )
        return CandidateGenerationStage(self, boolean)

    def stage(self, name: str, **args):
        """One stage entry, as one ``with``.

        Records the stage in the ``name`` histogram of the current query's
        :attr:`stats` (``stats.timed``); with a tracer or memory profiler
        on the :attr:`observer` it also opens a span carrying ``args`` and
        takes a memory reading.
        """
        return self.observer.stage(self.stats, name, args)

    # ------------------------------------------------------------------
    # Structural-change hooks (driven by SolverSession)
    # ------------------------------------------------------------------
    def prepare(self, cnf: CNF) -> None:
        self.candidate.prepare(cnf)

    def definitions_added(self) -> None:
        self.presolve.invalidate()
        self._blocking_vars = None

    def definitions_removed(self, variables: Sequence[int]) -> None:
        # The linear warm-start caches deliberately survive this hook: cached
        # points are revalidated with exact arithmetic before every reuse, so
        # retracting definitions can only cause a failed validation, never a
        # wrong verdict.  (Clearing them here is why warm_start_hits used to
        # flatline at 0 across session push/pop sequences.)
        self.translation.invalidate_definitions(variables)
        self.presolve.retract(variables)
        self._blocking_vars = None

    def bounds_changed(self) -> None:
        # Same reasoning as definitions_removed: warm-start entries are keyed
        # on row structure and revalidated exactly, so bound shifts are safe.
        # Presolve compares the box with the one it last saw: a widened or
        # removed bound makes it start from empty.
        self.translation.bounds_changed()
        self.presolve.invalidate()

    def clauses_changed(self) -> None:
        """The CNF gained clauses: presolve extends its store on the next query.

        Translation caches are untouched — they key on definition content,
        not on the clause set.
        """
        self.presolve.invalidate()

    def clauses_retracted(self) -> None:
        """The CNF lost clauses (``pop``): presolve starts from empty."""
        self.presolve.retract()

    def restart_boolean(self) -> None:
        """Replace the Boolean engine, and every clause it learned or was
        given, with a fresh one; it must be prepared again."""
        self.candidate = self._new_candidate_stage()

    def presolve_store_changed(self) -> None:
        """The :class:`BoundStore`'s bounds moved, or a store started from
        empty differs from the last one."""
        self.translation.bounds_changed()

    # ------------------------------------------------------------------
    # Candidate blocking (hot path of all-models enumeration)
    # ------------------------------------------------------------------
    def fallback_blocking_clause(self, problem: ABProblem, alpha: Assignment) -> List[int]:
        """Block the assignment restricted to defined variables (the full
        assignment when nothing is defined).  The defined-variable
        enumeration is memoized per problem: every blocked candidate of an
        all-models run walks the same definition set."""
        variables = self._blocking_vars
        if variables is None:
            self._blocking_vars = variables = tuple(problem.definitions)
        if not variables:  # no definitions: block the full assignment
            return [(-var if value else var) for var, value in alpha.items()]
        get = alpha.get
        return [(-var if get(var, False) else var) for var in variables]

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def run_query(
        self,
        problem: ABProblem,
        assumptions: Sequence[int] = (),
        record_certificate: bool = False,
        on_lemma: Optional[LemmaHook] = None,
        prior_incomplete: bool = False,
        poll: Optional[Callable[[], bool]] = None,
        cache_assumptions: Optional[Sequence[int]] = None,
    ):
        """One full solve over the current problem; returns an ``ABResult``.

        ``on_lemma`` lets the owner intercept every theory lemma before it
        reaches the Boolean solver (sessions guard lemmas with activation
        literals there); ``prior_incomplete`` carries a session's memory of
        still-active indefinite blocks, which downgrade an exhausted Boolean
        space from UNSAT to UNKNOWN.

        ``poll`` is called once per control-loop iteration; returning False
        abandons the query with an UNKNOWN "cancelled" result (a caller's
        deadline or cancellation check).

        When the config carries a :class:`VerdictCache`, the cache is
        consulted before the solve (and before stage 0, when that runs) —
        keyed on the canonical problem
        fingerprint plus ``cache_assumptions`` (the user-level literals of
        the query; sessions pass them explicitly so their activation
        literals stay out of the key).  Cached UNSAT verdicts return
        immediately; cached SAT witnesses are revalidated against the live
        problem first, and a failed revalidation falls through to a normal
        solve.  Completed SAT/UNSAT runs are written back; certificate runs
        bypass the cache entirely so the recorded lemma stream stays
        self-contained.

        Progress is published as typed events on :attr:`observer`; nothing
        is built when no sink is attached.
        """
        from .expr import intern_counters

        stats = self.stats
        intern_before = intern_counters()["hits"]
        cache = self.verdict_cache
        key = None
        try:
            if cache is not None and not record_certificate:
                if cache_assumptions is None:
                    cache_assumptions = tuple(assumptions)
                key = cache.key(problem, cache_assumptions, self.config.tolerance)
                entry = cache.lookup(key)
                if entry is not None:
                    replay = self._replay_cached_verdict(
                        problem, entry, cache_assumptions
                    )
                    if replay is not None:
                        stats.verdict_cache_hits += 1
                        return replay
                stats.verdict_cache_misses += 1
            result = self._run_query_inner(
                problem,
                assumptions,
                record_certificate,
                on_lemma,
                prior_incomplete,
                poll,
            )
            if key is not None:
                self._store_verdict(cache, key, problem, result)
            return result
        finally:
            stats.intern_hits += intern_counters()["hits"] - intern_before

    def _replay_cached_verdict(self, problem, entry, assumptions):
        """Turn a cache entry into a result, or None when it cannot be trusted.

        UNSAT entries are definitive (only complete runs store them, and a
        key match means the same query semantics).  SAT entries must agree
        with the requested assumptions and pass the live
        :meth:`ABProblem.check_model` at the current tolerance; failing
        that, ``None`` falls the query through to a normal solve.
        """
        from .solver import ABModel, ABResult, ABStatus

        stats = self.stats
        observer = self.observer
        if entry.status == "unsat":
            if observer.active:
                observer.publish(VerdictReached(status="unsat", iterations=0))
            return ABResult(ABStatus.UNSAT, stats=stats, reason="verdict-cache")
        boolean = dict(entry.boolean)
        theory = dict(entry.theory)
        assumptions_ok = all(
            boolean.get(abs(literal), False) is (literal > 0)
            for literal in assumptions
        )
        if assumptions_ok and problem.check_model(
            boolean, theory, tolerance=self.config.tolerance
        ):
            if observer.active:
                observer.publish(VerdictReached(status="sat", iterations=0))
            return ABResult(ABStatus.SAT, model=ABModel(boolean, theory), stats=stats)
        return None

    def _store_verdict(self, cache, key, problem, result) -> None:
        from .solver import ABStatus

        if result.status is ABStatus.SAT and result.model is not None:
            # Keep only problem-level Boolean variables: a session's model
            # may mention its activation literals, which are process-local
            # and meaningless to other consumers of the entry.
            num_vars = problem.cnf.num_vars
            boolean = {
                var: value
                for var, value in result.model.boolean.items()
                if var <= num_vars
            }
            cache.store(key, "sat", boolean, result.model.theory)
        elif result.status is ABStatus.UNSAT:
            cache.store(key, "unsat")
        else:
            return
        self.stats.verdict_cache_stores += 1

    def _run_query_inner(
        self,
        problem: ABProblem,
        assumptions: Sequence[int] = (),
        record_certificate: bool = False,
        on_lemma: Optional[LemmaHook] = None,
        prior_incomplete: bool = False,
        poll: Optional[Callable[[], bool]] = None,
    ):
        """The control loop proper (stages 0-5); see :meth:`run_query`."""
        from .solver import ABModel, ABResult, ABStatus

        config = self.config
        stats = self.stats
        observer = self.observer

        # Stage 0: formula-level presolve.  Computed once per structural
        # state of the problem (sessions extend it as the formula grows and
        # start it from empty on a pop), the store short-circuits
        # provably-infeasible stacks, seeds the Boolean solver with deduced
        # unit facts, and hands tightened bounds to every later stage.
        store = self.presolve.ensure(problem)
        # First heartbeat before the control loop: even a query the presolve
        # stage settles outright emits >= 1 snapshot.
        observer.tick("presolve", stats)
        if store is not None:
            if store.infeasible:
                if observer.active:
                    observer.publish(PresolveInfeasible(reason=store.infeasible_reason))
                    observer.publish(VerdictReached(status="unsat", iterations=0))
                return ABResult(
                    ABStatus.UNSAT,
                    stats=stats,
                    reason=f"presolve: {store.infeasible_reason}",
                )
            # Only the units not sent yet: a resumed store appends units.
            sent = store.units_sent
            if sent < len(store.units):
                store.units_sent = len(store.units)
                for literal in store.units[sent:]:
                    stats.presolve_units_emitted += 1
                    unit = [literal]
                    solver_clause = (
                        on_lemma(list(unit), True) if on_lemma is not None else unit
                    )
                    self.candidate.block(solver_clause)

        domains = problem.variable_domains()
        complete = not prior_incomplete
        lemmas: List[List[int]] = []

        for iteration in range(config.max_iterations):
            # Same cadence as the poll cancellation hook: one tick per
            # control-loop iteration keeps the watchdog fed and the
            # heartbeat counters fresh without touching the stage hot paths.
            observer.tick("boolean", stats, iteration=iteration)
            if poll is not None and not poll():
                if observer.active:
                    observer.publish(
                        VerdictReached(status="unknown", iterations=iteration)
                    )
                return ABResult(ABStatus.UNKNOWN, stats=stats, reason="cancelled")
            alpha = self.candidate.next_candidate(assumptions)
            if alpha is None:
                if complete:
                    certificate = None
                    if record_certificate:
                        from .certify import UnsatCertificate

                        certificate = UnsatCertificate(lemmas)
                    if observer.active:
                        observer.publish(
                            VerdictReached(status="unsat", iterations=iteration)
                        )
                    return ABResult(
                        ABStatus.UNSAT, stats=stats, certificate=certificate
                    )
                if observer.active:
                    observer.publish(
                        VerdictReached(status="unknown", iterations=iteration)
                    )
                return ABResult(
                    ABStatus.UNKNOWN,
                    stats=stats,
                    reason="Boolean space exhausted, but some nonlinear "
                    "candidates could be neither satisfied nor refuted",
                )
            if observer.active:
                observer.publish(
                    CandidateFound(
                        iteration=iteration,
                        defined_true=sum(
                            1 for var in problem.definitions if alpha.get(var, False)
                        ),
                    )
                )
            verdict = self.check_candidate(problem, alpha, domains)
            if verdict.feasible:
                if observer.active:
                    observer.publish(TheoryFeasible(iteration=iteration))
                theory = verdict.theory_model or {}
                # Final guard: the accepted model must satisfy every clause
                # (a variable the engine left unassigned counts as False)
                # and every definition, up to the tolerance.
                if not problem.check_model(alpha, theory, tolerance=config.tolerance):
                    raise AssertionError("accepted model failed the model check")
                if observer.active:
                    observer.publish(
                        VerdictReached(status="sat", iterations=iteration + 1)
                    )
                return ABResult(ABStatus.SAT, model=ABModel(alpha, theory), stats=stats)
            if not verdict.definite:
                complete = False
            blocking = verdict.blocking or self.fallback_blocking_clause(problem, alpha)
            stats.blocking_clauses += 1
            if observer.active:
                observer.publish(
                    BlockingClauseAdded(
                        iteration=iteration,
                        blocking_size=len(blocking),
                        definite=verdict.definite,
                    )
                )
            if record_certificate:
                lemmas.append(list(blocking))
            solver_clause = (
                on_lemma(list(blocking), verdict.definite)
                if on_lemma is not None
                else blocking
            )
            self.candidate.block(solver_clause)
        return ABResult(
            ABStatus.UNKNOWN, stats=stats, reason="iteration budget exhausted"
        )

    # ------------------------------------------------------------------
    # Theory checking (stages 2-5 over one candidate)
    # ------------------------------------------------------------------
    def check_candidate(
        self,
        problem: ABProblem,
        alpha: Assignment,
        domains: Optional[Mapping[str, str]] = None,
    ) -> TheoryVerdict:
        """Check one Boolean assignment against the arithmetic definitions."""
        if domains is None:
            domains = problem.variable_domains()
        stats = self.stats
        with self.stage(self.translation.name, phase="plan"):
            plan = self.translation.plan(problem, alpha)
        if len(plan.splits) > self.config.max_equality_splits:
            raise RuntimeError(
                f"{len(plan.splits)} simultaneous negated equalities exceed the "
                f"configured split budget ({self.config.max_equality_splits})"
            )

        refinements: List[Refinement] = []
        indefinite = False
        for branch in plan.branches():
            outcome = self._check_branch(problem, branch, domains)
            if outcome.feasible:
                return outcome
            if not outcome.definite:
                indefinite = True
            if outcome.blocking is not None:
                refinements.append(
                    Refinement([-l for l in outcome.blocking], minimal=True)
                )

        if indefinite:
            return TheoryVerdict(False, definite=False)
        # All branches failed definitely.  The union of branch cores forms a
        # sound conflict over the original assignment (see DESIGN.md).
        union_tags = sorted({tag for r in refinements for tag in r.conflicting_tags})
        if union_tags:
            return TheoryVerdict(False, blocking=[-t for t in union_tags])
        return TheoryVerdict(False)

    def _check_branch(
        self,
        problem: ABProblem,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
    ) -> TheoryVerdict:
        """Check one fully-split constraint conjunction."""
        with self.stage(self.translation.name, phase="materialize", branch=len(branch)):
            system, nonlinear_constraints = self.translation.materialize(
                problem, branch, domains
            )

        lp_result = self.linear.check(system)
        if lp_result.status is not LPStatus.FEASIBLE:
            refinement = self.refinement.refine_linear(system)
            return TheoryVerdict(False, blocking=refinement.blocking_clause())

        if not nonlinear_constraints:
            theory_model = {var: float(value) for var, value in lp_result.point.items()}
            complete_theory_model(problem, theory_model, domains)
            return TheoryVerdict(True, theory_model=theory_model)

        # Nonlinear treatment: the candidate must satisfy the *whole* branch.
        # The probe contracts the root box once and checks it: that refutes
        # conflicts like ``nonlinear_unsat`` before any local search, and
        # otherwise narrows the box the search samples.
        store = self.presolve.active_store()
        declared = (
            store.float_box(problem.bounds) if store is not None else problem.bounds
        )
        probe = self.refinement.refute_interval(branch, declared, PROBE_BOXES)
        if probe is not None and probe.refuted:
            return TheoryVerdict(False, blocking=[-item.tag for item in branch])
        box = declared
        if probe is not None and probe.root_box:
            box = {**declared, **probe.root_box}
        hint = {var: float(value) for var, value in lp_result.point.items()}
        point = self.nonlinear.search(
            branch, domains, hint, box or problem.effective_bounds()
        )
        if point is not None:
            complete_theory_model(problem, point, domains)
            return TheoryVerdict(True, theory_model=point)

        # Local search failed: try to *refute* the branch with intervals.
        result = self.refinement.refute_interval(branch, declared)
        if result is not None and result.refuted:
            return TheoryVerdict(False, blocking=[-item.tag for item in branch])
        return TheoryVerdict(False, definite=False)
