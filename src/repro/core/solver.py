"""The ABsolver control loop (paper, Sec. 1 and Sec. 4).

The algorithm, as the paper sketches it:

1. Query a SAT solver for a single solution (or all solutions at once) of
   the Boolean part of the AB-problem.
2. The assignment implies a theory constraint system: for every defined
   Boolean variable ``v`` with constraint ``a``, assert ``a`` when
   ``alpha(v)`` and the negation of ``a`` otherwise.  The negation of an
   equation splits into ``<`` or ``>`` — both are tried.
3. The linear constituents go to the linear solver.  "If infeasibility is
   detected, the smallest conflicting subset is computed and returned as a
   hint for further queries to the SAT-solver" — a blocking clause built
   from an IIS.
4. "In case the output pin's value of the circuit is not yet known (i.e.
   alpha'(.) = ?), the nonlinear solver is called" — the candidate is routed
   through the nonlinear solver list until one produces a decent result.
   The pin reads ``?`` exactly when the candidate's branch still holds
   nonlinear constraints after the linear check, so the loop tests that and
   builds no gate graph (:mod:`repro.core.circuit` keeps the Fig. 5
   representation for display).
5. Iterate "until a solution is found, or all possible assignments have
   been shown infeasible".

Nonlinear feasibility search is local and incomplete; ABsolver therefore
pairs it with an interval branch-and-prune refuter that can certify
nonlinear conflicts.  When neither settles a candidate, the loop blocks the
assignment and remembers that completeness was lost: exhausting the Boolean
space then yields UNKNOWN instead of UNSAT.

The loop itself lives in :mod:`repro.core.pipeline` as five composable
stages; :class:`ABSolver` drives a single-use
:class:`~repro.core.session.SolverSession` over it.  Long-lived sessions
with ``push``/``pop`` and cross-query lemma reuse are the incremental
interface built on the same machinery.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterator, Mapping, Optional, Sequence, Set

from ..sat.allsat import AllSATSolver
from ..sat.cnf import Assignment
from .interface import BooleanSolverInterface
from .pipeline import CandidateGenerationStage, SolvePipeline
from .problem import ABProblem
from .registry import SolverRegistry, default_registry
from .stats import SolveStatistics

__all__ = ["ABStatus", "ABModel", "ABResult", "ABSolverConfig", "ABSolver"]


class ABStatus(enum.Enum):
    """Final verdict of an AB-problem solve."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class ABModel:
    """A full model: Boolean assignment plus theory point.

    Models are immutable and hashable, so sessions and all-SAT enumeration
    can dedupe them in a set.  The ``boolean`` / ``theory`` properties
    return fresh dict copies; mutating a copy never affects the model.
    """

    __slots__ = ("_boolean", "_theory", "_hash")

    def __init__(self, boolean: Mapping[int, bool], theory: Mapping[str, float]):
        object.__setattr__(self, "_boolean", dict(boolean))
        object.__setattr__(self, "_theory", dict(theory))
        object.__setattr__(self, "_hash", None)

    @property
    def boolean(self) -> Dict[int, bool]:
        return dict(self._boolean)

    @property
    def theory(self) -> Dict[str, float]:
        return dict(self._theory)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ABModel is immutable")

    def __reduce__(self):
        # Immutability breaks default slot-state pickling; rebuild through
        # the constructor instead.
        return (ABModel, (self._boolean, self._theory))

    def __repr__(self) -> str:
        return f"ABModel(boolean={self._boolean}, theory={self._theory})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ABModel)
            and other._boolean == self._boolean
            and other._theory == self._theory
        )

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(
                (
                    frozenset(self._boolean.items()),
                    frozenset(self._theory.items()),
                )
            )
            object.__setattr__(self, "_hash", cached)
        return cached


class ABResult:
    """Solve outcome: status, witness model (for SAT), statistics."""

    def __init__(
        self,
        status: ABStatus,
        model: Optional[ABModel] = None,
        stats: Optional[SolveStatistics] = None,
        reason: str = "",
        certificate: Optional[object] = None,
    ):
        self.status = status
        self.model = model
        self.stats = stats or SolveStatistics()
        self.reason = reason
        #: UNSAT runs started with ``record_certificate=True`` carry an
        #: :class:`repro.core.certify.UnsatCertificate` here.
        self.certificate = certificate

    @property
    def is_sat(self) -> bool:
        return self.status is ABStatus.SAT

    @property
    def is_unsat(self) -> bool:
        return self.status is ABStatus.UNSAT

    def __repr__(self) -> str:
        return f"ABResult({self.status.value}{', ' + self.reason if self.reason else ''})"


class ABSolverConfig:
    """Configuration: which named solver runs each domain, plus loop knobs.

    The defaults mirror the paper's flagship combination — CDCL ("zChaff")
    for Boolean, exact simplex/B&B ("COIN") for linear, and the Newton →
    augmented-Lagrangian list ("IPOPT") for nonlinear.  ``nonlinear`` is an
    ordered *list*: "at each of those steps a list of solvers is used, if
    more than one solver is enabled for some domain and the preceding
    solvers thereof failed to provide a decent result" (Sec. 4).

    Args:
        boolean: registry name of the Boolean engine (``cdcl``,
            ``dpll``, ``lsat``).
        linear: registry name of the linear engine (``simplex``,
            ``simplex-numpy`` — float64 filter with exact certification,
            ``difference``).
        nonlinear: ordered registry names tried in turn (``newton``,
            ``auglag``, ``scipy-slsqp``).
        refine_conflicts: shrink theory conflicts to an IIS before
            blocking (off: block the full assignment).
        use_interval_refuter: allow interval branch-and-prune to *prove*
            nonlinear conflicts (UNSAT evidence).
        use_presolve: run the formula-level presolve stage
            (:class:`repro.core.presolve.PresolveStage`) before the control
            loop — bound propagation to fixpoint, interval contraction,
            and unit deduction shared by every downstream stage.  Off by
            default: on the paper's workloads it costs more than it
            prunes, and the one conflict it settled alone is refuted by
            the nonlinear branch probe.  Forced off under
            ``record_certificate``.
        record_certificate: record every theory lemma for
            :func:`repro.core.certify.verify_certificate`.
        max_iterations: control-loop iteration cap (then ``UNKNOWN``).
        max_equality_splits: cap on negated-equation ``<``/``>`` splits
            per candidate.
        tolerance: float comparison tolerance for nonlinear model checks
            (linear verdicts stay exact).
        boolean_options / linear_options / nonlinear_options: extra
            keyword arguments for the engine factories.
    """

    def __init__(
        self,
        boolean: str = "cdcl",
        linear: str = "simplex",
        nonlinear: Sequence[str] = ("newton", "auglag"),
        refine_conflicts: bool = True,
        use_interval_refuter: bool = True,
        record_certificate: bool = False,
        max_iterations: int = 200_000,
        max_equality_splits: int = 16,
        tolerance: float = 1e-6,
        boolean_options: Optional[Dict] = None,
        linear_options: Optional[Dict] = None,
        nonlinear_options: Optional[Dict] = None,
        observer: Optional[object] = None,
        use_presolve: bool = False,
        verdict_cache: Optional[object] = None,
        clause_decay: Optional[float] = None,
        reduce_interval: Optional[int] = None,
    ):
        self.boolean = boolean
        self.linear = linear
        self.nonlinear = tuple(nonlinear)
        self.refine_conflicts = refine_conflicts
        self.use_interval_refuter = use_interval_refuter
        self.record_certificate = record_certificate
        self.max_iterations = max_iterations
        self.max_equality_splits = max_equality_splits
        self.tolerance = tolerance
        self.boolean_options = dict(boolean_options or {})
        self.linear_options = dict(linear_options or {})
        self.nonlinear_options = dict(nonlinear_options or {})
        #: Optional :class:`repro.obs.observer.Observer`, the one
        #: observability setting: its sinks (span tracer, event sinks,
        #: flight recorder, progress monitor, memory profiler) see every
        #: stage entry, event and tick of the solve.  ``None`` gives each
        #: pipeline a private observer with no sinks.
        self.observer = observer
        #: Opt-in toggle for the formula-level presolve stage (stage 0 of
        #: the pipeline).  Certificate recording disables it regardless, so
        #: the recorded lemma stream stays self-contained.
        self.use_presolve = use_presolve
        #: Optional :class:`repro.core.verdict_cache.VerdictCache`.  When
        #: set, the pipeline consults it (keyed on the canonical problem
        #: fingerprint plus assumptions) before the solve and records
        #: completed verdicts, witness models, and definite lemmas on the
        #: way out.  CLI: ``--verdict-cache`` / ``--verdict-cache-dir``.
        self.verdict_cache = verdict_cache
        #: CDCL kernel tuning knobs.  ``clause_decay`` scales learned-clause
        #: activities (smaller forgets faster); ``reduce_interval`` is the
        #: conflict count between clause-database reduction sweeps (``0``
        #: disables reduction entirely).  ``None`` keeps the kernel
        #: defaults.  They only reach CDCL-family Boolean engines
        #: (``cdcl``, ``lsat``) and explicit ``boolean_options`` entries
        #: win.  CLI: ``--clause-decay`` / ``--reduce-interval``.
        self.clause_decay = clause_decay
        self.reduce_interval = reduce_interval


class ABSolver:
    """The multi-domain satisfiability engine."""

    def __init__(
        self,
        config: Optional[ABSolverConfig] = None,
        registry: Optional[SolverRegistry] = None,
    ):
        self.config = config or ABSolverConfig()
        self.registry = registry or default_registry
        self.stats = SolveStatistics()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def solve(
        self, problem: ABProblem, assumptions: Sequence[int] = ()
    ) -> ABResult:
        """Decide satisfiability of an AB-problem.

        ``assumptions`` are Boolean literals forced for this query only
        (e.g. pin a mode bit, or a definition's phase, without copying the
        problem); an UNSAT answer then means "unsatisfiable under the
        assumptions".

        Each call runs a fresh single-use
        :class:`~repro.core.session.SolverSession`; use a session directly
        when solving a family of related queries incrementally.
        """
        from .session import SolverSession

        session = SolverSession(self.config, self.registry)
        session.assert_problem(problem)
        result = session.check(assumptions)
        self.stats = result.stats
        return result

    def all_solutions(
        self, problem: ABProblem, limit: Optional[int] = None
    ) -> Iterator[ABModel]:
        """Enumerate all models of an AB-problem.

        Uses the Boolean solver's native all-SAT when available (the LSAT
        path) and ABsolver's own bookkeeping — iterated blocking clauses —
        otherwise, exactly as the paper describes.  Boolean assignments that
        fail their theory check are skipped; duplicate models (distinct
        assignments completing to the same point) are deduped via the
        models' hashability.
        """
        self.stats = SolveStatistics()
        pipeline = SolvePipeline(self.config, self.registry, stats=self.stats)
        boolean = pipeline.candidate.solver
        domains = problem.variable_domains()

        enumerator: Optional[AllSATSolver] = None
        if boolean.supports_all_models:
            enumerator = AllSATSolver(
                problem.cnf, **dict(pipeline.boolean_options, minimize=False)
            )
            models: Iterator[Assignment] = enumerator.enumerate()
        else:
            models = self._iterate_with_bookkeeping(boolean, problem)

        seen: Set[ABModel] = set()
        produced = 0
        try:
            for alpha in models:
                self.stats.models_enumerated += 1
                verdict = pipeline.check_candidate(problem, alpha, domains)
                if verdict.feasible:
                    model = ABModel(alpha, verdict.theory_model or {})
                    if model in seen:
                        continue
                    seen.add(model)
                    yield model
                    produced += 1
                    if limit is not None and produced >= limit:
                        return
        finally:
            if enumerator is not None:
                self._absorb_kernel_counters(enumerator.statistics)

    def _absorb_kernel_counters(self, kernel_stats: Dict[str, int]) -> None:
        """Fold a kernel's cumulative counters into this run's statistics."""
        for name in CandidateGenerationStage._KERNEL_COUNTERS:
            value = kernel_stats.get(name, 0)
            if value:
                setattr(self.stats, name, getattr(self.stats, name) + value)

    def _iterate_with_bookkeeping(
        self, boolean: BooleanSolverInterface, problem: ABProblem
    ) -> Iterator[Assignment]:
        """ABsolver's internal bookkeeping for non-all-SAT solvers."""
        seen: set = set()
        try:
            yield from self._bookkeeping_loop(boolean, problem, seen)
        finally:
            self._absorb_kernel_counters(getattr(boolean, "statistics", {}) or {})

    def _bookkeeping_loop(
        self, boolean: BooleanSolverInterface, problem: ABProblem, seen: set
    ) -> Iterator[Assignment]:
        while True:
            alpha = boolean.solve(problem.cnf)
            self.stats.boolean_queries += 1
            if alpha is None:
                return
            key = frozenset(alpha.items())
            if key in seen:
                # A registered engine answered the same model although its
                # blocking clause was added: it does not honour add_clause.
                # Fail loudly instead of looping.
                raise RuntimeError(
                    f"Boolean solver {type(boolean).__name__} repeated a model "
                    "during enumeration; its add_clause does not block "
                    "models, so all_solutions() cannot use it"
                )
            seen.add(key)
            yield alpha
            blocking = [(-var if value else var) for var, value in alpha.items()]
            if not blocking:
                return
            boolean.add_clause(blocking, protected=True)
