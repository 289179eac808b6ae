"""The picklable task protocol between the coordinator and its workers.

Everything that crosses the process boundary lives here:

* :class:`ConfigSpec` — a plain-data mirror of
  :class:`~repro.core.solver.ABSolverConfig` without the unpicklable
  observer.  The worker rebuilds a real config — with its *own*
  per-process :class:`~repro.obs.observer.Observer` when the task is
  observed.
* :class:`SolveTask` — one unit of work: the problem, the cube (assumption
  literals for ``check`` tasks, unit clauses for ``all_models`` shards),
  the config to run it under, and the generation stamp used for
  cancellation (a task whose ``gen`` no longer matches the shared
  generation counter is skipped or abandoned).
* :class:`WorkerOutcome` — the reply: verdict, witness model(s), the
  worker's :class:`~repro.core.stats.SolveStatistics`, and what its
  observer recorded (Chrome trace events, flight-recorder ring), ready
  for lossless merging on the coordinator side.

Messages on the result queue are tagged tuples: ``("result", outcome)``
and ``("lemma", gen, worker_id, clause)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = ["ConfigSpec", "SolveTask", "WorkerOutcome"]


class ConfigSpec:
    """Picklable solver configuration (the portfolio's unit of diversity)."""

    __slots__ = (
        "boolean",
        "linear",
        "nonlinear",
        "refine_conflicts",
        "use_interval_refuter",
        "max_iterations",
        "max_equality_splits",
        "tolerance",
        "boolean_options",
        "linear_options",
        "nonlinear_options",
        "refuter_options",
        "seed",
        "clause_decay",
        "reduce_interval",
        "use_presolve",
        "verdict_cache",
        "verdict_cache_dir",
        "label",
    )

    def __init__(
        self,
        boolean: str = "cdcl",
        linear: str = "simplex",
        nonlinear: Sequence[str] = ("newton", "auglag"),
        refine_conflicts: bool = True,
        use_interval_refuter: bool = True,
        max_iterations: int = 200_000,
        max_equality_splits: int = 16,
        tolerance: float = 1e-6,
        boolean_options: Optional[Dict[str, Any]] = None,
        linear_options: Optional[Dict[str, Any]] = None,
        nonlinear_options: Optional[Dict[str, Any]] = None,
        refuter_options: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        clause_decay: Optional[float] = None,
        reduce_interval: Optional[int] = None,
        use_presolve: bool = True,
        verdict_cache: bool = False,
        verdict_cache_dir: Optional[str] = None,
        label: str = "base",
    ):
        self.boolean = boolean
        self.linear = linear
        self.nonlinear = tuple(nonlinear)
        self.refine_conflicts = refine_conflicts
        self.use_interval_refuter = use_interval_refuter
        self.max_iterations = max_iterations
        self.max_equality_splits = max_equality_splits
        self.tolerance = tolerance
        self.boolean_options = dict(boolean_options or {})
        self.linear_options = dict(linear_options or {})
        self.nonlinear_options = dict(nonlinear_options or {})
        self.refuter_options = dict(refuter_options or {})
        self.seed = seed
        #: CDCL kernel knobs, mirrored from ``ABSolverConfig`` — portfolio
        #: variants diversify over these alongside ``seed``.
        self.clause_decay = clause_decay
        self.reduce_interval = reduce_interval
        self.use_presolve = use_presolve
        #: Cross-query verdict cache: the live ``VerdictCache`` object is
        #: unpicklable state, so the spec carries only the *request* — each
        #: worker rebuilds its own instance, sharing results through the
        #: cache directory when one is given.
        self.verdict_cache = verdict_cache
        self.verdict_cache_dir = verdict_cache_dir
        #: Human-readable portfolio label ("base", "difference", ...);
        #: shows up in stats, events, and the scaling bench tables.
        self.label = label

    @classmethod
    def from_config(cls, config, label: str = "base") -> "ConfigSpec":
        """Strip an ``ABSolverConfig`` down to its picklable payload."""
        return cls(
            boolean=config.boolean,
            linear=config.linear,
            nonlinear=config.nonlinear,
            refine_conflicts=config.refine_conflicts,
            use_interval_refuter=config.use_interval_refuter,
            max_iterations=config.max_iterations,
            max_equality_splits=config.max_equality_splits,
            tolerance=config.tolerance,
            boolean_options=config.boolean_options,
            linear_options=config.linear_options,
            nonlinear_options=config.nonlinear_options,
            refuter_options=getattr(config, "refuter_options", None),
            seed=getattr(config, "seed", None),
            clause_decay=getattr(config, "clause_decay", None),
            reduce_interval=getattr(config, "reduce_interval", None),
            use_presolve=getattr(config, "use_presolve", True),
            verdict_cache=getattr(config, "verdict_cache", None) is not None,
            verdict_cache_dir=getattr(
                getattr(config, "verdict_cache", None), "directory", None
            ),
            label=label,
        )

    def to_config(self, observer=None):
        """Rebuild a real ``ABSolverConfig`` inside the worker process."""
        from ..core.solver import ABSolverConfig

        verdict_cache = None
        if self.verdict_cache:
            from ..core.verdict_cache import VerdictCache

            verdict_cache = VerdictCache(directory=self.verdict_cache_dir)
        return ABSolverConfig(
            boolean=self.boolean,
            linear=self.linear,
            nonlinear=self.nonlinear,
            refine_conflicts=self.refine_conflicts,
            use_interval_refuter=self.use_interval_refuter,
            max_iterations=self.max_iterations,
            max_equality_splits=self.max_equality_splits,
            tolerance=self.tolerance,
            boolean_options=self.boolean_options,
            linear_options=self.linear_options,
            nonlinear_options=self.nonlinear_options,
            refuter_options=self.refuter_options,
            seed=self.seed,
            clause_decay=self.clause_decay,
            reduce_interval=self.reduce_interval,
            use_presolve=self.use_presolve,
            verdict_cache=verdict_cache,
            observer=observer,
        )

    def copy(self, **overrides) -> "ConfigSpec":
        """A modified copy — how the portfolio ladder derives its variants."""
        fields = {slot: getattr(self, slot) for slot in self.__slots__}
        fields.update(overrides)
        return ConfigSpec(**fields)

    def __repr__(self) -> str:
        return (
            f"ConfigSpec({self.label}: boolean={self.boolean}, "
            f"linear={self.linear}, seed={self.seed})"
        )


class SolveTask:
    """One unit of parallel work (a cube, a portfolio entry, or a shard)."""

    __slots__ = (
        "task_id",
        "gen",
        "kind",
        "problem",
        "assumptions",
        "cube",
        "spec",
        "observe",
        "model_limit",
        "share_lemmas",
        "split_budget",
    )

    #: ``kind`` values.
    CHECK = "check"
    ALL_MODELS = "all_models"

    def __init__(
        self,
        task_id: int,
        gen: int,
        kind: str,
        problem,
        spec: ConfigSpec,
        assumptions: Sequence[int] = (),
        cube: Sequence[int] = (),
        observe: bool = False,
        model_limit: Optional[int] = None,
        share_lemmas: bool = True,
        split_budget: int = 0,
    ):
        self.task_id = task_id
        self.gen = gen
        self.kind = kind
        self.problem = problem
        self.spec = spec
        #: Per-query assumption literals (cube literals for CHECK tasks).
        self.assumptions = tuple(assumptions)
        #: The cube this task owns, for reporting; ALL_MODELS tasks assert
        #: these as unit clauses to shard the enumeration space.
        self.cube = tuple(cube)
        #: Whether the worker runs the task under its own observer, with a
        #: span tracer and a :class:`repro.obs.recorder.FlightRecorder`
        #: attached; both come home in :attr:`WorkerOutcome.observed`.
        self.observe = observe
        self.model_limit = model_limit
        self.share_lemmas = share_lemmas
        #: Conflict budget after which a CHECK task abandons the cube and
        #: returns a :attr:`WorkerOutcome.SPLIT` outcome carrying two
        #: subcubes instead of a verdict.  ``0`` disables self-splitting.
        self.split_budget = split_budget

    def __repr__(self) -> str:
        return (
            f"SolveTask(#{self.task_id} gen={self.gen} {self.kind} "
            f"cube={list(self.cube)} spec={self.spec.label})"
        )


class WorkerOutcome:
    """A worker's reply for one task."""

    __slots__ = (
        "task_id",
        "worker_id",
        "gen",
        "status",
        "model",
        "models",
        "reason",
        "stats",
        "observed",
        "error",
        "label",
        "subcubes",
    )

    #: ``status`` values beyond the verdict strings "sat"/"unsat"/"unknown".
    CANCELLED = "cancelled"
    MODELS = "models"
    ERROR = "error"
    #: The worker gave up on a hard cube and handed back refined subcubes;
    #: the coordinator enqueues them as fresh tasks (work stealing).
    SPLIT = "split"

    def __init__(
        self,
        task_id: int,
        worker_id: int,
        gen: int,
        status: str,
        model=None,
        models: Optional[List] = None,
        reason: str = "",
        stats=None,
        observed: Optional[Tuple[List[Dict[str, Any]], ...]] = None,
        error: str = "",
        label: str = "",
        subcubes: Optional[List[Tuple[int, ...]]] = None,
    ):
        self.task_id = task_id
        self.worker_id = worker_id
        self.gen = gen
        self.status = status
        self.model = model
        self.models = models
        self.reason = reason
        self.stats = stats
        #: For observed tasks, what the worker's observer recorded: the pair
        #: ``(spans, ring)`` of Chrome trace events and flight-recorder
        #: snapshot lines (see
        #: :meth:`repro.obs.recorder.FlightRecorder.snapshot_lines`).
        self.observed = observed
        self.error = error
        self.label = label
        #: For :attr:`SPLIT` outcomes: the replacement cubes (each already
        #: including the parent cube's literals).
        self.subcubes = subcubes

    def __repr__(self) -> str:
        return (
            f"WorkerOutcome(#{self.task_id} worker={self.worker_id} "
            f"{self.status}{' ' + self.reason if self.reason else ''})"
        )
