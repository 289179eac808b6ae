"""The picklable task protocol between the coordinator and its workers.

Everything that crosses the process boundary lives here:

* :class:`SolveTask` — one unit of work: the problem, the cube (assumption
  literals for ``check`` tasks, unit clauses for ``all_models`` shards),
  the :class:`~repro.core.solver.ABSolverConfig` to run it under, a label
  for reports, and the generation stamp used for cancellation (a task
  whose ``gen`` no longer matches the shared generation counter is skipped
  or abandoned).  The config is the caller's own, copied without its
  observer: a worker attaches its *own* per-process
  :class:`~repro.obs.observer.Observer` when the task is observed, and a
  :class:`~repro.core.verdict_cache.VerdictCache` pickles as its directory
  and capacity, so each worker opens its own cache on the shared
  directory.
* :class:`WorkerOutcome` — the reply: verdict, witness model(s), the
  worker's :class:`~repro.core.stats.SolveStatistics`, and what its
  observer recorded (Chrome trace events, flight-recorder ring), ready
  for lossless merging on the coordinator side.

Messages on the result queue are tagged tuples: ``("result", outcome)``
and ``("lemma", gen, worker_id, clause)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.solver import ABSolverConfig

__all__ = ["SolveTask", "WorkerOutcome"]


class SolveTask:
    """One unit of parallel work (a cube, a portfolio entry, or a shard)."""

    __slots__ = (
        "task_id",
        "gen",
        "kind",
        "problem",
        "assumptions",
        "cube",
        "config",
        "label",
        "observe",
        "model_limit",
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
        config: ABSolverConfig,
        label: str = "base",
        assumptions: Sequence[int] = (),
        cube: Sequence[int] = (),
        observe: bool = False,
        model_limit: Optional[int] = None,
        split_budget: int = 0,
    ):
        self.task_id = task_id
        self.gen = gen
        self.kind = kind
        self.problem = problem
        self.config = config
        #: Human-readable task label: the portfolio rung ("base",
        #: "difference", ...) or the cube ("cube-3", "cube-3.1"); shows up
        #: in stats, events, and the scaling bench tables.
        self.label = label
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
        #: Conflict budget after which a CHECK task abandons the cube and
        #: returns a :attr:`WorkerOutcome.SPLIT` outcome carrying two
        #: subcubes instead of a verdict.  ``0`` disables self-splitting.
        self.split_budget = split_budget

    def __repr__(self) -> str:
        return (
            f"SolveTask(#{self.task_id} gen={self.gen} {self.kind} "
            f"cube={list(self.cube)} label={self.label})"
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
