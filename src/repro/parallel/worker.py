"""The worker-process side of the parallel solving subsystem.

:func:`worker_main` is a module-level function (so it survives the
``spawn`` start method's pickling) running a simple task loop:

1. Take the next :class:`~repro.parallel.tasks.SolveTask` off the shared
   task queue (``None`` is the shutdown sentinel).
2. Skip it when its generation stamp is stale — the coordinator bumps the
   shared generation counter to cancel a solve, which both abandons queued
   tasks and (through the pipeline's ``poll`` hook) aborts running ones.
3. Run it: ``check`` tasks build a :class:`~repro.core.session.SolverSession`
   and decide the problem under the cube's assumption literals;
   ``all_models`` tasks assert the cube as unit clauses and enumerate the
   cube's disjoint model subspace.
4. Stream every *definite* theory lemma to the coordinator as it is
   derived, and adopt foreign lemmas (broadcast by the coordinator) at
   every pipeline iteration via the ``poll`` hook.
5. Reply with a :class:`~repro.parallel.tasks.WorkerOutcome` carrying the
   verdict, models, per-worker statistics, and what the task's observer
   recorded (Chrome trace events, flight-recorder ring).

Indefinite lemmas (candidates the nonlinear stage could neither satisfy
nor refute) are *not* shared: they are "we could not decide" markers, not
theorems, and adopting one would silently propagate incompleteness.

Two hot-path mechanisms live here:

* **Persistent sessions** — ``check`` tasks for the same (problem, config)
  pair reuse one :class:`~repro.core.session.SolverSession` per worker
  process instead of rebuilding it per cube.  Cube literals are per-query
  *assumptions*, so the session's base state — asserted CNF, translation
  cache, simplex warm-start points, learned and imported theory lemmas —
  carries over from cube to cube.  Theory lemmas are
  consequences of the problem's definitions alone (never of the cube
  assumptions), so reuse across cubes is sound for exactly the reason
  cross-worker lemma sharing is.
* **Budget-based self-splitting** — a ``check`` task with a positive
  ``split_budget`` that is still undecided after that many pipeline
  iterations abandons the cube and replies with a
  :attr:`~repro.parallel.tasks.WorkerOutcome.SPLIT` outcome carrying two
  lookahead-refined subcubes (:func:`repro.parallel.cubes.split_cube`).
  The coordinator enqueues them as fresh tasks, so idle workers steal
  halves of whichever cube turned out hardest.

Foreign lemmas enter the session with
:meth:`~repro.core.session.SolverSession.import_lemmas`, the path a
locally derived lemma takes: guarded by an activation literal and added
to the Boolean engine, so the candidates it rules out never reach the
theory stages.  Imports do not call the session's ``lemma_listener``, so
a foreign lemma is never streamed back to the coordinator.
"""

from __future__ import annotations

import copy
import pickle
import queue as queue_module
import traceback
from typing import Dict, List

from ..core.session import SolverSession
from ..core.solver import ABSolver, ABSolverConfig, ABStatus
from ..obs.observer import Observer
from ..obs.recorder import FlightRecorder
from ..obs.trace import SpanTracer
from .cubes import refine_cube_bounds, split_cube
from .tasks import SolveTask, WorkerOutcome

__all__ = ["worker_main"]

#: Persistent per-process session cache: (pickled config, problem
#: fingerprint) -> a live session with the problem asserted.  Small,
#: because a worker rarely sees more than one problem per coordinator
#: lifetime.
_SESSIONS: Dict[tuple, SolverSession] = {}
_SESSION_LIMIT = 4


def _observed_config(config: ABSolverConfig, observer) -> ABSolverConfig:
    """``config`` as the task runs it: a copy carrying the worker's observer."""
    if observer is None:
        return config
    config = copy.copy(config)
    config.observer = observer
    return config


def _session_for(task: SolveTask, observer=None) -> SolverSession:
    """The persistent session for this task, building it on first use.

    Two tasks share a session when their configs pickle to the same bytes
    (every field takes part) and their problems have the same canonical
    content fingerprint (tasks arrive pickled, so object identity never
    survives the process boundary).  Observed tasks always get a fresh
    session so their Chrome events / recorder ring stay scoped to the one
    task being debugged.
    """
    if observer is not None:
        session = SolverSession(_observed_config(task.config, observer))
        session.assert_problem(task.problem)
        return session
    key = (pickle.dumps(task.config), task.problem.fingerprint())
    session = _SESSIONS.get(key)
    if session is None:
        if len(_SESSIONS) >= _SESSION_LIMIT:
            _SESSIONS.clear()
        session = SolverSession(task.config)
        session.assert_problem(task.problem)
        _SESSIONS[key] = session
    return session


def _drain_lemmas(session: SolverSession, lemma_queue, gen: int) -> None:
    """Adopt every queued foreign lemma stamped with the current generation."""
    while True:
        try:
            stamped_gen, clause = lemma_queue.get_nowait()
        except queue_module.Empty:
            return
        except (EOFError, OSError):  # queue torn down under us
            return
        if stamped_gen == gen:
            session.import_lemmas([clause])


def _run_check(task: SolveTask, worker_id: int, result_queue, lemma_queue, gen_value, observer):
    session = _session_for(task, observer)

    # The cube's decision literals often imply tighter variable boxes than
    # the declared bounds; apply them in a scratch frame so the in-session
    # presolve, LP translation, and interval code all see the smaller box.
    refinements = (
        refine_cube_bounds(task.problem, task.cube)
        if task.cube and task.config.use_presolve
        else {}
    )

    if not refinements:
        def stream_lemma(clause: List[int], definite: bool) -> None:
            if definite:
                result_queue.put(("lemma", task.gen, worker_id, clause))

        session.lemma_listener = stream_lemma
    else:
        # Lemmas derived under cube-conditioned bounds are only valid
        # inside this cube — never broadcast them to other workers.
        session.lemma_listener = None

    # Plan the split up front (it is deterministic and independent of the
    # search), so the budget only ever aborts a cube we can actually
    # refine; unsplittable cubes run to completion.
    planned_subcubes = (
        split_cube(task.problem, task.cube) if task.split_budget > 0 else None
    )
    iterations = 0
    split_requested = False

    def poll() -> bool:
        nonlocal iterations, split_requested
        _drain_lemmas(session, lemma_queue, task.gen)
        if gen_value.value != task.gen:
            return False
        if planned_subcubes is not None:
            iterations += 1
            if iterations > task.split_budget:
                split_requested = True
                return False
        return True

    if refinements:
        session.push()
        try:
            for var, (low, high) in sorted(refinements.items()):
                session.set_bounds(var, low, high)
            result = session.check(task.assumptions, poll=poll)
        finally:
            session.pop()
    else:
        result = session.check(task.assumptions, poll=poll)
    status = result.status.value
    subcubes = None
    if result.status is ABStatus.UNKNOWN and result.reason == "cancelled":
        if split_requested and gen_value.value == task.gen:
            status = WorkerOutcome.SPLIT
            subcubes = planned_subcubes
        else:
            status = WorkerOutcome.CANCELLED
    return WorkerOutcome(
        task_id=task.task_id,
        worker_id=worker_id,
        gen=task.gen,
        status=status,
        model=result.model,
        reason=result.reason,
        stats=result.stats,
        label=task.label,
        subcubes=subcubes,
    )


def _run_all_models(task: SolveTask, worker_id: int, gen_value, observer):
    config = _observed_config(task.config, observer)
    # The problem arrived pickled, so it is worker-local: asserting the
    # cube literals as unit clauses restricts this worker to its disjoint
    # shard of the enumeration space.
    problem = task.problem
    for literal in task.cube:
        problem.add_clause([literal])
    solver = ABSolver(config)
    models = []
    status = WorkerOutcome.MODELS
    for model in solver.all_solutions(problem, limit=task.model_limit):
        models.append(model)
        if gen_value.value != task.gen:
            status = WorkerOutcome.CANCELLED
            break
    return WorkerOutcome(
        task_id=task.task_id,
        worker_id=worker_id,
        gen=task.gen,
        status=status,
        models=models,
        stats=solver.stats,
        label=task.label,
    )


def _execute(task: SolveTask, worker_id: int, result_queue, lemma_queue, gen_value):
    observer = None
    recorder = None
    if task.observe:
        # Per-worker observer scoped to this task: its spans and its
        # flight-recorder ring travel home in the outcome for the
        # coordinator to merge into its trace and post-mortem.
        observer = Observer(
            tracer=SpanTracer(process_name=f"absolver-worker-{worker_id}")
        )
        recorder = FlightRecorder(name=f"worker-{worker_id}").attach(observer)
        recorder.note("task-start", task_id=task.task_id, task_kind=task.kind,
                      gen=task.gen, label=task.label, cube=list(task.cube))
    try:
        if task.kind == SolveTask.CHECK:
            outcome = _run_check(
                task, worker_id, result_queue, lemma_queue, gen_value, observer
            )
        elif task.kind == SolveTask.ALL_MODELS:
            outcome = _run_all_models(task, worker_id, gen_value, observer)
        else:
            raise ValueError(f"unknown task kind {task.kind!r}")
    except Exception:
        outcome = WorkerOutcome(
            task_id=task.task_id,
            worker_id=worker_id,
            gen=task.gen,
            status=WorkerOutcome.ERROR,
            error=traceback.format_exc(),
            label=task.label,
        )
        if recorder is not None:
            recorder.note("worker-exception", error=outcome.error.strip().splitlines()[-1])
    if recorder is not None:
        recorder.bind_stats(outcome.stats)
        outcome.observed = (
            observer.tracer.to_chrome_events(),
            recorder.snapshot_lines(reason=outcome.status),
        )
        recorder.detach()
    return outcome


def worker_main(worker_id: int, task_queue, result_queue, lemma_queue, gen_value) -> None:
    """The worker process entry point: loop over tasks until the sentinel."""
    try:
        while True:
            task = task_queue.get()
            if task is None:
                return
            if gen_value.value != task.gen:
                result_queue.put(
                    (
                        "result",
                        WorkerOutcome(
                            task_id=task.task_id,
                            worker_id=worker_id,
                            gen=task.gen,
                            status=WorkerOutcome.CANCELLED,
                            reason="cancelled before start",
                            label=task.label,
                        ),
                    )
                )
                continue
            result_queue.put(
                ("result", _execute(task, worker_id, result_queue, lemma_queue, gen_value))
            )
    except KeyboardInterrupt:
        return
    except (EOFError, OSError):
        # The coordinator went away and took the queues with it.
        return
