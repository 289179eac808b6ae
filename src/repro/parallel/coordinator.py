"""The parallel solve coordinator: worker pool, dispatch, joining, lemmas.

:class:`ParallelSolver` owns a persistent pool of worker processes (forked
when available, spawn-safe otherwise) and solves AB-problems across it in
two modes:

* ``cube`` — cube-and-conquer: the problem is split into ``2^k`` guarded
  cubes (lookahead-scored, see :mod:`repro.parallel.cubes`), each solved
  as an independent ``SolverSession.check`` under the cube's assumption
  literals.  The join is the Kleene three-valued conjunction of the
  sequential loop: any SAT cube wins immediately (remaining cubes are
  cancelled), all-UNSAT joins to UNSAT, and an UNKNOWN cube poisons an
  otherwise-UNSAT join to UNKNOWN.  The split is **dynamic**: a worker
  that exhausts its ``split_budget`` on a hard cube replies with two
  lookahead-refined subcubes instead of a verdict, and the coordinator
  enqueues them as fresh tasks — idle workers steal halves of whichever
  cube turned out hardest, and the split parent joins as the conjunction
  of its children.  All-models enumeration shards the static cubes as
  unit clauses, so each worker enumerates a disjoint subspace and the
  union (in cube order) is the full model set.
* ``portfolio`` — the diversified config ladder of
  :mod:`repro.parallel.portfolio` races on the whole problem; the first
  *definite* verdict (SAT or UNSAT) wins and cancels the rest.  UNKNOWN
  needs unanimity.

Workers stream every **definite** theory lemma (IIS blocking clauses,
interval refutations, definite full-assignment blocks) to the coordinator,
which deduplicates them and broadcasts each new lemma to the other
workers; they adopt foreign lemmas at their next pipeline iteration.
Definite lemmas are consequences of the arithmetic definitions and bounds
alone — never of cube assumptions — so sharing them across cubes and
configs is sound (see DESIGN.md, "Parallel solving").

Cancellation is generation-stamped: every task carries the generation it
was built under, and cancelling bumps the shared counter, which makes
queued tasks skip and running tasks abandon at their next ``poll``.
Workers that fail to wind down within a grace period (a backend stuck in
one long call) are terminated and the pool is rebuilt lazily — a
timed-out solve never leaks orphan processes.
"""

from __future__ import annotations

import copy
import math
import multiprocessing
import os
import queue as queue_module
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.solver import ABModel, ABResult, ABSolverConfig, ABStatus
from ..core.stats import SolveStatistics
from ..obs.events import (
    CubeDispatched,
    LemmaShared,
    ParallelCancelled,
    WorkerFinished,
)
from ..obs.observer import Observer
from ..obs.recorder import FlightRecorder, write_jsonl
from ..obs.trace import write_chrome_trace
from .cubes import build_cubes
from .portfolio import portfolio_configs
from .tasks import SolveTask, WorkerOutcome
from .worker import worker_main

__all__ = ["ParallelSolver"]


def default_cube_depth(jobs: int) -> int:
    """Smallest k with 2^k >= jobs — one cube per worker at minimum."""
    return max(1, int(math.ceil(math.log2(jobs)))) if jobs > 1 else 0


#: Default self-split conflict budget for cube tasks (pipeline iterations a
#: worker spends on one cube before handing back two refined subcubes).
#: Large enough that easy cubes finish outright; small enough that one
#: pathological cube cannot serialise the whole solve.
DEFAULT_SPLIT_BUDGET = 64


class ParallelSolver:
    """Solve AB-problems across a multiprocessing worker pool.

    Typical use::

        with ParallelSolver(jobs=4, mode="portfolio") as solver:
            result = solver.solve(problem)
        models = ParallelSolver(jobs=2).all_solutions(problem)  # cube shards

    The pool is lazy (first solve starts it) and persistent (reused across
    solves, so per-solve overhead is task pickling, not process startup).
    ``close()`` — or the context manager — shuts it down; a timed-out
    solve that had to terminate stuck workers rebuilds the pool on the
    next call automatically.

    Determinism: *verdicts* are deterministic — the Kleene/portfolio joins
    are order-independent — but the SAT *witness model* (and UNKNOWN
    reason) may come from whichever task reports first.  Pass
    ``deterministic=True`` to always wait for every task and pick the
    lowest-indexed witness, trading the first-win latency for
    reproducibility.  All-models enumeration is deterministic either way.
    """

    def __init__(
        self,
        config: Optional[ABSolverConfig] = None,
        jobs: int = 2,
        mode: str = "cube",
        cube_depth: Optional[int] = None,
        timeout: Optional[float] = None,
        deterministic: bool = False,
        grace: float = 2.0,
        split_budget: Optional[int] = None,
        flight_record: Optional[str] = None,
    ):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if mode not in ("cube", "portfolio"):
            raise ValueError(f"unknown parallel mode {mode!r}")
        self.config = config or ABSolverConfig()
        self.jobs = jobs
        self.mode = mode
        self.cube_depth = cube_depth
        self.timeout = timeout
        self.deterministic = deterministic
        self.grace = grace
        #: Pipeline-iteration budget after which a worker abandons a hard
        #: cube and returns two lookahead-refined subcubes for other
        #: workers to steal.  ``None`` picks :data:`DEFAULT_SPLIT_BUDGET`
        #: in cube mode; ``0`` disables dynamic splitting.  Deterministic
        #: runs never split (child task ids would depend on arrival order).
        self.split_budget = split_budget

        #: The config's observer (or a private one with no sinks): the
        #: coordinator's spans, events and progress ticks go here, and a
        #: tracer on it makes workers send their spans home.
        self.observer = self.config.observer or Observer()

        #: Flight-recorder dump path.  Truthy enables the coordinator-side
        #: :class:`~repro.obs.recorder.FlightRecorder` *and* per-worker
        #: recorders (their rings come home in each outcome); the merged
        #: dump is written here automatically on timeout or worker error,
        #: or on demand via :meth:`write_flight_dump`.
        self.flight_record = flight_record
        self.flight_recorder: Optional[FlightRecorder] = None
        if flight_record:
            self.flight_recorder = FlightRecorder(name="coordinator").attach(
                self.observer
            )
        self._worker_dumps: List[Tuple[int, int, List[Dict[str, Any]]]] = []
        self._auto_dump_reason: Optional[str] = None

        #: Cumulative statistics over every parallel solve of this object.
        self.stats = SolveStatistics()
        #: Statistics of the most recent solve (workers merged + coordinator
        #: counters).
        self.last_stats: Optional[SolveStatistics] = None
        #: Unique definite lemmas collected during the most recent solve.
        self.shared_lemmas: List[List[int]] = []
        #: Per-task (label, status) pairs of the most recent solve.
        self.last_tasks: List[Tuple[str, str]] = []

        self._ctx = self._pick_context()
        self._workers: List = []
        self._task_queue = None
        self._result_queue = None
        self._lemma_queues: List = []
        self._gen_value = None
        self._generation = 0
        self._last_worker_events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    @staticmethod
    def _pick_context():
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _pool_alive(self) -> bool:
        return bool(self._workers) and all(w.is_alive() for w in self._workers)

    def worker_count(self) -> int:
        """Processes actually spawned — ``jobs`` capped at the core count.

        Cube tasks are *homogeneous*: every cube runs the same
        configuration, so racing more of them than there are cores only
        time-slices the same total work across more sessions, each
        re-deriving conflicts the others already refined (measured ~2x
        slower on a 1-core box).  The cap turns surplus jobs into a work
        queue the active workers drain — ``jobs`` keeps its meaning as
        the partition width.  Portfolio tasks are *heterogeneous*: the
        race between algorithmically diverse configs is the mechanism
        itself (the specialist wins by orders of magnitude, so slicing
        costs little), and it must not be capped.
        """
        if self.mode == "portfolio":
            return self.jobs
        return min(self.jobs, max(1, os.cpu_count() or 1))

    def _ensure_pool(self) -> None:
        if self._pool_alive():
            return
        if self._workers:  # stale pool (terminated after a timeout)
            self._teardown(terminate=True)
        ctx = self._ctx
        count = self.worker_count()
        self._task_queue = ctx.Queue()
        self._result_queue = ctx.Queue()
        self._lemma_queues = [ctx.Queue() for _ in range(count)]
        self._gen_value = ctx.Value("i", self._generation)
        self._workers = []
        for worker_id in range(count):
            process = ctx.Process(
                target=worker_main,
                args=(
                    worker_id,
                    self._task_queue,
                    self._result_queue,
                    self._lemma_queues[worker_id],
                    self._gen_value,
                ),
                daemon=True,
                name=f"absolver-worker-{worker_id}",
            )
            process.start()
            self._workers.append(process)

    def _bump_generation(self) -> int:
        self._generation += 1
        if self._gen_value is not None:
            with self._gen_value.get_lock():
                self._gen_value.value = self._generation
        return self._generation

    def _teardown(self, terminate: bool) -> None:
        """Bring every worker down; with ``terminate`` skip the polite part."""
        workers, self._workers = self._workers, []
        if not terminate and workers:
            for _ in workers:
                try:
                    self._task_queue.put(None)
                except (ValueError, OSError):
                    break
            deadline = time.monotonic() + self.grace
            for worker in workers:
                worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join()
        for q in [self._task_queue, self._result_queue] + list(self._lemma_queues):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._task_queue = None
        self._result_queue = None
        self._lemma_queues = []
        self._gen_value = None

    def close(self) -> None:
        """Shut the pool down (graceful, then terminate after the grace)."""
        self._bump_generation()  # cancels anything still queued or running
        if self._workers:
            self._teardown(terminate=False)

    def __enter__(self) -> "ParallelSolver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # best-effort: daemon workers die anyway
        try:
            if self._workers:
                self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Public solving API
    # ------------------------------------------------------------------
    def solve(self, problem, assumptions: Sequence[int] = ()) -> ABResult:
        """Decide satisfiability of ``problem`` across the pool."""
        with self.observer.span(
            "parallel.solve", category="parallel", mode=self.mode, jobs=self.jobs
        ):
            tasks = self._build_check_tasks(problem, assumptions)
            outcomes, arrival, timed_out = self._run_tasks(
                tasks, early_stop=self._early_stop_predicate()
            )
            result = self._join_check(tasks, outcomes, arrival, timed_out)
        return result

    def all_solutions(
        self, problem, limit: Optional[int] = None
    ) -> List[ABModel]:
        """Enumerate all models, sharded across disjoint cube subspaces.

        The union is assembled in cube order (deterministic); a configured
        ``timeout`` returns the models found so far.  Both modes shard by
        cubes — a portfolio race would only replicate the enumeration.
        """
        with self.observer.span(
            "parallel.all_solutions", category="parallel", jobs=self.jobs
        ):
            gen = self._prepare_generation()
            depth = (
                self.cube_depth
                if self.cube_depth is not None
                else default_cube_depth(self.jobs)
            )
            cubes = build_cubes(problem, depth)
            config = self._task_config()
            observe = self._observe_workers()
            tasks = [
                SolveTask(
                    task_id=index,
                    gen=gen,
                    kind=SolveTask.ALL_MODELS,
                    problem=problem,
                    config=config,
                    label=f"cube-{index}",
                    cube=cube,
                    observe=observe,
                    model_limit=limit,
                )
                for index, cube in enumerate(cubes)
            ]
            outcomes, _, timed_out = self._run_tasks(tasks, early_stop=None)
            self._finish_stats(tasks, outcomes)
            self._maybe_auto_dump(outcomes, timed_out)
            self._raise_worker_errors(outcomes)
            models: List[ABModel] = []
            seen = set()
            for index in range(len(tasks)):
                outcome = outcomes.get(index)
                if outcome is None or not outcome.models:
                    continue
                for model in outcome.models:
                    if model in seen:
                        continue
                    seen.add(model)
                    models.append(model)
            if limit is not None:
                models = models[:limit]
        return models

    def check_session(self, session, assumptions: Sequence[int] = ()) -> ABResult:
        """Parallel check of a live session's currently asserted stack.

        The session's problem snapshot (all frames flattened, guards
        removed) ships to the workers; afterwards every shared lemma is
        imported back into the session with
        :meth:`~repro.core.session.SolverSession.import_lemmas`, as workers
        import foreign lemmas, so a later sequential check never re-derives
        a conflict a worker already refined.
        """
        result = self.solve(session.problem, assumptions)
        session.import_lemmas(self.shared_lemmas)
        return result

    # ------------------------------------------------------------------
    # Trace merging
    # ------------------------------------------------------------------
    def chrome_trace_events(self) -> List[Dict[str, Any]]:
        """Coordinator + worker ``traceEvents`` of the most recent solve.

        Worker events keep their real pids and per-process name metadata,
        so Perfetto renders one lane per worker next to the coordinator.
        """
        events: List[Dict[str, Any]] = []
        if self.observer.tracer is not None:
            events.extend(self.observer.tracer.to_chrome_events())
        events.extend(self._last_worker_events)
        return events

    def export_chrome(self, target) -> None:
        """Write the merged Chrome ``trace_event`` JSON object format."""
        write_chrome_trace(target, self.chrome_trace_events(), "repro.parallel coordinator")

    # ------------------------------------------------------------------
    # Task building and joining
    # ------------------------------------------------------------------
    def _observe_workers(self) -> bool:
        """Whether workers record spans and a flight-recorder ring: when
        this solver traces or flight-records (each side keeps what it
        needs from the pair that comes home)."""
        return self.observer.tracer is not None or self.flight_recorder is not None

    def _task_config(self) -> ABSolverConfig:
        """The config as tasks carry it: a copy without the observer (a
        worker attaches its own when the task is observed)."""
        config = copy.copy(self.config)
        config.observer = None
        return config

    def _prepare_generation(self) -> int:
        self._ensure_pool()
        self._auto_dump_reason = None
        return self._bump_generation()

    def _build_check_tasks(self, problem, assumptions: Sequence[int]) -> List[SolveTask]:
        gen = self._prepare_generation()
        observe = self._observe_workers()
        config = self._task_config()
        tasks: List[SolveTask] = []
        if self.mode == "portfolio":
            rungs = portfolio_configs(config, self.jobs)
            for index, (label, rung) in enumerate(rungs):
                tasks.append(
                    SolveTask(
                        task_id=index,
                        gen=gen,
                        kind=SolveTask.CHECK,
                        problem=problem,
                        config=rung,
                        label=label,
                        assumptions=assumptions,
                        observe=observe,
                    )
                )
        else:
            depth = (
                self.cube_depth
                if self.cube_depth is not None
                else default_cube_depth(self.jobs)
            )
            cubes = build_cubes(problem, depth)
            budget = self._effective_split_budget()
            for index, cube in enumerate(cubes):
                tasks.append(
                    SolveTask(
                        task_id=index,
                        gen=gen,
                        kind=SolveTask.CHECK,
                        problem=problem,
                        config=config,
                        label=f"cube-{index}",
                        assumptions=tuple(assumptions) + tuple(cube),
                        cube=cube,
                        observe=observe,
                        split_budget=budget,
                    )
                )
        return tasks

    def _effective_split_budget(self) -> int:
        """The per-cube self-split budget for this solve (0 = disabled)."""
        if self.deterministic or self.jobs <= 1:
            return 0
        if self.split_budget is None:
            return DEFAULT_SPLIT_BUDGET
        return max(0, self.split_budget)

    def _early_stop_predicate(self):
        if self.deterministic:
            return None
        if self.mode == "portfolio":
            return lambda outcome: outcome.status in ("sat", "unsat")
        return lambda outcome: outcome.status == "sat"

    def _join_check(
        self,
        tasks: List[SolveTask],
        outcomes: Dict[int, WorkerOutcome],
        arrival: List[WorkerOutcome],
        timed_out: bool,
    ) -> ABResult:
        stats = self._finish_stats(tasks, outcomes)
        # Dump *before* raising worker errors: the post-mortem must
        # survive the exception it explains.
        self._maybe_auto_dump(outcomes, timed_out)
        self._raise_worker_errors(outcomes)

        ordered = sorted(outcomes.values(), key=lambda o: o.task_id)
        pool = ordered if self.deterministic else arrival
        sat = next((o for o in pool if o.status == "sat"), None)
        if sat is not None:
            return ABResult(ABStatus.SAT, model=sat.model, stats=stats)
        if self.mode == "portfolio":
            unsat = next((o for o in pool if o.status == "unsat"), None)
            if unsat is not None:
                return ABResult(ABStatus.UNSAT, stats=stats)
            reason = next(
                (o.reason for o in ordered if o.status == "unknown" and o.reason),
                "",
            )
            if timed_out:
                reason = reason or f"parallel timeout after {self.timeout}s"
            return ABResult(ABStatus.UNKNOWN, stats=stats, reason=reason)
        # Cube mode: Kleene conjunction over the cube partition.  A
        # "split" outcome is resolved by its two children (both present in
        # ``tasks`` and ``ordered`` by construction), so it joins like
        # their conjunction — which the children contribute themselves.
        if (
            all(o.status in ("unsat", WorkerOutcome.SPLIT) for o in ordered)
            and len(ordered) == len(tasks)
        ):
            return ABResult(ABStatus.UNSAT, stats=stats)
        if timed_out:
            return ABResult(
                ABStatus.UNKNOWN,
                stats=stats,
                reason=f"parallel timeout after {self.timeout}s",
            )
        reason = next(
            (o.reason for o in ordered if o.status == "unknown" and o.reason),
            "some cubes could not be settled",
        )
        return ABResult(ABStatus.UNKNOWN, stats=stats, reason=reason)

    def _raise_worker_errors(self, outcomes: Dict[int, WorkerOutcome]) -> None:
        for outcome in outcomes.values():
            if outcome.status == WorkerOutcome.ERROR:
                raise RuntimeError(
                    f"parallel worker {outcome.worker_id} failed on task "
                    f"#{outcome.task_id}:\n{outcome.error}"
                )

    def _finish_stats(
        self, tasks: List[SolveTask], outcomes: Dict[int, WorkerOutcome]
    ) -> SolveStatistics:
        stats = SolveStatistics()
        for outcome in outcomes.values():
            if outcome.stats is not None:
                stats.merge(outcome.stats)
        stats.parallel_tasks = len(tasks)
        if self.mode == "cube" or tasks and tasks[0].kind == SolveTask.ALL_MODELS:
            stats.cubes_dispatched = len(tasks)
        stats.parallel_workers = self.worker_count()
        stats.lemmas_shared = self._lemmas_shared
        stats.lemmas_deduped = self._lemmas_deduped
        stats.parallel_cancellations = self._cancellations
        stats.cubes_split = sum(
            1
            for outcome in outcomes.values()
            if outcome.status == WorkerOutcome.SPLIT
        )
        self.last_tasks = [
            (
                outcomes[task.task_id].label
                if task.task_id in outcomes
                else task.label,
                outcomes[task.task_id].status
                if task.task_id in outcomes
                else "lost",
            )
            for task in tasks
        ]
        ordered = sorted(outcomes.values(), key=lambda o: o.task_id)
        self._last_worker_events = []
        self._worker_dumps = []
        for outcome in ordered:
            if outcome.observed is None:
                continue
            spans, ring = outcome.observed
            if self.observer.tracer is not None:
                self._last_worker_events.extend(spans)
            if self.flight_recorder is not None:
                self._worker_dumps.append((outcome.worker_id, outcome.task_id, ring))
        self.last_stats = stats
        self.stats.merge(stats)
        return stats

    # ------------------------------------------------------------------
    # Flight-recorder dumps
    # ------------------------------------------------------------------
    def _maybe_auto_dump(self, outcomes: Dict[int, WorkerOutcome], timed_out: bool) -> None:
        """Write the post-mortem automatically when the solve went wrong."""
        if self.flight_recorder is None or not self.flight_record:
            return
        if timed_out:
            self._auto_dump_reason = "timeout"
        elif any(
            outcome.status == WorkerOutcome.ERROR for outcome in outcomes.values()
        ):
            self._auto_dump_reason = "worker-error"
        else:
            return
        self.write_flight_dump(reason=self._auto_dump_reason)

    def write_flight_dump(self, target=None, reason: Optional[str] = None):
        """Write the merged coordinator + worker flight dump as JSONL.

        ``target`` defaults to the ``flight_record`` path this solver was
        built with; worker lines are tagged with their ``worker`` and
        ``task`` ids.  Returns the target written to, or ``None`` when
        flight recording is off.
        """
        recorder = self.flight_recorder
        if recorder is None:
            return None
        target = target if target is not None else self.flight_record
        if not target:
            return None
        if reason is None:
            reason = self._auto_dump_reason or "requested"
        recorder.bind_stats(self.last_stats)
        lines = recorder.snapshot_lines(reason=reason)
        for worker_id, task_id, dump in self._worker_dumps:
            lines.extend(
                dict(line, worker=worker_id, task=task_id) for line in dump
            )
        write_jsonl(target, lines)
        return target

    # ------------------------------------------------------------------
    # The collect loop
    # ------------------------------------------------------------------
    def _run_tasks(
        self,
        tasks: List[SolveTask],
        early_stop=None,
    ) -> Tuple[Dict[int, WorkerOutcome], List[WorkerOutcome], bool]:
        gen = tasks[0].gen if tasks else self._generation
        observer = self.observer
        for task in tasks:
            if observer.active:
                observer.publish(
                    CubeDispatched(task=task.task_id, literals=len(task.cube))
                )
            self._task_queue.put(task)

        outcomes: Dict[int, WorkerOutcome] = {}
        arrival: List[WorkerOutcome] = []
        shared: Dict[Tuple[int, ...], List[int]] = {}
        self._lemmas_shared = 0
        self._lemmas_deduped = 0
        self._cancellations = 0
        cancelled = False
        decisive = False
        timed_out = False
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        grace_deadline = None

        while len(outcomes) < len(tasks):
            now = time.monotonic()
            # The monitor rate-limits itself, so ticking every loop pass is
            # cheap; queue depth is the undecided task count.
            observer.tick(
                "parallel",
                cube_queue_depth=len(tasks) - len(outcomes),
                lemmas_shared=self._lemmas_shared,
            )
            if deadline is not None and not timed_out and now >= deadline:
                timed_out = True
                cancelled = True
                self._cancel(reason="timeout", pending=len(tasks) - len(outcomes))
                grace_deadline = now + self.grace
            if grace_deadline is not None and now >= grace_deadline:
                break
            if grace_deadline is not None:
                wait = min(0.05, grace_deadline - now)
            elif deadline is not None:
                wait = max(0.01, min(0.05, deadline - now))
            else:
                wait = 0.5
            try:
                message = self._result_queue.get(timeout=wait)
            except queue_module.Empty:
                continue
            if message[0] == "lemma":
                self._handle_lemma(message, gen, shared)
                continue
            outcome: WorkerOutcome = message[1]
            if outcome.gen != gen:
                continue  # stray reply from a previous generation
            if outcome.status == WorkerOutcome.SPLIT:
                if cancelled or not outcome.subcubes:
                    # The solve is already winding down (or the split is
                    # malformed): the children will never run, so the
                    # parent cube stays undecided.  Recording it as a
                    # split would let the Kleene join count it as
                    # resolved-by-children — children it does not have.
                    outcome.status = WorkerOutcome.CANCELLED
                    outcome.reason = outcome.reason or "cancelled before split"
                else:
                    parent = next(
                        t for t in tasks if t.task_id == outcome.task_id
                    )
                    for child_index, subcube in enumerate(outcome.subcubes):
                        extra = subcube[len(parent.cube):]
                        child = SolveTask(
                            task_id=len(tasks),
                            gen=gen,
                            kind=SolveTask.CHECK,
                            problem=parent.problem,
                            config=parent.config,
                            label=f"{parent.label}.{child_index}",
                            assumptions=tuple(parent.assumptions) + tuple(extra),
                            cube=subcube,
                            observe=parent.observe,
                            split_budget=parent.split_budget,
                        )
                        tasks.append(child)
                        if observer.active:
                            observer.publish(
                                CubeDispatched(
                                    task=child.task_id,
                                    literals=len(child.cube),
                                )
                            )
                        self._task_queue.put(child)
            outcomes[outcome.task_id] = outcome
            arrival.append(outcome)
            if observer.active:
                observer.publish(
                    WorkerFinished(
                        task=outcome.task_id,
                        worker=outcome.worker_id,
                        status=outcome.status,
                    )
                )
            if (
                not cancelled
                and early_stop is not None
                and outcome.status in ("sat", "unsat", "unknown")
                and early_stop(outcome)
            ):
                cancelled = True
                decisive = True
                self._cancel(
                    reason=f"first {outcome.status}",
                    pending=len(tasks) - len(outcomes),
                )
                # The verdict is already decided: return now instead of
                # waiting for the losers to notice the generation bump at
                # their next poll (mid-refinement, that can be seconds).
                # Their stale replies carry the old generation and are
                # dropped by the next solve's collect loop; the pool
                # itself stays healthy and reusable.
                break

        if len(outcomes) < len(tasks) and not decisive:
            # Grace expired with workers still busy: terminate the pool —
            # a timed-out solve must not leak orphan processes — and
            # account for the lost tasks explicitly.
            self._teardown(terminate=True)
        if len(outcomes) < len(tasks):
            reason = (
                "superseded by decisive verdict"
                if decisive
                else "terminated after timeout"
            )
            for task in tasks:
                if task.task_id not in outcomes:
                    lost = WorkerOutcome(
                        task_id=task.task_id,
                        worker_id=-1,
                        gen=gen,
                        status=WorkerOutcome.CANCELLED,
                        reason=reason,
                        label=task.label,
                    )
                    outcomes[task.task_id] = lost
                    arrival.append(lost)

        self.shared_lemmas = list(shared.values())
        return outcomes, arrival, timed_out

    def _cancel(self, reason: str, pending: int) -> None:
        self._bump_generation()
        self._cancellations += 1
        if self.observer.active:
            self.observer.publish(ParallelCancelled(reason=reason, pending=pending))

    def _handle_lemma(self, message, gen: int, shared) -> None:
        _, stamped_gen, worker_id, clause = message
        if stamped_gen != gen:
            return
        key = tuple(sorted(clause))
        if key in shared:
            self._lemmas_deduped += 1
            return
        shared[key] = list(clause)
        self._lemmas_shared += 1
        if self.observer.active:
            self.observer.publish(LemmaShared(size=len(clause)))
        for index, lemma_queue in enumerate(self._lemma_queues):
            if index != worker_id:
                lemma_queue.put((gen, list(clause)))
