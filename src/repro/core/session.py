"""Incremental solve sessions: an assertion stack over the staged pipeline.

ABsolver's application domain (paper, Sec. 5) is bounded analysis of hybrid
models, where one model yields a *family* of closely related AB-queries —
deepening unrollings, per-property checks.  A :class:`SolverSession` keeps
the expensive state alive between those queries instead of rebuilding it:

* the CDCL solver instance, including its learned clauses, VSIDS
  activities, and saved phases;
* every theory lemma (blocking clause) derived from IIS refinement or
  interval refutation in earlier ``check`` calls, or adopted from
  elsewhere with :meth:`SolverSession.import_lemmas`;
* the theory-translation caches (definition literal -> linear row, the
  bound rows) and the simplex warm-start point cache.

The assertion stack follows the MiniSat activation-literal discipline.
``push`` opens a frame; clauses asserted inside frame *f* are sent to the
Boolean solver with an extra guard literal ``-a_f``, where ``a_f`` is the
frame's *activation variable*, and every ``check`` assumes all active
``a_f`` true.  ``pop`` retracts a frame by adding the unit ``-a_f``, which
permanently satisfies (i.e. disables) its clauses — the solver's learned
clauses remain globally sound and are never thrown away.

Theory lemmas depend on arithmetic definitions and declared bounds, so each
lemma is guarded by the activation variable of the deepest frame whose
definitions (or bounds) it rests on.  Lemmas grounded entirely in frame-0
state carry no guard: they are frame-independent and survive every ``pop``,
which is where the ``clauses_reused`` statistic comes from.  Candidates
blocked only because the nonlinear stage could not settle them are tracked
the same way; as long as such an *indefinite* lemma is active, an exhausted
Boolean space answers UNKNOWN, not UNSAT.  A bound widened after a check
is the one change no guard covers (a lemma derived under the narrower box
may rest on a frame that stays open), so it restarts the Boolean engine
and every lemma is derived again.

The one-shot :meth:`repro.core.solver.ABSolver.solve` is a thin wrapper
over a single-use session, so its behaviour (and every existing test) is
unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from ..obs.events import CheckStarted, FramePopped, FramePushed, LemmaReused, LemmasRetracted
from ..sat.cnf import CNF, Clause, normalize_clause
from .expr import Constraint
from .pipeline import SolvePipeline
from .problem import ABProblem, widens
from .registry import SolverRegistry
from .stats import SolveStatistics

__all__ = ["SolverSession"]

#: Sentinel marking "this bound did not exist before the frame set it".
_MISSING = object()


class _Frame:
    """One assertion-stack frame (levels are 1-based; level 0 is the base)."""

    __slots__ = ("level", "clause_mark", "defined_vars", "saved_bounds", "act_var")

    def __init__(self, level: int, clause_mark: int):
        self.level = level
        #: Length of the mirror CNF's clause list when the frame opened
        #: (pop truncates back to it).
        self.clause_mark = clause_mark
        self.defined_vars: List[int] = []
        #: Bound values shadowed by this frame: variable -> previous value
        #: (or ``_MISSING``), restored on pop.
        self.saved_bounds: Dict[str, object] = {}
        #: Activation variable; allocated lazily, ``None`` until first used.
        self.act_var: Optional[int] = None


class _Lemma:
    """An active theory lemma and the frame whose state justifies it."""

    __slots__ = ("clause", "frame", "definite")

    def __init__(self, clause: List[int], frame: Optional[_Frame], definite: bool):
        self.clause = clause
        self.frame = frame  # None = frame-independent (never retracted)
        self.definite = definite


class SolverSession:
    """A persistent, incremental solving context over one evolving problem.

    Typical use::

        session = SolverSession()
        session.assert_problem(base)          # frame 0: the model skeleton
        for depth in range(2, 9):
            session.push()
            session.assert_clause(step_clause(depth))
            result = session.check()
            session.pop()                      # or keep deepening monotonically

    ``check`` may be called any number of times; each call returns an
    :class:`~repro.core.solver.ABResult` whose ``stats`` describe that query
    alone, while :attr:`stats` accumulates over the whole session (see
    :meth:`repro.core.stats.SolveStatistics.merge`).

    The session's Boolean substrate must be incremental; the default CDCL
    adapter is.  Activation variables are allocated above the highest
    variable the session has seen — asserting a clause that mentions one
    raises ``ValueError``.
    """

    def __init__(
        self,
        config=None,  # ABSolverConfig
        registry: Optional[SolverRegistry] = None,
    ):
        from .solver import ABSolverConfig

        self.config = config or ABSolverConfig()
        self.pipeline = SolvePipeline(self.config, registry)
        self.problem = ABProblem(name="session")
        #: Cumulative statistics over every ``check`` of this session.
        self.stats = SolveStatistics()
        #: Statistics of the most recent ``check`` (same object as the
        #: returned result's ``stats``).
        self.last_stats: Optional[SolveStatistics] = None

        #: Optional callback ``listener(clause, definite)`` invoked for every
        #: theory lemma this session derives (before guarding).  Parallel
        #: workers stream definite lemmas to the coordinator through it.
        self.lemma_listener = None

        self._frames: List[_Frame] = []
        self._lemmas: List[_Lemma] = []
        self._def_level: Dict[int, int] = {}  # boolean var -> defining frame level
        self._act_set: Set[int] = set()
        self._max_var = 0
        #: Guarded clauses destined for the Boolean solver's very first
        #: solve (incremental adapters only accept add_clause afterwards).
        self._bootstrap = CNF()
        self._started = False

    # ------------------------------------------------------------------
    # Assertion stack
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current assertion-stack depth (0 = no frames pushed)."""
        return len(self._frames)

    def push(self) -> int:
        """Open a new assertion frame; returns the new depth."""
        self._frames.append(
            _Frame(len(self._frames) + 1, len(self.problem.cnf.clauses))
        )
        depth = len(self._frames)
        observer = self.pipeline.observer
        observer.instant("session.push", category="session", depth=depth)
        if observer.active:
            observer.publish(FramePushed(depth=depth))
        return depth

    def pop(self) -> None:
        """Retract the deepest frame: its clauses, definitions, and bounds.

        Raises ``IndexError`` at depth 0.  Theory lemmas that rest on the
        frame's definitions or bounds are retracted with it (their guard
        literal is permanently falsified); frame-independent lemmas stay.
        """
        if not self._frames:
            raise IndexError("pop past assertion level 0")
        observer = self.pipeline.observer
        with observer.span("session.pop", category="session", depth=len(self._frames)):
            frame = self._frames.pop()
            del self.problem.cnf.clauses[frame.clause_mark :]
            self.pipeline.clauses_retracted()
            if frame.defined_vars:
                for var in frame.defined_vars:
                    del self.problem.definitions[var]
                    del self._def_level[var]
                self.pipeline.definitions_removed(frame.defined_vars)
            if frame.saved_bounds:
                for var, previous in frame.saved_bounds.items():
                    if previous is _MISSING:
                        self.problem.bounds.pop(var, None)
                    else:
                        self.problem.bounds[var] = previous  # type: ignore[assignment]
                self.pipeline.bounds_changed()
            if frame.act_var is not None:
                self._send_clause([-frame.act_var])
            kept = [lemma for lemma in self._lemmas if lemma.frame is not frame]
            retracted = len(self._lemmas) - len(kept)
            self.stats.lemmas_retracted += retracted
            self._lemmas = kept
        if observer.active:
            observer.publish(FramePopped(depth=len(self._frames)))
            if retracted:
                observer.publish(
                    LemmasRetracted(count=retracted, depth=len(self._frames))
                )

    # ------------------------------------------------------------------
    # Assertions
    # ------------------------------------------------------------------
    def reserve_variables(self, num_vars: int) -> None:
        """Reserve the Boolean variables ``1..num_vars`` for assertions.

        Activation variables are allocated *above* the highest variable the
        session has seen, so a caller that will keep introducing variables
        after frames have been checked (e.g. one delta file per frame) must
        reserve the full range upfront — the MiniSat ``newVar`` discipline —
        or a later assertion may collide with an activation variable.
        """
        if num_vars > self._max_var:
            self.problem.cnf.num_vars = max(self.problem.cnf.num_vars, num_vars)
            self._max_var = num_vars

    def assert_clause(self, literals: Sequence[int]) -> None:
        """Assert a Boolean clause in the current frame."""
        clause, top = normalize_clause(literals)
        self._assert_clauses(() if clause is None else (clause,), top)

    def define(self, boolean_var: int, domain: str, constraint: Constraint) -> None:
        """Attach an arithmetic definition to ``boolean_var`` in this frame."""
        if boolean_var in self._act_set:
            raise ValueError(
                f"variable {boolean_var} is a session activation variable"
            )
        self.problem.define(boolean_var, domain, constraint)
        self._max_var = max(self._max_var, self.problem.cnf.num_vars)
        level = len(self._frames)
        self._def_level[boolean_var] = level
        if level:
            self._frames[-1].defined_vars.append(boolean_var)
        self.pipeline.definitions_added()
        if self._started:
            # Make sure the live Boolean solver materializes the variable
            # (a tautology is dropped after variable allocation).
            self.pipeline.candidate.block([boolean_var, -boolean_var])

    def assert_constraint(
        self, constraint: Constraint, domain: str = "real"
    ) -> int:
        """Assert an arithmetic constraint to hold; returns its fresh tag.

        Allocates a new Boolean variable, defines it with ``constraint``,
        and asserts the unit clause forcing it true — all in the current
        frame, so a ``pop`` retracts the constraint cleanly.
        """
        var = self._max_var + 1
        self.define(var, domain, constraint)
        self.assert_clause([var])
        return var

    def set_bounds(
        self,
        variable: str,
        low: Optional[float] = None,
        high: Optional[float] = None,
    ) -> None:
        """Declare a theory-variable box bound in the current frame.

        A bound that widens the variable's box after a check restarts the
        Boolean engine (:meth:`_restart_boolean`): the theory lemmas and
        presolve units it holds may rest on the narrower box, and a frame's
        activation literal can retract only what rests on that frame.
        """
        previous = self.problem.bounds.get(variable)
        if self._frames:
            frame = self._frames[-1]
            if variable not in frame.saved_bounds:
                frame.saved_bounds[variable] = (
                    _MISSING if previous is None else previous
                )
        self.problem.set_bounds(variable, low, high)
        self.pipeline.bounds_changed()
        if self._started and previous is not None and widens(previous, (low, high)):
            self._restart_boolean()

    def assert_problem(self, problem: ABProblem) -> None:
        """Assert a whole AB-problem (clauses, definitions, bounds) at once.

        May be called repeatedly (e.g. one delta file per call, sharing the
        variable numbering): a definition identical to one already asserted
        is skipped, a *conflicting* redefinition raises ``ValueError``.

        The problem's clauses are taken whole, without normalizing them
        again: a :class:`~repro.sat.cnf.CNF` holds normalized tuples, and
        its ``num_vars`` covers every literal.  A clause that names one of
        the session's activation variables raises ``ValueError`` before any
        clause is asserted.
        """
        self._assert_clauses(problem.cnf.clauses, problem.cnf.num_vars)
        for definition in problem.definitions.values():
            existing = self.problem.definitions.get(definition.boolean_var)
            if existing is not None:
                if (
                    existing.domain == definition.domain
                    and existing.constraint == definition.constraint
                ):
                    continue
                raise ValueError(
                    f"variable {definition.boolean_var} already carries a "
                    f"different definition in this session"
                )
            self.define(definition.boolean_var, definition.domain, definition.constraint)
        for variable, (low, high) in problem.bounds.items():
            self.set_bounds(variable, low, high)
        if problem.name and self.problem.name == "session":
            self.problem.name = problem.name

    def import_lemmas(self, clauses: Sequence[Sequence[int]]) -> int:
        """Adopt definite theory lemmas derived elsewhere (e.g. by a parallel
        worker, or by another session holding the same assertions).

        Each clause must be over this session's variable numbering, and
        every variable it mentions must carry a definition here; otherwise
        ``ValueError`` is raised and nothing is imported.  A clause takes
        the path of a locally derived lemma: it is guarded by the
        activation variable of the frame it rests on, so a later ``pop``
        retracts it with that frame, and sent to the Boolean engine.  The
        session cannot see what a foreign lemma rests on — under presolve,
        bounds deduced from any frame's clauses — so that frame is the
        deepest one holding any state.  ``lemma_listener`` is not called:
        the lemma is not this session's own, and a worker would otherwise
        echo every foreign lemma back to the coordinator that sent it.

        Returns the number of lemmas adopted (also counted in the session
        stats as ``lemmas_imported``).
        """
        clauses = [list(clause) for clause in clauses]
        for clause in clauses:
            for literal in clause:
                if abs(literal) not in self.problem.definitions:
                    raise ValueError(
                        f"lemma literal {literal} names variable {abs(literal)}, "
                        f"which has no definition in this session"
                    )
        level = self._deepest_contentful_level()
        frame = self._frames[level - 1] if level else None
        for clause in clauses:
            self._send_clause(self._guard(clause, True, frame))
        self.stats.lemmas_imported += len(clauses)
        return len(clauses)

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def check(self, assumptions: Sequence[int] = (), poll=None):
        """Decide satisfiability of the currently asserted stack.

        ``assumptions`` are extra literals forced for this query only (on
        top of the frames' activation literals).  Returns an
        :class:`~repro.core.solver.ABResult`; its ``stats`` cover this query
        and are also merged into the session-wide :attr:`stats`.

        ``poll`` (optional, zero-arg, returns bool) is consulted once per
        pipeline iteration; returning False cancels the query (UNKNOWN,
        reason "cancelled").  Parallel workers drain their shared-lemma
        queue inside it.
        """
        from .solver import ABModel, ABResult, ABStatus

        query_stats = SolveStatistics()
        query_stats.queries = 1
        query_stats.clauses_reused = len(self._lemmas)
        self.pipeline.stats = query_stats

        observer = self.pipeline.observer
        if observer.active:
            observer.publish(
                CheckStarted(depth=self.depth, assumptions=len(assumptions))
            )
            if self._lemmas:
                observer.publish(LemmaReused(count=len(self._lemmas)))

        # Every active frame needs its activation literal assumed, even if
        # the frame has no clauses yet: a lemma learned *during* this query
        # may be guarded by it, and the assumption set is fixed per query.
        effective: List[int] = [
            self._activation_var(frame) for frame in self._frames
        ]
        effective.extend(assumptions)

        if not self._started:
            self._bootstrap.num_vars = max(self._bootstrap.num_vars, self._max_var)
            self.pipeline.prepare(self._bootstrap)
        self._started = True

        prior_incomplete = any(not lemma.definite for lemma in self._lemmas)
        with observer.span(
            "session.check",
            category="session",
            depth=self.depth,
            lemmas_active=len(self._lemmas),
        ):
            result = self.pipeline.run_query(
                self.problem,
                effective,
                record_certificate=self.config.record_certificate,
                on_lemma=self._on_lemma,
                prior_incomplete=prior_incomplete,
                poll=poll,
                # Verdict-cache key: user-level literals only.  Activation
                # literals are process-local bookkeeping; the asserted
                # clauses they guard are already mirrored into
                # ``self.problem.cnf`` and thus into the fingerprint.
                cache_assumptions=tuple(assumptions),
            )
        if result.model is not None and self._act_set:
            boolean = {
                var: value
                for var, value in result.model.boolean.items()
                if var not in self._act_set
            }
            result = ABResult(
                ABStatus.SAT,
                model=ABModel(boolean, result.model.theory),
                stats=result.stats,
            )
        self.last_stats = query_stats
        self.stats.merge(query_stats)
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _activation_var(self, frame: _Frame) -> int:
        if frame.act_var is None:
            self._max_var += 1
            frame.act_var = self._max_var
            self._act_set.add(frame.act_var)
        return frame.act_var

    def _assert_clauses(self, clauses: Sequence[Clause], num_vars: int) -> None:
        """Assert normalized clauses over ``1..num_vars`` in the current frame.

        The one clause intake of :meth:`assert_clause` and
        :meth:`assert_problem`: the clauses join the mirror CNF in one step,
        are guarded by the frame's activation literal inside a pushed frame,
        and reach the Boolean engine through the bootstrap CNF before the
        first check, one by one after it.
        """
        act_set = self._act_set
        if act_set:
            for clause in clauses:
                for literal in clause:
                    if abs(literal) in act_set:
                        raise ValueError(
                            f"variable {abs(literal)} is a session activation variable"
                        )
        cnf = self.problem.cnf
        cnf.num_vars = max(cnf.num_vars, num_vars)
        self._max_var = max(self._max_var, num_vars)
        cnf.clauses.extend(clauses)
        self.pipeline.clauses_changed()
        if self._frames:
            guard = -self._activation_var(self._frames[-1])
            clauses = [clause + (guard,) for clause in clauses]
        if self._started:
            for clause in clauses:
                self.pipeline.candidate.block(clause)
        else:
            # Still normalized: the guard variable occurs in no clause.
            bootstrap = self._bootstrap
            bootstrap.num_vars = max(bootstrap.num_vars, self._max_var)
            bootstrap.clauses.extend(clauses)

    def _restart_boolean(self) -> None:
        """Drop every lemma with the Boolean engine that holds them.

        The next check starts a fresh engine on the asserted clauses, each
        guarded by its frame's activation literal, as the first check does;
        lemmas are derived again where they still hold.
        """
        self.pipeline.restart_boolean()
        clauses = self.problem.cnf.clauses
        marks = [frame.clause_mark for frame in self._frames]
        marks.append(len(clauses))
        bootstrap = CNF(self._max_var)
        bootstrap.clauses.extend(clauses[: marks[0]])
        for frame, start, end in zip(self._frames, marks, marks[1:]):
            if end > start:
                guard = -self._activation_var(frame)
                bootstrap.clauses.extend(
                    clause + (guard,) for clause in clauses[start:end]
                )
        self._bootstrap = bootstrap
        self._started = False
        self.stats.lemmas_retracted += len(self._lemmas)
        self._lemmas = []

    def _send_clause(self, clause: List[int]) -> None:
        if self._started:
            self.pipeline.candidate.block(clause)
        else:
            self._bootstrap.add_clause(clause)

    def _lemma_frame(self, clause: Sequence[int]) -> Optional[_Frame]:
        """The deepest frame whose state a lemma rests on (None = frame 0).

        A theory lemma over definition literals is justified by (a) the
        definitions of the variables it mentions, (b) the bounds that
        were active when it was derived (bound rows enter every LP, and the
        nonlinear/interval stages read the box directly), and (c) — while a
        contentful presolve store is active — the *clauses* of every frame,
        because the store's deductions (tightened bound rows, emitted
        units) follow from Boolean unit propagation over the whole stack.
        In that case the lemma is guarded by the deepest frame that
        contributed any state at all: conservative (a pop may retract a
        lemma that was actually frame-independent), but never unsound.
        """
        level = 0
        for literal in clause:
            level = max(level, self._def_level.get(abs(literal), 0))
        for frame in self._frames:
            if frame.saved_bounds:
                level = max(level, frame.level)
        store = self.pipeline.presolve.active_store()
        if store is not None and store.contentful:
            level = max(level, self._deepest_contentful_level())
        if level == 0:
            return None
        return self._frames[level - 1]

    def _deepest_contentful_level(self) -> int:
        """The deepest frame holding clauses, definitions, or bounds."""
        marks = [frame.clause_mark for frame in self._frames]
        marks.append(len(self.problem.cnf.clauses))
        for index in range(len(self._frames) - 1, -1, -1):
            frame = self._frames[index]
            if (
                frame.defined_vars
                or frame.saved_bounds
                or marks[index + 1] > frame.clause_mark
            ):
                return frame.level
        return 0

    def _on_lemma(self, clause: List[int], definite: bool) -> List[int]:
        """Pipeline hook: report, guard and register every learned lemma."""
        if self.lemma_listener is not None:
            self.lemma_listener(list(clause), definite)
        return self._guard(clause, definite, self._lemma_frame(clause))

    def _guard(
        self, clause: List[int], definite: bool, frame: Optional[_Frame]
    ) -> List[int]:
        """Register a lemma resting on ``frame``; return it guarded by it."""
        self._lemmas.append(_Lemma(list(clause), frame, definite))
        if frame is None:
            return clause
        return clause + [-self._activation_var(frame)]
