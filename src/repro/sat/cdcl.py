"""A CDCL SAT solver — the reproduction's stand-in for zChaff [7].

Implements the modern conflict-driven clause-learning kernel:

* two-watched-literal propagation with **blocker literals** — each watcher
  carries a cached literal from the clause, so propagation skips satisfied
  clauses without touching clause memory,
* first-UIP conflict analysis with clause learning, non-chronological
  backjumping, and **recursive learned-clause minimization**
  (self-subsumption against reason clauses),
* VSIDS variable activities behind an **indexed binary max-heap** (lazy
  deletion of assigned variables, re-insertion on backtrack) with the
  standard increment-scaling decay (``var_inc /= decay``, rescale on
  overflow) so decay is O(1),
* **LBD-based clause-database reduction** — each learned clause records its
  literal block distance (number of distinct decision levels); periodic
  sweeps delete the worst half of the deletable learned clauses, always
  keeping binary, glue (LBD <= 2), reason-locked, and *protected* clauses
  (problem clauses and externally added blocking clauses are protected by
  default and never deleted),
* Luby-sequence restarts and phase saving,
* incremental use: clauses may be added between ``solve`` calls, and each
  call may carry assumption literals (this is what the tightly-integrated
  MathSAT-like baseline builds on).  A clause added above level 0 keeps
  the trail: like a learned clause it backjumps only as far as it must
  (to the level where it would have propagated) and implies its
  remaining literal there, so a blocking clause costs the search below
  that level nothing.  The next ``solve`` under the same assumptions
  resumes from that trail; other assumptions, or a call after one that
  returned ``None`` or ran out of budget, start again from level 0.

The public surface (``CDCLSolver``, ``solve_cdcl``, ``luby``) and the
seed-reproducibility contract are unchanged: two solvers built with the
same seed make identical decisions and report identical counters.
"""

from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from .cnf import CNF, Assignment

__all__ = ["CDCLSolver", "solve_cdcl", "luby"]


def luby(i: int) -> int:
    """The i-th element (1-based) of the Luby restart sequence.

    luby(2^k - 1) = 2^(k-1); otherwise, with k the smallest value such that
    i < 2^k - 1, luby(i) = luby(i - 2^(k-1) + 1).
    """
    if i <= 0:
        raise ValueError("luby index is 1-based")
    while True:
        k = 1
        while (1 << k) - 1 < i:
            k += 1
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i = i - (1 << (k - 1)) + 1


class CDCLSolver:
    """Incremental CDCL solver over DIMACS-style integer literals."""

    _UNASSIGNED = -1

    def __init__(
        self,
        cnf: Optional[CNF] = None,
        restart_base: int = 100,
        activity_decay: float = 0.95,
        max_conflicts: Optional[int] = None,
        seed: Optional[int] = None,
        clause_decay: float = 0.999,
        reduce_interval: int = 2000,
    ):
        self.restart_base = restart_base
        self.activity_decay = activity_decay
        self.max_conflicts = max_conflicts
        #: Clause-activity decay factor (increment scaling, like variables).
        self.clause_decay = clause_decay
        #: Conflicts between clause-database reduction sweeps; ``0`` (or any
        #: non-positive value) disables reduction entirely.
        self.reduce_interval = reduce_interval
        #: Reproducible diversification: a seeded RNG jitters the initial
        #: VSIDS activity (breaking the index-order tie of untouched
        #: variables) and randomizes the initial saved phase.  ``None``
        #: (the default) keeps the historical deterministic heuristics:
        #: activity 0.0, phase False.  Two solvers built with the same seed
        #: make identical decisions.
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None

        self._num_vars = 0
        #: Clause store plus parallel metadata arrays (index-aligned).
        self._clauses: List[List[int]] = []
        self._deletable: List[bool] = []  # False = protected, never reduced
        self._lbd: List[int] = []
        self._clause_act: List[float] = []
        self._clause_inc = 1.0
        #: literal -> list of ``(clause_index, blocker)`` watcher pairs.
        self._watches: Dict[int, List[Tuple[int, int]]] = {}
        self._values: List[int] = [self._UNASSIGNED]  # per-var: -1 / 0 / 1
        self._levels: List[int] = [0]
        self._reasons: List[Optional[int]] = [None]
        self._saved_phase: List[int] = [0]
        self._activity: List[float] = [0.0]
        self._activity_inc = 1.0
        #: Indexed binary max-heap over VSIDS activity.  Entries are
        #: ``(-activity, var)`` pairs in a C-backed ``heapq`` min-heap;
        #: ``_heap_member[var]`` is the membership index.  Deletion is lazy
        #: (popped entries whose membership flag is cleared are discarded)
        #: and a bump while queued pushes a fresh higher-priority duplicate
        #: rather than re-keying in place — the freshest entry always pops
        #: first because activities only grow between rescales.
        self._heap: List[Tuple[float, int]] = []
        self._heap_member = bytearray(1)
        #: Persistent conflict-analysis scratch (one flag per variable plus
        #: the list of marks to undo) — reused across conflicts instead of
        #: allocating an O(num_vars) array per conflict.
        self._seen = bytearray(1)
        self._to_clear: List[int] = []
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._propagation_head = 0
        self._unsat = False  # an empty clause was added
        self._conflicts_until_reduce = reduce_interval
        #: Assumptions of the last ``solve`` that returned a model; only a
        #: call under the same assumptions resumes from the trail it left.
        self._resume_assumptions: Optional[Tuple[int, ...]] = None

        # statistics
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.heap_decisions = 0
        self.clauses_reduced = 0
        self.clauses_minimized_lits = 0
        self.reductions = 0

        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # Formula construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def learned_live(self) -> int:
        """Deletable learned clauses currently in the database."""
        return sum(self._deletable)

    def counters(self) -> Dict[str, int]:
        """All solver counters as a dict (reproducibility assertions)."""
        return {
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "heap_decisions": self.heap_decisions,
            "clauses_reduced": self.clauses_reduced,
            "clauses_minimized_lits": self.clauses_minimized_lits,
            "reductions": self.reductions,
        }

    def _ensure_var(self, var: int) -> None:
        while self._num_vars < var:
            self._num_vars += 1
            self._values.append(self._UNASSIGNED)
            self._levels.append(0)
            self._reasons.append(None)
            if self._rng is None:
                self._saved_phase.append(0)
                self._activity.append(0.0)
            else:
                self._saved_phase.append(1 if self._rng.random() < 0.5 else 0)
                self._activity.append(self._rng.random() * 1e-4)
            self._watches[self._num_vars] = []
            self._watches[-self._num_vars] = []
            self._seen.append(0)
            self._heap_member.append(1)
            heappush(self._heap, (-self._activity[self._num_vars], self._num_vars))

    def add_cnf(self, cnf: CNF) -> None:
        """Add a CNF's clauses as protected clauses.

        A :class:`CNF` holds normalized clauses over ``1..num_vars``, so the
        variables are allocated once and no clause is normalized again.
        While nothing is assigned, a clause of two or more literals is
        watched on its first two, which is all :meth:`_attach_normalized`
        would do; from the first unit on, each clause goes through it.
        """
        if self._trail_limits:
            self._backtrack(0)
        self._ensure_var(cnf.num_vars)
        trail = self._trail
        attach = self._attach_clause
        for clause in cnf.clauses:
            if trail or len(clause) < 2:
                self._attach_normalized(list(clause), False)
            else:
                attach(list(clause), False, len(clause))

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        """Add a clause for later ``solve`` calls, keeping the trail.

        A unit, or any clause while no decision is open, is added at level
        0.  A longer clause above level 0 is attached where the search
        stands (:meth:`_attach_above_root`), backjumping only as far as a
        learned clause would.

        ``protected`` clauses (the default for every external add: problem
        clauses, the pipeline's blocking clauses, allsat's model-blocking
        clauses) are never deleted by clause-database reduction.  Pass
        ``protected=False`` only for clauses that are *logically implied* by
        the rest of the database (e.g. externally shared lemmas), where
        dropping them is sound.
        """
        seen = set()
        clause: List[int] = []
        for literal in literals:
            if literal == 0:
                raise ValueError("0 is not a valid literal")
            self._ensure_var(abs(literal))
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
        if len(clause) > 1 and self._trail_limits:
            self._attach_above_root(clause, not protected)
            return
        self._backtrack(0)
        self._attach_normalized(clause, not protected)

    def _attach_above_root(self, clause: List[int], deletable: bool) -> None:
        """Attach a normalized clause of two or more literals while decisions
        are open, keeping every assignment below its assertion level.

        One pass ranks the literals: non-false ones above false ones, false
        ones by level.  The top two take the watch slots, and

        * two non-false literals: the clause is watched on them;
        * one non-false literal ``p`` over false ones of top level ``m``:
          ``p`` unassigned, or true above ``m``, would have been implied at
          ``m`` — backjump there and imply it; ``p`` true at or below ``m``
          is watched with the false literal at ``m``;
        * all false, one literal on the top level: backjump to the level of
          the next and imply the top literal;
        * all false, two on the top level ``l``: backjump to ``l - 1``,
          which frees both watches.

        So a watched false literal always has a true partner at or below
        its level, and a later backjump cannot silently make the clause
        unit.  A backjump to level 0 takes :meth:`_attach_normalized`'s
        path (which also flags a clause false at level 0 as UNSAT).
        """
        values = self._values
        levels = self._levels
        current = len(self._trail_limits)
        top = second = -1
        top_level = second_level = -1
        for position, literal in enumerate(clause):
            var = literal if literal > 0 else -literal
            # Non-false literals rank above every false one.
            level = levels[var] if values[var] == (literal < 0) else current + 1
            if level > top_level:
                second, second_level = top, top_level
                top, top_level = position, level
            elif level > second_level:
                second, second_level = position, level
                if second_level > current:
                    break  # two non-false literals: nothing more to learn
        if second_level > current:  # two non-false literals
            target, implied = current, False
        elif top_level == second_level:  # false, two on the top level
            target, implied = top_level - 1, False
        else:
            # The top literal stands alone above the rest: implied at the
            # next level down unless it is already true at or below it.
            var = abs(clause[top])
            implied = values[var] == self._UNASSIGNED or levels[var] > second_level
            target = second_level if implied else current
        if target <= 0:
            self._backtrack(0)
            self._attach_normalized(clause, deletable)
            return
        if top != 0:
            clause[0], clause[top] = clause[top], clause[0]
            if second == 0:
                second = top
        if second != 1:
            clause[1], clause[second] = clause[second], clause[1]
        self._backtrack(target)
        index = self._attach_clause(clause, deletable, len(clause))
        if implied:
            self._enqueue(clause[0], index)

    def _attach_normalized(self, clause: List[int], deletable: bool) -> None:
        """Add a clause at level 0 whose literals are distinct, free of
        complementary pairs and over allocated variables: an empty clause
        makes the formula UNSAT, a unit is enqueued, anything else is
        watched."""
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            # Unit clauses are enqueued directly at level 0.
            value = self._literal_value(clause[0])
            if value == 0:
                self._unsat = True
            elif value == self._UNASSIGNED:
                self._enqueue(clause[0], None)
            return
        # Incremental soundness: literals may already be assigned at level 0.
        # The two-watched-literal invariant requires both watches to be
        # non-false (or the clause handled right now), because watch triggers
        # only fire on *future* assignments.  One pass over the clause finds
        # a satisfying literal and the first two free ones (all the watch
        # positions need) — long external blocking clauses are hot here.
        values = self._values
        satisfied = False
        free_count = 0
        free_first = -1
        free_second = -1
        for position, literal in enumerate(clause):
            value = values[literal if literal > 0 else -literal]
            if value == self._UNASSIGNED:
                free_count += 1
                if free_first < 0:
                    free_first = position
                elif free_second < 0:
                    free_second = position
            elif value == (literal > 0):
                satisfied = True
                break
        if satisfied:
            # Satisfied at level 0; harmless to watch any two literals.
            self._attach_clause(clause, deletable, len(clause))
            return
        if free_count == 0:
            self._unsat = True
            return
        # Move the free literals into the watch slots (free_first comes
        # before free_second, so the second swap never disturbs the first).
        if free_first != 0:
            clause[0], clause[free_first] = clause[free_first], clause[0]
        if free_count == 1:
            # Effectively unit at level 0: enqueue, then attach with the free
            # literal watched so future backtracking keeps the invariant.
            index = self._attach_clause(clause, deletable, len(clause))
            self._enqueue(clause[0], index)
            return
        if free_second != 1:
            clause[1], clause[free_second] = clause[free_second], clause[1]
        self._attach_clause(clause, deletable, len(clause))

    def _attach_clause(self, clause: List[int], deletable: bool = False, lbd: int = 0) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._deletable.append(deletable)
        self._lbd.append(lbd)
        self._clause_act.append(0.0)
        # Each watcher caches the *other* watched literal as its blocker.
        self._watches[clause[0]].append((index, clause[1]))
        self._watches[clause[1]].append((index, clause[0]))
        return index

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _literal_value(self, literal: int) -> int:
        """0 = false, 1 = true, -1 = unassigned, under current assignment."""
        value = self._values[abs(literal)]
        if value == self._UNASSIGNED:
            return self._UNASSIGNED
        return value if literal > 0 else 1 - value

    @property
    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: int, reason: Optional[int]) -> None:
        var = abs(literal)
        self._values[var] = 1 if literal > 0 else 0
        self._levels[var] = self._decision_level
        self._reasons[var] = reason
        self._trail.append(literal)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None.

        Watcher lists hold ``(clause_index, blocker)`` pairs and are
        compacted in place; a true blocker skips the clause without
        touching its literal array.  (Literal truth tests are inlined:
        with values coded -1/0/1, literal ``p`` is true iff
        ``values[abs(p)] == (p > 0)`` and false iff ``values[abs(p)] == (p < 0)``.)
        """
        values = self._values
        levels = self._levels
        reasons = self._reasons
        clauses = self._clauses
        watches = self._watches
        trail = self._trail
        level = len(self._trail_limits)
        head = self._propagation_head
        propagated = 0
        while head < len(trail):
            literal = trail[head]
            head += 1
            propagated += 1
            false_literal = -literal
            watch_list = watches[false_literal]
            size = len(watch_list)
            read = 0
            conflict: Optional[int] = None
            # Fast path: skip the prefix of watchers whose blocker is true
            # without rewriting the list (the common case once blocking
            # clauses accumulate).
            while read < size:
                blocker = watch_list[read][1]
                if values[blocker if blocker > 0 else -blocker] != (blocker > 0):
                    break
                read += 1
            write = read
            while read < size:
                pair = watch_list[read]
                read += 1
                blocker = pair[1]
                if values[blocker if blocker > 0 else -blocker] == (blocker > 0):
                    watch_list[write] = pair
                    write += 1
                    continue
                clause_index = pair[0]
                clause = clauses[clause_index]
                # Normalize so the false literal is at position 1.
                if clause[0] == false_literal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                first_value = values[first if first > 0 else -first]
                if first_value == (first > 0):
                    # Satisfied by the other watch; refresh the blocker.
                    watch_list[write] = (clause_index, first)
                    write += 1
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    other = clause[k]
                    if values[other if other > 0 else -other] != (other < 0):
                        clause[1], clause[k] = other, false_literal
                        watches[other].append((clause_index, first))
                        moved = True
                        break
                if moved:
                    continue
                watch_list[write] = (clause_index, first)
                write += 1
                if first_value == (first < 0):
                    # Conflict: keep the unexamined watcher tail, report.
                    while read < size:
                        watch_list[write] = watch_list[read]
                        write += 1
                        read += 1
                    conflict = clause_index
                    break
                # Inlined _enqueue (the hottest call site in the kernel).
                var = first if first > 0 else -first
                values[var] = 1 if first > 0 else 0
                levels[var] = level
                reasons[var] = clause_index
                trail.append(first)
            if write < size:
                del watch_list[write:]
            if conflict is not None:
                self._propagation_head = head
                self.propagations += propagated
                return conflict
        self._propagation_head = head
        self.propagations += propagated
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int, int]:
        """Derive a minimized 1-UIP clause, backjump level, and its LBD.

        Uses the persistent ``_seen``/``_to_clear`` scratch (no per-conflict
        allocation).  Reason clauses keep their implied literal at position
        0 while locked, so resolution iterates ``clause[1:]`` directly.
        """
        seen = self._seen
        to_clear = self._to_clear
        levels = self._levels
        trail = self._trail
        activity = self._activity
        member = self._heap_member
        heap = self._heap
        current_level = self._decision_level
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        literal: Optional[int] = None
        index = conflict_index
        trail_index = len(trail) - 1

        while True:
            self._bump_clause_activity(index)
            clause = self._clauses[index]
            # Skip position 0 when resolving on a reason clause: it holds
            # the literal we are resolving away.
            for k in range(0 if literal is None else 1, len(clause)):
                lit = clause[k]
                var = lit if lit > 0 else -lit
                if seen[var] or levels[var] == 0:
                    continue
                seen[var] = 1
                to_clear.append(var)
                # Inlined _bump_activity (hot: every marked var, every
                # conflict); the rare rescale path stays in the method.
                activity[var] += self._activity_inc
                if activity[var] > 1e100:
                    activity[var] -= self._activity_inc
                    self._bump_activity(var)
                    heap = self._heap
                elif member[var]:
                    heappush(heap, (-activity[var], var))
                if levels[var] == current_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk back to the most recent seen literal on the trail.
            while True:
                lit = trail[trail_index]
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
                trail_index -= 1
            literal = lit
            trail_index -= 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = self._reasons[var]
            assert reason is not None, "non-decision literal must have a reason"
            index = reason

        learned[0] = -literal
        if len(learned) > 1:
            self._minimize_learned(learned)
        # Undo every scratch mark (walked vars are already 0; re-clearing
        # is harmless and keeps this a single linear pass).
        for var in to_clear:
            seen[var] = 0
        to_clear.clear()

        if len(learned) == 1:
            return learned, 0, 1
        # Backjump to the second-highest level in the clause.
        backjump_level = max(levels[abs(lit)] for lit in learned[1:])
        # Put a literal from the backjump level in watch position 1.
        for k in range(1, len(learned)):
            if levels[abs(learned[k])] == backjump_level:
                learned[1], learned[k] = learned[k], learned[1]
                break
        lbd = len({levels[abs(lit)] for lit in learned})
        return learned, backjump_level, lbd

    def _minimize_learned(self, learned: List[int]) -> None:
        """Recursive learned-clause minimization (self-subsumption).

        Drops any literal whose negation is implied — through reason
        clauses only, i.e. by repeated self-subsumption resolution — by the
        remaining clause literals and level-0 facts.  All clause literals
        are still marked in ``_seen`` when this runs (that is the
        redundancy oracle), and marks added during successful checks are
        kept as memoization.
        """
        seen = self._seen
        to_clear = self._to_clear
        levels = self._levels
        reasons = self._reasons
        clauses = self._clauses
        clause_levels = {levels[lit if lit > 0 else -lit] for lit in learned[1:]}
        kept = [learned[0]]
        removed = 0
        for lit in learned[1:]:
            if reasons[lit if lit > 0 else -lit] is None:
                kept.append(lit)  # decisions are never redundant
                continue
            # Iterative DFS over reason clauses: ``lit`` is redundant when
            # every path bottoms out in marked or level-0 vars.  A path
            # fails (and the whole check aborts) when it reaches a decision
            # or a level outside the clause — marks made during this check
            # are then undone; marks from successful checks persist (vars
            # proven implied by the clause, a memoization for later checks).
            undo_from = len(to_clear)
            redundant = True
            stack = [lit]
            while stack:
                top = stack.pop()
                clause = clauses[reasons[top if top > 0 else -top]]
                for k in range(1, len(clause)):
                    other = clause[k]
                    var = other if other > 0 else -other
                    if seen[var] or levels[var] == 0:
                        continue
                    if reasons[var] is None or levels[var] not in clause_levels:
                        for marked in to_clear[undo_from:]:
                            seen[marked] = 0
                        del to_clear[undo_from:]
                        redundant = False
                        break
                    seen[var] = 1
                    to_clear.append(var)
                    stack.append(other)
                if not redundant:
                    break
            if redundant:
                removed += 1
            else:
                kept.append(lit)
        if removed:
            learned[:] = kept
            self.clauses_minimized_lits += removed

    # ------------------------------------------------------------------
    # Activities (increment scaling: bump grows, decay divides the bump)
    # ------------------------------------------------------------------
    def _bump_activity(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._activity_inc
        if activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                activity[index] *= 1e-100
            self._activity_inc *= 1e-100
            # Rescale shrinks every priority, so queued entries would pop in
            # pre-rescale order; rebuild the heap from the membership index.
            self._heap = [
                (-activity[v], v)
                for v in range(1, self._num_vars + 1)
                if self._heap_member[v]
            ]
            heapify(self._heap)
        elif self._heap_member[var]:
            heappush(self._heap, (-activity[var], var))

    def _decay_activities(self) -> None:
        self._activity_inc /= self.activity_decay

    def _bump_clause_activity(self, index: int) -> None:
        if not self._deletable[index]:
            return
        activities = self._clause_act
        activities[index] += self._clause_inc
        if activities[index] > 1e20:
            for i in range(len(activities)):
                activities[i] *= 1e-20
            self._clause_inc *= 1e-20

    def _decay_clause_activities(self) -> None:
        self._clause_inc /= self.clause_decay

    # ------------------------------------------------------------------
    # VSIDS order heap (max-heap on activity, lazy deletion)
    # ------------------------------------------------------------------
    def _heap_insert(self, var: int) -> None:
        if not self._heap_member[var]:
            self._heap_member[var] = 1
            heappush(self._heap, (-self._activity[var], var))

    def _heap_compact(self) -> None:
        """Drop stale duplicate entries once they outnumber live ones."""
        activity = self._activity
        self._heap = [
            (-activity[v], v)
            for v in range(1, self._num_vars + 1)
            if self._heap_member[v]
        ]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # Clause-database reduction (LBD / activity ranked)
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Delete the worst half of the deletable learned clauses.

        Kept unconditionally: protected clauses (problem + external
        blocking adds), binary clauses, glue clauses (LBD <= 2), and
        clauses locked as the reason of a current assignment.  Afterwards
        the clause store, reason indices, and every watcher list are
        compacted eagerly.
        """
        clauses = self._clauses
        locked = {reason for reason in self._reasons if reason is not None}
        candidates = [
            index
            for index in range(len(clauses))
            if self._deletable[index]
            and len(clauses[index]) > 2
            and self._lbd[index] > 2
            and index not in locked
        ]
        if len(candidates) < 2:
            return
        # Best first: low LBD, then high activity; doom the second half.
        candidates.sort(key=lambda index: (self._lbd[index], -self._clause_act[index]))
        doomed = set(candidates[len(candidates) // 2:])

        remap: Dict[int, int] = {}
        new_clauses: List[List[int]] = []
        new_deletable: List[bool] = []
        new_lbd: List[int] = []
        new_act: List[float] = []
        for index, clause in enumerate(clauses):
            if index in doomed:
                continue
            remap[index] = len(new_clauses)
            new_clauses.append(clause)
            new_deletable.append(self._deletable[index])
            new_lbd.append(self._lbd[index])
            new_act.append(self._clause_act[index])
        self._clauses = new_clauses
        self._deletable = new_deletable
        self._lbd = new_lbd
        self._clause_act = new_act
        for var in range(1, self._num_vars + 1):
            reason = self._reasons[var]
            if reason is not None:
                self._reasons[var] = remap[reason]
        # Watch-list compaction: rebuild on the surviving indices.  Watch
        # positions 0/1 are unchanged, so the two-watch invariant carries
        # over from before the sweep.
        for watch_list in self._watches.values():
            del watch_list[:]
        for index, clause in enumerate(self._clauses):
            self._watches[clause[0]].append((index, clause[1]))
            self._watches[clause[1]].append((index, clause[0]))
        self.clauses_reduced += len(doomed)
        self.reductions += 1

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_limits[level]
        member = self._heap_member
        heap = self._heap
        values = self._values
        saved_phase = self._saved_phase
        reasons = self._reasons
        activity = self._activity
        for literal in reversed(self._trail[limit:]):
            var = literal if literal > 0 else -literal
            saved_phase[var] = values[var]
            values[var] = self._UNASSIGNED
            reasons[var] = None
            if not member[var]:
                member[var] = 1
                heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------
    def _pick_branch_literal(self) -> Optional[int]:
        """Most-active unassigned variable via the order heap.

        Lazy deletion: variables assigned since their insertion are simply
        popped and skipped, and entries whose membership flag was already
        cleared (stale duplicates from bumps) are discarded.  Every
        unassigned variable is in the heap (inserted on creation,
        re-inserted on backtrack), so an empty heap means a total
        assignment.
        """
        values = self._values
        if len(self._heap) > 2 * self._num_vars + 16:
            self._heap_compact()
        heap = self._heap
        member = self._heap_member
        while heap:
            _, var = heappop(heap)
            if not member[var]:
                continue
            member[var] = 0
            if values[var] == self._UNASSIGNED:
                self.heap_decisions += 1
                phase = self._saved_phase[var]
                return var if phase == 1 else -var
        return None

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        """Search for a model; returns a total assignment or None (UNSAT).

        Assumption literals are decided first (in order); if the formula is
        unsatisfiable under the assumptions, None is returned.

        Under the assumptions of the last call that returned a model, the
        search resumes from the trail that call (and any clause added since)
        left.  A call that returns None or raises leaves a trail that may
        hide a conflict, so the next call starts from level 0.
        """
        if self._unsat:
            return None
        assumptions = tuple(assumptions)
        resume = assumptions == self._resume_assumptions
        self._resume_assumptions = None
        for literal in assumptions:
            # Sessions may assume activation literals the clause database has
            # not mentioned yet; allocate them instead of index-erroring.
            self._ensure_var(abs(literal))
        if not resume:
            self._backtrack(0)
        if not self._trail_limits:
            conflict = self._propagate()
            if conflict is not None:
                self._unsat = True
                return None

        conflicts_until_restart = self.restart_base * luby(self.restarts + 1)
        conflicts_at_start = self.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                if self.max_conflicts is not None and (
                    self.conflicts - conflicts_at_start > self.max_conflicts
                ):
                    raise RuntimeError("CDCL conflict budget exhausted")
                if self._decision_level == 0:
                    self._unsat = True
                    return None
                if not self._conflict_above_assumptions(assumptions):
                    return None
                learned, backjump_level, lbd = self._analyze(conflict)
                self._backtrack(backjump_level)
                if len(learned) == 1:
                    if self._literal_value(learned[0]) == 0:
                        self._unsat = self._decision_level == 0
                        if self._unsat:
                            return None
                        # Cannot enqueue under assumptions: UNSAT under them.
                        return None
                    if self._literal_value(learned[0]) == self._UNASSIGNED:
                        self._enqueue(learned[0], None)
                else:
                    index = self._attach_clause(learned, True, lbd)
                    self.learned_clauses += 1
                    self._bump_clause_activity(index)
                    self._enqueue(learned[0], index)
                self._decay_activities()
                self._decay_clause_activities()
                if self.reduce_interval > 0:
                    self._conflicts_until_reduce -= 1
                    if self._conflicts_until_reduce <= 0:
                        self._reduce_db()
                        # Let the database grow a little more each sweep.
                        self._conflicts_until_reduce = (
                            self.reduce_interval
                            + (self.reduce_interval // 2) * self.reductions
                        )
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    self.restarts += 1
                    conflicts_until_restart = self.restart_base * luby(self.restarts + 1)
                    self._backtrack(self._assumption_floor(assumptions))
                continue

            # No conflict: decide.
            literal = self._next_decision(assumptions)
            if literal is None:
                self._resume_assumptions = assumptions
                return self._extract_model()
            if literal == 0:
                return None  # conflicting assumptions
            self.decisions += 1
            self._trail_limits.append(len(self._trail))
            self._enqueue(literal, None)

    def _next_decision(self, assumptions: Sequence[int]) -> Optional[int]:
        """Next decision literal: pending assumption first, else VSIDS pick.

        Returns None when all variables are assigned, 0 when an assumption is
        already falsified.
        """
        while self._decision_level < len(assumptions):
            literal = assumptions[self._decision_level]
            value = self._literal_value(literal)
            if value == 0:
                return 0
            if value == self._UNASSIGNED:
                return literal
            # Already true: open an empty decision level to keep the
            # level <-> assumption-index correspondence.
            self._trail_limits.append(len(self._trail))
        return self._pick_branch_literal()

    def _assumption_floor(self, assumptions: Sequence[int]) -> int:
        """Deepest level restarts may clear without dropping assumptions."""
        return min(self._decision_level, len(assumptions))

    def _conflict_above_assumptions(self, assumptions: Sequence[int]) -> bool:
        """False when the conflict is at an assumption level => UNSAT(assumps)."""
        return self._decision_level > len(assumptions)

    def _extract_model(self) -> Assignment:
        values = self._values
        # Unassigned vars default to False.
        return {var: values[var] == 1 for var in range(1, self._num_vars + 1)}


def solve_cdcl(cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
    """Convenience wrapper: one-shot CDCL solve of a CNF formula."""
    return CDCLSolver(cnf).solve(assumptions)
