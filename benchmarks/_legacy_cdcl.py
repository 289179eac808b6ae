"""The pre-overhaul CDCL kernel, frozen as the benchmark baseline.

This is a verbatim snapshot of ``src/repro/sat/cdcl.py`` as it stood
*before* the kernel overhaul (heap-based VSIDS, blocker watches, LBD
clause-database reduction, learned-clause minimization): linear-scan
decisions, plain ``(clause_index)`` watch lists, a fresh ``seen`` array
per conflict, and no clause deletion.  ``bench_sat_kernel.py`` races the
live kernel against this class so the committed ``BENCH_sat_kernel.json``
measures a real before/after — do not "fix" or modernize this file.
"""


from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sat.cnf import CNF, Assignment

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
    ):
        self.restart_base = restart_base
        self.activity_decay = activity_decay
        self.max_conflicts = max_conflicts
        #: Reproducible diversification: a seeded RNG jitters the initial
        #: VSIDS activity (breaking the index-order tie of untouched
        #: variables) and randomizes the initial saved phase.  ``None``
        #: (the default) keeps the historical deterministic heuristics:
        #: activity 0.0, phase False.  Two solvers built with the same seed
        #: make identical decisions.
        self.seed = seed
        self._rng = random.Random(seed) if seed is not None else None

        self._num_vars = 0
        self._clauses: List[List[int]] = []
        self._watches: Dict[int, List[int]] = {}
        self._values: List[int] = [self._UNASSIGNED]  # per-var: -1 / 0 / 1
        self._levels: List[int] = [0]
        self._reasons: List[Optional[int]] = [None]
        self._saved_phase: List[int] = [0]
        self._activity: List[float] = [0.0]
        self._activity_inc = 1.0
        self._trail: List[int] = []
        self._trail_limits: List[int] = []
        self._propagation_head = 0
        self._unsat = False  # an empty clause was added

        # statistics
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0

        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------
    # Formula construction
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._num_vars

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

    def add_cnf(self, cnf: CNF) -> None:
        self._ensure_var(cnf.num_vars)
        for clause in cnf.clauses:
            self.add_clause(clause)

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause (incremental use: backtracks to decision level 0)."""
        if self._trail_limits:
            self._backtrack(0)
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
        # only fire on *future* assignments.
        if any(self._literal_value(literal) == 1 for literal in clause):
            self._attach_clause(clause)  # satisfied at level 0; harmless
            return
        free = [literal for literal in clause if self._literal_value(literal) == self._UNASSIGNED]
        if not free:
            self._unsat = True
            return
        if len(free) == 1:
            # Effectively unit at level 0: enqueue, then attach with the free
            # literal watched so future backtracking keeps the invariant.
            clause.sort(key=lambda lit: lit == free[0], reverse=True)
            index = self._attach_clause(clause)
            self._enqueue(free[0], index)
            return
        clause.sort(key=lambda lit: self._literal_value(lit) == self._UNASSIGNED, reverse=True)
        self._attach_clause(clause)

    def _attach_clause(self, clause: List[int]) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches[clause[0]].append(index)
        self._watches[clause[1]].append(index)
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
        """Unit propagation; returns a conflicting clause index or None."""
        while self._propagation_head < len(self._trail):
            literal = self._trail[self._propagation_head]
            self._propagation_head += 1
            self.propagations += 1
            false_literal = -literal
            watch_list = self._watches[false_literal]
            new_watch_list: List[int] = []
            conflict: Optional[int] = None
            i = 0
            while i < len(watch_list):
                clause_index = watch_list[i]
                i += 1
                clause = self._clauses[clause_index]
                # Normalize so the false literal is at position 1.
                if clause[0] == false_literal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._literal_value(first) == 1:
                    new_watch_list.append(clause_index)
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self._literal_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches[clause[1]].append(clause_index)
                        moved = True
                        break
                if moved:
                    continue
                new_watch_list.append(clause_index)
                if self._literal_value(first) == 0:
                    # Conflict: keep remaining watches, report.
                    new_watch_list.extend(watch_list[i:])
                    conflict = clause_index
                    break
                self._enqueue(first, clause_index)
            self._watches[false_literal] = new_watch_list
            if conflict is not None:
                return conflict
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict_index: int) -> Tuple[List[int], int]:
        """Derive a 1-UIP learned clause and the backjump level."""
        learned: List[int] = []
        seen = [False] * (self._num_vars + 1)
        counter = 0
        literal: Optional[int] = None
        clause: List[int] = list(self._clauses[conflict_index])
        trail_index = len(self._trail) - 1

        while True:
            for lit in clause:
                var = abs(lit)
                if seen[var] or self._levels[var] == 0:
                    continue
                seen[var] = True
                self._bump_activity(var)
                if self._levels[var] == self._decision_level:
                    counter += 1
                else:
                    learned.append(lit)
            # Walk back to the most recent seen literal on the trail.
            while not seen[abs(self._trail[trail_index])]:
                trail_index -= 1
            literal = self._trail[trail_index]
            trail_index -= 1
            var = abs(literal)
            seen[var] = False
            counter -= 1
            if counter == 0:
                break
            reason = self._reasons[var]
            assert reason is not None, "non-decision literal must have a reason"
            clause = [lit for lit in self._clauses[reason] if lit != literal]

        learned.insert(0, -literal)
        if len(learned) == 1:
            return learned, 0
        # Backjump to the second-highest level in the clause.
        levels = sorted((self._levels[abs(lit)] for lit in learned[1:]), reverse=True)
        backjump_level = levels[0]
        # Put a literal from the backjump level in watch position 1.
        for index in range(1, len(learned)):
            if self._levels[abs(learned[index])] == backjump_level:
                learned[1], learned[index] = learned[index], learned[1]
                break
        return learned, backjump_level

    def _bump_activity(self, var: int) -> None:
        self._activity[var] += self._activity_inc
        if self._activity[var] > 1e100:
            for index in range(1, self._num_vars + 1):
                self._activity[index] *= 1e-100
            self._activity_inc *= 1e-100

    def _decay_activities(self) -> None:
        self._activity_inc /= self.activity_decay

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _backtrack(self, level: int) -> None:
        if self._decision_level <= level:
            return
        limit = self._trail_limits[level]
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._saved_phase[var] = self._values[var]
            self._values[var] = self._UNASSIGNED
            self._reasons[var] = None
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagation_head = min(self._propagation_head, len(self._trail))

    # ------------------------------------------------------------------
    # Decision heuristic
    # ------------------------------------------------------------------
    def _pick_branch_literal(self) -> Optional[int]:
        best_var = None
        best_activity = -1.0
        for var in range(1, self._num_vars + 1):
            if self._values[var] == self._UNASSIGNED and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var is None:
            return None
        phase = self._saved_phase[best_var]
        return best_var if phase == 1 else -best_var

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        """Search for a model; returns a total assignment or None (UNSAT).

        Assumption literals are decided first (in order); if the formula is
        unsatisfiable under the assumptions, None is returned.
        """
        if self._unsat:
            return None
        for literal in assumptions:
            # Sessions may assume activation literals the clause database has
            # not mentioned yet; allocate them instead of index-erroring.
            self._ensure_var(abs(literal))
        self._backtrack(0)
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
                learned, backjump_level = self._analyze(conflict)
                backjump_level = max(backjump_level, self._assumption_level(assumptions, learned))
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
                    index = self._attach_clause(learned)
                    self.learned_clauses += 1
                    self._enqueue(learned[0], index)
                self._decay_activities()
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    self.restarts += 1
                    conflicts_until_restart = self.restart_base * luby(self.restarts + 1)
                    self._backtrack(self._assumption_floor(assumptions))
                continue

            # No conflict: decide.
            literal = self._next_decision(assumptions)
            if literal is None:
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

    def _assumption_level(self, assumptions: Sequence[int], learned: List[int]) -> int:
        return 0  # learned clauses are global; assumptions re-decided on the way down

    def _conflict_above_assumptions(self, assumptions: Sequence[int]) -> bool:
        """False when the conflict is at an assumption level => UNSAT(assumps)."""
        return self._decision_level > len(assumptions)

    def _extract_model(self) -> Assignment:
        model: Assignment = {}
        for var in range(1, self._num_vars + 1):
            value = self._values[var]
            model[var] = value == 1  # unassigned vars default to False
        return model


def solve_cdcl(cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
    """Convenience wrapper: one-shot CDCL solve of a CNF formula."""
    return CDCLSolver(cnf).solve(assumptions)
