"""CNF formula representation shared by all Boolean solvers.

Literals follow the DIMACS convention: a positive integer ``v`` denotes the
variable ``v``, and ``-v`` its negation.  Variable indices start at 1.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["Clause", "CNF", "Assignment", "lit_var", "lit_sign", "normalize_clause"]

#: A clause is a tuple of non-zero DIMACS literals.
Clause = Tuple[int, ...]

#: A (possibly partial) assignment maps variable index -> bool.
Assignment = Dict[int, bool]


def lit_var(literal: int) -> int:
    """Variable index of a literal."""
    return abs(literal)


def lit_sign(literal: int) -> bool:
    """Polarity of a literal: True for positive."""
    return literal > 0


def normalize_clause(literals: Iterable[int]) -> Tuple[Optional[Clause], int]:
    """A clause as :class:`CNF` stores it, and its highest variable.

    Repeated literals are dropped, the first occurrences keeping their
    order; a tautology (``v OR -v``) gives ``None`` in place of the clause.
    The highest variable covers every literal, a tautology's included.
    Raises ``ValueError`` on 0 or a literal that is not an ``int``.

    >>> normalize_clause([3, -1, 3])
    ((3, -1), 3)
    >>> normalize_clause([2, -5, -2])
    (None, 5)
    """
    seen: Set[int] = set()
    clause: List[int] = []
    top = 0
    tautology = False
    for literal in literals:
        if literal in seen:
            continue
        if not isinstance(literal, int) or literal == 0:
            raise ValueError(f"invalid literal {literal!r}")
        if -literal in seen:
            tautology = True
        seen.add(literal)
        clause.append(literal)
        if literal > top:
            top = literal
        elif -literal > top:
            top = -literal
    return (None if tautology else tuple(clause)), top


class CNF:
    """A CNF formula: a conjunction of clauses over variables ``1..num_vars``.

    The class is a thin mutable container; solvers copy what they need.  It
    validates literals on insertion, deduplicates literals within a clause,
    and detects tautological clauses (which are dropped, as any solver would).

    Invariant: every entry of :attr:`clauses` is a tuple as
    :func:`normalize_clause` returns it, and :attr:`num_vars` is at least
    the variable of every literal in them.  :class:`SolverSession
    <repro.core.session.SolverSession>` takes a CNF's clauses whole on that
    ground; code that edits the list in place (truncating or filtering it)
    keeps the invariant, code that appends to it must normalize first.
    """

    def __init__(self, num_vars: int = 0, clauses: Optional[Iterable[Sequence[int]]] = None):
        if num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        self.num_vars = num_vars
        self.clauses: List[Clause] = []
        if clauses is not None:
            for clause in clauses:
                self.add_clause(clause)

    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its index."""
        self.num_vars += 1
        return self.num_vars

    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; grows ``num_vars`` as needed, drops tautologies."""
        clause, top = normalize_clause(literals)
        if top > self.num_vars:
            self.num_vars = top
        if clause is not None:
            self.clauses.append(clause)

    def extend(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def variables(self) -> Set[int]:
        """Variables that actually occur in some clause."""
        return {abs(literal) for clause in self.clauses for literal in clause}

    def copy(self) -> "CNF":
        duplicate = CNF(self.num_vars)
        duplicate.clauses = list(self.clauses)
        return duplicate

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self.clauses)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CNF)
            and other.num_vars == self.num_vars
            and other.clauses == self.clauses
        )

    def __repr__(self) -> str:
        return f"CNF(num_vars={self.num_vars}, num_clauses={self.num_clauses})"

    # ------------------------------------------------------------------
    def evaluate(self, assignment: Assignment) -> Optional[bool]:
        """Evaluate under a (possibly partial) assignment.

        Returns True/False when determined, None when some clause is still
        undecided.
        """
        undecided = False
        for clause in self.clauses:
            satisfied = False
            open_literal = False
            for literal in clause:
                value = assignment.get(abs(literal))
                if value is None:
                    open_literal = True
                elif value == (literal > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if open_literal:
                undecided = True
            else:
                return False
        return None if undecided else True

    def is_satisfied_by(self, assignment: Assignment) -> bool:
        """Total-assignment satisfaction check (missing vars count as False)."""
        get = assignment.get
        for clause in self.clauses:
            for literal in clause:
                if get(abs(literal), False) == (literal > 0):
                    break
            else:
                return False
        return True
