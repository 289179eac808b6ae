"""Linear constraint system data structures.

The solver-interface layer hands the linear solver a bag of linear
(in)equalities implied by the current Boolean assignment (paper, Sec. 1 and
Sec. 4).  :class:`LinearConstraint` is one normalized row
``sum(coeffs) REL bound``; :class:`LinearSystem` is the bag, together with
bookkeeping that maps each row back to its origin (the Boolean definition
variable), which the IIS extractor needs to phrase conflicts as clauses.

Strict inequalities are handled symbolically: a row carries its relation, and
the simplex driver turns ``<``/``>`` into ``<=``/``>=`` with an infinitesimal
(epsilon) slack following the standard Simplex-with-strict-bounds treatment.
All arithmetic is exact (:class:`fractions.Fraction`).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set

from ..core.expr import Constraint, LinearForm, Relation

__all__ = ["LinearConstraint", "LinearSystem", "VariableDomain"]


class VariableDomain:
    """Domain tag for a theory variable: continuous real or integer."""

    REAL = "real"
    INT = "int"


class LinearConstraint:
    """A normalized linear row ``sum(coeffs[v] * v) REL bound``.

    ``tag`` is an opaque origin marker (ABsolver uses the DIMACS variable
    index of the defining Boolean variable, signed by phase).

    Zero coefficients are dropped at construction and all numbers are
    exact :class:`~fractions.Fraction` values:

    >>> from fractions import Fraction
    >>> from repro.core.expr import Relation
    >>> row = LinearConstraint(
    ...     {"x": Fraction(2), "y": Fraction(0)}, Relation.LE, Fraction(5)
    ... )
    >>> sorted(row.coeffs)
    ['x']
    >>> row.evaluate({"x": Fraction(2)})
    True
    >>> row.evaluate({"x": Fraction(3)})
    False
    """

    __slots__ = ("coeffs", "relation", "bound", "tag")

    def __init__(
        self,
        coeffs: Mapping[str, Fraction],
        relation: Relation,
        bound: Fraction,
        tag: Optional[object] = None,
    ):
        self.coeffs: Dict[str, Fraction] = {
            var: Fraction(c) for var, c in coeffs.items() if c != 0
        }
        self.relation = relation
        self.bound = Fraction(bound)
        self.tag = tag

    # ------------------------------------------------------------------
    @staticmethod
    def from_constraint(constraint: Constraint, tag: Optional[object] = None) -> "LinearConstraint":
        """Normalize an AST constraint ``lhs REL rhs`` into a row.

        Moves everything to the left-hand side: ``(lhs - rhs) REL 0`` becomes
        ``coeffs REL -constant``.
        """
        form: LinearForm = constraint.linear_form()
        return LinearConstraint(form.coeffs, constraint.relation, -form.constant, tag=tag)

    # ------------------------------------------------------------------
    def variables(self) -> Set[str]:
        return set(self.coeffs)

    def is_trivial(self) -> bool:
        """True when the row has no variables (constant comparison)."""
        return not self.coeffs

    def trivially_true(self) -> bool:
        """For a trivial row, whether ``0 REL bound`` holds."""
        if not self.is_trivial():
            raise ValueError("row is not trivial")
        return self.relation.holds(0.0, float(self.bound))

    def evaluate(self, env: Mapping[str, Fraction], tolerance: float = 0.0) -> bool:
        lhs = sum((c * Fraction(env[v]) for v, c in self.coeffs.items()), Fraction(0))
        return self.relation.holds(float(lhs), float(self.bound), tolerance)

    def negated(self) -> List["LinearConstraint"]:
        """Rows whose disjunction is the negation of this row.

        The negation of an equation splits into ``<`` and ``>`` (paper,
        Sec. 1); inequalities negate into a single strict/weak opposite.
        """
        if self.relation is Relation.EQ:
            return [
                LinearConstraint(self.coeffs, Relation.LT, self.bound, tag=self.tag),
                LinearConstraint(self.coeffs, Relation.GT, self.bound, tag=self.tag),
            ]
        opposite = {
            Relation.LT: Relation.GE,
            Relation.LE: Relation.GT,
            Relation.GT: Relation.LE,
            Relation.GE: Relation.LT,
        }[self.relation]
        return [LinearConstraint(self.coeffs, opposite, self.bound, tag=self.tag)]

    def __str__(self) -> str:
        terms = " + ".join(f"{c}*{v}" for v, c in sorted(self.coeffs.items())) or "0"
        return f"{terms} {self.relation.value} {self.bound}"

    def __repr__(self) -> str:
        return f"LinearConstraint({self!s}, tag={self.tag!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearConstraint)
            and other.coeffs == self.coeffs
            and other.relation is self.relation
            and other.bound == self.bound
        )

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.coeffs.items())), self.relation, self.bound))


class LinearSystem:
    """A conjunction of linear rows plus per-variable domain tags."""

    def __init__(
        self,
        rows: Optional[Iterable[LinearConstraint]] = None,
        domains: Optional[Mapping[str, str]] = None,
    ):
        self.rows: List[LinearConstraint] = list(rows) if rows is not None else []
        self.domains: Dict[str, str] = dict(domains) if domains is not None else {}

    def add(self, row: LinearConstraint) -> None:
        self.rows.append(row)

    def set_domain(self, var: str, domain: str) -> None:
        if domain not in (VariableDomain.REAL, VariableDomain.INT):
            raise ValueError(f"unknown domain {domain!r}")
        self.domains[var] = domain

    def variables(self) -> Set[str]:
        result: Set[str] = set()
        for row in self.rows:
            result |= row.variables()
        return result

    def integer_variables(self) -> Set[str]:
        return {v for v in self.variables() if self.domains.get(v) == VariableDomain.INT}

    def copy(self) -> "LinearSystem":
        return LinearSystem(list(self.rows), dict(self.domains))

    def __iter__(self) -> Iterator[LinearConstraint]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"LinearSystem({len(self.rows)} rows, {len(self.variables())} vars)"

    def split_components(self) -> List["LinearSystem"]:
        """Partition rows into connected components of shared variables.

        Two rows are connected when they mention a common variable.  Solving
        components independently is exact and turns e.g. the Sudoku theory
        check (one row bag over 81 cells) into 81 trivial LPs.  Trivial
        (variable-free) rows travel with the first component so their
        verdicts are still checked.
        """
        parent: Dict[str, str] = {}

        def find(item: str) -> str:
            root = item
            while parent.get(root, root) != root:
                root = parent[root]
            while parent.get(item, item) != item:
                parent[item], item = root, parent[item]
            return root

        def union(a: str, b: str) -> None:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb

        for row in self.rows:
            names = sorted(row.variables())
            for name in names[1:]:
                union(names[0], name)

        groups: Dict[str, LinearSystem] = {}
        trivial: List[LinearConstraint] = []
        for row in self.rows:
            names = row.variables()
            if not names:
                trivial.append(row)
                continue
            root = find(sorted(names)[0])
            if root not in groups:
                groups[root] = LinearSystem([], {})
            groups[root].add(row)
        for system in groups.values():
            for var in system.variables():
                if var in self.domains:
                    system.domains[var] = self.domains[var]
        components = list(groups.values())
        if trivial:
            if not components:
                components.append(LinearSystem([], {}))
            for row in trivial:
                components[0].add(row)
        return components

    def check_point(self, env: Mapping[str, Fraction], tolerance: float = 0.0) -> bool:
        """True when every row (and integrality) holds at ``env``.

        >>> from fractions import Fraction
        >>> from repro.core.expr import Relation
        >>> system = LinearSystem(
        ...     [LinearConstraint({"x": Fraction(1)}, Relation.GE, Fraction(1))]
        ... )
        >>> system.check_point({"x": Fraction(2)})
        True
        >>> system.set_domain("x", VariableDomain.INT)
        >>> system.check_point({"x": Fraction(3, 2)})
        False
        """
        for var in self.integer_variables():
            if var in env and Fraction(env[var]).denominator != 1:
                return False
        return all(row.evaluate(env, tolerance) for row in self.rows if not row.is_trivial()) and all(
            row.trivially_true() for row in self.rows if row.is_trivial()
        )
