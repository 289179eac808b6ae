"""The AB-problem: a Boolean skeleton plus arithmetic constraint definitions.

An AB-problem (paper, Sec. 2) is a CNF formula over Boolean variables
``1..n`` where some variables are *defined*: variable ``v`` is associated
with an arithmetic constraint ``a`` over int- or real-typed theory variables,
and every model must respect ``alpha(v) <=> delta(a)`` — the Boolean value of
``v`` equals the truth of its constraint.  This is exactly what the extended
DIMACS lines ``c def {int,real} <v> <constraint>`` of Fig. 2 declare.

:class:`ABProblem` is the central value passed between the input layer, the
circuit builder, and the control loop.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..sat.cnf import CNF
from .expr import ARITHMETIC_ERRORS, Constraint

__all__ = ["Definition", "ABProblem", "ProblemStats"]


class Definition:
    """One arithmetic definition: Boolean var ``boolean_var`` tags ``constraint``.

    ``domain`` is ``"int"`` or ``"real"`` and types *all theory variables
    occurring in the constraint* (matching the input language, where the
    keyword follows ``c def``).
    """

    __slots__ = ("boolean_var", "domain", "constraint")

    def __init__(self, boolean_var: int, domain: str, constraint: Constraint):
        if boolean_var <= 0:
            raise ValueError("definition must tag a positive Boolean variable")
        if domain not in ("int", "real"):
            raise ValueError(f"domain must be 'int' or 'real', got {domain!r}")
        self.boolean_var = boolean_var
        self.domain = domain
        self.constraint = constraint

    @property
    def is_linear(self) -> bool:
        return self.constraint.is_linear()

    def __repr__(self) -> str:
        return f"Definition({self.boolean_var} := [{self.domain}] {self.constraint})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Definition)
            and other.boolean_var == self.boolean_var
            and other.domain == self.domain
            and other.constraint == self.constraint
        )


class ProblemStats:
    """Size metrics in the layout of the paper's Table 1."""

    def __init__(self, num_clauses: int, num_bool_vars: int, num_linear: int, num_nonlinear: int):
        self.num_clauses = num_clauses
        self.num_bool_vars = num_bool_vars
        self.num_linear = num_linear
        self.num_nonlinear = num_nonlinear

    def as_row(self) -> Tuple[int, int, int, int]:
        return (self.num_clauses, self.num_bool_vars, self.num_linear, self.num_nonlinear)

    def __repr__(self) -> str:
        return (
            f"ProblemStats(#Cl.={self.num_clauses}, #Var.={self.num_bool_vars}, "
            f"#linear={self.num_linear}, #nonlin.={self.num_nonlinear})"
        )


class ABProblem:
    """A complete AB-satisfiability problem.

    Attributes:
        cnf: the Boolean skeleton.
        definitions: Boolean variable -> :class:`Definition`.
        bounds: optional theory-variable box used by the nonlinear solver for
            start-point sampling and by the interval refuter (sensor ranges in
            the case study, Sec. 3).
        name: optional benchmark label.
    """

    def __init__(self, cnf: Optional[CNF] = None, name: str = ""):
        self.cnf = cnf if cnf is not None else CNF()
        self.definitions: Dict[int, Definition] = {}
        self.bounds: Dict[str, Tuple[Optional[float], Optional[float]]] = {}
        self.name = name

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_clause(self, literals: Iterable[int]) -> None:
        self.cnf.add_clause(list(literals))

    def define(self, boolean_var: int, domain: str, constraint: Constraint) -> None:
        """Attach an arithmetic definition to a Boolean variable.

        Redefinition of the same variable is rejected: the semantics
        ``alpha(v) <=> delta(a)`` leaves no room for two constraints on one
        tag.
        """
        if boolean_var in self.definitions:
            raise ValueError(f"Boolean variable {boolean_var} is already defined")
        self.definitions[boolean_var] = Definition(boolean_var, domain, constraint)
        self.cnf.num_vars = max(self.cnf.num_vars, boolean_var)

    def set_bounds(
        self, variable: str, low: Optional[float] = None, high: Optional[float] = None
    ) -> None:
        """Declare a box bound for a theory variable (both ends optional)."""
        if low is not None and high is not None and low > high:
            raise ValueError(f"empty bound [{low}, {high}] for {variable!r}")
        self.bounds[variable] = (low, high)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def theory_variables(self) -> Set[str]:
        result: Set[str] = set()
        for definition in self.definitions.values():
            result |= definition.constraint.variables()
        return result

    def variable_domains(self) -> Dict[str, str]:
        """Theory variable -> 'int' / 'real'.

        A variable used under both domains is integer (the stricter typing
        wins; mixed usage is how e.g. an int counter feeds a real formula).
        """
        domains: Dict[str, str] = {}
        for definition in self.definitions.values():
            for var in definition.constraint.variables():
                current = domains.get(var)
                if current is None or definition.domain == "int":
                    domains[var] = definition.domain
        return domains

    def linear_definitions(self) -> List[Definition]:
        return [d for d in self.definitions.values() if d.is_linear]

    def nonlinear_definitions(self) -> List[Definition]:
        return [d for d in self.definitions.values() if not d.is_linear]

    def stats(self) -> ProblemStats:
        return ProblemStats(
            num_clauses=self.cnf.num_clauses,
            num_bool_vars=self.cnf.num_vars,
            num_linear=len(self.linear_definitions()),
            num_nonlinear=len(self.nonlinear_definitions()),
        )

    def effective_bounds(
        self, default: float = 100.0
    ) -> Dict[str, Tuple[float, float]]:
        """Bounds for every theory variable, filling holes with ``±default``.

        Also tightens from simple single-variable definitions of the shape
        ``x <= c`` / ``x >= c`` appearing positively is *not* assumed (their
        truth is up to the SAT solver); only explicitly declared bounds count.
        """
        box: Dict[str, Tuple[float, float]] = {}
        for var in sorted(self.theory_variables()):
            low, high = self.bounds.get(var, (None, None))
            box[var] = (
                low if low is not None else -default,
                high if high is not None else default,
            )
        return box

    # ------------------------------------------------------------------
    # Canonical fingerprint
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical content hash of the whole problem (hex, 32 chars).

        Stable across processes and across presentation differences that do
        not change the problem: clause order, literal order within a
        clause, and the commutative/orientation normalizations of
        :meth:`Constraint.fingerprint`.  Used as the shared cache key by
        the verdict cache and the parallel worker session cache.

        Recomputed per call — sessions mutate problems in place (push/pop
        truncates the clause list directly), so no version counter can be
        trusted here.  The per-``Expr`` digest memoization keeps the cost
        at one pass over clause integers plus dictionary lookups.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"AB1;")
        digest.update(str(self.cnf.num_vars).encode())
        for clause in sorted(tuple(sorted(clause)) for clause in self.cnf.clauses):
            digest.update(b";c")
            digest.update(",".join(map(str, clause)).encode())
        for var in sorted(self.definitions):
            definition = self.definitions[var]
            digest.update(f";d{var}:{definition.domain}:".encode())
            digest.update(definition.constraint.fingerprint().encode())
        for var in sorted(self.bounds):
            low, high = self.bounds[var]
            digest.update(f";b{var}:{low!r}:{high!r}".encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Model checking
    # ------------------------------------------------------------------
    def check_model(
        self,
        boolean_model: Mapping[int, bool],
        theory_model: Mapping[str, float],
        tolerance: float = 1e-6,
    ) -> bool:
        """Full-model soundness check used by tests and the control loop.

        Verifies (1) the CNF is satisfied, and (2) every definition's Boolean
        value matches its constraint's truth at the theory point.
        """
        if not self.cnf.is_satisfied_by(dict(boolean_model)):
            return False
        for var, definition in self.definitions.items():
            expected = boolean_model.get(var, False)
            constraint = definition.constraint
            # The tolerance is applied in the direction of the expected
            # value: a True tag needs the constraint to hold up to
            # tolerance; a False tag needs some negation alternative to
            # hold up to tolerance (an exact boundary point like 2i+j = 10
            # legitimately falsifies 2i+j < 10).
            try:
                if expected:
                    ok = constraint.evaluate(theory_model, tolerance)
                else:
                    ok = any(
                        alt.evaluate(theory_model, tolerance)
                        for alt in constraint.negated_alternatives()
                    )
            except ARITHMETIC_ERRORS:
                return False
            if definition.domain == "int":
                for theory_var in constraint.variables():
                    value = theory_model.get(theory_var, 0.0)
                    if abs(value - round(value)) > tolerance:
                        return False
            if not ok:
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"ABProblem(name={self.name!r}, clauses={self.cnf.num_clauses}, "
            f"bool_vars={self.cnf.num_vars}, definitions={len(self.definitions)})"
        )
