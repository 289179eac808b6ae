"""Independently checkable UNSAT certificates for AB-problems.

A SAT answer is self-certifying (the model is the certificate;
:meth:`ABProblem.check_model` is the checker).  An UNSAT answer from the
control loop rests on two ingredients:

1. a set of **theory lemmas** — blocking clauses, each claiming that a
   particular combination of definition phases is arithmetically
   infeasible, and
2. the Boolean fact that the CNF *plus those lemmas* is unsatisfiable.

:class:`UnsatCertificate` records the lemmas;
:func:`verify_certificate` re-establishes both ingredients with
*independent* machinery: every lemma is re-proved with a fresh exact
simplex (or, for nonlinear lemmas, the interval refuter), and the final
Boolean step is re-checked with the plain DPLL solver rather than the CDCL
engine that produced the run.  A verified certificate means the UNSAT
verdict does not depend on any single solver being bug-free.

Enable recording with ``ABSolverConfig(record_certificate=True)``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPStatus, SimplexSolver
from ..nonlinear.refute import IntervalRefuter, RefuteStatus
from ..sat.cnf import CNF
from ..sat.dpll import DPLLSolver
from .expr import Constraint, Relation
from .problem import ABProblem

__all__ = ["UnsatCertificate", "CertificateError", "verify_certificate"]


class CertificateError(Exception):
    """The certificate failed verification (carries the failing step)."""


class UnsatCertificate:
    """The recorded lemmas of one UNSAT run."""

    def __init__(self, lemmas: Sequence[Sequence[int]]):
        self.lemmas: List[Tuple[int, ...]] = [tuple(lemma) for lemma in lemmas]

    def __len__(self) -> int:
        return len(self.lemmas)

    def __repr__(self) -> str:
        return f"UnsatCertificate({len(self.lemmas)} theory lemmas)"


def _branch_constraints(
    problem: ABProblem, tags: Sequence[int]
) -> List[List[Tuple[Constraint, int]]]:
    """All equality-split branches of the constraint set named by ``tags``."""
    import itertools

    fixed: List[Tuple[Constraint, int]] = []
    splits: List[List[Tuple[Constraint, int]]] = []
    for tag in tags:
        definition = problem.definitions.get(abs(tag))
        if definition is None:
            raise CertificateError(f"lemma references undefined variable {abs(tag)}")
        if tag > 0:
            fixed.append((definition.constraint, tag))
        else:
            alternatives = definition.constraint.negated_alternatives()
            if len(alternatives) == 1:
                fixed.append((alternatives[0], tag))
            else:
                splits.append([(alt, tag) for alt in alternatives])
    return [
        fixed + list(choice)
        for choice in (itertools.product(*splits) if splits else [()])
    ]


def _verify_branch_infeasible(
    problem: ABProblem, branch: Sequence[Tuple[Constraint, int]]
) -> bool:
    """Re-prove one branch infeasible with independent machinery."""
    linear_rows: List[LinearConstraint] = []
    nonlinear: List[Constraint] = []
    for constraint, tag in branch:
        if constraint.is_linear():
            linear_rows.append(LinearConstraint.from_constraint(constraint, tag=tag))
        else:
            nonlinear.append(constraint)
    domains = problem.variable_domains()
    system = LinearSystem(linear_rows, {v: d for v, d in domains.items()})
    from fractions import Fraction

    for var, (low, high) in problem.bounds.items():
        if low is not None:
            system.add(
                LinearConstraint(
                    {var: Fraction(1)}, Relation.GE, Fraction(low).limit_denominator(10**9)
                )
            )
        if high is not None:
            system.add(
                LinearConstraint(
                    {var: Fraction(1)}, Relation.LE, Fraction(high).limit_denominator(10**9)
                )
            )

    if SimplexSolver().check(system).status is LPStatus.INFEASIBLE:
        return True
    if not nonlinear:
        return False
    # Linear part alone is feasible: the lemma must rest on the nonlinear
    # constraints; re-run the interval refuter over the whole branch.
    constraints = [c for c, _ in branch]
    variables = sorted({v for c in constraints for v in c.variables()})
    bounds: Dict[str, Tuple[float, float]] = {}
    for var in variables:
        low, high = problem.bounds.get(var, (None, None))
        bounds[var] = (
            low if low is not None else -math.inf,
            high if high is not None else math.inf,
        )
    result = IntervalRefuter().refute(constraints, bounds)
    return result.status is RefuteStatus.REFUTED


def verify_certificate(
    problem: ABProblem, certificate: UnsatCertificate
) -> bool:
    """Full certificate check; raises :class:`CertificateError` on failure.

    Step 1 re-proves every theory lemma; step 2 re-checks the Boolean
    unsatisfiability of CNF + lemmas with the independent DPLL engine.
    """
    for index, lemma in enumerate(certificate.lemmas):
        tags = [-literal for literal in lemma]
        for branch in _branch_constraints(problem, tags):
            if not _verify_branch_infeasible(problem, branch):
                raise CertificateError(
                    f"lemma {index} ({list(lemma)}) could not be re-proved: "
                    f"branch {[str(c) for c, _ in branch]} is not provably infeasible"
                )
    strengthened: CNF = problem.cnf.copy()
    for lemma in certificate.lemmas:
        strengthened.add_clause(list(lemma))
    if DPLLSolver().solve(strengthened) is not None:
        raise CertificateError(
            "CNF plus lemmas is still satisfiable: the lemma set does not "
            "justify UNSAT"
        )
    return True
