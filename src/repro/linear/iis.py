"""Irreducible infeasible subset (IIS) extraction.

When the linear solver reports infeasibility, ABsolver computes "the smallest
conflicting subset ... and [returns it] as a hint for further queries to the
SAT-solver" (paper, Sec. 4).  We implement the classical *deletion filter*:
starting from the full infeasible row set, drop each row in turn and keep the
drop whenever the remainder is still infeasible.  The result is irreducible —
removing any single remaining row restores feasibility — which yields the
shortest possible blocking clause for this conflict.

The ablation benchmark ``bench_ablation_refinement`` measures what this buys
over blocking the full assignment.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .lp import LinearConstraint, LinearSystem
from .simplex import LPResult, LPStatus, SimplexSolver

__all__ = ["extract_iis", "is_infeasible_subset"]


def is_infeasible_subset(
    rows: Sequence[LinearConstraint],
    domains: Optional[dict] = None,
    solver: Optional[SimplexSolver] = None,
) -> bool:
    """True when the conjunction of ``rows`` (over reals) is infeasible.

    Integrality is deliberately ignored here: an LP-infeasible subset is also
    IP-infeasible, so real-relaxation IISes remain sound hints for the SAT
    solver even on integer problems.
    """
    solver = solver or SimplexSolver()
    system = LinearSystem(rows, domains)
    return solver.check(system).status is LPStatus.INFEASIBLE


def extract_iis(
    system: LinearSystem,
    solver: Optional[SimplexSolver] = None,
    first: Optional[LPResult] = None,
) -> List[LinearConstraint]:
    """Deletion-filter IIS of an infeasible linear system.

    Precondition: the system's real relaxation is infeasible (ValueError
    otherwise).  ``first`` is ``solver``'s result on ``system`` when the
    caller already has it (a failed check); the filter then starts from it
    instead of solving the system again.  Returns rows forming an
    irreducible infeasible core; the rows keep their ``tag`` fields so the
    caller can map them back to Boolean literals.
    """
    solver = solver or SimplexSolver()
    rows = [row for row in system.rows]
    if first is None:
        first = solver.check(LinearSystem(rows, system.domains))
    if first.status is not LPStatus.INFEASIBLE:
        raise ValueError("extract_iis called on a feasible system")

    # Seed the deletion filter with the simplex's Farkas certificate — a
    # (usually small) infeasible subset available for free from the failed
    # check.  The filter then only has to establish irreducibility.  A
    # certificate naming every row needs no second check.
    if first.core_indices and len(first.core_indices) < len(rows):
        core = [rows[i] for i in first.core_indices]
        if not is_infeasible_subset(core, system.domains, solver):
            core = list(rows)  # certificate unusable; fall back to all rows
    else:
        core = list(rows)
    index = 0
    while index < len(core):
        candidate = core[:index] + core[index + 1 :]
        if candidate and is_infeasible_subset(candidate, system.domains, solver):
            core = candidate
            # Do not advance: the row now at `index` is a new candidate.
        elif not candidate:
            # A single row can be infeasible on its own (e.g. 0 < -1 rows
            # never reach here since they are trivial, but x < x style rows
            # normalize to 0 < 0).  Keep it; nothing left to delete.
            break
        else:
            index += 1
    return core
