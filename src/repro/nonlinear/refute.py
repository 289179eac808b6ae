"""Interval branch-and-prune refutation of nonlinear constraint sets.

The augmented-Lagrangian engine (like IPOPT) is a *local* method: failing to
find a feasible point proves nothing.  To let ABsolver return definite UNSAT
answers on nonlinear conflicts we pair it with a certificate-producing
refuter: recursively bisect the variable box, narrow each sub-box with the
HC4 contractor, and discard sub-boxes on which some constraint is certainly
false (three-valued interval check).  If every sub-box dies, the constraint
set is infeasible *over the box*; combined with declared sensor-range bounds
this is a sound UNSAT verdict.

The solve pipeline first runs the refuter on each nonlinear branch with a
one-box budget, before the local search: one contraction of the root box
and the three-valued check on it settle conflicts like the paper's
``nonlinear_unsat``, and otherwise the contracted root box
(:attr:`RefuteResult.root_box`) becomes the search's box.  The full budget
is for conflicts that need splitting.

The search is budgeted (depth and box count); exhausting the budget returns
UNKNOWN, never a wrong answer.
"""

from __future__ import annotations

import enum
import math
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.expr import Constraint
from ..core.tristate import FF, TT, UNKNOWN
from .contract import contract_box
from .intervals import Interval, check_constraint_interval

__all__ = ["RefuteStatus", "RefuteResult", "IntervalRefuter"]


class RefuteStatus(enum.Enum):
    """Outcome of a refutation attempt."""

    REFUTED = "refuted"  # no point in the box satisfies all constraints
    SAT_BOX = "sat_box"  # found a sub-box on which all constraints hold
    UNKNOWN = "unknown"  # budget exhausted


class RefuteResult:
    """Refuter outcome plus diagnostics (boxes explored, witness box).

    ``root_box`` is the root box after its contraction, as float bounds
    with ``None`` for an infinite end (the shape the local-search engines
    take); it is ``None`` when no root box survived its contraction.
    """

    def __init__(
        self,
        status: RefuteStatus,
        boxes_explored: int,
        witness_box: Optional[Dict[str, Interval]] = None,
        root_box: Optional[Dict[str, Tuple[Optional[float], Optional[float]]]] = None,
    ):
        self.status = status
        self.boxes_explored = boxes_explored
        self.witness_box = witness_box
        self.root_box = root_box

    @property
    def refuted(self) -> bool:
        return self.status is RefuteStatus.REFUTED

    def __repr__(self) -> str:
        return f"RefuteResult({self.status.value}, boxes={self.boxes_explored})"


class IntervalRefuter:
    """Budgeted branch-and-prune over interval boxes.

    With ``use_contractor`` (default), every box is first narrowed by the
    HC4 constraint-propagation contractor (:mod:`repro.nonlinear.contract`)
    before verdicts and splits — often refuting or deciding boxes that pure
    evaluation would have to bisect many times.
    """

    def __init__(
        self,
        max_boxes: int = 2000,
        min_width: float = 1e-6,
        use_contractor: bool = True,
    ):
        self.max_boxes = max_boxes
        self.min_width = min_width
        self.use_contractor = use_contractor

    def refute(
        self,
        constraints: Sequence[Constraint],
        bounds: Mapping[str, Tuple[float, float]],
    ) -> RefuteResult:
        """Attempt to prove the conjunction infeasible over the box."""
        if not constraints:
            return RefuteResult(RefuteStatus.SAT_BOX, 0, dict())
        simplified = [
            Constraint(c.lhs.simplify(), c.relation, c.rhs.simplify()) for c in constraints
        ]
        variables = sorted({v for c in simplified for v in c.variables()})
        for var in variables:
            if var not in bounds:
                raise ValueError(f"refuter requires bounds for every variable; missing {var!r}")
        root = {var: Interval(float(bounds[var][0]), float(bounds[var][1])) for var in variables}

        stack: List[Dict[str, Interval]] = [root]
        root_box = None
        explored = 0
        exhausted = False
        while stack:
            if explored >= self.max_boxes:
                exhausted = True
                break
            box = stack.pop()
            explored += 1
            if self.use_contractor:
                contracted = contract_box(simplified, box, max_rounds=3)
                if contracted is None:
                    continue  # contractor proved the box infeasible
                box = contracted
            if explored == 1:
                root_box = {
                    var: (
                        interval.lo if math.isfinite(interval.lo) else None,
                        interval.hi if math.isfinite(interval.hi) else None,
                    )
                    for var, interval in box.items()
                }
            verdicts = [check_constraint_interval(c, box) for c in simplified]
            if any(v is FF for v in verdicts):
                continue  # box refuted
            if all(v is TT for v in verdicts):
                return RefuteResult(RefuteStatus.SAT_BOX, explored, box, root_box)
            # Split on the widest variable among the undecided constraints.
            split_var = self._widest_variable(box, simplified, verdicts)
            if split_var is None:
                exhausted = True  # cannot split further; undecided remains
                continue
            lo, hi = box[split_var].lo, box[split_var].hi
            mid = (lo + hi) / 2.0
            left = dict(box)
            left[split_var] = Interval(lo, mid)
            right = dict(box)
            right[split_var] = Interval(mid, hi)
            stack.append(left)
            stack.append(right)
        if exhausted or stack:
            return RefuteResult(RefuteStatus.UNKNOWN, explored, root_box=root_box)
        return RefuteResult(RefuteStatus.REFUTED, explored, root_box=root_box)

    def _widest_variable(
        self,
        box: Mapping[str, Interval],
        constraints: Sequence[Constraint],
        verdicts: Sequence[object],
    ) -> Optional[str]:
        undecided_vars: set = set()
        for constraint, verdict in zip(constraints, verdicts):
            if verdict is UNKNOWN:
                undecided_vars |= constraint.variables()
        best_var = None
        best_width = self.min_width
        for var in sorted(undecided_vars):
            width = box[var].width
            # Unbounded intervals cannot be bisected meaningfully; only
            # direct verdicts are possible on them.
            if math.isfinite(width) and width > best_width:
                best_width = width
                best_var = var
        return best_var
