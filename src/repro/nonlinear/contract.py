"""HC4-revise interval contractors.

The branch-and-prune refuter (:mod:`repro.nonlinear.refute`) discards boxes
whose interval verdict is definitely-false; contraction makes it far more
effective by *shrinking* boxes before splitting.  HC4-revise is the
classical constraint-propagation contractor:

1. **forward pass** — evaluate the interval image of every AST node
   bottom-up, once each: :func:`~repro.nonlinear.intervals.eval_interval`
   with the pass's cache as its memo;
2. **backward pass** — intersect the root with the relation's feasible set
   (``[c, +inf)`` for ``>= c`` etc.) and project the narrowing down through
   inverse operations (``T = A + B`` gives ``A' = A ∩ (T - B)``, and so on)
   until the leaves — the variable domains — are narrowed.

A structural square ``e * e`` is evaluated and inverted like ``e^2``, so
``x * x < 1`` narrows ``x`` to ``[-1, 1]``.

Contraction is *sound*: no point satisfying the constraint inside the box
is ever removed; an empty intersection proves the constraint has no
solution in the box.  All inverse operations use the same outward-widened
interval arithmetic as evaluation.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from ..core.expr import (
    ARITHMETIC_ERRORS,
    Add,
    Call,
    Const,
    Constraint,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    Relation,
    Sub,
    Var,
)
from .intervals import Interval, eval_interval

__all__ = ["hc4_revise", "contract_box", "Box"]

#: A box maps variable names to intervals.
Box = Dict[str, Interval]

_EVERYTHING = Interval(-math.inf, math.inf)


class _Infeasible(Exception):
    """Internal: the constraint admits no solution in the box."""


def _required_interval(relation: Relation, rhs: Interval) -> Interval:
    """The feasible set of ``lhs REL rhs`` as a (closed) interval for lhs."""
    if relation in (Relation.LE, Relation.LT):
        return Interval(-math.inf, rhs.hi)
    if relation in (Relation.GE, Relation.GT):
        return Interval(rhs.lo, math.inf)
    return rhs  # EQ


def _backward(
    expr: Expr,
    target: Interval,
    box: Box,
    cache: Dict[int, Interval],
) -> None:
    """Narrow ``expr``'s sub-tree so its image fits inside ``target``."""
    current = cache[id(expr)]
    narrowed = current.intersect(target)
    if narrowed is None:
        raise _Infeasible()
    cache[id(expr)] = narrowed

    if isinstance(expr, Const):
        return
    if isinstance(expr, Var):
        domain = box.get(expr.name, _EVERYTHING)
        updated = domain.intersect(narrowed)
        if updated is None:
            raise _Infeasible()
        box[expr.name] = updated
        return
    if isinstance(expr, Neg):
        _backward(expr.arg, -narrowed, box, cache)
        return
    if isinstance(expr, Add):
        left, right = cache[id(expr.lhs)], cache[id(expr.rhs)]
        _backward(expr.lhs, narrowed - right, box, cache)
        _backward(expr.rhs, narrowed - cache[id(expr.lhs)], box, cache)
        return
    if isinstance(expr, Sub):
        left, right = cache[id(expr.lhs)], cache[id(expr.rhs)]
        _backward(expr.lhs, narrowed + right, box, cache)
        _backward(expr.rhs, cache[id(expr.lhs)] - narrowed, box, cache)
        return
    if isinstance(expr, Mul):
        if expr.lhs == expr.rhs:
            _backward_even_power(expr.lhs, 2, narrowed, box, cache)
            return
        left, right = cache[id(expr.lhs)], cache[id(expr.rhs)]
        if not right.contains(0.0):
            _backward(expr.lhs, narrowed / right, box, cache)
        if not cache[id(expr.lhs)].contains(0.0):
            _backward(expr.rhs, narrowed / cache[id(expr.lhs)], box, cache)
        return
    if isinstance(expr, Div):
        left, right = cache[id(expr.lhs)], cache[id(expr.rhs)]
        _backward(expr.lhs, narrowed * right, box, cache)
        if not narrowed.contains(0.0):
            _backward(expr.rhs, cache[id(expr.lhs)] / narrowed, box, cache)
        return
    if isinstance(expr, Pow):
        _backward_pow(expr, narrowed, box, cache)
        return
    if isinstance(expr, Call):
        _backward_call(expr, narrowed, box, cache)
        return
    raise TypeError(f"unknown node {type(expr).__name__}")


def _backward_pow(expr: Pow, target: Interval, box: Box, cache: Dict[int, Interval]) -> None:
    n = expr.exponent
    if n == 0:
        if not target.contains(1.0):
            raise _Infeasible()
        return
    if n == 1:
        _backward(expr.base, target, box, cache)
        return
    if n % 2 == 1:
        root = Interval(_odd_root(target.lo, n, -1.0), _odd_root(target.hi, n, 1.0))
        _backward(expr.base, root, box, cache)
        return
    _backward_even_power(expr.base, n, target, box, cache)


def _backward_even_power(
    base: Expr, n: int, target: Interval, box: Box, cache: Dict[int, Interval]
) -> None:
    """Narrow ``base`` so that ``base^n`` (n even) fits inside ``target``."""
    positive = target.intersect(Interval(0.0, math.inf))
    if positive is None:
        raise _Infeasible()
    magnitude = positive.hi ** (1.0 / n) if math.isfinite(positive.hi) else math.inf
    magnitude *= 1 + 1e-12
    low = positive.lo ** (1.0 / n) if positive.lo > 0 else 0.0
    image = cache[id(base)]
    if image.lo >= 0:
        _backward(base, Interval(low * (1 - 1e-12), magnitude), box, cache)
    elif image.hi <= 0:
        _backward(base, Interval(-magnitude, -low * (1 - 1e-12)), box, cache)
    else:
        _backward(base, Interval(-magnitude, magnitude), box, cache)


def _odd_root(value: float, n: int, direction: float) -> float:
    """The real n-th root (n odd), padded down (-1.0, lower end) or up (+1.0)."""
    if not math.isfinite(value):
        return value
    root = math.copysign(abs(value) ** (1.0 / n), value)
    return root + direction * 1e-12 * abs(root)


def _backward_call(expr: Call, target: Interval, box: Box, cache: Dict[int, Interval]) -> None:
    pad = 1e-12
    if expr.function == "exp":
        positive = target.intersect(Interval(0.0, math.inf))
        if positive is None:
            raise _Infeasible()
        lo = math.log(positive.lo) if positive.lo > 0 else -math.inf
        hi = math.log(positive.hi) if 0 < positive.hi < math.inf else math.inf
        _backward(expr.arg, Interval(lo - pad, hi + pad), box, cache)
        return
    if expr.function == "log":
        lo = math.exp(target.lo) if target.lo > -700 else 0.0
        hi = math.exp(target.hi) if target.hi < 700 else math.inf
        _backward(expr.arg, Interval(lo * (1 - pad), hi * (1 + pad) if math.isfinite(hi) else hi), box, cache)
        return
    if expr.function == "sqrt":
        positive = target.intersect(Interval(0.0, math.inf))
        if positive is None:
            raise _Infeasible()
        hi = positive.hi**2 if math.isfinite(positive.hi) else math.inf
        _backward(
            expr.arg,
            Interval(positive.lo**2 * (1 - pad), hi * (1 + pad) if math.isfinite(hi) else hi),
            box,
            cache,
        )
        return
    if expr.function == "tanh":
        clipped = target.intersect(Interval(-1.0, 1.0))
        if clipped is None:
            raise _Infeasible()
        lo = math.atanh(clipped.lo) if clipped.lo > -1 else -math.inf
        hi = math.atanh(clipped.hi) if clipped.hi < 1 else math.inf
        _backward(expr.arg, Interval(lo - pad, hi + pad), box, cache)
        return
    if expr.function == "abs":
        positive = target.intersect(Interval(0.0, math.inf))
        if positive is None:
            raise _Infeasible()
        _backward(
            expr.arg, Interval(-positive.hi * (1 + pad), positive.hi * (1 + pad)), box, cache
        )
        return
    # sin / cos / tan: the image check already happened in the forward
    # pass; the periodic inverses give no single-interval narrowing.
    if expr.function in ("sin", "cos"):
        clipped = target.intersect(Interval(-1.0, 1.0))
        if clipped is None:
            raise _Infeasible()
    return


def hc4_revise(constraint: Constraint, box: Box) -> Optional[Box]:
    """One HC4-revise pass for a single constraint.

    Returns the contracted copy of ``box``, or None when the constraint is
    proven infeasible on it.  The input box is not modified.
    """
    working = dict(box)
    cache: Dict[int, Interval] = {}
    try:
        eval_interval(constraint.lhs, working, cache)
        rhs_image = eval_interval(constraint.rhs, working, cache)
    except ARITHMETIC_ERRORS:
        return dict(box)  # undefined somewhere: no contraction, no verdict
    lhs_required = _required_interval(constraint.relation, rhs_image)
    try:
        _backward(constraint.lhs, lhs_required, box=working, cache=cache)
        # Mirror: narrow the right side against the (narrowed) left.
        lhs_image = cache[id(constraint.lhs)]
        rhs_required = _required_interval(
            constraint.relation.flipped(), lhs_image
        )
        _backward(constraint.rhs, rhs_required, box=working, cache=cache)
    except _Infeasible:
        return None
    except ARITHMETIC_ERRORS:
        return dict(box)
    return working


def contract_box(
    constraints: Sequence[Constraint],
    box: Box,
    max_rounds: int = 8,
    min_improvement: float = 0.01,
) -> Optional[Box]:
    """Propagate all constraints to (approximate) fixpoint.

    Returns the contracted box, or None when some constraint proves the box
    infeasible.  Stops when a full round shrinks no variable's width by
    more than ``min_improvement`` (relative).
    """
    working = dict(box)
    for _ in range(max_rounds):
        improved = False
        for constraint in constraints:
            result = hc4_revise(constraint, working)
            if result is None:
                return None
            for name, interval in result.items():
                old = working.get(name, _EVERYTHING)
                if interval.width < old.width * (1 - min_improvement) or (
                    math.isinf(old.width) and math.isfinite(interval.width)
                ):
                    improved = True
                working[name] = interval
        if not improved:
            break
    return working
