"""Interval arithmetic over expression ASTs.

The nonlinear solver works in floating point; before ABsolver reports SAT it
certifies the candidate point by evaluating every constraint over a small
interval box around the point.  If the constraint holds over the whole box,
float round-off cannot have produced a spurious model.  Intervals are also
used as a cheap pre-filter: a constraint whose interval image over the
variable bounds cannot intersect the feasible side is pruned early.

A structural square ``e * e`` (both operands the same node) is evaluated as
``e^2``: over ``[-b, b]`` its image is ``[0, b*b]``, not the ``[-b*b, b*b]``
of two independent factors.  Every interval consumer gets the tight image.

Outward rounding is approximated by widening each elementary operation by a
relative ULP factor; for the well-scaled control problems of the paper this
is a sound-in-practice certificate (a fully rigorous implementation would use
directed rounding, which pure Python does not expose).
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional

from ..core.expr import (
    ARITHMETIC_ERRORS,
    Add,
    Call,
    Const,
    Constraint,
    Div,
    EvaluationError,
    Expr,
    Mul,
    Neg,
    Pow,
    Relation,
    Sub,
    Var,
)
from ..core.tristate import FF, TT, UNKNOWN, Tri

__all__ = ["Interval", "eval_interval", "check_constraint_interval"]

_WIDEN = 1e-12  # relative outward widening applied after every operation


class Interval:
    """A closed interval [lo, hi]; supports +/-/*/ / and monotone functions."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN interval bound")
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(value: float) -> "Interval":
        return Interval(value, value)

    @staticmethod
    def around(value: float, radius: float) -> "Interval":
        return Interval(value - radius, value + radius)

    # ------------------------------------------------------------------
    def _widened(self) -> "Interval":
        # Relative widening only: a float operation that yields exactly 0.0
        # is exact (no representable value rounds to 0 from a nonzero
        # result), so zero endpoints stay sharp — which is what lets
        # verdicts like "x^2 < 0 is ff" come out definite.
        pad_lo = abs(self.lo) * _WIDEN
        pad_hi = abs(self.hi) * _WIDEN
        return Interval(self.lo - pad_lo, self.hi + pad_hi)

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)._widened()

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)._widened()

    def __mul__(self, other: "Interval") -> "Interval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))._widened()

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroDivisionError(f"division by interval containing 0: {other}")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Interval(min(quotients), max(quotients))._widened()

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def power(self, exponent: int) -> "Interval":
        if exponent == 0:
            return Interval.point(1.0)
        if exponent % 2 == 1 or self.lo >= 0:
            return Interval(self.lo**exponent, self.hi**exponent)._widened()
        if self.hi <= 0:
            return Interval(self.hi**exponent, self.lo**exponent)._widened()
        return Interval(0.0, max(self.lo**exponent, self.hi**exponent))._widened()

    # ------------------------------------------------------------------
    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> Optional["Interval"]:
        """The intersection, or None when the intervals are disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        """The smallest interval containing both."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Interval) and other.lo == self.lo and other.hi == self.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))


def _apply_function(name: str, arg: Interval) -> Interval:
    if name == "exp":
        return Interval(math.exp(arg.lo), math.exp(arg.hi))._widened()
    if name == "log":
        if arg.lo <= 0:
            raise EvaluationError(f"log of interval {arg} reaching <= 0")
        return Interval(math.log(arg.lo), math.log(arg.hi))._widened()
    if name == "sqrt":
        if arg.lo < 0:
            raise EvaluationError(f"sqrt of interval {arg} reaching < 0")
        return Interval(math.sqrt(arg.lo), math.sqrt(arg.hi))._widened()
    if name == "tanh":
        return Interval(math.tanh(arg.lo), math.tanh(arg.hi))._widened()
    if name == "abs":
        if arg.lo >= 0:
            return arg
        if arg.hi <= 0:
            return -arg
        return Interval(0.0, max(-arg.lo, arg.hi))
    if name in ("sin", "cos"):
        return _trig_interval(name, arg)
    if name == "tan":
        # Sound only when no pole lies inside; detect via cos sign.
        cos_range = _trig_interval("cos", arg)
        if cos_range.lo <= 0.0 <= cos_range.hi:
            raise EvaluationError(f"tan over interval {arg} may cross a pole")
        return Interval(
            min(math.tan(arg.lo), math.tan(arg.hi)),
            max(math.tan(arg.lo), math.tan(arg.hi)),
        )._widened()
    raise EvaluationError(f"no interval extension for function {name!r}")


def _trig_interval(name: str, arg: Interval) -> Interval:
    """Range of sin/cos over [lo, hi], handling contained extrema."""
    if arg.width >= 2 * math.pi:
        return Interval(-1.0, 1.0)
    fn = math.sin if name == "sin" else math.cos
    lo_val, hi_val = fn(arg.lo), fn(arg.hi)
    result_lo, result_hi = min(lo_val, hi_val), max(lo_val, hi_val)
    # Critical points: sin peaks at pi/2 + 2k*pi, troughs at -pi/2 + 2k*pi;
    # cos peaks at 2k*pi, troughs at pi + 2k*pi.
    peak_offset = math.pi / 2 if name == "sin" else 0.0
    k_min = math.ceil((arg.lo - peak_offset) / (2 * math.pi))
    k_max = math.floor((arg.hi - peak_offset) / (2 * math.pi))
    if k_min <= k_max:
        result_hi = 1.0
    trough_offset = -math.pi / 2 if name == "sin" else math.pi
    k_min = math.ceil((arg.lo - trough_offset) / (2 * math.pi))
    k_max = math.floor((arg.hi - trough_offset) / (2 * math.pi))
    if k_min <= k_max:
        result_lo = -1.0
    return Interval(result_lo, result_hi)._widened()


def eval_interval(
    expr: Expr, env: Mapping[str, Interval], memo: Optional[Dict[int, Interval]] = None
) -> Interval:
    """Evaluate an expression over an interval box.

    ``memo`` (valid for one box) maps ``id(node)`` to the node's image; each
    node is evaluated once and stored there, so shared subterms cost one.

    Raises :class:`EvaluationError` (or ZeroDivisionError) when the image is
    not defined over the whole box — callers treat that as "cannot certify".
    """
    if memo is not None and id(expr) in memo:
        return memo[id(expr)]
    if isinstance(expr, Const):
        image = Interval.point(float(expr.value))
    elif isinstance(expr, Var):
        try:
            image = env[expr.name]
        except KeyError:
            raise EvaluationError(f"variable {expr.name!r} has no interval") from None
    elif isinstance(expr, Neg):
        image = -eval_interval(expr.arg, env, memo)
    elif isinstance(expr, Add):
        image = eval_interval(expr.lhs, env, memo) + eval_interval(expr.rhs, env, memo)
    elif isinstance(expr, Sub):
        image = eval_interval(expr.lhs, env, memo) - eval_interval(expr.rhs, env, memo)
    elif isinstance(expr, Mul) and expr.lhs == expr.rhs:
        image = eval_interval(expr.lhs, env, memo).power(2)
    elif isinstance(expr, Mul):
        image = eval_interval(expr.lhs, env, memo) * eval_interval(expr.rhs, env, memo)
    elif isinstance(expr, Div):
        try:
            image = eval_interval(expr.lhs, env, memo) / eval_interval(expr.rhs, env, memo)
        except ZeroDivisionError as exc:
            raise EvaluationError(str(exc)) from exc
    elif isinstance(expr, Pow):
        image = eval_interval(expr.base, env, memo).power(expr.exponent)
    elif isinstance(expr, Call):
        image = _apply_function(expr.function, eval_interval(expr.arg, env, memo))
    else:
        raise EvaluationError(f"unsupported node {type(expr).__name__}")
    if memo is not None:
        memo[id(expr)] = image
    return image


def check_constraint_interval(
    constraint: Constraint, env: Mapping[str, Interval]
) -> Tri:
    """Three-valued constraint check over an interval box.

    ``TT``: the constraint holds everywhere on the box (certified).
    ``FF``: it fails everywhere on the box (certified violation).
    ``UNKNOWN``: the box straddles the constraint boundary, or the
    expression is undefined somewhere on the box.
    """
    try:
        lhs = eval_interval(constraint.lhs, env)
        rhs = eval_interval(constraint.rhs, env)
    except ARITHMETIC_ERRORS:
        # Undefined somewhere on the box (NaN from inf*0, domain error, ...):
        # no verdict is possible.
        return UNKNOWN
    relation = constraint.relation
    if relation is Relation.LT:
        if lhs.hi < rhs.lo:
            return TT
        if lhs.lo >= rhs.hi:
            return FF
        return UNKNOWN
    if relation is Relation.LE:
        if lhs.hi <= rhs.lo:
            return TT
        if lhs.lo > rhs.hi:
            return FF
        return UNKNOWN
    if relation is Relation.GT:
        if lhs.lo > rhs.hi:
            return TT
        if lhs.hi <= rhs.lo:
            return FF
        return UNKNOWN
    if relation is Relation.GE:
        if lhs.lo >= rhs.hi:
            return TT
        if lhs.hi < rhs.lo:
            return FF
        return UNKNOWN
    # EQ: certified only when both sides are the same point.
    if lhs.lo == lhs.hi == rhs.lo == rhs.hi:
        return TT
    if not lhs.intersects(rhs):
        return FF
    return UNKNOWN
