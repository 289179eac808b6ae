"""Arithmetic expression AST for AB-problems.

The paper (Sec. 2) defines the arithmetic part of the class AB as expressions
``a0 x0 op1 ... opn an xn ? c`` with ``opi in {+, -, *, /}`` and notes that
extension to transcendental operators such as ``sin``, ``cos`` or ``exp`` is
"straightforward and not limited by a design decision".  This module provides
exactly that: a small expression language over real- and integer-valued
variables with

* construction via operator overloading (``a * x + 3.5 / (4 - y) >= 7.1``),
* evaluation against variable environments,
* symbolic differentiation (needed by the nonlinear solver for gradients),
* linearity analysis and extraction of linear coefficient vectors (needed to
  route constraints to the linear vs. nonlinear solver),
* structural simplification and substitution,
* a recursive-descent parser for the textual syntax used in the extended
  DIMACS format (Fig. 2 of the paper).

Expressions are immutable; all rewriting operations return new nodes.

Hash-consing
------------

Construction is routed through a per-process intern table (hash-consing):
structurally equal nodes built while interning is enabled are the *same*
object, so structural equality degenerates to a pointer comparison and
derived properties (``variables()``, ``size()``, ``linear_form()``,
``simplify()``, content fingerprints, ``__hash__``) are memoized per node
and shared by every occurrence of a subterm.  ``walk()`` and
``substitute()`` deduplicate by object identity, so DAG-shaped formulas
(e.g. BMC unrolls that share frame terms) are traversed once per distinct
subterm instead of once per occurrence.

Interning is on by default; set the environment variable
``REPRO_EXPR_INTERN=0`` (or call :func:`set_interning`) to fall back to
plain construction.  Nodes remain fully interoperable across the two modes
— memoization is per object and never observable through the public API.

Pickling reconstructs nodes through the interning constructor
(``__reduce__``), so shared subterms stay shared after a round-trip and
pickles shrink: the pickle memo emits one copy per distinct subterm
instead of one per occurrence.
"""

from __future__ import annotations

import enum
import hashlib
import math
import os
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, Union

Number = Union[int, float, Fraction]

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Call",
    "Relation",
    "Constraint",
    "NonlinearExpressionError",
    "EvaluationError",
    "ARITHMETIC_ERRORS",
    "ExprParseError",
    "LinearForm",
    "parse_expression",
    "parse_constraint",
    "FUNCTION_TABLE",
    "set_interning",
    "interning_enabled",
    "intern_counters",
    "intern_table_size",
    "clear_intern_table",
]


class NonlinearExpressionError(Exception):
    """Raised when a linear form is requested from a nonlinear expression."""


class EvaluationError(Exception):
    """Raised when an expression cannot be evaluated (free var, div by zero)."""


#: What evaluating an expression, pointwise or over intervals, raises where
#: it is undefined or out of range.  Callers that read "undefined" as "no
#: verdict" catch these and let every other exception surface.
ARITHMETIC_ERRORS = (EvaluationError, ValueError, OverflowError, ZeroDivisionError)


class ExprParseError(Exception):
    """Raised on malformed textual expressions or constraints."""


#: Unary functions supported by :class:`Call`.  The paper names sin/cos/exp as
#: the canonical extensions; the remainder follow the same pattern and each
#: took "less than an hour of programming effort", as promised.
FUNCTION_TABLE: Dict[str, Callable[[float], float]] = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
    "tanh": math.tanh,
}


def _coerce(value: Union["Expr", Number]) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Const(value)
    raise TypeError(f"cannot build an expression from {value!r}")


# ----------------------------------------------------------------------
# Hash-consing (interning)
# ----------------------------------------------------------------------
def _intern_default() -> bool:
    return os.environ.get("REPRO_EXPR_INTERN", "1").strip().lower() not in (
        "0",
        "false",
        "off",
        "no",
    )


#: One-element cell so the metaclass fast path is a single list index.
_INTERN_ENABLED: List[bool] = [_intern_default()]
_INTERN_TABLE: Dict[tuple, "Expr"] = {}
#: Safety valve for pathological workloads: the table is cleared (not
#: partially evicted — children referenced by keys must stay consistent)
#: once it crosses this size.
_INTERN_LIMIT = 1_000_000
_INTERN_STATS = {"hits": 0, "misses": 0}


def interning_enabled() -> bool:
    """Whether expression construction currently goes through the table."""
    return _INTERN_ENABLED[0]


def set_interning(enabled: bool) -> bool:
    """Enable/disable hash-consing; returns the previous setting."""
    previous = _INTERN_ENABLED[0]
    _INTERN_ENABLED[0] = bool(enabled)
    return previous


def intern_counters() -> Dict[str, int]:
    """Process-wide ``{"hits": ..., "misses": ...}`` intern-table counters."""
    return dict(_INTERN_STATS)


def intern_table_size() -> int:
    return len(_INTERN_TABLE)


def clear_intern_table() -> None:
    """Drop all interned nodes (existing nodes stay valid, just unshared)."""
    _INTERN_TABLE.clear()


class _InternMeta(type):
    """Routes node construction through the per-process intern table.

    Each concrete node class contributes a ``_intern_key`` classmethod
    returning ``(key, canonical_args)`` for valid inputs and ``None`` (or
    raising) for inputs it cannot canonicalize — those fall through to the
    plain constructor so error behavior is unchanged.
    """

    def __call__(cls, *args, **kwargs):
        if not _INTERN_ENABLED[0]:
            return super().__call__(*args, **kwargs)
        try:
            prepared = cls._intern_key(*args, **kwargs)
        except Exception:
            prepared = None
        if prepared is None:
            return super().__call__(*args, **kwargs)
        key, call_args = prepared
        node = _INTERN_TABLE.get(key)
        if node is not None:
            _INTERN_STATS["hits"] += 1
            return node
        node = super().__call__(*call_args)
        _INTERN_STATS["misses"] += 1
        if len(_INTERN_TABLE) >= _INTERN_LIMIT:
            _INTERN_TABLE.clear()
        _INTERN_TABLE[key] = node
        return node


class Expr(metaclass=_InternMeta):
    """Base class of all arithmetic expression nodes.

    Subclasses implement :meth:`evaluate`, :meth:`diff`, :meth:`children` and
    the printing hooks.  Instances are immutable and hashable so they can be
    shared freely between circuit gates and constraint systems.

    The trailing underscore slots memoize derived per-node properties
    (structural hash, free variables, size, linear form, simplified form,
    content digest).  They are write-once caches set via
    ``object.__setattr__`` — never part of equality, printing, or pickles.
    """

    __slots__ = ("_hash", "_vars", "_size", "_linform", "_simplified", "_digest")

    @classmethod
    def _intern_key(cls, *args, **kwargs):
        return None

    # -- pickling -------------------------------------------------------
    # Reconstruct through the (interning) constructor so a round-trip
    # re-establishes node sharing in the receiving process and the pickle
    # memo serializes each distinct subterm once.  Cached hashes must not
    # cross processes (string hashing is per-process salted) — reducing to
    # constructor args drops all memo slots for free.
    def __reduce__(self):
        return (type(self), self._reduce_args())

    def _reduce_args(self) -> tuple:
        raise NotImplementedError

    # -- construction via operators ------------------------------------
    def __add__(self, other: Union["Expr", Number]) -> "Expr":
        return Add(self, _coerce(other))

    def __radd__(self, other: Number) -> "Expr":
        return Add(_coerce(other), self)

    def __sub__(self, other: Union["Expr", Number]) -> "Expr":
        return Sub(self, _coerce(other))

    def __rsub__(self, other: Number) -> "Expr":
        return Sub(_coerce(other), self)

    def __mul__(self, other: Union["Expr", Number]) -> "Expr":
        return Mul(self, _coerce(other))

    def __rmul__(self, other: Number) -> "Expr":
        return Mul(_coerce(other), self)

    def __truediv__(self, other: Union["Expr", Number]) -> "Expr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other: Number) -> "Expr":
        return Div(_coerce(other), self)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __pow__(self, exponent: int) -> "Expr":
        return Pow(self, exponent)

    # -- comparisons build constraints ----------------------------------
    def __lt__(self, other: Union["Expr", Number]) -> "Constraint":
        return Constraint(self, Relation.LT, _coerce(other))

    def __le__(self, other: Union["Expr", Number]) -> "Constraint":
        return Constraint(self, Relation.LE, _coerce(other))

    def __gt__(self, other: Union["Expr", Number]) -> "Constraint":
        return Constraint(self, Relation.GT, _coerce(other))

    def __ge__(self, other: Union["Expr", Number]) -> "Constraint":
        return Constraint(self, Relation.GE, _coerce(other))

    def eq(self, other: Union["Expr", Number]) -> "Constraint":
        """Build an equality constraint (``==`` is kept for structural use)."""
        return Constraint(self, Relation.EQ, _coerce(other))

    # -- core protocol ---------------------------------------------------
    def children(self) -> Tuple["Expr", ...]:
        raise NotImplementedError

    def evaluate(self, env: Mapping[str, Number]) -> float:
        """Evaluate under ``env``; raises :class:`EvaluationError` on failure."""
        raise NotImplementedError

    def diff(self, var: str) -> "Expr":
        """Symbolic partial derivative with respect to ``var``."""
        raise NotImplementedError

    def substitute(self, mapping: Mapping[str, "Expr"]) -> "Expr":
        """Replace variables by expressions (simultaneous substitution).

        DAG-aware: shared subterms are rewritten once per distinct node and
        untouched subtrees are returned as-is instead of being rebuilt.
        """
        memo: Dict[int, Expr] = {}

        def rebuild(node: "Expr") -> "Expr":
            cached = memo.get(id(node))
            if cached is None:
                cached = node._substituted(mapping, rebuild)
                memo[id(node)] = cached
            return cached

        return rebuild(self)

    def _substituted(
        self, mapping: Mapping[str, "Expr"], rebuild: Callable[["Expr"], "Expr"]
    ) -> "Expr":
        raise NotImplementedError

    # -- cached structural hash ------------------------------------------
    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = self._structural_hash()
            object.__setattr__(self, "_hash", cached)
        return cached

    def _structural_hash(self) -> int:
        raise NotImplementedError

    # -- derived operations ----------------------------------------------
    def variables(self) -> "frozenset[str]":
        """The set of free variable names in the expression (memoized)."""
        cached = getattr(self, "_vars", None)
        if cached is None:
            names: set = set()
            seen: set = set()
            stack: List[Expr] = [self]
            while stack:
                node = stack.pop()
                node_id = id(node)
                if node_id in seen:
                    continue
                seen.add(node_id)
                sub = getattr(node, "_vars", None)
                if sub is not None:
                    names |= sub
                elif isinstance(node, Var):
                    names.add(node.name)
                else:
                    stack.extend(node.children())
            cached = frozenset(names)
            object.__setattr__(self, "_vars", cached)
        return cached

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal yielding each distinct node once.

        Shared subterms (DAG edges under hash-consing) are visited a single
        time, so traversal is linear in the number of distinct nodes rather
        than the unfolded tree size.
        """
        seen: set = set()
        stack: List[Expr] = [self]
        while stack:
            node = stack.pop()
            node_id = id(node)
            if node_id in seen:
                continue
            seen.add(node_id)
            yield node
            stack.extend(reversed(node.children()))

    def size(self) -> int:
        """Number of distinct AST nodes; a rough complexity measure."""
        cached = getattr(self, "_size", None)
        if cached is None:
            cached = sum(1 for _ in self.walk())
            object.__setattr__(self, "_size", cached)
        return cached

    def is_linear(self) -> bool:
        """True when the expression is an affine function of its variables."""
        try:
            self.linear_form()
            return True
        except NonlinearExpressionError:
            return False

    def linear_form(self) -> "LinearForm":
        """Extract coefficients; raises if the expression is not affine.

        Both outcomes are memoized: repeated extraction over shared
        subterms — the common case after translation caching — is O(1).
        Callers must not mutate the returned form's ``coeffs``.
        """
        cached = getattr(self, "_linform", None)
        if cached is None:
            try:
                cached = _linear_form(self)
            except NonlinearExpressionError as error:
                object.__setattr__(self, "_linform", ("nonlinear", str(error)))
                raise
            object.__setattr__(self, "_linform", cached)
        elif isinstance(cached, tuple):
            raise NonlinearExpressionError(cached[1])
        return cached

    def simplify(self) -> "Expr":
        """Constant folding and identity elimination (memoized fixpoint)."""
        cached = getattr(self, "_simplified", None)
        if cached is None:
            cached = _simplify(self)
            object.__setattr__(self, "_simplified", cached)
            if cached is not self:
                object.__setattr__(cached, "_simplified", cached)
        return cached

    # -- canonical content digest ----------------------------------------
    def fingerprint(self) -> str:
        """Canonical content hash (hex), stable across processes.

        Unlike ``hash()`` (per-process salted), the fingerprint is a
        content digest: constants are folded first (via ``simplify``),
        ``+``/``*`` chains are flattened and digest-sorted so argument
        order does not matter, and ``Sub``/``Neg`` are normalized into
        signed additive terms so e.g. ``x - y`` and ``-(y - x)`` agree.
        """
        return self.simplify()._digest_bytes().hex()

    def _digest_bytes(self) -> bytes:
        cached = getattr(self, "_digest", None)
        if cached is None:
            cached = _node_digest(self)
            object.__setattr__(self, "_digest", cached)
        return cached

    # printing ------------------------------------------------------------
    def _precedence(self) -> int:
        raise NotImplementedError

    def _to_str(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self._to_str()

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._to_str()!r})"


class Const(Expr):
    """A numeric literal.  Integer-valued floats print without decimals."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            raise TypeError(f"Const requires a number, got {value!r}")
        object.__setattr__(self, "value", value)

    @classmethod
    def _intern_key(cls, value):
        # The literal type is part of the key: Const(1) and Const(1.0)
        # compare equal but print differently, so they stay distinct
        # objects with their original ``value`` type.
        if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
            return None
        return ("Const", type(value).__name__, value), (value,)

    def _reduce_args(self) -> tuple:
        return (self.value,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Const is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def evaluate(self, env: Mapping[str, Number]) -> float:
        return float(self.value)

    def diff(self, var: str) -> Expr:
        return Const(0)

    def _substituted(self, mapping, rebuild) -> Expr:
        return self

    def _precedence(self) -> int:
        return 100 if float(self.value) >= 0 else 5

    def _to_str(self) -> str:
        value = self.value
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return str(value.numerator)
            return f"{value.numerator}/{value.denominator}"
        if isinstance(value, float) and value.is_integer():
            return str(int(value))
        return str(value)

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Const) and float(other.value) == float(self.value)

    def _structural_hash(self) -> int:
        return hash(("Const", float(self.value)))

    __hash__ = Expr.__hash__


class Var(Expr):
    """A named real- or integer-valued variable."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise TypeError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)

    @classmethod
    def _intern_key(cls, name):
        if not name or not isinstance(name, str):
            return None
        return ("Var", name), (name,)

    def _reduce_args(self) -> tuple:
        return (self.name,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Var is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return ()

    def evaluate(self, env: Mapping[str, Number]) -> float:
        try:
            return float(env[self.name])
        except KeyError:
            raise EvaluationError(f"variable {self.name!r} has no value") from None

    def diff(self, var: str) -> Expr:
        return Const(1 if var == self.name else 0)

    def _substituted(self, mapping, rebuild) -> Expr:
        return mapping.get(self.name, self)

    def _precedence(self) -> int:
        return 100

    def _to_str(self) -> str:
        return self.name

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Var) and other.name == self.name

    def _structural_hash(self) -> int:
        return hash(("Var", self.name))

    __hash__ = Expr.__hash__


class _Binary(Expr):
    __slots__ = ("lhs", "rhs")
    _symbol = "?"
    _prec = 0

    def __init__(self, lhs: Union[Expr, Number], rhs: Union[Expr, Number]):
        object.__setattr__(self, "lhs", _coerce(lhs))
        object.__setattr__(self, "rhs", _coerce(rhs))

    @classmethod
    def _intern_key(cls, lhs, rhs):
        lhs = _coerce(lhs)
        rhs = _coerce(rhs)
        return (cls.__name__, lhs, rhs), (lhs, rhs)

    def _reduce_args(self) -> tuple:
        return (self.lhs, self.rhs)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.lhs, self.rhs)

    def _substituted(self, mapping, rebuild) -> Expr:
        lhs = rebuild(self.lhs)
        rhs = rebuild(self.rhs)
        if lhs is self.lhs and rhs is self.rhs:
            return self
        return type(self)(lhs, rhs)

    def _precedence(self) -> int:
        return self._prec

    def _to_str(self) -> str:
        left = self.lhs._to_str()
        right = self.rhs._to_str()
        if self.lhs._precedence() < self._prec:
            left = f"({left})"
        # Right operand of -, / needs parens at equal precedence too.
        right_min = self._prec + (1 if self._symbol in ("-", "/") else 0)
        if self.rhs._precedence() < right_min:
            right = f"({right})"
        return f"{left} {self._symbol} {right}"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            type(other) is type(self)
            and other.lhs == self.lhs  # type: ignore[attr-defined]
            and other.rhs == self.rhs  # type: ignore[attr-defined]
        )

    def _structural_hash(self) -> int:
        return hash((type(self).__name__, self.lhs, self.rhs))

    __hash__ = Expr.__hash__


class Add(_Binary):
    """Binary addition."""

    __slots__ = ()
    _symbol = "+"
    _prec = 10

    def evaluate(self, env: Mapping[str, Number]) -> float:
        return self.lhs.evaluate(env) + self.rhs.evaluate(env)

    def diff(self, var: str) -> Expr:
        return Add(self.lhs.diff(var), self.rhs.diff(var))


class Sub(_Binary):
    """Binary subtraction."""

    __slots__ = ()
    _symbol = "-"
    _prec = 10

    def evaluate(self, env: Mapping[str, Number]) -> float:
        return self.lhs.evaluate(env) - self.rhs.evaluate(env)

    def diff(self, var: str) -> Expr:
        return Sub(self.lhs.diff(var), self.rhs.diff(var))


class Mul(_Binary):
    """Binary multiplication."""

    __slots__ = ()
    _symbol = "*"
    _prec = 20

    def evaluate(self, env: Mapping[str, Number]) -> float:
        return self.lhs.evaluate(env) * self.rhs.evaluate(env)

    def diff(self, var: str) -> Expr:
        return Add(Mul(self.lhs.diff(var), self.rhs), Mul(self.lhs, self.rhs.diff(var)))


class Div(_Binary):
    """Binary division; evaluation raises on a zero denominator."""

    __slots__ = ()
    _symbol = "/"
    _prec = 20

    def evaluate(self, env: Mapping[str, Number]) -> float:
        denominator = self.rhs.evaluate(env)
        if denominator == 0.0:
            raise EvaluationError(f"division by zero in {self}")
        return self.lhs.evaluate(env) / denominator

    def diff(self, var: str) -> Expr:
        # (u / v)' = (u' v - u v') / v^2
        numerator = Sub(Mul(self.lhs.diff(var), self.rhs), Mul(self.lhs, self.rhs.diff(var)))
        return Div(numerator, Mul(self.rhs, self.rhs))


class Neg(Expr):
    """Unary negation."""

    __slots__ = ("arg",)

    def __init__(self, arg: Union[Expr, Number]):
        object.__setattr__(self, "arg", _coerce(arg))

    @classmethod
    def _intern_key(cls, arg):
        arg = _coerce(arg)
        return ("Neg", arg), (arg,)

    def _reduce_args(self) -> tuple:
        return (self.arg,)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Neg is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, env: Mapping[str, Number]) -> float:
        return -self.arg.evaluate(env)

    def diff(self, var: str) -> Expr:
        return Neg(self.arg.diff(var))

    def _substituted(self, mapping, rebuild) -> Expr:
        arg = rebuild(self.arg)
        if arg is self.arg:
            return self
        return Neg(arg)

    def _precedence(self) -> int:
        return 30

    def _to_str(self) -> str:
        inner = self.arg._to_str()
        if self.arg._precedence() < 30:
            inner = f"({inner})"
        return f"-{inner}"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Neg) and other.arg == self.arg

    def _structural_hash(self) -> int:
        return hash(("Neg", self.arg))

    __hash__ = Expr.__hash__


class Pow(Expr):
    """Integer power ``base ** exponent`` with a literal exponent.

    Only non-negative integer exponents are supported; this keeps
    differentiation and interval evaluation simple while covering the
    polynomial constraints that arise from physical environment models.
    """

    __slots__ = ("base", "exponent")

    def __init__(self, base: Union[Expr, Number], exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise TypeError("Pow exponent must be a non-negative int")
        object.__setattr__(self, "base", _coerce(base))
        object.__setattr__(self, "exponent", exponent)

    @classmethod
    def _intern_key(cls, base, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return None
        base = _coerce(base)
        return ("Pow", base, exponent), (base, exponent)

    def _reduce_args(self) -> tuple:
        return (self.base, self.exponent)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Pow is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.base,)

    def evaluate(self, env: Mapping[str, Number]) -> float:
        value = self.base.evaluate(env)
        try:
            return value**self.exponent
        except OverflowError as exc:
            raise EvaluationError(f"({value})^{self.exponent} overflows") from exc

    def diff(self, var: str) -> Expr:
        if self.exponent == 0:
            return Const(0)
        return Mul(Mul(Const(self.exponent), Pow(self.base, self.exponent - 1)), self.base.diff(var))

    def _substituted(self, mapping, rebuild) -> Expr:
        base = rebuild(self.base)
        if base is self.base:
            return self
        return Pow(base, self.exponent)

    def _precedence(self) -> int:
        return 40

    def _to_str(self) -> str:
        inner = self.base._to_str()
        if self.base._precedence() < 40:
            inner = f"({inner})"
        return f"{inner}^{self.exponent}"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Pow) and other.base == self.base and other.exponent == self.exponent

    def _structural_hash(self) -> int:
        return hash(("Pow", self.base, self.exponent))

    __hash__ = Expr.__hash__


#: Symbolic derivatives for the functions in :data:`FUNCTION_TABLE`.
_DERIVATIVES: Dict[str, Callable[["Expr"], Expr]] = {
    "sin": lambda arg: Call("cos", arg),
    "cos": lambda arg: Neg(Call("sin", arg)),
    "tan": lambda arg: Div(Const(1), Mul(Call("cos", arg), Call("cos", arg))),
    "exp": lambda arg: Call("exp", arg),
    "log": lambda arg: Div(Const(1), arg),
    "sqrt": lambda arg: Div(Const(0.5), Call("sqrt", arg)),
    "tanh": lambda arg: Sub(Const(1), Mul(Call("tanh", arg), Call("tanh", arg))),
}


class Call(Expr):
    """Application of a unary function from :data:`FUNCTION_TABLE`."""

    __slots__ = ("function", "arg")

    def __init__(self, function: str, arg: Union[Expr, Number]):
        if function not in FUNCTION_TABLE:
            raise ValueError(f"unknown function {function!r}; known: {sorted(FUNCTION_TABLE)}")
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "arg", _coerce(arg))

    @classmethod
    def _intern_key(cls, function, arg):
        if function not in FUNCTION_TABLE:
            return None
        arg = _coerce(arg)
        return ("Call", function, arg), (function, arg)

    def _reduce_args(self) -> tuple:
        return (self.function, self.arg)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Call is immutable")

    def children(self) -> Tuple[Expr, ...]:
        return (self.arg,)

    def evaluate(self, env: Mapping[str, Number]) -> float:
        value = self.arg.evaluate(env)
        try:
            return FUNCTION_TABLE[self.function](value)
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(f"{self.function}({value}) is undefined or out of range") from exc

    def diff(self, var: str) -> Expr:
        if self.function == "abs":
            raise NonlinearExpressionError("abs is not differentiable at 0; rewrite before solving")
        outer = _DERIVATIVES[self.function](self.arg)
        return Mul(outer, self.arg.diff(var))

    def _substituted(self, mapping, rebuild) -> Expr:
        arg = rebuild(self.arg)
        if arg is self.arg:
            return self
        return Call(self.function, arg)

    def _precedence(self) -> int:
        return 100

    def _to_str(self) -> str:
        return f"{self.function}({self.arg._to_str()})"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Call) and other.function == self.function and other.arg == self.arg

    def _structural_hash(self) -> int:
        return hash(("Call", self.function, self.arg))

    __hash__ = Expr.__hash__


# ----------------------------------------------------------------------
# Canonical content digests
# ----------------------------------------------------------------------
# ``fingerprint()`` must be stable across processes (unlike ``hash()``,
# which is salted) and across the argument orderings of commutative
# operators.  Nodes digest as a *signed sum of terms*: Add/Sub/Neg chains
# are flattened into ``(sign, atom-digest)`` terms which are sorted, so
# ``x - y`` == ``-(y - x)`` and ``a + b`` == ``b + a``.  Mul chains are
# flattened with Neg-parity extraction and factor digests sorted.
def _blake(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def _const_token(value: Number) -> bytes:
    # Matches Const.__eq__/__hash__ semantics (float comparison);
    # ``+ 0.0`` collapses -0.0 onto 0.0.
    try:
        return repr(float(value) + 0.0).encode()
    except OverflowError:
        if isinstance(value, Fraction):
            return f"{value.numerator}/{value.denominator}".encode()
        return repr(value).encode()


def _flatten_product(node: Expr, factors: List[Expr]) -> bool:
    """Collect Mul-chain factors; returns the Neg-parity of the chain."""
    negated = False
    stack: List[Expr] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, Mul):
            stack.append(item.lhs)
            stack.append(item.rhs)
        elif isinstance(item, Neg):
            negated = not negated
            stack.append(item.arg)
        else:
            factors.append(item)
    return negated


def _sum_terms(root: Expr) -> List[bytes]:
    terms: List[bytes] = []
    stack: List[Tuple[Expr, bool]] = [(root, False)]
    while stack:
        node, negated = stack.pop()
        if isinstance(node, Add):
            stack.append((node.rhs, negated))
            stack.append((node.lhs, negated))
        elif isinstance(node, Sub):
            stack.append((node.rhs, not negated))
            stack.append((node.lhs, negated))
        elif isinstance(node, Neg):
            stack.append((node.arg, not negated))
        elif isinstance(node, Const):
            value = -node.value if negated else node.value
            terms.append(b"+C" + _const_token(value))
        elif isinstance(node, Mul):
            factors: List[Expr] = []
            flip = _flatten_product(node, factors)
            digests = sorted(factor._digest_bytes() for factor in factors)
            sign = b"-" if (negated ^ flip) else b"+"
            terms.append(sign + _blake(b"P" + b"".join(digests)))
        else:
            terms.append((b"-" if negated else b"+") + _atom_digest(node))
    return terms


def _atom_digest(node: Expr) -> bytes:
    if isinstance(node, Var):
        return _blake(b"V" + node.name.encode())
    if isinstance(node, Div):
        return _blake(b"/" + node.lhs._digest_bytes() + node.rhs._digest_bytes())
    if isinstance(node, Pow):
        return _blake(b"^" + str(node.exponent).encode() + b":" + node.base._digest_bytes())
    if isinstance(node, Call):
        return _blake(b"F" + node.function.encode() + b":" + node.arg._digest_bytes())
    raise TypeError(f"unknown expression node {type(node).__name__}")


def _node_digest(node: Expr) -> bytes:
    terms = _sum_terms(node)
    if len(terms) == 1 and terms[0][:1] == b"+":
        return _blake(b"T" + terms[0][1:])
    terms.sort()
    return _blake(b"S" + b"".join(terms))


# ----------------------------------------------------------------------
# Linearity analysis
# ----------------------------------------------------------------------
class LinearForm:
    """An affine expression ``sum(coeffs[v] * v) + constant``.

    Coefficients are exact :class:`~fractions.Fraction` values whenever the
    source literals were ints/Fractions, so the simplex solver can run in
    exact arithmetic.
    """

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: Mapping[str, Fraction], constant: Fraction):
        self.coeffs: Dict[str, Fraction] = {v: c for v, c in coeffs.items() if c != 0}
        self.constant = constant

    def variables(self) -> "set[str]":
        return set(self.coeffs)

    def evaluate(self, env: Mapping[str, Number]) -> Fraction:
        total = self.constant
        for name, coeff in self.coeffs.items():
            total += coeff * Fraction(env[name])
        return total

    def scaled(self, factor: Fraction) -> "LinearForm":
        return LinearForm({v: c * factor for v, c in self.coeffs.items()}, self.constant * factor)

    def plus(self, other: "LinearForm") -> "LinearForm":
        coeffs = dict(self.coeffs)
        for name, coeff in other.coeffs.items():
            coeffs[name] = coeffs.get(name, Fraction(0)) + coeff
        return LinearForm(coeffs, self.constant + other.constant)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearForm)
            and other.coeffs == self.coeffs
            and other.constant == self.constant
        )

    def __repr__(self) -> str:
        terms = [f"{coeff}*{name}" for name, coeff in sorted(self.coeffs.items())]
        terms.append(str(self.constant))
        return "LinearForm(" + " + ".join(terms) + ")"


def _to_fraction(value: Number) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return Fraction(value).limit_denominator(10**12)


def _linear_form(expr: Expr) -> LinearForm:
    # Recursion goes through the memoized ``linear_form`` accessor so
    # shared subterms are analyzed once per process, not once per caller.
    if isinstance(expr, Const):
        return LinearForm({}, _to_fraction(expr.value))
    if isinstance(expr, Var):
        return LinearForm({expr.name: Fraction(1)}, Fraction(0))
    if isinstance(expr, Neg):
        return expr.arg.linear_form().scaled(Fraction(-1))
    if isinstance(expr, Add):
        return expr.lhs.linear_form().plus(expr.rhs.linear_form())
    if isinstance(expr, Sub):
        return expr.lhs.linear_form().plus(expr.rhs.linear_form().scaled(Fraction(-1)))
    if isinstance(expr, Mul):
        left, right = expr.lhs.linear_form(), expr.rhs.linear_form()
        if not left.coeffs:
            return right.scaled(left.constant)
        if not right.coeffs:
            return left.scaled(right.constant)
        raise NonlinearExpressionError(f"product of variables in {expr}")
    if isinstance(expr, Div):
        right = expr.rhs.linear_form()
        if right.coeffs:
            raise NonlinearExpressionError(f"variable denominator in {expr}")
        if right.constant == 0:
            raise NonlinearExpressionError(f"constant zero denominator in {expr}")
        return expr.lhs.linear_form().scaled(Fraction(1) / right.constant)
    if isinstance(expr, Pow):
        base = expr.base.linear_form()
        if base.coeffs and expr.exponent > 1:
            raise NonlinearExpressionError(f"power of a variable in {expr}")
        if expr.exponent == 0:
            return LinearForm({}, Fraction(1))
        if expr.exponent == 1:
            return base
        return LinearForm({}, base.constant**expr.exponent)
    if isinstance(expr, Call):
        arg = expr.arg.linear_form()
        if arg.coeffs:
            raise NonlinearExpressionError(f"transcendental function of a variable in {expr}")
        value = FUNCTION_TABLE[expr.function](float(arg.constant))
        return LinearForm({}, _to_fraction(value))
    raise NonlinearExpressionError(f"unsupported node {type(expr).__name__}")


# ----------------------------------------------------------------------
# Simplification
# ----------------------------------------------------------------------
def _simplify(expr: Expr) -> Expr:
    # Recursion goes through the memoized ``simplify`` accessor: shared
    # subterms simplify once and the rewritten DAG keeps its sharing.
    if isinstance(expr, (Const, Var)):
        return expr
    if isinstance(expr, Neg):
        arg = expr.arg.simplify()
        if isinstance(arg, Const):
            return Const(-arg.value)
        if isinstance(arg, Neg):
            return arg.arg
        return Neg(arg)
    if isinstance(expr, Pow):
        base = expr.base.simplify()
        if expr.exponent == 0:
            return Const(1)
        if expr.exponent == 1:
            return base
        if isinstance(base, Const):
            try:
                return Const(base.value**expr.exponent)
            except OverflowError:
                return Pow(base, expr.exponent)
        return Pow(base, expr.exponent)
    if isinstance(expr, Call):
        arg = expr.arg.simplify()
        if isinstance(arg, Const):
            try:
                return Const(FUNCTION_TABLE[expr.function](float(arg.value)))
            except (ValueError, OverflowError):
                return Call(expr.function, arg)
        return Call(expr.function, arg)
    if isinstance(expr, _Binary):
        lhs, rhs = expr.lhs.simplify(), expr.rhs.simplify()
        if isinstance(lhs, Const) and isinstance(rhs, Const):
            try:
                folded = type(expr)(lhs, rhs).evaluate({})
            except EvaluationError:
                return type(expr)(lhs, rhs)
            return Const(folded)
        if isinstance(expr, Add):
            if isinstance(lhs, Const) and float(lhs.value) == 0:
                return rhs
            if isinstance(rhs, Const) and float(rhs.value) == 0:
                return lhs
        elif isinstance(expr, Sub):
            if isinstance(rhs, Const) and float(rhs.value) == 0:
                return lhs
            if lhs == rhs:
                return Const(0)
        elif isinstance(expr, Mul):
            for side, other in ((lhs, rhs), (rhs, lhs)):
                if isinstance(side, Const):
                    if float(side.value) == 0:
                        return Const(0)
                    if float(side.value) == 1:
                        return other
        elif isinstance(expr, Div):
            if isinstance(rhs, Const) and float(rhs.value) == 1:
                return lhs
            if isinstance(lhs, Const) and float(lhs.value) == 0:
                if not isinstance(rhs, Const) or float(rhs.value) != 0:
                    return Const(0)
        return type(expr)(lhs, rhs)
    raise TypeError(f"unknown expression node {type(expr).__name__}")


# ----------------------------------------------------------------------
# Constraints
# ----------------------------------------------------------------------
class Relation(enum.Enum):
    """Comparison operators from the paper's grammar: ``< > <= >= =``."""

    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "="

    @staticmethod
    def from_symbol(symbol: str) -> "Relation":
        normalized = {"==": "="}.get(symbol, symbol)
        for member in Relation:
            if member.value == normalized:
                return member
        raise ExprParseError(f"unknown relation {symbol!r}")

    def flipped(self) -> "Relation":
        """The relation with operands swapped (``a < b``  ==  ``b > a``)."""
        return {
            Relation.LT: Relation.GT,
            Relation.GT: Relation.LT,
            Relation.LE: Relation.GE,
            Relation.GE: Relation.LE,
            Relation.EQ: Relation.EQ,
        }[self]

    def holds(self, lhs: float, rhs: float, tolerance: float = 0.0) -> bool:
        """Numeric check with an absolute tolerance for float candidates."""
        if self is Relation.LT:
            return lhs < rhs + tolerance
        if self is Relation.GT:
            return lhs > rhs - tolerance
        if self is Relation.LE:
            return lhs <= rhs + tolerance
        if self is Relation.GE:
            return lhs >= rhs - tolerance
        return abs(lhs - rhs) <= tolerance


class Constraint:
    """An atomic arithmetic constraint ``lhs REL rhs``.

    The negation of an equality is the disjunction ``lhs < rhs  or  lhs > rhs``
    (paper, Sec. 1); :meth:`negated_alternatives` returns that case split so
    the control loop can enumerate it.

    Like :class:`Expr`, instances are treated as immutable and memoize their
    derived properties (hash, variables, normalized expression, linear form,
    canonical fingerprint) in write-once cache slots.
    """

    __slots__ = ("lhs", "relation", "rhs", "_hash", "_vars", "_norm", "_lform", "_digest")

    def __init__(self, lhs: Union[Expr, Number], relation: Relation, rhs: Union[Expr, Number]):
        self.lhs = _coerce(lhs)
        self.relation = relation
        self.rhs = _coerce(rhs)

    def __reduce__(self):
        # Rebuild through the constructor: cache slots stay process-local
        # and the operand Exprs re-intern in the receiving process.
        return (Constraint, (self.lhs, self.relation, self.rhs))

    # -- analysis ---------------------------------------------------------
    def variables(self) -> "frozenset[str]":
        cached = getattr(self, "_vars", None)
        if cached is None:
            cached = self.lhs.variables() | self.rhs.variables()
            self._vars = cached
        return cached

    def is_linear(self) -> bool:
        try:
            self.linear_form()
            return True
        except NonlinearExpressionError:
            return False

    def normalized_expr(self) -> Expr:
        """The difference ``lhs - rhs``, so the constraint reads ``expr REL 0``."""
        cached = getattr(self, "_norm", None)
        if cached is None:
            cached = Sub(self.lhs, self.rhs).simplify()
            self._norm = cached
        return cached

    def linear_form(self) -> LinearForm:
        """Linear form of ``lhs - rhs`` (raises for nonlinear constraints)."""
        cached = getattr(self, "_lform", None)
        if cached is None:
            try:
                cached = self.normalized_expr().linear_form()
            except NonlinearExpressionError as error:
                self._lform = ("nonlinear", str(error))
                raise
            self._lform = cached
        elif isinstance(cached, tuple):
            raise NonlinearExpressionError(cached[1])
        return cached

    def fingerprint(self) -> str:
        """Canonical content hash (hex): orientation-independent and stable.

        Constraints are normalized to ``expr REL 0`` with ``>``/``>=``
        rewritten to ``<``/``<=`` by negating the expression, so
        ``a < b``, ``b > a`` and ``a - b < 0`` share one fingerprint;
        equalities digest both orientations and sort them.
        """
        cached = getattr(self, "_digest", None)
        if cached is None:
            expr = self.normalized_expr()
            relation = self.relation
            if relation in (Relation.GT, Relation.GE):
                digest = Neg(expr)._digest_bytes()
                relation = Relation.LT if relation is Relation.GT else Relation.LE
                payload = b"R" + relation.value.encode() + digest
            elif relation is Relation.EQ:
                pair = sorted((expr._digest_bytes(), Neg(expr)._digest_bytes()))
                payload = b"R=" + pair[0] + pair[1]
            else:
                payload = b"R" + relation.value.encode() + expr._digest_bytes()
            cached = _blake(payload).hex()
            self._digest = cached
        return cached

    def negated_alternatives(self) -> List["Constraint"]:
        """Constraints whose disjunction is the negation of this constraint."""
        if self.relation is Relation.EQ:
            return [
                Constraint(self.lhs, Relation.LT, self.rhs),
                Constraint(self.lhs, Relation.GT, self.rhs),
            ]
        opposite = {
            Relation.LT: Relation.GE,
            Relation.LE: Relation.GT,
            Relation.GT: Relation.LE,
            Relation.GE: Relation.LT,
        }[self.relation]
        return [Constraint(self.lhs, opposite, self.rhs)]

    def evaluate(self, env: Mapping[str, Number], tolerance: float = 0.0) -> bool:
        """Check the constraint at a concrete point."""
        return self.relation.holds(self.lhs.evaluate(env), self.rhs.evaluate(env), tolerance)

    def substitute(self, mapping: Mapping[str, Expr]) -> "Constraint":
        return Constraint(self.lhs.substitute(mapping), self.relation, self.rhs.substitute(mapping))

    def __str__(self) -> str:
        return f"{self.lhs} {self.relation.value} {self.rhs}"

    def __repr__(self) -> str:
        return f"Constraint({self!s})"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Constraint)
            and other.lhs == self.lhs
            and other.relation is self.relation
            and other.rhs == self.rhs
        )

    def __hash__(self) -> int:
        cached = getattr(self, "_hash", None)
        if cached is None:
            cached = hash((self.lhs, self.relation, self.rhs))
            self._hash = cached
        return cached


# ----------------------------------------------------------------------
# Parser (textual syntax of Fig. 2)
# ----------------------------------------------------------------------
_COMPARISONS = ("<=", ">=", "==", "<", ">", "=")


class _Tokenizer:
    """Splits an expression string into tokens; whitespace-insensitive."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[str] = []
        self._scan()
        self.index = 0

    def _scan(self) -> None:
        text, i, n = self.text, 0, len(self.text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
                j = i
                seen_dot = False
                while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                    seen_dot = seen_dot or text[j] == "."
                    j += 1
                # scientific notation
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        while k < n and text[k].isdigit():
                            k += 1
                        j = k
                self.tokens.append(text[i:j])
                i = j
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] in "_."):
                    j += 1
                self.tokens.append(text[i:j])
                i = j
                continue
            two = text[i : i + 2]
            if two in ("<=", ">=", "=="):
                self.tokens.append(two)
                i += 2
                continue
            if ch in "+-*/()<>=^":
                self.tokens.append(ch)
                i += 1
                continue
            raise ExprParseError(f"unexpected character {ch!r} at offset {i} in {self.text!r}")

    def peek(self) -> Optional[str]:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise ExprParseError(f"unexpected end of input in {self.text!r}")
        self.index += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise ExprParseError(f"expected {token!r}, got {got!r} in {self.text!r}")

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_sum(tok: _Tokenizer) -> Expr:
    expr = _parse_term(tok)
    while tok.peek() in ("+", "-"):
        op = tok.next()
        rhs = _parse_term(tok)
        expr = Add(expr, rhs) if op == "+" else Sub(expr, rhs)
    return expr


def _parse_term(tok: _Tokenizer) -> Expr:
    expr = _parse_power(tok)
    while tok.peek() in ("*", "/"):
        op = tok.next()
        rhs = _parse_power(tok)
        expr = Mul(expr, rhs) if op == "*" else Div(expr, rhs)
    return expr


def _parse_power(tok: _Tokenizer) -> Expr:
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.next()
        exponent_token = tok.next()
        try:
            exponent = int(exponent_token)
        except ValueError:
            raise ExprParseError(f"power exponent must be an integer literal, got {exponent_token!r}")
        return Pow(base, exponent)
    return base


def _parse_atom(tok: _Tokenizer) -> Expr:
    token = tok.next()
    if token == "(":
        inner = _parse_sum(tok)
        tok.expect(")")
        return inner
    if token == "-":
        return Neg(_parse_power(tok))
    if token == "+":
        return _parse_power(tok)
    first = token[0]
    if first.isdigit() or first == ".":
        if any(c in token for c in ".eE"):
            return Const(float(token))
        return Const(int(token))
    if first.isalpha() or first == "_":
        if token in FUNCTION_TABLE and tok.peek() == "(":
            tok.next()
            arg = _parse_sum(tok)
            tok.expect(")")
            return Call(token, arg)
        return Var(token)
    raise ExprParseError(f"unexpected token {token!r}")


def parse_expression(text: str) -> Expr:
    """Parse an arithmetic expression such as ``a * x + 3.5 / (4 - y)``."""
    tok = _Tokenizer(text)
    expr = _parse_sum(tok)
    if not tok.done():
        raise ExprParseError(f"trailing input {tok.peek()!r} in {text!r}")
    return expr


def parse_constraint(text: str) -> Constraint:
    """Parse a constraint such as ``2*i + j < 10`` (exactly one comparison)."""
    tok = _Tokenizer(text)
    lhs = _parse_sum(tok)
    symbol = tok.next()
    if symbol not in _COMPARISONS:
        raise ExprParseError(f"expected a comparison operator, got {symbol!r} in {text!r}")
    rhs = _parse_sum(tok)
    if not tok.done():
        raise ExprParseError(f"trailing input {tok.peek()!r} in {text!r}")
    return Constraint(lhs, Relation.from_symbol(symbol), rhs)
