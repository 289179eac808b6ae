"""Block library for the MATLAB/Simulink-like modeling substrate.

The paper's front end consumes MATLAB/Simulink models such as Fig. 1: a
dataflow diagram of arithmetic blocks (constants, sums, products, divisions)
feeding relational operators, whose Boolean outputs combine through logical
gates into an output port.  MATLAB is proprietary, so this substrate
re-implements the block vocabulary the paper's models use; the conversion
pipeline (:mod:`repro.simulink.convert`) then exercises the same code path
the authors describe (model -> LUSTRE text -> multi-domain constraints).

Each block supports two evaluation modes:

* ``compute(inputs)`` — numeric/Boolean simulation,
* ``symbolic(inputs)`` — builds an :class:`~repro.core.expr.Expr` or
  :class:`~repro.sat.tseitin.BoolExpr`, used by the converter.

Blocks that are simulation-only (``Saturation``, ``Switch``) raise
:class:`BlockNotConvertibleError` in symbolic mode; this mirrors the
real-world restriction the paper notes for SCADE-style verification ("only
a specific subset of a model may be validated").
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Union

from ..core.expr import (
    Add,
    Call,
    Const,
    Constraint,
    Div,
    Expr,
    Mul,
    Neg,
    Relation,
    Sub,
    Var,
)
from ..sat.tseitin import BAnd, BNot, BoolExpr, BOr, BVar, BXor

__all__ = [
    "BlockError",
    "BlockNotConvertibleError",
    "Block",
    "Inport",
    "BoolInport",
    "Outport",
    "Constant",
    "Sum",
    "Product",
    "Gain",
    "Abs",
    "Trig",
    "Sqrt",
    "RelationalOperator",
    "LogicalOperator",
    "Bias",
    "UnaryMinus",
    "MinMax",
    "DeadZone",
    "Saturation",
    "Switch",
    "SIGNAL_ARITH",
    "SIGNAL_BOOL",
]

#: Signal type tags.
SIGNAL_ARITH = "double"
SIGNAL_BOOL = "boolean"

Value = Union[float, bool]
Symbolic = Union[Expr, BoolExpr]


class BlockError(Exception):
    """Invalid block construction or wiring."""


class BlockNotConvertibleError(BlockError):
    """The block has no symbolic (constraint) semantics."""


class Block:
    """Base class: a named block with typed input and output ports."""

    #: block-type string used in the textual model format
    kind = "Block"

    def __init__(self, name: str, num_inputs: int, input_type: str, output_type: str):
        if not name:
            raise BlockError("block name must be non-empty")
        self.name = name
        self.num_inputs = num_inputs
        self.input_type = input_type
        self.output_type = output_type

    def compute(self, inputs: Sequence[Value]) -> Value:
        raise NotImplementedError

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        raise NotImplementedError

    def _check_arity(self, inputs: Sequence) -> None:
        if len(inputs) != self.num_inputs:
            raise BlockError(
                f"{self.kind} {self.name!r} expects {self.num_inputs} inputs, got {len(inputs)}"
            )

    def parameter_text(self) -> str:
        """Extra parameters serialized in the textual model format."""
        return ""

    def __repr__(self) -> str:
        return f"{self.kind}({self.name!r})"


class Inport(Block):
    """A model input carrying an arithmetic signal (a sensor, in Sec. 3)."""

    kind = "Inport"

    def __init__(self, name: str, low: Optional[float] = None, high: Optional[float] = None):
        super().__init__(name, 0, SIGNAL_ARITH, SIGNAL_ARITH)
        if low is not None and high is not None and low > high:
            raise BlockError(f"inport {name!r} has empty range [{low}, {high}]")
        self.low = low
        self.high = high

    def compute(self, inputs: Sequence[Value]) -> Value:
        raise BlockError("Inport values come from the simulation environment")

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        return Var(self.name)

    def parameter_text(self) -> str:
        low = "-" if self.low is None else repr(self.low)
        high = "-" if self.high is None else repr(self.high)
        return f"{low} {high}"


class BoolInport(Block):
    """A model input carrying a Boolean signal (a status flag)."""

    kind = "BoolInport"

    def __init__(self, name: str):
        super().__init__(name, 0, SIGNAL_BOOL, SIGNAL_BOOL)

    def compute(self, inputs: Sequence[Value]) -> Value:
        raise BlockError("BoolInport values come from the simulation environment")

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        return BVar(self.name)


class Outport(Block):
    """A model output; passes its single input through."""

    kind = "Outport"

    def __init__(self, name: str, signal_type: str = SIGNAL_BOOL):
        super().__init__(name, 1, signal_type, signal_type)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return inputs[0]

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        return inputs[0]


class Constant(Block):
    """A constant source."""

    kind = "Constant"

    def __init__(self, name: str, value: float):
        super().__init__(name, 0, SIGNAL_ARITH, SIGNAL_ARITH)
        self.value = float(value)

    def compute(self, inputs: Sequence[Value]) -> Value:
        return self.value

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        return Const(self.value)

    def parameter_text(self) -> str:
        return repr(self.value)


class Sum(Block):
    """N-ary add/subtract; ``signs`` is a string like ``"+-"`` or ``"++-"``."""

    kind = "Sum"

    def __init__(self, name: str, signs: str = "++"):
        if not signs or any(s not in "+-" for s in signs):
            raise BlockError(f"bad Sum signs {signs!r}")
        super().__init__(name, len(signs), SIGNAL_ARITH, SIGNAL_ARITH)
        self.signs = signs

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        total = 0.0
        for sign, value in zip(self.signs, inputs):
            total += float(value) if sign == "+" else -float(value)
        return total

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        result: Optional[Expr] = None
        for sign, value in zip(self.signs, inputs):
            assert isinstance(value, Expr), "Sum inputs must be arithmetic"
            if result is None:
                result = value if sign == "+" else Neg(value)
            else:
                result = Add(result, value) if sign == "+" else Sub(result, value)
        assert result is not None
        return result

    def parameter_text(self) -> str:
        return self.signs


class Product(Block):
    """N-ary multiply/divide; ``ops`` is a string like ``"**"`` or ``"*/"``."""

    kind = "Product"

    def __init__(self, name: str, ops: str = "**"):
        if not ops or any(o not in "*/" for o in ops):
            raise BlockError(f"bad Product ops {ops!r}")
        if ops[0] == "/":
            ops = "*" + ops[1:]  # Simulink semantics: first op is reciprocal of 1
        super().__init__(name, len(ops), SIGNAL_ARITH, SIGNAL_ARITH)
        self.ops = ops

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        total = 1.0
        for op, value in zip(self.ops, inputs):
            if op == "*":
                total *= float(value)
            else:
                total /= float(value)
        return total

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        result: Optional[Expr] = None
        for op, value in zip(self.ops, inputs):
            assert isinstance(value, Expr), "Product inputs must be arithmetic"
            if result is None:
                result = value if op == "*" else Div(Const(1), value)
            else:
                result = Mul(result, value) if op == "*" else Div(result, value)
        assert result is not None
        return result

    def parameter_text(self) -> str:
        return self.ops


class Gain(Block):
    """Multiply by a constant."""

    kind = "Gain"

    def __init__(self, name: str, gain: float):
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)
        self.gain = float(gain)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return self.gain * float(inputs[0])

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Mul(Const(self.gain), inputs[0])

    def parameter_text(self) -> str:
        return repr(self.gain)


class Abs(Block):
    """Absolute value."""

    kind = "Abs"

    def __init__(self, name: str):
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return abs(float(inputs[0]))

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Call("abs", inputs[0])


class Trig(Block):
    """Trigonometric / transcendental function block."""

    kind = "Trig"
    _FUNCTIONS = ("sin", "cos", "tan", "exp", "log", "tanh")

    def __init__(self, name: str, function: str):
        if function not in self._FUNCTIONS:
            raise BlockError(f"unsupported Trig function {function!r}")
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)
        self.function = function

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return getattr(math, self.function)(float(inputs[0]))

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Call(self.function, inputs[0])

    def parameter_text(self) -> str:
        return self.function


class Sqrt(Block):
    """Square root."""

    kind = "Sqrt"

    def __init__(self, name: str):
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return math.sqrt(float(inputs[0]))

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Call("sqrt", inputs[0])


class RelationalOperator(Block):
    """Arithmetic comparison: two arithmetic inputs, Boolean output.

    This is the block that becomes a :class:`ComparisonGate` / an arithmetic
    constraint definition after conversion.
    """

    kind = "RelationalOperator"
    _OPS = {"<": Relation.LT, "<=": Relation.LE, ">": Relation.GT, ">=": Relation.GE, "==": Relation.EQ}

    def __init__(self, name: str, op: str):
        if op not in self._OPS:
            raise BlockError(f"unsupported relational operator {op!r}")
        super().__init__(name, 2, SIGNAL_ARITH, SIGNAL_BOOL)
        self.op = op

    @property
    def relation(self) -> Relation:
        return self._OPS[self.op]

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return self.relation.holds(float(inputs[0]), float(inputs[1]))

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        lhs, rhs = inputs
        assert isinstance(lhs, Expr) and isinstance(rhs, Expr)
        # Returned as an opaque Boolean atom; the converter recognizes the
        # sentinel prefix and recovers the constraint.
        raise BlockNotConvertibleError(
            "RelationalOperator.symbolic is handled by the converter directly"
        )

    def constraint(self, lhs: Expr, rhs: Expr) -> Constraint:
        return Constraint(lhs, self.relation, rhs)

    def parameter_text(self) -> str:
        return self.op


class LogicalOperator(Block):
    """Boolean gate: AND / OR / NOT / XOR / NAND / NOR over Boolean signals."""

    kind = "LogicalOperator"
    _OPS = ("AND", "OR", "NOT", "XOR", "NAND", "NOR")

    def __init__(self, name: str, op: str, num_inputs: int = 2):
        op = op.upper()
        if op not in self._OPS:
            raise BlockError(f"unsupported logical operator {op!r}")
        if op == "NOT":
            num_inputs = 1
        elif num_inputs < 2:
            raise BlockError(f"{op} needs at least two inputs")
        super().__init__(name, num_inputs, SIGNAL_BOOL, SIGNAL_BOOL)
        self.op = op

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        bits = [bool(v) for v in inputs]
        if self.op == "NOT":
            return not bits[0]
        if self.op == "AND":
            return all(bits)
        if self.op == "OR":
            return any(bits)
        if self.op == "NAND":
            return not all(bits)
        if self.op == "NOR":
            return not any(bits)
        result = False
        for bit in bits:
            result ^= bit
        return result

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        parts = list(inputs)
        for part in parts:
            assert isinstance(part, BoolExpr), "LogicalOperator inputs must be Boolean"
        if self.op == "NOT":
            return BNot(parts[0])
        if self.op == "AND":
            return BAnd(*parts)
        if self.op == "OR":
            return BOr(*parts)
        if self.op == "NAND":
            return BNot(BAnd(*parts))
        if self.op == "NOR":
            return BNot(BOr(*parts))
        return BXor(*parts)

    def parameter_text(self) -> str:
        return f"{self.op} {self.num_inputs}"


class Bias(Block):
    """Add a constant offset: ``out = in + bias``."""

    kind = "Bias"

    def __init__(self, name: str, bias: float):
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)
        self.bias = float(bias)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return float(inputs[0]) + self.bias

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Add(inputs[0], Const(self.bias))

    def parameter_text(self) -> str:
        return repr(self.bias)


class UnaryMinus(Block):
    """Sign inversion: ``out = -in``."""

    kind = "UnaryMinus"

    def __init__(self, name: str):
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return -float(inputs[0])

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        self._check_arity(inputs)
        assert isinstance(inputs[0], Expr)
        return Neg(inputs[0])


class MinMax(Block):
    """N-ary minimum or maximum.  Simulation-only (piecewise semantics)."""

    kind = "MinMax"

    def __init__(self, name: str, mode: str = "min", num_inputs: int = 2):
        if mode not in ("min", "max"):
            raise BlockError(f"MinMax mode must be 'min' or 'max', got {mode!r}")
        if num_inputs < 2:
            raise BlockError("MinMax needs at least two inputs")
        super().__init__(name, num_inputs, SIGNAL_ARITH, SIGNAL_ARITH)
        self.mode = mode

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        values = [float(v) for v in inputs]
        return min(values) if self.mode == "min" else max(values)

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        raise BlockNotConvertibleError(
            f"MinMax block {self.name!r} cannot be converted to constraints"
        )

    def parameter_text(self) -> str:
        return f"{self.mode} {self.num_inputs}"


class DeadZone(Block):
    """Zero output inside [start, end], offset-shifted outside.

    Simulation-only, like :class:`Saturation`.
    """

    kind = "DeadZone"

    def __init__(self, name: str, start: float, end: float):
        if start > end:
            raise BlockError(f"dead zone bounds reversed: [{start}, {end}]")
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)
        self.start = float(start)
        self.end = float(end)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        value = float(inputs[0])
        if value < self.start:
            return value - self.start
        if value > self.end:
            return value - self.end
        return 0.0

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        raise BlockNotConvertibleError(
            f"DeadZone block {self.name!r} cannot be converted to constraints"
        )

    def parameter_text(self) -> str:
        return f"{self.start!r} {self.end!r}"


class Saturation(Block):
    """Clamp to [low, high].  Simulation-only (no pure-expression semantics)."""

    kind = "Saturation"

    def __init__(self, name: str, low: float, high: float):
        if low > high:
            raise BlockError(f"saturation bounds reversed: [{low}, {high}]")
        super().__init__(name, 1, SIGNAL_ARITH, SIGNAL_ARITH)
        self.low = float(low)
        self.high = float(high)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return min(max(float(inputs[0]), self.low), self.high)

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        raise BlockNotConvertibleError(
            f"Saturation block {self.name!r} cannot be converted to constraints; "
            "linearize or remove it before verification (cf. Sec. 1.2)"
        )

    def parameter_text(self) -> str:
        return f"{self.low!r} {self.high!r}"


class Switch(Block):
    """``output = input0 if control else input2`` (control is input1).

    Simulation-only, like :class:`Saturation`.
    """

    kind = "Switch"

    def __init__(self, name: str):
        super().__init__(name, 3, SIGNAL_ARITH, SIGNAL_ARITH)

    def compute(self, inputs: Sequence[Value]) -> Value:
        self._check_arity(inputs)
        return float(inputs[0]) if bool(inputs[1]) else float(inputs[2])

    def symbolic(self, inputs: Sequence[Symbolic]) -> Symbolic:
        raise BlockNotConvertibleError(
            f"Switch block {self.name!r} cannot be converted to constraints"
        )
