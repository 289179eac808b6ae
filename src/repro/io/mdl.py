"""A textual model file format for the Simulink-like substrate.

Real MATLAB models live in ``.mdl`` files; this module provides the
equivalent for our substrate, so models can be stored, versioned, and fed
to the command-line tool.  The format is line-oriented::

    model <name>
    block <Kind> <block-name> [parameters...]
    connect <source-block> <destination-block> <input-port>
    end

Kind-specific parameters mirror each block's constructor:

* ``Inport name <low|-> <high|->``       (range bounds; ``-`` = unbounded)
* ``BoolInport name``
* ``Outport name <double|boolean>``
* ``Constant name <value>``
* ``Sum name <signs>``                   e.g. ``+-+``
* ``Product name <ops>``                 e.g. ``*/``
* ``Gain name <factor>``
* ``Abs name`` / ``Sqrt name``
* ``Trig name <sin|cos|tan|exp|log|tanh>``
* ``RelationalOperator name <op>``       ``< <= > >= ==``
* ``LogicalOperator name <OP> <n>``      ``AND OR NOT XOR NAND NOR``
* ``Saturation name <low> <high>``
* ``Switch name``

``#`` starts a comment.  Round-trips with :func:`format_model`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from ..simulink.blocks import (
    Abs,
    Bias,
    Block,
    BoolInport,
    Constant,
    DeadZone,
    Gain,
    Inport,
    LogicalOperator,
    MinMax,
    Outport,
    Product,
    RelationalOperator,
    Saturation,
    SIGNAL_ARITH,
    SIGNAL_BOOL,
    Sqrt,
    Sum,
    Switch,
    Trig,
    UnaryMinus,
)
from ..simulink.model import SimulinkModel

__all__ = ["MdlError", "parse_model", "parse_model_file", "format_model", "write_model"]


class MdlError(Exception):
    """Malformed model text."""


def _optional_float(token: str) -> Optional[float]:
    return None if token == "-" else float(token)


def _build_inport(name: str, params: Sequence[str]) -> Block:
    if len(params) not in (0, 2):
        raise MdlError(f"Inport {name!r} takes zero or two range parameters")
    if params:
        return Inport(name, _optional_float(params[0]), _optional_float(params[1]))
    return Inport(name)


def _build_outport(name: str, params: Sequence[str]) -> Block:
    if not params:
        return Outport(name)
    if params[0] not in ("double", "boolean"):
        raise MdlError(f"Outport {name!r}: unknown signal type {params[0]!r}")
    return Outport(name, SIGNAL_BOOL if params[0] == "boolean" else SIGNAL_ARITH)


def _one_param(factory: Callable[[str, str], Block]) -> Callable[[str, Sequence[str]], Block]:
    def build(name: str, params: Sequence[str]) -> Block:
        if len(params) != 1:
            raise MdlError(f"block {name!r} takes exactly one parameter")
        return factory(name, params[0])

    return build


_BUILDERS: Dict[str, Callable[[str, Sequence[str]], Block]] = {
    "Inport": _build_inport,
    "BoolInport": lambda name, params: BoolInport(name),
    "Outport": _build_outport,
    "Constant": _one_param(lambda name, v: Constant(name, float(v))),
    "Sum": _one_param(lambda name, signs: Sum(name, signs)),
    "Product": _one_param(lambda name, ops: Product(name, ops)),
    "Gain": _one_param(lambda name, v: Gain(name, float(v))),
    "Abs": lambda name, params: Abs(name),
    "Sqrt": lambda name, params: Sqrt(name),
    "Trig": _one_param(lambda name, fn: Trig(name, fn)),
    "RelationalOperator": _one_param(lambda name, op: RelationalOperator(name, op)),
    "Switch": lambda name, params: Switch(name),
    "Bias": _one_param(lambda name, v: Bias(name, float(v))),
    "UnaryMinus": lambda name, params: UnaryMinus(name),
}


def _build_minmax(name: str, params: Sequence[str]) -> Block:
    if not 1 <= len(params) <= 2:
        raise MdlError(f"MinMax {name!r} takes mode and optional arity")
    arity = int(params[1]) if len(params) == 2 else 2
    return MinMax(name, params[0], arity)


def _build_deadzone(name: str, params: Sequence[str]) -> Block:
    if len(params) != 2:
        raise MdlError(f"DeadZone {name!r} takes start and end")
    return DeadZone(name, float(params[0]), float(params[1]))


_BUILDERS["MinMax"] = _build_minmax
_BUILDERS["DeadZone"] = _build_deadzone


def _build_logical(name: str, params: Sequence[str]) -> Block:
    if not 1 <= len(params) <= 2:
        raise MdlError(f"LogicalOperator {name!r} takes op and optional arity")
    arity = int(params[1]) if len(params) == 2 else 2
    return LogicalOperator(name, params[0], arity)


def _build_saturation(name: str, params: Sequence[str]) -> Block:
    if len(params) != 2:
        raise MdlError(f"Saturation {name!r} takes low and high")
    return Saturation(name, float(params[0]), float(params[1]))


_BUILDERS["LogicalOperator"] = _build_logical
_BUILDERS["Saturation"] = _build_saturation


def parse_model(text: str) -> SimulinkModel:
    """Parse the textual format into a validated model."""
    model: Optional[SimulinkModel] = None
    ended = False
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ended:
            raise MdlError(f"line {line_number}: content after 'end'")
        tokens = line.split()
        keyword = tokens[0]
        if keyword == "model":
            if model is not None:
                raise MdlError(f"line {line_number}: duplicate model header")
            if len(tokens) != 2:
                raise MdlError(f"line {line_number}: model header needs a name")
            model = SimulinkModel(tokens[1])
        elif keyword == "block":
            if model is None:
                raise MdlError(f"line {line_number}: 'block' before 'model'")
            if len(tokens) < 3:
                raise MdlError(f"line {line_number}: block needs kind and name")
            kind, name, params = tokens[1], tokens[2], tokens[3:]
            builder = _BUILDERS.get(kind)
            if builder is None:
                raise MdlError(
                    f"line {line_number}: unknown block kind {kind!r} "
                    f"(known: {', '.join(sorted(_BUILDERS))})"
                )
            try:
                model.add(builder(name, params))
            except (ValueError, MdlError) as exc:
                raise MdlError(f"line {line_number}: {exc}") from exc
            except Exception as exc:
                raise MdlError(f"line {line_number}: bad block parameters ({exc})") from exc
        elif keyword == "connect":
            if model is None:
                raise MdlError(f"line {line_number}: 'connect' before 'model'")
            if len(tokens) != 4:
                raise MdlError(f"line {line_number}: connect needs source, dest, port")
            try:
                model.connect(tokens[1], tokens[2], int(tokens[3]))
            except Exception as exc:
                raise MdlError(f"line {line_number}: {exc}") from exc
        elif keyword == "end":
            ended = True
        else:
            raise MdlError(f"line {line_number}: unknown keyword {keyword!r}")
    if model is None:
        raise MdlError("input has no 'model' header")
    model.validate()
    return model


def parse_model_file(path: str) -> SimulinkModel:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model(handle.read())


def format_model(model: SimulinkModel) -> str:
    """Serialize a model; round-trips with :func:`parse_model`."""
    lines: List[str] = [f"model {model.name}"]
    for name in sorted(model.blocks):
        block = model.blocks[name]
        if isinstance(block, Outport):
            params = "boolean" if block.output_type == SIGNAL_BOOL else "double"
        else:
            params = block.parameter_text()
        entry = f"block {block.kind} {block.name}"
        if params:
            entry += f" {params}"
        lines.append(entry)
    for connection in model.connections:
        lines.append(
            f"connect {connection.source} {connection.destination} {connection.port}"
        )
    lines.append("end")
    return "\n".join(lines) + "\n"


def write_model(model: SimulinkModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_model(model))
