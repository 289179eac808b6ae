"""Simulink-like model graphs: blocks, wiring, validation, simulation.

A :class:`SimulinkModel` is a directed acyclic dataflow graph.  Every block
input port must be driven by exactly one source block; outputs may fan out.
The model supports numeric simulation (used by the tests to cross-validate
the constraint conversion: for random inputs, the converted formula's truth
must equal the simulated output) and symbolic signal extraction (used by the
converter and the LUSTRE pretty-printer).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.expr import Constraint, Expr
from ..sat.tseitin import BVar
from .blocks import (
    Block,
    BlockError,
    BoolInport,
    Inport,
    Outport,
    RelationalOperator,
    Symbolic,
    Value,
)

__all__ = ["Connection", "SimulinkModel", "ModelValidationError"]


class ModelValidationError(BlockError):
    """The model graph violates a structural rule."""


class Connection:
    """A wire: (source block output) -> (destination block, input port)."""

    __slots__ = ("source", "destination", "port")

    def __init__(self, source: str, destination: str, port: int):
        self.source = source
        self.destination = destination
        self.port = port

    def __repr__(self) -> str:
        return f"{self.source} -> {self.destination}[{self.port}]"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Connection)
            and other.source == self.source
            and other.destination == self.destination
            and other.port == self.port
        )

    def __hash__(self) -> int:
        return hash((self.source, self.destination, self.port))


class SimulinkModel:
    """A named block-diagram model."""

    def __init__(self, name: str):
        self.name = name
        self.blocks: Dict[str, Block] = {}
        self.connections: List[Connection] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, block: Block) -> Block:
        """Add a block; names must be unique within the model."""
        if block.name in self.blocks:
            raise ModelValidationError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        return block

    def connect(self, source: str, destination: str, port: int = 0) -> None:
        """Wire ``source``'s output into ``destination``'s input ``port``."""
        if source not in self.blocks:
            raise ModelValidationError(f"unknown source block {source!r}")
        if destination not in self.blocks:
            raise ModelValidationError(f"unknown destination block {destination!r}")
        dst = self.blocks[destination]
        if not 0 <= port < dst.num_inputs:
            raise ModelValidationError(
                f"{destination!r} has {dst.num_inputs} input ports; port {port} is invalid"
            )
        for existing in self.connections:
            if existing.destination == destination and existing.port == port:
                raise ModelValidationError(
                    f"input port {port} of {destination!r} is already driven by "
                    f"{existing.source!r}"
                )
        self.connections.append(Connection(source, destination, port))

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def inports(self) -> List[Union[Inport, BoolInport]]:
        return [b for b in self.blocks.values() if isinstance(b, (Inport, BoolInport))]

    def outports(self) -> List[Outport]:
        return [b for b in self.blocks.values() if isinstance(b, Outport)]

    def relational_blocks(self) -> List[RelationalOperator]:
        return [b for b in self.blocks.values() if isinstance(b, RelationalOperator)]

    def driver_of(self, destination: str, port: int) -> Optional[str]:
        for connection in self.connections:
            if connection.destination == destination and connection.port == port:
                return connection.source
        return None

    def validate(self) -> None:
        """Check single-driver completeness and acyclicity."""
        for block in self.blocks.values():
            for port in range(block.num_inputs):
                if self.driver_of(block.name, port) is None:
                    raise ModelValidationError(
                        f"input port {port} of {block.name!r} is not connected"
                    )
        self._topological_order()  # raises on cycles

    def _topological_order(self) -> List[str]:
        incoming: Dict[str, int] = {name: 0 for name in self.blocks}
        successors: Dict[str, List[str]] = {name: [] for name in self.blocks}
        for connection in self.connections:
            incoming[connection.destination] += 1
            successors[connection.source].append(connection.destination)
        ready = sorted(name for name, count in incoming.items() if count == 0)
        order: List[str] = []
        while ready:
            name = ready.pop()
            order.append(name)
            for successor in successors[name]:
                incoming[successor] -= 1
                if incoming[successor] == 0:
                    ready.append(successor)
        if len(order) != len(self.blocks):
            cyclic = sorted(name for name, count in incoming.items() if count > 0)
            raise ModelValidationError(f"model contains an algebraic loop through {cyclic}")
        return order

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, inputs: Mapping[str, Value]) -> Dict[str, Value]:
        """One combinational evaluation: inport values -> outport values."""
        self.validate()
        values: Dict[str, Value] = {}
        for block_name in self._topological_order():
            block = self.blocks[block_name]
            if isinstance(block, (Inport, BoolInport)):
                if block.name not in inputs:
                    raise BlockError(f"no input value supplied for inport {block.name!r}")
                value = inputs[block.name]
                if isinstance(block, Inport):
                    value = float(value)
                    if block.low is not None and value < block.low:
                        raise BlockError(
                            f"input {block.name!r}={value} below its range [{block.low}, {block.high}]"
                        )
                    if block.high is not None and value > block.high:
                        raise BlockError(
                            f"input {block.name!r}={value} above its range [{block.low}, {block.high}]"
                        )
                else:
                    value = bool(value)
                values[block_name] = value
                continue
            block_inputs = [
                values[self.driver_of(block_name, port)]  # type: ignore[index]
                for port in range(block.num_inputs)
            ]
            values[block_name] = block.compute(block_inputs)
        return {outport.name: values[outport.name] for outport in self.outports()}

    # ------------------------------------------------------------------
    # Symbolic signal extraction
    # ------------------------------------------------------------------
    def signal(self, block_name: str) -> Symbolic:
        """Symbolic expression of a block's output signal.

        Relational blocks become Boolean atoms named after the block (their
        arithmetic constraints are recovered via :meth:`relational_constraints`).
        """
        self.validate()
        cache: Dict[str, Symbolic] = {}
        return self._signal(block_name, cache)

    def _signal(self, block_name: str, cache: Dict[str, Symbolic]) -> Symbolic:
        if block_name in cache:
            return cache[block_name]
        block = self.blocks[block_name]
        if isinstance(block, RelationalOperator):
            result: Symbolic = BVar(self._atom_name(block))
        else:
            inputs = [
                self._signal(self.driver_of(block_name, port), cache)  # type: ignore[arg-type]
                for port in range(block.num_inputs)
            ]
            result = block.symbolic(inputs)
        cache[block_name] = result
        return result

    @staticmethod
    def _atom_name(block: RelationalOperator) -> str:
        return f"__rel_{block.name}__"

    def relational_constraints(self) -> Dict[str, Tuple[Constraint, RelationalOperator]]:
        """Atom name -> (arithmetic constraint, originating block)."""
        self.validate()
        cache: Dict[str, Symbolic] = {}
        result: Dict[str, Tuple[Constraint, RelationalOperator]] = {}
        for block in self.relational_blocks():
            lhs = self._signal(self.driver_of(block.name, 0), cache)  # type: ignore[arg-type]
            rhs = self._signal(self.driver_of(block.name, 1), cache)  # type: ignore[arg-type]
            assert isinstance(lhs, Expr) and isinstance(rhs, Expr)
            result[self._atom_name(block)] = (block.constraint(lhs, rhs), block)
        return result

    def __repr__(self) -> str:
        return (
            f"SimulinkModel({self.name!r}, {len(self.blocks)} blocks, "
            f"{len(self.connections)} connections)"
        )
