"""The three-valued logical circuit at the heart of ABsolver (Fig. 5).

"ABSOLVER's core comprises a data structure for modelling an integrated
circuit where arithmetic and Boolean operations are represented as gates
taking either a single (e.g., negation), a pair (e.g., arithmetic
comparison), or an arbitrary number of inputs.  The variables are then seen
as the input pins of a circuit, and the single output pin provides the
formula's truth value, which is either tt, ff, or ? indicating that further
treatment is necessary" (paper, Sec. 4).

In the paper, the circuit is what the solver-interface layer hands to
external solvers, and the control loop reads its output pin to decide
whether another solver must run.  This reproduction hands the solvers the
CNF and the definitions of the :class:`~repro.core.problem.ABProblem`
directly, and its loop builds no gate graph: a candidate whose branch still
holds nonlinear constraints after the linear check is one whose pin reads
``?``, and an accepted model is re-checked by
:meth:`~repro.core.problem.ABProblem.check_model`.  :class:`Circuit` is the
Fig. 5 representation itself: it evaluates any valuation three-valuedly
and renders the graph (:meth:`Circuit.pretty`, :meth:`Circuit.to_dot`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple, Union

from .expr import ARITHMETIC_ERRORS, Constraint
from .problem import ABProblem
from .tristate import FF, TT, UNKNOWN, Tri, tri, tri_all, tri_any

__all__ = [
    "Gate",
    "InputPin",
    "ConstGate",
    "NotGate",
    "AndGate",
    "OrGate",
    "ComparisonGate",
    "Circuit",
]


class Gate:
    """Base class of circuit nodes; evaluation yields a :class:`Tri`."""

    __slots__ = ("gate_id",)
    _counter = itertools.count()

    def __init__(self) -> None:
        self.gate_id = next(Gate._counter)

    def inputs(self) -> Tuple["Gate", ...]:
        raise NotImplementedError

    def evaluate(self, valuation: "CircuitValuation") -> Tri:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}#{self.gate_id}({self.describe()})"


class CircuitValuation:
    """Evaluation context: Boolean pin values plus an optional theory point.

    ``alpha`` maps input-pin names to three-valued truth; pins not mentioned
    are ``?``.  ``theory`` optionally supplies numeric values: a comparison
    gate with a full theory point evaluates numerically, otherwise it falls
    back to ``alpha`` (the gate's associated pin), otherwise ``?``.
    """

    def __init__(
        self,
        alpha: Optional[Mapping[str, Union[Tri, bool, None]]] = None,
        theory: Optional[Mapping[str, float]] = None,
        tolerance: float = 1e-9,
    ):
        self.alpha: Dict[str, Tri] = {
            name: tri(value) for name, value in (alpha or {}).items()
        }
        self.theory = dict(theory or {})
        self.tolerance = tolerance
        self._cache: Dict[int, Tri] = {}


class InputPin(Gate):
    """A named Boolean input pin (a variable of the formula)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__()
        self.name = name

    def inputs(self) -> Tuple[Gate, ...]:
        return ()

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        return valuation.alpha.get(self.name, UNKNOWN)

    def describe(self) -> str:
        return self.name


class ConstGate(Gate):
    """A constant tt/ff source."""

    __slots__ = ("value",)

    def __init__(self, value: bool):
        super().__init__()
        self.value = TT if value else FF

    def inputs(self) -> Tuple[Gate, ...]:
        return ()

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        return self.value

    def describe(self) -> str:
        return str(self.value)


class NotGate(Gate):
    """Single-input negation gate."""

    __slots__ = ("child",)

    def __init__(self, child: Gate):
        super().__init__()
        self.child = child

    def inputs(self) -> Tuple[Gate, ...]:
        return (self.child,)

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        return ~_eval(self.child, valuation)

    def describe(self) -> str:
        return f"NOT {self.child.gate_id}"


class AndGate(Gate):
    """N-ary conjunction gate (Kleene semantics)."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Gate]):
        super().__init__()
        self.children = tuple(children)

    def inputs(self) -> Tuple[Gate, ...]:
        return self.children

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        return tri_all(_eval(child, valuation) for child in self.children)

    def describe(self) -> str:
        return "AND " + ",".join(str(c.gate_id) for c in self.children)


class OrGate(Gate):
    """N-ary disjunction gate (Kleene semantics)."""

    __slots__ = ("children",)

    def __init__(self, children: Sequence[Gate]):
        super().__init__()
        self.children = tuple(children)

    def inputs(self) -> Tuple[Gate, ...]:
        return self.children

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        return tri_any(_eval(child, valuation) for child in self.children)

    def describe(self) -> str:
        return "OR " + ",".join(str(c.gate_id) for c in self.children)


class ComparisonGate(Gate):
    """A pair-input arithmetic comparison gate.

    Carries the full arithmetic constraint; its Boolean pin name ties it to
    the SAT side (the DIMACS definition variable).  Evaluation order:

    1. with a complete theory point, evaluate the comparison numerically;
    2. otherwise, if the pin has an ``alpha`` value, use it (the SAT solver's
       hypothesis);
    3. otherwise ``?`` — the signal that "further treatment is necessary".
    """

    __slots__ = ("pin_name", "constraint", "domain")

    def __init__(self, pin_name: str, constraint: Constraint, domain: str = "real"):
        super().__init__()
        self.pin_name = pin_name
        self.constraint = constraint
        self.domain = domain

    def inputs(self) -> Tuple[Gate, ...]:
        return ()

    def evaluate(self, valuation: CircuitValuation) -> Tri:
        needed = self.constraint.variables()
        if needed and needed <= set(valuation.theory):
            try:
                return tri(self.constraint.evaluate(valuation.theory, valuation.tolerance))
            except ARITHMETIC_ERRORS:
                return UNKNOWN
        return valuation.alpha.get(self.pin_name, UNKNOWN)

    def describe(self) -> str:
        return f"{self.pin_name}: {self.constraint} [{self.domain}]"


def _eval(gate: Gate, valuation: CircuitValuation) -> Tri:
    cached = valuation._cache.get(gate.gate_id)
    if cached is not None:
        return cached
    value = gate.evaluate(valuation)
    valuation._cache[gate.gate_id] = value
    return value


class Circuit:
    """A single-output circuit over input pins and comparison gates."""

    def __init__(self, output: Gate):
        self.output = output

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_ab_problem(problem: ABProblem) -> "Circuit":
        """Build the Fig. 5 representation of an AB-problem.

        Each CNF clause becomes an OR gate over (possibly negated) pins; the
        output is the AND over all clauses.  Defined variables appear as
        comparison gates, undefined ones as plain input pins.
        """
        pins: Dict[int, Gate] = {}

        def pin(var: int) -> Gate:
            if var not in pins:
                definition = problem.definitions.get(var)
                if definition is not None:
                    pins[var] = ComparisonGate(str(var), definition.constraint, definition.domain)
                else:
                    pins[var] = InputPin(str(var))
            return pins[var]

        clause_gates: List[Gate] = []
        for clause in problem.cnf.clauses:
            literal_gates: List[Gate] = []
            for literal in clause:
                gate = pin(abs(literal))
                literal_gates.append(gate if literal > 0 else NotGate(gate))
            if len(literal_gates) == 1:
                clause_gates.append(literal_gates[0])
            else:
                clause_gates.append(OrGate(literal_gates))
        if not clause_gates:
            return Circuit(ConstGate(True))
        if len(clause_gates) == 1:
            return Circuit(clause_gates[0])
        return Circuit(AndGate(clause_gates))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        alpha: Optional[Mapping[str, Union[Tri, bool, None]]] = None,
        theory: Optional[Mapping[str, float]] = None,
        tolerance: float = 1e-9,
    ) -> Tri:
        """Output-pin value under Boolean and/or theory valuations."""
        return _eval(self.output, CircuitValuation(alpha, theory, tolerance))

    def evaluate_boolean_assignment(
        self,
        assignment: Mapping[int, bool],
        theory: Optional[Mapping[str, float]] = None,
    ) -> Tri:
        """Convenience: evaluate under a DIMACS-indexed Boolean assignment."""
        alpha = {str(var): tri(value) for var, value in assignment.items()}
        return self.evaluate(alpha, theory)

    # ------------------------------------------------------------------
    # Traversal / stats
    # ------------------------------------------------------------------
    def gates(self) -> Iterator[Gate]:
        """All reachable gates, each yielded once (post-order)."""
        seen: Set[int] = set()
        stack: List[Tuple[Gate, bool]] = [(self.output, False)]
        while stack:
            gate, expanded = stack.pop()
            if gate.gate_id in seen:
                continue
            if expanded:
                seen.add(gate.gate_id)
                yield gate
            else:
                stack.append((gate, True))
                for child in gate.inputs():
                    if child.gate_id not in seen:
                        stack.append((child, False))

    def input_pins(self) -> List[InputPin]:
        return [g for g in self.gates() if isinstance(g, InputPin)]

    def comparison_gates(self) -> List[ComparisonGate]:
        return [g for g in self.gates() if isinstance(g, ComparisonGate)]

    def gate_count(self) -> int:
        return sum(1 for _ in self.gates())

    def pretty(self) -> str:
        """Multi-line dump of the circuit in gate-id order (Fig. 5 style)."""
        lines = [f"  g{gate.gate_id}: {gate.describe()}" for gate in self.gates()]
        lines.append(f"  output pin -> g{self.output.gate_id}")
        return "\n".join(lines)

    def to_dot(self, name: str = "circuit") -> str:
        """Graphviz DOT rendering of the circuit (Fig. 5, drawable).

        Comparison gates are boxes labelled with their constraints, Boolean
        gates are ellipses, the output pin is marked with a double circle.
        """
        def label_of(gate: Gate) -> str:
            if isinstance(gate, ComparisonGate):
                return str(gate.constraint).replace('"', "'")
            if isinstance(gate, InputPin):
                return gate.name
            if isinstance(gate, ConstGate):
                return str(gate.value)
            if isinstance(gate, NotGate):
                return "NOT"
            if isinstance(gate, AndGate):
                return "AND"
            if isinstance(gate, OrGate):
                return "OR"
            return type(gate).__name__

        lines = [f"digraph {name} {{", "  rankdir=LR;"]
        for gate in self.gates():
            shape = "box" if isinstance(gate, ComparisonGate) else "ellipse"
            if gate.gate_id == self.output.gate_id:
                shape = "doublecircle" if shape == "ellipse" else "box"
            peripheries = ", peripheries=2" if gate.gate_id == self.output.gate_id else ""
            lines.append(
                f'  g{gate.gate_id} [label="{label_of(gate)}", shape={shape}{peripheries}];'
            )
            for child in gate.inputs():
                lines.append(f"  g{child.gate_id} -> g{gate.gate_id};")
        lines.append("}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Circuit({self.gate_count()} gates)"
