"""Tests for the three-valued circuit representation (Fig. 5)."""

import pytest

from repro.core import parse_constraint
from repro.core.expr import Constraint
from repro.core.circuit import (
    AndGate,
    Circuit,
    ComparisonGate,
    ConstGate,
    InputPin,
    NotGate,
    OrGate,
)
from repro.core.problem import ABProblem
from repro.core.tristate import FF, TT, UNKNOWN


def fig2_problem():
    problem = ABProblem(name="fig2")
    problem.add_clause([1])
    problem.add_clause([-2, 3])
    problem.add_clause([4])
    problem.add_clause([5])
    problem.define(1, "int", parse_constraint("i >= 0"))
    problem.define(5, "int", parse_constraint("j >= 0"))
    problem.define(2, "int", parse_constraint("2*i + j < 10"))
    problem.define(3, "int", parse_constraint("i + j < 5"))
    problem.define(4, "real", parse_constraint("a * x + 3.5 / (4 - y) + 2 * y >= 7.1"))
    return problem


class TestGates:
    def test_input_pin_unknown_by_default(self):
        circuit = Circuit(InputPin("a"))
        assert circuit.evaluate() is UNKNOWN
        assert circuit.evaluate({"a": True}) is TT
        assert circuit.evaluate({"a": False}) is FF

    def test_const_gate(self):
        assert Circuit(ConstGate(True)).evaluate() is TT
        assert Circuit(ConstGate(False)).evaluate() is FF

    def test_not_gate(self):
        circuit = Circuit(NotGate(InputPin("a")))
        assert circuit.evaluate({"a": True}) is FF
        assert circuit.evaluate() is UNKNOWN

    def test_and_short_circuit_through_unknown(self):
        circuit = Circuit(AndGate([InputPin("a"), InputPin("b")]))
        assert circuit.evaluate({"a": False}) is FF  # b unknown
        assert circuit.evaluate({"a": True}) is UNKNOWN

    def test_or_short_circuit(self):
        circuit = Circuit(OrGate([InputPin("a"), InputPin("b")]))
        assert circuit.evaluate({"a": True}) is TT
        assert circuit.evaluate({"a": False}) is UNKNOWN


class TestComparisonGate:
    def test_theory_evaluation_wins(self):
        gate = ComparisonGate("1", parse_constraint("x >= 0"))
        circuit = Circuit(gate)
        assert circuit.evaluate({"1": False}, theory={"x": 3.0}) is TT

    def test_alpha_fallback(self):
        gate = ComparisonGate("1", parse_constraint("x >= 0"))
        circuit = Circuit(gate)
        assert circuit.evaluate({"1": True}) is TT
        assert circuit.evaluate({"1": False}) is FF
        assert circuit.evaluate() is UNKNOWN

    def test_partial_theory_falls_back(self):
        gate = ComparisonGate("1", parse_constraint("x + y >= 0"))
        circuit = Circuit(gate)
        assert circuit.evaluate(theory={"x": 1.0}) is UNKNOWN

    def test_undefined_theory_is_unknown(self):
        gate = ComparisonGate("1", parse_constraint("1 / x > 0"))
        circuit = Circuit(gate)
        assert circuit.evaluate(theory={"x": 0.0}) is UNKNOWN

    def test_internal_error_propagates(self, monkeypatch):
        def broken(self, env, tolerance=0.0):
            raise RuntimeError("internal error")

        monkeypatch.setattr(Constraint, "evaluate", broken)
        circuit = Circuit(ComparisonGate("1", parse_constraint("x >= 0")))
        with pytest.raises(RuntimeError):
            circuit.evaluate(theory={"x": 1.0})


class TestFromABProblem:
    def test_output_pin_routing(self):
        """The paper's control-loop signal: tt / ff / ? on the output pin."""
        problem = fig2_problem()
        circuit = Circuit.from_ab_problem(problem)

        # no valuation at all: unknown ("further treatment necessary")
        assert circuit.evaluate() is UNKNOWN

        # a full Boolean assignment satisfying the CNF: tt
        alpha = {"1": True, "2": False, "3": False, "4": True, "5": True}
        assert circuit.evaluate(alpha) is TT

        # violating clause [4]: ff
        alpha_bad = dict(alpha)
        alpha_bad["4"] = False
        assert circuit.evaluate(alpha_bad) is FF

    def test_theory_point_decides(self):
        problem = fig2_problem()
        circuit = Circuit.from_ab_problem(problem)
        theory = {"i": 0.0, "j": 0.0, "a": 0.0, "x": 0.0, "y": 3.0}
        # i=j=0: defs 1,5 true; 2i+j=0 < 10 so var2 true, i+j=0<5 so var3
        # true; clause (-2,3) satisfied; def4: 3.5/1 + 6 = 9.5 >= 7.1 true.
        assert circuit.evaluate(theory=theory) is TT

    def test_empty_problem_is_true(self):
        assert Circuit.from_ab_problem(ABProblem()).evaluate() is TT

    def test_gate_census(self):
        problem = fig2_problem()
        circuit = Circuit.from_ab_problem(problem)
        assert len(circuit.comparison_gates()) == 5
        assert circuit.gate_count() >= 7  # 5 comparisons + NOT + OR + AND

    def test_undefined_vars_become_input_pins(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 0"))
        circuit = Circuit.from_ab_problem(problem)
        assert len(circuit.input_pins()) == 1
        assert len(circuit.comparison_gates()) == 1

    def test_evaluate_boolean_assignment_helper(self):
        problem = fig2_problem()
        circuit = Circuit.from_ab_problem(problem)
        alpha = {1: True, 2: False, 3: False, 4: True, 5: True}
        assert circuit.evaluate_boolean_assignment(alpha) is TT

    def test_pretty_mentions_output(self):
        problem = fig2_problem()
        text = Circuit.from_ab_problem(problem).pretty()
        assert "output pin" in text

    def test_gates_yielded_once(self):
        problem = fig2_problem()
        circuit = Circuit.from_ab_problem(problem)
        ids = [g.gate_id for g in circuit.gates()]
        assert len(ids) == len(set(ids))

    def test_to_dot(self):
        problem = fig2_problem()
        dot = Circuit.from_ab_problem(problem).to_dot()
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert "i + j < 5" in dot
        assert "->" in dot
        # one node line per gate
        circuit = Circuit.from_ab_problem(problem)
        assert dot.count("[label=") == circuit.gate_count()
