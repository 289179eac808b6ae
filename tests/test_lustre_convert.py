"""Tests for the LUSTRE leg and the full Fig. 3 conversion pipeline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ABSolver
from repro.sat.tseitin import BoolExpr
from repro.simulink import (
    Constant,
    ConversionError,
    Gain,
    Inport,
    LogicalOperator,
    LustreError,
    Outport,
    Product,
    RelationalOperator,
    Saturation,
    SimulinkModel,
    Sum,
    convert_workflow,
    model_to_lustre,
    model_to_problem,
    parse_lustre,
)


def build_fig1():
    """The paper's Fig. 1 example model."""
    m = SimulinkModel("fig1")
    for name, (low, high) in {
        "a": (-10, 10), "x": (-10, 10), "y": (-10, 10), "i": (-20, 20), "j": (-20, 20),
    }.items():
        m.add(Inport(name, low, high))
    m.add(Constant("c0", 0.0))
    m.add(Constant("c35", 3.5))
    m.add(Constant("c4", 4.0))
    m.add(Constant("c10", 10.0))
    m.add(Constant("c5", 5.0))
    m.add(Constant("c71", 7.1))
    m.add(RelationalOperator("i_ge0", ">="))
    m.connect("i", "i_ge0", 0)
    m.connect("c0", "i_ge0", 1)
    m.add(RelationalOperator("j_ge0", ">="))
    m.connect("j", "j_ge0", 0)
    m.connect("c0", "j_ge0", 1)
    m.add(LogicalOperator("and1", "AND", 2))
    m.connect("i_ge0", "and1", 0)
    m.connect("j_ge0", "and1", 1)
    m.add(Gain("g2", 2.0))
    m.connect("i", "g2", 0)
    m.add(Sum("s1", "++"))
    m.connect("g2", "s1", 0)
    m.connect("j", "s1", 1)
    m.add(RelationalOperator("lt10", "<"))
    m.connect("s1", "lt10", 0)
    m.connect("c10", "lt10", 1)
    m.add(LogicalOperator("not1", "NOT"))
    m.connect("lt10", "not1", 0)
    m.add(Sum("s2", "++"))
    m.connect("i", "s2", 0)
    m.connect("j", "s2", 1)
    m.add(RelationalOperator("lt5", "<"))
    m.connect("s2", "lt5", 0)
    m.connect("c5", "lt5", 1)
    m.add(LogicalOperator("or1", "OR", 2))
    m.connect("not1", "or1", 0)
    m.connect("lt5", "or1", 1)
    m.add(Product("ax", "**"))
    m.connect("a", "ax", 0)
    m.connect("x", "ax", 1)
    m.add(Sum("s4my", "+-"))
    m.connect("c4", "s4my", 0)
    m.connect("y", "s4my", 1)
    m.add(Product("divq", "*/"))
    m.connect("c35", "divq", 0)
    m.connect("s4my", "divq", 1)
    m.add(Gain("g2y", 2.0))
    m.connect("y", "g2y", 0)
    m.add(Sum("s3", "+++"))
    m.connect("ax", "s3", 0)
    m.connect("divq", "s3", 1)
    m.connect("g2y", "s3", 2)
    m.add(RelationalOperator("ge71", ">="))
    m.connect("s3", "ge71", 0)
    m.connect("c71", "ge71", 1)
    m.add(LogicalOperator("and2", "AND", 3))
    m.connect("and1", "and2", 0)
    m.connect("or1", "and2", 1)
    m.connect("ge71", "and2", 2)
    m.add(Outport("Out1"))
    m.connect("and2", "Out1", 0)
    return m


class TestLustrePrinting:
    def test_header_and_pragmas(self):
        text = model_to_lustre(build_fig1()).format()
        assert "node fig1" in text
        assert "returns (Out1: bool)" in text
        assert "--%range a -10 10" in text
        assert text.strip().endswith("tel")

    def test_every_block_has_an_equation(self):
        program = model_to_lustre(build_fig1())
        targets = {target for target, _ in program.equations}
        assert "Out1" in targets
        assert "s_ge71" in targets


class TestLustreParsing:
    def test_roundtrip_structure(self):
        original = model_to_lustre(build_fig1())
        reparsed = parse_lustre(original.format())
        assert reparsed.name == original.name
        assert reparsed.inputs == original.inputs
        assert reparsed.outputs == original.outputs
        assert len(reparsed.equations) == len(original.equations)
        assert reparsed.ranges == original.ranges

    def test_parse_errors(self):
        with pytest.raises(LustreError):
            parse_lustre("not a program")
        with pytest.raises(LustreError):
            # no equation for output o: surfaces at resolution time
            parse_lustre("node f (x: real) returns (o: bool); let tel").resolve()

    def test_unresolved_equation_detected(self):
        text = (
            "node f (x: real) returns (o: bool);\n"
            "var a: bool;\n"
            "let\n  o = a;\n  a = o;\ntel\n"
        )
        with pytest.raises(LustreError):
            parse_lustre(text).resolve()

    def test_resolution_is_order_independent(self):
        text = (
            "node f (x: real) returns (o: bool);\n"
            "var a: bool;\n"
            "let\n  o = a;\n  a = x > 1;\ntel\n"
        )
        signals = parse_lustre(text).resolve()
        assert isinstance(signals["o"], BoolExpr)


class TestConversion:
    def test_fig1_converts_to_fig2_shape(self):
        """The conversion of Fig. 1 must produce Fig. 2's problem shape:
        4 linear + 1 nonlinear definitions."""
        problem = model_to_problem(build_fig1())
        stats = problem.stats()
        assert stats.num_linear == 4
        assert stats.num_nonlinear == 1
        assert problem.bounds["a"] == (-10, 10)

    def test_fig1_satisfy_goal(self):
        model = build_fig1()
        problem = model_to_problem(model, goal="satisfy")
        result = ABSolver().solve(problem)
        assert result.is_sat
        inputs = {k: result.model.theory.get(k, 0.0) for k in ("a", "x", "y", "i", "j")}
        assert model.simulate(inputs)["Out1"] is True

    def test_violate_goal_finds_counterexample(self):
        model = build_fig1()
        problem = model_to_problem(model, goal="violate")
        result = ABSolver().solve(problem)
        assert result.is_sat  # the predicate is violable
        inputs = {k: result.model.theory.get(k, 0.0) for k in ("a", "x", "y", "i", "j")}
        assert model.simulate(inputs)["Out1"] is False

    def test_verified_property_is_unsat(self):
        """always (x <= 1000) over x in [-1, 1]: violation must be UNSAT."""
        model = SimulinkModel("safe")
        model.add(Inport("x", -1, 1))
        model.add(Constant("k", 1000.0))
        model.add(RelationalOperator("cmp", "<="))
        model.add(Outport("ok"))
        model.connect("x", "cmp", 0)
        model.connect("k", "cmp", 1)
        model.connect("cmp", "ok", 0)
        problem = model_to_problem(model, goal="violate")
        assert ABSolver().solve(problem).is_unsat

    def test_bad_goal_rejected(self):
        with pytest.raises(ConversionError):
            model_to_problem(build_fig1(), goal="maximize")

    def test_saturation_rejected_in_conversion(self):
        model = SimulinkModel("m")
        model.add(Inport("x"))
        model.add(Saturation("sat", 0, 1))
        model.add(Constant("k", 0.5))
        model.add(RelationalOperator("cmp", "<"))
        model.add(Outport("o"))
        model.connect("x", "sat", 0)
        model.connect("sat", "cmp", 0)
        model.connect("k", "cmp", 1)
        model.connect("cmp", "o", 0)
        with pytest.raises(Exception):
            model_to_problem(model)

    def test_workflow_artifacts(self):
        text, program, problem = convert_workflow(build_fig1())
        assert "node fig1" in text
        assert program.name == "fig1"
        assert len(problem.definitions) == 5


class TestSimulationConversionAgreement:
    """For random in-range inputs, the converted formula's truth equals the
    simulated output — the key conversion-correctness invariant."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-10, 10, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
        st.floats(-20, 20, allow_nan=False),
    )
    def test_fig1_agreement(self, a, x, y, i, j):
        if abs(4 - y) < 1e-9:
            return  # division-by-zero input: simulation itself fails
        model = build_fig1()
        program = model_to_lustre(model)
        signals, atoms = program.resolve_with_atoms()
        env = {"a": a, "x": x, "y": y, "i": i, "j": j}
        simulated = model.simulate(env)["Out1"]
        atom_env = {name: constraint.evaluate(env) for name, constraint in atoms.items()}
        formula_truth = signals["Out1"].evaluate(atom_env)
        assert simulated == formula_truth
