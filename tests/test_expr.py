"""Unit + property tests for the arithmetic expression AST."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import (
    Add,
    Call,
    Const,
    Constraint,
    Div,
    EvaluationError,
    Expr,
    ExprParseError,
    Mul,
    Neg,
    NonlinearExpressionError,
    Pow,
    Relation,
    Sub,
    Var,
    parse_constraint,
    parse_expression,
)


class TestConstruction:
    def test_operator_overloading(self):
        x, y = Var("x"), Var("y")
        expr = 2 * x + y / 3 - 1
        assert expr.evaluate({"x": 3, "y": 6}) == pytest.approx(7.0)

    def test_const_rejects_bool(self):
        with pytest.raises(TypeError):
            Const(True)

    def test_var_rejects_empty(self):
        with pytest.raises(TypeError):
            Var("")

    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(TypeError):
            Pow(Var("x"), -1)

    def test_call_rejects_unknown_function(self):
        with pytest.raises(ValueError):
            Call("sinh", Var("x"))

    def test_immutability(self):
        with pytest.raises(AttributeError):
            Var("x").name = "y"
        with pytest.raises(AttributeError):
            Const(1).value = 2


class TestEvaluation:
    def test_division_by_zero(self):
        expr = Div(Const(1), Var("x"))
        with pytest.raises(EvaluationError):
            expr.evaluate({"x": 0})

    def test_missing_variable(self):
        with pytest.raises(EvaluationError):
            Var("q").evaluate({})

    def test_functions(self):
        assert Call("sin", Const(0)).evaluate({}) == pytest.approx(0.0)
        assert Call("exp", Const(1)).evaluate({}) == pytest.approx(math.e)
        assert Call("sqrt", Const(4)).evaluate({}) == pytest.approx(2.0)

    def test_log_domain_error(self):
        with pytest.raises(EvaluationError):
            Call("log", Const(-1)).evaluate({})

    def test_pow(self):
        assert Pow(Var("x"), 3).evaluate({"x": 2}) == pytest.approx(8.0)
        assert Pow(Var("x"), 0).evaluate({"x": 5}) == pytest.approx(1.0)

    def test_overflow_raises_evaluation_error(self):
        # Callers catch EvaluationError only; an OverflowError would escape.
        with pytest.raises(EvaluationError):
            Call("exp", Const(1000)).evaluate({})
        with pytest.raises(EvaluationError):
            Pow(Const(1e200), 2).evaluate({})


class TestStructuralEquality:
    def test_equal_trees(self):
        a = Add(Var("x"), Const(1))
        b = Add(Var("x"), Const(1))
        assert a == b
        assert hash(a) == hash(b)

    def test_different_ops(self):
        assert Add(Var("x"), Const(1)) != Sub(Var("x"), Const(1))

    def test_usable_in_sets(self):
        trees = {Add(Var("x"), Const(1)), Add(Var("x"), Const(1)), Var("x")}
        assert len(trees) == 2


class TestVariablesAndSize:
    def test_variables(self):
        expr = parse_expression("a*x + 3.5/(4 - y) + 2*y")
        assert expr.variables() == {"a", "x", "y"}

    def test_size_counts_nodes(self):
        assert Var("x").size() == 1
        assert Add(Var("x"), Const(1)).size() == 3


class TestLinearity:
    def test_affine_detected(self):
        assert parse_expression("2*x + 3*y - 7").is_linear()
        assert parse_expression("(x + y) / 2").is_linear()
        assert parse_expression("x * 5").is_linear()

    def test_nonlinear_detected(self):
        assert not parse_expression("x * y").is_linear()
        assert not parse_expression("1 / x").is_linear()
        assert not parse_expression("sin(x)").is_linear()
        assert not parse_expression("x^2").is_linear()

    def test_linear_form_values(self):
        form = parse_expression("2*x + y/4 - 3").linear_form()
        assert form.coeffs == {"x": Fraction(2), "y": Fraction(1, 4)}
        assert form.constant == Fraction(-3)

    def test_constant_function_call_folds(self):
        form = parse_expression("exp(0) + x").linear_form()
        assert form.constant == Fraction(1)

    def test_nonlinear_raises(self):
        with pytest.raises(NonlinearExpressionError):
            parse_expression("x*x").linear_form()

    def test_pow_one_is_linear(self):
        assert parse_expression("x^1 + 2").is_linear()

    @given(
        st.dictionaries(
            st.sampled_from(["x", "y", "z"]),
            st.integers(-50, 50),
            min_size=1,
        ),
        st.integers(-50, 50),
        st.dictionaries(st.sampled_from(["x", "y", "z"]), st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_linear_form_agrees_with_evaluation(self, coeffs, constant, point):
        expr: Expr = Const(constant)
        for name, coeff in coeffs.items():
            expr = Add(expr, Mul(Const(coeff), Var(name)))
        form = expr.linear_form()
        assert float(form.evaluate(point)) == pytest.approx(expr.evaluate(point))


class TestDifferentiation:
    def test_polynomial(self):
        expr = parse_expression("x*x + 3*x + 1")
        derivative = expr.diff("x")
        for value in (-2.0, 0.0, 1.5):
            assert derivative.evaluate({"x": value}) == pytest.approx(2 * value + 3)

    def test_quotient_rule(self):
        expr = parse_expression("x / (x + 1)")
        derivative = expr.diff("x")
        for value in (0.0, 1.0, 2.0):
            expected = 1.0 / (value + 1) ** 2
            assert derivative.evaluate({"x": value}) == pytest.approx(expected)

    def test_chain_rule_sin(self):
        expr = Call("sin", Mul(Const(2), Var("x")))
        derivative = expr.diff("x")
        for value in (0.0, 0.7):
            assert derivative.evaluate({"x": value}) == pytest.approx(2 * math.cos(2 * value))

    def test_other_variable(self):
        assert parse_expression("x*x").diff("y").simplify() == Const(0)

    @settings(max_examples=50)
    @given(st.floats(min_value=-3, max_value=3, allow_nan=False))
    def test_numeric_gradient_agreement(self, x0):
        expr = parse_expression("x*x*x - 2*x + exp(x/10)")
        symbolic = expr.diff("x").evaluate({"x": x0})
        h = 1e-6
        numeric = (expr.evaluate({"x": x0 + h}) - expr.evaluate({"x": x0 - h})) / (2 * h)
        assert symbolic == pytest.approx(numeric, rel=1e-3, abs=1e-4)


class TestSimplify:
    def test_constant_folding(self):
        assert parse_expression("2 + 3 * 4").simplify() == Const(14)

    def test_identities(self):
        x = Var("x")
        assert Add(x, Const(0)).simplify() == x
        assert Mul(Const(1), x).simplify() == x
        assert Mul(Const(0), x).simplify() == Const(0)
        assert Sub(x, x).simplify() == Const(0)
        assert Div(x, Const(1)).simplify() == x

    def test_double_negation(self):
        assert Neg(Neg(Var("x"))).simplify() == Var("x")

    def test_preserves_division_by_zero(self):
        expr = Div(Const(1), Const(0))
        simplified = expr.simplify()
        # must not fold into a crash or a wrong constant
        assert isinstance(simplified, Div)

    def test_preserves_overflowing_constants(self):
        assert isinstance(Call("exp", Const(1000)).simplify(), Call)
        assert isinstance(Pow(Const(1e200), 2).simplify(), Pow)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
    )
    def test_simplify_preserves_value(self, x, y):
        expr = parse_expression("(x + 0) * 1 + (y - y) + 2 * 3 + x * y")
        env = {"x": x, "y": y}
        assert expr.simplify().evaluate(env) == pytest.approx(expr.evaluate(env))


class TestParser:
    def test_fig2_constraint(self):
        constraint = parse_constraint("a * x + 3.5 / ( 4 - y ) + 2 * y >= 7.1")
        assert constraint.relation is Relation.GE
        assert constraint.variables() == {"a", "x", "y"}
        assert constraint.evaluate({"a": 1, "x": 4, "y": 1}) is True  # 4 + 3.5/3 + 2

    def test_precedence(self):
        assert parse_expression("2 + 3 * 4").evaluate({}) == pytest.approx(14)
        assert parse_expression("(2 + 3) * 4").evaluate({}) == pytest.approx(20)
        assert parse_expression("2 - 3 - 4").evaluate({}) == pytest.approx(-5)
        assert parse_expression("12 / 2 / 3").evaluate({}) == pytest.approx(2)

    def test_unary_minus(self):
        assert parse_expression("-x + 5").evaluate({"x": 2}) == pytest.approx(3)
        assert parse_expression("--x").evaluate({"x": 2}) == pytest.approx(2)

    def test_power(self):
        assert parse_expression("x^2 + 1").evaluate({"x": 3}) == pytest.approx(10)

    def test_scientific_notation(self):
        assert parse_expression("1.5e2").evaluate({}) == pytest.approx(150)

    def test_functions(self):
        assert parse_expression("cos(0) + sin(0)").evaluate({}) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ExprParseError):
            parse_expression("x +")
        with pytest.raises(ExprParseError):
            parse_expression("x + $")
        with pytest.raises(ExprParseError):
            parse_constraint("x + 1")  # no comparison
        with pytest.raises(ExprParseError):
            parse_constraint("x < 1 < 2")  # two comparisons

    def test_roundtrip_str_parse(self):
        texts = [
            "a * x + 3.5 / (4 - y) + 2 * y",
            "x^3 - 2 * x + 1",
            "sin(x) * cos(y) + exp(z)",
            "-(x + y) / (x - y)",
        ]
        for text in texts:
            expr = parse_expression(text)
            reparsed = parse_expression(str(expr))
            env = {"x": 1.3, "y": 0.4, "z": -0.2, "a": 2.0}
            assert reparsed.evaluate(env) == pytest.approx(expr.evaluate(env))


# Recursive strategy building random expression trees over x, y.
_leaves = st.one_of(
    st.integers(-4, 4).map(Const),
    st.sampled_from(["x", "y"]).map(Var),
)


def _combine(children):
    return st.one_of(
        st.tuples(children, children).map(lambda p: Add(*p)),
        st.tuples(children, children).map(lambda p: Sub(*p)),
        st.tuples(children, children).map(lambda p: Mul(*p)),
        children.map(Neg),
    )


_exprs = st.recursive(_leaves, _combine, max_leaves=12)


class TestExprProperties:
    @settings(max_examples=80)
    @given(_exprs, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_str_parse_roundtrip_random(self, expr, x, y):
        env = {"x": x, "y": y}
        reparsed = parse_expression(str(expr))
        assert reparsed.evaluate(env) == pytest.approx(expr.evaluate(env), rel=1e-9, abs=1e-9)

    @settings(max_examples=80)
    @given(_exprs, st.floats(-3, 3, allow_nan=False), st.floats(-3, 3, allow_nan=False))
    def test_simplify_preserves_random(self, expr, x, y):
        env = {"x": x, "y": y}
        assert expr.simplify().evaluate(env) == pytest.approx(
            expr.evaluate(env), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=60)
    @given(_exprs)
    def test_substitute_identity(self, expr):
        mapping = {"x": Var("x"), "y": Var("y")}
        assert expr.substitute(mapping) == expr


class TestConstraint:
    def test_negated_alternatives_inequalities(self):
        c = parse_constraint("x < 5")
        (alt,) = c.negated_alternatives()
        assert alt.relation is Relation.GE

    def test_negated_alternatives_equality_splits(self):
        c = parse_constraint("x = 5")
        alts = c.negated_alternatives()
        assert {a.relation for a in alts} == {Relation.LT, Relation.GT}

    def test_negation_is_complement(self):
        for text in ("x < 5", "x <= 5", "x > 5", "x >= 5", "x = 5"):
            c = parse_constraint(text)
            for value in (4.0, 5.0, 6.0):
                env = {"x": value}
                negation_holds = any(a.evaluate(env) for a in c.negated_alternatives())
                assert negation_holds != c.evaluate(env), (text, value)

    def test_normalized_expr(self):
        c = parse_constraint("2*x + 1 <= x + 4")
        form = c.linear_form()
        assert form.coeffs == {"x": Fraction(1)}
        assert form.constant == Fraction(-3)

    def test_relation_flipped(self):
        assert Relation.LT.flipped() is Relation.GT
        assert Relation.EQ.flipped() is Relation.EQ

    def test_evaluate_with_tolerance(self):
        c = parse_constraint("x <= 5")
        assert c.evaluate({"x": 5.0000001}, tolerance=1e-6)
        assert not c.evaluate({"x": 5.1}, tolerance=1e-6)
