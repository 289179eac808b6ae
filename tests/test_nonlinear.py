"""Tests for the nonlinear solvers: augmented Lagrangian, Newton, refuter."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import (
    Add,
    Call,
    Const,
    Constraint,
    Div,
    Mul,
    Neg,
    Pow,
    Relation,
    Sub,
    Var,
    parse_constraint,
)
from repro.nonlinear import (
    AugmentedLagrangianSolver,
    NewtonSolver,
    NLPStatus,
    contract,
    scipy_available,
)
from repro.nonlinear.contract import contract_box
from repro.nonlinear.intervals import Interval, eval_interval
from repro.nonlinear.refute import IntervalRefuter, RefuteStatus


def solve(constraints, bounds=None, **kwargs):
    solver = AugmentedLagrangianSolver(**kwargs)
    return solver.solve([parse_constraint(c) for c in constraints], bounds=bounds)


class TestAugLag:
    def test_empty_is_sat(self):
        result = AugmentedLagrangianSolver().solve([])
        assert result.is_sat and result.certified

    def test_single_inequality(self):
        result = solve(["x * x <= 4"], bounds={"x": (-10, 10)})
        assert result.is_sat
        assert abs(result.point["x"]) <= 2 + 1e-6

    def test_equality_circle_line(self):
        result = solve(
            ["x * x + y * y = 25", "x - y = 1"],
            bounds={"x": (-10, 10), "y": (-10, 10)},
        )
        assert result.is_sat
        x, y = result.point["x"], result.point["y"]
        assert x * x + y * y == pytest.approx(25, abs=1e-5)
        assert x - y == pytest.approx(1, abs=1e-5)

    def test_fig2_constraint(self):
        result = solve(
            ["a * x + 3.5 / (4 - y) + 2 * y >= 7.1"],
            bounds={"a": (-10, 10), "x": (-10, 10), "y": (-10, 3.9)},
        )
        assert result.is_sat

    def test_transcendental(self):
        result = solve(
            ["sin(x) >= 0.99", "x >= 0", "x <= 3"], bounds={"x": (0, 3)}
        )
        assert result.is_sat
        assert math.sin(result.point["x"]) >= 0.99 - 1e-6

    def test_infeasible_returns_unknown(self):
        result = solve(["x * x < 0"], bounds={"x": (-5, 5)})
        assert result.status is NLPStatus.UNKNOWN

    def test_strict_inequality_margin(self):
        result = solve(["x * x > 4"], bounds={"x": (-10, 10)})
        assert result.is_sat
        assert result.point["x"] ** 2 > 4

    def test_hint_speeds_convergence(self):
        constraints = [parse_constraint("x * x + y * y = 25"), parse_constraint("x - y = 1")]
        solver = AugmentedLagrangianSolver(max_starts=2)
        result = solver.solve(
            constraints, bounds={"x": (-10, 10), "y": (-10, 10)}, hints=[{"x": 4.0, "y": 3.0}]
        )
        assert result.is_sat and result.starts_used == 1

    def test_deterministic(self):
        r1 = solve(["x * y >= 3", "x + y <= 5"], bounds={"x": (0, 5), "y": (0, 5)})
        r2 = solve(["x * y >= 3", "x + y <= 5"], bounds={"x": (0, 5), "y": (0, 5)})
        assert r1.point == r2.point

    @settings(max_examples=15, deadline=None)
    @given(st.floats(1, 5, allow_nan=False), st.floats(-2, 1, allow_nan=False))
    def test_reachable_targets(self, radius, offset):
        """x^2 = r^2 with offset <= radius is always solvable at x = radius."""
        assert offset <= radius
        result = solve(
            [f"x * x = {radius * radius}", f"x >= {offset}"],
            bounds={"x": (-10, 10)},
        )
        assert result.is_sat


class TestNewton:
    def test_applicability(self):
        square = [parse_constraint("x*x + y*y = 25"), parse_constraint("x - y = 1")]
        assert NewtonSolver.applicable(square)
        assert not NewtonSolver.applicable([parse_constraint("x <= 1")])
        assert not NewtonSolver.applicable([parse_constraint("x + y = 1")])
        assert not NewtonSolver.applicable([])

    def test_quadratic_root(self):
        result = NewtonSolver().solve([parse_constraint("x * x = 2")], start={"x": 1.0})
        assert result.converged
        assert result.point["x"] == pytest.approx(math.sqrt(2))

    def test_system(self):
        constraints = [
            parse_constraint("x * x + y * y = 25"),
            parse_constraint("x - y = 1"),
        ]
        result = NewtonSolver().solve(constraints, start={"x": 5.0, "y": 5.0})
        assert result.converged
        assert result.point["x"] ** 2 + result.point["y"] ** 2 == pytest.approx(25)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            NewtonSolver().solve([parse_constraint("x <= 1")])

    def test_nonconvergence_reported(self):
        # x^2 = -1 has no real root; Newton must not claim success.
        result = NewtonSolver().solve([parse_constraint("x * x = -1")], start={"x": 1.0})
        assert not result.converged

    def test_singular_jacobian_handled(self):
        # derivative vanishes at the root (x^2 = 0): still converges (slowly)
        result = NewtonSolver(max_iterations=200, tolerance=1e-6).solve(
            [parse_constraint("x * x = 0")], start={"x": 1.0}
        )
        assert abs(result.point["x"]) < 1e-2


def squares_to_powers(expr):
    """The refuter's former rewrite of structural squares ``e * e`` into ``e^2``.

    Kept as the reference for the interval kernel's square rule, which
    made the rewrite unnecessary.
    """
    if isinstance(expr, Mul):
        lhs, rhs = squares_to_powers(expr.lhs), squares_to_powers(expr.rhs)
        return Pow(lhs, 2) if lhs == rhs else Mul(lhs, rhs)
    if isinstance(expr, Pow):
        return Pow(squares_to_powers(expr.base), expr.exponent)
    if isinstance(expr, (Add, Sub, Div)):
        return type(expr)(squares_to_powers(expr.lhs), squares_to_powers(expr.rhs))
    if isinstance(expr, Neg):
        return Neg(squares_to_powers(expr.arg))
    if isinstance(expr, Call):
        return Call(expr.function, squares_to_powers(expr.arg))
    return expr


def _two_walk_forward(expr, box, cache):
    """HC4's former forward pass: every node re-walks its whole subtree."""
    image = eval_interval(expr, box)
    cache[id(expr)] = image
    for child in expr.children():
        if id(child) not in cache:
            _two_walk_forward(child, box, cache)
    return image


_RELATIONS = (Relation.LT, Relation.LE, Relation.GT, Relation.GE) * 2 + (Relation.EQ,)


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.8:
            return Var(rng.choice("xy"))
        return Const(rng.choice((0.5, 1, 2, 3)))
    kind = rng.choice(("square", "square", "pow2", "pow3", "div", "add", "sub", "call"))
    if kind == "square":
        operand = _random_expr(rng, depth - 1)
        return Mul(operand, operand)
    if kind in ("pow2", "pow3"):
        return Pow(_random_expr(rng, depth - 1), int(kind[-1]))
    if kind == "call":
        return Call(rng.choice(("sin", "cos", "exp", "sqrt", "abs")), _random_expr(rng, depth - 1))
    operator = {"div": Div, "add": Add, "sub": Sub}[kind]
    return operator(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _random_sets(seed, count):
    """``count`` seeded sets of 1-3 constraints of depth <= 3, with a box."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        constraints = [
            Constraint(
                _random_expr(rng, 3),
                rng.choice(_RELATIONS),
                Const(rng.choice((-2, -1, 0, 0.5, 1, 2, 4, 8))),
            )
            for _ in range(rng.randint(1, 3))
        ]
        names = sorted({name for c in constraints for name in c.variables()})
        if names:
            bounds = {}
            for name in names:
                half = rng.choice((1, 2, 5, 10))
                bounds[name] = (-half, half)
            sets.append((constraints, bounds))
    return sets


def _has_literal_square(expr):
    if isinstance(expr, Pow) and expr.exponent == 2:
        return True
    return any(_has_literal_square(child) for child in expr.children())


class TestSquareRuleReference:
    """The interval kernel's square rule against the code it replaced."""

    @pytest.mark.parametrize("seed", range(4))
    def test_refuter_matches_the_rewrite(self, seed):
        refuter = IntervalRefuter(max_boxes=300)
        for constraints, bounds in _random_sets(seed, 500):
            rewritten = [
                Constraint(
                    squares_to_powers(c.lhs.simplify()),
                    c.relation,
                    squares_to_powers(c.rhs.simplify()),
                )
                for c in constraints
            ]
            result = refuter.refute(constraints, bounds)
            reference = refuter.refute(rewritten, bounds)
            assert result.status is reference.status, constraints
            # With a literal ^2 present, the rewrite can turn ``e * e`` into
            # the very node ``e^2`` and so share its narrowing: the box
            # count may differ, the verdict may not.
            if not any(_has_literal_square(c.lhs) for c in constraints):
                assert result.boxes_explored == reference.boxes_explored, constraints

    def test_memoised_forward_matches_the_two_walk_forward(self, monkeypatch):
        cases = []
        for seed in range(4):
            for constraints, bounds in _random_sets(seed, 500):
                box = {name: Interval(lo, hi) for name, (lo, hi) in bounds.items()}
                cases.append((constraints, box))
        memoised = [contract_box(constraints, box) for constraints, box in cases]
        monkeypatch.setattr(contract, "eval_interval", _two_walk_forward)
        assert [contract_box(constraints, box) for constraints, box in cases] == memoised


class TestIntervalRefuter:
    def test_refutes_square_negative(self):
        result = IntervalRefuter().refute(
            [parse_constraint("x * x < 0")], {"x": (-100, 100)}
        )
        assert result.status is RefuteStatus.REFUTED

    def test_refutes_disk_vs_far_line(self):
        constraints = [
            parse_constraint("x * x + y * y < 1"),
            parse_constraint("(x + y) * (x + y) > 8"),
        ]
        result = IntervalRefuter().refute(constraints, {"x": (-10, 10), "y": (-10, 10)})
        assert result.status is RefuteStatus.REFUTED

    def test_finds_sat_box(self):
        result = IntervalRefuter().refute(
            [parse_constraint("x * x <= 4")], {"x": (-1, 1)}
        )
        assert result.status is RefuteStatus.SAT_BOX

    def test_budget_exhaustion_is_unknown(self):
        # touching constraint boundary everywhere: never fully decided
        constraints = [
            parse_constraint("x * y >= 1"),
            parse_constraint("x * y <= 1"),
        ]
        result = IntervalRefuter(max_boxes=10).refute(
            constraints, {"x": (0.5, 2), "y": (0.5, 2)}
        )
        assert result.status is RefuteStatus.UNKNOWN

    def test_infinite_box_direct_verdict(self):
        result = IntervalRefuter().refute(
            [parse_constraint("x * x < 0")], {"x": (-math.inf, math.inf)}
        )
        assert result.status is RefuteStatus.REFUTED

    def test_requires_bounds(self):
        with pytest.raises(ValueError):
            IntervalRefuter().refute([parse_constraint("x >= 0")], {})

    def test_never_refutes_satisfiable(self):
        # soundness spot-check: satisfiable set must not be refuted
        constraints = [
            parse_constraint("x * x + y * y <= 1"),
            parse_constraint("x + y >= 1"),
        ]
        result = IntervalRefuter().refute(constraints, {"x": (-2, 2), "y": (-2, 2)})
        assert result.status is not RefuteStatus.REFUTED


@pytest.mark.skipif(not scipy_available(), reason="scipy not installed")
class TestScipyBackend:
    def test_same_interface(self):
        from repro.nonlinear import ScipySLSQPSolver

        solver = ScipySLSQPSolver()
        result = solver.solve(
            [parse_constraint("x * x + y * y = 25"), parse_constraint("x - y = 1")],
            bounds={"x": (-10, 10), "y": (-10, 10)},
        )
        assert result.is_sat

    def test_unknown_on_infeasible(self):
        from repro.nonlinear import ScipySLSQPSolver

        result = ScipySLSQPSolver(max_starts=3).solve(
            [parse_constraint("x * x < 0")], bounds={"x": (-5, 5)}
        )
        assert result.status is NLPStatus.UNKNOWN
