"""Tests for interval arithmetic: the containment (soundness) property."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Mul, Pow, parse_constraint, parse_expression
from repro.core.tristate import FF, TT, UNKNOWN
from repro.nonlinear import intervals
from repro.nonlinear.intervals import Interval, check_constraint_interval, eval_interval


class TestIntervalBasics:
    def test_construction_validates(self):
        with pytest.raises(ValueError):
            Interval(2, 1)
        with pytest.raises(ValueError):
            Interval(float("nan"), 1)

    def test_point_and_around(self):
        assert Interval.point(3.0).contains(3.0)
        box = Interval.around(1.0, 0.5)
        assert box.lo == 0.5 and box.hi == 1.5

    def test_addition(self):
        result = Interval(1, 2) + Interval(3, 4)
        assert result.contains(4) and result.contains(6)

    def test_multiplication_signs(self):
        result = Interval(-2, 3) * Interval(-1, 4)
        assert result.contains(-8) and result.contains(12)
        assert result.lo <= -8 and result.hi >= 12

    def test_division_excludes_zero(self):
        with pytest.raises(ZeroDivisionError):
            Interval(1, 2) / Interval(-1, 1)

    def test_division(self):
        result = Interval(1, 2) / Interval(2, 4)
        assert result.contains(0.25) and result.contains(1.0)

    def test_even_power_clamps_at_zero(self):
        result = Interval(-3, 2).power(2)
        assert result.lo == 0.0
        assert result.contains(9)

    def test_odd_power_preserves_sign(self):
        result = Interval(-2, 3).power(3)
        assert result.contains(-8) and result.contains(27)

    def test_intersects(self):
        assert Interval(0, 2).intersects(Interval(1, 3))
        assert not Interval(0, 1).intersects(Interval(2, 3))


class TestTrigIntervals:
    def test_sin_over_peak(self):
        result = eval_interval(parse_expression("sin(x)"), {"x": Interval(1.0, 2.0)})
        assert result.hi >= 1.0 - 1e-9  # pi/2 inside
        assert result.lo <= math.sin(1.0) + 1e-9

    def test_cos_full_period(self):
        result = eval_interval(parse_expression("cos(x)"), {"x": Interval(0, 7)})
        assert result.lo <= -1 + 1e-9 and result.hi >= 1 - 1e-9

    def test_exp_monotone(self):
        result = eval_interval(parse_expression("exp(x)"), {"x": Interval(0, 1)})
        assert result.lo <= 1.0 <= result.hi or result.lo <= 1.0
        assert result.contains(math.e) or result.hi >= math.e - 1e-9


_SAMPLE_EXPRS = [
    "x + y",
    "x - y",
    "x * y",
    "x * x + y * y",
    "x^2 - y^3",
    "(x + y) * (x - y)",
    "x / (y + 5)",
    "sin(x) + cos(y)",
    "exp(x / 4)",
    "abs(x) + sqrt(y + 4)",
    "(x + y) * (x + y) - x * x",
]


class TestContainmentProperty:
    """The fundamental theorem of interval arithmetic: for any point inside
    the box, the exact value lies inside the interval image."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(_SAMPLE_EXPRS),
        st.floats(-3, 3, allow_nan=False),
        st.floats(-3, 3, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
    def test_containment(self, text, x0, y0, rx, ry):
        expr = parse_expression(text)
        box = {"x": Interval(x0 - rx, x0 + rx), "y": Interval(y0 - ry, y0 + ry)}
        try:
            image = eval_interval(expr, box)
        except Exception:
            return  # undefined somewhere on the box: nothing to check
        value = expr.evaluate({"x": x0, "y": y0})
        assert image.lo - 1e-9 <= value <= image.hi + 1e-9
        assert eval_interval(expr, box, memo={}) == image


_SQUARED = ["x", "-y", "x + y", "x - 2 * y", "x^3", "sin(x) - y", "x / (y + 5)", "exp(x / 4) - 1"]


def _random_interval(rng):
    kind = rng.choice(("straddle", "positive", "negative", "point"))
    a, b = sorted((rng.uniform(0, 4), rng.uniform(0, 4)))
    if kind == "straddle":
        return Interval(-a - 0.1, b + 0.1)
    if kind == "positive":
        return Interval(a, b)
    if kind == "negative":
        return Interval(-b, -a)
    return Interval.point(rng.uniform(-4, 4))


class TestSquareRule:
    """A structural square ``e * e`` is one quantity: its image is ``e^2``'s."""

    def test_square_has_the_image_of_the_power(self):
        rng = random.Random(16)
        for _ in range(400):
            operand = parse_expression(rng.choice(_SQUARED))
            box = {"x": _random_interval(rng), "y": _random_interval(rng)}
            square = eval_interval(Mul(operand, operand), box)
            assert square == eval_interval(Pow(operand, 2), box)
            assert square.lo >= 0.0


class TestConstraintVerdicts:
    def test_certified_true(self):
        c = parse_constraint("x + 1 > 0")
        assert check_constraint_interval(c, {"x": Interval(0, 5)}) is TT

    def test_certified_false(self):
        c = parse_constraint("x < 0")
        assert check_constraint_interval(c, {"x": Interval(1, 2)}) is FF

    def test_straddling_unknown(self):
        c = parse_constraint("x < 1")
        assert check_constraint_interval(c, {"x": Interval(0, 2)}) is UNKNOWN

    def test_square_negative_ff(self):
        c = parse_constraint("x^2 < 0")
        assert check_constraint_interval(c, {"x": Interval(-10, 10)}) is FF

    def test_undefined_is_unknown(self):
        c = parse_constraint("1 / x > 0")
        assert check_constraint_interval(c, {"x": Interval(-1, 1)}) is UNKNOWN

    def test_internal_error_propagates(self, monkeypatch):
        def broken(expr, env):
            raise RuntimeError("internal error")

        monkeypatch.setattr(intervals, "eval_interval", broken)
        with pytest.raises(RuntimeError):
            check_constraint_interval(parse_constraint("x > 0"), {"x": Interval(1, 2)})

    def test_infinite_box(self):
        c = parse_constraint("x^2 >= 0")
        box = {"x": Interval(-math.inf, math.inf)}
        assert check_constraint_interval(c, box) is TT

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["x + y < 1", "x * y >= 0", "x^2 + y^2 <= 4", "x - y = 0"]),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_verdict_soundness(self, text, x0, y0):
        """A definite interval verdict must agree with every point check."""
        c = parse_constraint(text)
        box = {"x": Interval(x0 - 0.25, x0 + 0.25), "y": Interval(y0 - 0.25, y0 + 0.25)}
        verdict = check_constraint_interval(c, box)
        actual = c.evaluate({"x": x0, "y": y0})
        if verdict is TT:
            assert actual is True
        elif verdict is FF:
            assert actual is False
