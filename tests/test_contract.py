"""Tests for the HC4 interval contractors."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import parse_constraint
from repro.nonlinear import contract
from repro.nonlinear.contract import contract_box, hc4_revise
from repro.nonlinear.intervals import Interval
from repro.nonlinear.refute import IntervalRefuter, RefuteStatus


def box(**kwargs):
    return {name: Interval(lo, hi) for name, (lo, hi) in kwargs.items()}


class TestHC4Revise:
    def test_simple_upper_bound(self):
        result = hc4_revise(parse_constraint("x <= 3"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].hi <= 3 + 1e-9
        assert result["x"].lo == -10

    def test_addition_projection(self):
        result = hc4_revise(parse_constraint("x + y <= 1"), box(x=(0, 10), y=(0, 10)))
        assert result is not None
        assert result["x"].hi <= 1 + 1e-9
        assert result["y"].hi <= 1 + 1e-9

    def test_equality_pins_value(self):
        result = hc4_revise(parse_constraint("x + 2 = 5"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].lo == pytest.approx(3, abs=1e-9)
        assert result["x"].hi == pytest.approx(3, abs=1e-9)

    def test_infeasible_detected(self):
        assert hc4_revise(parse_constraint("x >= 5"), box(x=(0, 1))) is None

    def test_even_power_projection(self):
        result = hc4_revise(parse_constraint("x^2 <= 4"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].lo >= -2 - 1e-6
        assert result["x"].hi <= 2 + 1e-6

    def test_even_power_sign_aware(self):
        result = hc4_revise(parse_constraint("x^2 <= 4"), box(x=(0, 10)))
        assert result is not None
        assert result["x"].lo >= 0

    def test_odd_power_projection(self):
        result = hc4_revise(parse_constraint("x^3 >= 8"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].lo >= 2 - 1e-6

    def test_exp_projection(self):
        result = hc4_revise(parse_constraint("exp(x) <= 1"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].hi <= 1e-6

    def test_sqrt_projection(self):
        result = hc4_revise(parse_constraint("sqrt(x) >= 2"), box(x=(0, 100)))
        assert result is not None
        assert result["x"].lo >= 4 - 1e-6

    def test_abs_projection(self):
        result = hc4_revise(parse_constraint("abs(x) <= 1"), box(x=(-10, 10)))
        assert result is not None
        assert result["x"].lo >= -1 - 1e-6
        assert result["x"].hi <= 1 + 1e-6

    def test_multiplication_with_zero_straddling_skips(self):
        # y straddles 0: no division-based narrowing of x, but no crash
        result = hc4_revise(parse_constraint("x * y <= 1"), box(x=(-5, 5), y=(-1, 1)))
        assert result is not None

    def test_division_projection(self):
        result = hc4_revise(parse_constraint("x / 2 >= 3"), box(x=(-100, 100)))
        assert result is not None
        assert result["x"].lo >= 6 - 1e-6

    def test_input_box_not_mutated(self):
        original = box(x=(-10, 10))
        hc4_revise(parse_constraint("x <= 3"), original)
        assert original["x"].hi == 10


class TestContractBox:
    def test_conjunction_fixpoint(self):
        # Note: two crossing lines alone hit HC4's dependency-problem
        # fixpoint; adding the one-sided bounds makes propagation pin the
        # intersection point exactly.
        constraints = [
            parse_constraint("x + y = 4"),
            parse_constraint("x >= 2"),
            parse_constraint("y >= 2"),
        ]
        result = contract_box(constraints, box(x=(-100, 100), y=(-100, 100)))
        assert result is not None
        assert result["x"].contains(2.0)
        assert result["x"].width < 1e-6
        assert result["y"].width < 1e-6

    def test_crossing_lines_reach_hull_fixpoint(self):
        constraints = [parse_constraint("x + y = 4"), parse_constraint("x - y = 0")]
        result = contract_box(constraints, box(x=(-100, 100), y=(-100, 100)))
        assert result is not None
        assert result["x"].contains(2.0)
        # progress happened, even though the hull fixpoint is not a point
        assert result["x"].width < 200

    def test_infeasible_conjunction(self):
        constraints = [parse_constraint("x >= 5"), parse_constraint("x <= 3")]
        assert contract_box(constraints, box(x=(-100, 100))) is None

    def test_nonlinear_chain(self):
        constraints = [
            parse_constraint("x^2 <= 4"),
            parse_constraint("y = x + 10"),
        ]
        result = contract_box(constraints, box(x=(-100, 100), y=(-100, 100)))
        assert result is not None
        assert result["y"].lo >= 8 - 1e-5
        assert result["y"].hi <= 12 + 1e-5


def _internal_error(*args, **kwargs):
    raise RuntimeError("internal error")


class TestUndefinedArithmetic:
    """Undefined arithmetic leaves the box alone; any other error surfaces."""

    def test_forward_division_by_zero_keeps_the_box(self):
        start = box(x=(-1, 1), y=(-1, 1))
        assert hc4_revise(parse_constraint("y / x >= 1"), start) == start

    def test_backward_overflow_keeps_the_box(self):
        # The backward pass never divides by an interval holding zero; its
        # undefined case is a float overflow (squaring 1e200 for sqrt).
        start = box(x=(0, math.inf))
        assert hc4_revise(parse_constraint("sqrt(x) >= 1e200"), start) == start

    def test_forward_internal_error_propagates(self, monkeypatch):
        monkeypatch.setattr(contract, "eval_interval", _internal_error)
        with pytest.raises(RuntimeError):
            hc4_revise(parse_constraint("y / x >= 1"), box(x=(-1, 1), y=(-1, 1)))

    def test_backward_internal_error_propagates(self, monkeypatch):
        monkeypatch.setattr(contract, "_backward", _internal_error)
        with pytest.raises(RuntimeError):
            hc4_revise(parse_constraint("x <= 3"), box(x=(-10, 10)))


class TestSoundness:
    """Contraction must never remove points satisfying the constraint."""

    CASES = [
        "x + y <= 1",
        "x * y >= 0.5",
        "x^2 + y^2 <= 2",
        "exp(x) + y <= 3",
        "x - y = 0.25",
        "abs(x) + abs(y) <= 1.5",
    ]

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(CASES),
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_satisfying_points_survive(self, text, x0, y0):
        constraint = parse_constraint(text)
        if not constraint.evaluate({"x": x0, "y": y0}):
            return
        result = hc4_revise(constraint, box(x=(-2, 2), y=(-2, 2)))
        assert result is not None, "a satisfiable box was declared infeasible"
        assert result["x"].lo - 1e-9 <= x0 <= result["x"].hi + 1e-9
        assert result["y"].lo - 1e-9 <= y0 <= result["y"].hi + 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "template, sign", [("x^3 >= {c}", 1), ("x^3 <= -{c}", -1), ("x^3 = {c}", 1)]
    )
    def test_point_on_a_cube_root_survives(self, k, template, sign):
        # The inverse of an odd power rounds each end outward, so a target
        # that touches the root keeps it.
        point = box(x=(sign * k, sign * k))
        assert hc4_revise(parse_constraint(template.format(c=k**3)), point) == point


class TestRefuterIntegration:
    def test_contractor_reduces_boxes(self):
        constraints = [
            parse_constraint("x * x + y * y < 1"),
            parse_constraint("(x + y) * (x + y) > 8"),
        ]
        bounds = {"x": (-10, 10), "y": (-10, 10)}
        with_contractor = IntervalRefuter(use_contractor=True).refute(constraints, bounds)
        without = IntervalRefuter(use_contractor=False).refute(constraints, bounds)
        assert with_contractor.status is RefuteStatus.REFUTED
        assert without.status is RefuteStatus.REFUTED
        assert with_contractor.boxes_explored <= without.boxes_explored

    def test_still_finds_sat_boxes(self):
        result = IntervalRefuter(use_contractor=True).refute(
            [parse_constraint("x * x <= 4")], {"x": (-1, 1)}
        )
        assert result.status is RefuteStatus.SAT_BOX
