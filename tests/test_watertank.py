"""Tests for the water-tank hybrid-monitor workload."""

import math

from repro.benchgen import (
    ALARM_LEVEL,
    watertank_model,
    watertank_problem,
    watertank_safety_problem,
)
from repro.benchgen.watertank import OUTFLOW_K
from repro.core import ABSolver, ABSolverConfig
from repro.core.certify import verify_certificate


class TestModel:
    def test_simulation_high_level_alarms(self):
        model = watertank_model()
        assert model.simulate({"level": 1.9, "q_in": 0.0})["alarm"] is True

    def test_simulation_idle_tank_silent(self):
        model = watertank_model()
        assert model.simulate({"level": 0.5, "q_in": 0.0})["alarm"] is False

    def test_simulation_filling_near_rim_alarms(self):
        model = watertank_model()
        level = ALARM_LEVEL - 0.2  # near the rim but below the threshold
        q_in = OUTFLOW_K * math.sqrt(level) + 0.5  # strongly filling
        assert model.simulate({"level": level, "q_in": q_in})["alarm"] is True

    def test_simulation_balanced_near_rim_silent(self):
        model = watertank_model()
        level = ALARM_LEVEL - 0.2
        q_in = OUTFLOW_K * math.sqrt(level)  # stationary
        assert model.simulate({"level": level, "q_in": q_in})["alarm"] is False


class TestAnalysis:
    def test_alarm_reachable(self):
        problem = watertank_problem(goal="satisfy")
        result = ABSolver().solve(problem)
        assert result.is_sat
        point = {k: result.model.theory.get(k, 0.0) for k in ("level", "q_in")}
        assert watertank_model().simulate(point)["alarm"] is True

    def test_silent_alarm_reachable(self):
        problem = watertank_problem(goal="violate")
        result = ABSolver().solve(problem)
        assert result.is_sat
        point = {k: result.model.theory.get(k, 0.0) for k in ("level", "q_in")}
        assert watertank_model().simulate(point)["alarm"] is False

    def test_safety_holds_with_certificate(self):
        problem = watertank_safety_problem()
        config = ABSolverConfig(record_certificate=True)
        result = ABSolver(config).solve(problem)
        assert result.is_unsat  # silent alarm + near-overflow is impossible
        assert verify_certificate(problem, result.certificate)

    def test_problem_shape(self):
        stats = watertank_problem().stats()
        # one nonlinear atom (the Torricelli imbalance), two linear ones
        assert stats.num_nonlinear == 1
        assert stats.num_linear == 2
