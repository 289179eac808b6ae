"""Tests for the Sec. 6 use-case extensions: test generation and diagnosis."""

import pytest

from repro.core import ABProblem, parse_constraint
from repro.core.diagnosis import Diagnosis, DiagnosisProblem, minimal_diagnoses
from repro.core.testgen import generate_tests


class TestTestGeneration:
    def build_branching_problem(self):
        """Two comparisons over x with three feasible truth combinations."""
        problem = ABProblem()
        problem.add_clause([1, 2, -1])  # tautology-free: keep vars referenced
        problem.add_clause([1, -1])
        problem.define(1, "real", parse_constraint("x >= 0"))
        problem.define(2, "real", parse_constraint("x >= 10"))
        problem.set_bounds("x", -100, 100)
        return problem

    def test_distinct_paths_covered(self):
        problem = self.build_branching_problem()
        suite = generate_tests(problem)
        # feasible paths: (T,T), (T,F), (F,F) — (F,T) is theory-infeasible
        assert len(suite) == 3

    def test_each_case_is_a_valid_model(self):
        problem = self.build_branching_problem()
        for case in generate_tests(problem):
            assert problem.check_model(case.model.boolean, case.model.theory)

    def test_paths_are_distinct(self):
        problem = self.build_branching_problem()
        suite = generate_tests(problem)
        paths = [case.path for case in suite]
        assert len(paths) == len(set(paths))

    def test_max_cases_cap(self):
        problem = self.build_branching_problem()
        suite = generate_tests(problem, max_cases=2)
        assert len(suite) == 2

    def test_coverage_metric(self):
        problem = self.build_branching_problem()
        suite = generate_tests(problem)
        assert suite.path_coverage == 1.0

    def test_inputs_exposed(self):
        problem = self.build_branching_problem()
        case = next(iter(generate_tests(problem)))
        assert "x" in case.inputs


class TestDiagnosis:
    def build_two_component_system(self):
        """Two sensors reporting x; observation contradicts sensor 1.

        ok1 -> (x >= 5), ok2 -> (x <= 10), observation: x <= 3 (always on).
        """
        problem = ABProblem()
        # health vars 1 and 2; behaviour tags 3, 4; observation tag 5
        problem.add_clause([-1, 3])  # ok1 -> behaviour1
        problem.add_clause([-2, 4])  # ok2 -> behaviour2
        problem.add_clause([5])  # observation always holds
        problem.define(3, "real", parse_constraint("x >= 5"))
        problem.define(4, "real", parse_constraint("x <= 10"))
        problem.define(5, "real", parse_constraint("x <= 3"))
        return DiagnosisProblem(problem, {"sensor1": 1, "sensor2": 2})

    def test_all_diagnoses_exclude_healthy_sensor1(self):
        diagnoses = self.build_two_component_system().diagnoses()
        assert diagnoses
        for diagnosis in diagnoses:
            assert "sensor1" in diagnosis.faulty

    def test_minimal_diagnosis_is_sensor1_alone(self):
        diagnoses = self.build_two_component_system().diagnoses()
        minimal = minimal_diagnoses(diagnoses)
        assert minimal == [Diagnosis({"sensor1"})]

    def test_consistent_system_has_empty_diagnosis(self):
        problem = ABProblem()
        problem.add_clause([-1, 2])
        problem.add_clause([3])
        problem.define(2, "real", parse_constraint("x >= 0"))
        problem.define(3, "real", parse_constraint("x <= 10"))
        diag = DiagnosisProblem(problem, {"c1": 1})
        minimal = minimal_diagnoses(diag.diagnoses())
        assert minimal == [Diagnosis(set())]

    def test_health_var_range_checked(self):
        problem = ABProblem()
        problem.add_clause([1])
        with pytest.raises(ValueError):
            DiagnosisProblem(problem, {"c": 99})

    def test_minimal_diagnoses_subset_filtering(self):
        candidates = [
            Diagnosis({"a", "b"}),
            Diagnosis({"a"}),
            Diagnosis({"b", "c"}),
            Diagnosis({"a", "b", "c"}),
        ]
        minimal = minimal_diagnoses(candidates)
        assert Diagnosis({"a"}) in minimal
        assert Diagnosis({"b", "c"}) in minimal
        assert Diagnosis({"a", "b"}) not in minimal

    def test_cardinality(self):
        assert Diagnosis({"a", "b"}).cardinality == 2
        assert Diagnosis(set()).cardinality == 0
