"""Tests for UNSAT certificate recording and independent verification."""

import pytest

from repro.benchgen import fischer_unsat_problem, nonlinear_unsat_problem, watertank_unroll_family
from repro.core import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.core.certify import CertificateError, UnsatCertificate, verify_certificate


def solve_certified(problem, **config_kwargs):
    config = ABSolverConfig(record_certificate=True, **config_kwargs)
    return ABSolver(config).solve(problem)


class TestRecording:
    def test_linear_unsat_certificate(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        result = solve_certified(problem)
        assert result.is_unsat
        assert result.certificate is not None
        assert len(result.certificate) >= 1
        assert verify_certificate(problem, result.certificate)

    def test_no_certificate_without_flag(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        result = ABSolver().solve(problem)
        assert result.is_unsat and result.certificate is None

    def test_pure_boolean_unsat_has_empty_lemma_set(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([-1])
        result = solve_certified(problem)
        assert result.is_unsat
        assert len(result.certificate) == 0
        assert verify_certificate(problem, result.certificate)

    def test_nonlinear_unsat_certificate(self):
        problem = nonlinear_unsat_problem()
        result = solve_certified(problem)
        assert result.is_unsat
        assert verify_certificate(problem, result.certificate)

    def test_equality_split_certificate(self):
        problem = ABProblem()
        problem.add_clause([-1])
        problem.add_clause([2])
        problem.add_clause([3])
        problem.define(1, "real", parse_constraint("x = 3"))
        problem.define(2, "real", parse_constraint("x >= 3"))
        problem.define(3, "real", parse_constraint("x <= 3"))
        result = solve_certified(problem)
        assert result.is_unsat
        assert verify_certificate(problem, result.certificate)

    def test_fischer_unsat_certificate(self):
        problem = fischer_unsat_problem(2)
        result = solve_certified(problem, linear="difference")
        assert result.is_unsat
        assert verify_certificate(problem, result.certificate)


WATERTANK = watertank_unroll_family(8)


class TestCertificatesUnderAssumptions:
    """A certificate holds the assumptions of its query; a session's also
    holds the definite lemmas it kept from earlier checks."""

    @pytest.mark.parametrize("linear", ["difference", "simplex"])
    def test_one_shot_unroll_certificates_verify(self, linear):
        solver = ABSolver(ABSolverConfig(linear=linear, record_certificate=True))
        verified = 0
        for depth in range(1, 9):
            problem = WATERTANK.problem_at_depth(depth)
            result = solver.solve(problem, WATERTANK.check_assumptions(depth))
            if result.is_unsat:
                assert verify_certificate(problem, result.certificate)
                verified += 1
        assert verified == 6

    @pytest.mark.parametrize("linear", ["difference", "simplex"])
    def test_deepening_session_certificates_verify(self, linear):
        session = SolverSession(ABSolverConfig(linear=linear, record_certificate=True))
        WATERTANK.layers[0].apply_to_session(session)
        verified = 0
        for depth in range(1, 9):
            WATERTANK.layers[depth].apply_to_session(session)
            result = session.check(WATERTANK.check_assumptions(depth))
            if result.is_unsat:
                assert verify_certificate(session.problem, result.certificate)
                verified += 1
        assert verified == 6

    def test_certificate_without_its_assumptions_is_rejected(self):
        problem = WATERTANK.problem_at_depth(1)
        assumptions = WATERTANK.check_assumptions(1)
        config = ABSolverConfig(linear="difference", record_certificate=True)
        result = ABSolver(config).solve(problem, assumptions)
        assert result.is_unsat
        assert result.certificate.assumptions == tuple(assumptions)
        stripped = UnsatCertificate(result.certificate.lemmas)
        with pytest.raises(CertificateError, match="satisfiable"):
            verify_certificate(problem, stripped)


class TestVerificationRejectsBadCertificates:
    def build_unsat(self):
        problem = ABProblem()
        problem.add_clause([1])
        problem.add_clause([2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        return problem

    def test_bogus_lemma_rejected(self):
        problem = self.build_unsat()
        # Claims "not(x>=5)" alone is infeasible — it is not.
        bogus = UnsatCertificate([[1]])
        with pytest.raises(CertificateError, match="lemma 0"):
            verify_certificate(problem, bogus)

    def test_insufficient_lemmas_rejected(self):
        problem = ABProblem()
        problem.add_clause([1, 2])
        problem.define(1, "real", parse_constraint("x >= 5"))
        problem.define(2, "real", parse_constraint("x <= 3"))
        # The problem is actually SAT; an empty lemma set cannot prove UNSAT.
        with pytest.raises(CertificateError, match="satisfiable"):
            verify_certificate(problem, UnsatCertificate([]))

    def test_unknown_variable_rejected(self):
        problem = self.build_unsat()
        with pytest.raises(CertificateError, match="undefined variable"):
            verify_certificate(problem, UnsatCertificate([[-99]]))
