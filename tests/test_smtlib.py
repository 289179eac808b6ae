"""Tests for the SMT-LIB v1.2 reader."""

import pytest

from repro.core import ABSolver
from repro.io.smtlib import SmtLibError, parse_smtlib


def bench(body: str) -> str:
    return f"(benchmark test :logic QF_LRA {body})"


class TestParsing:
    def test_minimal(self):
        result = parse_smtlib(bench(":extrafuns ((x Real)) :formula (>= x 0)"))
        assert result.name == "test"
        assert result.logic == "QF_LRA"
        assert len(result.problem.definitions) == 1

    def test_status_attribute(self):
        result = parse_smtlib(
            bench(":status sat :extrafuns ((x Real)) :formula (>= x 0)")
        )
        assert result.status == "sat"

    def test_source_user_value_ignored(self):
        text = "(benchmark b :source { free text (with parens) } :logic QF_LRA :extrafuns ((x Real)) :formula (> x 1))"
        result = parse_smtlib(text)
        assert result.name == "b"

    def test_comments(self):
        text = (
            "; header comment\n"
            "(benchmark test :logic QF_LRA\n"
            "  :extrafuns ((x Real)) ; inline comment\n"
            "  :formula (> x 1)\n"
            ")\n"
        )
        assert parse_smtlib(text).problem.cnf.num_clauses >= 1

    def test_assumptions_conjoined(self):
        text = bench(
            ":extrafuns ((x Real)) :assumption (>= x 0) :assumption (<= x 5) "
            ":formula (> x 1)"
        )
        problem = parse_smtlib(text).problem
        assert len(problem.definitions) == 3

    def test_predicates(self):
        text = bench(":extrapreds ((p) (q)) :formula (and (or p q) (not p))")
        result = parse_smtlib(text)
        assert result.problem.cnf.num_clauses >= 2

    def test_int_sort(self):
        text = "(benchmark b :logic QF_LIA :extrafuns ((n Int)) :formula (> n 0))"
        problem = parse_smtlib(text).problem
        (definition,) = problem.definitions.values()
        assert definition.domain == "int"

    def test_chained_relation(self):
        text = bench(":extrafuns ((x Real) (y Real) (z Real)) :formula (<= x y z)")
        problem = parse_smtlib(text).problem
        assert len(problem.definitions) == 2

    def test_rational_literal(self):
        text = bench(":extrafuns ((x Real)) :formula (>= x 1/2)")
        problem = parse_smtlib(text).problem
        (definition,) = problem.definitions.values()
        assert definition.constraint.rhs.evaluate({}) == pytest.approx(0.5)

    def test_if_then_else(self):
        text = bench(
            ":extrapreds ((p)) :extrafuns ((x Real)) "
            ":formula (if_then_else p (> x 1) (< x 0))"
        )
        assert parse_smtlib(text).problem.cnf.num_clauses >= 2

    def test_negation_and_arith_ops(self):
        text = bench(
            ":extrafuns ((x Real) (y Real)) "
            ":formula (and (= (+ x y 1) 3) (>= (* 2 x) (- y)) (< (/ x 2) 5))"
        )
        problem = parse_smtlib(text).problem
        result = ABSolver().solve(problem)
        assert result.is_sat

    def test_atom_deduplication(self):
        text = bench(
            ":extrafuns ((x Real)) :formula (and (> x 1) (or (> x 1) (< x 0)))"
        )
        problem = parse_smtlib(text).problem
        assert len(problem.definitions) == 2  # (> x 1) shared


class TestErrors:
    def test_not_a_benchmark(self):
        with pytest.raises(SmtLibError):
            parse_smtlib("(assert true)")

    def test_unbalanced(self):
        with pytest.raises(SmtLibError):
            parse_smtlib("(benchmark b :logic QF_LRA :formula (> x 1)")

    def test_missing_formula(self):
        with pytest.raises(SmtLibError):
            parse_smtlib("(benchmark b :logic QF_LRA)")

    def test_unknown_symbol(self):
        with pytest.raises(SmtLibError):
            parse_smtlib(bench(":formula (> zz 1)"))

    def test_nonzero_arity_function(self):
        with pytest.raises(SmtLibError):
            parse_smtlib(
                "(benchmark b :logic QF_UF :extrafuns ((f Real Real)) :formula (> (f 1) 0))"
            )

    def test_unsupported_connective(self):
        with pytest.raises(SmtLibError):
            parse_smtlib(bench(":extrafuns ((x Real)) :formula (forall x (> x 0))"))


class TestSolving:
    def test_sat_instance(self):
        text = bench(
            ":extrafuns ((x Real) (y Real)) :extrapreds ((p)) "
            ":assumption (>= x 0) "
            ":formula (and (or p (< (+ x y) 5)) (implies p (= y (* 2 x))) (> y 1))"
        )
        benchmark = parse_smtlib(text)
        result = ABSolver().solve(benchmark.problem)
        assert result.is_sat
        assert benchmark.problem.check_model(result.model.boolean, result.model.theory)

    def test_unsat_instance(self):
        text = bench(
            ":extrafuns ((x Real)) :formula (and (> x 3) (< x 2))"
        )
        result = ABSolver().solve(parse_smtlib(text).problem)
        assert result.is_unsat

    def test_boolean_iff_over_predicates(self):
        text = bench(":extrapreds ((p) (q)) :formula (and (iff p q) p (not q))")
        result = ABSolver().solve(parse_smtlib(text).problem)
        assert result.is_unsat
