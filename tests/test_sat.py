"""Tests for the SAT substrate: CNF, DPLL, CDCL, all-SAT."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import (
    CNF,
    AllSATSolver,
    CDCLSolver,
    count_models,
    iterate_models,
    luby,
    solve_cdcl,
    solve_dpll,
    unit_propagate,
)
from repro.sat.cnf import normalize_clause


def brute_force_models(cnf: CNF):
    """All total models by exhaustive enumeration (tiny instances only)."""
    models = []
    n = cnf.num_vars
    for bits in itertools.product([False, True], repeat=n):
        assignment = {i + 1: bits[i] for i in range(n)}
        if cnf.is_satisfied_by(assignment):
            models.append(assignment)
    return models


class TestCNF:
    def test_add_clause_grows_vars(self):
        cnf = CNF()
        cnf.add_clause([3, -5])
        assert cnf.num_vars == 5

    def test_rejects_zero_literal(self):
        with pytest.raises(ValueError):
            CNF().add_clause([0])

    def test_tautology_dropped(self):
        cnf = CNF()
        cnf.add_clause([1, -1])
        assert cnf.num_clauses == 0

    def test_duplicate_literals_merged(self):
        cnf = CNF()
        cnf.add_clause([1, 1, 2])
        assert cnf.clauses == [(1, 2)]

    def test_partial_evaluation(self):
        cnf = CNF(2, [[1, 2]])
        assert cnf.evaluate({}) is None
        assert cnf.evaluate({1: True}) is True
        assert cnf.evaluate({1: False, 2: False}) is False

    def test_copy_is_independent(self):
        cnf = CNF(1, [[1]])
        duplicate = cnf.copy()
        duplicate.add_clause([-1])
        assert cnf.num_clauses == 1

    def test_tautology_still_counts_its_variables(self):
        cnf = CNF()
        cnf.add_clause([2, -7, -2])
        assert cnf.clauses == [] and cnf.num_vars == 7

    def test_zero_after_a_tautology_is_rejected(self):
        with pytest.raises(ValueError):
            CNF().add_clause([1, -1, 0])

    def test_normalize_clause_matches_the_clause_definition(self):
        """Duplicates go (first occurrences keep their order), a clause with
        ``v`` and ``-v`` is a tautology, and the top variable covers every
        literal."""
        rng = random.Random(5)
        for _ in range(2000):
            literals = [
                rng.choice((-1, 1)) * rng.randint(1, 8) for _ in range(rng.randint(0, 6))
            ]
            clause, top = normalize_clause(literals)
            assert top == max((abs(l) for l in literals), default=0)
            if any(-l in literals for l in literals):
                assert clause is None
            else:
                assert clause == tuple(dict.fromkeys(literals))

    def test_clauses_hold_normalized_tuples(self):
        rng = random.Random(6)
        cnf = CNF()
        for _ in range(300):
            cnf.add_clause(
                [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(rng.randint(0, 4))]
            )
        for clause in cnf.clauses:
            assert isinstance(clause, tuple)
            assert normalize_clause(clause) == (clause, max(map(abs, clause), default=0))
            assert all(abs(l) <= cnf.num_vars for l in clause)

    def test_is_satisfied_by_matches_its_definition(self):
        """Every clause needs a literal that is true, a variable the
        assignment leaves out counting as False; the empty clause never
        holds."""

        def reference(cnf, assignment):
            return all(
                any(assignment.get(abs(l), False) == (l > 0) for l in clause)
                for clause in cnf.clauses
            )

        rng = random.Random(7)
        for _ in range(1500):
            num_vars = rng.randint(1, 6)
            cnf = CNF(num_vars)
            for _ in range(rng.randint(0, 8)):
                width = rng.randint(0, 3)
                cnf.add_clause(
                    [rng.choice((-1, 1)) * rng.randint(1, num_vars) for _ in range(width)]
                )
            assignment = {
                var: rng.random() < 0.5
                for var in range(1, num_vars + 1)
                if rng.random() < 0.7
            }
            assert cnf.is_satisfied_by(assignment) == reference(cnf, assignment)
        assert not CNF(1, [[]]).is_satisfied_by({1: True})
        assert CNF(2).is_satisfied_by({})


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            luby(0)


class TestBasicSolving:
    def test_empty_formula_sat(self):
        assert solve_cdcl(CNF()) == {}
        assert solve_dpll(CNF()) == {}

    def test_unit_contradiction(self):
        cnf = CNF(1, [[1], [-1]])
        assert solve_cdcl(cnf) is None
        assert solve_dpll(cnf) is None

    def test_simple_sat_model_is_valid(self):
        cnf = CNF(3, [[1, 2], [-1, 3], [-2, -3]])
        for solve in (solve_cdcl, solve_dpll):
            model = solve(cnf)
            assert model is not None and cnf.is_satisfied_by(model)

    def test_pigeonhole_2_into_1_unsat(self):
        # two pigeons, one hole
        cnf = CNF(2, [[1], [2], [-1, -2]])
        assert solve_cdcl(cnf) is None

    def test_php_3_2(self):
        # 3 pigeons, 2 holes: p_ij = pigeon i in hole j
        def var(i, j):
            return i * 2 + j + 1

        cnf = CNF()
        for i in range(3):
            cnf.add_clause([var(i, 0), var(i, 1)])
        for j in range(2):
            for i1 in range(3):
                for i2 in range(i1 + 1, 3):
                    cnf.add_clause([-var(i1, j), -var(i2, j)])
        assert solve_cdcl(cnf) is None
        assert solve_dpll(cnf) is None


class TestAssumptions:
    def test_assumption_forces_value(self):
        cnf = CNF(2, [[1, 2]])
        solver = CDCLSolver(cnf)
        model = solver.solve(assumptions=[-1])
        assert model is not None and model[1] is False and model[2] is True

    def test_conflicting_assumptions_unsat(self):
        cnf = CNF(2, [[1, 2]])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-1, -2]) is None
        # solver stays usable afterwards
        assert solver.solve() is not None

    def test_assumption_contradicting_formula(self):
        cnf = CNF(1, [[1]])
        solver = CDCLSolver(cnf)
        assert solver.solve(assumptions=[-1]) is None
        assert solver.solve() is not None


class TestIncremental:
    def test_add_clause_after_solve(self):
        cnf = CNF(2, [[1, 2]])
        solver = CDCLSolver(cnf)
        model = solver.solve()
        assert model is not None
        # Block it and resolve repeatedly; exactly 3 models exist.
        count = 1
        while True:
            solver.add_clause([(-v if model[v] else v) for v in model])
            model = solver.solve()
            if model is None:
                break
            count += 1
            assert count < 10
        assert count == 3

    def test_blocking_falsified_at_level_zero(self):
        # Regression for the incremental watch-invariant bug: a clause whose
        # literals are all false under level-0 units must flag UNSAT.
        cnf = CNF(2, [[1], [2]])
        solver = CDCLSolver(cnf)
        assert solver.solve() is not None
        solver.add_clause([-1, -2])
        assert solver.solve() is None


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(1, 6))
    num_clauses = draw(st.integers(1, 14))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, 3))
        clause = [
            draw(st.sampled_from([1, -1])) * draw(st.integers(1, num_vars))
            for _ in range(width)
        ]
        clauses.append(clause)
    cnf = CNF(num_vars)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


class TestSolverProperties:
    @settings(max_examples=120, deadline=None)
    @given(random_cnf())
    def test_cdcl_matches_brute_force(self, cnf):
        expected = bool(brute_force_models(cnf))
        model = solve_cdcl(cnf)
        assert (model is not None) == expected
        if model is not None:
            assert cnf.is_satisfied_by(model)

    @settings(max_examples=80, deadline=None)
    @given(random_cnf())
    def test_dpll_agrees_with_cdcl(self, cnf):
        assert (solve_dpll(cnf) is None) == (solve_cdcl(cnf) is None)

    @settings(max_examples=60, deadline=None)
    @given(random_cnf())
    def test_count_models_exact(self, cnf):
        assert count_models(cnf) == len(brute_force_models(cnf))


def _propagate_one_unit_at_a_time(clauses, assignment):
    """Reference propagator: assign the first unit found, then rescan."""
    while True:
        unit = None
        for clause in clauses:
            values = [assignment.get(abs(l)) for l in clause]
            if any(v == (l > 0) for l, v in zip(clause, values)):
                continue
            unassigned = [l for l, v in zip(clause, values) if v is None]
            if not unassigned:
                return False
            if len(unassigned) == 1:
                unit = unassigned[0]
                break
        if unit is None:
            return True
        assignment[abs(unit)] = unit > 0


class TestUnitPropagate:
    def test_unit_chain_collapses(self):
        forced = {}
        assert unit_propagate(CNF(3, [[1], [-1, 2], [-2, 3]]).clauses, forced)
        assert forced == {1: True, 2: True, 3: True}

    def test_unit_conflict_detected(self):
        forced = {}
        assert not unit_propagate(CNF(2, [[1], [-1, 2], [-2, -1]]).clauses, forced)

    def test_falsified_clause_is_a_conflict(self):
        # Nothing to propagate, but the given assignment falsifies a clause.
        assignment = {1: False, 2: False}
        assert not unit_propagate([[1, 2], [3, 4]], assignment)

    def test_matches_one_unit_at_a_time(self):
        """Same fixpoint and same conflict verdict as the naive reference on
        2,000 seeded random CNFs, each from an empty assignment and from a
        random partial one, as DPLL's assumptions give it (unit propagation
        is confluent)."""
        rng = random.Random(2018)
        conflicts = 0
        for _ in range(2000):
            num_vars = rng.randint(1, 12)
            cnf = CNF(num_vars)
            for _ in range(rng.randint(0, 30)):
                cnf.add_clause(
                    [
                        rng.choice((-1, 1)) * rng.randint(1, num_vars)
                        for _ in range(rng.randint(1, 3))
                    ]
                )
            given = {
                rng.randint(1, num_vars): rng.random() < 0.5
                for _ in range(rng.randint(0, 2))
            }
            for start in ({}, given):
                forced, expected = dict(start), dict(start)
                ok = unit_propagate(cnf.clauses, forced)
                assert ok == _propagate_one_unit_at_a_time(cnf.clauses, expected)
                if ok:
                    assert forced == expected
                else:
                    conflicts += 1
        assert 0 < conflicts < 4000


class TestAllSAT:
    def test_enumerates_distinct_total_models(self):
        cnf = CNF(3, [[1, 2, 3]])
        models = list(AllSATSolver(cnf, minimize=False))
        assert len(models) == 7
        assert len({tuple(sorted(m.items())) for m in models}) == 7

    def test_minimized_cubes_cover_exactly(self):
        cnf = CNF(3, [[1, 2, 3]])
        covered = set()
        for cube in AllSATSolver(cnf, minimize=True):
            free = [v for v in (1, 2, 3) if v not in cube]
            for bits in itertools.product([False, True], repeat=len(free)):
                total = dict(cube)
                total.update(dict(zip(free, bits)))
                key = tuple(sorted(total.items()))
                assert key not in covered, "cubes must be disjoint"
                covered.add(key)
                assert cnf.is_satisfied_by(total)
        assert len(covered) == 7

    def test_projection(self):
        cnf = CNF(3, [[1, 2], [3]])
        models = list(AllSATSolver(cnf, projection=[1, 2], minimize=False))
        assert len(models) == 3
        assert all(set(m) == {1, 2} for m in models)

    def test_max_models(self):
        cnf = CNF(4, [])
        solver = AllSATSolver(cnf, minimize=False, max_models=5)
        assert len(list(solver)) == 5

    def test_unsat_yields_nothing(self):
        cnf = CNF(1, [[1], [-1]])
        assert list(AllSATSolver(cnf)) == []

    def test_iterate_models_restart_route(self):
        cnf = CNF(2, [[1, 2]])
        assert len(list(iterate_models(cnf))) == 3

    @settings(max_examples=40, deadline=None)
    @given(random_cnf())
    def test_external_restarts_agree_with_native(self, cnf):
        native = count_models(cnf)
        external = len(list(iterate_models(cnf)))
        assert external == native or native == len(brute_force_models(cnf))
        assert external == len(brute_force_models(cnf))
