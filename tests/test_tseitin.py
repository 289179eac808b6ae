"""Tests for the Tseitin encoder: truth correspondence and sharing."""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sat import (
    CNF,
    BAnd,
    BConst,
    BIff,
    BImplies,
    BNot,
    BOr,
    BVar,
    BXor,
    solve_cdcl,
    tseitin_encode,
)
from repro.sat.cdcl import CDCLSolver


def models_of_formula(formula):
    atoms = sorted(formula.atoms())
    for bits in itertools.product([False, True], repeat=len(atoms)):
        env = dict(zip(atoms, bits))
        yield env, formula.evaluate(env)


def assert_equisatisfiable_per_assignment(formula):
    """For every atom assignment, CNF+assumptions is SAT iff formula true."""
    result = tseitin_encode(formula)
    for env, truth in models_of_formula(formula):
        solver = CDCLSolver(result.cnf)
        assumptions = [
            (result.atom_map[name] if value else -result.atom_map[name])
            for name, value in env.items()
            if name in result.atom_map
        ]
        model = solver.solve(assumptions)
        assert (model is not None) == truth, (env, truth)


class TestEncodingBasics:
    def test_single_var(self):
        result = tseitin_encode(BVar("a"))
        assert solve_cdcl(result.cnf) is not None

    def test_const_true_false(self):
        assert solve_cdcl(tseitin_encode(BConst(True)).cnf) is not None
        assert solve_cdcl(tseitin_encode(BConst(False)).cnf) is None

    def test_contradiction(self):
        formula = BAnd(BVar("a"), BNot(BVar("a")))
        assert solve_cdcl(tseitin_encode(formula).cnf) is None

    def test_and_or_not(self):
        assert_equisatisfiable_per_assignment(
            BAnd(BOr(BVar("a"), BVar("b")), BNot(BVar("c")))
        )

    def test_implies(self):
        assert_equisatisfiable_per_assignment(BImplies(BVar("a"), BVar("b")))

    def test_iff(self):
        assert_equisatisfiable_per_assignment(BIff(BVar("a"), BVar("b")))

    def test_xor_chain(self):
        assert_equisatisfiable_per_assignment(BXor(BVar("a"), BVar("b"), BVar("c")))

    def test_nary_gates(self):
        assert_equisatisfiable_per_assignment(
            BOr(BVar("a"), BVar("b"), BVar("c"), BVar("d"))
        )

    def test_fig1_structure(self):
        # ((i>=0 & j>=0) & (!lt10 | lt5) & ge71) with atoms as plain vars
        formula = BAnd(
            BAnd(BVar("i_ge0"), BVar("j_ge0")),
            BOr(BNot(BVar("lt10")), BVar("lt5")),
            BVar("ge71"),
        )
        assert_equisatisfiable_per_assignment(formula)


class TestSharing:
    def test_shared_subformula_encoded_once(self):
        shared = BAnd(BVar("a"), BVar("b"))
        formula = BOr(shared, BNot(shared))
        result = tseitin_encode(formula)
        # one gate var for `shared`, one for the OR, two atoms (+2 from BNot? no)
        assert result.cnf.num_vars <= 4

    def test_accumulation_into_existing_cnf(self):
        cnf = CNF()
        atom_map = {}
        tseitin_encode(BVar("a"), cnf, atom_map)
        tseitin_encode(BOr(BVar("a"), BVar("b")), cnf, atom_map)
        # 'a' keeps the same variable index across both calls
        assert atom_map["a"] == 1
        assert solve_cdcl(cnf) is not None

    def test_assert_root_false(self):
        formula = BAnd(BVar("a"), BNot(BVar("a")))
        result = tseitin_encode(formula, assert_root=False)
        # without asserting the root, the CNF is satisfiable (gate def only)
        assert solve_cdcl(result.cnf) is not None


_formulas = st.recursive(
    st.sampled_from([BVar("p"), BVar("q"), BVar("r"), BConst(True), BConst(False)]),
    lambda children: st.one_of(
        children.map(BNot),
        st.tuples(children, children).map(lambda t: BAnd(*t)),
        st.tuples(children, children).map(lambda t: BOr(*t)),
        st.tuples(children, children).map(lambda t: BXor(*t)),
        st.tuples(children, children).map(lambda t: BImplies(*t)),
        st.tuples(children, children).map(lambda t: BIff(*t)),
    ),
    max_leaves=10,
)


class TestTseitinProperties:
    @settings(max_examples=80, deadline=None)
    @given(_formulas)
    def test_satisfiability_matches_truth_table(self, formula):
        result = tseitin_encode(formula)
        expected = any(truth for _, truth in models_of_formula(formula))
        assert (solve_cdcl(result.cnf) is not None) == expected

    @settings(max_examples=60, deadline=None)
    @given(_formulas)
    def test_models_project_to_satisfying_assignments(self, formula):
        result = tseitin_encode(formula)
        model = solve_cdcl(result.cnf)
        if model is None:
            return
        env = {
            name: model[var]
            for name, var in result.atom_map.items()
        }
        # atoms missing from the map do not occur; default them to False
        for atom in formula.atoms():
            env.setdefault(atom, False)
        assert formula.evaluate(env) is True
