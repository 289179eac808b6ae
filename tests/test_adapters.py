"""Direct tests for the solver-interface adapters (Fig. 4 layer)."""

import random
from fractions import Fraction

import pytest

from repro.core.expr import Relation, parse_constraint
from repro.core.interface import (
    AugLagNonlinearAdapter,
    BranchBoundLinearAdapter,
    CDCLBooleanAdapter,
    DifferenceLinearAdapter,
    DPLLBooleanAdapter,
    LSATBooleanAdapter,
    NewtonNonlinearAdapter,
    SimplexLinearAdapter,
)
from repro.linear import (
    BranchAndBoundSolver,
    DifferenceLogicSolver,
    LinearConstraint,
    LinearSystem,
    LPResult,
    LPStatus,
    SimplexSolver,
    extract_iis,
    is_difference_system,
)
from repro.nonlinear import NLPStatus
from repro.sat import CNF


def row(text, tag=None):
    return LinearConstraint.from_constraint(parse_constraint(text), tag=tag)


class TestBooleanAdapters:
    def test_cdcl_statistics_exposed(self):
        adapter = CDCLBooleanAdapter()
        cnf = CNF(2, [[1, 2], [-1, 2]])
        assert adapter.solve(cnf) is not None
        stats = adapter.statistics
        assert "decisions" in stats and "conflicts" in stats

    def test_dpll_add_clause(self):
        adapter = DPLLBooleanAdapter()
        cnf = CNF(1, [[1]])
        assert adapter.solve(cnf) is not None
        adapter.add_clause([-1])
        assert adapter.solve(cnf) is None

    def test_dpll_add_clause_before_solve_buffered(self):
        # Clauses learned before the first solve (e.g. presolve units) are
        # buffered and take effect once the CNF arrives.
        adapter = DPLLBooleanAdapter()
        adapter.add_clause([-1])
        assert adapter.solve(CNF(1, [[1]])) is None

    def test_lsat_single_solve_delegates(self):
        adapter = LSATBooleanAdapter()
        cnf = CNF(1, [[1]])
        model = adapter.solve(cnf)
        assert model == {1: True}


class TestLinearAdapters:
    def feasible_system(self):
        return LinearSystem([row("x + y <= 4", tag=1), row("x - y >= 0", tag=2)])

    def infeasible_system(self):
        return LinearSystem(
            [row("x >= 5", tag=1), row("x <= 3", tag=2), row("z >= 0", tag=3)]
        )

    def test_simplex_adapter_check(self):
        adapter = SimplexLinearAdapter()
        assert adapter.check(self.feasible_system()).status is LPStatus.FEASIBLE
        assert adapter.check(self.infeasible_system()).status is LPStatus.INFEASIBLE

    def test_simplex_adapter_refine_is_minimal(self):
        adapter = SimplexLinearAdapter()
        system = self.infeasible_system()
        assert adapter.check(system).status is LPStatus.INFEASIBLE
        refinement = adapter.refine(system)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2]
        assert sorted(refinement.blocking_clause()) == [-2, -1]

    def test_simplex_adapter_coarse_mode(self):
        adapter = SimplexLinearAdapter(refine_minimal=False)
        refinement = adapter.refine(self.infeasible_system())
        assert not refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2, 3]

    def test_component_merging(self):
        adapter = SimplexLinearAdapter()
        system = LinearSystem([row("x <= 1"), row("y >= 7")])
        result = adapter.check(system)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] <= 1 and result.point["y"] >= 7

    def test_branch_bound_adapter(self):
        adapter = BranchBoundLinearAdapter()
        system = LinearSystem([row("2*x >= 1"), row("2*x <= 3")], {"x": "int"})
        result = adapter.check(system)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] == Fraction(1)

    def test_difference_adapter_fragment_routing(self):
        adapter = DifferenceLinearAdapter()
        # inside the fragment
        dl = LinearSystem([row("x - y <= -1", tag=1), row("y - x <= -1", tag=2)])
        assert adapter.check(dl).status is LPStatus.INFEASIBLE
        refinement = adapter.refine(dl)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2]
        # outside the fragment: falls back to the simplex
        general = LinearSystem([row("x + y <= 4", tag=1)])
        assert adapter.check(general).status is LPStatus.FEASIBLE


_RELATIONS = (Relation.LE, Relation.GE, Relation.LT, Relation.GT, Relation.EQ)


def _seeded_system(seed: int, difference: bool) -> LinearSystem:
    """Rows over one to three variable groups, some of them integer.

    An integer group's variables are boxed in ``[-3, 3]`` by untagged rows,
    so branch-and-bound stays small.  With ``difference`` most rows are
    ``x - y REL c`` and no variable is integer, so systems lie wholly or
    partly inside the fragment.
    """
    rng = random.Random(seed)
    rows, domains, tag = [], {}, 0
    for group in range(rng.randint(1, 3)):
        names = [f"g{group}v{i}" for i in range(rng.randint(1, 3))]
        if not difference and rng.random() < 0.3:
            for name in names:
                domains[name] = "int"
                rows.append(LinearConstraint({name: Fraction(1)}, Relation.GE, Fraction(-3)))
                rows.append(LinearConstraint({name: Fraction(1)}, Relation.LE, Fraction(3)))
        for _ in range(rng.randint(2, 6)):
            tag += 1
            if difference and len(names) > 1 and rng.random() < 0.8:
                first, second = rng.sample(names, 2)
                coeffs = {first: Fraction(1), second: Fraction(-1)}
            else:
                chosen = rng.sample(names, rng.randint(1, len(names)))
                coeffs = {name: Fraction(rng.choice((-3, -2, -1, 1, 2, 3))) for name in chosen}
            bound = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2)))
            rows.append(LinearConstraint(coeffs, rng.choice(_RELATIONS), bound, tag=tag))
    rng.shuffle(rows)
    return LinearSystem(rows, domains)


def _check_component(component: LinearSystem) -> LPResult:
    if component.integer_variables():
        return BranchAndBoundSolver().check(component)
    if is_difference_system(component):
        return DifferenceLogicSolver().check(component)
    return SimplexSolver().check(component)


def _tags(rows):
    return [row.tag for row in rows if isinstance(row.tag, int)]


def _reference_refine(system: LinearSystem, difference: bool):
    """The refinement as made before a check handed its failure over:
    Bellman–Ford on the fragment's parts (difference adapter only), then
    every component re-checked in order, the failing one's real relaxation
    solved, and the deletion filter solving it once more."""
    if difference:
        if is_difference_system(system):
            parts = [system]
        else:
            parts = [c for c in system.split_components() if is_difference_system(c)]
        for part in parts:
            result = DifferenceLogicSolver().check(part)
            if result.status is LPStatus.INFEASIBLE:
                return [part.rows[i].tag for i in result.core_indices], True
    simplex = SimplexSolver()
    for component in system.split_components():
        if _check_component(component).status is not LPStatus.FEASIBLE:
            if simplex.check(component).status is not LPStatus.INFEASIBLE:
                return _tags(component.rows), False
            return _tags(extract_iis(component, simplex)), True
    return _tags(system.rows), False


class _SimplexSpy:
    """Records the rows of every simplex check an adapter makes."""

    def __init__(self, adapter):
        self.calls = []
        original = adapter._simplex.check

        def check(system):
            self.calls.append(frozenset(map(id, system.rows)))
            return original(system)

        adapter._simplex.check = check


class TestRefineHandoff:
    """``refine`` starts from the failed check of the same system object."""

    ADAPTERS = {"simplex": SimplexLinearAdapter, "difference": DifferenceLinearAdapter}

    @pytest.mark.parametrize("name", sorted(ADAPTERS))
    def test_seeded_cores_match_the_reference(self, name):
        difference = name == "difference"
        refined = 0
        for seed in range(150):
            system = _seeded_system(seed, difference)
            adapter = self.ADAPTERS[name]()
            if adapter.check(system).status is LPStatus.FEASIBLE:
                continue
            refinement = adapter.refine(system)
            expected = _reference_refine(system, difference)
            assert (refinement.conflicting_tags, refinement.minimal) == expected, seed
            refined += 1
        assert refined >= 40

    def test_real_component_is_not_solved_again(self):
        checked = 0
        for seed in range(150):
            system = _seeded_system(seed, difference=False)
            if system.integer_variables():
                continue
            adapter = SimplexLinearAdapter()
            if adapter.check(system).status is LPStatus.FEASIBLE:
                continue
            failing = next(
                c for c in system.split_components()
                if SimplexSolver().check(c).status is LPStatus.INFEASIBLE
            )
            spy = _SimplexSpy(adapter)
            adapter.refine(system)
            assert frozenset(map(id, failing.rows)) not in spy.calls, seed
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("name", sorted(ADAPTERS))
    def test_ip_infeasible_component_blocks_all_its_rows(self, name):
        system = LinearSystem(
            [row("y <= 3", tag=3), row("2*x >= 1", tag=1), row("2*x <= 1", tag=2)],
            {"x": "int"},
        )
        adapter = self.ADAPTERS[name]()
        assert adapter.check(system).status is LPStatus.INFEASIBLE
        refinement = adapter.refine(system)
        assert sorted(refinement.conflicting_tags) == [1, 2]
        assert not refinement.minimal

    CONFLICTS = {
        "simplex": (
            ["x + y <= 1", "x >= 2", "y >= 0"],
            ["x + y >= 5", "x <= 1", "y <= 1"],
        ),
        "difference": (
            ["x - y <= -1", "y - x <= -1"],
            ["x - y <= 0", "y - z <= 0", "z - x <= -1"],
        ),
        "mixed": (
            ["2*x + y <= 1", "x >= 1", "y >= 0", "a - b <= 0"],
            ["2*x + y >= 9", "x <= 1", "y <= 1", "a - b <= 0"],
        ),
    }

    @staticmethod
    def _system(texts, first_tag):
        return LinearSystem([row(text, tag=first_tag + i) for i, text in enumerate(texts)])

    def _cases(self):
        for kind, (old, new) in self.CONFLICTS.items():
            difference = kind != "simplex"
            adapter = self.ADAPTERS["difference" if difference else "simplex"]()
            yield kind, adapter, difference, old, new

    def _refined_as_reference(self, adapter, system, difference, kind):
        refinement = adapter.refine(system)
        expected = _reference_refine(system, difference)
        assert (refinement.conflicting_tags, refinement.minimal) == expected, kind

    def test_a_feasible_check_clears_the_handoff(self):
        for kind, adapter, difference, old, new in self._cases():
            system = self._system(old, 1)
            assert adapter.check(system).status is LPStatus.INFEASIBLE
            assert adapter.check(self._system(["x <= 1"], 50)).status is LPStatus.FEASIBLE
            system.rows[:] = self._system(new, 11).rows
            self._refined_as_reference(adapter, system, difference, kind)

    def test_refine_consumes_the_handoff(self):
        for kind, adapter, difference, old, new in self._cases():
            system = self._system(old, 1)
            assert adapter.check(system).status is LPStatus.INFEASIBLE
            self._refined_as_reference(adapter, system, difference, kind)
            system.rows[:] = self._system(new, 11).rows
            self._refined_as_reference(adapter, system, difference, kind)

    def test_handoff_matches_the_system_object_not_its_rows(self):
        for kind, adapter, difference, old, _ in self._cases():
            assert adapter.check(self._system(old, 1)).status is LPStatus.INFEASIBLE
            # Rows compare equal whatever their tags.
            twin = self._system(old, 31)
            assert twin.rows == self._system(old, 1).rows
            self._refined_as_reference(adapter, twin, difference, kind)


class TestNonlinearAdapters:
    def test_newton_applicability_filter(self):
        adapter = NewtonNonlinearAdapter()
        square = [parse_constraint("x*x = 4")]
        assert adapter.applicable(square)
        assert not adapter.applicable([parse_constraint("x <= 1")])
        result = adapter.solve(square, hints=[{"x": 1.0}])
        assert result.status is NLPStatus.SAT

    def test_newton_nonconvergence_is_unknown(self):
        adapter = NewtonNonlinearAdapter()
        result = adapter.solve([parse_constraint("x*x = -1")], hints=[{"x": 1.0}])
        assert result.status is NLPStatus.UNKNOWN

    def test_auglag_adapter(self):
        adapter = AugLagNonlinearAdapter()
        result = adapter.solve(
            [parse_constraint("x * y >= 4"), parse_constraint("x + y <= 5")],
            bounds={"x": (0, 5), "y": (0, 5)},
        )
        assert result.status is NLPStatus.SAT
