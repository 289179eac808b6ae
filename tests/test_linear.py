"""Tests for the linear substrate: simplex, IIS, branch & bound, components."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Relation, parse_constraint
from repro.linear import (
    BranchAndBoundSolver,
    LinearConstraint,
    LinearSystem,
    LPStatus,
    SimplexSolver,
    check_feasibility,
    extract_iis,
    is_infeasible_subset,
    optimize,
    solve_mixed_integer,
)
from repro.linear.simplex import EPSILON_VAR, LPResult


def row(text, tag=None):
    return LinearConstraint.from_constraint(parse_constraint(text), tag=tag)


def system(*texts, domains=None):
    sys_ = LinearSystem([row(t, tag=i + 1) for i, t in enumerate(texts)])
    for var, domain in (domains or {}).items():
        sys_.set_domain(var, domain)
    return sys_


class TestRowNormalization:
    def test_from_constraint_moves_constants(self):
        r = row("2*x + 1 <= x + 4")
        assert r.coeffs == {"x": Fraction(1)}
        assert r.bound == Fraction(3)

    def test_trivial_rows(self):
        assert row("1 <= 2").is_trivial() and row("1 <= 2").trivially_true()
        assert not row("3 <= 2").trivially_true()

    def test_negated_equality_splits(self):
        alts = row("x = 1").negated()
        assert {a.relation for a in alts} == {Relation.LT, Relation.GT}

    def test_negated_inequality(self):
        (alt,) = row("x <= 1").negated()
        assert alt.relation is Relation.GT


class TestFeasibility:
    def test_feasible_point_satisfies_system(self):
        sys_ = system("x + y <= 10", "x - y >= 2", "y >= -1")
        result = check_feasibility(sys_)
        assert result.status is LPStatus.FEASIBLE
        assert sys_.check_point(result.point)

    def test_infeasible(self):
        result = check_feasibility(system("x >= 5", "x <= 3"))
        assert result.status is LPStatus.INFEASIBLE

    def test_equalities(self):
        result = check_feasibility(system("2*x + 3*y = 12", "x - y = 1"))
        assert result.point == {"x": Fraction(3), "y": Fraction(2)}

    def test_strict_feasible(self):
        result = check_feasibility(system("x > 0", "x < 1"))
        assert result.status is LPStatus.FEASIBLE
        assert 0 < result.point["x"] < 1

    def test_strict_infeasible_boundary(self):
        assert check_feasibility(system("x > 1", "x <= 1")).status is LPStatus.INFEASIBLE
        assert check_feasibility(system("x >= 1", "x <= 1")).status is LPStatus.FEASIBLE

    def test_strict_equality_interaction(self):
        assert check_feasibility(system("x = 1", "x < 1")).status is LPStatus.INFEASIBLE

    def test_free_variables_go_negative(self):
        result = check_feasibility(system("x <= -5"))
        assert result.point["x"] <= Fraction(-5)

    def test_trivially_false_row(self):
        result = check_feasibility(system("0 >= 7"))
        assert result.status is LPStatus.INFEASIBLE

    def test_empty_system(self):
        assert check_feasibility(LinearSystem()).status is LPStatus.FEASIBLE


class TestFarkasCore:
    def test_core_indices_identify_conflict(self):
        sys_ = LinearSystem(
            [row("y <= 100"), row("x >= 5"), row("x <= 3"), row("z >= 0")]
        )
        result = SimplexSolver().check(sys_)
        assert result.status is LPStatus.INFEASIBLE
        assert result.core_indices is not None
        core_rows = [sys_.rows[i] for i in result.core_indices]
        assert is_infeasible_subset(core_rows)

    def test_strict_core(self):
        sys_ = LinearSystem([row("x < 0"), row("x > 0"), row("y <= 1")])
        result = SimplexSolver().check(sys_)
        assert result.status is LPStatus.INFEASIBLE
        core_rows = [sys_.rows[i] for i in result.core_indices]
        assert is_infeasible_subset(core_rows)
        assert len(core_rows) <= 2


class TestOptimize:
    def test_maximize(self):
        sys_ = system("x + y <= 4", "x >= 0", "y >= 0")
        result = optimize(sys_, {"x": Fraction(3), "y": Fraction(2)}, maximize=True)
        assert result.objective == Fraction(12)

    def test_minimize(self):
        sys_ = system("x >= 2", "x <= 9")
        result = optimize(sys_, {"x": Fraction(1)}, maximize=False)
        assert result.objective == Fraction(2)

    def test_unbounded(self):
        result = optimize(system("x >= 0"), {"x": Fraction(1)}, maximize=True)
        assert result.status is LPStatus.UNBOUNDED

    def test_degenerate_cycling_terminates(self):
        # Beale's classic cycling example (cycles without anti-cycling rule).
        rows = [
            LinearConstraint(
                {"x1": Fraction(1, 4), "x2": Fraction(-8), "x3": Fraction(-1), "x4": Fraction(9)},
                Relation.LE,
                Fraction(0),
            ),
            LinearConstraint(
                {"x1": Fraction(1, 2), "x2": Fraction(-12), "x3": Fraction(-1, 2), "x4": Fraction(3)},
                Relation.LE,
                Fraction(0),
            ),
            LinearConstraint({"x3": Fraction(1)}, Relation.LE, Fraction(1)),
            LinearConstraint({"x1": Fraction(1)}, Relation.GE, Fraction(0)),
            LinearConstraint({"x2": Fraction(1)}, Relation.GE, Fraction(0)),
            LinearConstraint({"x3": Fraction(1)}, Relation.GE, Fraction(0)),
            LinearConstraint({"x4": Fraction(1)}, Relation.GE, Fraction(0)),
        ]
        objective = {
            "x1": Fraction(-3, 4),
            "x2": Fraction(150),
            "x3": Fraction(-1, 50),
            "x4": Fraction(6),
        }
        result = SimplexSolver().optimize(LinearSystem(rows), objective, maximize=False)
        assert result.status is LPStatus.FEASIBLE
        # optimum cross-checked against scipy.optimize.linprog
        assert result.objective == Fraction(-77, 100)


class TestIIS:
    def test_iis_is_irreducible(self):
        sys_ = LinearSystem(
            [
                row("x >= 5", tag="a"),
                row("x <= 3", tag="b"),
                row("y <= 100", tag="c"),
                row("x + y >= 0", tag="d"),
            ]
        )
        core = extract_iis(sys_)
        assert sorted(str(r.tag) for r in core) == ["a", "b"]
        # irreducibility: every proper subset is feasible
        for skip in range(len(core)):
            subset = core[:skip] + core[skip + 1 :]
            assert not subset or not is_infeasible_subset(subset)

    def test_iis_on_feasible_raises(self):
        with pytest.raises(ValueError):
            extract_iis(system("x >= 0"))

    def test_chain_conflict(self):
        sys_ = LinearSystem(
            [
                row("x - y <= -1", tag=1),
                row("y - z <= -1", tag=2),
                row("z - x <= -1", tag=3),
                row("q >= 0", tag=4),
            ]
        )
        core = extract_iis(sys_)
        assert sorted(r.tag for r in core) == [1, 2, 3]


class TestBranchAndBound:
    def test_integer_rounding(self):
        sys_ = system("2*x >= 1", "2*x <= 3", domains={"x": "int"})
        result = solve_mixed_integer(sys_)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] == Fraction(1)

    def test_integer_infeasible(self):
        sys_ = system("3*x = 2", domains={"x": "int"})
        assert solve_mixed_integer(sys_).status is LPStatus.INFEASIBLE

    def test_mixed_real_integer(self):
        sys_ = system("x + y = 2.5", "x >= 1", "y >= 1", domains={"x": "int"})
        result = solve_mixed_integer(sys_)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"].denominator == 1
        assert result.point["x"] + result.point["y"] == Fraction(5, 2)

    def test_dive_keeps_one_branch_row_per_variable_and_side(self):
        # The floor-first dive on this system bounds y from above three times
        # over; each bound must replace the last one, never pile up behind it.
        input_rows = [
            row("8*y >= -1", tag=1),
            row("-4*x - 3*y = -9", tag=2),
            row("y <= 10", tag="branch"),  # an input row may carry any tag
        ]
        seen = []

        class Spy(SimplexSolver):
            def check(self, system):
                seen.append(list(system.rows))
                return super().check(system)

        sys_ = LinearSystem(input_rows, {"x": "int", "y": "int"})
        result = BranchAndBoundSolver(simplex=Spy()).check(sys_)
        assert result.status is LPStatus.FEASIBLE and sys_.check_point(result.point)
        assert max(len(rows) for rows in seen) > len(input_rows) + 1
        for rows in seen:
            assert all(a is b for a, b in zip(rows, input_rows))
            sides = [(tuple(r.coeffs), r.relation) for r in rows[len(input_rows):]]
            assert len(sides) == len(set(sides)), [str(r) for r in rows]

    def test_node_budget(self):
        solver = BranchAndBoundSolver(max_nodes=1)
        sys_ = system("x + y = 2.5", "x >= 0", "y >= 0", domains={"x": "int", "y": "int"})
        with pytest.raises(RuntimeError):
            solver.check(sys_)

    def test_tight_integer_window(self):
        sys_ = system("x > 1", "x < 2", domains={"x": "int"})
        assert solve_mixed_integer(sys_).status is LPStatus.INFEASIBLE

    def test_many_independent_cells(self):
        rows = []
        domains = {}
        for i in range(20):
            rows.append(row(f"x{i} > {i}"))
            rows.append(row(f"x{i} < {i + 2}"))
            domains[f"x{i}"] = "int"
        sys_ = LinearSystem(rows, domains)
        result = solve_mixed_integer(sys_)
        assert result.status is LPStatus.FEASIBLE
        for i in range(20):
            assert result.point[f"x{i}"] == Fraction(i + 1)


class TestComponents:
    def test_split_independent(self):
        sys_ = system("x <= 1", "y >= 2", "x + z >= 0")
        components = sys_.split_components()
        assert len(components) == 2
        sizes = sorted(len(c.rows) for c in components)
        assert sizes == [1, 2]

    def test_trivial_rows_kept(self):
        sys_ = system("1 <= 2", "x <= 1")
        components = sys_.split_components()
        assert sum(len(c.rows) for c in components) == 2

    def test_domains_propagate(self):
        sys_ = system("x <= 1", domains={"x": "int"})
        (component,) = sys_.split_components()
        assert component.domains == {"x": "int"}


@st.composite
def random_interval_system(draw):
    """Systems of per-variable intervals: feasibility is decidable by hand."""
    n = draw(st.integers(1, 4))
    rows, feasible = [], True
    for i in range(n):
        low = draw(st.integers(-10, 10))
        width = draw(st.integers(-3, 5))
        high = low + width
        rows.append(row(f"x{i} >= {low}"))
        rows.append(row(f"x{i} <= {high}"))
        if width < 0:
            feasible = False
    return LinearSystem(rows), feasible


class TestSimplexProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_interval_system())
    def test_interval_systems(self, case):
        sys_, feasible = case
        result = check_feasibility(sys_)
        assert (result.status is LPStatus.FEASIBLE) == feasible
        if feasible:
            assert sys_.check_point(result.point)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(-5, 5), st.integers(-5, 5), st.integers(-10, 10),
                st.sampled_from(["<=", ">=", "<", ">"]),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_feasible_points_verify(self, raw_rows):
        rows = []
        for a, b, c, op in raw_rows:
            if a == 0 and b == 0:
                continue
            rows.append(row(f"{a}*x + {b}*y {op} {c}"))
        if not rows:
            return
        sys_ = LinearSystem(rows)
        result = check_feasibility(sys_)
        if result.status is LPStatus.FEASIBLE:
            assert sys_.check_point(result.point)
        else:
            # cross-check infeasibility via the Farkas core
            assert result.core_indices
            assert is_infeasible_subset([sys_.rows[i] for i in result.core_indices])


class _TableauSimplex(SimplexSolver):
    """Reference: ``SimplexSolver.check`` before the single-variable closed
    form, so every system goes through the two-phase tableau."""

    def check(self, system):
        trivial = self._check_trivial_rows(system)
        if trivial is not None:
            if trivial.status is LPStatus.INFEASIBLE:
                core = [
                    index
                    for index, row in enumerate(system.rows)
                    if row.is_trivial() and not row.trivially_true()
                ][:1]
                return LPResult(LPStatus.INFEASIBLE, core_indices=core)
            return trivial
        positions = [i for i, row in enumerate(system.rows) if not row.is_trivial()]
        rows = [system.rows[i] for i in positions]
        signature = None
        if self.warm_start:
            signature = self._structural_signature(rows)
            cached = self._warm_points.get(signature)
            if cached is not None and self._point_satisfies(rows, cached):
                self.warm_hits += 1
                return LPResult(LPStatus.FEASIBLE, dict(cached), Fraction(0))
        has_strict = any(row.relation in (Relation.LT, Relation.GT) for row in rows)
        if not has_strict:
            result = self._solve(rows, objective=None, maximize=False)
        else:
            result = self._solve(
                rows,
                objective={EPSILON_VAR: Fraction(1)},
                maximize=True,
                epsilon_mode=True,
            )
        if result.status is LPStatus.INFEASIBLE and result.core_indices is not None:
            result.core_indices = sorted(positions[i] for i in result.core_indices)
        if result.status is LPStatus.FEASIBLE:
            result.point.pop(EPSILON_VAR, None)
            if signature is not None:
                if len(self._warm_points) >= self.WARM_CACHE_LIMIT:
                    self._warm_points.clear()
                self._warm_points[signature] = dict(result.point)
        return result


def _random_single_variable_system(rng):
    rows = []
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.1:
            rows.append(LinearConstraint({}, Relation.LE, Fraction(rng.randint(0, 2))))
            continue
        coeff = Fraction(rng.choice((1, 2, 3, 5)) * rng.choice((1, -1)), rng.choice((1, 2, 3)))
        bound = Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 7)))
        rows.append(LinearConstraint({"x": coeff}, rng.choice(list(Relation)), bound))
    if all(row.is_trivial() for row in rows):
        rows.append(LinearConstraint({"x": Fraction(1)}, Relation.GE, Fraction(0)))
    rng.shuffle(rows)
    domains = {"x": "int"} if rng.random() < 0.3 else {}
    return LinearSystem(rows, domains)


class TestSingleVariableClosedForm:
    """One-variable systems skip the tableau; the answers must not change."""

    @staticmethod
    def assert_matches_tableau(sys_):
        closed = SimplexSolver().check(sys_)
        tableau = _TableauSimplex().check(sys_)
        assert (closed.status, closed.point, closed.objective) == (
            tableau.status,
            tableau.point,
            tableau.objective,
        ), [str(r) for r in sys_.rows]
        if closed.status is LPStatus.INFEASIBLE:
            core = [sys_.rows[i] for i in closed.core_indices]
            assert is_infeasible_subset(core, solver=_TableauSimplex())
            for core_row in core:
                assert not is_infeasible_subset([core_row], solver=_TableauSimplex())
        if sys_.integer_variables():
            integral = BranchAndBoundSolver().check(sys_)
            reference = BranchAndBoundSolver(simplex=_TableauSimplex()).check(sys_)
            assert (integral.status, integral.point) == (reference.status, reference.point)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_systems_match_the_tableau(self, seed):
        rng = random.Random(seed)
        for _ in range(1000):
            self.assert_matches_tableau(_random_single_variable_system(rng))

    @pytest.mark.parametrize(
        "texts, domains, feasible",
        [
            (("x >= 5", "x <= 3"), None, False),
            (("x > 3", "x <= 3"), None, False),
            (("x >= 3", "x <= 3", "x < 3"), None, False),
            (("x = 3",), None, True),
            (("2*x = 1",), {"x": "int"}, False),
        ],
    )
    def test_bound_cases(self, texts, domains, feasible):
        sys_ = system(*texts, domains=domains)
        self.assert_matches_tableau(sys_)
        assert (solve_mixed_integer(sys_).status is LPStatus.FEASIBLE) == feasible

    def test_multi_variable_system_takes_the_tableau(self, monkeypatch):
        calls = []
        tableau = SimplexSolver._solve

        def spy(self, rows, *args, **kwargs):
            calls.append(len(rows))
            return tableau(self, rows, *args, **kwargs)

        monkeypatch.setattr(SimplexSolver, "_solve", spy)
        assert check_feasibility(system("x >= 1", "x < 3")).is_feasible
        assert calls == []
        assert check_feasibility(system("x + y <= 4", "x >= 1", "y > 1")).is_feasible
        assert calls == [3]
