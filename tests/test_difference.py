"""Tests for the difference-logic (Bellman–Ford) solver."""

import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Relation, parse_constraint
from repro.core.interface import DifferenceLinearAdapter
from repro.linear import (
    DifferenceLogicSolver,
    LinearConstraint,
    LinearSystem,
    LPStatus,
    SimplexSolver,
    VariableDomain,
    is_difference_row,
    is_difference_system,
)
from repro.linear import difference as difference_module


def row(text, tag=None):
    return LinearConstraint.from_constraint(parse_constraint(text), tag=tag)


class TestFragmentDetection:
    def test_difference_rows(self):
        assert is_difference_row(row("x - y <= 3"))
        assert is_difference_row(row("x <= 3"))
        assert is_difference_row(row("0 - x <= 3"))
        assert is_difference_row(row("1 <= 2"))

    def test_non_difference_rows(self):
        assert not is_difference_row(row("2*x - y <= 3"))
        assert not is_difference_row(row("x + y <= 3"))
        assert not is_difference_row(row("x - y + z <= 3"))

    def test_system_with_int_vars_excluded(self):
        system = LinearSystem([row("x - y <= 1")], {"x": "int"})
        assert not is_difference_system(system)


class TestFeasibility:
    def test_simple_chain(self):
        system = LinearSystem([row("x - y <= 1"), row("y - z <= 2"), row("z <= 0")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.FEASIBLE
        assert system.check_point(result.point)

    def test_negative_cycle_infeasible(self):
        system = LinearSystem(
            [row("x - y <= -1", tag=1), row("y - z <= -1", tag=2), row("z - x <= -1", tag=3)]
        )
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.INFEASIBLE
        assert result.core_indices == [0, 1, 2]

    def test_zero_cycle_weak_feasible(self):
        system = LinearSystem([row("x - y <= 0"), row("y - x <= 0")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.FEASIBLE

    def test_zero_cycle_strict_infeasible(self):
        system = LinearSystem([row("x - y < 0"), row("y - x <= 0")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.INFEASIBLE

    def test_strict_feasible_with_margin(self):
        system = LinearSystem([row("x - y < 5"), row("y - x < -2")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.FEASIBLE
        assert system.check_point(result.point)

    def test_equality_rows(self):
        system = LinearSystem([row("x - y = 3"), row("y = 1")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] == Fraction(4)

    def test_single_variable_bounds(self):
        system = LinearSystem([row("x >= 2"), row("x <= 5")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.FEASIBLE
        assert Fraction(2) <= result.point["x"] <= Fraction(5)

    def test_trivially_false_row(self):
        system = LinearSystem([row("0 >= 1")])
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.INFEASIBLE

    def test_outside_fragment_raises(self):
        with pytest.raises(ValueError):
            DifferenceLogicSolver().check(LinearSystem([row("x + y <= 1")]))

    def test_core_is_infeasible_subset(self):
        system = LinearSystem(
            [
                row("a <= 10"),
                row("x - y <= -2"),
                row("y - x <= 1"),
                row("b >= 0"),
            ]
        )
        result = DifferenceLogicSolver().check(system)
        assert result.status is LPStatus.INFEASIBLE
        core_rows = [system.rows[i] for i in result.core_indices]
        assert SimplexSolver().check(LinearSystem(core_rows)).status is LPStatus.INFEASIBLE


@st.composite
def random_difference_system(draw):
    num_vars = draw(st.integers(2, 5))
    names = [f"v{i}" for i in range(num_vars)]
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.integers(0, 2))
        bound = draw(st.integers(-6, 6))
        relation = draw(st.sampled_from(["<=", "<", ">=", ">", "="]))
        if kind == 0:
            a = draw(st.sampled_from(names))
            rows.append(row(f"{a} {relation} {bound}", tag=len(rows) + 1))
        else:
            a, b = draw(st.sampled_from(names)), draw(st.sampled_from(names))
            if a == b:
                continue
            rows.append(row(f"{a} - {b} {relation} {bound}", tag=len(rows) + 1))
    return LinearSystem(rows)


class TestAgreementWithSimplex:
    @settings(max_examples=60, deadline=None)
    @given(random_difference_system())
    def test_verdicts_match_simplex(self, system):
        bf = DifferenceLogicSolver().check(system)
        lp = SimplexSolver().check(system)
        assert bf.status == lp.status
        if bf.status is LPStatus.FEASIBLE:
            assert system.check_point(bf.point)
        else:
            core_rows = [system.rows[i] for i in bf.core_indices]
            assert SimplexSolver().check(LinearSystem(core_rows)).status is LPStatus.INFEASIBLE

    @settings(max_examples=40, deadline=None)
    @given(st.lists(random_difference_system(), min_size=2, max_size=5))
    def test_adapter_state_never_changes_verdicts(self, systems):
        # One adapter across a sequence of related systems, driven the way
        # the lazy loop drives it (check, then refine on a conflict): every
        # verdict must match a cold simplex and every core must be
        # infeasible on its own.
        adapter = DifferenceLinearAdapter()
        for system in systems:
            result = adapter.check(system)
            lp = SimplexSolver().check(system)
            assert result.status == lp.status
            if result.status is LPStatus.FEASIBLE:
                assert system.check_point(result.point)
            else:
                tags = adapter.refine(system).conflicting_tags
                core_rows = [system.rows[tag - 1] for tag in tags]
                assert (
                    SimplexSolver().check(LinearSystem(core_rows)).status
                    is LPStatus.INFEASIBLE
                )


# ----------------------------------------------------------------------
# Fraction reference: the Bellman–Ford loop over (Fraction, strict count)
# distances that the integer kernel replaced, kept to pin that the kernel
# returns identical verdicts, cores and points.
# ----------------------------------------------------------------------
_REF_SOURCE = "__zero__"


def _reference_edges(row, index):
    items = sorted(row.coeffs.items())
    if len(items) == 1:
        var, coeff = items[0]
        positive, negative = (var, _REF_SOURCE) if coeff == 1 else (_REF_SOURCE, var)
    else:
        (var_a, coeff_a), (var_b, _) = items
        positive, negative = (var_a, var_b) if coeff_a == 1 else (var_b, var_a)
    edges = []
    if row.relation in (Relation.LE, Relation.LT, Relation.EQ):
        edges.append((negative, positive, row.bound, row.relation is Relation.LT, index))
    if row.relation in (Relation.GE, Relation.GT, Relation.EQ):
        edges.append((positive, negative, -row.bound, row.relation is Relation.GT, index))
    return edges


def _reference_bellman_ford(edges, vertices):
    distance = {v: (Fraction(0), 0) for v in vertices}
    predecessor = {v: None for v in vertices}

    def less(a, b):
        return a[0] < b[0] or (a[0] == b[0] and a[1] > b[1])

    updated_vertex = None
    for _ in range(len(vertices)):
        updated_vertex = None
        for edge in edges:
            u, v, weight, strict, _ = edge
            du = distance[u]
            candidate = (du[0] + weight, du[1] + (1 if strict else 0))
            if less(candidate, distance[v]):
                distance[v] = candidate
                predecessor[v] = edge
                updated_vertex = v
        if updated_vertex is None:
            break
    return distance, predecessor, updated_vertex


def _reference_check(system):
    """``(status, core_indices, point)`` from the Fraction reference."""
    edges, vertices = [], {_REF_SOURCE}
    for index, r in enumerate(system.rows):
        if r.is_trivial():
            if not r.trivially_true():
                return LPStatus.INFEASIBLE, [index], {}
            continue
        for edge in _reference_edges(r, index):
            edges.append(edge)
            vertices.update(edge[:2])
    distance, predecessor, updated_vertex = _reference_bellman_ford(edges, vertices)
    if updated_vertex is not None:
        vertex = updated_vertex
        for _ in range(len(vertices)):
            vertex = predecessor[vertex][0]
        cycle, cursor = [], vertex
        while True:
            edge = predecessor[cursor]
            cycle.append(edge)
            cursor = edge[0]
            if cursor == vertex:
                break
        return LPStatus.INFEASIBLE, sorted({edge[4] for edge in cycle}), {}
    min_residual, max_strict = None, 1
    for u, v, weight, _, _ in edges:
        (du, su), (dv, sv) = distance[u], distance[v]
        residual = du + weight - dv
        if residual > 0 and (min_residual is None or residual < min_residual):
            min_residual = residual
        max_strict = max(max_strict, su + 1, sv + 1)
    eps = Fraction(1) if min_residual is None else min_residual / (2 * max_strict)
    source_value = distance[_REF_SOURCE][0] - eps * distance[_REF_SOURCE][1]
    point = {
        vertex: weight - eps * strict - source_value
        for vertex, (weight, strict) in distance.items()
        if vertex != _REF_SOURCE
    }
    return LPStatus.FEASIBLE, None, point


_RELATIONS = [Relation.LE, Relation.LT, Relation.GE, Relation.GT, Relation.EQ]


def _seeded_difference_system(rng):
    """2-6 variables, 1-14 rows over all five relations, bounds with
    denominators in {1, 2, 3, 7}; unit rows, difference rows, the odd
    trivial row, and planted zero-weight cycles (strict or not)."""
    names = [f"v{i}" for i in range(rng.randint(2, 6))]
    rows = []

    def bound():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 7]))

    num_rows = rng.randint(1, 14)
    while len(rows) < num_rows:
        kind = rng.random()
        a, b = rng.sample(names, 2)
        if kind < 0.25:
            coeffs = {a: Fraction(rng.choice([1, -1]))}
        elif kind < 0.27:
            coeffs = {}
        elif kind < 0.4:
            # x - y REL c and y - x REL' -c: a zero-weight cycle, infeasible
            # iff one of the two relations is strict.
            c = bound()
            for coeffs, rhs in (({a: 1, b: -1}, c), ({b: 1, a: -1}, -c)):
                relation = rng.choice([Relation.LE, Relation.LT])
                rows.append(LinearConstraint(coeffs, relation, rhs))
            continue
        else:
            coeffs = {a: Fraction(1), b: Fraction(-1)}
        rows.append(LinearConstraint(coeffs, rng.choice(_RELATIONS), bound()))
    return LinearSystem(rows)


class TestIntegerKernelMatchesFractionReference:
    def test_two_thousand_seeded_systems(self):
        rng = random.Random(20070416)
        statuses = set()
        for _ in range(2000):
            system = _seeded_difference_system(rng)
            status, core, point = _reference_check(system)
            result = DifferenceLogicSolver().check(system)
            assert result.status is status
            assert result.core_indices == core
            assert result.point == point
            statuses.add(status)
        assert statuses == {LPStatus.FEASIBLE, LPStatus.INFEASIBLE}

    def test_zero_weight_cycles(self):
        for strict_rows, status in ((0, LPStatus.FEASIBLE), (1, LPStatus.INFEASIBLE)):
            system = LinearSystem(
                [
                    row("x - y < 1" if strict_rows else "x - y <= 1"),
                    row("y - z = 2"),
                    row("z - x <= -3"),
                ]
            )
            expected = _reference_check(system)
            result = DifferenceLogicSolver().check(system)
            assert result.status is status is expected[0]
            assert (result.core_indices, result.point) == expected[1:]


# ----------------------------------------------------------------------
# Cycle handoff: the adapter's refine reuses the cycle check just found.
# ----------------------------------------------------------------------
@pytest.fixture
def bellman_ford_runs(monkeypatch):
    runs = []
    kernel = DifferenceLogicSolver._bellman_ford

    def spy(graph, num_vertices):
        runs.append(len(graph))
        return kernel(graph, num_vertices)

    monkeypatch.setattr(DifferenceLogicSolver, "_bellman_ford", staticmethod(spy))
    return runs


def _cycle_system():
    # The cycle's rows are system rows 0 and 2 but component rows 0 and 1,
    # so a core returned with component indices would name tag 6.
    return LinearSystem(
        [row("x - y <= -2", tag=5), row("a <= 10", tag=6), row("y - x <= 1", tag=7)]
    )


def _rows_infeasible(system, tags):
    rows = [r for r in system.rows if r.tag in tags]
    return SimplexSolver().check(LinearSystem(rows)).status is LPStatus.INFEASIBLE


class TestCycleHandoff:
    def test_refine_of_checked_system_reuses_cycle(self, bellman_ford_runs):
        adapter = DifferenceLinearAdapter()
        system = _cycle_system()
        assert adapter.check(system).status is LPStatus.INFEASIBLE
        refinement = adapter.refine(system)
        assert len(bellman_ford_runs) == 1
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [5, 7]
        assert _rows_infeasible(system, refinement.conflicting_tags)

    def test_refine_of_other_system_derives_its_core(self, bellman_ford_runs):
        adapter = DifferenceLinearAdapter()
        assert adapter.check(_cycle_system()).status is LPStatus.INFEASIBLE
        other = LinearSystem([row("p - q <= -1", tag=11), row("q - p < 1", tag=12)])
        refinement = adapter.refine(other)
        assert len(bellman_ford_runs) == 2
        assert sorted(refinement.conflicting_tags) == [11, 12]
        assert _rows_infeasible(other, refinement.conflicting_tags)
        # A structurally equal copy is another system, too.
        copy = _cycle_system()
        assert adapter.check(_cycle_system()).status is LPStatus.INFEASIBLE
        assert sorted(adapter.refine(copy).conflicting_tags) == [5, 7]
        assert len(bellman_ford_runs) == 4

    def test_feasible_check_drops_the_kept_cycle(self, bellman_ford_runs):
        adapter = DifferenceLinearAdapter()
        refuted = _cycle_system()
        assert adapter.check(refuted).status is LPStatus.INFEASIBLE
        feasible = LinearSystem([row("x - y <= 2", tag=1), row("y - x <= 1", tag=2)])
        assert adapter.check(feasible).status is LPStatus.FEASIBLE
        refinement = adapter.refine(refuted)
        assert len(bellman_ford_runs) == 3
        assert sorted(refinement.conflicting_tags) == [5, 7]

    def test_simplex_component_failing_first_takes_iis_path(self, bellman_ford_runs):
        adapter = DifferenceLinearAdapter()
        system = LinearSystem(
            [
                row("x + y >= 5", tag=1),
                row("x <= 1", tag=2),
                row("y <= 1", tag=3),
                row("p - q <= 1", tag=4),
            ]
        )
        assert adapter.check(system).status is LPStatus.INFEASIBLE
        assert bellman_ford_runs == []
        refinement = adapter.refine(system)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2, 3]
        assert _rows_infeasible(system, refinement.conflicting_tags)


# ----------------------------------------------------------------------
# Rows carry their encoding: each row is encoded once and kept on it.
# ----------------------------------------------------------------------
def _seeded_systems(seed, count=2000):
    rng = random.Random(seed)
    return [_seeded_difference_system(rng) for _ in range(count)]


def _fresh_copy(system):
    rows = [LinearConstraint(r.coeffs, r.relation, r.bound, r.tag) for r in system.rows]
    return LinearSystem(rows, system.domains)


@pytest.fixture
def encodings(monkeypatch):
    """Spy on the row encoder: one entry per row it encodes."""
    encoded = []
    encode = difference_module._encode

    def spy(r):
        encoded.append(r)
        return encode(r)

    monkeypatch.setattr(difference_module, "_encode", spy)
    return encoded


class TestRowEncoding:
    def test_rows_encode_to_the_reference_edges(self):
        for system in _seeded_systems(20070416):
            for r in system.rows:
                assert is_difference_row(r)
                if r.is_trivial():
                    assert r.difference_edges == ()
                    continue
                expected = [edge[:4] for edge in _reference_edges(r, None)]
                assert [
                    (tail, head, Fraction(numerator, denominator), strict)
                    for tail, head, numerator, denominator, strict in r.difference_edges
                ] == expected

    def test_rows_outside_the_fragment_are_marked(self):
        outside = row("2*x - y <= 3")
        assert not is_difference_row(outside)
        assert outside.difference_edges is False
        with pytest.raises(ValueError):
            DifferenceLogicSolver().check(LinearSystem([row("x <= 1"), outside]))

    def test_repeated_and_fresh_checks_agree(self):
        solver = DifferenceLogicSolver()
        for system in _seeded_systems(31, count=500):
            first = solver.check(system)
            for again in (solver.check(system), solver.check(_fresh_copy(system))):
                assert (again.status, again.core_indices, again.point) == (
                    first.status,
                    first.core_indices,
                    first.point,
                )

    def test_second_check_encodes_nothing(self, encodings):
        system = LinearSystem([row("x - y <= 1"), row("y = 2"), row("0 <= 1"), row("x > -3")])
        solver = DifferenceLogicSolver()
        first = solver.check(system)
        assert encodings == system.rows
        encodings.clear()
        adapter = DifferenceLinearAdapter()
        second = adapter.check(system)
        assert encodings == []
        assert second.point == first.point
        assert is_difference_system(system) and encodings == []

    def test_encoding_survives_pickling(self):
        r = row("x - y < 5", tag=3)
        assert is_difference_row(r)
        copy = pickle.loads(pickle.dumps(r))
        assert copy.difference_edges == r.difference_edges
        assert (copy.coeffs, copy.relation, copy.bound, copy.tag) == (
            r.coeffs,
            r.relation,
            r.bound,
            r.tag,
        )


class TestIntegerVariables:
    @staticmethod
    def _old_definition(system):
        return {v for v in system.variables() if system.domains.get(v) == VariableDomain.INT}

    def test_matches_the_row_union_definition(self):
        rng = random.Random(8)
        seen = set()
        for _ in range(600):
            system = _seeded_difference_system(rng)
            names = sorted(system.variables()) + ["unused"]
            mode = rng.choice(["none", "some", "all"])
            for name in names:
                if mode == "all" or (mode == "some" and rng.random() < 0.4):
                    system.set_domain(name, VariableDomain.INT)
                elif rng.random() < 0.5:
                    system.set_domain(name, VariableDomain.REAL)
            expected = self._old_definition(system)
            assert system.integer_variables() == expected
            seen.add((mode, bool(expected)))
        assert {("none", False), ("some", True), ("all", True)} <= seen

    def test_integer_variable_in_no_row(self):
        system = LinearSystem([row("x - y <= 1")], {"z": VariableDomain.INT})
        assert system.integer_variables() == set()
        assert is_difference_system(system)
        system.set_domain("y", VariableDomain.INT)
        assert system.integer_variables() == {"y"}
        assert not is_difference_system(system)


# ----------------------------------------------------------------------
# One pass for a whole fragment system, however many components it has.
# ----------------------------------------------------------------------
def _interleaved_system(rng):
    """2-4 seeded systems over disjoint names, rows interleaved, each row
    tagged with its index + 1."""
    queues = []
    for copy in range(rng.randint(2, 4)):
        part = _seeded_difference_system(rng)
        queues.append(
            [
                LinearConstraint(
                    {f"c{copy}{name}": c for name, c in r.coeffs.items()}, r.relation, r.bound
                )
                for r in part.rows
            ]
        )
    rows = []
    while any(queues):
        queue = rng.choice([q for q in queues if q])
        rows.append(queue.pop(0))
    for index, r in enumerate(rows):
        r.tag = index + 1
    return LinearSystem(rows)


def _split_reference_status(system):
    """The verdict of checking each variable-sharing component on its own."""
    for component in system.split_components():
        result = DifferenceLogicSolver().check(component)
        if result.status is not LPStatus.FEASIBLE:
            return result.status
    return LPStatus.FEASIBLE


def _feasible(rows):
    return SimplexSolver().check(LinearSystem(rows)).status is LPStatus.FEASIBLE


class TestWholeSystemCheck:
    def test_matches_the_component_split(self, bellman_ford_runs):
        rng = random.Random(1930)
        statuses = {LPStatus.FEASIBLE: 0, LPStatus.INFEASIBLE: 0}
        adapter = DifferenceLinearAdapter()
        for _ in range(2000):
            system = _interleaved_system(rng)
            del bellman_ford_runs[:]
            result = adapter.check(system)
            assert len(bellman_ford_runs) <= 1
            assert result.status is _split_reference_status(system)
            statuses[result.status] += 1
            if result.status is LPStatus.FEASIBLE:
                assert system.check_point(result.point)
                continue
            runs = len(bellman_ford_runs)
            refinement = adapter.refine(system)
            assert len(bellman_ford_runs) == runs
            assert refinement.minimal
            core = [system.rows[tag - 1] for tag in refinement.conflicting_tags]
            assert not _feasible(core)
            for dropped in range(len(core)):
                assert _feasible(core[:dropped] + core[dropped + 1 :])
        # A union of seeded systems is mostly infeasible.
        assert statuses[LPStatus.FEASIBLE] > 25 and statuses[LPStatus.INFEASIBLE] > 1000

    def test_refine_without_check_finds_a_cycle_in_one_pass(self, bellman_ford_runs):
        system = LinearSystem(
            [
                row("p - q <= 4", tag=1),
                row("x - y <= -2", tag=2),
                row("q - p <= 1", tag=3),
                row("y - x <= 1", tag=4),
            ]
        )
        refinement = DifferenceLinearAdapter().refine(system)
        assert len(bellman_ford_runs) == 1
        assert sorted(refinement.conflicting_tags) == [2, 4]

    def test_mixed_system_keeps_the_component_path(self, bellman_ford_runs):
        system = LinearSystem(
            [
                row("x + y >= 1", tag=1),
                row("p - q <= -1", tag=2),
                row("x <= 5", tag=3),
                row("q - p <= 0", tag=4),
            ]
        )
        adapter = DifferenceLinearAdapter()
        assert adapter.check(system).status is LPStatus.INFEASIBLE
        assert sorted(adapter.refine(system).conflicting_tags) == [2, 4]
        assert len(bellman_ford_runs) == 1
