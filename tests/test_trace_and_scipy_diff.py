"""Tests for the ``--verbose`` event log, plus a scipy differential check of
the simplex."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Relation
from repro.linear import LinearConstraint, LinearSystem, LPStatus, SimplexSolver


class TestTrace:
    def test_cli_verbose(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "p.cnf"
        path.write_text("p cnf 1 1\n1 0\nc def real 1 x >= 0\n")
        assert main([str(path), "--verbose", "--quiet"]) == 10
        out = capsys.readouterr().out
        assert "[boolean-model]" in out
        assert "[verdict]" in out


def scipy_linprog():
    from scipy.optimize import linprog

    return linprog


@st.composite
def bounded_lp(draw):
    """Random bounded LPs over x, y in [-10, 10] with <= rows."""
    rows = [
        LinearConstraint({"x": Fraction(1)}, Relation.GE, Fraction(-10)),
        LinearConstraint({"x": Fraction(1)}, Relation.LE, Fraction(10)),
        LinearConstraint({"y": Fraction(1)}, Relation.GE, Fraction(-10)),
        LinearConstraint({"y": Fraction(1)}, Relation.LE, Fraction(10)),
    ]
    raw = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.integers(-4, 4))
        b = draw(st.integers(-4, 4))
        c = draw(st.integers(-12, 12))
        if a == 0 and b == 0:
            continue
        raw.append((a, b, c))
        rows.append(
            LinearConstraint({"x": Fraction(a), "y": Fraction(b)}, Relation.LE, Fraction(c))
        )
    cx = draw(st.integers(-5, 5))
    cy = draw(st.integers(-5, 5))
    return LinearSystem(rows), raw, (cx, cy)


class TestSimplexVsScipy:
    """Differential testing of the exact simplex against scipy.linprog."""

    @settings(max_examples=60, deadline=None)
    @given(bounded_lp())
    def test_optimum_agrees(self, case):
        system, raw, (cx, cy) = case
        linprog = scipy_linprog()
        A = [[a, b] for a, b, _ in raw]
        b_ub = [c for _, _, c in raw]
        reference = linprog(
            [cx, cy],
            A_ub=A or None,
            b_ub=b_ub or None,
            bounds=[(-10, 10), (-10, 10)],
            method="highs",
        )
        ours = SimplexSolver().optimize(
            system, {"x": Fraction(cx), "y": Fraction(cy)}, maximize=False
        )
        if reference.status == 2:  # infeasible
            assert ours.status is LPStatus.INFEASIBLE
        else:
            assert reference.status == 0
            assert ours.status is LPStatus.FEASIBLE
            assert float(ours.objective) == pytest.approx(reference.fun, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(bounded_lp())
    def test_feasibility_agrees(self, case):
        system, raw, _ = case
        linprog = scipy_linprog()
        A = [[a, b] for a, b, _ in raw]
        b_ub = [c for _, _, c in raw]
        reference = linprog(
            [0, 0],
            A_ub=A or None,
            b_ub=b_ub or None,
            bounds=[(-10, 10), (-10, 10)],
            method="highs",
        )
        ours = SimplexSolver().check(system)
        assert (ours.status is LPStatus.FEASIBLE) == (reference.status == 0)
