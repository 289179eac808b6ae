"""Differential sweep for the overhauled CDCL kernel.

The kernel rewrite (heap VSIDS, blocker watches, LBD clause-database
reduction, learned-clause minimization) must not change *what* the solver
answers — only how fast.  These tests pit the kernel, with reduction
deliberately cranked up to fire constantly, against the naive DPLL solver
on hundreds of random formulas, and check the enumeration/blocking and
reproducibility contracts the pipeline relies on.
"""

import random

import pytest

from repro.sat.allsat import AllSATSolver
from repro.sat.cdcl import CDCLSolver
from repro.sat.cnf import CNF
from repro.sat.dpll import DPLLSolver, solve_dpll

#: Kernel knobs that force reduction sweeps to trigger on tiny formulas.
AGGRESSIVE = dict(reduce_interval=3, restart_base=5, seed=7)


def random_cnf(rng: random.Random, num_vars: int, num_clauses: int) -> CNF:
    cnf = CNF(num_vars)
    for _ in range(num_clauses):
        width = rng.randint(1, 3)
        variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
        clause = [var if rng.random() < 0.5 else -var for var in variables]
        cnf.add_clause(clause)
    return cnf


def check_model(cnf: CNF, model) -> None:
    for clause in cnf.clauses:
        assert any(
            model.get(abs(literal), False) == (literal > 0) for literal in clause
        ), f"clause {clause} unsatisfied by {model}"


def pigeonhole(pigeons: int, holes: int) -> CNF:
    """PHP(p, h): UNSAT for p > h, and resolution-hard — a conflict mill."""
    cnf = CNF(pigeons * holes)
    var = lambda i, j: i * holes + j + 1
    for i in range(pigeons):
        cnf.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                cnf.add_clause([-var(i1, j), -var(i2, j)])
    return cnf


def brute_force_models(cnf: CNF):
    """All total models of a (small) CNF as a set of frozensets."""
    models = set()
    for bits in range(1 << cnf.num_vars):
        model = {var: bool(bits >> (var - 1) & 1) for var in range(1, cnf.num_vars + 1)}
        if all(
            any(model[abs(l)] == (l > 0) for l in clause) for clause in cnf.clauses
        ):
            models.add(frozenset(model.items()))
    return models


class TestDifferentialVerdicts:
    def test_verdict_agreement_200_random_cnfs(self):
        """CDCL with constant reduction agrees with DPLL on 200 formulas."""
        rng = random.Random(20260808)
        for trial in range(200):
            num_vars = rng.randint(3, 12)
            cnf = random_cnf(rng, num_vars, rng.randint(num_vars, 4 * num_vars))
            expected = solve_dpll(cnf) is not None
            solver = CDCLSolver(cnf, **AGGRESSIVE)
            model = solver.solve()
            assert (model is not None) == expected, f"trial {trial} disagrees"
            if model is not None:
                check_model(cnf, model)

    def test_assumption_agreement(self):
        """Incremental solve-under-assumptions matches DPLL on each cube."""
        rng = random.Random(99)
        for trial in range(60):
            num_vars = rng.randint(4, 10)
            cnf = random_cnf(rng, num_vars, rng.randint(num_vars, 3 * num_vars))
            solver = CDCLSolver(cnf, **AGGRESSIVE)
            # several assumption cubes against ONE persistent solver — this
            # is where stale learned-clause deletion would show up.
            for _ in range(5):
                cube = tuple(
                    var if rng.random() < 0.5 else -var
                    for var in rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
                )
                expected = solve_dpll(cnf, cube) is not None
                model = solver.solve(assumptions=cube)
                assert (model is not None) == expected, (trial, cube)
                if model is not None:
                    check_model(cnf, model)
                    for literal in cube:
                        assert model[abs(literal)] == (literal > 0)


class TestEnumerationUnderReduction:
    def test_all_models_set_equality_across_sweeps(self):
        """Protected blocking clauses survive reduction: the enumerated model
        set equals brute force exactly, with no repeats and no gaps."""
        rng = random.Random(4242)
        for trial in range(40):
            num_vars = rng.randint(3, 8)
            cnf = random_cnf(rng, num_vars, rng.randint(num_vars, 3 * num_vars))
            expected = brute_force_models(cnf)
            enumerator = AllSATSolver(cnf, minimize=False, **AGGRESSIVE)
            got = [frozenset(m.items()) for m in enumerator.enumerate()]
            assert len(got) == len(set(got)), f"trial {trial}: repeated model"
            assert set(got) == expected, f"trial {trial}: model set mismatch"

    def test_reduction_on_vs_off_same_model_set(self):
        rng = random.Random(7)
        for _ in range(20):
            cnf = random_cnf(rng, 7, 18)
            on = {
                frozenset(m.items())
                for m in AllSATSolver(cnf, minimize=False, **AGGRESSIVE).enumerate()
            }
            off = {
                frozenset(m.items())
                for m in AllSATSolver(
                    cnf, minimize=False, reduce_interval=0
                ).enumerate()
            }
            assert on == off

    def test_reduction_actually_fires(self):
        """The aggressive knobs really do exercise the reduction sweep (so
        the differential tests above are not vacuous).  Pigeonhole formulas
        guarantee a steady conflict stream."""
        cnf = pigeonhole(5, 4)
        solver = CDCLSolver(cnf, **AGGRESSIVE)
        assert solver.solve() is None  # 5 pigeons cannot fit 4 holes
        counters = solver.counters()
        assert counters["conflicts"] > 0
        assert counters["clauses_reduced"] > 0
        assert counters["reductions"] > 0


class TestKernelContracts:
    def test_same_seed_counter_reproducibility(self):
        rng = random.Random(555)
        for _ in range(10):
            cnf = random_cnf(rng, 12, 50)

            def run():
                solver = CDCLSolver(cnf, reduce_interval=5, restart_base=4, seed=11)
                models = []
                for _ in range(6):
                    model = solver.solve()
                    if model is None:
                        break
                    models.append(frozenset(model.items()))
                    solver.add_clause(
                        [(-v if b else v) for v, b in model.items()], protected=True
                    )
                return models, solver.counters()

            models_a, counters_a = run()
            models_b, counters_b = run()
            assert models_a == models_b
            assert counters_a == counters_b

    def test_counters_exposed(self):
        cnf = CNF(3)
        cnf.add_clause([1, 2])
        cnf.add_clause([-1, 3])
        solver = CDCLSolver(cnf, seed=1)
        assert solver.solve() is not None
        counters = solver.counters()
        for key in (
            "decisions",
            "heap_decisions",
            "clauses_reduced",
            "clauses_minimized_lits",
            "conflicts",
            "learned_clauses",
        ):
            assert key in counters

    def test_learned_clause_count_bounded_by_reduction(self):
        """With reduction on, the live learned-clause count stays below the
        total ever learned; with reduction off they coincide."""
        cnf = pigeonhole(6, 5)

        def solve_with(reduce_interval):
            solver = CDCLSolver(
                cnf, reduce_interval=reduce_interval, restart_base=5, seed=3
            )
            assert solver.solve() is None
            return solver

        reduced = solve_with(4)
        unreduced = solve_with(0)
        assert unreduced.learned_live == unreduced.learned_clauses
        assert reduced.counters()["clauses_reduced"] > 0
        assert reduced.learned_live < reduced.learned_clauses

    def test_protected_default_on_add_clause(self):
        """External adds are protected by default — a sweep never deletes
        them even when they look like high-LBD junk."""
        cnf = CNF(6)
        cnf.add_clause([1, 2, 3, 4, 5, 6])
        solver = CDCLSolver(cnf, reduce_interval=1, restart_base=2, seed=2)
        blocked = []
        while True:
            model = solver.solve()
            if model is None:
                break
            key = frozenset(model.items())
            assert key not in blocked, "a deleted blocking clause resurfaced a model"
            blocked.append(key)
            solver.add_clause([(-v if b else v) for v, b in model.items()])
        assert len(blocked) == 63  # 2^6 - 1 (all-false violates the clause)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))


class TestCnfIntake:
    """``CDCLSolver(cnf)`` attaches a CNF's normalized clauses without
    normalizing them again; it must build the solver that adding the same
    clauses one by one builds."""

    def test_cnf_intake_matches_clause_by_clause(self):
        rng = random.Random(2201)
        verdicts = set()
        for trial in range(80):
            num_vars = rng.randint(3, 14)
            cnf = CNF()  # num_vars grows to the highest variable used
            for _ in range(rng.randint(1, 60)):
                width = rng.choice([1, 1, 2, 3, 3, 5, num_vars])
                variables = rng.sample(range(1, num_vars + 1), min(width, num_vars))
                cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
            if trial % 10 == 0:
                cnf.add_clause([])
            seed = None if trial % 2 else trial
            whole = CDCLSolver(cnf, seed=seed)
            by_clause = CDCLSolver(seed=seed)
            for clause in cnf.clauses:
                by_clause.add_clause(clause)
            model = whole.solve()
            assert model == by_clause.solve(), trial
            assert whole.counters() == by_clause.counters(), trial
            if model is not None:
                check_model(cnf, model)
            verdicts.add(model is not None)
        assert verdicts == {True, False}


def between_solves_script(seed: int) -> dict:
    """One seeded script of ``solve`` and ``add_clause`` calls on one solver.

    Solves run under repeated or changed assumption cubes; between them
    come blocking clauses of the last model over a random variable subset,
    random clauses and units.  Every verdict must be DPLL's on the clauses
    added so far under the same assumptions, and every model must satisfy
    all of them and the assumptions.  Returns what the script exercised.
    """
    rng = random.Random(seed)
    num_vars = rng.randint(3, 10)
    reference = random_cnf(rng, num_vars, rng.randint(1, 2 * num_vars))
    options = rng.choice([{}, AGGRESSIVE, dict(seed=seed)])
    solver = CDCLSolver(reference, **options)
    dpll = DPLLSolver()
    literal = lambda var: var if rng.random() < 0.5 else -var
    assumptions = ()
    model = None
    failed = False  # the last solve was UNSAT under assumptions only
    exercised = {"kept_trail": 0, "unsat_repeated": 0}
    for _ in range(rng.randint(3, 10)):
        if rng.random() < 0.3:
            variables = rng.sample(range(1, num_vars + 1), rng.randint(0, 3))
            changed = tuple(literal(var) for var in variables)
            failed = failed and changed == assumptions
            assumptions = changed
        exercised["unsat_repeated"] += failed
        expected = dpll.solve(reference, assumptions) is not None
        model = solver.solve(assumptions)
        assert (model is not None) == expected, (seed, assumptions)
        failed = model is None and dpll.solve(reference) is not None
        if model is not None:
            check_model(reference, model)
            assert all(model[abs(lit)] == (lit > 0) for lit in assumptions), seed
        for _ in range(rng.randint(1, 3)):
            kind = rng.random()
            if model is not None and kind < 0.5:
                variables = rng.sample(range(1, num_vars + 1), rng.randint(1, num_vars))
                clause = [-var if model[var] else var for var in variables]
            elif kind < 0.85:
                variables = rng.sample(range(1, num_vars + 1), rng.randint(2, min(4, num_vars)))
                clause = [literal(var) for var in variables]
            else:
                clause = [literal(rng.randint(1, num_vars))]
            solver.add_clause(clause)
            reference.add_clause(clause)
            exercised["kept_trail"] += bool(solver._trail_limits)
    return exercised


class TestClausesBetweenSolves:
    """A clause added above level 0 keeps the trail, and the next solve
    under the same assumptions resumes from it; verdicts and models must be
    those of a solver that starts every call from scratch."""

    def test_scripts_match_dpll(self):
        totals = {"kept_trail": 0, "unsat_repeated": 0}
        for seed in range(1500):
            for key, count in between_solves_script(seed).items():
                totals[key] += count
        # Not vacuous: clauses were attached with decisions kept, and
        # assumptions that had just failed were solved under again.
        assert totals["kept_trail"] > 1000, totals
        assert totals["unsat_repeated"] > 100, totals

    def test_failed_assumptions_stay_failed(self):
        """A solve that returns None under assumptions may leave a trail
        holding an unresolved conflict, so solving under them again starts
        from level 0 instead of resuming."""
        solver = CDCLSolver(CNF(2))
        assumptions = (-1, 2)
        assert solver.solve(assumptions) is not None
        solver.add_clause([1, 2])
        solver.add_clause([-2, 1])  # 2 now forces 1 against the assumption
        for _ in range(3):
            assert solver.solve(assumptions) is None
        assert solver.solve() == {1: True, 2: True}


ASSUMED = (1, 2, 3, 4)
LEVELED = ([-4, 5], [6], [7])


def leveled_solver() -> CDCLSolver:
    """A solver holding a model at level 4: 6 and 7 true at level 0, and
    assumptions 1..4 at levels 1..4, with 5 implied by 4 at level 4.
    Variables 8 and 9 are still unallocated."""
    cnf = CNF(7)
    for clause in LEVELED:
        cnf.add_clause(clause)
    solver = CDCLSolver(cnf)
    assert solver.solve(ASSUMED) is not None
    return solver


class TestAttachAboveRoot:
    """Where a clause added above level 0 leaves the trail: the level it
    backjumps to, and the literal it implies there (with itself as the
    reason), or none."""

    @pytest.mark.parametrize(
        "clause, level, implied",
        [
            ([-1, -3, 8], 3, 8),  # unit: implied below the current level
            ([-1, 4], 1, 4),  # true only above its false literal
            ([2, -3], 4, None),  # true at or below its false literal
            ([-2, -4], 2, -4),  # false, one literal on the top level
            ([-1, -4, -5], 3, None),  # false, two on the top level
            ([-1, 8, 9], 4, None),  # two non-false literals
            ([-6, 8], 0, 8),  # the rest false at level 0
        ],
    )
    def test_backjump_and_implication(self, clause, level, implied):
        solver = leveled_solver()
        limits = list(solver._trail_limits)
        kept = solver._trail[: limits[level]] if level < len(limits) else solver._trail[:]
        solver.add_clause(clause)
        assert len(solver._trail_limits) == level
        if implied is None:
            assert solver._trail == kept
        else:
            assert solver._trail == kept + [implied]
            var = abs(implied)
            assert solver._levels[var] == level
            reason = solver._reasons[var]
            assert reason is not None and solver._clauses[reason][0] == implied
        cnf = CNF(9)
        for added in LEVELED + (clause,):
            cnf.add_clause(added)
        for assumptions in (ASSUMED, ASSUMED, ()):
            model = solver.solve(assumptions)
            assert (model is not None) == (solve_dpll(cnf, assumptions) is not None)
            if model is not None:
                check_model(cnf, model)
                assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)

    def test_clause_false_at_level_zero_is_unsat(self):
        solver = leveled_solver()
        solver.add_clause([-6, -7])
        assert solver.solve(ASSUMED) is None
        assert solver.solve() is None
