"""Differential / planted-model fuzzing across the whole solver stack."""

import random

from hypothesis import example, given, settings, strategies as st

from repro.baselines import CVCLiteLikeSolver, MathSATLikeSolver
from repro.benchgen.randgen import planted_problem, random_linear_problem
from repro.core import (
    ABProblem,
    ABSolver,
    ABSolverConfig,
    SolverSession,
    parse_constraint,
    presolve,
)
from repro.core.certify import verify_certificate


class TestGeneratorInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000))
    def test_planted_model_is_valid(self, seed):
        instance = planted_problem(seed)
        assert instance.verify(), seed

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_planted_integer_model_is_valid(self, seed):
        instance = planted_problem(seed, integer_vars=True)
        assert instance.verify(), seed

    def test_determinism(self):
        a = planted_problem(42)
        b = planted_problem(42)
        assert a.problem.cnf.clauses == b.problem.cnf.clauses
        assert a.theory_model == b.theory_model


class TestPlantedSolving:
    """Every planted instance is SAT by construction; the solver must agree
    and return a model passing the full check."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_absolver_finds_planted_sat(self, seed):
        instance = planted_problem(seed)
        result = ABSolver().solve(instance.problem)
        assert result.is_sat, seed
        assert instance.problem.check_model(
            result.model.boolean, result.model.theory
        ), seed

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    # Seeds whose branch-and-bound dives once took minutes each.
    @example(191)
    @example(205)
    @example(225)
    @example(459)
    @example(506)
    def test_absolver_integer_instances(self, seed):
        instance = planted_problem(seed, integer_vars=True)
        result = ABSolver().solve(instance.problem)
        assert result.is_sat, seed

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_lsat_configuration(self, seed):
        instance = planted_problem(seed)
        result = ABSolver(ABSolverConfig(boolean="lsat")).solve(instance.problem)
        assert result.is_sat, seed


class TestDifferential:
    """All engines must agree on random instances of unknown status."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_configurations_agree(self, seed):
        problem = random_linear_problem(seed)
        reference = ABSolver().solve(problem)
        assert reference.status.value in ("sat", "unsat"), seed
        for config in (
            ABSolverConfig(boolean="lsat"),
            ABSolverConfig(boolean="dpll"),
            ABSolverConfig(refine_conflicts=False),
        ):
            other = ABSolver(config).solve(problem)
            assert other.status == reference.status, (seed, config.boolean)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_baselines_agree(self, seed):
        problem = random_linear_problem(seed)
        reference = ABSolver().solve(problem)
        for baseline in (MathSATLikeSolver(), CVCLiteLikeSolver()):
            other = baseline.solve(problem)
            assert other.status == reference.status, (seed, baseline.name)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_sat_models_always_check(self, seed):
        problem = random_linear_problem(seed)
        result = ABSolver().solve(problem)
        if result.is_sat:
            assert problem.check_model(result.model.boolean, result.model.theory), seed


def _difference_problem(seed):
    """A seeded AB-problem inside the difference-logic fragment.

    2-3 groups of 2-4 real variables; 6-16 definitions ``x - y REL c`` or
    ``±x REL c``, each within one group; random clauses over the
    definition variables.  Every candidate's system spans the groups, so
    it has several variable-sharing components.
    """
    rng = random.Random(seed)
    groups = [
        [f"g{group}v{index}" for index in range(rng.randint(2, 4))]
        for group in range(rng.randint(2, 3))
    ]
    problem = ABProblem(name=f"difference-{seed}")
    count = rng.randint(6, 16)
    for var in range(1, count + 1):
        group = rng.choice(groups)
        # Few equations: each negated one splits every candidate in two.
        relation = rng.choice(["<=", "<", ">=", ">"] * 2 + ["="])
        bound = rng.randint(-5, 5)
        if rng.random() < 0.6:
            x, y = rng.sample(group, 2)
            text = f"{x} - {y} {relation} {bound}"
        else:
            x = rng.choice(group)
            text = rng.choice([f"{x} {relation} {bound}", f"0 - {x} {relation} {bound}"])
        problem.define(var, "real", parse_constraint(text))
    for _ in range(rng.randint(count // 2, count)):
        clause = [rng.choice([1, -1]) * rng.randint(1, count) for _ in range(rng.randint(1, 3))]
        problem.add_clause(clause)
    return problem


class TestDifferenceEngineMatrix:
    """The difference engine against the simplex on multi-component
    candidate systems; SAT models checked, UNSAT verdicts certified."""

    def test_difference_agrees_with_simplex(self):
        verdicts = {"sat": 0, "unsat": 0}
        for seed in range(200):
            problem = _difference_problem(seed)
            result = ABSolver(ABSolverConfig(linear="difference")).solve(problem)
            reference = ABSolver(ABSolverConfig(linear="simplex")).solve(problem)
            assert result.status == reference.status, seed
            verdicts[result.status.value] += 1
            if result.is_sat:
                assert problem.check_model(result.model.boolean, result.model.theory), seed
            else:
                certified = ABSolver(
                    ABSolverConfig(linear="difference", record_certificate=True)
                ).solve(problem)
                assert certified.is_unsat, seed
                assert verify_certificate(problem, certified.certificate), seed
        assert min(verdicts.values()) >= 40, verdicts


def _session_script(seed):
    """A seeded script of session steps over 3-6 integer variables.

    Every variable gets a box inside [-8, 8] before anything else, so
    propagation over the unit-coefficient rows converges well inside the
    round caps; later boxes tighten or widen it, in frame 0 or in a frame.
    """
    rng = random.Random(seed)
    names = [f"v{index}" for index in range(rng.randint(3, 6))]
    boxes = [{}]  # the boxes each open frame set

    def box(name):
        """Mostly a box inside the current one, else any box."""
        low, high = next(
            (frame[name] for frame in reversed(boxes) if name in frame), (-8, 8)
        )
        if rng.random() < 0.3:
            low = rng.randint(-8, 8)
            high = 8
        low = rng.randint(low, high)
        boxes[-1][name] = (low, rng.randint(low, high))
        return ("bounds", name) + boxes[-1][name]

    steps = [box(name) for name in names]
    frames = [[]]  # definition variables per open frame
    next_var = 1
    for _ in range(rng.randint(8, 16)):
        defined = [var for frame in frames for var in frame]
        kind = rng.choices(
            ["define", "clause", "bounds", "push", "pop", "check"],
            weights=[4, 4 if defined else 0, 2, 1, 1 if len(frames) > 1 else 0, 2],
        )[0]
        if kind == "define":
            x, y = rng.sample(names, 2)
            relation = rng.choice(["<=", "<", ">=", ">"] * 3 + ["="])
            shape = rng.choice([f"{x} - {y}", f"{x} + {y}", x, f"0 - {x}"])
            steps.append(("define", next_var, f"{shape} {relation} {rng.randint(-8, 8)}"))
            frames[-1].append(next_var)
            next_var += 1
        elif kind == "clause":
            width = rng.choice([1, 1, 1, 2, 3])
            variables = rng.sample(defined, min(width, len(defined)))
            steps.append(("clause", [var * rng.choice([1, -1]) for var in variables]))
        elif kind == "bounds":
            steps.append(box(rng.choice(names)))
        elif kind == "push":
            steps.append(("push",))
            frames.append([])
            boxes.append({})
        elif kind == "pop":
            steps.append(("pop",))
            frames.pop()
            boxes.pop()
        else:
            steps.append(("check",))
    steps.append(("check",))
    return steps


def _apply(session, step):
    kind = step[0]
    if kind == "bounds":
        session.set_bounds(*step[1:])
    elif kind == "define":
        session.define(step[1], "int", parse_constraint(step[2]))
    elif kind == "clause":
        session.assert_clause(step[1])
    elif kind == "push":
        session.push()
    else:
        session.pop()


def _store_view(store):
    if store.infeasible:
        return True  # where each order stops on an empty box differs
    return (store.snapshot(), set(store.units), dict(store.fixed), store.contentful)


def _from_empty_view(problem):
    session = SolverSession(ABSolverConfig(use_presolve=True))
    session.assert_problem(problem)
    return _store_view(session.pipeline.presolve.ensure(session.problem))


class TestPresolveSessionMatrix:
    """Stage 0 inside sessions: at every check of a seeded script of
    definitions, clauses, tightened and widened boxes, pushes and pops, the
    verdict is the one a session without presolve gives, a SAT model
    checks, and the store the session extended is the one a fresh session
    computes from empty."""

    def test_resumed_store_matches_from_empty(self, monkeypatch):
        verdicts = {"sat": 0, "unsat": 0}
        for seed in range(150):
            session = SolverSession(ABSolverConfig(use_presolve=True))
            reference = SolverSession(ABSolverConfig(use_presolve=False))
            for each in (session, reference):
                each.reserve_variables(32)  # above every scripted definition
            for step in _session_script(seed):
                if step[0] != "check":
                    _apply(session, step)
                    _apply(reference, step)
                    continue
                result = session.check()
                assert result.status == reference.check().status, seed
                verdicts[result.status.value] += 1
                if result.is_sat:
                    assert session.problem.check_model(
                        result.model.boolean, result.model.theory
                    ), seed
                store = session.pipeline.presolve.ensure(session.problem)
                expected = _from_empty_view(session.problem)
                assert _store_view(store) == expected, seed
                # The script stays inside the round caps: doubling them
                # changes nothing.
                with monkeypatch.context() as patch:
                    patch.setattr(presolve, "_DEDUCTION_ROUNDS", 2 * presolve._DEDUCTION_ROUNDS)
                    patch.setattr(presolve, "_PROPAGATION_ROUNDS", 2 * presolve._PROPAGATION_ROUNDS)
                    assert _from_empty_view(session.problem) == expected, seed
        assert min(verdicts.values()) >= 100, verdicts
