"""Tests for the cross-query verdict cache (repro.core.verdict_cache).

The unit layer covers the store itself (LRU, JSON schema, atomic disk
mirror); the integration layer drives real solves and asserts the
pipeline's soundness rules: cached UNSAT returned directly, cached SAT
revalidated, UNKNOWN never cached, assumption sets and tolerances keyed
separately, and a cache hit skipping the Boolean search entirely.
"""

import json
import os

import pytest

from repro.benchgen.randgen import planted_problem
from repro.core import ABProblem, ABSolver, ABSolverConfig, ABStatus, parse_constraint
from repro.core.session import SolverSession
from repro.core.verdict_cache import CachedVerdict, VerdictCache


def unsat_problem():
    problem = ABProblem(name="vc-unsat")
    problem.add_clause([1])
    problem.add_clause([2])
    problem.define(1, "real", parse_constraint("x >= 3"))
    problem.define(2, "real", parse_constraint("x <= 1"))
    problem.set_bounds("x", -10, 10)
    return problem


class TestCachedVerdict:
    def test_rejects_indefinite_status(self):
        with pytest.raises(ValueError):
            CachedVerdict("unknown")

    def test_json_round_trip(self):
        entry = CachedVerdict("sat", {1: True, 2: False}, {"x": 1.5})
        clone = CachedVerdict.from_json(entry.to_json())
        assert clone.status == "sat"
        assert clone.boolean == {1: True, 2: False}
        assert clone.theory == {"x": 1.5}

    def test_schema_mismatch_returns_none(self):
        payload = CachedVerdict("unsat").to_json()
        payload["schema"] = 99
        assert CachedVerdict.from_json(payload) is None
        assert CachedVerdict.from_json({"status": "sat"}) is None
        assert CachedVerdict.from_json("not a dict") is None


class TestVerdictCacheStore:
    def test_memory_lru_eviction(self):
        cache = VerdictCache(capacity=2)
        cache.store("a", "unsat")
        cache.store("b", "unsat")
        cache.store("c", "unsat")
        assert cache.lookup("a") is None
        assert cache.lookup("b") is not None
        assert cache.lookup("c") is not None

    def test_disk_round_trip_between_instances(self, tmp_path):
        directory = str(tmp_path / "cache")
        writer = VerdictCache(directory=directory)
        writer.store("deadbeef", "sat", {1: True}, {"x": 2.0})
        reader = VerdictCache(directory=directory)
        entry = reader.lookup("deadbeef")
        assert entry is not None
        assert entry.status == "sat"
        assert entry.boolean == {1: True}
        assert entry.theory == {"x": 2.0}

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = VerdictCache(directory=directory)
        with open(os.path.join(directory, "bad.json"), "w", encoding="utf-8") as fh:
            fh.write("{ truncated")
        assert cache.lookup("bad") is None

    def test_read_only_directory_degrades_to_memory(self, tmp_path):
        directory = str(tmp_path / "cache")
        cache = VerdictCache(directory=directory)
        os.chmod(directory, 0o500)
        try:
            cache.store("k", "unsat")
        finally:
            os.chmod(directory, 0o700)
        assert cache.lookup("k") is not None

    def test_key_separates_assumptions_and_tolerance(self):
        problem = planted_problem(seed=1).problem
        base = VerdictCache.key(problem)
        assert VerdictCache.key(problem, (1,)) != base
        assert VerdictCache.key(problem, (1, -2)) == VerdictCache.key(problem, (-2, 1))
        assert VerdictCache.key(problem, (), 1e-6) != VerdictCache.key(problem, (), 1e-9)


class TestSolverIntegration:
    def test_second_solve_hits_and_skips_boolean_search(self):
        cache = VerdictCache()
        problem = planted_problem(seed=21).problem
        first = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(problem)
        assert first.status is ABStatus.SAT
        assert first.stats.verdict_cache_misses == 1
        assert first.stats.verdict_cache_stores == 1

        second = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(problem)
        assert second.status is ABStatus.SAT
        assert second.stats.verdict_cache_hits == 1
        assert second.stats.boolean_queries == 0
        assert problem.check_model(second.model.boolean, second.model.theory)

    def test_unsat_verdict_replayed(self):
        cache = VerdictCache()
        first = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(unsat_problem())
        assert first.status is ABStatus.UNSAT
        second = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(unsat_problem())
        assert second.status is ABStatus.UNSAT
        assert second.stats.verdict_cache_hits == 1
        assert second.stats.boolean_queries == 0
        assert second.reason == "verdict-cache"

    def test_equivalent_presentation_hits(self):
        # Clause order and constraint orientation differ; the canonical
        # fingerprint must collapse both presentations onto one entry.
        def build(flipped):
            problem = ABProblem()
            clauses = [[1, 2], [-1, 2]]
            for clause in reversed(clauses) if flipped else clauses:
                problem.add_clause(clause)
            if flipped:
                problem.define(1, "real", parse_constraint("4 >= x + y"))
            else:
                problem.define(1, "real", parse_constraint("x + y <= 4"))
            problem.define(2, "real", parse_constraint("x - y >= 1"))
            problem.set_bounds("x", -10, 10)
            problem.set_bounds("y", -10, 10)
            return problem

        cache = VerdictCache()
        first = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(build(False))
        assert first.status is ABStatus.SAT
        second = ABSolver(ABSolverConfig(verdict_cache=cache)).solve(build(True))
        assert second.stats.verdict_cache_hits == 1
        assert second.stats.boolean_queries == 0

    def test_different_tolerance_misses(self):
        cache = VerdictCache()
        problem = planted_problem(seed=22).problem
        ABSolver(ABSolverConfig(verdict_cache=cache)).solve(problem)
        other = ABSolver(
            ABSolverConfig(verdict_cache=cache, tolerance=1e-9)
        ).solve(problem)
        assert other.stats.verdict_cache_hits == 0
        assert other.stats.verdict_cache_misses == 1

    def test_disk_backed_sharing_across_cache_instances(self, tmp_path):
        directory = str(tmp_path / "verdicts")
        problem = planted_problem(seed=23).problem
        first = ABSolver(
            ABSolverConfig(verdict_cache=VerdictCache(directory=directory))
        ).solve(problem)
        assert first.status is ABStatus.SAT
        assert any(name.endswith(".json") for name in os.listdir(directory))
        # A brand-new cache instance (fresh process in real deployments)
        # must answer from the disk mirror alone.
        second = ABSolver(
            ABSolverConfig(verdict_cache=VerdictCache(directory=directory))
        ).solve(problem)
        assert second.status is ABStatus.SAT
        assert second.stats.verdict_cache_hits == 1
        assert second.stats.boolean_queries == 0

    def test_entry_with_lemma_list_still_hits(self, tmp_path):
        # Entries once carried the run's definite lemmas under "lemmas";
        # such a file must still answer the query.
        directory = str(tmp_path / "verdicts")
        problem = planted_problem(seed=25).problem
        ABSolver(
            ABSolverConfig(verdict_cache=VerdictCache(directory=directory))
        ).solve(problem)
        (name,) = os.listdir(directory)
        path = os.path.join(directory, name)
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        assert "lemmas" not in payload
        payload["lemmas"] = [[1, -2], [3]]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        second = ABSolver(
            ABSolverConfig(verdict_cache=VerdictCache(directory=directory))
        ).solve(problem)
        assert second.status is ABStatus.SAT
        assert second.stats.verdict_cache_hits == 1
        assert second.stats.boolean_queries == 0

    def test_entries_are_well_formed_json(self, tmp_path):
        directory = str(tmp_path / "verdicts")
        problem = planted_problem(seed=24).problem
        ABSolver(
            ABSolverConfig(verdict_cache=VerdictCache(directory=directory))
        ).solve(problem)
        for name in os.listdir(directory):
            with open(os.path.join(directory, name), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            assert CachedVerdict.from_json(payload) is not None


class TestSessionIntegration:
    def test_cross_session_hit(self):
        cache = VerdictCache()
        first = SolverSession(ABSolverConfig(verdict_cache=cache))
        first.assert_problem(planted_problem(seed=31).problem)
        assert first.check().status is ABStatus.SAT

        second = SolverSession(ABSolverConfig(verdict_cache=cache))
        second.assert_problem(planted_problem(seed=31).problem)
        result = second.check()
        assert result.status is ABStatus.SAT
        assert result.stats.verdict_cache_hits == 1
        assert result.stats.boolean_queries == 0

    def test_repeated_check_same_session_hits(self):
        cache = VerdictCache()
        session = SolverSession(ABSolverConfig(verdict_cache=cache))
        session.assert_problem(planted_problem(seed=32).problem)
        session.check()
        result = session.check()
        assert result.stats.verdict_cache_hits == 1
        assert result.stats.boolean_queries == 0

    def test_different_assumptions_miss(self):
        cache = VerdictCache()
        session = SolverSession(ABSolverConfig(verdict_cache=cache))
        instance = planted_problem(seed=33)
        session.assert_problem(instance.problem)
        lit = 1 if instance.boolean_model.get(1, True) else -1
        session.check(assumptions=[lit])
        result = session.check(assumptions=[-lit])
        assert result.stats.verdict_cache_hits == 0
        assert result.stats.verdict_cache_misses == 1

    def test_assertion_after_hit_invalidates(self):
        cache = VerdictCache()
        session = SolverSession(ABSolverConfig(verdict_cache=cache))
        session.assert_problem(planted_problem(seed=34).problem)
        session.check()
        session.assert_clause([1])
        result = session.check()
        # The fingerprint covers the mirror CNF, so the new clause forces
        # a fresh solve rather than replaying the stale verdict.
        assert result.stats.verdict_cache_hits == 0

    def test_no_caching_without_config(self):
        solver = ABSolver(ABSolverConfig())
        result = solver.solve(planted_problem(seed=35).problem)
        assert result.stats.verdict_cache_hits == 0
        assert result.stats.verdict_cache_misses == 0
        assert result.stats.verdict_cache_stores == 0
