"""Ablation — the formula-level presolve stage, on vs off.

One opt-in switch (``ABSolverConfig(use_presolve=...)``, off by default)
toggles stage 0 of the pipeline: Boolean unit propagation
over the mirror CNF, bound propagation to fixpoint through every forced
linear row, one interval-contraction pass over the nonlinear definitions,
and unit deduction for definitions the tightened box already decides.
This bench measures what that buys on three workloads:

* **fischer** — process-unroll sweep of the mutual-exclusion protocol
  (difference logic; mostly SAT depths, little for presolve to deduce);
* **watertank** — time-unroll sweep of the tank controller (UNSAT tail
  depths where deduced units prune the candidate space);
* **dense-lp** — a synthetic family built for presolve: unit clauses pin
  every variable into a box, and a single big disjunction ranges over
  ``k`` dense rows that the box contradicts.  Without presolve the loop
  must refute the rows one IIS at a time (``k`` candidate iterations);
  with presolve every disjunct is deduced false up front and the very
  first Boolean query reports UNSAT.

Shape assertions (the reproduction contract for the committed
``BENCH_presolve_ablation.json``):

* identical verdicts with and without presolve on every workload;
* presolve-on strictly reduces candidate-loop work (Boolean queries) on
  at least two of the three families;
* the presolve counters are alive: nonzero ``presolve_units_emitted``
  and ``presolve_rows_dropped`` with the stage on, zero with it off.

Environment knobs:

* ``REPRO_ABLATION_UNROLL_DEPTH`` (default 6) — unroll sweep depth.
* ``REPRO_ABLATION_DENSE_K`` (default 10) — dense-LP disjunction width.
"""

import os
import time

import pytest

from repro import ABProblem, ABSolver, ABSolverConfig, parse_constraint
from repro.benchgen import fischer_unroll_family, watertank_unroll_family

from conftest import record_bench, register_report, report_rows


def _unroll_depth() -> int:
    return int(os.environ.get("REPRO_ABLATION_UNROLL_DEPTH", "6"))


def _dense_k() -> int:
    return int(os.environ.get("REPRO_ABLATION_DENSE_K", "10"))


def dense_lp_problem(k: int) -> ABProblem:
    """``k`` dense contradicted rows under one disjunction (UNSAT).

    Unit clauses force every ``x_j`` into ``[0, 10]``; each disjunct
    demands ``x_i + 2*x_{i+1} + x_{(i+2) mod (k+1)} >= 100``, impossible
    inside the box (the left side tops out at 40).  The contradiction is
    only visible through bound propagation across the forced range rows —
    exactly the deduction the presolve stage runs once up front.
    """
    problem = ABProblem(name=f"dense_lp_{k}")
    var = 1
    for j in range(k + 1):
        problem.define(var, "real", parse_constraint(f"x{j} >= 0"))
        problem.add_clause([var])
        var += 1
        problem.define(var, "real", parse_constraint(f"x{j} <= 10"))
        problem.add_clause([var])
        var += 1
    disjuncts = []
    for i in range(k):
        text = f"x{i} + 2*x{i + 1} + x{(i + 2) % (k + 1)} >= 100"
        problem.define(var, "real", parse_constraint(text))
        disjuncts.append(var)
        var += 1
    problem.add_clause(disjuncts)
    return problem


def _solve_unroll(family_fn, use_presolve: bool):
    family = family_fn(_unroll_depth())
    stats = None
    verdicts = []
    started = time.perf_counter()
    for depth in range(1, family.max_depth + 1):
        solver = ABSolver(
            ABSolverConfig(linear="difference", use_presolve=use_presolve)
        )
        result = solver.solve(
            family.problem_at_depth(depth),
            assumptions=family.check_assumptions(depth),
        )
        expected = family.expected_status(depth)
        assert expected is None or result.status.value == expected
        verdicts.append(result.status.value)
        stats = solver.stats if stats is None else stats.merge(solver.stats)
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": verdicts,
        "stats": stats,
    }


def _solve_dense(use_presolve: bool):
    solver = ABSolver(ABSolverConfig(use_presolve=use_presolve))
    started = time.perf_counter()
    result = solver.solve(dense_lp_problem(_dense_k()))
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": [result.status.value],
        "stats": solver.stats,
    }


_RUNNERS = {
    "fischer": lambda up: _solve_unroll(fischer_unroll_family, up),
    "watertank": lambda up: _solve_unroll(watertank_unroll_family, up),
    "dense-lp": _solve_dense,
}

#: family -> "on"/"off" -> measurement dict.
_MEASURED = {}


@pytest.mark.parametrize("family", sorted(_RUNNERS))
@pytest.mark.parametrize("mode", ["on", "off"])
def bench_presolve_ablation(benchmark, family, mode):
    def run():
        _MEASURED.setdefault(family, {})[mode] = _RUNNERS[family](mode == "on")

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    if not _MEASURED:
        return
    header = [
        "family",
        "presolve s",
        "raw s",
        "bq on",
        "bq off",
        "rows_dropped",
        "units",
    ]
    rows = []
    failures = []
    reduced = 0
    per_family = {}
    combined = None
    total_wall = 0.0
    total_units = 0
    for name in sorted(_MEASURED):
        measured = _MEASURED[name]
        if "on" not in measured or "off" not in measured:
            continue
        on, off = measured["on"], measured["off"]
        on_stats, off_stats = on["stats"], off["stats"]
        rows.append(
            [
                name,
                f"{on['seconds']:.3f}",
                f"{off['seconds']:.3f}",
                on_stats.boolean_queries,
                off_stats.boolean_queries,
                on_stats.presolve_rows_dropped,
                on_stats.presolve_units_emitted,
            ]
        )
        if on["verdicts"] != off["verdicts"]:
            failures.append(f"{name}: presolve changed a verdict")
        if on_stats.boolean_queries < off_stats.boolean_queries:
            reduced += 1
        if off_stats.presolve_units_emitted != 0:
            failures.append(f"{name}: units emitted with presolve disabled")
        total_units += on_stats.presolve_units_emitted
        per_family[name] = {
            "presolve_seconds": on["seconds"],
            "raw_seconds": off["seconds"],
            "boolean_queries_on": on_stats.boolean_queries,
            "boolean_queries_off": off_stats.boolean_queries,
            "rows_dropped": on_stats.presolve_rows_dropped,
            "units_emitted": on_stats.presolve_units_emitted,
            "verdicts": on["verdicts"],
        }
        total_wall += on["seconds"] + off["seconds"]
        combined = on_stats if combined is None else combined.merge(on_stats)
    report_rows(
        "Ablation: formula-level presolve (on vs off)", header, rows
    )
    if per_family:
        if reduced < 2:
            failures.append(
                f"presolve reduced candidate-loop work on only {reduced} "
                "families (need >= 2)"
            )
        if total_units <= 0:
            failures.append("presolve never emitted a unit")
        if combined.presolve_rows_dropped <= 0:
            failures.append("presolve never dropped a row")
        record_bench(
            "presolve_ablation",
            wall_seconds=total_wall,
            stats=combined,
            extra={
                "unroll_depth": _unroll_depth(),
                "dense_k": _dense_k(),
                "families": per_family,
                "families_with_reduced_queries": reduced,
            },
        )
    assert not failures, "; ".join(failures)


register_report(_report)
