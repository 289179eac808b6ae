"""Ablation — native all-SAT vs iterated external restarts (Sec. 4).

"Even if a SAT-solver other than LSAT is used ... ABSOLVER's internal
bookkeeping makes it possible to iteratively call the solver, such that,
effectively, all solutions can be computed.  This, however, happens at the
expense of the time required for restarting the entire solving process
externally."

The bench enumerates all models of a model-rich CNF with:

* the LSAT-style in-process enumerator (incremental, blocking clauses
  added to a live solver, optional cube minimization),
* the external-restart route (a fresh CDCL solver per model).

Expected shape: the native enumerator wins, and minimization reduces the
number of emitted cubes below the total model count.
"""

import time

from repro.sat import CNF, AllSATSolver, iterate_models

from conftest import register_report, report_rows

_measured = {}


def _rich_cnf():
    """Two implication chains plus coupling clauses: ~50 total models."""
    cnf = CNF(14)
    for var in range(1, 7):  # chain 1 over vars 1..7
        cnf.add_clause([-var, var + 1])
    for var in range(8, 14):  # chain 2 over vars 8..14
        cnf.add_clause([-var, var + 1])
    cnf.add_clause([1, 8])  # at least one chain fully on
    cnf.add_clause([7, 14])
    return cnf


def bench_ablation_allsat_native(benchmark):
    def run():
        return sum(1 for _ in AllSATSolver(_rich_cnf(), minimize=False))

    started = time.perf_counter()
    count = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured["native"] = (time.perf_counter() - started, count)


def bench_ablation_allsat_minimized(benchmark):
    def run():
        return sum(1 for _ in AllSATSolver(_rich_cnf(), minimize=True))

    started = time.perf_counter()
    count = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured["minimized"] = (time.perf_counter() - started, count)


def bench_ablation_allsat_external_restarts(benchmark):
    def run():
        return sum(1 for _ in iterate_models(_rich_cnf()))

    started = time.perf_counter()
    count = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured["external"] = (time.perf_counter() - started, count)


def _report():
    rows = [
        [route, f"{data[0]:.3f}s", data[1]]
        for route, data in sorted(_measured.items())
    ]
    report_rows(
        "Ablation: all-SAT routes (LSAT-native vs external restarts)",
        ["route", "time", "models/cubes emitted"],
        rows,
    )
    if {"native", "external", "minimized"} <= set(_measured):
        # same model space, fewer (or equal) cubes with minimization
        assert _measured["native"][1] == _measured["external"][1]
        assert _measured["minimized"][1] <= _measured["native"][1]
        # the restart route re-pays solver construction per model
        assert _measured["external"][0] >= _measured["native"][0] * 0.8


register_report(_report)
