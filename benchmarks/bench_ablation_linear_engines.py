"""Ablation — "the most appropriate solver for a given task" (abstract).

Two experiments, one point: ABsolver's registry exists so each theory
query runs on the engine best shaped for it.

1. **FISCHER instance** — the same problem solved with the generic exact
   simplex (the paper's COIN role), the float64-filtered simplex
   (``simplex-numpy``), and the difference-logic specialist
   (Bellman–Ford).  Verdicts and Boolean iteration counts are identical —
   only the per-check theory cost changes.  FISCHER components are tiny
   difference constraints, so the specialist wins and the numpy filter
   deliberately stays out of the way (systems below its ``min_rows``
   threshold never pay the array-setup cost).
2. **Dense LP sweep** — seeded random dense feasible systems (~30 vars,
   ~45 rows, two-thirds dense) checked engine-vs-engine:
   :class:`~repro.linear.simplex.SimplexSolver` against
   :class:`~repro.linear.numpy_simplex.NumpySimplexSolver`.  This is the
   workload the float filter exists for: the float64 tableau proposes the
   basis, one exact Gaussian solve certifies it, and the exact engine's
   pivot-by-pivot growth of its integer rows never happens.  The report
   asserts the numpy engine is at least 2x faster and that every check
   was float-accepted (``numpy_accepts``), i.e. the speedup came from the
   filter, not from falling back to the exact engine.

The committed record (``BENCH_ablation_linear.json``) carries both
wall-clock sets plus the accept/fallback counters.
"""

import random
import time
from fractions import Fraction

import pytest

from repro.benchgen import fischer_problem
from repro.core import ABSolver, ABSolverConfig
from repro.core.expr import Relation
from repro.linear import LinearConstraint, LinearSystem, SimplexSolver
from repro.linear.numpy_simplex import NumpySimplexSolver, numpy_available

from conftest import record_bench, register_report, report_rows

_measured = {}
_dense_measured = {}

_N = 3  # large enough to show the gap, small enough for the simplex

_DENSE_SEEDS = range(8)
_DENSE_VARS = 30
_DENSE_ROWS = 45


@pytest.mark.parametrize("linear", ["simplex", "simplex-numpy", "difference"])
def bench_ablation_linear_engine(benchmark, linear):
    def run():
        result = ABSolver(ABSolverConfig(linear=linear)).solve(fischer_problem(_N))
        assert result.is_sat
        return result

    started = time.perf_counter()
    result = benchmark.pedantic(run, rounds=1, iterations=1)
    _measured[linear] = (time.perf_counter() - started, result.stats.boolean_queries)


def _dense_system(seed: int) -> LinearSystem:
    """A seeded dense feasible system: bounds are built around a known
    integer point, so feasibility is guaranteed by construction."""
    rng = random.Random(seed)
    names = [f"x{i}" for i in range(_DENSE_VARS)]
    point = {name: Fraction(rng.randint(-5, 5)) for name in names}
    rows = []
    for _ in range(_DENSE_ROWS):
        support = rng.sample(names, k=max(2, _DENSE_VARS * 2 // 3))
        coeffs = {name: Fraction(rng.randint(-9, 9)) for name in support}
        lhs = sum(coeffs[name] * point[name] for name in support)
        rows.append(LinearConstraint(coeffs, Relation.LE, lhs + rng.randint(0, 7)))
    return LinearSystem(rows)


def bench_dense_lp_engines(benchmark):
    """Exact vs float-filtered simplex on dense feasibility checks."""
    systems = [_dense_system(seed) for seed in _DENSE_SEEDS]

    def run():
        for label, solver in (
            ("exact", SimplexSolver()),
            ("numpy", NumpySimplexSolver()),
        ):
            started = time.perf_counter()
            for system in systems:
                result = solver.check(system)
                assert result.status.name == "FEASIBLE"
                assert system.check_point(result.point)
            _dense_measured[label] = {
                "seconds": time.perf_counter() - started,
                "accepts": getattr(solver, "numpy_accepts", 0),
                "fallbacks": getattr(solver, "numpy_fallbacks", 0),
            }

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    rows = [
        [engine, f"{data[0]:.3f}s", data[1]]
        for engine, data in sorted(_measured.items())
    ]
    report_rows(
        f"Ablation: linear engines on FISCHER{_N} (same verdict, same iterations)",
        ["linear engine", "time", "boolean iterations"],
        rows,
    )
    if {"simplex", "simplex-numpy", "difference"} <= set(_measured):
        assert (
            _measured["simplex"][1]
            == _measured["simplex-numpy"][1]
            == _measured["difference"][1]
        )
        assert _measured["difference"][0] < _measured["simplex"][0]

    speedup = 0.0
    if {"exact", "numpy"} <= set(_dense_measured):
        exact, npy = _dense_measured["exact"], _dense_measured["numpy"]
        speedup = exact["seconds"] / max(npy["seconds"], 1e-9)
        report_rows(
            f"Dense LP ({len(list(_DENSE_SEEDS))} systems, "
            f"{_DENSE_VARS} vars x {_DENSE_ROWS} rows)",
            ["engine", "time", "speedup", "numpy_accepts", "numpy_fallbacks"],
            [
                ["exact", f"{exact['seconds']:.3f}s", "1.00x", "-", "-"],
                [
                    "numpy",
                    f"{npy['seconds']:.3f}s",
                    f"{speedup:.2f}x",
                    npy["accepts"],
                    npy["fallbacks"],
                ],
            ],
        )
        record_bench(
            "ablation_linear",
            wall_seconds=exact["seconds"] + npy["seconds"],
            stats=None,
            extra={
                "fischer_engine_seconds": {
                    engine: data[0] for engine, data in _measured.items()
                },
                "dense_exact_seconds": exact["seconds"],
                "dense_numpy_seconds": npy["seconds"],
                "dense_numpy_speedup": speedup,
                "numpy_accepts": npy["accepts"],
                "numpy_fallbacks": npy["fallbacks"],
            },
        )
        if numpy_available():
            assert speedup >= 2.0, (
                f"numpy simplex speedup {speedup:.2f}x < 2x on dense LPs"
            )
            assert npy["accepts"] == len(list(_DENSE_SEEDS)), (
                "float path fell back on a dense system it should accept"
            )


register_report(_report)
