"""Hash-consing and verdict-cache benchmark (the reproduction contract
for the committed ``BENCH_expr_interning.json``).

Three measurements, three acceptance gates:

* **repeated-query sweep** — a CEGIS-style outer loop re-solves the same
  batch of problems ``REPRO_INTERN_SWEEP_ROUNDS`` times.  With a shared
  :class:`~repro.core.verdict_cache.VerdictCache` every round after the
  first answers from the cache (zero Boolean queries), so the warm sweep
  must be **>= 2x** faster than the cold one.
* **problem pickle size** — a BMC-style unrolled problem is pickled with
  interning on and off.  This gate guards the pickle-memo sharing of
  ``Expr.__reduce__``: unrolling repeats the same template constraints at
  every depth, so with hash-consing the pickle memo serializes each shared
  subterm once; the payload must shrink by **>= 30%**.
* **disabled-mode overhead guard** — with interning switched off
  (:func:`set_interning`), the layer must cost
  nearly nothing: on an all-distinct construction workload (where
  interning can never hit) the disabled mode must stay within **5%** of
  the enabled mode's wall time.

Environment knobs:

* ``REPRO_INTERN_SWEEP_ROUNDS`` (default 6) — repeated-query rounds.
* ``REPRO_INTERN_SWEEP_SEEDS`` (default 5) — problems per round.
* ``REPRO_INTERN_UNROLL_DEPTH`` (default 12) — pickle workload depth.
"""

import os
import pickle
import time

from repro.benchgen import watertank_unroll_family
from repro.benchgen.randgen import planted_problem
from repro.core import ABSolver, ABSolverConfig, ABStatus
from repro.core.expr import Add, Const, Mul, Var, clear_intern_table, set_interning
from repro.core.verdict_cache import VerdictCache

from conftest import record_bench, register_report, report_rows


def _rounds() -> int:
    return int(os.environ.get("REPRO_INTERN_SWEEP_ROUNDS", "6"))


def _seeds() -> int:
    return int(os.environ.get("REPRO_INTERN_SWEEP_SEEDS", "5"))


def _unroll_depth() -> int:
    return int(os.environ.get("REPRO_INTERN_UNROLL_DEPTH", "12"))


# measurement name -> result dict.
_MEASURED = {}


# ---------------------------------------------------------------------------
# 1. Repeated-query sweep: verdict cache on vs off
# ---------------------------------------------------------------------------
def _sweep(cache):
    """One solve per seed; a shared cache turns re-runs into lookups."""
    stats = None
    for seed in range(1000, 1000 + _seeds()):
        problem = planted_problem(seed=seed, num_definitions=8, num_clauses=14).problem
        solver = ABSolver(ABSolverConfig(verdict_cache=cache))
        result = solver.solve(problem)
        assert result.status is ABStatus.SAT
        stats = solver.stats if stats is None else stats.merge(solver.stats)
    return stats


def _measure_repeated_queries():
    cold_stats = None
    started = time.perf_counter()
    for _ in range(_rounds()):
        run = _sweep(cache=None)
        cold_stats = run if cold_stats is None else cold_stats.merge(run)
    cold_seconds = time.perf_counter() - started

    cache = VerdictCache()
    warm_stats = None
    started = time.perf_counter()
    for _ in range(_rounds()):
        run = _sweep(cache=cache)
        warm_stats = run if warm_stats is None else warm_stats.merge(run)
    warm_seconds = time.perf_counter() - started

    _MEASURED["repeated"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / warm_seconds if warm_seconds else float("inf"),
        "cold_stats": cold_stats,
        "warm_stats": warm_stats,
    }


# ---------------------------------------------------------------------------
# 2. Problem pickle size with interning on vs off
# ---------------------------------------------------------------------------
def _problem_pickle_bytes(enabled: bool) -> int:
    previous = set_interning(enabled)
    try:
        clear_intern_table()
        depth = _unroll_depth()
        problem = watertank_unroll_family(depth).problem_at_depth(depth)
        return len(pickle.dumps(problem, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        set_interning(previous)


def _measure_pickle_size():
    interned = _problem_pickle_bytes(True)
    plain = _problem_pickle_bytes(False)
    _MEASURED["pickle"] = {
        "interned_bytes": interned,
        "plain_bytes": plain,
        "reduction": 1.0 - interned / plain if plain else 0.0,
    }


# ---------------------------------------------------------------------------
# 3. Disabled-mode overhead guard
# ---------------------------------------------------------------------------
def _construct_distinct(base: int, count: int) -> None:
    """Build ``count`` all-distinct expressions (interning cannot hit)."""
    for index in range(base, base + count):
        Add(Mul(Const(index), Var(f"g{index}")), Const(float(index) / 3.0))


def _time_construction(enabled: bool, base: int, count: int) -> float:
    previous = set_interning(enabled)
    try:
        clear_intern_table()
        started = time.perf_counter()
        _construct_distinct(base, count)
        return time.perf_counter() - started
    finally:
        set_interning(previous)


def _measure_overhead(count: int = 20_000, repeats: int = 5):
    # Best-of-N on disjoint index ranges smooths allocator/GC noise.
    on = min(
        _time_construction(True, r * count, count) for r in range(repeats)
    )
    off = min(
        _time_construction(False, (repeats + r) * count, count)
        for r in range(repeats)
    )
    _MEASURED["overhead"] = {
        "on_seconds": on,
        "off_seconds": off,
        "ratio": off / on if on else 0.0,
        "nodes": count * 4,
    }


def bench_expr_interning(benchmark):
    def run():
        _measure_repeated_queries()
        _measure_pickle_size()
        _measure_overhead()

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    if not _MEASURED:
        return
    repeated = _MEASURED["repeated"]
    pickle_m = _MEASURED["pickle"]
    overhead = _MEASURED["overhead"]
    rows = [
        [
            "repeated-query sweep",
            f"{repeated['cold_seconds']:.3f}s cold",
            f"{repeated['warm_seconds']:.3f}s warm",
            f"{repeated['speedup']:.1f}x",
        ],
        [
            "problem pickle",
            f"{pickle_m['plain_bytes']} B plain",
            f"{pickle_m['interned_bytes']} B interned",
            f"-{pickle_m['reduction'] * 100:.1f}%",
        ],
        [
            "disabled-mode overhead",
            f"{overhead['on_seconds'] * 1000:.1f}ms on",
            f"{overhead['off_seconds'] * 1000:.1f}ms off",
            f"{overhead['ratio']:.2f}x",
        ],
    ]
    report_rows(
        "Hash-consed expressions + verdict cache",
        ["measurement", "baseline", "treatment", "effect"],
        rows,
    )

    failures = []
    if repeated["speedup"] < 2.0:
        failures.append(
            f"repeated-query speedup {repeated['speedup']:.2f}x < 2x"
        )
    warm = repeated["warm_stats"]
    if warm.verdict_cache_hits <= 0:
        failures.append("warm sweep never hit the verdict cache")
    if pickle_m["reduction"] < 0.30:
        failures.append(
            f"pickle-size reduction {pickle_m['reduction'] * 100:.1f}% < 30%"
        )
    if overhead["ratio"] > 1.05:
        failures.append(
            f"disabled-mode overhead ratio {overhead['ratio']:.2f} > 1.05"
        )

    record_bench(
        "expr_interning",
        wall_seconds=repeated["cold_seconds"] + repeated["warm_seconds"],
        stats=repeated["warm_stats"],
        extra={
            "rounds": _rounds(),
            "seeds": _seeds(),
            "unroll_depth": _unroll_depth(),
            "cold_seconds": repeated["cold_seconds"],
            "warm_seconds": repeated["warm_seconds"],
            "repeated_query_speedup": repeated["speedup"],
            "pickle_interned_bytes": pickle_m["interned_bytes"],
            "pickle_plain_bytes": pickle_m["plain_bytes"],
            "pickle_reduction": pickle_m["reduction"],
            "overhead_on_seconds": overhead["on_seconds"],
            "overhead_off_seconds": overhead["off_seconds"],
            "overhead_ratio": overhead["ratio"],
        },
    )
    assert not failures, "; ".join(failures)


register_report(_report)
