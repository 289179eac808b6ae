"""Incremental solve sessions vs one-shot solving on BMC unroll sweeps.

The paper's application domain is bounded analysis of hybrid models: one
model yields a *family* of closely related AB-queries, one per unroll
depth.  This bench runs the two unroll families
(:func:`repro.benchgen.fischer_unroll_family` — process unrolling of the
mutual-exclusion protocol, and
:func:`repro.benchgen.watertank_unroll_family` — time unrolling of the
tank controller) twice each:

* **one-shot**: a fresh :class:`~repro.core.solver.ABSolver` per depth, the
  classic mode — every depth re-translates every atom and relearns every
  theory lemma from scratch;
* **session**: one :class:`~repro.core.session.SolverSession`, each depth
  asserting only its delta — learned clauses, theory lemmas and the
  translation cache persist across checks;
* **replay**: a *fresh* session that, before its check at depth *d*,
  imports (``import_lemmas``) the definite theory lemmas the session
  sweep derived at depth *d*.  Both sessions hold the same assertions at
  that point, so each lemma is sound there; it enters the Boolean engine
  as a clause, and the candidates it rules out never reach the theory
  stages.  This is the sequential measurement of the mechanism parallel
  workers use to deduplicate refinement work across cubes.

The end-of-session report table shows the sweep times, the speedups, the
reuse counters (``clauses_reused``, ``translation_cache_hits``,
``warm_start_hits``) and the ``linear_checks`` of the session and replay
sweeps; the report *asserts* that the session sweep is strictly faster
than one-shot, that ``clauses_reused`` and ``translation_cache_hits`` are
nonzero, and that the replay runs fewer linear checks than the session
sweep.  Both families are pure difference
logic, so the sweeps run with ``linear="difference"`` (Bellman-Ford
negative-cycle conflict cores) and never reach the simplex: its warm
starts (``warm_start_hits``) are reported, not asserted.

Because difference logic never reaches the nonlinear stage, the committed
record used to show ``nonlinear_calls: 0`` — dead counters.  A third
sweep over the Table 1 nonlinear micro-benchmarks
(:data:`repro.benchgen.nonlinear_micro.MICRO_BENCHMARKS`) plus one
instance of this bench's own is merged into the record, so
``nonlinear_calls`` and ``interval_refutations`` are exercised and
asserted nonzero.  Table 1's UNSAT row is settled by stage 0's interval
contraction before the refuter runs, so the refuter's instance is
``annulus_product``: ``1 <= x*x + y*y <= 4`` and ``x*y >= 2.5``, UNSAT
because ``2xy <= x*x + y*y <= 4``.  Contraction alone cannot see that;
branch-and-prune can.

Environment knobs:

* ``REPRO_UNROLL_MAX_DEPTH`` (default 8) — deepest unroll depth.
"""

import os
import time

from repro import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.benchgen import fischer_unroll_family, watertank_unroll_family
from repro.benchgen.nonlinear_micro import MICRO_BENCHMARKS

from conftest import record_bench, register_report, report_rows


def unroll_max_depth() -> int:
    return int(os.environ.get("REPRO_UNROLL_MAX_DEPTH", "8"))


def _config() -> ABSolverConfig:
    # Both unroll families are QF_RDL: every atom is a bound or a
    # two-variable difference, so the difference-logic adapter applies.
    return ABSolverConfig(linear="difference")


_FAMILIES = {
    "fischer": fischer_unroll_family,
    "watertank": watertank_unroll_family,
}

#: family -> mode ("one-shot" / "session") -> measurement dict.
_MEASURED = {}

#: Merged stats + wall time of the nonlinear micro sweep (or None).
_MICRO = {}


def _oneshot_sweep(family):
    """Solve depths 1..max with a fresh solver per depth."""
    verdicts = []
    stats = None
    started = time.perf_counter()
    for depth in range(1, family.max_depth + 1):
        solver = ABSolver(_config())
        result = solver.solve(
            family.problem_at_depth(depth),
            assumptions=family.check_assumptions(depth),
        )
        expected = family.expected_status(depth)
        assert expected is None or result.status.value == expected, (
            f"{family.name} depth {depth}: one-shot said {result.status.value}, "
            f"expected {expected}"
        )
        verdicts.append(result.status.value)
        stats = solver.stats if stats is None else stats.merge(solver.stats)
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": verdicts,
        "stats": stats,
    }


def _session_sweep(family, reference_verdicts=None):
    """Solve depths 1..max through one session, asserting only the deltas.

    Collects the definite theory lemmas the sweep derives at each depth
    (via the session's ``lemma_listener``) so the replay sweep can give a
    fresh session the same lemmas at the same depth.
    """
    session = SolverSession(_config())
    lemmas = []  # lemmas[depth - 1]: the lemmas derived at that depth
    session.lemma_listener = (
        lambda clause, definite: lemmas[-1].append(list(clause)) if definite else None
    )
    verdicts = []
    started = time.perf_counter()
    family.layers[0].apply_to_session(session)
    for depth in range(1, family.max_depth + 1):
        family.layers[depth].apply_to_session(session)
        lemmas.append([])
        result = session.check(family.check_assumptions(depth))
        expected = family.expected_status(depth)
        assert expected is None or result.status.value == expected, (
            f"{family.name} depth {depth}: session said {result.status.value}, "
            f"expected {expected}"
        )
        if reference_verdicts is not None:
            assert result.status.value == reference_verdicts[depth - 1], (
                f"{family.name} depth {depth}: session and one-shot disagree"
            )
        verdicts.append(result.status.value)
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": verdicts,
        "stats": session.stats,
        "lemmas": lemmas,
    }


def _replay_sweep(family, lemmas, reference_verdicts):
    """Re-run the sweep in a fresh session primed with known lemmas.

    At depth *d* the session imports the lemmas the session sweep derived
    at depth *d*, whose variables are all defined by then.  How many
    ``linear_checks`` fewer the replay runs measures the refinement work
    the imported lemmas saved.
    """
    session = SolverSession(_config())
    verdicts = []
    started = time.perf_counter()
    family.layers[0].apply_to_session(session)
    for depth in range(1, family.max_depth + 1):
        family.layers[depth].apply_to_session(session)
        session.import_lemmas(lemmas[depth - 1])
        result = session.check(family.check_assumptions(depth))
        assert result.status.value == reference_verdicts[depth - 1], (
            f"{family.name} depth {depth}: replay and session disagree"
        )
        verdicts.append(result.status.value)
    return {
        "seconds": time.perf_counter() - started,
        "verdicts": verdicts,
        "stats": session.stats,
    }


def _run_family(name, benchmark):
    family = _FAMILIES[name](unroll_max_depth())
    measured = _MEASURED.setdefault(name, {})

    def run():
        measured["one-shot"] = _oneshot_sweep(family)
        measured["session"] = _session_sweep(
            family, reference_verdicts=measured["one-shot"]["verdicts"]
        )
        measured["replay"] = _replay_sweep(
            family,
            measured["session"]["lemmas"],
            measured["session"]["verdicts"],
        )

    benchmark.pedantic(run, rounds=1, iterations=1)


def bench_incremental_fischer(benchmark):
    """FISCHER process-unroll sweep: one-shot vs one session."""
    _run_family("fischer", benchmark)


def bench_incremental_watertank(benchmark):
    """Water-tank time-unroll sweep: one-shot vs one session."""
    _run_family("watertank", benchmark)


def _annulus_product_problem() -> ABProblem:
    """A nonlinear conflict that needs branch-and-prune; expected: UNSAT."""
    problem = ABProblem(name="annulus_product")
    texts = ["x * x + y * y >= 1", "x * x + y * y <= 4", "x * y >= 2.5"]
    for var, text in enumerate(texts, start=1):
        problem.define(var, "real", parse_constraint(text))
        problem.add_clause([var])
    problem.set_bounds("x", -10.0, 10.0)
    problem.set_bounds("y", -10.0, 10.0)
    return problem


#: Table 1's micros plus the instance that reaches the interval refuter.
_MICRO_SWEEP = {**MICRO_BENCHMARKS, "annulus_product": (_annulus_product_problem, "unsat")}


def bench_nonlinear_micros(benchmark):
    """Table 1 nonlinear micros and ``annulus_product``, merged into the unroll record.

    The unroll families are pure difference logic, so without this sweep
    the committed record reports ``nonlinear_calls: 0`` — the nonlinear
    counters would be dead weight nobody could regress against.
    """

    def run():
        stats = None
        verdicts = {}
        started = time.perf_counter()
        for name, (factory, expected) in sorted(_MICRO_SWEEP.items()):
            solver = ABSolver(ABSolverConfig())
            result = solver.solve(factory())
            assert result.status.value == expected, (
                f"{name}: said {result.status.value}, expected {expected}"
            )
            verdicts[name] = result.status.value
            stats = solver.stats if stats is None else stats.merge(solver.stats)
        _MICRO["seconds"] = time.perf_counter() - started
        _MICRO["stats"] = stats
        _MICRO["verdicts"] = verdicts

    benchmark.pedantic(run, rounds=1, iterations=1)


def _report():
    if not _MEASURED:
        return
    header = [
        "family",
        "depths",
        "one-shot s",
        "session s",
        "replay s",
        "speedup",
        "clauses_reused",
        "cache_hits",
        "warm_hits",
        "checks session/replay",
    ]
    rows = []
    failures = []
    for name, measured in sorted(_MEASURED.items()):
        if "one-shot" not in measured or "session" not in measured:
            continue
        oneshot, session = measured["one-shot"], measured["session"]
        replay = measured.get("replay")
        stats = session["stats"]
        replay_stats = replay["stats"] if replay else None
        speedup = oneshot["seconds"] / max(session["seconds"], 1e-9)
        rows.append(
            [
                name,
                f"1..{unroll_max_depth()}",
                f"{oneshot['seconds']:.3f}",
                f"{session['seconds']:.3f}",
                f"{replay['seconds']:.3f}" if replay else "-",
                f"{speedup:.2f}x",
                stats.clauses_reused,
                stats.translation_cache_hits,
                stats.warm_start_hits,
                f"{stats.linear_checks}/"
                + (str(replay_stats.linear_checks) if replay_stats else "-"),
            ]
        )
        if session["seconds"] >= oneshot["seconds"]:
            failures.append(f"{name}: session sweep not faster than one-shot")
        if stats.clauses_reused <= 0:
            failures.append(f"{name}: no clause reuse across checks")
        if stats.translation_cache_hits <= 0:
            failures.append(f"{name}: translation cache never hit")
        if (
            replay_stats is not None
            and replay_stats.linear_checks >= stats.linear_checks
        ):
            failures.append(
                f"{name}: lemma replay ran {replay_stats.linear_checks} linear "
                f"checks, not fewer than the session sweep's {stats.linear_checks}"
            )
    report_rows(
        "Incremental sessions — unroll sweeps (one-shot vs session vs replay)",
        header,
        rows,
    )

    # Machine-readable trajectory record (BENCH_incremental_unroll.json):
    # cumulative session stats plus per-family sweep times and speedups,
    # so the perf trajectory across commits is diffable without log-diving.
    combined = None
    per_family = {}
    total_wall = 0.0
    for name, measured in sorted(_MEASURED.items()):
        if "one-shot" not in measured or "session" not in measured:
            continue
        oneshot, session = measured["one-shot"], measured["session"]
        replay = measured.get("replay")
        per_family[name] = {
            "one_shot_seconds": oneshot["seconds"],
            "session_seconds": session["seconds"],
            "session_linear_checks": session["stats"].linear_checks,
            "speedup": oneshot["seconds"] / max(session["seconds"], 1e-9),
            "verdicts": session["verdicts"],
        }
        total_wall += oneshot["seconds"] + session["seconds"]
        stats = session["stats"]
        combined = stats if combined is None else combined.merge(stats)
        if replay is not None:
            per_family[name]["replay_seconds"] = replay["seconds"]
            per_family[name]["replay_linear_checks"] = replay["stats"].linear_checks
            total_wall += replay["seconds"]
            # Merge the replay session's counters too: the committed record
            # carries the primed sweep's work next to the incremental one's.
            combined.merge(replay["stats"])
    extra = {"max_depth": unroll_max_depth(), "families": per_family}
    if _MICRO:
        total_wall += _MICRO["seconds"]
        micro_stats = _MICRO["stats"]
        combined = micro_stats if combined is None else combined.merge(micro_stats)
        extra["nonlinear_micros"] = {
            "seconds": _MICRO["seconds"],
            "verdicts": _MICRO["verdicts"],
        }
        if micro_stats.nonlinear_calls <= 0:
            failures.append("nonlinear micros: nonlinear solver never called")
        if micro_stats.interval_refutations <= 0:
            failures.append("nonlinear micros: interval refuter never concluded")
    if per_family:
        record_bench(
            "incremental_unroll",
            wall_seconds=total_wall,
            stats=combined,
            extra=extra,
        )
    assert not failures, "; ".join(failures)


register_report(_report)
