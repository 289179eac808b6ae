"""Closed-loop benchmark of the solver on the paper's workloads.

One caller in one process sends a query, waits for the verdict, checks it
against the answer the instance was built with, and sends the next.  Run
from the repository root::

    python3 perfbench/run.py --workload fischer_smtlib --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload sudoku_lp --seed 1 --seconds 15 --trace 0 --ablate presolve

Timing metrics are given at a fixed reference host speed (``pace.py``);
the summary also prints the plain wall-clock figures.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (traced and untraced passes alternate, and their
throughput gap is the tracing overhead).  ``--ablate`` switches one layer
from its default through its public setting; ablation runs report the
same metric names and are never part of the default runs.  The last line
of standard output is one JSON object; a full record (verdicts, counts,
spans) is written under ``perfbench/out/``.  The command exits 1 when any
verdict is wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from typing import Callable, Dict, List, Optional, Tuple

from pace import SpeedGauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SOURCE = os.path.join(ROOT, "src")

WORKLOAD_NAMES = ("fischer_smtlib", "sudoku_lp", "bmc_session", "nonlinear_models")

#: Set-up runs this often per run, each in a fresh process; ``setup_s``
#: reports their median.
SETUP_REPEATS = 3

#: What a fresh set-up process runs: ``run.setup_seconds``.
SETUP_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import run; print(run.setup_seconds(*sys.argv[2:]))"

#: Layer ablations: name -> (public setting changed, config overrides).
#: Blocking templates have no public switch, so they cannot be ablated.
ABLATIONS = {
    "presolve": ("use_presolve=False", {"use_presolve": False}),
    "interning": ("repro.core.expr.set_interning(False)", {}),
    "reduce": ("reduce_interval=0", {"reduce_interval": 0}),
    "warm_start": ('linear_options={"warm_start": False}', {"linear_options": {"warm_start": False}}),
    "simplex_numpy": ('linear="simplex-numpy"', {"linear": "simplex-numpy"}),
    "verdict_cache": ("verdict_cache=VerdictCache() (in memory)", {}),
}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    sys.path.insert(0, SOURCE)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import the program from {SOURCE}: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SOURCE + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from {SOURCE}")


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def nearest_rank(values: List[float], fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _adapter_counts(session) -> Dict[str, int]:
    counters = getattr(session.pipeline.candidate.solver, "statistics", None) or {}
    return {key: counters.get(key, 0) for key in ("decisions", "conflicts", "propagations")}


def _sum_counts(outcomes) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for outcome in outcomes:
        for key, value in outcome.stats.items():
            totals[key] = totals.get(key, 0) + value
    return totals


def configure(workload, ablation: Optional[str]):
    """The workload's solver configuration, with ``ablation`` applied."""
    from repro.core.expr import set_interning
    from repro.core.verdict_cache import VerdictCache

    overrides = dict(ABLATIONS[ablation][1]) if ablation else {}
    if ablation == "interning":
        set_interning(False)
    if ablation == "verdict_cache":
        overrides["verdict_cache"] = VerdictCache()
    return workload.config(**overrides)


def setup_seconds(name: str, ablation: str = "") -> float:
    """Set up as a fresh process of the benchmark does; return the seconds
    since this module began importing: the import of the program, the
    inputs, and one warm-up episode."""
    import_program()
    from streams import WORKLOADS, Probe

    workload = WORKLOADS[name]
    config = configure(workload, ablation or None)
    workload.episodes()[0].run("w_", config, None, Probe(), lambda outcome, session: None)
    return time.perf_counter() - _STARTED


def fresh_setups(name: str, ablation: Optional[str], gauge: SpeedGauge) -> List[Tuple[float, float]]:
    """``SETUP_REPEATS`` set-ups, one fresh process each: (seconds, scale)."""
    setups = []
    for _ in range(SETUP_REPEATS):
        child, scale = gauge.around(lambda: subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, HERE, name, ablation or ""],
            stdout=subprocess.PIPE, text=True, check=True))
        setups.append((float(child.stdout.split()[-1]), scale))
    return setups


def measure(workload, seed: int, seconds: float, trace: bool, queries: Optional[int] = None,
            ablation: Optional[str] = None) -> dict:
    """Set up, run the closed loop, check every verdict; return the record."""
    from streams import Probe, schedule, tail_percentile

    config = configure(workload, ablation)
    gauge = SpeedGauge()
    setups = [] if trace else fresh_setups(workload.name, ablation, gauge)
    warmups = []
    episodes = workload.episodes()
    episodes[0].run("w_", config, None, Probe(), lambda outcome, session: warmups.append(outcome))

    passes = schedule(seed, episodes)
    recorder = traced_registry = None
    if trace:
        from layers import SpanRecorder

        recorder = SpanRecorder(gauge)
        traced_registry = recorder.registry()
    plain = Probe(gauge)
    outcomes: List[tuple] = []  # (pass index, traced, outcome)
    first_pass_spans = 0

    def sink(outcome, finished_session) -> None:
        if finished_session is not None:
            outcome.stats.update(_adapter_counts(finished_session))
        outcomes.append((pass_index, traced, outcome))

    pass_index = 0
    peak_rss_mb = None  # read once a fixed amount of work is done
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if queries is not None:
            done = pass_index >= (2 if trace else 1)
        elif trace:
            done = elapsed >= seconds and pass_index >= 2 and pass_index % 2 == 0
        else:
            done = elapsed >= seconds and pass_index >= workload.min_passes
        if done:
            break
        traced = trace and pass_index % 2 == 0
        prefix, order = next(passes)
        restore = recorder.install() if traced else None
        try:
            pass_start = len(outcomes)
            for episode in order:
                if queries is not None and len(outcomes) - pass_start >= queries:
                    break
                episode.run(prefix, config, traced_registry if traced else None,
                            recorder if traced else plain, sink)
        finally:
            if restore is not None:
                restore()
        if pass_index == 0 and recorder is not None:
            first_pass_spans = len(recorder.spans)
        pass_index += 1
        if pass_index == workload.min_passes:
            peak_rss_mb = _peak_rss_mb()
    if peak_rss_mb is None:
        peak_rss_mb = _peak_rss_mb()

    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "ablation": ablation,
        "passes": pass_index,
        "verdicts": [
            [index, o.instance, o.prefix, o.verdict, o.expected, o.seconds, o.scale, o.failed]
            for index, _, o in outcomes
        ],
        "errors": sorted({o.error for _, _, o in outcomes if o.error}
                         | {f"warm-up query {o.instance} failed" for o in warmups if o.failed}),
        "first_pass_counts": _sum_counts(o for index, _, o in outcomes if index == 0),
    }
    every = [o for _, _, o in outcomes] + warmups
    record["attempted"] = len(outcomes)
    record["failed"] = sum(o.failed for _, _, o in outcomes)
    record["correct"] = not any(o.wrong for o in every)

    record["scale_median"] = statistics.median(o.scale for _, _, o in outcomes)
    record["gauge_samples"] = gauge.taken
    if not trace:
        fraction = tail_percentile(workload, episodes)
        record["tail_percentile"] = round(100 * fraction, 2)
        record["samples"] = len(outcomes)
        record["setups"] = setups  # (wall seconds, scale) of each fresh set-up
        finished = [o for _, _, o in outcomes]
        record["metrics"] = timings([wall * scale for wall, scale in setups],
                                    by_instance(finished, lambda o: o.scaled), fraction)
        record["wall"] = timings([wall for wall, _ in setups], by_instance(finished, lambda o: o.seconds), fraction)
        record["metrics"]["ok_frac"] = (1 - record["failed"] / len(outcomes), "ratio")
        record["metrics"]["peak_rss_mb"] = (peak_rss_mb, "MB")
        record["failed_frac"] = record["failed"] / len(outcomes)
    else:
        record["first_pass_calls"] = dict(recorder.calls(0, first_pass_spans))
        record["metrics"], record["absent"] = layer_metrics(recorder, outcomes, record["first_pass_calls"])
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"{run_name(workload.name, seed, trace, ablation)}-spans.jsonl"))
    return record


def by_instance(outcomes, clock: Callable) -> Dict[str, List[float]]:
    """Each instance's query times, as ``clock(outcome)`` reads them."""
    times: Dict[str, List[float]] = {}
    for outcome in outcomes:
        times.setdefault(outcome.instance, []).append(clock(outcome))
    return times


def timings(setups: List[float], times: Dict[str, List[float]], fraction: float) -> dict:
    """The timing metrics of a run, from seconds of one clock.

    The median is that of a typical pass: every instance runs once a pass,
    and each counts with its median time.  Where a workload's instances
    leave a gap at the middle (the 6th and 7th of the 12 FISCHER instances
    take about 18 and 28 ms), the median of all the run's times falls
    between the slowest sample of one and the fastest of the other, which
    a few samples decide.
    """
    every = [seconds for values in times.values() for seconds in values]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "queries_per_s": (len(every) / sum(every), "1/s"),
        "query_p50_ms": (1000 * statistics.median(statistics.median(values) for values in times.values()), "ms"),
        "query_tail_ms": (1000 * nearest_rank(every, fraction), "ms"),
    }


def typical_rate(outcomes) -> float:
    """Queries per second of a typical pass: the number of instances over
    the sum of each instance's median scaled time, so that one slow pass
    moves it little."""
    times = by_instance(outcomes, lambda outcome: outcome.scaled)
    total = sum(statistics.median(values) for values in times.values())
    return len(times) / total if total else 0.0


def layer_metrics(recorder, outcomes, calls: Dict[str, int]):
    """Per-layer metrics of a traced run, and why absent layers are absent."""
    from layers import LAYERS

    traced = [o for _, is_traced, o in outcomes if is_traced]
    plain = [o for _, is_traced, o in outcomes if not is_traced]
    first = _sum_counts(o for index, _, o in outcomes if index == 0)
    totals = _sum_counts(traced)
    self_s = recorder.self_times([o.scale for o in traced])
    query_s = sum(self_s.values())
    every_call = recorder.calls()
    notes = recorder.notes
    n = len(traced)

    def ratio(numerator, denominator) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {}

    def timing(name: str, span: str, suffix_s: str = "self_s", suffix_share: str = "share") -> None:
        metrics[f"{name}.{suffix_s}"] = (self_s.get(span, 0.0) / n, "s/query")
        metrics[f"{name}.{suffix_share}"] = (ratio(self_s.get(span, 0.0), query_s), "ratio")

    timing("io", "io")
    timing("simulink", "simulink")
    timing("session", "session", "assert_s", "assert_share")
    metrics["presolve.calls"] = (calls.get("presolve", 0), "count")
    timing("presolve", "presolve")
    metrics["presolve.settled_frac"] = (ratio(totals.get("presolve_settled", 0), n), "ratio")
    metrics["translate.calls"] = (calls.get("translate", 0), "count")
    timing("translate", "translate")
    hits, misses = totals.get("translation_cache_hits", 0), totals.get("translation_cache_misses", 0)
    metrics["translate.cache_hit_ratio"] = (ratio(hits, hits + misses), "ratio")
    metrics["translate.cache_hits"] = (first.get("translation_cache_hits", 0), "count")
    metrics["translate.cache_misses"] = (first.get("translation_cache_misses", 0), "count")
    timing("circuit", "circuit")
    metrics["sat.calls"] = (first.get("boolean_queries", 0), "count")
    timing("sat", "sat")
    for key in ("decisions", "conflicts", "propagations"):
        metrics[f"sat.{key}"] = (first.get(key, 0), "count")
    metrics["linear.check_calls"] = (first.get("linear_checks", 0), "count")
    timing("linear", "linear.check", "check_s", "check_share")
    metrics["linear.rows_per_check"] = (ratio(notes["linear.rows"], every_call.get("linear.check", 0)), "rows")
    metrics["linear.warm_start_hit_ratio"] = (
        ratio(totals.get("warm_start_hits", 0), totals.get("linear_checks", 0)), "ratio")
    metrics["linear.warm_start_hits"] = (first.get("warm_start_hits", 0), "count")
    metrics["linear.refine_calls"] = (first.get("refinements", 0), "count")
    timing("linear", "linear.refine", "refine_s", "refine_share")
    metrics["linear.core_frac"] = (ratio(notes["linear.core_rows"], notes["linear.refine_rows"]), "ratio")
    metrics["nonlinear.calls"] = (first.get("nonlinear_calls", 0), "count")
    timing("nonlinear", "nonlinear")
    metrics["nonlinear.success_ratio"] = (ratio(notes["nonlinear.sat"], every_call.get("nonlinear", 0)), "ratio")
    metrics["nonlinear.refute_calls"] = (calls.get("nonlinear.refute", 0), "count")
    timing("nonlinear", "nonlinear.refute", "refute_s", "refute_share")
    metrics["nonlinear.refutations"] = (first.get("interval_refutations", 0), "count")
    metrics["nonlinear.refuted_ratio"] = (
        ratio(notes["nonlinear.refuted"], every_call.get("nonlinear.refute", 0)), "ratio")
    timing("solve", "query", "other_s", "other_share")
    metrics["loop.candidates_per_query"] = (ratio(totals.get("boolean_queries", 0), n), "count")
    metrics["loop.template_hits"] = (first.get("template_hits", 0), "count")
    metrics["expr.intern_hits"] = (first.get("intern_hits", 0), "count")
    metrics["obs.trace_overhead_frac"] = (1 - ratio(typical_rate(traced), typical_rate(plain)), "ratio")

    absent = {
        layer: f"no calls into {what} on this workload"
        for layer, what in LAYERS.items()
        if not every_call.get(layer)
    }
    return metrics, absent


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------
def run_name(workload: str, seed: int, trace: bool, ablation: Optional[str]) -> str:
    name = f"{workload}-seed{seed}-trace{int(trace)}"
    return f"{name}-{ablation}" if ablation else name


def report(record: dict) -> dict:
    """Print the human-readable summary; return the result object."""
    head = f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
    if record["ablation"]:
        head += f"  ablation {record['ablation']} ({ABLATIONS[record['ablation']][0]})"
    print(head)
    print(f"  {record['attempted']} queries in {record['passes']} passes, {record['failed']} failed")
    if "tail_percentile" in record:
        print(f"  query_tail_ms is p{record['tail_percentile']} over {record['samples']} queries")
        print(f"  {'failed_frac':32s} {record['failed_frac']:.6g} ratio")
    print(f"  timings at the reference host speed (median scale {record['scale_median']:.4g}"
          f" from {record['gauge_samples']} gauge samples)")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, (value, unit) in record.get("wall", {}).items():
        print(f"  wall clock {name:21s} {value:.6g} {unit}")
    for layer, why in record.get("absent", {}).items():
        print(f"  absent: {layer}: {why}")
    for error in record["errors"]:
        print(f"  error: {error}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in record["metrics"].items()},
    }


def run_all(args) -> int:
    """Every workload, one process each, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ablate:
            command += ["--ablate", args.ablate]
        if args.queries is not None:
            command += ["--queries", str(args.queries)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = status or completed.returncode
        if completed.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help="shuffles and prefixes the generated inputs")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure at least this long; runs end on a whole pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ablate", choices=sorted(ABLATIONS),
                        help="switch one layer from its default (blocking templates have no switch)")
    parser.add_argument("--queries", type=int,
                        help="smoke runs: at most this many queries per pass, one pass per mode")
    args = parser.parse_args(argv)

    import_program()
    if args.workload == "all":
        return run_all(args)
    from streams import WORKLOADS

    record = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                     args.queries, args.ablate)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, run_name(args.workload, args.seed, bool(args.trace), args.ablate) + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    result = report(record)
    print(json.dumps(result))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
