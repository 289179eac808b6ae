"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402

run.import_program()

import pace  # noqa: E402
import streams  # noqa: E402

#: Queries per smoke run: one Sudoku LP takes about a second.
SMOKE = {"fischer_smtlib": 4, "sudoku_lp": 1, "bmc_session": 4, "nonlinear_models": 8}


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


def _cli(*args: str) -> dict:
    """Run the command in its own process; return the record it wrote."""
    options = dict(zip(args[::2], args[1::2]))
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args], capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    name = run.run_name(options["--workload"], int(options["--seed"]), options["--trace"] == "1", None)
    with open(os.path.join(run.OUT, name + ".json"), encoding="utf-8") as handle:
        return json.load(handle)


def _first_pass(record: dict) -> list:
    return [row[1:5] for row in record["verdicts"] if row[0] == 0]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_passes_the_correctness_gate(name):
    record = run.measure(streams.WORKLOADS[name], seed=7, seconds=0, trace=False, queries=SMOKE[name])
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    assert not record["errors"]


def test_wrong_expected_verdict_fails_the_run(monkeypatch):
    base = streams.WORKLOADS["fischer_smtlib"]

    def flipped():
        episodes = base.episodes()
        for episode in episodes:
            episode.expected = "sat" if episode.expected == "unsat" else "unsat"
        return episodes

    workload = streams.Workload(base.name, base.config_kwargs, 1, flipped)
    record = run.measure(workload, seed=3, seconds=0, trace=False, queries=2)
    assert not record["correct"]
    assert record["failed"] == record["attempted"] == 2
    monkeypatch.setitem(streams.WORKLOADS, base.name, workload)
    assert run.main(["--workload", base.name, "--seed", "3", "--queries", "1"]) == 1


def test_gauge_factor_follows_the_kernel_time(monkeypatch):
    monkeypatch.setattr(pace, "kernel", lambda: time.sleep(4 * pace.REFERENCE_S))
    gauge = pace.SpeedGauge()
    factor = gauge.factor()
    assert gauge.taken == pace.MIN_SAMPLES
    # Sleeps overshoot, never undershoot.
    assert 0.1 ** pace.QUERY_EXPONENT < factor <= 0.25 ** pace.QUERY_EXPONENT
    gauge.factor()
    assert gauge.taken == pace.MIN_SAMPLES  # the samples are fresh: none is taken
    _, scale = gauge.around(lambda: None)
    assert gauge.taken == pace.MIN_SAMPLES + 2 * pace.SPREAD_SAMPLES
    assert 0.1 < scale <= 0.25


def test_timings_are_wall_times_scaled_to_the_reference_speed():
    record = run.measure(streams.WORKLOADS["fischer_smtlib"], seed=2, seconds=0, trace=False, queries=4)
    rows = record["verdicts"]
    assert all(row[6] > 0 for row in rows)
    scaled = [row[5] * row[6] for row in rows]
    assert record["metrics"]["queries_per_s"][0] == pytest.approx(len(rows) / sum(scaled))
    assert record["wall"]["queries_per_s"][0] == pytest.approx(len(rows) / sum(row[5] for row in rows))
    assert record["metrics"]["query_p50_ms"][0] == pytest.approx(1000 * statistics.median(scaled))  # one pass
    assert len(record["setups"]) == run.SETUP_REPEATS
    setups = [wall * scale for wall, scale in record["setups"]]
    assert record["metrics"]["setup_s"][0] == pytest.approx(statistics.median(setups))


def test_median_is_that_of_a_typical_pass():
    times = {"a": [0.010, 0.011, 0.030], "b": [0.020, 0.021, 0.022], "c": [0.040, 0.041, 0.050]}
    metrics = run.timings([1.0, 3.0, 2.0], times, 8 / 9)
    assert metrics["query_p50_ms"][0] == pytest.approx(21.0)  # the median of all nine is 22 ms
    assert metrics["queries_per_s"][0] == pytest.approx(9 / 0.245)
    assert metrics["query_tail_ms"][0] == pytest.approx(41.0)
    assert metrics["setup_s"][0] == 2.0


def test_typical_rate_is_robust_to_one_slow_pass():
    def outcome(instance, seconds):
        made = streams.QueryOutcome(instance, "p_", "sat")
        made.seconds = seconds
        return made

    fast = [outcome(name, seconds) for _ in range(4) for name, seconds in (("a", 0.1), ("b", 0.3))]
    slow = [outcome("a", 1.0), outcome("b", 3.0)]
    assert run.typical_rate(fast + slow) == pytest.approx(2 / 0.4)
    assert run.typical_rate([]) == 0.0


def test_same_seed_gives_the_same_query_sequence():
    episodes = streams.WORKLOADS["fischer_smtlib"].episodes()

    def plan(seed):
        return [
            (prefix, [episode.name for episode in order])
            for prefix, order in itertools.islice(streams.schedule(seed, episodes), 3)
        ]

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)


def test_renaming_keeps_every_input_distinct_and_sorted():
    episode = streams.WORKLOADS["nonlinear_models"].episodes()[0]  # Fig. 2
    first = episode.template.replace(streams.MARK, "q0000010000_")
    second = episode.template.replace(streams.MARK, "q0000010001_")
    assert first != second and "c def int 2 2*q0000010000_i + q0000010000_j < 10" in first
    names = sorted(streams.parse_dimacs(first).theory_variables())
    assert names == ["q0000010000_" + name for name in sorted("aijxy")]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_theory_variable_gets_the_pass_prefix(name):
    prefix = "q00000a0003_"
    for episode in streams.WORKLOADS[name].episodes():
        if isinstance(episode, streams.Sweep):
            problem = streams.UnrollFamily("renamed", streams._renamed_layers(episode.family.layers, prefix))
            variables = problem.problem_at_depth(problem.max_depth).theory_variables()
        else:
            variables = episode._problem(episode._input(prefix), streams.Probe()).theory_variables()
        assert variables and all(variable.startswith(prefix) for variable in variables), episode.name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_separate_processes_agree_on_verdicts_and_counts(name):
    common = ("--workload", name, "--seed", "9", "--queries", str(SMOKE[name]), "--seconds", "0")
    plain = _cli(*common, "--trace", "0")
    traced = _cli(*common, "--trace", "1")
    again = _cli(*common, "--trace", "1")
    assert _first_pass(plain) == _first_pass(traced) == _first_pass(again)
    assert plain["first_pass_counts"] == traced["first_pass_counts"] == again["first_pass_counts"]
    assert traced["first_pass_calls"] == again["first_pass_calls"]


def test_child_spans_nest_inside_their_parents():
    record = run.measure(streams.WORKLOADS["nonlinear_models"], seed=4, seconds=0, trace=True, queries=8)
    assert record["correct"]
    path = os.path.join(run.OUT, run.run_name("nonlinear_models", 4, True, None) + "-spans.jsonl")
    with open(path, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle]
    children = {span["id"]: [] for span in spans}
    for span in spans:
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["query"] == span["query"]
            assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
            children[parent["id"]].append(span)
    roots = [span for span in spans if span["parent"] < 0]
    assert roots and all(span["name"] == "query" for span in roots)
    for span in spans:
        ordered = sorted(children[span["id"]], key=lambda child: child["start"])
        for before, after in zip(ordered, ordered[1:]):
            assert before["end"] <= after["start"]  # children never overlap
    shares = [value for key, (value, unit) in record["metrics"].items() if key.endswith("share")]
    assert sum(shares) == pytest.approx(1.0)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [workload["name"] for workload in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    workload = streams.WORKLOADS["nonlinear_models"]
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record = run.measure(workload, seed=1, seconds=0, trace=trace, queries=2)
        printed = {name: unit for name, (value, unit) in record["metrics"].items()}
        assert printed == {metric["name"]: metric["unit"] for metric in bench[key]}
