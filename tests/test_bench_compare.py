"""Tests for the bench regression gate (tools/bench_compare.py)."""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tools"))

import bench_compare  # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _write(directory, name, record, schema2=True):
    path = directory / f"BENCH_{name}.json"
    payload = (
        {"schema": 2, "benchmark": name, "trajectory": [record]}
        if schema2
        else record
    )
    path.write_text(json.dumps(payload))
    return str(path)


def _record(wall=1.0, counters=None):
    return {
        "benchmark": "demo",
        "wall_seconds": wall,
        "counters": dict(counters or {"boolean_queries": 100, "linear_checks": 50}),
    }


class TestLoader:
    def test_trajectory_takes_latest(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 2,
                    "trajectory": [_record(wall=1.0), _record(wall=2.0)],
                }
            )
        )
        assert bench_compare.load_latest(str(path))["wall_seconds"] == 2.0

    def test_legacy_flat_record(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text(json.dumps(_record(wall=3.0)))
        assert bench_compare.load_latest(str(path))["wall_seconds"] == 3.0

    def test_unreadable_returns_none(self, tmp_path):
        path = tmp_path / "BENCH_t.json"
        path.write_text("not json")
        assert bench_compare.load_latest(str(path)) is None

    def test_bench_files_maps_names(self, tmp_path):
        _write(tmp_path, "alpha", _record())
        _write(tmp_path, "beta", _record())
        assert sorted(bench_compare.bench_files(str(tmp_path))) == ["alpha", "beta"]


class TestGate:
    def test_identical_records_pass(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record())
        _write(cand, "demo", _record())
        assert (
            bench_compare.main(["--baseline", str(base), "--candidate", str(cand)])
            == 0
        )

    def test_25_percent_latency_regression_fails(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(wall=1.0))
        _write(cand, "demo", _record(wall=1.25))
        assert (
            bench_compare.main(["--baseline", str(base), "--candidate", str(cand)])
            == 1
        )

    def test_25_percent_counter_regression_fails(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(counters={"boolean_queries": 100}))
        _write(cand, "demo", _record(counters={"boolean_queries": 125}))
        assert (
            bench_compare.main(
                [
                    "--baseline",
                    str(base),
                    "--candidate",
                    str(cand),
                    "--no-latency",
                ]
            )
            == 1
        )

    def test_within_threshold_passes(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(wall=1.0, counters={"boolean_queries": 100}))
        _write(cand, "demo", _record(wall=1.15, counters={"boolean_queries": 110}))
        assert (
            bench_compare.main(["--baseline", str(base), "--candidate", str(cand)])
            == 0
        )

    def test_sub_floor_noise_is_skipped(self, tmp_path):
        """Micro-benchmarks and tiny counter diffs never fail the gate."""
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(wall=0.01, counters={"boolean_queries": 2}))
        _write(cand, "demo", _record(wall=0.04, counters={"boolean_queries": 4}))
        assert (
            bench_compare.main(["--baseline", str(base), "--candidate", str(cand)])
            == 0
        )

    def test_missing_candidate_fails_only_in_strict(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record())
        _write(base, "gone", _record())
        _write(cand, "demo", _record())
        args = ["--baseline", str(base), "--candidate", str(cand)]
        assert bench_compare.main(args) == 0
        assert bench_compare.main(args + ["--strict"]) == 1

    def test_new_counters_are_ignored(self, tmp_path):
        """Counters only present on one side are instrumentation growth."""
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(counters={"boolean_queries": 100}))
        _write(
            cand,
            "demo",
            _record(counters={"boolean_queries": 100, "nonlinear_calls": 9999}),
        )
        assert (
            bench_compare.main(["--baseline", str(base), "--candidate", str(cand)])
            == 0
        )

    def test_json_report(self, tmp_path):
        base, cand = tmp_path / "base", tmp_path / "cand"
        base.mkdir(), cand.mkdir()
        _write(base, "demo", _record(wall=1.0))
        _write(cand, "demo", _record(wall=2.0))
        report = tmp_path / "report.json"
        code = bench_compare.main(
            [
                "--baseline",
                str(base),
                "--candidate",
                str(cand),
                "--json",
                str(report),
            ]
        )
        assert code == 1
        payload = json.loads(report.read_text())
        assert payload["compared"] == 1
        assert payload["regressions"][0]["metric"] == "wall_seconds"
        assert payload["regressions"][0]["ratio"] == 2.0

    def test_usage_errors(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert (
            bench_compare.main(
                ["--baseline", str(tmp_path / "nope"), "--candidate", str(empty)]
            )
            == 2
        )
        assert (
            bench_compare.main(
                ["--baseline", str(empty), "--candidate", str(empty)]
            )
            == 2
        )


class TestCommittedRecords:
    def test_committed_records_self_compare_clean(self):
        """The gate must pass when a repo's records are compared to
        themselves — the CI wiring depends on this baseline property."""
        assert (
            bench_compare.main(
                ["--baseline", REPO_ROOT, "--candidate", REPO_ROOT]
            )
            == 0
        )

    def test_committed_records_are_trajectories(self):
        for name, path in bench_compare.bench_files(REPO_ROOT).items():
            with open(path, "r", encoding="utf-8") as handle:
                container = json.load(handle)
            assert container.get("schema") == 2, f"{name} not migrated"
            assert container["trajectory"], f"{name} has an empty trajectory"
