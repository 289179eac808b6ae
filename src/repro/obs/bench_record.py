"""Benchmark trajectory records: per-bench ``BENCH_<name>.json`` files.

The benchmark harness prints paper-vs-measured tables, but across PRs the
perf trajectory of this reproduction was only recoverable by re-reading CI
logs.  A ``BENCH_<name>.json`` file holds a *trajectory*: a list of run
records — wall time, per-stage latency breakdown, counter snapshot, git
SHA and whether tracked files differed from it, timestamp — appended to
on every benchmark run (capped at :data:`TRAJECTORY_LIMIT` entries, oldest
dropped first).  The file is written next to the working directory (or
wherever ``REPRO_BENCH_RECORD_DIR`` points); the committed copies at the
repo root accumulate the perf history across PRs, which is what
``tools/bench_compare.py`` gates regressions against.

``benchmarks/conftest.py`` exposes a ``record_bench`` helper over
:func:`write_bench_record`; CI uploads the resulting files as artifacts.
Legacy single-record files (schema 1, a bare record dict) are migrated to
the trajectory shape on the first append; :func:`load_trajectory` reads
both shapes.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "git_sha",
    "git_dirty",
    "bench_record_payload",
    "write_bench_record",
    "load_trajectory",
    "latest_record",
]

#: Bump when the record shape changes, so downstream comparison tooling can
#: refuse to diff incompatible schemas.  Schema 1 was one bare record dict
#: per file (overwritten each run); schema 2 wraps a list of such records
#: in a ``{"schema": 2, "benchmark": ..., "trajectory": [...]}`` container.
SCHEMA_VERSION = 2

#: Cap on retained trajectory entries per benchmark (oldest dropped).
TRAJECTORY_LIMIT = 50


def _git(args: List[str], cwd: Optional[str]) -> Optional[str]:
    """Standard output of a git command, or None when it cannot run or fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """The current commit SHA, or None outside a git checkout."""
    return (_git(["rev-parse", "HEAD"], cwd) or "").strip() or None


def git_dirty(cwd: Optional[str] = None) -> Optional[bool]:
    """Whether tracked files differ from HEAD, or None outside a git checkout.

    Untracked files are ignored: a record made before its change is
    committed says so, while stray outputs of the run itself do not count.
    """
    status = _git(["status", "--porcelain", "--untracked-files=no"], cwd)
    return None if status is None else bool(status.strip())


def bench_record_payload(
    name: str,
    wall_seconds: Optional[float] = None,
    stats: Optional[object] = None,
    extra: Optional[Dict[str, Any]] = None,
    memory: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Build the record dict for one benchmark run.

    ``stats`` is a :class:`~repro.core.stats.SolveStatistics`; its
    :meth:`~repro.core.stats.SolveStatistics.snapshot` gives the record's
    ``counters`` and its per-stage breakdown, ``stages``.  ``memory`` is a per-stage memory-attribution
    summary (see :class:`repro.obs.profile.MemoryProfiler.summary`) for
    runs profiled with ``--profile-memory``.
    """
    payload: Dict[str, Any] = {
        "benchmark": name,
        "recorded_unix": time.time(),
        "git_sha": git_sha(),
        "git_dirty": git_dirty(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "argv": list(sys.argv),
    }
    if wall_seconds is not None:
        payload["wall_seconds"] = wall_seconds
    if stats is not None:
        payload.update(stats.snapshot())
    if memory:
        payload["memory"] = memory
    if extra:
        payload["extra"] = extra
    return payload


def _as_trajectory(raw: Any, name: str) -> List[Dict[str, Any]]:
    """Normalize file content (schema 1 record or schema 2 container)."""
    if isinstance(raw, dict) and isinstance(raw.get("trajectory"), list):
        return [entry for entry in raw["trajectory"] if isinstance(entry, dict)]
    if isinstance(raw, dict) and raw.get("benchmark") == name:
        return [raw]  # legacy schema 1: one bare record
    return []


def load_trajectory(path: str) -> List[Dict[str, Any]]:
    """The run records of a ``BENCH_*.json`` file, oldest first.

    Accepts both the legacy schema-1 shape (one record dict) and the
    schema-2 trajectory container; returns ``[]`` for unreadable files.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, ValueError):
        return []
    name = ""
    if isinstance(raw, dict):
        name = raw.get("benchmark", "")
    return _as_trajectory(raw, name)


def latest_record(path: str) -> Optional[Dict[str, Any]]:
    """The newest run record of a ``BENCH_*.json`` file, or None."""
    trajectory = load_trajectory(path)
    return trajectory[-1] if trajectory else None


def write_bench_record(
    name: str,
    wall_seconds: Optional[float] = None,
    stats: Optional[object] = None,
    extra: Optional[Dict[str, Any]] = None,
    directory: Optional[str] = None,
    memory: Optional[Dict[str, Any]] = None,
) -> str:
    """Append one run record to ``BENCH_<name>.json`` and return its path.

    The target directory is, in order: the ``directory`` argument, the
    ``REPRO_BENCH_RECORD_DIR`` environment variable, the current working
    directory.  The file accumulates a *trajectory* — a list of records
    keyed by git SHA + timestamp, newest last, capped at
    :data:`TRAJECTORY_LIMIT` entries — so the committed copies carry the
    perf history across commits instead of only the latest run.  A legacy
    schema-1 file (one bare record) is migrated on first append.
    """
    target_dir = directory or os.environ.get("REPRO_BENCH_RECORD_DIR") or os.getcwd()
    os.makedirs(target_dir, exist_ok=True)
    path = os.path.join(target_dir, f"BENCH_{name}.json")
    trajectory: List[Dict[str, Any]] = []
    if os.path.exists(path):
        trajectory = load_trajectory(path)
    trajectory.append(
        bench_record_payload(
            name, wall_seconds=wall_seconds, stats=stats, extra=extra, memory=memory
        )
    )
    del trajectory[:-TRAJECTORY_LIMIT]
    container = {
        "schema": SCHEMA_VERSION,
        "benchmark": name,
        "trajectory": trajectory,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(container, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
