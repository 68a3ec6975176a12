"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper, times the
experiment with pytest-benchmark, and prints the regenerated rows/series so
the output can be compared line by line against the publication (the
paper-vs-measured record lives in EXPERIMENTS.md).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

#: The frozen differential oracle in ``tests/oracle`` imports as ``oracle``.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Where benchmarks drop machine-readable outputs (JSON), so successive PRs
#: accumulate a perf trajectory that scripts can diff.
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Version of the result-JSON envelope (the stamped provenance keys, not
#: any benchmark's own payload shape).  Bump when the stamping changes.
RESULTS_SCHEMA_VERSION = 1


@functools.lru_cache(maxsize=1)
def _git_sha() -> str:
    """The repository HEAD at benchmark time (``unknown`` outside git)."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _format_block(title: str, body: str) -> str:
    banner = "=" * max(len(title), 20)
    return f"\n{banner}\n{title}\n{banner}\n{body}\n"


@pytest.fixture()
def results_dir() -> Path:
    """The benchmark results directory, created idempotently.

    ``mkdir(parents=True, exist_ok=True)`` makes repeated/parallel benchmark
    runs safe: the fixture never fails because the directory (or a parent)
    already exists.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture()
def write_results_json(results_dir):
    """Write one benchmark's machine-readable payload to results/<name>.json.

    Every dict payload is stamped with the same provenance envelope —
    ``schema_version``, ``git_sha``, ``hostname``, ``cpu_count`` — so
    results from different machines/commits can be compared (or rejected)
    by scripts without guessing where a JSON came from.  ``cpu_count`` is
    what lets the regression gate skip parallelism speedup metrics on
    boxes that cannot physically show one (``min_cpus`` in
    ``baselines.json``).  A payload's own keys win on collision.
    """

    def _write(name: str, payload) -> Path:
        if isinstance(payload, dict):
            stamped = dict(payload)
            stamped.setdefault("schema_version", RESULTS_SCHEMA_VERSION)
            stamped.setdefault("git_sha", _git_sha())
            stamped.setdefault("hostname", platform.node())
            stamped.setdefault("cpu_count", os.cpu_count() or 1)
            payload = stamped
        path = results_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")
        return path

    return _write


@pytest.fixture()
def reporter(capsys):
    """Print helper that bypasses pytest's output capture.

    Using ``capsys.disabled()`` means the regenerated tables/figures appear
    directly in the terminal output, so
    ``pytest benchmarks/ --benchmark-only | tee bench_output.txt`` records
    them without needing ``-s``.
    """

    def print_block(title: str, body: str) -> None:
        with capsys.disabled():
            print(_format_block(title, body))

    return print_block
