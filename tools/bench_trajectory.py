"""Append one row of perfbench results to the committed trajectory.

Runs the unmodified ``perfbench/run.py --workload all`` once per seed from
the root of the checkout and appends one row to ``BENCH_perfbench.json``
there: the stamp below, ``os.cpu_count()``, the UTC time, the run length
and seeds, the ``attempted`` / ``failed`` totals, and, for each workload
and end-to-end metric ``BENCHMARK.json`` declares, the median, quartiles
and unit over the seeds.  A run that reports ``correct: false`` (or ends
without a result line) is refused: nothing is appended.

Usage::

    python3 tools/bench_trajectory.py --seeds 61 62 63 --seconds 24

A change is usually measured before it is committed, so a row names the
code it measured by content, not by commit: ``base_sha`` is the commit
checked out when the runs started, ``dirty`` says whether the working tree
had changes on top of it, and ``trees`` holds the git tree hash of each
directory the benchmark runs (``src`` and ``perfbench``) as the working
tree held them.  ``git rev-parse <commit>:src`` prints the same hash for
every commit that carries the measured code, so a row measured before its
commit traces to the commit that landed it.

Every performance change appends a row, so the file is the repository's
measured trajectory.  Runs on the same host compare; rows from different
hosts differ by their CPU count and host speed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAJECTORY = os.path.join(REPO_ROOT, "BENCH_perfbench.json")
MEASURED = ("src", "perfbench")  # the directories the benchmark runs


def end_to_end_metrics() -> List[str]:
    """The end-to-end metric names ``BENCHMARK.json`` declares."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)["end_to_end"]]


def stamp() -> Dict[str, object]:
    """What was measured, where and when: the base commit, the dirty flag,
    the working tree's git tree hash of each measured directory (hashed
    through a throwaway index, so the checkout's own index is untouched),
    the CPU count and the UTC time."""

    def git(*args: str, env: Optional[Dict[str, str]] = None) -> str:
        return subprocess.run(
            ["git", *args], cwd=REPO_ROOT, env=env, stdout=subprocess.PIPE, text=True, check=True
        ).stdout.strip()

    with tempfile.TemporaryDirectory() as scratch:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(scratch, "index")}
        git("add", "--all", "--", *MEASURED, env=env)
        trees = {name: git("write-tree", f"--prefix={name}/", env=env) for name in MEASURED}
    return {
        "base_sha": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain")),
        "trees": trees,
        "cpu_count": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    }


def aggregate(
    result_lines: Sequence[str],
    seeds: Sequence[int],
    seconds: float,
    when: Dict[str, object],
) -> Dict[str, object]:
    """One trajectory row from each seed's final ``run.py --workload all`` line.

    Raises ``ValueError`` when a line is missing, not a result, or reports
    ``correct: false``.
    """
    metrics = end_to_end_metrics()
    if len(result_lines) != len(seeds):
        raise ValueError(f"{len(seeds)} seeds but {len(result_lines)} result lines")
    values: Dict[str, Dict[str, List[float]]] = {}
    units: Dict[str, str] = {}
    attempted = failed = 0
    for seed, line in zip(seeds, result_lines):
        try:
            result = json.loads(line)
        except (TypeError, ValueError):
            raise ValueError(f"seed {seed}: no result line, nothing recorded") from None
        if result.get("correct") is not True:
            raise ValueError(f"seed {seed} reported correct: false, nothing recorded")
        attempted += int(result["attempted"])
        failed += int(result["failed"])
        for key, entry in result["metrics"].items():
            workload, _, name = key.partition(".")
            if name in metrics:
                values.setdefault(workload, {}).setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
    workloads = {}
    for workload, by_name in sorted(values.items()):
        workloads[workload] = {}
        for name in metrics:
            if name not in by_name:
                continue
            q1, median, q3 = np.percentile(by_name[name], [25, 50, 75]).tolist()
            workloads[workload][name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "unit": units[name],
                "runs": len(by_name[name]),
            }
    return {
        **when,
        "seconds": float(seconds),
        "seeds": list(seeds),
        "attempted": attempted,
        "failed": failed,
        "workloads": workloads,
    }


def append_row(
    result_lines: Sequence[str],
    seeds: Sequence[int],
    seconds: float,
    when: Dict[str, object],
    path: str = TRAJECTORY,
) -> Dict[str, object]:
    """Aggregate the runs and append the row, stamped ``when``, to the
    trajectory at ``path``."""
    row = aggregate(result_lines, seeds, seconds, when)
    rows = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            rows = json.load(handle)
    rows.append(row)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1)
        handle.write("\n")
    return row


def run_seed(seed: int, seconds: float) -> Optional[str]:
    """One ``perfbench/run.py --workload all`` run; its output is echoed and
    its final line (the combined result) returned, or ``None``."""
    child = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "all",
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    print(child.stdout, end="", flush=True)
    lines = child.stdout.strip().splitlines()
    return lines[-1] if lines else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    arguments = parser.parse_args(argv)
    when = stamp()  # before the runs: the tree they measure
    lines = [run_seed(seed, arguments.seconds) for seed in arguments.seeds]
    try:
        row = append_row(lines, arguments.seeds, arguments.seconds, when)
    except ValueError as error:
        print(f"bench_trajectory: {error}", file=sys.stderr)
        return 1
    print(json.dumps(row["workloads"], indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
