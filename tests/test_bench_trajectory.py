"""The perfbench trajectory tool (``tools/bench_trajectory.py``).

Drives its aggregate-and-append step with canned ``run.py --workload all``
result lines, and its stamp in a throwaway git repository; the benchmark
itself is never run here.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_trajectory)

WHEN = {
    "base_sha": "abc123",
    "dirty": False,
    "trees": {"src": "def456", "perfbench": "789abc"},
    "cpu_count": 2,
    "utc": "2026-01-01T00:00:00Z",
}


def _line(rate, latency, correct=True, failed=0):
    return json.dumps({
        "correct": correct,
        "attempted": 1000,
        "failed": failed,
        "metrics": {} if not correct else {
            "wire_ref.requests_per_s": {"value": rate, "unit": "1/s"},
            "wire_ref.latency_p50_ms": {"value": latency, "unit": "ms"},
            "replay_faults.requests_per_s": {"value": 10 * rate, "unit": "1/s"},
            "replay_faults.not_end_to_end": {"value": 1.0, "unit": "x"},
        },
    })


def test_end_to_end_names_come_from_benchmark_json():
    names = bench_trajectory.end_to_end_metrics()
    assert "requests_per_s" in names and "paper_error_pct" in names


def test_appends_median_quartiles_and_unit_per_workload_and_metric(tmp_path):
    path = tmp_path / "BENCH_perfbench.json"
    path.write_text(json.dumps([{"earlier": "row"}]))
    lines = [_line(100.0, 4.0), _line(300.0, 2.0), _line(200.0, 3.0, failed=2)]
    row = bench_trajectory.append_row(lines, [1, 2, 3], 24, WHEN, path=str(path))
    rows = json.loads(path.read_text())
    assert rows == [{"earlier": "row"}, row]
    assert {k: row[k] for k in WHEN} == WHEN
    assert (row["seconds"], row["seeds"]) == (24.0, [1, 2, 3])
    assert (row["attempted"], row["failed"]) == (3000, 2)
    assert row["workloads"]["wire_ref"]["requests_per_s"] == {
        "median": 200.0, "q1": 150.0, "q3": 250.0, "unit": "1/s", "runs": 3,
    }
    assert row["workloads"]["wire_ref"]["latency_p50_ms"]["median"] == 3.0
    assert row["workloads"]["wire_ref"]["latency_p50_ms"]["unit"] == "ms"
    # Only declared end-to-end metrics are kept.
    assert set(row["workloads"]["replay_faults"]) == {"requests_per_s"}
    assert row["workloads"]["replay_faults"]["requests_per_s"]["median"] == 2000.0


@pytest.mark.parametrize("bad", [_line(0, 0, correct=False), None, "CHECK FAILED: x"])
def test_refuses_a_run_that_is_not_correct(tmp_path, bad):
    path = tmp_path / "BENCH_perfbench.json"
    with pytest.raises(ValueError, match="seed 2"):
        bench_trajectory.append_row([_line(100.0, 4.0), bad], [1, 2], 24, WHEN, path=str(path))
    assert not path.exists()


def test_stamp_traces_an_uncommitted_tree_to_the_commit_that_lands_it(tmp_path, monkeypatch):
    def git(*args):
        command = ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args]
        done = subprocess.run(command, cwd=tmp_path, stdout=subprocess.PIPE, text=True, check=True)
        return done.stdout.strip()

    files = {"src/a.py": "a = 1\n", "perfbench/run.py": "pass\n", ".gitignore": "*.pyc\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    git("init", "-q")
    git("add", "--all")
    git("commit", "-q", "-m", "base")
    base = git("rev-parse", "HEAD")
    # The change under measurement: an edit, a new file and an ignored one.
    (tmp_path / "src" / "a.py").write_text("a = 2\n")
    (tmp_path / "src" / "b.py").write_text("b = 1\n")
    (tmp_path / "src" / "b.pyc").write_bytes(b"\0")
    monkeypatch.setattr(bench_trajectory, "REPO_ROOT", str(tmp_path))
    when = bench_trajectory.stamp()
    assert (when["base_sha"], when["dirty"]) == (base, True)
    assert git("diff", "--cached", "--name-only") == ""  # the checkout's index is untouched
    git("add", "--all")
    git("commit", "-q", "-m", "change")
    assert when["trees"] == {
        "src": git("rev-parse", "HEAD:src"),
        "perfbench": git("rev-parse", "HEAD:perfbench"),
    }
    assert when["trees"]["src"] != git("rev-parse", f"{base}:src")
