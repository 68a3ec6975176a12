"""The repository's benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload wire_ref --seed 1 --seconds 24 --trace 0

``--workload all`` runs the four workloads one after another and ends
with one combined line whose metric names carry the workload as a
prefix.  ``--trace 0`` measures every end-to-end metric with nothing traced;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Human-readable detail (sample counts, raw values, per-vCPU
probe speeds, the layer breakdown) goes to stdout first; the last line is
``{"correct", "attempted", "failed", "metrics"}``.  A failed correctness
check prints the failure and reports no metrics.  Host-time metrics are
restated at a fixed reference host speed, measured by a CPU probe
interleaved with the load (see ``common.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("wire_ref", "wire_inline_exact", "replay_faults", "replay_fleet")
#: Scratch directory (journals, span files), inside the checkout.
OUT_DIR = ".perfbench_out"


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reexec_with_fixed_environment() -> None:
    """Restart once under a fixed hash seed and single-threaded BLAS."""
    import common

    if all(os.environ.get(key) == value for key, value in common.CHILD_ENV.items()):
        return
    env = dict(os.environ)
    env.update(common.CHILD_ENV)
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def _report(metrics, gated) -> None:
    print(
        f"{'metric':34s} {'value':>14s} {'unit':6s} {'samples':>8s} {'raw':>14s}  "
        "probe speeds / note"
    )
    for name, measured in metrics.items():
        speeds = " ".join(f"cpu{cpu}={speed:.2f}/s" for cpu, speed in measured.speeds.items())
        note = measured.note if name in gated else f"{measured.note} (printed, not gated)"
        print(
            f"{name:34s} {measured.value:14.6g} {measured.unit:6s} {measured.samples:8d} "
            f"{measured.raw:14.6g}  {speeds} {note}".rstrip()
        )


def _run_all(arguments) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(arguments.seed), "--seconds", str(arguments.seconds),
             "--trace", str(arguments.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        code = code or child.returncode
        if child.returncode or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, entry in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = entry
    print(json.dumps(combined))
    return code


def _stop_processes() -> None:
    """Stop what a run may leave behind: stray multiprocessing children and
    the resource tracker that shared memory starts, which would otherwise
    outlive this process.  Waits until each has ended."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=10)
        if child.exitcode is None:
            child.kill()
            child.join()
    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    arguments = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: {src}/repro not found; run from the root of a checkout", file=sys.stderr)
        return 2
    if arguments.workload == "all":
        return _run_all(arguments)
    _reexec_with_fixed_environment()
    sys.path.insert(0, src)
    try:
        return _run_one(arguments, root)
    finally:
        _stop_processes()


def _run_one(arguments, root: str) -> int:
    """One workload in this process; prints the report and the result line."""
    import common
    import layers
    import paper

    out_dir = os.path.join(root, OUT_DIR)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if arguments.trace:
        if arguments.workload.startswith("wire"):
            import wire

            problems, attempted, failed, values, lines = wire.run_traced(
                arguments.workload, root, arguments.seed, arguments.seconds, out_dir
            )
        else:
            import replay

            problems, attempted, failed, values, lines = replay.run_traced(
                arguments.workload, arguments.seed, arguments.seconds, out_dir
            )
        metrics = {}
        if not problems:
            for line in lines:
                print(line)
            for name, unit in layers.PER_LAYER:
                print(f"{name:40s} {values[name]:14.6g} {unit}")
                metrics[name] = {"value": values[name], "unit": unit}
    else:
        figure, pct, figures = paper.paper_error_pct()
        paper_pct = common.Measured(
            pct, "%", figures, note=f"largest of {figures} relative errors ({figure})"
        )
        if arguments.workload.startswith("wire"):
            import wire

            problems, attempted, failed, measured = wire.run(
                arguments.workload, root, arguments.seed, arguments.seconds, out_dir, paper_pct
            )
        else:
            import replay

            problems, attempted, failed, measured = replay.run(
                arguments.workload, arguments.seed, arguments.seconds, paper_pct
            )
        if not problems:
            _report(measured, common.END_TO_END)
        metrics = {
            name: {"value": measured[name].value, "unit": measured[name].unit}
            for name in common.END_TO_END
            if name in measured
        }

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {} if problems else metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
