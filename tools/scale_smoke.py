"""Scale-N smoke: a sharded gateway must account like a single-process one.

Boots the demo gateway twice as real subprocesses — once single-process,
once with ``--workers N`` fleet sharding — drives both through the same
short mixed-SLA trace with the synchronous client SDK, scrapes each
gateway's metrics, and asserts ledger-sum parity: request and image
counters must match exactly, the energy ledger to float tolerance.  Each
scrape must also count every driven request as admitted and answered,
which checks the gateway's scrape-time counter publication across real
subprocess gateways.

A synchronous single-connection client serializes admission, so both runs
see the identical virtual-time history; the trace runs ``--no-coalesce``
because coalescing groups requests by *wall-clock* adjacency, which is
legitimately nondeterministic across runs.

This is the CI ``scale-smoke`` job (and ``make scale-smoke``).  On
failure the worker logs and admission journal under ``--artifact-dir``
are uploaded for forensics.

Usage::

    PYTHONPATH=src python tools/scale_smoke.py
    PYTHONPATH=src python tools/scale_smoke.py --workers 2 --requests 40 \\
        --artifact-dir smoke-artifacts
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from repro.gateway import GatewayClient  # noqa: E402

#: The counter families whose totals must agree across the two runs.
EXACT_FAMILIES = ("cluster_requests_total", "cluster_images_total")
ENERGY_FAMILY = "cluster_energy_joules_total"
ENERGY_REL_TOL = 1e-9
#: Gateway counters that must equal the number of requests driven.
DRIVEN_FAMILIES = ("gateway_requests_admitted_total", "gateway_responses_sent_total")


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def boot_gateway(args, port: int, workers: int, artifact_dir: str):
    """Start one demo gateway subprocess; returns (process, log handle)."""
    tag = f"workers-{workers}"
    command = [
        sys.executable,
        "-m",
        "repro.gateway",
        "--port",
        str(port),
        "--nodes",
        str(args.nodes),
        "--mode",
        "exact",
        "--no-coalesce",
        "--workers",
        str(workers),
        "--journal",
        os.path.join(artifact_dir, f"journal-{tag}.jsonl"),
    ]
    if workers > 0:
        command += ["--worker-log-dir", os.path.join(artifact_dir, tag)]
    log = open(
        os.path.join(artifact_dir, f"gateway-{tag}.log"),
        "w",
        encoding="utf-8",
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    process = subprocess.Popen(
        command, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=REPO_ROOT
    )
    return process, log


def wait_for_gateway(host: str, port: int, timeout_s: float) -> GatewayClient:
    """Poll until the gateway accepts a ping (it trains a CNN at boot)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            client = GatewayClient(host, port)
            client.ping()
            return client
        except OSError:
            time.sleep(0.25)
    raise TimeoutError(f"gateway on port {port} not serving after {timeout_s}s")


def drive_trace(client: GatewayClient, requests: int, seed: int) -> dict:
    """The shared mixed-SLA trace; returns the final metrics snapshot."""
    rng = np.random.default_rng(seed)
    slas = ["latency", "best_effort", "throughput"]
    for index in range(requests):
        count = int(rng.integers(1, 5))
        images = rng.standard_normal((count, 1, 8, 8))
        sla = slas[index % 3]
        result = client.predict(
            "cnn",
            images,
            sla=sla,
            deadline_s=0.5 if sla == "latency" else None,
        )
        predictions = np.asarray(result.predictions)
        if predictions.shape[0] != count or np.any(predictions < 0):
            raise AssertionError(
                f"request {index}: bad predictions {predictions!r}"
            )
    return client.metrics()


def family_total(snapshot: dict, name: str) -> float:
    family = snapshot["metrics"].get(name)
    if family is None:
        raise AssertionError(f"metrics family {name!r} missing from scrape")
    return sum(sample["value"] for sample in family["samples"])


def run_one(args, workers: int, artifact_dir: str) -> dict:
    port = free_port()
    process, log = boot_gateway(args, port, workers, artifact_dir)
    try:
        client = wait_for_gateway("127.0.0.1", port, args.boot_timeout)
        try:
            snapshot = drive_trace(client, args.requests, args.seed)
        finally:
            client.close()
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
        log.close()
    return snapshot


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--nodes", type=int, default=4)
    parser.add_argument("--requests", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--boot-timeout", type=float, default=120.0)
    parser.add_argument("--artifact-dir", default="smoke-artifacts")
    args = parser.parse_args(argv)
    os.makedirs(args.artifact_dir, exist_ok=True)

    print(f"[scale-smoke] single-process run ({args.requests} requests)")
    single = run_one(args, workers=0, artifact_dir=args.artifact_dir)
    print(f"[scale-smoke] sharded run (--workers {args.workers})")
    sharded = run_one(args, workers=args.workers, artifact_dir=args.artifact_dir)

    failures = []
    for tag, snapshot in (("single", single), ("sharded", sharded)):
        for name in DRIVEN_FAMILIES:
            total = family_total(snapshot, name)
            status = "ok" if total == args.requests else "MISMATCH"
            print(f"[scale-smoke] {tag} {name}: {total} of {args.requests} {status}")
            if total != args.requests:
                failures.append(f"{tag}:{name}")
    for name in EXACT_FAMILIES:
        lone, fleet = family_total(single, name), family_total(sharded, name)
        status = "ok" if lone == fleet else "MISMATCH"
        print(f"[scale-smoke] {name}: single={lone} sharded={fleet} {status}")
        if lone != fleet:
            failures.append(name)
    lone, fleet = (
        family_total(single, ENERGY_FAMILY),
        family_total(sharded, ENERGY_FAMILY),
    )
    scale = max(abs(lone), abs(fleet), 1e-300)
    drift = abs(lone - fleet) / scale
    status = "ok" if drift <= ENERGY_REL_TOL else "MISMATCH"
    print(
        f"[scale-smoke] {ENERGY_FAMILY}: single={lone!r} sharded={fleet!r} "
        f"(rel drift {drift:.3e}) {status}"
    )
    if drift > ENERGY_REL_TOL:
        failures.append(ENERGY_FAMILY)

    if failures:
        print(
            f"[scale-smoke] FAILED: counters broken for {failures} "
            f"(artifacts in {args.artifact_dir}/)"
        )
        return 1
    print(
        f"[scale-smoke] PASSED: {args.requests} requests, "
        f"{args.workers}-worker ledger sums identical to single-process"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
