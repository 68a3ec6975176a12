"""Command-line gateway: serve a demo fleet over TCP.

Usage::

    PYTHONPATH=src python -m repro.gateway --port 7421
    PYTHONPATH=src python -m repro.gateway --port 7421 --nodes 4 \\
        --max-queue 512 --mode analytic

Trains a small pattern CNN (seeded, a few seconds), builds a mixed-VDD
fleet, registers the model as ``"cnn"`` and serves until interrupted.
This is the entry point the operator guide (``docs/OPERATIONS.md``) walks
through; production embeddings build their own router and hand it to
:class:`~repro.gateway.server.GatewayServer` directly.

``--workers N`` (N > 0) shards the fleet across N spawn-context worker
processes via :class:`~repro.fleet.FleetCluster` — the exact forwards run
in parallel while admission, scheduling and ledgers stay on the
coordinator, bit-identical to the single-process fleet.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.gateway.server import GatewayServer


def build_demo_router(
    nodes: int,
    num_macros: int,
    mode: str,
    coalesce: bool,
    workers: int = 0,
    worker_log_dir: str = None,
):
    """Build the demo fleet the CLI serves.

    Args:
        nodes: Fleet size; even indices get 1.0 V, odd 0.6 V.
        num_macros: Macros per chip.
        mode: ``"exact"`` or ``"analytic"`` execution mode.
        coalesce: Merge adjacent same-model requests into one dispatch.
        workers: ``0`` serves single-process; ``N > 0`` shards the fleet
            across N worker processes (forces exact mode — the fleet
            workers *are* the exact executors).
        worker_log_dir: Per-worker log directory (fleet mode only).

    Returns:
        A router (or :class:`~repro.fleet.FleetCluster`) with the trained
        demo model registered as ``"cnn"``.
    """
    dataset = make_pattern_image_dataset(samples=150, size=8, seed=13)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=6, seed=13
    )
    execution_mode = (
        ExecutionMode.ANALYTIC
        if mode == "analytic" and workers <= 0
        else ExecutionMode.EXACT
    )
    memo = ForwardMemo() if execution_mode is ExecutionMode.ANALYTIC else None
    fleet = [
        ClusterNode(
            f"node-{index}",
            vdd=1.0 if index % 2 == 0 else 0.6,
            num_macros=num_macros,
            max_batch_size=256,
            execution_mode=execution_mode,
            forward_memo=memo,
        )
        for index in range(nodes)
    ]
    if workers > 0:
        from repro.fleet import FleetCluster

        router = FleetCluster(
            fleet, workers=workers, coalesce=coalesce, log_dir=worker_log_dir
        )
    else:
        router = ClusterRouter(fleet, coalesce=coalesce)
    router.register_model("cnn", cnn)
    return router


async def _serve(arguments: argparse.Namespace) -> None:
    """Run the gateway until cancelled (Ctrl-C)."""
    router = build_demo_router(
        arguments.nodes,
        arguments.num_macros,
        arguments.mode,
        arguments.coalesce,
        workers=arguments.workers,
        worker_log_dir=arguments.worker_log_dir,
    )
    server = GatewayServer(
        router,
        host=arguments.host,
        port=arguments.port,
        max_queue=arguments.max_queue,
        admission_batch=arguments.admission_batch,
        idle_timeout_s=arguments.idle_timeout,
        journal=arguments.journal,
    )
    await server.start()
    sharding = (
        f", {arguments.workers} fleet workers" if arguments.workers > 0 else ""
    )
    print(
        f"gateway serving model 'cnn' on {server.host}:{server.port} "
        f"({arguments.nodes} nodes, {arguments.mode} mode, "
        f"queue bound {arguments.max_queue}{sharding})"
    )
    if arguments.journal:
        print(f"admission journal: {arguments.journal}")
    try:
        while True:
            await asyncio.sleep(3600)
    except asyncio.CancelledError:
        pass
    finally:
        await server.drain_and_stop()
        router.shutdown()


def main(argv=None) -> int:
    """Parse arguments and serve; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway", description=__doc__.splitlines()[0]
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7421)
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--num-macros", type=int, default=8)
    parser.add_argument(
        "--mode", choices=("exact", "analytic"), default="analytic"
    )
    parser.add_argument("--max-queue", type=int, default=1024)
    parser.add_argument("--admission-batch", type=int, default=128)
    parser.add_argument(
        "--no-coalesce", dest="coalesce", action="store_false", default=True
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard the fleet across N worker processes "
        "(0 = single-process; N > 0 forces exact mode)",
    )
    parser.add_argument(
        "--worker-log-dir",
        default=None,
        metavar="DIR",
        help="per-worker log files (fleet mode; the CI crash artifacts)",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close connections idle this long with no outstanding work",
    )
    parser.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append-only admission journal for crash recovery "
        "(reconcile with: python -m repro.gateway.journal PATH)",
    )
    arguments = parser.parse_args(argv)
    # asyncio.run drains on SIGINT only from the default handler, and a
    # shell starts `cmd &` with SIGINT ignored (main() runs on the main thread).
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        # On 3.11+ asyncio.Runner turns SIGINT into cancellation of the
        # main task; _serve absorbs it after draining, so asyncio.run
        # returns normally and KeyboardInterrupt only escapes if the
        # signal lands outside the running task.
        asyncio.run(_serve(arguments))
    except KeyboardInterrupt:
        pass
    print("gateway stopped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
