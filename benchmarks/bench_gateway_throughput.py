"""Wire-gateway throughput + backpressure: the PR 7 acceptance gates.

Two measurements against a **live TCP server** (real sockets, loopback):

* **Sustained throughput** — a multi-process load generator (worker
  processes that import only :mod:`repro.gateway.protocol`, speaking raw
  frames) drives >= 10^5 pipelined requests (10^4 in smoke) at a live
  :class:`~repro.gateway.server.GatewayServer` and records aggregate
  req/s plus p50/p99/p99.9 wire-latency percentiles.  The full-mode gate
  is **>= 5,000 req/s sustained** over loopback; smoke gates at 1,000 to
  absorb CI machine variance.
* **Backpressure burst** — a 2x-overload burst against a gateway with a
  small admission bound (dispatch paused so the overload is
  deterministic) must lose nothing: every admitted request is answered
  with ``RESPONSE``, every refused request gets ``BUSY`` with a positive
  ``retry_after_s`` hint, and the two sets partition the burst exactly.

JSON lands in ``benchmarks/results/gateway_throughput.json`` for the
`bench-regression` CI gate (``gateway.*`` metrics in baselines.json).
"""

import multiprocessing
import os
import socket
import time

from repro.analysis.report import format_table
from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.gateway import ThreadedGateway
from repro.gateway.protocol import (
    FrameDecoder,
    FrameType,
    encode_frame,
    encode_images,
    images_digest,
    percentile_summary,
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

TOTAL_REQUESTS = 10_000 if SMOKE else 100_000
WORKERS = 2
WINDOW = 64  # in-flight requests per worker (pipelining depth)
THROUGHPUT_GATE = 1_000.0 if SMOKE else 5_000.0
BURST_QUEUE = 64
BURST_OFFERED = 2 * BURST_QUEUE


def _build_gateway(max_queue=1024, **server_kwargs):
    """One analytic node behind a threaded gateway, demo CNN registered."""
    dataset = make_pattern_image_dataset(samples=60, size=8, seed=13)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=13
    )
    node = ClusterNode(
        "bench-node",
        vdd=1.0,
        num_macros=4,
        max_batch_size=256,
        execution_mode=ExecutionMode.ANALYTIC,
        forward_memo=ForwardMemo(),
    )
    router = ClusterRouter([node], coalesce=True)
    router.register_model("cnn", cnn)
    gateway = ThreadedGateway(router, max_queue=max_queue, **server_kwargs)
    gateway.start()
    return gateway, router, dataset


async def _pump(host, port, requests, window, images_payload, images_ref):
    """One worker's pipelined request stream; returns its measurements."""
    import asyncio

    reader, writer = await asyncio.open_connection(host, port)
    writer.get_extra_info("socket").setsockopt(
        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
    )
    decoder = FrameDecoder()

    async def read_frames(count):
        frames = []
        while len(frames) < count:
            chunk = await reader.read(1 << 16)
            if not chunk:
                raise RuntimeError("server closed the connection early")
            frames.extend(
                frame
                for frame in decoder.feed(chunk)
                if frame[0] is not FrameType.DRAIN
            )
        return frames

    # Warm the server's content-addressed image cache with one full upload
    # (outside the timed span), then the stream needs only the 64-char ref.
    writer.write(
        encode_frame(
            FrameType.REQUEST,
            {"id": 0, "model_id": "cnn", "sla": "throughput", "images": images_payload},
        )
    )
    await writer.drain()
    ((frame_type, _),) = await read_frames(1)
    assert frame_type is FrameType.RESPONSE

    send_times = {}
    latencies = []
    counts = {"busy": 0, "error": 0}
    window_sem = asyncio.Semaphore(window)

    async def reader_loop():
        received = 0
        while received < requests:
            chunk = await reader.read(1 << 16)
            if not chunk:
                raise RuntimeError("server closed the connection early")
            for frame_type, payload in decoder.feed(chunk):
                if frame_type is FrameType.DRAIN:
                    continue
                received += 1
                sent_at = send_times.pop(payload.get("id"), None)
                if frame_type is FrameType.RESPONSE and sent_at is not None:
                    latencies.append(time.perf_counter() - sent_at)
                elif frame_type is FrameType.BUSY:
                    counts["busy"] += 1
                else:
                    counts["error"] += 1
                window_sem.release()

    async def send_loop():
        for index in range(requests):
            await window_sem.acquire()
            wire_id = index + 1
            send_times[wire_id] = time.perf_counter()
            writer.write(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": wire_id,
                        "model_id": "cnn",
                        "sla": "throughput",
                        "images_ref": images_ref,
                    },
                )
            )
            if wire_id % 32 == 0:
                await writer.drain()
        await writer.drain()

    started = time.time()
    await asyncio.gather(reader_loop(), send_loop())
    ended = time.time()
    writer.close()
    return {
        "latencies": latencies,
        "busy": counts["busy"],
        "errors": counts["error"],
        "started": started,
        "ended": ended,
    }


def _load_worker(host, port, requests, window, images_payload, images_ref,
                 barrier, queue):
    """Process entry point: sync at the barrier, pump, report via queue."""
    import asyncio

    barrier.wait(timeout=120)
    queue.put(
        asyncio.run(
            _pump(host, port, requests, window, images_payload, images_ref)
        )
    )


def _run_load(host, port, total_requests, workers, window, images):
    """Fan ``total_requests`` across worker processes; aggregate the stats."""
    context = multiprocessing.get_context("spawn")
    barrier = context.Barrier(workers)
    queue = context.Queue()
    per_worker = total_requests // workers
    payload = encode_images(images)
    ref = images_digest(images)
    processes = [
        context.Process(
            target=_load_worker,
            args=(host, port, per_worker, window, payload, ref, barrier, queue),
            daemon=True,
        )
        for _ in range(workers)
    ]
    for process in processes:
        process.start()
    reports = [queue.get(timeout=600) for _ in processes]
    for process in processes:
        process.join(timeout=60)
    span_s = max(r["ended"] for r in reports) - min(r["started"] for r in reports)
    latencies = [value for r in reports for value in r["latencies"]]
    return {
        "requests": per_worker * workers,
        "workers": workers,
        "window": window,
        "span_s": span_s,
        "requests_per_s": per_worker * workers / span_s,
        "busy": sum(r["busy"] for r in reports),
        "errors": sum(r["errors"] for r in reports),
        "latency": percentile_summary(latencies),
    }


def test_gateway_sustained_throughput(benchmark, reporter, write_results_json):
    gateway, router, dataset = _build_gateway()
    try:
        host, port = gateway.server.host, gateway.server.port
        load = benchmark.pedantic(
            _run_load,
            args=(host, port, TOTAL_REQUESTS, WORKERS, WINDOW,
                  dataset.test_images[:1]),
            rounds=1,
            iterations=1,
        )
        stats = gateway.server.snapshot()
    finally:
        gateway.stop()
        router.shutdown()

    latency = load["latency"]
    reporter(
        f"Gateway wire throughput — {load['requests']} requests, "
        f"{WORKERS} worker processes x depth {WINDOW}",
        format_table(
            ["metric", "value"],
            [
                ["sustained req/s", load["requests_per_s"]],
                ["span [s]", load["span_s"]],
                ["p50 latency [ms]", latency["p50_s"] * 1e3],
                ["p99 latency [ms]", latency["p99_s"] * 1e3],
                ["p99.9 latency [ms]", latency["p999_s"] * 1e3],
                ["max latency [ms]", latency["max_s"] * 1e3],
                ["BUSY refusals", load["busy"]],
                ["wire errors", load["errors"]],
            ],
        ),
    )

    answered = latency["count"] + load["busy"] + load["errors"]
    burst = _measure_backpressure_burst()
    write_results_json(
        "gateway_throughput",
        {
            "smoke": SMOKE,
            "requests": load["requests"],
            "workers": WORKERS,
            "window": WINDOW,
            "requests_per_s": load["requests_per_s"],
            "span_s": load["span_s"],
            "latency": latency,
            "busy": load["busy"],
            "errors": load["errors"],
            "zero_loss": 1.0 if answered == load["requests"] else 0.0,
            "server_stats": {
                key: value
                for key, value in stats.items()
                if isinstance(value, (int, float))
            },
            "burst": burst,
        },
    )

    # Acceptance gates: sustained rate, conservation, burst accounting.
    assert load["errors"] == 0
    assert answered == load["requests"]
    assert load["requests_per_s"] >= THROUGHPUT_GATE
    assert burst["zero_loss"] == 1.0
    assert burst["busy_acknowledged"] == 1.0


def _measure_backpressure_burst():
    """2x-overload burst against a paused, small-bounded gateway.

    Returns the conservation record written to the results JSON: offered,
    admitted, refused counts plus the two acceptance indicators.
    """
    gateway, router, dataset = _build_gateway(
        max_queue=BURST_QUEUE, min_retry_after_s=1e-6
    )
    try:
        host, port = gateway.server.host, gateway.server.port
        images = dataset.test_images[:1]
        seed_frame = encode_frame(
            FrameType.REQUEST,
            {"id": 0, "model_id": "cnn", "sla": "throughput",
             "images": encode_images(images)},
        )
        decoder = FrameDecoder()
        with socket.create_connection((host, port)) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.sendall(seed_frame)
            frames = []
            while not frames:
                frames.extend(decoder.feed(sock.recv(1 << 16)))
            assert frames[0][0] is FrameType.RESPONSE

            gateway.server.pause_dispatch()
            burst = b"".join(
                encode_frame(
                    FrameType.REQUEST,
                    {"id": index + 1, "model_id": "cnn", "sla": "throughput",
                     "images_ref": images_digest(images)},
                )
                for index in range(BURST_OFFERED)
            )
            sock.sendall(burst)
            refused = []
            while len(refused) < BURST_OFFERED - BURST_QUEUE:
                refused.extend(decoder.feed(sock.recv(1 << 16)))
            gateway.server.resume_dispatch()
            answered = []
            while len(answered) < BURST_QUEUE:
                answered.extend(decoder.feed(sock.recv(1 << 16)))

        refused_ids = {payload["id"] for _, payload in refused}
        answered_ids = {payload["id"] for _, payload in answered}
        zero_loss = (
            all(ft is FrameType.BUSY for ft, _ in refused)
            and all(ft is FrameType.RESPONSE for ft, _ in answered)
            and refused_ids | answered_ids == set(range(1, BURST_OFFERED + 1))
            and not (refused_ids & answered_ids)
        )
        busy_acknowledged = all(
            payload["retry_after_s"] > 0 and payload["queue_limit"] == BURST_QUEUE
            for _, payload in refused
        )
        return {
            "offered": BURST_OFFERED,
            "queue_limit": BURST_QUEUE,
            "admitted": len(answered),
            "refused": len(refused),
            "zero_loss": 1.0 if zero_loss else 0.0,
            "busy_acknowledged": 1.0 if busy_acknowledged else 0.0,
        }
    finally:
        gateway.stop()
        router.shutdown()
