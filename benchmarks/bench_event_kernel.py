"""Router core vs the frozen object router: the 20x replay gate.

:class:`repro.cluster.ClusterRouter` replays the same virtual-time
simulation as the per-request object router frozen in ``tests/oracle/`` —
identical placements, ledgers, telemetry and fault handling (the
differential suite pins bit-exactness) — but keeps its per-request state
in columnar ledgers and replays engine charges in vectorized folds at
flush time.  This benchmark measures what that buys on an identical
trace-replay loop and exercises the core's aggregate-only deployment
shape:

* **object** — the oracle on a prefix of the trace (both routers on the
  analytic execution path; the oracle costs hundreds of microseconds of
  Python bookkeeping per request);
* **columnar** — the full diurnal trace through the core with
  ``ColumnarTelemetry(retain_traces=False)`` and ``retain_results=False``:
  aggregates only, O(1) memory in the request count;
* **fidelity** — both routers on the same prefix, summaries and cluster
  ledgers compared field by field (must match exactly);
* **flat memory** — the columnar trace is replayed in bounded chunks with
  fresh arrival offsets, and the peak-RSS growth after the first chunk
  must stay bounded regardless of how many chunks follow.

``REPRO_BENCH_XL=1`` scales the columnar replay to 10^8 requests (about a
hundred chunked diurnal periods — minutes of wall clock, still flat
memory); the default full run uses 10^6 requests and smoke mode a small
fraction of that.

The acceptance gates:

* core requests/sec >= ``SPEEDUP_GATE`` (20x) over the oracle on the same
  workload,
* the fidelity comparison finds zero mismatches,
* no requests are lost (completed == admitted on every run),
* peak-RSS growth across chunks stays under ``RSS_GROWTH_LIMIT_MB``.

JSON lands in ``benchmarks/results/event_kernel.json`` for the
bench-regression CI gate.
"""

import os
import resource

from oracle import ObjectRouter

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ColumnarTelemetry,
    ExecutionMode,
    ForwardMemo,
    SLAScheduler,
    build_image_pool,
    diurnal_trace,
)
from repro.analysis.report import format_table
from repro.cluster.workload import WorkloadTrace
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
XL = os.environ.get("REPRO_BENCH_XL") == "1"

#: Same workload geometry as ``bench_router_throughput`` so the two
#: benches stay comparable: large-batch requests on 24x24 images.
IMAGE_SIZE = 24
IMAGE_COUNTS = (128, 192, 256)
NUM_MACROS = 8
HIDDEN_SIZES = (4,)
EPOCHS = 6

#: Columnar replay size: the ISSUE's 10^6-request gate workload by
#: default, 10^8 under ``REPRO_BENCH_XL=1``.
COLUMNAR_REQUESTS = 100_000_000 if XL else (10_000 if SMOKE else 1_000_000)
#: The oracle is measured on a prefix (it costs ~0.25 ms/request).
OBJECT_REQUESTS = 1_000 if SMOKE else 20_000
#: Differential prefix for the in-bench fidelity comparison.
FIDELITY_REQUESTS = 1_000 if SMOKE else 5_000
#: Sampled fidelity audit: one real forward per this many memo hits.
#: The timed runs disable it (0) on *both* routers — it costs real
#: forwards, identically, on either side — while the fidelity prefix
#: keeps it so the comparison also pins the spot-check counters.
SPOT_CHECK_EVERY = 2_000
DRAIN_EVERY = 1_024

#: Minimum columnar-over-object requests/sec ratio (the tentpole gate).
SPEEDUP_GATE = 20.0
#: Peak-RSS growth allowed between the first chunk and the last.
RSS_GROWTH_LIMIT_MB = 256.0


def _build_workload():
    dataset = make_pattern_image_dataset(
        samples=4 * max(IMAGE_COUNTS) + 400, size=IMAGE_SIZE, seed=13
    )
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=HIDDEN_SIZES, epochs=EPOCHS, seed=13
    )
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
    return cnn, pool


def _chunk_trace(requests: int, offset_s: float, seed: int) -> WorkloadTrace:
    """One diurnal chunk whose arrivals continue from ``offset_s``.

    Chunked generation is what keeps the 10^8 replay flat: only one
    chunk's columns are alive at a time, and shifting the arrivals keeps
    the router's virtual clock monotone across chunks.
    """
    chunk = diurnal_trace(
        requests,
        period_s=64.0,
        base_rate_rps=600.0,
        peak_rate_rps=2400.0,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix={"latency": 0.2, "throughput": 0.5, "best_effort": 0.3},
        deadline_s=1.0,
        seed=seed,
    )
    if offset_s:
        chunk = WorkloadTrace(
            scenario=chunk.scenario,
            model_ids=chunk.model_ids,
            arrivals_s=chunk.arrivals_s + offset_s,
            image_counts=chunk.image_counts,
            model_indices=chunk.model_indices,
            sla_indices=chunk.sla_indices,
            deadlines_s=chunk.deadlines_s,
        )
    return chunk


def _make_router(cnn, side: str, aggregates_only: bool = False, spot_check_every: int = 0):
    """A warmable 2-node fleet on ``side``: "object" (the oracle) or "columnar"."""
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"{side}-{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
            spot_check_every=spot_check_every,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]
    if side == "object":
        router = ObjectRouter(nodes, scheduler=SLAScheduler())
    else:
        router = ClusterRouter(
            nodes,
            scheduler=SLAScheduler(),
            telemetry=ColumnarTelemetry(retain_traces=not aggregates_only),
            retain_results=not aggregates_only,
        )
    router.register_model("cnn", cnn)
    return router


def _warm_up(router, pool) -> None:
    """Program weights on *every* node and populate the shared memo outside
    the timed loop (steady-state replay is what the bench measures)."""
    for node in router.nodes:
        for slots in pool.values():
            for digest, images in slots:
                node.execute("cnn", images, input_digest=digest)


def _run_prefix(
    cnn,
    pool,
    requests: int,
    side: str,
    aggregates_only: bool = False,
    spot_check_every: int = 0,
) -> dict:
    """One measured replay of a trace prefix, returning comparable stats."""
    trace = _chunk_trace(requests, 0.0, seed=13)
    router = _make_router(
        cnn, side, aggregates_only=aggregates_only,
        spot_check_every=spot_check_every,
    )
    try:
        _warm_up(router, pool)
        stats = router.replay_trace(trace, pool, drain_every=DRAIN_EVERY)
        stats["completed"] = float(router.completed_requests)
        stats.update(router.telemetry.summary())
        ledger = router.ledger()
        stats["ledger_cycles"] = float(ledger.total_cycles)
        stats["ledger_energy_j"] = ledger.total_energy_j
    finally:
        router.shutdown()
    return stats


def _run_columnar_chunked(cnn, pool, requests: int) -> dict:
    """The columnar deployment shape: chunked replay, aggregates only."""
    chunks = max(4, -(-requests // 1_000_000))  # >= 4 so "flat" is testable
    chunk_size = -(-requests // chunks)
    router = _make_router(cnn, "columnar", aggregates_only=True)
    rss_after_first_kb = 0.0
    try:
        _warm_up(router, pool)
        wall_s = 0.0
        offset_s = 0.0
        submitted = 0
        index = 0
        while submitted < requests:
            size = min(chunk_size, requests - submitted)
            chunk = _chunk_trace(size, offset_s, seed=13 + index)
            offset_s = chunk.duration_s + 1.0
            stats = router.replay_trace(chunk, pool, drain_every=DRAIN_EVERY)
            wall_s += stats["wall_s"]
            submitted += size
            index += 1
            if index == 1:
                rss_after_first_kb = resource.getrusage(
                    resource.RUSAGE_SELF
                ).ru_maxrss
        rss_final_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        summary = router.telemetry.summary()
        ledger = router.ledger()
        return {
            "requests": float(submitted),
            "chunks": float(index),
            "completed": float(router.completed_requests),
            "wall_s": wall_s,
            "requests_per_s": submitted / wall_s if wall_s > 0 else 0.0,
            "mean_latency_s": summary["mean_latency_s"],
            "deadline_miss_rate": summary["deadline_miss_rate"],
            "energy_j": summary["energy_j"],
            "ledger_cycles": float(ledger.total_cycles),
            "ledger_energy_j": ledger.total_energy_j,
            "rss_growth_mb": (rss_final_kb - rss_after_first_kb) / 1024.0,
        }
    finally:
        router.shutdown()


#: Host-wall fields excluded from the field-by-field fidelity comparison.
_WALL_FIELDS = ("wall_s", "requests_per_s", "images_per_s")


def _fidelity_check(cnn, pool) -> list:
    """Oracle vs core-turbo on one prefix, compared field by field."""
    reference = _run_prefix(
        cnn, pool, FIDELITY_REQUESTS, "object",
        spot_check_every=SPOT_CHECK_EVERY,
    )
    # aggregates_only puts the core on the turbo batch path — the same
    # configuration the timed run measures.
    columnar = _run_prefix(
        cnn, pool, FIDELITY_REQUESTS, "columnar", aggregates_only=True,
        spot_check_every=SPOT_CHECK_EVERY,
    )
    return [
        key
        for key, value in reference.items()
        if key not in _WALL_FIELDS and columnar[key] != value
    ]


def test_event_kernel_throughput(benchmark, reporter, write_results_json):
    cnn, pool = _build_workload()

    mismatches = _fidelity_check(cnn, pool)
    object_stats = _run_prefix(cnn, pool, OBJECT_REQUESTS, "object")
    columnar_stats = benchmark.pedantic(
        _run_columnar_chunked,
        args=(cnn, pool, COLUMNAR_REQUESTS),
        rounds=1,
        iterations=1,
    )
    speedup = (
        columnar_stats["requests_per_s"] / object_stats["requests_per_s"]
    )

    rows = [
        [
            "object router (oracle)",
            int(object_stats["requests"]),
            f"{object_stats['requests_per_s']:.0f}",
            "1.0x",
        ],
        [
            "router core",
            int(columnar_stats["requests"]),
            f"{columnar_stats['requests_per_s']:.0f}",
            f"{speedup:.1f}x",
        ],
    ]
    reporter(
        "Router core vs oracle: trace replay, identical workload (requests/sec)",
        format_table(["router", "requests", "req/s", "speedup"], rows)
        + f"\ncolumnar chunks: {int(columnar_stats['chunks'])}, "
        f"peak-RSS growth after first chunk: "
        f"{columnar_stats['rss_growth_mb']:.1f} MB"
        + f"\nfidelity mismatches vs object router: "
        f"{mismatches if mismatches else 'none'}",
    )

    write_results_json(
        "event_kernel",
        {
            "smoke": SMOKE,
            "xl": XL,
            "image_size": IMAGE_SIZE,
            "image_counts": list(IMAGE_COUNTS),
            "num_macros": NUM_MACROS,
            "columnar_requests": COLUMNAR_REQUESTS,
            "object_requests": OBJECT_REQUESTS,
            "object": object_stats,
            "columnar": columnar_stats,
            "columnar_speedup_vs_object": speedup,
            "rss_growth_mb": columnar_stats["rss_growth_mb"],
            "requests_conserved": (
                1.0
                if columnar_stats["completed"] == columnar_stats["requests"]
                else 0.0
            ),
            "fidelity_bit_exact": 0.0 if mismatches else 1.0,
            "fidelity_mismatches": mismatches,
        },
    )

    # Acceptance gates.
    assert not mismatches, f"router core diverged from the oracle: {mismatches}"
    assert speedup >= SPEEDUP_GATE
    assert columnar_stats["completed"] == columnar_stats["requests"]
    assert object_stats["completed"] == object_stats["requests"]
    assert columnar_stats["rss_growth_mb"] <= RSS_GROWTH_LIMIT_MB
