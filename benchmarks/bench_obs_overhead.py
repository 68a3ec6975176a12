"""Observability overhead: instrumented vs bare router replay, the 5% gate.

The ``repro.obs`` layer instruments the cluster through vectorized folds
(at the telemetry's flush boundary in aggregate-only mode, at scrape time
otherwise) plus scrape-time collectors, with request spans sampled
deterministically (``request_id % sample_every == 0``).  The claim
that buys is "observability is cheap": a fully instrumented router —
metrics registry attached, tracer sampling at the default 1/1024 — must
replay the same trace at no more than ``OVERHEAD_GATE`` (5%) fewer
requests/sec than a bare router, while producing **bit-identical** cluster
ledgers and telemetry summaries (instrumentation must never perturb the
virtual-time simulation, only observe it).

Both sides run the router core in its aggregates-only deployment shape
on the same diurnal trace (10^5 requests by default, 10^4 in smoke mode).
Each side is timed by the CPU time of its replays, repeated within a round
until the side has spent at least ``MIN_ROUND_CPU_S``; rounds alternate
which side goes first, and the gate reads the median round's overhead, so
a single scheduler hiccup cannot fail the gate.  Fidelity is compared on
every run, so a single divergence *does* fail it.

The instrumented run's final registry snapshot is written to
``benchmarks/results/metrics_snapshot.json`` — the ``metrics-snapshot``
CI artifact, and the demo input for ``python -m repro.obs report``.

Acceptance gates of the observability PR:

* ``overhead_fraction = 1 - instrumented_rps / bare_rps`` <= 5%,
* zero field mismatches between bare and instrumented summaries/ledgers
  (host-wall fields excluded),
* no requests lost on either side,
* the registry's ``cluster_requests_total`` agrees with the replay.

JSON lands in ``benchmarks/results/obs_overhead.json`` for the
bench-regression CI gate.
"""

import gc
import os
import time

from repro.analysis.report import format_table
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
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.obs import MetricsRegistry, Tracer

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Same workload geometry as ``bench_event_kernel`` so the bare side here
#: is directly comparable to that bench's columnar runs.
IMAGE_SIZE = 24
IMAGE_COUNTS = (128, 192, 256)
NUM_MACROS = 8
HIDDEN_SIZES = (4,)
EPOCHS = 6
DRAIN_EVERY = 1_024

#: The ISSUE's 10^5-request overhead workload (10^4 in smoke mode).
REQUESTS = 10_000 if SMOKE else 100_000
#: Default trace sampling: one request in 1024 gets a full span tree.
SAMPLE_EVERY = 1_024
#: Maximum allowed throughput loss from full instrumentation.  The 5%
#: gate is defined on the full 10^5 replay; the ~20 ms smoke replay has
#: several percent of scheduler jitter even under the paired-median
#: estimator, so smoke gets headroom (it still catches a per-request
#: hot-path regression, which shows up as tens of percent).
OVERHEAD_GATE = 0.10 if SMOKE else 0.05
#: Timed bare/instrumented pairs (plus one untimed warm pair).
ROUNDS = 5
#: CPU time each side replays for in one timed round.  A smoke replay
#: takes about 20 ms, whose jitter alone spans the gate, so short replays
#: repeat: at least ``ROUNDS * MIN_ROUND_CPU_S`` = 1 s per side.
MIN_ROUND_CPU_S = 0.2

#: Host-wall fields excluded from the field-by-field fidelity comparison.
_WALL_FIELDS = ("wall_s", "requests_per_s", "images_per_s")


def _build_workload():
    dataset = make_pattern_image_dataset(
        samples=4 * max(IMAGE_COUNTS) + 400, size=IMAGE_SIZE, seed=13
    )
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=HIDDEN_SIZES, epochs=EPOCHS, seed=13
    )
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
    return cnn, pool


def _make_trace(requests: int):
    return diurnal_trace(
        requests,
        period_s=64.0,
        base_rate_rps=600.0,
        peak_rate_rps=2400.0,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix={"latency": 0.2, "throughput": 0.5, "best_effort": 0.3},
        deadline_s=1.0,
        seed=13,
    )


def _make_router(cnn, memo, instrumented: bool):
    """A 2-node aggregate-only router; node ids match on both sides so the
    ledger comparison is label-for-label identical."""
    nodes = [
        ClusterNode(
            f"node-{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]
    metrics = MetricsRegistry() if instrumented else None
    tracer = Tracer(sample_every=SAMPLE_EVERY) if instrumented else None
    router = ClusterRouter(
        nodes,
        scheduler=SLAScheduler(),
        telemetry=ColumnarTelemetry(retain_traces=False),
        retain_results=False,
        metrics=metrics,
        tracer=tracer,
    )
    router.register_model("cnn", cnn)
    return router, metrics, tracer


def _warm_up(router, pool) -> None:
    """Program weights on every node and populate the shared memo outside
    the timed loop (steady-state replay is what the bench measures)."""
    for node in router.nodes:
        for slots in pool.values():
            for digest, images in slots:
                node.execute("cnn", images, input_digest=digest)


def _run_once(cnn, pool, memo, requests: int, instrumented: bool):
    """One replay on a fresh router: (comparable stats, registry, tracer,
    CPU seconds of the replay)."""
    trace = _make_trace(requests)
    router, metrics, tracer = _make_router(cnn, memo, instrumented)
    try:
        _warm_up(router, pool)
        # A GC pause mid-replay is a 10x outlier on a ~20 ms smoke replay;
        # collecting the warm-up garbage first keeps the timing comparable.
        gc.collect()
        cpu_start = time.process_time()
        stats = router.replay_trace(trace, pool, drain_every=DRAIN_EVERY)
        cpu_s = time.process_time() - cpu_start
        stats["completed"] = float(router.completed_requests)
        stats.update(router.telemetry.summary())
        ledger = router.ledger()
        stats["ledger_cycles"] = float(ledger.total_cycles)
        stats["ledger_energy_j"] = ledger.total_energy_j
        snapshot = metrics.snapshot() if metrics is not None else None
    finally:
        router.shutdown()
    return stats, snapshot, tracer, cpu_s


def _measure(cnn, pool, requests: int, rounds: int) -> dict:
    """Rounds of interleaved, CPU-timed bare/instrumented replays; median
    round overhead.

    Three defenses against host noise:

    * **CPU time** — each replay is timed with ``time.process_time()``,
      so time the process spends descheduled is charged to neither side;
    * **long, interleaved rounds** — a round replays fresh routers in ABBA
      order (bare, instrumented, instrumented, bare, ...) until each side
      has used ``MIN_ROUND_CPU_S``, and the side that opens the round
      alternates, so drift in machine speed falls on both sides alike;
    * **median** — the gate reads the median of the per-round overheads,
      so a single disturbed round cannot fail (or pass) the bench.

    One untimed warm round (one replay per side) runs first to absorb
    process-level warmup; the forward memo is shared by every router, so
    only that round pays the numeric forwards.  Fidelity must hold on
    *every* run, including the warm round.
    """
    memo = ForwardMemo()
    runs = []
    overheads = []
    cpu_s = {False: 0.0, True: 0.0}
    replays = {False: 0, True: 0}
    latest = None
    for round_index in range(rounds + 1):
        # Bare opens even rounds, so the warm round's first run (the
        # fidelity reference) is bare.
        first = bool(round_index % 2)
        round_cpu_s = {False: 0.0, True: 0.0}
        round_replays = {False: 0, True: 0}
        minimum = MIN_ROUND_CPU_S if round_index else 0.0
        slot = 0
        while min(round_replays.values()) == 0 or min(round_cpu_s.values()) < minimum:
            instrumented = first if slot % 4 in (0, 3) else not first
            slot += 1
            stats, snapshot, tracer, replay_cpu_s = _run_once(
                cnn, pool, memo, requests, instrumented
            )
            runs.append(stats)
            round_cpu_s[instrumented] += replay_cpu_s
            round_replays[instrumented] += 1
            if instrumented:
                latest = (stats, snapshot, tracer)
        if round_index == 0:
            continue  # warm round: fidelity-checked, never timed
        bare_rate, instr_rate = (
            round_replays[side] / round_cpu_s[side] for side in (False, True)
        )
        overheads.append(1.0 - instr_rate / bare_rate)
        for side in (False, True):
            cpu_s[side] += round_cpu_s[side]
            replays[side] += round_replays[side]
    overheads.sort()
    instrumented_stats, snapshot, tracer = latest
    return {
        "bare": runs[0],
        "instrumented": instrumented_stats,
        "snapshot": snapshot,
        "tracer": tracer,
        "runs": runs,
        "timed_replays": {"bare": replays[False], "instrumented": replays[True]},
        "cpu_requests_per_s": {
            "bare": replays[False] * requests / cpu_s[False],
            "instrumented": replays[True] * requests / cpu_s[True],
        },
        "round_overheads": overheads,
        "overhead_fraction": overheads[len(overheads) // 2],
    }


def _mismatched_fields(reference: dict, candidate: dict) -> list:
    return [
        key
        for key, value in reference.items()
        if key not in _WALL_FIELDS and candidate.get(key) != value
    ]


def _registry_request_count(snapshot: dict) -> float:
    family = snapshot.get("metrics", {}).get("cluster_requests_total", {})
    return float(sum(s["value"] for s in family.get("samples", ())))


def test_obs_overhead(benchmark, reporter, write_results_json):
    cnn, pool = _build_workload()

    measured = benchmark.pedantic(
        _measure,
        args=(cnn, pool, REQUESTS, ROUNDS),
        rounds=1,
        iterations=1,
    )
    bare = measured["bare"]
    instrumented = measured["instrumented"]
    snapshot = measured["snapshot"]
    tracer = measured["tracer"]

    # Fidelity: every run — bare or instrumented — must match the bare
    # reference field-for-field (the simulation is deterministic, so any
    # drift is a bug either way).
    mismatches = sorted(
        {
            key
            for candidate in measured["runs"]
            for key in _mismatched_fields(bare, candidate)
        }
    )

    overhead_fraction = measured["overhead_fraction"]
    counted = _registry_request_count(snapshot)
    sampled = float(tracer.sampled_requests)

    replays = measured["timed_replays"]
    rates = measured["cpu_requests_per_s"]
    rows = [
        [side, int(bare["requests"]), replays[side], f"{rates[side]:.0f}", overhead]
        for side, overhead in (
            ("bare", "—"),
            ("instrumented", f"{overhead_fraction * 100:+.2f}%"),
        )
    ]
    rounds = measured["round_overheads"]
    reporter(
        "Observability overhead: columnar replay, metrics+tracing attached",
        format_table(
            ["router", "requests", "timed replays", "req/s (CPU)", "overhead"], rows
        )
        + f"\nround overheads {rounds[0] * 100:+.2f}% .. {rounds[-1] * 100:+.2f}% "
        f"(median of {len(rounds)} gated)"
        + f"\nregistry counted {int(counted)} requests, "
        f"tracer sampled {int(sampled)} (1/{SAMPLE_EVERY})"
        + f"\nfidelity mismatches vs bare: "
        f"{mismatches if mismatches else 'none'}",
    )

    write_results_json(
        "obs_overhead",
        {
            "smoke": SMOKE,
            "image_size": IMAGE_SIZE,
            "image_counts": list(IMAGE_COUNTS),
            "num_macros": NUM_MACROS,
            "requests": REQUESTS,
            "sample_every": SAMPLE_EVERY,
            "rounds_per_side": ROUNDS,
            "min_round_cpu_s": MIN_ROUND_CPU_S,
            "timed_replays": replays,
            "cpu_requests_per_s": rates,
            "bare": bare,
            "instrumented": instrumented,
            "overhead_fraction": overhead_fraction,
            "overhead_gate": OVERHEAD_GATE,
            "overhead_within_gate": 1.0 if overhead_fraction <= OVERHEAD_GATE else 0.0,
            "round_overheads": measured["round_overheads"],
            "registry_requests_total": counted,
            "registry_matches_replay": 1.0 if counted == instrumented["requests"] else 0.0,
            "tracer_sampled_requests": sampled,
            "ledger_bit_exact": 0.0 if mismatches else 1.0,
            "fidelity_mismatches": mismatches,
        },
    )
    # The metrics-snapshot CI artifact: the instrumented run's final
    # registry state, renderable via `python -m repro.obs report`.
    write_results_json("metrics_snapshot", snapshot)

    # Acceptance gates of the observability PR.
    assert not mismatches, f"instrumentation perturbed the replay: {mismatches}"
    assert overhead_fraction <= OVERHEAD_GATE
    assert bare["completed"] == bare["requests"]
    assert instrumented["completed"] == instrumented["requests"]
    assert counted == instrumented["requests"]
    assert sampled > 0
