"""Fleet workers: sharded exact serving vs the single-process oracle.

The multi-process fleet runtime (``repro.fleet``) keeps scheduling,
virtual time and ledgers on a coordinator that charges shadow replicas,
while worker processes run the exact numpy forwards in parallel.  This
benchmark measures what the sharding buys on an identical exact-mode
trace replay and re-asserts the fidelity contract on the way:

* **single** — a plain :class:`ClusterRouter` over the fleet, every
  forward inline (the oracle);
* **fleet** — the same nodes sharded across ``WORKERS`` spawn-context
  worker processes via :class:`FleetCluster`.

The acceptance gates of the fleet-workers PR:

* the fleet run's cluster ledger (cycles **and** energy) and its
  deadline-miss set are *identical* to the oracle's — the deterministic
  merge is not allowed to cost accuracy;
* every request's fleet predictions equal the oracle's — the workers'
  fused golden forwards, run in real spawn processes, must give each
  request what it gets alone;
* every admitted request completes on both sides (request conservation);
* the sync barrier after the replay audits every node (each worker
  answered it with nothing in flight);
* at full fidelity on a multi-core box, fleet requests/sec >=
  ``SPEEDUP_GATE`` x the single-process run.  The speedup gate is
  full-mode only (smoke traces are too short to amortise worker boot)
  and skipped below ``MIN_CPUS`` cores — the regression gate reads the
  ``cpu_count`` stamp (``min_cpus`` in baselines.json) the same way.

JSON lands in ``benchmarks/results/fleet_workers.json`` for the
bench-regression CI gate.
"""

import os

import numpy as np

from repro.analysis.report import format_table
from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ExecutionMode,
    build_image_pool,
    poisson_trace,
)
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.fleet import FleetCluster

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Workload geometry: mid-size exact requests — large enough that the
#: numpy forward dominates a request (what workers parallelise), small
#: enough that a full run fits the nightly budget.
IMAGE_SIZE = 32
IMAGE_COUNTS = (32, 64)
NUM_MACROS = 64
NODES = 4
WORKERS = 2
MAX_BATCH = 64

REQUESTS = 1_000 if SMOKE else 100_000

#: Minimum fleet-over-single requests/sec at full fidelity on >= MIN_CPUS
#: cores (two workers executing forwards concurrently must beat one
#: process executing them inline).  Three cores is the physical floor:
#: the coordinator and both workers each need one to overlap at all.
SPEEDUP_GATE = 1.6
MIN_CPUS = 3


def _make_nodes():
    return [
        ClusterNode(
            f"node-{index}",
            vdd=1.0 if index % 2 == 0 else 0.6,
            num_macros=NUM_MACROS,
            max_batch_size=MAX_BATCH,
            execution_mode=ExecutionMode.EXACT,
        )
        for index in range(NODES)
    ]


def _build_workload():
    dataset = make_pattern_image_dataset(
        samples=4 * max(IMAGE_COUNTS) + 200, size=IMAGE_SIZE, seed=13
    )
    # A wider model than the smoke fixtures: the exact numpy forward must
    # dominate a request (that is the work the workers parallelise), or
    # the speedup gate would be measuring pipe overhead instead.
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(2,), hidden_sizes=(8,), epochs=4, seed=13
    )
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
    trace = poisson_trace(
        REQUESTS,
        rate_rps=2000.0,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix={"latency": 0.3, "throughput": 0.4, "best_effort": 0.3},
        deadline_s=0.5,
        seed=13,
    )
    return cnn, pool, trace


def _warm(router, pool):
    """Program weights on first touch outside the timed loop."""
    for slots in pool.values():
        for digest, images in slots:
            router.submit("cnn", images, input_digest=digest)
        router.drain()


def _collect(router, stats):
    ledger = router.ledger()
    stats["ledger_cycles"] = float(ledger.total_cycles)
    stats["ledger_energy_j"] = ledger.total_energy_j
    stats["deadline_misses"] = float(
        sum(1 for trace in router.telemetry.traces if trace.deadline_missed)
    )
    misses = {trace.request_id for trace in router.telemetry.traces if trace.deadline_missed}
    predictions = {
        trace.request_id: router.result(trace.request_id).predictions
        for trace in router.telemetry.traces
    }
    return stats, misses, predictions


def _run_single(cnn, pool, trace):
    with ClusterRouter(_make_nodes()) as router:
        router.register_model("cnn", cnn)
        _warm(router, pool)
        stats = router.replay_trace(trace, pool, drain_every=64)
        return _collect(router, stats)


def _run_fleet(cnn, pool, trace):
    with FleetCluster(_make_nodes(), workers=WORKERS) as fleet:
        fleet.register_model("cnn", cnn)
        _warm(fleet, pool)
        stats = fleet.replay_trace(trace, pool, drain_every=64)
        audit = fleet.sync()
        stats, misses, predictions = _collect(fleet, stats)
        stats["audited_nodes"] = float(audit["audited_nodes"])
        stats["worker_crashes"] = float(fleet.worker_crashes)
        stats["tensor_segments"] = float(fleet._store.segments_created)
        stats["tensor_reuse_hits"] = float(fleet._store.reuse_hits)
        return stats, misses, predictions


def test_fleet_workers_speedup_and_fidelity(benchmark, reporter, write_results_json):
    cnn, pool, trace = _build_workload()

    single_stats, single_misses, single_predictions = _run_single(cnn, pool, trace)
    (fleet_stats, fleet_misses, fleet_predictions) = benchmark.pedantic(
        _run_fleet, args=(cnn, pool, trace), rounds=1, iterations=1
    )

    speedup = fleet_stats["requests_per_s"] / single_stats["requests_per_s"]
    cpu_count = os.cpu_count() or 1
    ledger_identical = (
        fleet_stats["ledger_cycles"] == single_stats["ledger_cycles"]
        and fleet_stats["ledger_energy_j"] == single_stats["ledger_energy_j"]
    )
    misses_identical = fleet_misses == single_misses
    predictions_identical = fleet_predictions.keys() == single_predictions.keys() and all(
        np.array_equal(predictions, single_predictions[request_id])
        for request_id, predictions in fleet_predictions.items()
    )
    fleet_stats["predictions_identical"] = 1.0 if predictions_identical else 0.0

    rows = [
        [
            "single",
            int(single_stats["requests"]),
            f"{single_stats['requests_per_s']:.0f}",
            "1.0x",
            int(single_stats["deadline_misses"]),
        ],
        [
            f"fleet ({WORKERS} workers)",
            int(fleet_stats["requests"]),
            f"{fleet_stats['requests_per_s']:.0f}",
            f"{speedup:.2f}x",
            int(fleet_stats["deadline_misses"]),
        ],
    ]
    reporter(
        "Fleet workers: exact trace replay, identical workload (requests/sec)",
        format_table(["mode", "requests", "req/s", "speedup", "misses"], rows)
        + f"\nledger identical: {ledger_identical}; "
        f"miss sets identical: {misses_identical}; "
        f"predictions identical: {predictions_identical}; "
        f"audited nodes: {int(fleet_stats['audited_nodes'])}; "
        f"shm segments: {int(fleet_stats['tensor_segments'])} "
        f"(reuse hits {int(fleet_stats['tensor_reuse_hits'])}); "
        f"cpus: {cpu_count}",
    )

    write_results_json(
        "fleet_workers",
        {
            "smoke": SMOKE,
            "image_size": IMAGE_SIZE,
            "image_counts": list(IMAGE_COUNTS),
            "num_macros": NUM_MACROS,
            "nodes": NODES,
            "workers": WORKERS,
            "requests": REQUESTS,
            "single": single_stats,
            "fleet": fleet_stats,
            "fleet_speedup": speedup,
            "ledger_identical": 1.0 if ledger_identical else 0.0,
            "miss_sets_identical": 1.0 if misses_identical else 0.0,
        },
    )

    # Fidelity gates hold in every mode: sharding must never change the
    # accounting.  The wall-clock speedup gate is a physical claim about
    # parallel execution, so it only applies at full fidelity on a box
    # with enough cores to show one (mirrored by min_cpus/full_only on
    # the baseline entry).
    assert ledger_identical, (
        f"fleet ledger diverged: cycles {fleet_stats['ledger_cycles']} vs "
        f"{single_stats['ledger_cycles']}, energy "
        f"{fleet_stats['ledger_energy_j']!r} vs "
        f"{single_stats['ledger_energy_j']!r}"
    )
    assert misses_identical, (
        f"deadline-miss sets diverged "
        f"({len(fleet_misses)} vs {len(single_misses)})"
    )
    assert predictions_identical, "fleet predictions diverged from the single-process run"
    assert fleet_stats["completed"] == fleet_stats["requests"] == REQUESTS
    assert single_stats["completed"] == single_stats["requests"] == REQUESTS
    assert fleet_stats["worker_crashes"] == 0.0
    assert fleet_stats["audited_nodes"] == float(NODES)
    if not SMOKE and cpu_count >= MIN_CPUS:
        assert speedup >= SPEEDUP_GATE, (
            f"fleet speedup {speedup:.2f}x below the {SPEEDUP_GATE}x gate "
            f"on {cpu_count} CPUs"
        )
