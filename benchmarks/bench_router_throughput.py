"""Router throughput: analytic fast path vs exact execution.

The cluster runtime's ``ExecutionMode.ANALYTIC`` charges every dispatch
through the engine's exact-charge API and memoises numeric forwards per
unique input, so trace studies cost Python bookkeeping instead of numpy
forwards.  This benchmark measures what that buys on an identical
trace-replay loop (submit in arrival order, drain in bounded chunks):

* **exact** — every request runs the full numpy forward in its node's
  batch loop (measured on a prefix of the trace; one exact request
  costs milliseconds);
* **analytic** — the full trace on the fast path;
* **analytic + coalescing** — the same trace with cross-request batch
  coalescing and coalesce-affinity placement.

The acceptance gates:

* the timed analytic run executes numeric forwards only for memo misses
  and spot checks — counted on the registered model, with zero
  unexplained forwards (deterministic, the promise analytic mode makes);
* analytic requests/sec >= ``SPEEDUP_GATE`` (20x) over exact on the same
  workload — a floor, not the promise: the exact leg is the quantised CNN
  forward, whose own speed sets the ratio, while a memo that forwarded
  every request would read about 1x;
* the analytic run of ``cluster_scheduling_study`` reproduces the exact
  run's miss rates, energies and cluster ledger **exactly** (the fidelity
  contract, re-asserted here on the real study workload),
* coalescing does not lose requests and speeds the analytic path up further.

JSON lands in ``benchmarks/results/router_throughput.json`` for the
bench-regression CI gate.
"""

import dataclasses
import os

from repro.analysis import experiments
from repro.analysis.report import format_table
from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ExecutionMode,
    ForwardMemo,
    SLAScheduler,
    build_image_pool,
    burst_trace,
    poisson_trace,
)
from repro.dnn.pipeline import QuantizedCNN, make_pattern_image_dataset, train_pattern_cnn

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: Workload geometry: large-batch requests on 24x24 images are the regime
#: trace studies model (the exact path costs several ms per request there,
#: all of it numpy work the analytic path charges without executing).
IMAGE_SIZE = 24
IMAGE_COUNTS = (128, 192, 256)
NUM_MACROS = 8
HIDDEN_SIZES = (4,)
EPOCHS = 6

ANALYTIC_REQUESTS = 5_000 if SMOKE else 100_000
EXACT_REQUESTS = 60 if SMOKE else 300
#: Sampled fidelity audit: one real forward per this many memo hits.
SPOT_CHECK_EVERY = 2_000

#: Minimum analytic-over-exact requests/sec ratio.
SPEEDUP_GATE = 20.0


class _CountingCNN(QuantizedCNN):
    """The workload's CNN, counting the numeric forwards run on it.

    Analytic nodes forward it on memo misses and spot checks, exact nodes
    once per batch (the golden forward); only the analytic count is gated.
    """

    forwards = 0

    def predict(self, images):
        self.forwards += 1
        return super().predict(images)


def _build_workload():
    dataset = make_pattern_image_dataset(
        samples=4 * max(IMAGE_COUNTS) + 400, size=IMAGE_SIZE, seed=13
    )
    trained, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=HIDDEN_SIZES, epochs=EPOCHS, seed=13
    )
    cnn = _CountingCNN(conv_layers=trained.conv_layers, head=trained.head)
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)
    trace = poisson_trace(
        ANALYTIC_REQUESTS,
        rate_rps=1000.0,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix={"latency": 0.2, "throughput": 0.5, "best_effort": 0.3},
        deadline_s=1.0,
        seed=13,
    )
    return dataset, cnn, pool, trace


def _build_burst_workload(dataset_images):
    """Flash-crowd traffic: many small requests of recurring content.

    Coalescing pays when many small adjacent requests merge into one
    dispatch (amortising the per-dispatch charge/bookkeeping over the whole
    group); the forward is memoised per request, so a burst trace of
    8-image requests drawn from a few distinct bodies hits the memo
    whatever groups the router forms.
    """
    count = 8
    pool = build_image_pool({"cnn": dataset_images}, (count,), pool_slots=4)
    trace = burst_trace(
        ANALYTIC_REQUESTS,
        base_rate_rps=1000.0,
        burst_every_s=2.0,
        burst_duration_s=0.4,
        burst_multiplier=6.0,
        model_ids=("cnn",),
        image_counts=(count,),
        sla_mix={"throughput": 0.6, "best_effort": 0.4},
        seed=13,
    )
    return pool, trace


def _run(cnn, pool, trace, mode, coalesce=False, coalesce_affinity=False, drain_every=16):
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"{mode.value}-{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=mode,
            forward_memo=memo,
            spot_check_every=SPOT_CHECK_EVERY if mode is ExecutionMode.ANALYTIC else 0,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]
    scheduler = SLAScheduler(coalesce_affinity=coalesce_affinity)
    with ClusterRouter(nodes, scheduler=scheduler, coalesce=coalesce) as router:
        router.register_model("cnn", cnn)
        # Steady-state warm-up outside the timed loop: one request per pool
        # slot programs the weights and populates the forward memo, so both
        # modes are measured serving, not bootstrapping.
        for slots in pool.values():
            for digest, images in slots:
                router.submit("cnn", images, input_digest=digest)
            router.drain()
        forwards, misses = cnn.forwards, memo.misses
        spot_checks = sum(node.spot_checks for node in nodes)
        stats = router.replay_trace(trace, pool, drain_every=drain_every)
        stats["memo_entries"] = float(len(memo))
        stats["memo_hits"] = float(memo.hits)
        # Counted over the timed replay only (the warm-up fills the memo).
        stats["spot_checks"] = float(sum(node.spot_checks for node in nodes) - spot_checks)
        stats["memo_misses"] = float(memo.misses - misses)
        stats["numeric_forwards"] = float(cnn.forwards - forwards)
        stats["unexplained_forwards"] = (
            stats["numeric_forwards"] - stats["memo_misses"] - stats["spot_checks"]
        )
        stats["coalesced_requests"] = router.telemetry.summary()["coalesced_requests"]
        # Engine-level dispatch count: the deterministic measure of what
        # coalescing amortises (wall-clock ratios on a busy CI runner are
        # noise; merged dispatches are not).
        stats["engine_matmul_calls"] = float(
            sum(node.engine.counters.matmul_calls for node in nodes)
        )
        ledger = router.ledger()
        stats["ledger_cycles"] = float(ledger.total_cycles)
        stats["ledger_energy_j"] = ledger.total_energy_j
    return stats


def _fidelity_check():
    """Exact vs analytic cluster_scheduling_study, compared field by field."""
    kwargs = dict(num_macros=16, samples=90, epochs=4, waves=3)
    exact = experiments.cluster_scheduling_study(execution_mode="exact", **kwargs)
    analytic = experiments.cluster_scheduling_study(execution_mode="analytic", **kwargs)
    mismatches = []
    for fleet in exact:
        exact_point = dataclasses.asdict(exact[fleet])
        analytic_point = dataclasses.asdict(analytic[fleet])
        for key, value in exact_point.items():
            if analytic_point[key] != value:
                mismatches.append(f"{fleet}.{key}")
    return mismatches


def test_router_throughput_analytic_vs_exact(benchmark, reporter, write_results_json):
    dataset, cnn, pool, trace = _build_workload()
    burst_pool, burst = _build_burst_workload(dataset.test_images)

    exact_stats = _run(cnn, pool, trace.head(EXACT_REQUESTS), ExecutionMode.EXACT)
    analytic_stats = benchmark.pedantic(
        _run,
        args=(cnn, pool, trace, ExecutionMode.ANALYTIC),
        rounds=1,
        iterations=1,
    )
    # Both burst runs place with coalesce-affinity steering so the only
    # variable between them is the coalescing itself.
    burst_plain = _run(
        cnn,
        burst_pool,
        burst,
        ExecutionMode.ANALYTIC,
        coalesce_affinity=True,
        drain_every=48,
    )
    burst_coalesced = _run(
        cnn,
        burst_pool,
        burst,
        ExecutionMode.ANALYTIC,
        coalesce=True,
        coalesce_affinity=True,
        drain_every=48,
    )
    mismatches = _fidelity_check()

    speedup = analytic_stats["requests_per_s"] / exact_stats["requests_per_s"]
    coalesce_speedup = (
        burst_coalesced["requests_per_s"] / burst_plain["requests_per_s"]
    )
    coalesce_dispatch_fraction = (
        burst_coalesced["engine_matmul_calls"] / burst_plain["engine_matmul_calls"]
    )

    rows = [
        [
            "exact",
            exact_stats["requests"],
            f"{exact_stats['requests_per_s']:.0f}",
            "1.0x",
            0,
        ],
        [
            "analytic",
            analytic_stats["requests"],
            f"{analytic_stats['requests_per_s']:.0f}",
            f"{speedup:.0f}x",
            int(analytic_stats["spot_checks"]),
        ],
        [
            "analytic burst",
            burst_plain["requests"],
            f"{burst_plain['requests_per_s']:.0f}",
            "-",
            int(burst_plain["spot_checks"]),
        ],
        [
            "analytic burst+coalesce",
            burst_coalesced["requests"],
            f"{burst_coalesced['requests_per_s']:.0f}",
            f"{coalesce_speedup:.2f}x vs uncoalesced",
            int(burst_coalesced["spot_checks"]),
        ],
    ]
    reporter(
        "Router throughput: trace replay, identical workload (requests/sec)",
        format_table(["mode", "requests", "req/s", "speedup", "spot checks"], rows)
        + f"\ncoalesced requests in burst run: "
        f"{int(burst_coalesced['coalesced_requests'])} "
        f"(engine dispatches cut to "
        f"{coalesce_dispatch_fraction:.2f}x of uncoalesced)"
        + f"\nfidelity mismatches vs exact study: {mismatches if mismatches else 'none'}",
    )

    write_results_json(
        "router_throughput",
        {
            "smoke": SMOKE,
            "image_size": IMAGE_SIZE,
            "image_counts": list(IMAGE_COUNTS),
            "num_macros": NUM_MACROS,
            "analytic_requests": ANALYTIC_REQUESTS,
            "exact_requests": EXACT_REQUESTS,
            "exact": exact_stats,
            "analytic": analytic_stats,
            "burst_uncoalesced": burst_plain,
            "burst_coalesced": burst_coalesced,
            "analytic_speedup_vs_exact": speedup,
            "analytic_unexplained_forwards": analytic_stats["unexplained_forwards"],
            "coalesce_speedup": coalesce_speedup,
            "coalesce_dispatch_fraction": coalesce_dispatch_fraction,
            "fidelity_bit_exact": 0.0 if mismatches else 1.0,
            "fidelity_mismatches": mismatches,
        },
    )

    # Acceptance gates.  What analytic mode promises — no numeric forward
    # beyond memo misses and spot checks — is asserted on a count; the one
    # wall-clock gate is a floor on the large analytic-vs-exact gap, and
    # the coalescing benefit is asserted on the deterministic dispatch
    # count, where a ~few-percent wall-clock delta would flake.
    assert not mismatches, f"analytic study diverged from exact: {mismatches}"
    assert analytic_stats["unexplained_forwards"] == 0
    assert speedup >= SPEEDUP_GATE
    assert analytic_stats["completed"] == analytic_stats["requests"]
    assert burst_coalesced["completed"] == burst_coalesced["requests"]
    assert burst_coalesced["coalesced_requests"] > 0
    assert coalesce_dispatch_fraction <= 0.7
