"""Replay workloads: seeded diurnal traces through the router in-process.

``replay_faults`` drives the columnar kernel in analytic mode with
aggregates-only telemetry, no metrics registry and a scripted
crash/recover/stall plan; offered load stays below saturation, so
placement changes show in the modeled figures.  Only scheduler, kernel,
node charge and core ledger run.  ``replay_fleet`` drives an exact-mode
trace through ``FleetCluster(workers=1)`` with the worker pinned to the
other vCPU, so the pipe + shared-memory hop, shadow charging and the
``sync()`` audit run.

A repetition builds a fresh router (a timed set-up), replays the whole
fixed trace chunk by chunk — one ``replay_trace`` call per chunk, whose
results are all available when the call returns — and checks that its
modeled outputs equal the first repetition's.  Host-speed probes run
between repetitions.
"""

from __future__ import annotations

import inspect
import os
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import common
import layers
import spans as spanlib
from common import Measured, SegmentClock

#: The demo CNN of ``python -m repro.gateway`` (same data, same seed).
DATASET = dict(samples=150, size=8, seed=13)
TRAINING = dict(conv_channels=(1,), hidden_sizes=(4,), epochs=6, seed=13)
IMAGE_COUNTS = (4, 8, 16)
SLA_MIX = {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}


@dataclass(frozen=True)
class ReplayConfig:
    """What distinguishes the two replay workloads."""

    #: Trace requests per repetition (the modeled figures' base).
    requests: int
    #: Requests per chunk: one ``replay_trace`` call, one drain.
    chunk: int
    base_rate_rps: float
    peak_rate_rps: float
    deadline_s: float
    vdds: tuple
    fleet: bool
    #: Repetitions always run; peak RSS is read after the first.
    min_repetitions: int


CONFIGS = {
    "replay_faults": ReplayConfig(
        requests=60_000, chunk=64, base_rate_rps=4_000.0, peak_rate_rps=16_000.0,
        deadline_s=2e-5, vdds=(1.0, 0.6, 1.0), fleet=False, min_repetitions=4,
    ),
    "replay_fleet": ReplayConfig(
        requests=2_560, chunk=64, base_rate_rps=2_000.0, peak_rate_rps=8_000.0,
        deadline_s=1e-5, vdds=(1.0, 0.6), fleet=True, min_repetitions=3,
    ),
}


def _model():
    from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn

    dataset = make_pattern_image_dataset(**DATASET)
    cnn, _ = train_pattern_cnn(dataset, **TRAINING)
    return dataset, cnn


def _trace(config: ReplayConfig, seed: int):
    from repro.cluster import diurnal_trace

    requests = config.requests
    return diurnal_trace(
        requests,
        period_s=requests / (config.base_rate_rps + config.peak_rate_rps),
        base_rate_rps=config.base_rate_rps,
        peak_rate_rps=config.peak_rate_rps,
        model_ids=("cnn",),
        image_counts=IMAGE_COUNTS,
        sla_mix=SLA_MIX,
        deadline_s=config.deadline_s,
        seed=seed,
    )


def _chunks(trace, size: int) -> list:
    """The trace cut into consecutive chunks (arrivals keep their times)."""
    from repro.cluster import WorkloadTrace

    return [
        WorkloadTrace(
            scenario=trace.scenario,
            model_ids=trace.model_ids,
            arrivals_s=trace.arrivals_s[start:start + size],
            image_counts=trace.image_counts[start:start + size],
            model_indices=trace.model_indices[start:start + size],
            sla_indices=trace.sla_indices[start:start + size],
            deadlines_s=trace.deadlines_s[start:start + size],
        )
        for start in range(0, len(trace), size)
    ]


def _fault_plan(span_s: float, vdds):
    """Crash and recover node 1, stall node 0, crash and recover node 2."""
    from repro.reliability.faults import FaultEvent, FaultKind, FaultPlan

    events = [
        FaultEvent(0.20 * span_s, FaultKind.CRASH, "node-1"),
        FaultEvent(0.35 * span_s, FaultKind.RECOVER, "node-1"),
        FaultEvent(0.60 * span_s, FaultKind.STALL, "node-0", duration_s=0.05 * span_s),
    ]
    if len(vdds) > 2:
        events += [
            FaultEvent(0.75 * span_s, FaultKind.CRASH, "node-2"),
            FaultEvent(0.85 * span_s, FaultKind.RECOVER, "node-2"),
        ]
    return FaultPlan(events)


class System:
    """One freshly built router (or fleet) with its model registered and warm."""

    def __init__(self, config: ReplayConfig, cnn, pool, span_s: float, worker_cpu: int) -> None:
        from repro.cluster import (
            ClusterNode, ClusterRouter, ColumnarTelemetry, ExecutionMode, ForwardMemo,
        )

        self.worker_pid: Optional[int] = None
        self.memo = None
        if config.fleet:
            from repro.fleet import FleetCluster

            nodes = [
                ClusterNode(f"node-{i}", vdd=vdd, num_macros=8, max_batch_size=256,
                            execution_mode=ExecutionMode.EXACT)
                for i, vdd in enumerate(config.vdds)
            ]
            self.router = FleetCluster(nodes, workers=1, telemetry=ColumnarTelemetry())
            try:
                self.worker_pid = self.router._handles[0].runner.pid
                common.pin_process(self.worker_pid, worker_cpu)
                self.router.register_model("cnn", cnn)
                for slots in pool.values():
                    for digest, images in slots:
                        self.router.submit("cnn", images, input_digest=digest)
                self.router.drain()
            except BaseException:
                self.router.shutdown()
                raise
        else:
            self.memo = memo = ForwardMemo()
            nodes = [
                ClusterNode(f"node-{i}", vdd=vdd, num_macros=8, max_batch_size=256,
                            execution_mode=ExecutionMode.ANALYTIC, forward_memo=memo)
                for i, vdd in enumerate(config.vdds)
            ]
            kwargs = dict(
                telemetry=ColumnarTelemetry(retain_traces=False),
                retain_results=False,
                fault_plan=_fault_plan(span_s, config.vdds),
            )
            # The columnar kernel is selected by name only while the
            # router still offers a choice of kernels.
            if "kernel" in inspect.signature(ClusterRouter).parameters:
                kwargs["kernel"] = "columnar"
            self.router = ClusterRouter(nodes, **kwargs)
            self.router.register_model("cnn", cnn)
            for node in nodes:
                for slots in pool.values():
                    for digest, images in slots:
                        node.execute("cnn", images, input_digest=digest)
        self.warm_requests = self.router.completed_requests
        self.warm_summary = self.router.telemetry.summary()

    def shutdown(self) -> None:
        self.router.shutdown()


class Repetition:
    """Timings, CPU time, modeled outputs and counters of one repetition."""

    def __init__(self) -> None:
        self.chunk_s: List[float] = []
        self.query_s: List[float] = []
        self.window = (0.0, 0.0)
        self.cpu_self_s = 0.0
        self.cpu_worker_s = 0.0
        self.modeled: Dict[str, float] = {}
        self.sync_s = 0.0
        self.failed = 0
        self.counts: Dict[str, float] = {}


def _replay(system: System, chunks, pool, config: ReplayConfig) -> Repetition:
    """Replay every chunk; a control query is answered between chunks."""
    router = system.router
    rep = Repetition()
    cpu_before = time.process_time()
    worker_before = common.cpu_seconds(system.worker_pid) if system.worker_pid else 0.0
    window_start = time.perf_counter()
    for chunk in chunks:
        started = time.perf_counter()
        router.replay_trace(chunk, pool, drain_every=config.chunk)
        answered = time.perf_counter()
        router.queue_depth()
        router.completed_requests
        rep.chunk_s.append(answered - started)
        rep.query_s.append(time.perf_counter() - answered)
    rep.window = (window_start, time.perf_counter())
    rep.cpu_self_s = time.process_time() - cpu_before
    if system.worker_pid:
        rep.cpu_worker_s = common.cpu_seconds(system.worker_pid) - worker_before
    return rep


def _check_and_model(system: System, rep: Repetition, config: ReplayConfig) -> List[str]:
    """Conservation (and the fleet audit); fills modeled outputs and counts."""
    router = system.router
    problems = []
    completed = router.completed_requests - system.warm_requests
    if completed != config.requests:
        problems.append(f"completed {completed} of {config.requests} submitted")
    rep.failed = router.failed_requests
    if rep.failed:
        problems.append(f"{rep.failed} failed requests")
    if router.queue_depth():
        problems.append(f"{router.queue_depth()} requests still queued")
    if config.fleet:
        started = time.perf_counter()
        audit = router.sync()
        rep.sync_s = time.perf_counter() - started
        if audit["audited_nodes"] != len(config.vdds):
            problems.append(f"sync audited {audit['audited_nodes']} nodes")
        if router.worker_crashes:
            problems.append(f"{router.worker_crashes} worker crashes")
    summary = router.summary()
    cluster = summary["cluster"]
    ledger = router.ledger()
    energy_j = cluster["energy_j"] - system.warm_summary["energy_j"]
    images = cluster["images"] - system.warm_summary["images"]
    rep.modeled = {
        "energy_j": energy_j,
        "images": images,
        "deadline_miss_rate": cluster["deadline_miss_rate"],
        "replayed_requests": cluster.get("replayed_requests", 0.0),
        "ledger_cycles": float(ledger.total_cycles),
        "ledger_energy_j": ledger.total_energy_j,
    }
    nodes = router.nodes
    memo = system.memo
    rep.counts = {
        "routed": cluster["requests"],
        "coalesced": cluster.get("coalesced_requests", 0.0),
        "replayed": cluster.get("replayed_requests", 0.0),
        "memo_hits": float(memo.hits) if memo is not None else 0.0,
        "memo_misses": float(memo.misses) if memo is not None else 0.0,
        "serve_images": sum(node["telemetry_images"] for node in summary["nodes"].values()),
        "serve_batches": sum(node["telemetry_dispatches"] for node in summary["nodes"].values()),
        "cache_hits": float(sum(node.engine.cache.hits for node in nodes)),
        "cache_misses": float(sum(node.engine.cache.misses for node in nodes)),
        "images": cluster["images"],
        "macs": float(sum(node.engine.counters.mac_count for node in nodes)),
        "cycles": float(ledger.total_cycles),
        "shm_segments": summary.get("fleet", {}).get("tensor_segments", 0.0),
    }
    return problems


def _setup(config, seed, worker_cpu):
    """A timed set-up: model, image pool, router build, warm-up."""
    from repro.cluster import build_image_pool

    started = time.perf_counter()
    dataset, cnn = _model()
    pool = build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS, pool_slots=8)
    trace = _trace(config, seed)
    system = System(config, cnn, pool, trace.duration_s, worker_cpu)
    return system, pool, trace, time.perf_counter() - started


#: Chunks the gated p90 needs: ten beyond the percentile.
TAIL_CHUNKS = 100


class Phase:
    """The repetitions of one run, their set-up times and any problems."""

    def __init__(self) -> None:
        self.reps: List[Repetition] = []
        self.setups: List[float] = []
        self.problems: List[str] = []
        self.rss_mb: Optional[float] = None


def _repetitions(config: ReplayConfig, seed: int, seconds: float, clock: SegmentClock,
                 cpus, min_repetitions: int, before_build=None) -> Phase:
    """Repetitions until ``seconds`` pass and the chunk sample supports
    the gated p90 (load continues up to three times as long for that)."""
    own_cpu, worker_cpu = cpus
    phase = Phase()
    chunks = None
    started = time.perf_counter()
    deadline, cap = started + seconds, started + 3 * seconds
    while (
        len(phase.reps) < min_repetitions
        or time.perf_counter() < deadline
        or (len(phase.reps) * len(chunks) < TAIL_CHUNKS and time.perf_counter() < cap)
    ):
        if before_build is not None:
            before_build(len(phase.reps))
        system, pool, trace, setup_s = _setup(config, seed, worker_cpu)
        if chunks is None:
            chunks = _chunks(trace, config.chunk)
        try:
            rep = _replay(system, chunks, pool, config)
            phase.problems += _check_and_model(system, rep, config)
            if not phase.reps and not phase.problems:
                phase.rss_mb = common.peak_rss_mb(os.getpid())
                if system.worker_pid:
                    phase.rss_mb += common.peak_rss_mb(system.worker_pid)
        finally:
            system.shutdown()
        if phase.reps and rep.modeled != phase.reps[0].modeled:
            phase.problems.append(
                f"repetition {len(phase.reps)} modeled {rep.modeled} != {phase.reps[0].modeled}"
            )
        phase.setups.append(setup_s)
        phase.reps.append(rep)
        clock.between()
        if phase.problems:
            break
    return phase


def _speed(clock: SegmentClock, k: int, rep: Repetition, cpus) -> float:
    """Speed of repetition ``k``: this process's vCPU and the fleet
    worker's, weighted by the CPU time each used in it."""
    return clock.weighted_speed(k, [(cpus[0], rep.cpu_self_s), (cpus[1], rep.cpu_worker_s)])


def _rates(config: ReplayConfig, phase: Phase, clock: SegmentClock, cpus):
    """Per-repetition throughput at reference speed, and raw."""
    rates, raw = [], []
    for k, rep in enumerate(phase.reps):
        rate = config.requests / sum(rep.chunk_s)
        raw.append(rate)
        rates.append(common.at_reference_rate(rate, _speed(clock, k, rep, cpus)))
    return rates, raw


def run(workload: str, seed: int, seconds: float, paper_pct):
    """The untraced run: (problems, attempted, failed, end-to-end metrics)."""
    config = CONFIGS[workload]
    cpus = common.bench_cpus()
    os.sched_setaffinity(0, {cpus[0]})
    clock = SegmentClock(cpus)
    clock.between()
    phase = _repetitions(config, seed, seconds, clock, cpus, config.min_repetitions)
    attempted = config.requests * len(phase.reps)
    failed = sum(rep.failed for rep in phase.reps)
    if phase.problems:
        return phase.problems, attempted, failed, {}

    speeds = clock.median_speeds()
    rates, raw_rates = _rates(config, phase, clock, cpus)
    chunk_ms, raw_chunk_ms, rtt_ms, raw_rtt_ms, setup_norm = [], [], [], [], []
    for k, rep in enumerate(phase.reps):
        scale = _speed(clock, k, rep, cpus) / common.REFERENCE_SPEED
        for chunk_s, query_s in zip(rep.chunk_s, rep.query_s):
            raw_chunk_ms.append(1e3 * chunk_s)
            chunk_ms.append(1e3 * chunk_s * scale)
            raw_rtt_ms.append(1e3 * (chunk_s + query_s))
            rtt_ms.append(1e3 * (chunk_s + query_s) * scale)
        setup_speed = clock.segment_speed(k, cpus[0])
        setup_norm.append(common.at_reference_time(phase.setups[k], setup_speed))
    modeled = phase.reps[0].modeled
    own_cpu_s = sum(rep.cpu_self_s for rep in phase.reps)
    worker_cpu_s = sum(rep.cpu_worker_s for rep in phase.reps)
    chunk_note = f"chunk latencies ({config.chunk} arrivals, admitted and answered)"
    query_note = "control queries, each waiting for the chunk in flight"
    metrics = {
        "requests_per_s": Measured(
            statistics.median(rates), "1/s", len(rates), raw=statistics.median(raw_rates),
            speeds=speeds, note=f"median of {len(rates)} repetitions; speeds weighted "
            f"{100 * own_cpu_s / (own_cpu_s + worker_cpu_s):.0f} % vCPU {cpus[0]}",
        ),
        "latency_p50_ms": common.tail(chunk_ms, raw_chunk_ms, speeds, 50.0, chunk_note),
        "latency_p99_ms": common.tail(chunk_ms, raw_chunk_ms, speeds, 99.0, chunk_note),
        "health_rtt_p90_ms": common.tail(rtt_ms, raw_rtt_ms, speeds, 90.0, query_note),
        "health_rtt_p99_ms": common.tail(rtt_ms, raw_rtt_ms, speeds, 99.0, query_note),
        "setup_s": Measured(
            statistics.median(setup_norm), "s", len(setup_norm),
            raw=statistics.median(phase.setups), speeds={cpus[0]: speeds[cpus[0]]},
            note="median of one build + warm-up per repetition",
        ),
        "peak_rss_mb": Measured(
            phase.rss_mb, "MB", 1,
            note=f"VmHWM after {config.requests} requests"
            + (" (coordinator + worker)" if config.fleet else ""),
        ),
        "modeled_energy_per_image_nj": Measured(
            1e9 * modeled["energy_j"] / modeled["images"], "nJ", config.requests,
            note="telemetry of each repetition (all identical)",
        ),
        "modeled_deadline_miss_rate": Measured(
            modeled["deadline_miss_rate"], "ratio", config.requests,
            note="telemetry of each repetition (all identical)",
        ),
        "paper_error_pct": paper_pct,
    }
    return [], attempted, failed, metrics


def run_traced(workload: str, seed: int, seconds: float, out_dir: str):
    """Untraced and traced repetitions, alternating, for ``seconds``.

    Returns (problems, attempted, failed, per-layer values, report lines).
    """
    import functools

    from repro.fleet import coordinator

    config = CONFIGS[workload]
    cpus = common.bench_cpus()
    os.sched_setaffinity(0, {cpus[0]})
    clock = SegmentClock(cpus)
    clock.between()
    recorder = spanlib.SpanRecorder()
    prefix = os.path.join(out_dir, f"spans-{workload}")
    worker_prefixes: List[str] = []
    plain_worker_main = coordinator.worker_main

    def alternate(repetition: int) -> None:
        """Odd repetitions run traced; the fleet's worker is traced too,
        through the name the coordinator spawns it by."""
        recorder.uninstall()
        coordinator.worker_main = plain_worker_main
        if repetition % 2:
            recorder.install()
            if config.fleet:
                worker_prefixes.append(f"{prefix}-rep{repetition}")
                coordinator.worker_main = functools.partial(
                    spanlib.traced_worker_main, worker_prefixes[-1]
                )

    phase = _repetitions(config, seed, seconds, clock, cpus, 4, before_build=alternate)
    recorder.uninstall()
    coordinator.worker_main = plain_worker_main
    recorder.write(prefix)
    attempted = config.requests * len(phase.reps)
    failed = sum(rep.failed for rep in phase.reps)
    if phase.problems:
        return phase.problems, attempted, failed, {}, []
    if len(phase.reps) % 2:
        phase.reps.pop()
    rates = _rates(config, phase, clock, cpus)[0]
    plain, traced = phase.reps[0::2], phase.reps[1::2]
    plain_rps, traced_rps = statistics.median(rates[0::2]), statistics.median(rates[1::2])
    windows = [rep.window for rep in traced]
    parts = [spanlib.load(prefix, windows=windows)]
    for worker_prefix in worker_prefixes:
        parts.append(spanlib.load(f"{worker_prefix}-rank0", windows=windows))
    aggregates = spanlib.merge_aggregates(part[0] for part in parts)
    meta = parts[0][1]
    requests = config.requests * len(traced)
    plain_requests = config.requests * len(plain)
    counts = {key: sum(rep.counts[key] for rep in traced) for key in traced[0].counts}
    if config.fleet:
        counts.update(
            coordinator_cpu_us=1e6 * sum(rep.cpu_self_s for rep in plain) / plain_requests,
            worker_cpu_us=1e6 * sum(rep.cpu_worker_s for rep in plain) / plain_requests,
            chunks=sum(len(rep.chunk_s) for rep in traced),
            sync_s=sum(rep.sync_s for rep in traced),
            syncs=len(traced),
        )
    counts.update(untraced_rps=plain_rps, traced_rps=traced_rps)
    values = layers.per_layer(aggregates, requests, counts)
    process_us = 1e6 * sum(rep.cpu_self_s for rep in traced) / requests
    lines = [
        f"traced: {requests} requests in {len(traced)} repetitions, alternating with "
        f"{len(plain)} untraced",
        f"benchmark-process CPU {process_us:.2f} us/request traced; layer self times "
        f"{values['trace.attributed_us_per_request']:.2f}"
        + (" (worker spans included)" if config.fleet else "")
        + "; no gateway on this path",
        "self time per request by layer: " + ", ".join(
            f"{layer} {1e6 * seconds_ / requests:.2f} us"
            for layer, seconds_ in sorted(spanlib.layer_self_s(aggregates).items())
        ),
        f"tracing overhead: {values['trace.overhead_pct']:.1f} % "
        f"(traced {traced_rps:.0f} vs untraced {plain_rps:.0f} requests/s at reference speed)",
        "absent entry points: " + (", ".join(meta["absent"]) or "none"),
    ]
    return [], attempted, 0, values, lines
