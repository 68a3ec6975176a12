"""Wire workloads: a closed loop against a ``python -m repro.gateway`` process.

The benchmark process is the load generator: one asyncio loop pinned to
one vCPU, two connections (``AsyncGatewayClient``) with a fixed number of
outstanding ``predict`` calls each, and a back-to-back HEALTH prober per
connection.  The gateway is pinned to the other vCPU.  Load runs in
segments fixed in requests; between segments the load stops, every
outstanding call completes, and both vCPUs are probed for speed.

``wire_ref`` re-references 8 pre-uploaded tensors by ``images_ref`` on an
analytic gateway: frames are small, forwards are charged analytically and
memoised, and the cost sits in admission, obs counters, framing and the
object router.
``wire_inline_exact`` uploads fresh seeded images inline on an exact
gateway with an admission journal, so the cost sits in the base64 codec,
the exact forward and journal writes, and dispatch batches hold the
event loop long enough to delay HEALTH answers.
"""

from __future__ import annotations

import asyncio
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import common
import layers
import spans as spanlib
from common import Measured, SegmentClock

#: Demo fleet the CLI serves (its defaults): 2 nodes, 8 macros each.
GATEWAY_NODES = 2
GATEWAY_MACROS = 8
#: Image geometry of the demo CNN.
IMAGE_SHAPE = (1, 8, 8)
#: Wire SLA mix: the class of request ``i`` is ``SLA_CYCLE[i % 3]``.
SLA_CYCLE = ("latency", "throughput", "best_effort")
#: Timed set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Connections, and outstanding calls per connection (the closed loop).
CONNECTIONS = 2
OUTSTANDING = 16
#: Segments always run; peak RSS is read after them, so it is taken at a
#: fixed request count.
FIXED_SEGMENTS = 4
#: Responses whose dispatch group is re-served in-process and compared.
SAMPLE_GROUPS = 48
#: Scheduled requests replayed in fixed order for the modeled figures.
MODELED_REQUESTS = 256


@dataclass(frozen=True)
class WireConfig:
    """What distinguishes the two wire workloads."""

    #: ``--mode`` of the gateway CLI.
    mode: str
    #: Run the gateway with ``--journal``.
    journal: bool
    #: Images per request.
    images: int
    #: Pre-uploaded tensors re-referenced by ``images_ref`` (0 = upload
    #: fresh images inline with every request).
    refs: int
    #: Requests per load segment.
    segment_requests: int
    #: Virtual-time deadline of latency-class requests.
    deadline_s: float


CONFIGS = {
    "wire_ref": WireConfig(
        mode="analytic", journal=False, images=4, refs=8, segment_requests=10_000,
        deadline_s=2e-4,
    ),
    "wire_inline_exact": WireConfig(
        mode="exact", journal=True, images=32, refs=0, segment_requests=2_500,
        deadline_s=1e-3,
    ),
}

#: HEALTH round trips the gated p90 needs: ten beyond the percentile.
TAIL_RTTS = 100


class CheckFailed(Exception):
    """A correctness check failed; the run reports no metrics."""


# ---------------------------------------------------------------------- #
# Request schedule
# ---------------------------------------------------------------------- #
class Schedule:
    """Seeded inputs: request ``i`` of segment ``s`` is fixed by the seed."""

    def __init__(self, config: WireConfig, seed: int) -> None:
        self.config = config
        self.seed = seed
        rng = np.random.default_rng([seed, 0])
        self.refs = [rng.random((config.images,) + IMAGE_SHAPE) for _ in range(config.refs)]
        self.warm_inputs = self.refs or [
            np.random.default_rng([seed, 3, k]).random((config.images,) + IMAGE_SHAPE)
            for k in range(4)
        ]
        self._cached = (None, None)

    def segment(self, index: int):
        """(images per request, sla per request, deadline per request)."""
        config = self.config
        rng = np.random.default_rng([self.seed, 2, index])
        n = config.segment_requests
        if config.refs:
            choice = rng.integers(0, config.refs, n)
            images = [self.refs[k] for k in choice.tolist()]
        else:
            block = rng.random((n, config.images) + IMAGE_SHAPE)
            images = list(block)
        slas = [SLA_CYCLE[(index * n + i) % 3] for i in range(n)]
        deadlines = [config.deadline_s if sla == "latency" else None for sla in slas]
        return images, slas, deadlines

    def request(self, key) -> tuple:
        """(images, sla, deadline) of a request key: ``("warm", k)`` or
        ``(segment, index)``; segments are regenerated from the seed."""
        if key[0] == "warm":
            return self.warm_inputs[key[1]], "throughput", None
        segment, index = key
        if self._cached[0] != segment:
            self._cached = (segment, self.segment(segment))
        images, slas, deadlines = self._cached[1]
        return images[index], slas[index], deadlines[index]


# ---------------------------------------------------------------------- #
# Gateway process
# ---------------------------------------------------------------------- #
class GatewayProcess:
    """One gateway subprocess pinned to a vCPU; port read from its banner."""

    def __init__(
        self, root: str, argv: List[str], cpu: int, spans_path: Optional[str] = None
    ) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro.gateway"] + argv
        else:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
            command = [sys.executable, launcher, spans_path, "--"] + argv
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=root,
            env=common.child_env(os.path.join(root, "src")),
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        self.port = self._read_port(timeout_s=60.0)

    def _read_port(self, timeout_s: float) -> int:
        deadline = time.monotonic() + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.monotonic())):
                    continue
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"on [\d.]+:(\d+) ", line)
                if match:
                    return int(match.group(1))
        self.kill()
        raise RuntimeError("gateway did not report its port")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> int:
        """Graceful drain (SIGINT); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.kill()
        self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


# ---------------------------------------------------------------------- #
# Load
# ---------------------------------------------------------------------- #
class Observed:
    """Everything the client saw over a run."""

    def __init__(self) -> None:
        self.calls = 0
        self.failed_calls = 0
        self.failures: List[str] = []
        self.request_ids: List[int] = []
        self.attempts = 0
        self.health = 0
        #: (router id, node, coalesced group size, request key, predictions).
        self.responses: List[tuple] = []

    def answered(self, result, key) -> None:
        """Record one completed call."""
        self.calls += 1
        self.request_ids.append(result.request_id)
        self.attempts += result.attempts
        trace = result.trace
        self.responses.append(
            (result.request_id, trace["node_id"], trace["coalesced"], key, result.predictions)
        )


async def _run_segment(clients, inputs, index: int, observed: Observed, config: WireConfig):
    """One closed-loop segment over pre-generated ``inputs``; returns
    (elapsed_s, latencies_s, health_rtts_s)."""
    images, slas, deadlines = inputs
    n = len(images)
    latencies: List[float] = []
    rtts: List[float] = []
    cursor = 0
    loading = True

    async def worker(client) -> None:
        nonlocal cursor
        while cursor < n:
            i = cursor
            cursor += 1
            started = time.perf_counter()
            try:
                result = await client.predict(
                    "cnn", images[i], sla=slas[i], deadline_s=deadlines[i]
                )
            except Exception as error:  # noqa: BLE001 - every SDK failure counts
                observed.calls += 1
                observed.failed_calls += 1
                observed.failures.append(f"{type(error).__name__}: {error}")
                continue
            latencies.append(time.perf_counter() - started)
            observed.answered(result, (index, i))

    async def prober(client) -> None:
        while loading:
            started = time.perf_counter()
            reply = await client.health()
            rtts.append(time.perf_counter() - started)
            observed.health += 1
            if reply.get("state") not in ("ready", "live"):
                observed.failures.append(f"HEALTH state {reply.get('state')!r}")

    started = time.perf_counter()
    probes = [asyncio.ensure_future(prober(client)) for client in clients]
    try:
        await asyncio.gather(
            *(worker(client) for client in clients for _ in range(OUTSTANDING))
        )
    finally:
        elapsed = time.perf_counter() - started
        loading = False
        await asyncio.gather(*probes)
    return elapsed, latencies, rtts


async def _connect(port: int):
    from repro.gateway.client import AsyncGatewayClient

    clients = [AsyncGatewayClient("127.0.0.1", port, retries=6) for _ in range(CONNECTIONS)]
    for client in clients:
        await client.connect()
    return clients


async def _close(clients) -> None:
    for client in clients:
        await client.close()


async def _warm(clients, schedule: Schedule, observed: Observed) -> None:
    """Uploads, memo entries and weight programming, outside timing."""
    for client in clients:
        for k, images in enumerate(schedule.warm_inputs):
            observed.answered(await client.predict("cnn", images, sla="throughput"), ("warm", k))


async def _first_response(port: int, images):
    """Connect and complete one call; returns (completion time, result)."""
    from repro.gateway.client import AsyncGatewayClient

    client = AsyncGatewayClient("127.0.0.1", port)
    await client.connect()
    try:
        result = await client.predict("cnn", images, sla="throughput")
    finally:
        await client.close()
    return time.perf_counter(), result


def _gateway_argv(config: WireConfig, journal_path: Optional[str]) -> List[str]:
    argv = ["--port", "0", "--mode", config.mode, "--nodes", str(GATEWAY_NODES),
            "--num-macros", str(GATEWAY_MACROS)]
    if journal_path is not None:
        argv += ["--journal", journal_path]
    return argv


# ---------------------------------------------------------------------- #
# One measured phase: segments with probes in between
# ---------------------------------------------------------------------- #
class Phase:
    """Segment-level measurements of one gateway's load."""

    def __init__(self) -> None:
        self.elapsed: List[float] = []
        self.requests: List[int] = []
        self.latencies: List[List[float]] = []
        self.rtts: List[List[float]] = []
        #: CPU seconds per segment, from /proc (gateway) and the process clock.
        self.gateway_cpu: List[float] = []
        self.client_cpu: List[float] = []
        self.rss_mb: Optional[float] = None
        self.clock: Optional[SegmentClock] = None
        #: perf_counter span of the segments (spans outside it are dropped).
        self.window = (0.0, 0.0)

    @property
    def gateway_cpu_s(self) -> float:
        return sum(self.gateway_cpu)

    @property
    def client_cpu_s(self) -> float:
        return sum(self.client_cpu)


async def _measure(clients, gateway: GatewayProcess, schedule: Schedule, observed: Observed,
                   seconds: float, cpus, min_segments: int, tail_rtts: int) -> Phase:
    config = schedule.config
    phase = Phase()
    phase.clock = SegmentClock(cpus)
    phase.clock.between()
    deadline = time.perf_counter() + seconds
    index = 0
    window_start = time.perf_counter()
    # Past the deadline, load continues (up to three times as long in
    # all) until the HEALTH sample holds ``tail_rtts`` round trips.
    cap = time.perf_counter() + 3 * seconds
    while (
        len(phase.elapsed) < min_segments
        or time.perf_counter() < deadline
        or (sum(map(len, phase.rtts)) < tail_rtts and time.perf_counter() < cap)
    ):
        inputs = schedule.segment(index)
        gateway_before = common.cpu_seconds(gateway.pid)
        client_before = time.process_time()
        elapsed, latencies, rtts = await _run_segment(clients, inputs, index, observed, config)
        phase.client_cpu.append(time.process_time() - client_before)
        phase.gateway_cpu.append(common.cpu_seconds(gateway.pid) - gateway_before)
        phase.elapsed.append(elapsed)
        phase.requests.append(len(latencies))
        phase.latencies.append(latencies)
        phase.rtts.append(rtts)
        index += 1
        if len(phase.elapsed) == FIXED_SEGMENTS:
            phase.rss_mb = common.peak_rss_mb(gateway.pid)
        phase.window = (window_start, time.perf_counter())
        phase.clock.between()
    return phase


def _gateway_share(phase: Phase) -> float:
    """The gateway's share of the CPU time both processes used."""
    return phase.gateway_cpu_s / (phase.gateway_cpu_s + phase.client_cpu_s)


def _normalised(phase: Phase, cpus):
    """Per-segment rates and pooled latency/RTT samples at reference speed.

    A segment's speed weights the gateway's vCPU and the load process's
    by the CPU time each process used in it.
    """
    rates, raw_rates, latencies, raw_latencies, rtts, raw_rtts = [], [], [], [], [], []
    for k, elapsed in enumerate(phase.elapsed):
        speed = phase.clock.weighted_speed(
            k, [(cpus[0], phase.gateway_cpu[k]), (cpus[1], phase.client_cpu[k])]
        )
        rate = phase.requests[k] / elapsed
        raw_rates.append(rate)
        rates.append(common.at_reference_rate(rate, speed))
        scale = speed / common.REFERENCE_SPEED
        latencies.extend(value * scale for value in phase.latencies[k])
        raw_latencies.extend(phase.latencies[k])
        rtts.extend(value * scale for value in phase.rtts[k])
        raw_rtts.extend(phase.rtts[k])
    return rates, raw_rates, latencies, raw_latencies, rtts, raw_rtts


# ---------------------------------------------------------------------- #
# Correctness
# ---------------------------------------------------------------------- #
def _groups(observed: Observed) -> Dict[int, List[tuple]]:
    """Rebuild every dispatch group from the responses' traces.

    A node serves its FIFO queue head first and coalesces consecutive
    requests, so walking one node's responses in router-id order, each
    group is the next ``coalesced`` responses.  Returns the group of each
    router id; raises :class:`CheckFailed` if the sizes do not tile.
    """
    by_node: Dict[str, List[tuple]] = {}
    for response in observed.responses:
        by_node.setdefault(response[1], []).append(response)
    group_of: Dict[int, List[tuple]] = {}
    for node, responses in by_node.items():
        responses.sort(key=lambda response: response[0])
        position = 0
        while position < len(responses):
            size = responses[position][2]
            group = responses[position:position + size]
            if len(group) != size or any(member[2] != size for member in group):
                raise CheckFailed(f"coalesced group sizes on {node} do not tile")
            for member in group:
                group_of[member[0]] = group
            position += size
    return group_of


def _check_predictions(config: WireConfig, schedule: Schedule, observed: Observed) -> List[str]:
    """Re-serve a seeded sample of dispatch groups in-process and compare.

    A request's predictions depend on its batchmates (the activation
    quantisation scale is per batch), so each sampled response's whole
    group is submitted, in order, to a one-node router from the CLI's own
    builder, which coalesces it into the same batch.
    """
    from repro.cluster import SLAClass
    from repro.gateway.__main__ import build_demo_router
    from repro.gateway.protocol import images_digest

    try:
        group_of = _groups(observed)
    except CheckFailed as error:
        return [str(error)]
    timed = [response[0] for response in observed.responses if response[3][0] != "warm"]
    rng = np.random.default_rng([schedule.seed, 5])
    picked = rng.choice(len(timed), min(SAMPLE_GROUPS, len(timed)), replace=False)
    groups = {id(group_of[timed[k]]): group_of[timed[k]] for k in picked.tolist()}
    # In segment order, so each segment's inputs are regenerated once.
    ordered = sorted(groups.values(), key=lambda group: group[0][3])
    router = build_demo_router(1, GATEWAY_MACROS, config.mode, coalesce=True)
    problems, checked = [], 0
    try:
        for group in ordered:
            ids = []
            for _, _, _, key, _ in group:
                images, sla, deadline = schedule.request(key)
                ids.append(router.submit(
                    "cnn", images, sla=SLAClass(sla), deadline_s=deadline,
                    input_digest=images_digest(images),
                ))
            router.drain()
            for router_id, member in zip(ids, group):
                checked += 1
                result = router.result(router_id)
                if result.coalesced != len(group):
                    problems.append(f"group of {len(group)} re-served as {result.coalesced}")
                elif not np.array_equal(result.predictions, member[4]):
                    problems.append(f"request {member[3]} predicted {member[4].tolist()}, "
                                    f"in-process {result.predictions.tolist()}")
    finally:
        router.shutdown()
    return problems[:5] + ([f"{len(problems)} of {checked} predictions differ"] if problems else [])


def _modeled(config: WireConfig, schedule: Schedule):
    """Modeled energy/image (nJ) and miss rate of the schedule's first
    requests, served in order by the CLI's router with a closed loop's
    drain cadence.  Batch formation on the live gateway follows wall-clock
    timing, so the modeled figures come from this fixed replay instead."""
    from repro.cluster import SLAClass
    from repro.gateway.__main__ import build_demo_router
    from repro.gateway.protocol import images_digest

    router = build_demo_router(GATEWAY_NODES, GATEWAY_MACROS, config.mode, coalesce=True)
    window = CONNECTIONS * OUTSTANDING
    try:
        for i in range(MODELED_REQUESTS):
            images, sla, deadline = schedule.request((0, i))
            router.submit("cnn", images, sla=SLAClass(sla), deadline_s=deadline,
                          input_digest=images_digest(images))
            if (i + 1) % window == 0:
                router.drain()
        router.drain()
        summary = router.telemetry.summary()
    finally:
        router.shutdown()
    return 1e9 * summary["energy_j"] / summary["images"], summary["deadline_miss_rate"]


def _check_stats(stats: dict, observed: Observed) -> List[str]:
    """The gateway's STATS counters must reconcile with what the client saw."""
    problems = []
    for key in ("busy_sent", "errors_sent", "shed_sent", "malformed_frames", "responses_dropped"):
        if stats.get(key, 0):
            problems.append(f"STATS {key} = {stats[key]}")
    answered = len(observed.request_ids)
    if stats["responses_sent"] != answered:
        problems.append(
            f"STATS responses_sent {stats['responses_sent']} != {answered} answered calls"
        )
    if stats["requests_admitted"] != stats["responses_sent"]:
        problems.append("STATS requests_admitted != responses_sent")
    if stats["router_completed"] != stats["requests_admitted"]:
        problems.append("router_completed != requests_admitted")
    if stats["router_failed"]:
        problems.append(f"router_failed = {stats['router_failed']}")
    if stats["health_checks"] != observed.health:
        problems.append(f"STATS health_checks {stats['health_checks']} != {observed.health} probes")
    if len(set(observed.request_ids)) != answered:
        problems.append("a router request id was answered more than once")
    if observed.calls != answered + observed.failed_calls:
        problems.append("calls issued != calls answered + calls failed")
    return problems


def _check_journal(root: str, path: str) -> List[str]:
    completed = subprocess.run(
        [sys.executable, "-m", "repro.gateway.journal", path],
        cwd=root, env=common.child_env(os.path.join(root, "src")),
        capture_output=True, text=True, timeout=120,
    )
    if completed.returncode != 0:
        return [f"journal reconciliation exited {completed.returncode}: {completed.stdout[-400:]}"]
    return []


# ---------------------------------------------------------------------- #
# Entry points
# ---------------------------------------------------------------------- #
def _setups(root: str, config: WireConfig, schedule: Schedule, cpus, out_dir: str, count: int):
    """Spawn the gateway ``count`` times; the last one keeps running.

    Each set-up runs from spawn to the first RESPONSE and is restated at
    the reference speed of the gateway's vCPU, probed just before and
    after it.  Returns (gateway, first result, set-up Measured, journal).
    """
    first_images = schedule.warm_inputs[0]
    durations, raw, speeds = [], [], []
    for attempt in range(count):
        journal_path = None
        if config.journal:
            journal_path = os.path.join(out_dir, f"journal-{attempt}.jsonl")
        speed_before = common.probe_cpu(cpus[0])
        gateway = GatewayProcess(root, _gateway_argv(config, journal_path), cpus[0])
        try:
            finished, result = asyncio.run(_first_response(gateway.port, first_images))
        except BaseException:
            gateway.kill()
            raise
        speed = 0.5 * (speed_before + common.probe_cpu(cpus[0]))
        speeds.append(speed)
        raw.append(finished - gateway.spawned)
        durations.append(common.at_reference_time(raw[-1], speed))
        if attempt < count - 1:
            gateway.stop()
    setup = Measured(
        statistics.median(durations), "s", count, raw=statistics.median(raw),
        speeds={cpus[0]: statistics.median(speeds)},
        note=f"median of {count} spawns to first RESPONSE",
    )
    return gateway, result, setup, journal_path


def _load(gateway: GatewayProcess, schedule: Schedule, observed: Observed, seconds: float,
          cpus, min_segments: int, tail_rtts: int = 0, scrape: bool = False):
    """Warm up, then measure; optionally scrape the registry around it.

    A scrape runs while the load connections are closed, so the gateway
    never sees more than :data:`CONNECTIONS` clients.
    """
    async def drive():
        clients = await _connect(gateway.port)
        try:
            await _warm(clients, schedule, observed)
            before = None
            if scrape:
                await _close(clients)
                before = _scrape(gateway.port)
                for client in clients:
                    await client.connect()
            phase = await _measure(clients, gateway, schedule, observed, seconds, cpus,
                                   min_segments, tail_rtts)
            stats = await clients[0].stats()
        finally:
            await _close(clients)
        return phase, stats, before, _scrape(gateway.port) if scrape else None

    try:
        return asyncio.run(drive())
    except BaseException:
        gateway.kill()
        raise


def _scrape(port: int) -> dict:
    """Counter totals from one METRICS scrape plus the STATS reply."""
    from repro.gateway.client import GatewayClient

    with GatewayClient("127.0.0.1", port) as client:
        snapshot = client.metrics()
        stats = client.stats()
    totals = {
        name: sum(float(sample.get("value", 0.0)) for sample in family["samples"])
        for name, family in snapshot["metrics"].items()
        if family["kind"] == "counter"
    }
    totals.update({f"stats.{key}": float(value) for key, value in stats.items()
                   if isinstance(value, (int, float))})
    return totals


def _checks(root: str, config: WireConfig, gateway: GatewayProcess, stats: dict,
            observed: Observed, journal_path: Optional[str]) -> List[str]:
    problems = []
    exit_code = gateway.stop()
    if exit_code != 0:
        problems.append(f"gateway exited {exit_code}")
    problems += _check_stats(stats, observed)
    if config.journal:
        problems += _check_journal(root, journal_path)
    return problems


def _failed(observed: Observed, stats: dict) -> int:
    """SDK exceptions plus the BUSY and ERROR frames the SDK retried past."""
    return observed.failed_calls + int(stats.get("busy_sent", 0)) + int(stats.get("errors_sent", 0))


def run(workload: str, root: str, seed: int, seconds: float, out_dir: str, paper_pct):
    """The untraced run: (problems, attempted, failed, end-to-end metrics)."""
    config = CONFIGS[workload]
    cpus = common.bench_cpus()
    os.sched_setaffinity(0, {cpus[1]})
    schedule = Schedule(config, seed)
    gateway, first, setup, journal_path = _setups(root, config, schedule, cpus, out_dir, SETUPS)
    observed = Observed()
    observed.answered(first, ("warm", 0))
    phase, stats, _, _ = _load(gateway, schedule, observed, seconds, cpus,
                               FIXED_SEGMENTS, tail_rtts=TAIL_RTTS)
    problems = _checks(root, config, gateway, stats, observed, journal_path)
    problems += _check_predictions(config, schedule, observed)
    energy_nj, miss_rate = _modeled(config, schedule)
    attempted, failed = observed.calls, _failed(observed, stats)
    if problems or observed.failures:
        return problems + observed.failures[:5], attempted, failed, {}

    speeds = phase.clock.median_speeds()
    rates, raw_rates, latencies, raw_latencies, rtts, raw_rtts = _normalised(phase, cpus)

    def ms(seconds):
        return [1e3 * value for value in seconds]

    metrics = {
        "requests_per_s": Measured(
            statistics.median(rates), "1/s", len(rates), raw=statistics.median(raw_rates),
            speeds=speeds, note=f"median of {len(rates)} segments; speeds weighted "
            f"{100 * _gateway_share(phase):.0f} % gateway vCPU {cpus[0]}",
        ),
        "latency_p50_ms": Measured(
            1e3 * statistics.median(latencies), "ms", len(latencies),
            raw=1e3 * statistics.median(raw_latencies), speeds=speeds, note="SDK call",
        ),
        "latency_p99_ms": common.tail(ms(latencies), ms(raw_latencies), speeds, 99.0, "SDK calls"),
        "health_rtt_p90_ms": common.tail(ms(rtts), ms(raw_rtts), speeds, 90.0, "HEALTH RTTs"),
        "health_rtt_p99_ms": common.tail(ms(rtts), ms(raw_rtts), speeds, 99.0, "HEALTH RTTs"),
        "setup_s": setup,
        "peak_rss_mb": Measured(
            phase.rss_mb, "MB", 1,
            note=f"gateway VmHWM after {FIXED_SEGMENTS * config.segment_requests} "
            "timed requests",
        ),
        "modeled_energy_per_image_nj": Measured(
            energy_nj, "nJ", MODELED_REQUESTS, note="scheduled requests, in-process, fixed order",
        ),
        "modeled_deadline_miss_rate": Measured(
            miss_rate, "ratio", MODELED_REQUESTS,
            note="scheduled requests, in-process, fixed order",
        ),
        "paper_error_pct": paper_pct,
    }
    return [], attempted, failed, metrics


def run_traced(workload: str, root: str, seed: int, seconds: float, out_dir: str):
    """Untraced and traced gateways, alternating (ABAB), a quarter each.

    Returns (problems, attempted, failed, per-layer values, report lines).
    """
    config = CONFIGS[workload]
    cpus = common.bench_cpus()
    os.sched_setaffinity(0, {cpus[1]})
    schedule = Schedule(config, seed)
    problems, attempted, failed = [], 0, 0
    plain, traced = [], []
    for turn in range(4):
        spans_prefix = os.path.join(out_dir, f"spans-{workload}-{turn}") if turn % 2 else None
        journal_path = os.path.join(out_dir, f"journal-{turn}.jsonl") if config.journal else None
        gateway = GatewayProcess(root, _gateway_argv(config, journal_path), cpus[0],
                                 spans_path=spans_prefix)
        observed = Observed()
        phase, stats, before, after = _load(gateway, schedule, observed, seconds / 4, cpus, 1,
                                            scrape=spans_prefix is not None)
        problems += _checks(root, config, gateway, stats, observed, journal_path)
        problems += observed.failures[:5]
        if turn < 2:
            # Predictions match on one untraced and one traced gateway.
            problems += _check_predictions(config, schedule, observed)
        attempted += observed.calls
        failed += _failed(observed, stats)
        if spans_prefix is None:
            plain.append(phase)
        else:
            traced.append((phase, observed, spans_prefix, before, after))
    if problems:
        return problems, attempted, failed, {}, []

    plain_rps = statistics.median(rate for phase in plain for rate in _normalised(phase, cpus)[0])
    traced_rps = statistics.median(
        rate for phase, *_ in traced for rate in _normalised(phase, cpus)[0]
    )
    plain_requests = sum(sum(phase.requests) for phase in plain)
    requests = sum(sum(phase.requests) for phase, *_ in traced)
    parts, counts = [], {}
    for phase, observed, spans_prefix, before, after in traced:
        aggregates, meta = spanlib.load(spans_prefix, windows=[phase.window])
        parts.append(aggregates)
        delta = {key: after.get(key, 0.0) - before.get(key, 0.0) for key in after}
        for key, value in {
            "attempts": observed.attempts,
            "calls": len(observed.request_ids),
            "bytes": delta["stats.bytes_received"] + delta["stats.bytes_sent"],
            "traced_cpu_s": phase.gateway_cpu_s,
            "dispatches": delta.get("cluster_drains_total", 0.0),
            "fsyncs": delta.get("stats.journal_fsyncs", 0.0),
            "coalesced": delta.get("cluster_coalesced_requests_total", 0.0),
            "routed": delta.get("cluster_requests_total", 0.0),
            "replayed": delta.get("cluster_replayed_requests_total", 0.0),
            "serve_images": delta.get("serve_images_total", 0.0),
            "serve_batches": delta.get("serve_batches_total", 0.0),
            "cache_hits": delta.get("node_weight_cache_hits_total", 0.0),
            "cache_misses": delta.get("node_weight_cache_misses_total", 0.0),
            **meta["extra"],
        }.items():
            counts[key] = counts.get(key, 0.0) + value
    aggregates = spanlib.merge_aggregates(parts)
    counts.update(
        client_cpu_us=1e6 * sum(phase.client_cpu_s for phase in plain) / plain_requests,
        gateway_cpu_us=1e6 * sum(phase.gateway_cpu_s for phase in plain) / plain_requests,
        untraced_rps=plain_rps,
        traced_rps=traced_rps,
    )
    values = layers.per_layer(aggregates, requests, counts)
    traced_cpu_us = 1e6 * counts["traced_cpu_s"] / requests
    lines = [
        f"traced: {requests} requests on 2 traced gateways, alternating with "
        f"{plain_requests} on 2 untraced",
        f"gateway CPU {traced_cpu_us:.1f} us/request traced "
        f"({values['gateway.cpu_us_per_request']:.1f} untraced); layer self times "
        f"{values['trace.attributed_us_per_request']:.1f}; unattributed "
        f"{values['gateway.unattributed_us_per_request']:.1f}",
        "self time per request by layer: " + ", ".join(
            f"{layer} {1e6 * seconds_ / requests:.1f} us"
            for layer, seconds_ in sorted(spanlib.layer_self_s(aggregates).items())
        ),
        f"tracing overhead: {values['trace.overhead_pct']:.1f} % "
        f"(traced {traced_rps:.0f} vs untraced {plain_rps:.0f} requests/s at reference speed)",
        "absent entry points: " + (", ".join(meta["absent"]) or "none"),
    ]
    return [], attempted, failed, values, lines
