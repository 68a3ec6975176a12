"""Pure helpers shared by every workload: statistics, host speed, pinning.

Nothing here imports ``repro``: the host-speed probe must cost the same on
every commit, and the self-tests exercise these helpers without the
program under test.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Probe speed (probe jobs per second) that every host-time metric is
#: reported at.  It is a fixed constant, close to a 2-vCPU KVM guest's
#: typical reading, so normalised figures stay near the raw ones; only
#: the ratio speed/reference matters to the gate.
REFERENCE_SPEED = 20.0

#: One probe job: interpreter-loop iterations and small numpy matmuls,
#: each about half of a job's ~50 ms.
PROBE_ITERATIONS = 120_000
PROBE_MATMULS = 1_500
PROBE_ROUNDS = 3

#: Percentiles a tail metric may be taken at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

#: The gated end-to-end metrics, in report order (``BENCHMARK.json``).
#: Runs also print ``latency_p99_ms`` and ``health_rtt_p99_ms``: on a
#: shared host their run-to-run spread is wider than any useful bound.
END_TO_END = (
    "requests_per_s",
    "latency_p50_ms",
    "health_rtt_p90_ms",
    "setup_s",
    "peak_rss_mb",
    "modeled_energy_per_image_nj",
    "modeled_deadline_miss_rate",
    "paper_error_pct",
)

#: Environment every spawned process gets: a fixed hash seed and one
#: BLAS/OpenMP thread, so a process stays on the vCPU it is pinned to.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(samples: int, ceiling: float = 99.0) -> Optional[float]:
    """The highest ladder percentile, at most ``ceiling``, with at least
    :data:`TAIL_SAMPLES` samples beyond it; ``None`` when even the median
    lacks them."""
    best = None
    for q in PERCENTILE_LADDER:
        if q > ceiling:
            break
        if samples * (100.0 - q) / 100.0 >= TAIL_SAMPLES - 1e-9:
            best = q
    return best


# ---------------------------------------------------------------------- #
# Host-speed normalisation
# ---------------------------------------------------------------------- #
def at_reference_rate(rate: float, speed: float) -> float:
    """A throughput measured at ``speed``, restated at the reference speed."""
    return rate * REFERENCE_SPEED / speed


def at_reference_time(seconds: float, speed: float) -> float:
    """A duration measured at ``speed``, restated at the reference speed."""
    return seconds * speed / REFERENCE_SPEED


def probe_round() -> float:
    """One fixed CPU job; returns its speed in jobs per second.

    The job mixes interpreter work (integer arithmetic, a dict and a list)
    with small numpy matmuls, as the serving path does: a slowdown of the
    host that hits one kind of work and not the other still shows.
    """
    table: Dict[int, int] = {}
    sink: List[int] = []
    acc = 0
    rng = np.random.default_rng(0)
    left, right = rng.random((48, 64)), rng.random((64, 32))
    started = time.perf_counter()
    for index in range(PROBE_ITERATIONS):
        acc = (acc * 31 + index) & 0xFFFF
        table[acc & 255] = index
        if index & 63 == 0:
            sink.append(acc)
    total = 0.0
    for _ in range(PROBE_MATMULS):
        total += float(np.maximum(left @ right, 0.5).sum())
    return 1.0 / (time.perf_counter() - started)


def probe_cpu(cpu: int, rounds: int = PROBE_ROUNDS) -> float:
    """Median probe speed on one vCPU; the caller's affinity is restored."""
    previous = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        return statistics.median(probe_round() for _ in range(rounds))
    finally:
        os.sched_setaffinity(0, previous)


def probe_all(cpus: Sequence[int]) -> Dict[int, float]:
    """One probe per vCPU, in order."""
    return {cpu: probe_cpu(cpu) for cpu in cpus}


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def bench_cpus() -> List[int]:
    """The two vCPUs the benchmark pins to (the same one twice on 1 CPU)."""
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[0], cpus[1] if len(cpus) > 1 else cpus[0]]


def pin_process(pid: int, cpu: int) -> None:
    """Pin every thread of ``pid`` to one vCPU."""
    try:
        tids = [int(tid) for tid in os.listdir(f"/proc/{pid}/task")]
    except FileNotFoundError:
        tids = [pid]
    for tid in tids:
        try:
            os.sched_setaffinity(tid, {cpu})
        except (ProcessLookupError, PermissionError):
            pass


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # Fields after the command name: utime and stime are the 12th and
    # 13th (overall fields 14 and 15).
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a process in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env(src_dir: str) -> Dict[str, str]:
    """Environment for a spawned process that imports ``repro``."""
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = src_dir
    return env


# ---------------------------------------------------------------------- #
# Metric records
# ---------------------------------------------------------------------- #
class Measured:
    """One reported metric: the value at reference speed plus its evidence.

    ``raw`` is the host reading before normalisation, ``samples`` the
    number of observations the value is a statistic of, and ``speeds``
    the per-vCPU probe readings (median over the run) it was normalised
    with.
    """

    __slots__ = ("value", "unit", "samples", "raw", "speeds", "note")

    def __init__(
        self,
        value: float,
        unit: str,
        samples: int,
        raw: Optional[float] = None,
        speeds: Optional[Dict[int, float]] = None,
        note: str = "",
    ) -> None:
        self.value = float(value)
        self.unit = unit
        self.samples = int(samples)
        self.raw = self.value if raw is None else float(raw)
        self.speeds = dict(speeds or {})
        self.note = note


def tail(values_ms: Sequence[float], raw_ms: Sequence[float], speeds: Dict[int, float],
         ceiling: float, what: str) -> Measured:
    """The ``ceiling`` percentile of a sample, or the highest one below it
    that keeps :data:`TAIL_SAMPLES` samples beyond it."""
    q = tail_percentile(len(values_ms), ceiling)
    if q is None:
        raise RuntimeError(f"{what}: only {len(values_ms)} samples")
    note = f"p{q:g} of {what}" + ("" if q == ceiling else f" (too few samples for p{ceiling:g})")
    return Measured(
        percentile(values_ms, q), "ms", len(values_ms), raw=percentile(raw_ms, q),
        speeds=speeds, note=note,
    )


class SegmentClock:
    """Interleaves host-speed probes with load segments.

    ``between()`` probes every vCPU; a segment's speed on a vCPU is the
    mean of the probes just before and just after it.
    """

    def __init__(self, cpus: Sequence[int]) -> None:
        self.cpus = list(dict.fromkeys(cpus))
        self.probes: List[Dict[int, float]] = []

    def between(self) -> None:
        self.probes.append(probe_all(self.cpus))

    def segment_speed(self, index: int, cpu: int) -> float:
        """Speed on ``cpu`` around segment ``index`` (0-based)."""
        return 0.5 * (self.probes[index][cpu] + self.probes[index + 1][cpu])

    def weighted_speed(self, index: int, cpu_seconds: Sequence[Tuple[int, float]]) -> float:
        """Speed of segment ``index``'s work, spread over vCPUs.

        ``cpu_seconds`` holds ``(vCPU, CPU seconds)`` of each process in
        the segment.  ``t`` CPU seconds at speed ``s`` are ``t * s / ref``
        seconds at the reference speed, so the work as a whole ran at the
        CPU-time-weighted mean ``sum(t * s) / sum(t)``.  Re-normalising the
        same six runs of each two-process workload on a 2-vCPU KVM guest
        this way, instead of by the busier process's vCPU alone, cut the
        run-to-run spread of ``requests_per_s`` from 9-13 % to 7-9 %.
        """
        total = sum(seconds for _, seconds in cpu_seconds)
        if total <= 0.0:
            raise ValueError(f"segment {index} used no CPU time")
        return sum(
            seconds * self.segment_speed(index, cpu) for cpu, seconds in cpu_seconds
        ) / total

    def median_speeds(self) -> Dict[int, float]:
        return {
            cpu: statistics.median(probe[cpu] for probe in self.probes)
            for cpu in self.cpus
        }
