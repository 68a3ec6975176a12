"""The metrics registry: counters, gauges, log-bucketed histograms.

Design constraints, in order:

* **O(1) record.**  Counters and gauges are one attribute update;
  histograms bucket by ``floor(log2(v) * buckets_per_octave)`` — an
  HDR-histogram-style geometric grid with ~9% relative bucket width at
  the default 8 buckets per octave.  Hot paths additionally get
  vectorised batch entry points (:meth:`Histogram.record_many`,
  :meth:`Counter.inc` with an amount) so the cluster router folds a
  whole dispatch chunk per call.
* **Mergeable.**  Two histograms with the same grid merge by adding
  sparse bucket counts — associative and commutative, so multi-process
  fleets can combine per-worker registries in any order and read the
  same quantiles (the hypothesis property in ``tests/test_obs.py`` pins
  this).  :meth:`MetricsRegistry.merge_snapshot` folds a whole saved
  snapshot into a live registry.
* **Dual timestamps.**  Every sample carries ``virtual_s`` (the router's
  modeled clock, read through the registry's ``virtual_clock`` callable)
  and ``wall_s`` (``time.time()``), stamped on update.  Modeled-time
  studies and live serving share one vocabulary; consumers pick the
  time base that is meaningful for their run.

Naming conventions (normative; see ``docs/OBSERVABILITY.md``): metric
names are ``<subsystem>_<quantity>[_<unit>][_total]`` in snake_case —
``_total`` for counters, an SI unit suffix (``_seconds``, ``_joules``,
``_bytes``) wherever a unit exists, and label names from the closed
vocabulary ``sla`` / ``node`` / ``model`` / ``kind`` / ``action``.
"""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["MetricError", "Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Snapshot schema identifier stamped into every serialised registry.
SNAPSHOT_SCHEMA = "repro.obs/1"


class MetricError(ValueError):
    """Invalid metric usage: bad name, label mismatch, NaN sample."""


def _validate_labels(
    labelnames: Tuple[str, ...], labels: Dict[str, object]
) -> Tuple[str, ...]:
    """Return the child key for ``labels``; raise on a mismatch."""
    if set(labels) != set(labelnames):
        raise MetricError(
            f"labels {sorted(labels)} do not match declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Sample:
    """Shared bookkeeping of one labelled time series (a metric child)."""

    __slots__ = ("labels", "virtual_s", "wall_s", "_clock")

    def __init__(
        self, labels: Dict[str, str], clock: Callable[[], Optional[float]]
    ) -> None:
        self.labels = labels
        #: Modeled-clock time of the last update (None before the first
        #: update or when no virtual clock is attached).
        self.virtual_s: Optional[float] = None
        #: Wall-clock time of the last update.
        self.wall_s: Optional[float] = None
        self._clock = clock

    def _stamp(self) -> None:
        self.virtual_s = self._clock()
        self.wall_s = time.time()


class Counter(_Sample):
    """A monotonically *intended* cumulative count.

    ``inc`` accepts any float amount; the gateway's zero-loss accounting
    occasionally takes a count back (a response staged for a peer that
    vanished), so negative increments are tolerated rather than raising.
    """

    __slots__ = ("value",)

    def __init__(self, labels, clock) -> None:
        super().__init__(labels, clock)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (NaN is rejected; negative is tolerated)."""
        if amount != amount:  # NaN
            raise MetricError("counter increment must not be NaN")
        self.value += amount
        self._stamp()

    def to_dict(self) -> dict:
        return {"value": self.value}

    def merge_dict(self, data: dict) -> None:
        self.value += float(data["value"])
        self._stamp()


class Gauge(_Sample):
    """A point-in-time value (queue depth, EMA, residency generation)."""

    __slots__ = ("value",)

    def __init__(self, labels, clock) -> None:
        super().__init__(labels, clock)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge's value (NaN is rejected)."""
        if value != value:  # NaN
            raise MetricError("gauge value must not be NaN")
        self.value = float(value)
        self._stamp()

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount``."""
        self.set(self.value + amount)

    def to_dict(self) -> dict:
        return {"value": self.value}

    def merge_dict(self, data: dict) -> None:
        # Gauges are point-in-time: a merged snapshot overwrites.
        self.value = float(data["value"])
        self._stamp()


class Histogram(_Sample):
    """Log-bucketed streaming histogram (HDR-style, sparse, mergeable).

    Bucket ``i`` covers values in ``(2**(i/k), 2**((i+1)/k)]`` where
    ``k = buckets_per_octave``; exact zeros get their own counter and
    negative or NaN samples are rejected (latency / energy / bytes are
    the domain).  Recording is O(1): one ``log2``, one dict update.

    Quantiles are read from the bucket grid (upper bucket edge, clamped
    to the observed min/max), so they depend only on the merged multiset
    of bucket counts — merge order can never change a quantile.
    """

    __slots__ = ("buckets_per_octave", "buckets", "zero_count", "count", "sum", "min", "max")

    def __init__(self, labels, clock, buckets_per_octave: int = 8) -> None:
        super().__init__(labels, clock)
        if buckets_per_octave < 1:
            raise MetricError("buckets_per_octave must be >= 1")
        self.buckets_per_octave = buckets_per_octave
        #: Sparse bucket counts keyed by integer bucket index.
        self.buckets: Dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _index(self, value: float) -> int:
        return math.floor(math.log2(value) * self.buckets_per_octave)

    def record(self, value: float) -> None:
        """Fold one sample in (O(1)).

        Raises:
            MetricError: On a NaN or negative sample.
        """
        if value != value:  # NaN
            raise MetricError("histogram sample must not be NaN")
        if value < 0.0:
            raise MetricError(f"histogram sample must be >= 0, got {value}")
        if value == 0.0:
            self.zero_count += 1
        else:
            index = self._index(value)
            self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._stamp()

    def record_many(self, values) -> None:
        """Fold a batch of samples in one vectorised pass.

        The cluster fold's entry point: bucket indexes and
        their multiplicities come from ``np.unique`` over the whole
        chunk, so the per-sample Python cost is zero.

        Raises:
            MetricError: If any sample is NaN or negative.
        """
        array = np.asarray(values, dtype=np.float64)
        if array.size == 0:
            return
        if np.isnan(array).any():
            raise MetricError("histogram sample must not be NaN")
        if (array < 0.0).any():
            raise MetricError("histogram sample must be >= 0")
        positive = array[array > 0.0]
        if positive.size:
            indexes = np.floor(
                np.log2(positive) * self.buckets_per_octave
            ).astype(np.int64)
            unique, counts = np.unique(indexes, return_counts=True)
            buckets = self.buckets
            for index, n in zip(unique.tolist(), counts.tolist()):
                buckets[index] = buckets.get(index, 0) + n
        self.zero_count += int(array.size - positive.size)
        self.count += int(array.size)
        self.sum += float(array.sum())
        self.min = min(self.min, float(array.min()))
        self.max = max(self.max, float(array.max()))
        self._stamp()

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #
    def _edge(self, index: int) -> float:
        """Upper value edge of bucket ``index``."""
        return 2.0 ** ((index + 1) / self.buckets_per_octave)

    def quantile(self, q: float) -> float:
        """The ``q``-quantile read off the bucket grid.

        Deterministic in the bucket counts alone (merge-order
        invariant); 0.0 on an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = self.zero_count
        if cumulative >= target:
            return 0.0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                return float(min(max(self._edge(index), self.min), self.max))
        return float(self.max)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all recorded samples (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (associative, commutative).

        Raises:
            MetricError: When the bucket grids differ.
        """
        if other.buckets_per_octave != self.buckets_per_octave:
            raise MetricError(
                "cannot merge histograms with different bucket grids "
                f"({self.buckets_per_octave} vs {other.buckets_per_octave} "
                "buckets per octave)"
            )
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        self._stamp()

    def to_dict(self) -> dict:
        return {
            "buckets_per_octave": self.buckets_per_octave,
            "buckets": {str(index): n for index, n in self.buckets.items()},
            "zero_count": self.zero_count,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }

    def merge_dict(self, data: dict) -> None:
        """Fold a serialised histogram sample (snapshot merge path)."""
        other = Histogram(self.labels, self._clock, int(data["buckets_per_octave"]))
        other.buckets = {int(index): int(n) for index, n in data["buckets"].items()}
        other.zero_count = int(data["zero_count"])
        other.count = int(data["count"])
        other.sum = float(data["sum"])
        other.min = math.inf if data.get("min") is None else float(data["min"])
        other.max = -math.inf if data.get("max") is None else float(data["max"])
        self.merge(other)


#: Metric constructor by kind name (the snapshot round-trip table).
_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and all of its labelled children.

    Families with no declared label names behave as a single series:
    ``family.inc()`` / ``family.set()`` / ``family.record()`` delegate
    to the implicit unlabelled child.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        labelnames: Tuple[str, ...],
        clock: Callable[[], Optional[float]],
        **options,
    ) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.labelnames = labelnames
        self._clock = clock
        self._options = options
        self._children: Dict[Tuple[str, ...], _Sample] = {}
        self._lock = threading.Lock()

    def labels(self, **labels):
        """The child series for one label combination (created lazily)."""
        key = _validate_labels(self.labelnames, labels)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _KINDS[self.kind](
                        dict(zip(self.labelnames, key)), self._clock, **self._options
                    )
                    self._children[key] = child
        return child

    def _default(self):
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()

    # Unlabelled conveniences ------------------------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def record(self, value: float) -> None:
        self._default().record(value)

    def record_many(self, values) -> None:
        self._default().record_many(values)

    @property
    def value(self) -> float:
        return self._default().value

    def samples(self) -> List[_Sample]:
        """Every live child, in insertion order."""
        return list(self._children.values())

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "samples": [
                {
                    "labels": child.labels,
                    "virtual_s": child.virtual_s,
                    "wall_s": child.wall_s,
                    **child.to_dict(),
                }
                for child in self._children.values()
            ],
        }


class MetricsRegistry:
    """The process-local home of every metric family.

    Args:
        virtual_clock: Zero-argument callable returning the modeled-time
            seconds to stamp on samples (a router's ``clock_s``); absent,
            samples carry ``virtual_s = None``.  Attach one later with
            :meth:`set_virtual_clock` (the router does this when a
            registry is handed to it).
    """

    def __init__(
        self, virtual_clock: Optional[Callable[[], float]] = None
    ) -> None:
        self._virtual_clock = virtual_clock
        self._families: Dict[str, MetricFamily] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Clocks
    # -------------------------------------------------------------- #
    def set_virtual_clock(self, clock: Optional[Callable[[], float]]) -> None:
        """Attach (or detach) the modeled-time clock samples stamp."""
        self._virtual_clock = clock

    def _read_clock(self) -> Optional[float]:
        return self._virtual_clock() if self._virtual_clock is not None else None

    # -------------------------------------------------------------- #
    # Declaration
    # -------------------------------------------------------------- #
    def _declare(
        self, name: str, kind: str, help: str, labelnames: Sequence[str], **options
    ) -> MetricFamily:
        if not name or not name.replace("_", "").isalnum():
            raise MetricError(f"invalid metric name {name!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help, tuple(labelnames), self._read_clock, **options
                )
                self._families[name] = family
                return family
        if family.kind != kind or family.labelnames != tuple(labelnames):
            raise MetricError(
                f"metric {name!r} already declared as {family.kind} with "
                f"labels {family.labelnames}"
            )
        return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a counter family."""
        return self._declare(name, "counter", help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> MetricFamily:
        """Declare (or fetch) a gauge family."""
        return self._declare(name, "gauge", help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets_per_octave: int = 8,
    ) -> MetricFamily:
        """Declare (or fetch) a log-bucketed histogram family."""
        return self._declare(
            name, "histogram", help, labelnames, buckets_per_octave=buckets_per_octave
        )

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or None."""
        return self._families.get(name)

    def families(self) -> Iterable[MetricFamily]:
        """Every registered family, in declaration order."""
        return list(self._families.values())

    # -------------------------------------------------------------- #
    # Collectors
    # -------------------------------------------------------------- #
    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Run ``collector(self)`` at every snapshot.

        Collectors keep hot paths free: subsystems whose state is cheap
        to read but expensive to stream (node cache counters, residency
        generations, queue depths) publish via a collector instead of
        per-event updates.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        """Run every registered collector once."""
        for collector in self._collectors:
            collector(self)

    # -------------------------------------------------------------- #
    # Snapshot / merge
    # -------------------------------------------------------------- #
    def snapshot(self) -> dict:
        """Collect and serialise the whole registry (JSON-safe).

        The snapshot carries the registry-level dual timestamp pair plus
        every family with all of its labelled samples (each sample again
        stamped with its own last-update ``virtual_s`` / ``wall_s``).
        """
        self.collect()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "virtual_time_s": self._read_clock(),
            "wall_time_s": time.time(),
            "metrics": {
                name: family.to_dict() for name, family in self._families.items()
            },
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a serialised snapshot into this registry.

        Counters and histograms add; gauges overwrite (point-in-time).
        Families absent here are declared from the snapshot's metadata,
        so merging into an empty registry reconstructs the original.

        Raises:
            MetricError: On a schema mismatch or incompatible families.
        """
        if snapshot.get("schema") != SNAPSHOT_SCHEMA:
            raise MetricError(
                f"snapshot schema {snapshot.get('schema')!r} is not "
                f"{SNAPSHOT_SCHEMA!r}"
            )
        for name, data in snapshot["metrics"].items():
            options = {}
            if data["kind"] == "histogram" and data["samples"]:
                options["buckets_per_octave"] = int(
                    data["samples"][0]["buckets_per_octave"]
                )
            family = self._declare(
                name, data["kind"], data["help"], tuple(data["labelnames"]), **options
            )
            for sample in data["samples"]:
                family.labels(**sample["labels"]).merge_dict(sample)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """Reconstruct a registry from a serialised snapshot."""
        registry = cls()
        registry.merge_snapshot(snapshot)
        return registry

    def merge_snapshots(self, snapshots: Iterable[dict]) -> None:
        """Fold several serialised snapshots into this registry, in order.

        The cross-process convenience around :meth:`merge_snapshot`: a
        fleet coordinator collects one snapshot per worker at a sync
        barrier and folds them in stable worker-rank order.  Because
        counters and histograms *add* and each call is itself
        order-invariant over disjoint label sets, the merged counter and
        histogram totals do not depend on the iteration order — only
        gauge last-writer-wins ties do, which the stable rank ordering
        makes deterministic too.
        """
        for snapshot in snapshots:
            self.merge_snapshot(snapshot)
