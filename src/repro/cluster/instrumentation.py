"""Bridge between the cluster internals and :mod:`repro.obs`.

The design constraint is the ≤5% overhead gate in
``benchmarks/bench_obs_overhead.py``: a 10^5-request columnar replay
finishes in ~4 s, so per-request Python work in the hot path is not
affordable.  Instrumentation therefore has three tiers:

1. **Vectorised folds** — per-request facts (latency, energy, images,
   deadline misses, coalescing, replays) are folded into the registry in
   bulk (:meth:`ClusterInstrumentation.fold_rows`), one numpy pass per
   chunk instead of one Python call per request.  Retained rows are folded
   at scrape time, never on the request path; aggregate-only telemetry
   folds at its flush boundary, just before it drops the rows.
2. **Collectors** — anything readable from live state (queue depth,
   virtual clock, fault log, node cache/residency counters) is pulled
   lazily at scrape time via :meth:`MetricsRegistry.register_collector`,
   costing literally zero in the dispatch path.
3. **Direct hooks** — only genuinely rare events (park/wake transitions,
   autoscaler actions, drains) increment counters inline.

Spans are not part of the fold: the router's settle step emits the
modeled-time span trees of sampled requests (``request_id % sample_every
== 0``) whenever a tracer is attached, with or without a registry.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.cluster.router import ClusterRouter

__all__ = ["ClusterInstrumentation", "attach_cluster_observability"]


def _set_monotonic(sample, value: float) -> None:
    """Drive a counter to an externally-maintained monotonic total.

    Several subsystems already keep their own counters (cache hits, fault
    log length, programmed tiles).  Rather than double-count at every
    call site, collectors reconcile the registry counter to the source of
    truth by incrementing the delta.
    """
    delta = float(value) - sample.value
    if delta > 0:
        sample.inc(delta)


class ClusterInstrumentation:
    """Declares the cluster metric families and performs the folds.

    One instance per :class:`~repro.cluster.router.ClusterRouter`; built
    by :func:`attach_cluster_observability`.  All families live in the
    shared :class:`~repro.obs.MetricsRegistry`, so a gateway scrape and
    an offline study read the same names (documented in
    ``docs/OBSERVABILITY.md``).
    """

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics
        #: Sorted node ids, set by :func:`attach_cluster_observability`.
        #: The fleet is fixed at router construction, so folds can skip
        #: re-deriving the distinct node set from every row chunk.
        self.node_ids: Optional[Tuple[str, ...]] = None

        m = metrics
        self.requests = m.counter(
            "cluster_requests_total",
            "Requests dispatched, by SLA class and serving node.",
            labelnames=("sla", "node"),
        )
        self.images = m.counter(
            "cluster_images_total",
            "Images inferred, by SLA class and serving node.",
            labelnames=("sla", "node"),
        )
        self.energy = m.counter(
            "cluster_energy_joules_total",
            "Modeled inference energy, by SLA class and serving node.",
            labelnames=("sla", "node"),
        )
        self.deadline_misses = m.counter(
            "cluster_deadline_misses_total",
            "Dispatches that finished after their deadline, by SLA class.",
            labelnames=("sla",),
        )
        self.latency = m.histogram(
            "cluster_request_latency_seconds",
            "End-to-end modeled latency (arrival to finish).",
            labelnames=("sla", "node"),
        )
        self.queue_delay = m.histogram(
            "cluster_queue_delay_seconds",
            "Modeled time spent queued before dispatch started.",
        )
        self.coalesced = m.counter(
            "cluster_coalesced_requests_total",
            "Requests served inside a coalesced group of size > 1.",
        )
        self.replayed = m.counter(
            "cluster_replayed_requests_total",
            "Requests whose dispatch was a replay after crash/park.",
        )
        self.folds = m.counter(
            "cluster_telemetry_folds_total",
            "Vectorised telemetry fold passes (admission batches folded).",
        )
        self.transitions = m.counter(
            "cluster_node_transitions_total",
            "Observed node state transitions (park/wake/fail lifecycle).",
            labelnames=("node", "transition"),
        )
        self.faults = m.counter(
            "cluster_fault_events_total",
            "Fault-plan events applied, by kind.",
            labelnames=("kind",),
        )
        self.admitted = m.counter(
            "cluster_admissions_total",
            "Requests admitted by the router (completed + failed + queued).",
        )
        self.drains = m.counter(
            "cluster_drains_total",
            "Router drain calls (queue flushed to completion).",
        )
        self.clock = m.gauge(
            "cluster_virtual_clock_seconds",
            "The router's modeled clock.",
        )
        self.queue_depth = m.gauge(
            "cluster_queue_depth",
            "Requests admitted but not yet dispatched, fleet-wide.",
        )
        self.node_cache_hits = m.counter(
            "node_weight_cache_hits_total",
            "Weight-cache hits on the node's engine.",
            labelnames=("node",),
        )
        self.node_cache_misses = m.counter(
            "node_weight_cache_misses_total",
            "Weight-cache misses (re-programming charged).",
            labelnames=("node",),
        )
        self.node_cache_evictions = m.counter(
            "node_weight_cache_evictions_total",
            "Weight-cache LRU evictions on the node's engine.",
            labelnames=("node",),
        )
        self.node_programmed_tiles = m.counter(
            "node_programmed_tiles_total",
            "Tiles programmed onto the node's arrays (residency generation).",
            labelnames=("node",),
        )
        self.node_resident_layers = m.gauge(
            "node_resident_layers",
            "Layers currently resident in the node's weight cache.",
            labelnames=("node",),
        )
        self.node_active = m.gauge(
            "node_active",
            "1 while the node is ACTIVE, else 0.",
            labelnames=("node",),
        )
        self.node_degrade = m.gauge(
            "node_degrade_factor",
            "Fault-induced service-time multiplier (1.0 = healthy).",
            labelnames=("node",),
        )
        self.scheduler_policy = m.gauge(
            "scheduler_policy",
            "Placement-policy knobs of the router's scheduler "
            "(scrapes are self-describing about the policy in force).",
            labelnames=("param",),
        )
        self.serve_batches = m.counter(
            "serve_batches_total",
            "Activation batches dispatched by the node's per-model server.",
            labelnames=("node", "model"),
        )
        self.serve_images = m.counter(
            "serve_images_total",
            "Images served through the node's per-model server.",
            labelnames=("node", "model"),
        )
        self.serve_pending = m.gauge(
            "serve_pending_images",
            "Images queued on the node's per-model server, not yet dispatched.",
            labelnames=("node", "model"),
        )

    # ------------------------------------------------------------------ #
    # Vectorised folds (tier 1)
    # ------------------------------------------------------------------ #
    def fold_rows(self, rows: Sequence[tuple], energies: Sequence[float]) -> None:
        """Fold settled telemetry rows (18-field tuples) into the registry."""
        if not rows:
            return
        cols = list(zip(*rows))
        arrival = np.asarray(cols[5], dtype=np.float64)
        finish = np.asarray(cols[7], dtype=np.float64)
        sla_arr = np.asarray(cols[3], dtype=object)
        self.fold_columns(
            cols,
            energy=np.asarray(energies, dtype=np.float64),
            images=np.asarray(cols[4], dtype=np.int64),
            arrival=arrival,
            finish=finish,
            latency=finish - arrival,
            missed=np.asarray(cols[10], dtype=bool),
            sla_masks={sla: sla_arr == sla for sla in sorted(set(cols[3]))},
        )

    def fold_columns(
        self,
        cols: List[tuple],
        *,
        energy: np.ndarray,
        images: np.ndarray,
        arrival: np.ndarray,
        finish: np.ndarray,
        latency: np.ndarray,
        missed: np.ndarray,
        sla_masks: Dict[str, np.ndarray],
        coalesced_n: Optional[int] = None,
        replayed_n: Optional[int] = None,
    ) -> None:
        """The fold itself, on pre-transposed columns and shared arrays.

        ``ColumnarTelemetry._flush`` calls this directly with the arrays
        its own aggregate fold computes anyway — every argument here is
        work the bare (uninstrumented) flush already does, so the fold's
        marginal cost is just the grouped ``bincount`` sums below.  The
        per-``(sla, node)`` series are resolved by integer group codes
        and three weighted bincounts instead of a masked fancy-indexing
        pass per pair.
        """
        n = len(cols[0])
        node_col = cols[2]

        start = np.asarray(cols[6], dtype=np.float64)
        self.queue_delay.record_many(start - arrival)
        if coalesced_n is None:
            coalesced_n = n - cols[15].count(1) - cols[15].count(0)
        if coalesced_n:
            self.coalesced.inc(coalesced_n)
        if replayed_n is None:
            replayed_n = n - cols[17].count(False)
        if replayed_n:
            self.replayed.inc(replayed_n)
        self.folds.inc()

        sla_values = list(sla_masks)
        node_values = self.node_ids
        if node_values is None:
            node_values = tuple(sorted(set(node_col)))
        sla_code = np.zeros(n, dtype=np.intp)
        for index, sla in enumerate(sla_values):
            if index:
                sla_code[sla_masks[sla]] = index
        node_code = np.zeros(n, dtype=np.intp)
        if len(node_values) > 1:
            node_arr = np.asarray(node_col, dtype=object)
            for index, node in enumerate(node_values):
                if index:
                    node_code[node_arr == node] = index
        num_nodes = len(node_values)
        group = sla_code * num_nodes + node_code
        num_groups = len(sla_values) * num_nodes
        counts = np.bincount(group, minlength=num_groups)
        image_sums = np.bincount(group, weights=images, minlength=num_groups)
        energy_sums = np.bincount(group, weights=energy, minlength=num_groups)
        miss_counts = np.bincount(sla_code[missed], minlength=len(sla_values))
        for sla_index, sla in enumerate(sla_values):
            if miss_counts[sla_index]:
                self.deadline_misses.labels(sla=sla).inc(int(miss_counts[sla_index]))
            for node_index, node in enumerate(node_values):
                series = sla_index * num_nodes + node_index
                count = int(counts[series])
                if not count:
                    continue
                self.requests.labels(sla=sla, node=node).inc(count)
                self.images.labels(sla=sla, node=node).inc(int(image_sums[series]))
                self.energy.labels(sla=sla, node=node).inc(float(energy_sums[series]))
                self.latency.labels(sla=sla, node=node).record_many(
                    latency[group == series]
                )

    # ------------------------------------------------------------------ #
    # Direct hooks (tier 3)
    # ------------------------------------------------------------------ #
    def node_transition(self, node_id: str, transition: str) -> None:
        """Record a park/wake/fail transition observed by a sync pass."""
        self.transitions.labels(node=node_id, transition=transition).inc()

    # ------------------------------------------------------------------ #
    # Scrape-time collector (tier 2)
    # ------------------------------------------------------------------ #
    def collect(self, router: "ClusterRouter") -> None:
        """Pull live router/node state into the registry (scrape time)."""
        router.telemetry.fold_metrics()
        self.clock.set(router.clock_s)
        self.queue_depth.set(float(router.queue_depth()))
        _set_monotonic(
            self.admitted,
            router.completed_requests + router.failed_requests + router.queue_depth(),
        )
        fault_kinds = _TallyCounter(event.kind.value for event in router.fault_log)
        for kind, count in sorted(fault_kinds.items()):
            _set_monotonic(self.faults.labels(kind=kind), count)
        scheduler = getattr(router, "scheduler", None)
        if scheduler is not None and hasattr(scheduler, "policy"):
            for param, value in scheduler.policy().items():
                self.scheduler_policy.labels(param=param).set(float(value))
        from repro.cluster.node import NodeState

        for node in router.nodes:
            node_id = node.node_id
            cache = node.engine.cache
            _set_monotonic(self.node_cache_hits.labels(node=node_id), cache.hits)
            _set_monotonic(self.node_cache_misses.labels(node=node_id), cache.misses)
            _set_monotonic(
                self.node_cache_evictions.labels(node=node_id), cache.evictions
            )
            _set_monotonic(
                self.node_programmed_tiles.labels(node=node_id),
                node.engine.counters.programmed_tiles,
            )
            self.node_resident_layers.labels(node=node_id).set(
                float(len(node.engine.resident_layer_ids))
            )
            self.node_active.labels(node=node_id).set(
                1.0 if node.state is NodeState.ACTIVE else 0.0
            )
            self.node_degrade.labels(node=node_id).set(float(node.degrade_factor))
            if node.bin is not None:
                # Binned fleets: expose the silicon grade behind each
                # node's series (fields from ChipBin.metric_summary).
                for field, value in node.bin.metric_summary().items():
                    self.metrics.gauge(
                        f"node_bin_{field}",
                        "Binned silicon grade of the node's die "
                        "(see repro.reliability.ChipBin).",
                        labelnames=("node",),
                    ).labels(node=node_id).set(value)
            for model_id in node.model_ids:
                serve = node.server_for(model_id).counters()
                _set_monotonic(
                    self.serve_batches.labels(node=node_id, model=model_id),
                    serve["batches"],
                )
                _set_monotonic(
                    self.serve_images.labels(node=node_id, model=model_id),
                    serve["images_served"],
                )
                self.serve_pending.labels(node=node_id, model=model_id).set(
                    serve["pending_images"]
                )


def attach_cluster_observability(
    router: "ClusterRouter", metrics: MetricsRegistry
) -> ClusterInstrumentation:
    """Wire a router (or a fleet coordinator) into a registry.

    Attaching twice replaces the previous instrumentation object.  The
    registry's virtual clock becomes the router's modeled clock, the
    telemetry folds into the new families, and a scrape-time collector is
    registered.
    """
    instrumentation = ClusterInstrumentation(metrics)
    instrumentation.node_ids = tuple(sorted(node.node_id for node in router.nodes))
    metrics.set_virtual_clock(lambda: router.clock_s)
    router._obs = instrumentation
    router.telemetry.instrumentation = instrumentation
    metrics.register_collector(lambda _registry: instrumentation.collect(router))
    return instrumentation
