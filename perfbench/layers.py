"""Per-layer metrics of the traced run, from three sources.

* spans: self and total time per entry point (``spans.aggregate``);
* proc: process CPU time read from ``/proc``;
* scrape: counters from the gateway's METRICS/STATS replies, or from the
  in-process router's ``summary()`` and engine counters on replays.

Every traced run reports every metric below.  A layer the workload's path
never reaches reads 0, and so does a metric whose entry points are all
absent; the run's text report names absent entry points.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import spans

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("client.cpu_us_per_request", "us"),
    ("client.attempts_per_request", "count"),
    ("protocol.decode_us_per_frame", "us"),
    ("protocol.encode_us_per_frame", "us"),
    ("protocol.decode_images_us_per_request", "us"),
    ("protocol.bytes_per_request", "B"),
    ("protocol.self_us_per_request", "us"),
    ("gateway.cpu_us_per_request", "us"),
    ("gateway.unattributed_us_per_request", "us"),
    ("gateway.requests_per_dispatch", "count"),
    ("journal.us_per_request", "us"),
    ("journal.fsyncs_per_1k_requests", "count"),
    ("obs.calls_per_request", "count"),
    ("obs.us_per_request", "us"),
    ("router.submit_us_per_request", "us"),
    ("router.drain_us_per_request", "us"),
    ("router.result_us_per_request", "us"),
    ("router.self_us_per_request", "us"),
    ("router.coalesced_share", "ratio"),
    ("router.replayed_per_1k", "count"),
    ("scheduler.choose_calls_per_request", "count"),
    ("scheduler.choose_us_per_call", "us"),
    ("node.execute_us_per_request", "us"),
    ("node.estimate_us_per_request", "us"),
    ("node.self_us_per_request", "us"),
    ("node.memo_hit_ratio", "ratio"),
    ("serve.images_per_batch", "count"),
    ("serve.drain_us_per_image", "us"),
    ("engine.matmul_us_per_call", "us"),
    ("engine.charge_layers_us_per_call", "us"),
    ("engine.self_us_per_request", "us"),
    ("engine.weight_cache_hit_ratio", "ratio"),
    ("engine.macs_per_image", "count"),
    ("core.cycles_per_image", "count"),
    ("fleet.coordinator_cpu_us_per_request", "us"),
    ("fleet.worker_cpu_us_per_request", "us"),
    ("fleet.await_ms_per_chunk", "ms"),
    ("fleet.sync_ms", "ms"),
    ("fleet.shm_segments_per_1k_requests", "count"),
    ("trace.attributed_us_per_request", "us"),
    ("trace.overhead_pct", "%"),
)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


def _total(aggregates: Dict[str, dict], names: Iterable[str], key: str = "total_s") -> float:
    return sum(aggregates.get(name, {}).get(key, 0.0) for name in names)


def _calls(aggregates: Dict[str, dict], names: Iterable[str]) -> int:
    return sum(aggregates.get(name, {}).get("calls", 0) for name in names)


def _layer_self(aggregates: Dict[str, dict], layer: str) -> float:
    return spans.layer_self_s(aggregates).get(layer, 0.0)


def per_layer(
    aggregates: Dict[str, dict],
    requests: int,
    counts: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced window.

    Args:
        aggregates: Span aggregates (``spans.aggregate``) of every traced
            process, merged.
        requests: Requests completed in the traced window.
        counts: Proc and scrape figures over the same window; missing
            keys read as 0.  CPU costs of the untraced run come per
            request (``client_cpu_us``, ``gateway_cpu_us``,
            ``coordinator_cpu_us``, ``worker_cpu_us``); the rest are totals
            over the traced window: ``attempts``, ``calls``, ``bytes``,
            ``traced_cpu_s`` (the traced gateway's CPU time),
            ``dispatches``, ``fsyncs``, ``coalesced``, ``routed``,
            ``replayed``, ``memo_hits``, ``memo_misses``, ``serve_images``,
            ``serve_batches``, ``cache_hits``, ``cache_misses``,
            ``images``, ``macs``, ``cycles``, ``chunks``, ``sync_s``,
            ``syncs``,
            ``shm_segments``, ``untraced_rps``, ``traced_rps``.
    """
    c = {key: float(value) for key, value in counts.items()}
    get = c.get
    us = 1e6
    obs_names = [name for name in aggregates if name.startswith("obs.")]
    attributed = sum(entry["self_s"] for entry in aggregates.values())
    metrics = {
        "client.cpu_us_per_request": get("client_cpu_us", 0.0),
        "client.attempts_per_request": ratio(get("attempts", 0.0), get("calls", 0.0)),
        "protocol.decode_us_per_frame": us * ratio(
            _total(aggregates, ["protocol.feed"]),
            aggregates.get("protocol.feed", {}).get("yields", 0),
        ),
        "protocol.encode_us_per_frame": us * ratio(
            _total(aggregates, ["protocol.encode_frame"]),
            _calls(aggregates, ["protocol.encode_frame"]),
        ),
        "protocol.decode_images_us_per_request": us * ratio(
            _total(aggregates, ["protocol.decode_images"]), requests
        ),
        "protocol.bytes_per_request": ratio(get("bytes", 0.0), requests),
        "protocol.self_us_per_request": us * ratio(_layer_self(aggregates, "protocol"), requests),
        "gateway.cpu_us_per_request": get("gateway_cpu_us", 0.0),
        "gateway.unattributed_us_per_request": us * ratio(
            get("traced_cpu_s", 0.0) - attributed, requests
        ) if get("traced_cpu_s") else 0.0,
        "gateway.requests_per_dispatch": ratio(requests, get("dispatches", 0.0)),
        "journal.us_per_request": us * ratio(_layer_self(aggregates, "journal"), requests),
        "journal.fsyncs_per_1k_requests": 1e3 * ratio(get("fsyncs", 0.0), requests),
        "obs.calls_per_request": ratio(_calls(aggregates, obs_names), requests),
        "obs.us_per_request": us * ratio(_layer_self(aggregates, "obs"), requests),
        "router.submit_us_per_request": us * ratio(_total(aggregates, ["router.submit"]), requests),
        "router.drain_us_per_request": us * ratio(_total(aggregates, ["router.drain"]), requests),
        "router.result_us_per_request": us * ratio(_total(aggregates, ["router.result"]), requests),
        "router.self_us_per_request": us * ratio(_layer_self(aggregates, "router"), requests),
        "router.coalesced_share": ratio(get("coalesced", 0.0), get("routed", 0.0)),
        "router.replayed_per_1k": 1e3 * ratio(get("replayed", 0.0), get("routed", 0.0)),
        "scheduler.choose_calls_per_request": ratio(
            _calls(aggregates, ["scheduler.choose"]), requests
        ),
        "scheduler.choose_us_per_call": us * ratio(
            _total(aggregates, ["scheduler.choose"]), _calls(aggregates, ["scheduler.choose"])
        ),
        "node.execute_us_per_request": us * ratio(
            _total(aggregates, ["node.execute", "node.execute_group"]), requests
        ),
        "node.estimate_us_per_request": us * ratio(
            _total(aggregates, ["node.estimate_request"]), requests
        ),
        "node.self_us_per_request": us * ratio(_layer_self(aggregates, "node"), requests),
        "node.memo_hit_ratio": ratio(
            get("memo_hits", 0.0), get("memo_hits", 0.0) + get("memo_misses", 0.0)
        ),
        "serve.images_per_batch": ratio(get("serve_images", 0.0), get("serve_batches", 0.0)),
        "serve.drain_us_per_image": us * ratio(
            _total(aggregates, ["serve.drain"]), get("serve_images", 0.0)
        ),
        "engine.matmul_us_per_call": us * ratio(
            _total(aggregates, ["engine.matmul"]), _calls(aggregates, ["engine.matmul"])
        ),
        "engine.charge_layers_us_per_call": us * ratio(
            _total(aggregates, ["engine.charge_layers"]),
            _calls(aggregates, ["engine.charge_layers"]),
        ),
        "engine.self_us_per_request": us * ratio(_layer_self(aggregates, "engine"), requests),
        "engine.weight_cache_hit_ratio": ratio(
            get("cache_hits", 0.0), get("cache_hits", 0.0) + get("cache_misses", 0.0)
        ),
        "engine.macs_per_image": ratio(get("macs", 0.0), get("images", 0.0)),
        "core.cycles_per_image": ratio(get("cycles", 0.0), get("images", 0.0)),
        "fleet.coordinator_cpu_us_per_request": get("coordinator_cpu_us", 0.0),
        "fleet.worker_cpu_us_per_request": get("worker_cpu_us", 0.0),
        "fleet.await_ms_per_chunk": 1e3 * ratio(
            _total(aggregates, ["fleet.replay_trace"], key="self_s"), get("chunks", 0.0)
        ),
        "fleet.sync_ms": 1e3 * ratio(get("sync_s", 0.0), get("syncs", 0.0)),
        "fleet.shm_segments_per_1k_requests": 1e3 * ratio(get("shm_segments", 0.0), requests),
        "trace.attributed_us_per_request": us * ratio(attributed, requests),
        "trace.overhead_pct": 100.0
        * (1.0 - ratio(get("traced_rps", 0.0), get("untraced_rps", 0.0)))
        if get("untraced_rps") else 0.0,
    }
    return metrics
