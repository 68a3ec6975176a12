"""Unified observability: metrics registry, tracing, exposition.

``repro.obs`` is the one measurement vocabulary shared by every layer of
the stack — the chip/engine ledgers, the cluster router, the autoscaler,
and the TCP gateway:

* :mod:`repro.obs.registry` — a process-local :class:`MetricsRegistry`
  holding counters, gauges and log-bucketed streaming histograms.  Every
  sample carries **dual timestamps**: the router's modeled (virtual)
  clock and the wall clock, so offline modeled-time studies and live
  gateway serving expose the same metric names with the time base that
  makes sense for each.
* :mod:`repro.obs.tracing` — span-based request lifecycle tracing
  (``gateway.accept → admission → schedule → dispatch → engine.charge →
  response.write``) with deterministic 1-in-N sampling so tracing
  survives :math:`10^6`-request replays.
* :mod:`repro.obs.render` — Prometheus-text and JSON renderers over a
  registry snapshot.
* ``python -m repro.obs`` — tail a live gateway's ``METRICS`` wire frame
  or render a saved registry snapshot into a per-SLA / per-node
  latency+energy report (see ``docs/OBSERVABILITY.md``).

The registry is deliberately dependency-free beyond numpy and adds no
mandatory cost to uninstrumented runs: routers and gateways built
without a registry behave exactly as before, and
``benchmarks/bench_obs_overhead.py`` gates the instrumented path at
<= 5% throughput overhead with bit-identical ledgers.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
)
from repro.obs.render import render_json, render_prometheus
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "render_json",
    "render_prometheus",
]
