"""Test-only reference implementations (differential oracles).

Production code never imports this package; the differential suites and
``benchmarks/bench_event_kernel.py`` compare the unified router core
against it.
"""

from oracle.router import ObjectRouter
from oracle.telemetry import ClusterTelemetry

__all__ = ["ClusterTelemetry", "ObjectRouter"]
