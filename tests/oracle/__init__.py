"""Test-only reference implementations (differential oracles).

Production code never imports this package; the differential suites and
``benchmarks/bench_event_kernel.py`` compare the unified router core
against ``ObjectRouter``, and ``tests/test_conv_oracle.py`` compares the
quantised conv forward against ``quantized_conv_forward``.
"""

from oracle.conv import quantized_conv_forward
from oracle.router import ObjectRouter
from oracle.telemetry import ClusterTelemetry

__all__ = ["ClusterTelemetry", "ObjectRouter", "quantized_conv_forward"]
