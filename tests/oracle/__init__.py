"""Test-only reference implementations (differential oracles).

Production code never imports this package (``tests/test_documentation.py``
checks that no module under ``src/`` does); the differential suites and
``benchmarks/bench_event_kernel.py`` compare the unified router core
against ``ObjectRouter``, which ranks placements with the frozen
object-form ranking of ``oracle.scheduler`` (``choose`` over one
``ClusterRequest`` per admission), and ``tests/test_conv_oracle.py``
compares the quantised conv forward against ``quantized_conv_forward``.
The scalar oracles sit here too: ``oracle.alu.ReferenceALU``, the golden
ALU every macro operation is checked against, and
``oracle.montecarlo.sample_delays_reference``, the per-sample Monte-Carlo
loop the vectorised delay sampler must match.
"""

from oracle.conv import quantized_conv_forward
from oracle.router import ObjectRouter
from oracle.telemetry import ClusterTelemetry

__all__ = ["ClusterTelemetry", "ObjectRouter", "quantized_conv_forward"]
