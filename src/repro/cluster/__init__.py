"""DVFS-aware multi-chip cluster runtime with SLA-class scheduling.

The step above single-engine serving (:mod:`repro.serve`): a fleet of chips
pinned to heterogeneous supply-voltage operating points, a router that
admits SLA-tagged requests, a scheduler that places them DVFS-aware
(deadline feasibility for the latency class, joules per image for the
throughput class) with weight-affinity routing, and a reactive autoscaler
that wakes/parks nodes and retunes operating points from queue-depth and
deadline-miss telemetry.

Trace studies scale to millions of requests through the analytic execution
mode (:class:`ExecutionMode` — exact-charge dispatches via the engine's
``charge_dispatch`` API plus memoised forwards, bit-identical ledgers and
telemetry), the router's columnar discrete-event core (deferred charges,
batch replay chunks) and the vectorized workload generators of
:mod:`repro.cluster.workload` (Poisson / diurnal / burst traces, replayed
in arrival order).

Typical wiring::

    from repro.cluster import ClusterNode, ClusterRouter, SLAClass

    fleet = [
        ClusterNode("fast-0", vdd=1.0, num_macros=8),
        ClusterNode("eco-0", vdd=0.6, num_macros=8),
    ]
    with ClusterRouter(fleet) as router:
        router.register_model("cnn", trained_cnn)
        router.submit("cnn", images, sla=SLAClass.LATENCY, deadline_s=1e-3)
        router.submit("cnn", images, sla=SLAClass.THROUGHPUT)
        results = router.drain()
"""

from repro.cluster.autoscale import ReactiveAutoscaler, ScalingAction
from repro.cluster.node import (
    ClusterNode,
    ExecutionMode,
    ForwardMemo,
    NodeDispatch,
    NodeSpec,
    NodeState,
    RequestEstimate,
    model_weight_codes,
)
from repro.cluster.router import ClusterResult, ClusterRouter
from repro.cluster.scheduler import (
    ClusterRequest,
    NoActiveNodesError,
    PlacementDecision,
    SLAClass,
    SLAScheduler,
)
from repro.cluster.telemetry import ColumnarTelemetry, NodeTelemetry, RequestTrace
from repro.cluster.workload import (
    WorkloadTrace,
    build_image_pool,
    burst_trace,
    diurnal_trace,
    poisson_trace,
    replay,
)

__all__ = [
    "ClusterNode",
    "ClusterRequest",
    "ClusterResult",
    "ClusterRouter",
    "ColumnarTelemetry",
    "ExecutionMode",
    "ForwardMemo",
    "NoActiveNodesError",
    "NodeDispatch",
    "NodeSpec",
    "NodeState",
    "NodeTelemetry",
    "PlacementDecision",
    "ReactiveAutoscaler",
    "RequestEstimate",
    "RequestTrace",
    "SLAClass",
    "SLAScheduler",
    "ScalingAction",
    "WorkloadTrace",
    "build_image_pool",
    "burst_trace",
    "diurnal_trace",
    "model_weight_codes",
    "poisson_trace",
    "replay",
]
