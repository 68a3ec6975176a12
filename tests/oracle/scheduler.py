"""The frozen object-form placement ranking: the scheduler's differential oracle.

This is :meth:`repro.cluster.scheduler.SLAScheduler.choose` as it was
before the router and the scheduler shared one ranking over cached
estimate bundles: one :class:`ClusterRequest` per admission, a fresh
``node.estimate_request`` per candidate, and the pool helpers spelled out.
It reads only the scheduler's policy knobs (``hot_threshold``,
``max_replicas``, ``coalesce_affinity``, ``hazard_weight``), so
:class:`oracle.router.ObjectRouter` checks the core's ranking against an
independent implementation of the same policy.  No production path uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import ClusterNode, NodeState, RequestEstimate
from repro.cluster.scheduler import (
    NoActiveNodesError,
    PlacementDecision,
    SLAClass,
    SLAScheduler,
)
from repro.errors import ConfigurationError

__all__ = ["ClusterRequest", "choose"]


@dataclass(frozen=True)
class ClusterRequest:
    """One admitted request, tagged with its SLA class."""

    request_id: int
    model_id: str
    images: np.ndarray
    sla: SLAClass
    arrival_s: float
    deadline_s: Optional[float] = None
    #: Optional caller-supplied identity of the images (see
    #: :meth:`repro.cluster.node.ClusterNode.execute`); the analytic
    #: execution mode memoises numeric forwards by it.
    input_digest: Optional[str] = None

    @property
    def image_count(self) -> int:
        """Images in the request."""
        return int(self.images.shape[0])


def _scored(
    request: ClusterRequest, nodes: Sequence[ClusterNode]
) -> List[Tuple[ClusterNode, RequestEstimate, float]]:
    """(node, estimate, modeled finish time) for every active node."""
    scored = []
    for node in nodes:
        if node.state is not NodeState.ACTIVE:
            continue
        estimate = node.estimate_request(request.model_id, request.images)
        start = max(node.available_s, request.arrival_s)
        scored.append((node, estimate, start + estimate.latency_s))
    if not scored:
        raise NoActiveNodesError(
            "no active nodes: wake a parked node before submitting"
        )
    return scored


def _is_hot(policy: SLAScheduler, model_id: str, telemetry) -> bool:
    """Whether a model's recent traffic justifies replication."""
    return telemetry.recent_model_dispatches(model_id) >= policy.hot_threshold


def _replication_pool(policy: SLAScheduler, scored, resident, hot):
    """Candidate pool for throughput / best-effort traffic.

    ``resident`` here includes pending placements (see :func:`choose`).
    Cold model (nothing resident): the whole fleet.  Warm and not hot: the
    resident nodes only (affinity).  Hot and under-replicated: the
    *non-resident* nodes.  Hot and fully replicated: back to the replicas.
    """
    if not resident:
        return scored
    spreading = (
        hot
        and len(resident) < policy.max_replicas
        and len(resident) < len(scored)
    )
    if spreading:
        return [entry for entry in scored if not entry[1].resident]
    return resident


def _coalesce_pool(policy: SLAScheduler, pool, pending):
    """Restrict a pool to nodes with queued same-model work (if any)."""
    if not policy.coalesce_affinity or not pending:
        return pool
    mergeable = [entry for entry in pool if entry[0].node_id in pending]
    return mergeable if mergeable else pool


def choose(
    policy: SLAScheduler,
    request: ClusterRequest,
    nodes: Sequence[ClusterNode],
    telemetry,
    pending: Optional[frozenset] = None,
) -> PlacementDecision:
    """Pick a node for one request under ``policy``'s knobs; never refuses.

    ``pending`` holds node ids with *queued* placements of the same model:
    they count as replicas, both toward the ``max_replicas`` cap and as
    affinity candidates.
    """
    pending = pending if pending is not None else frozenset()
    scored = _scored(request, nodes)
    resident = [
        entry
        for entry in scored
        if entry[1].resident or entry[0].node_id in pending
    ]
    hot = _is_hot(policy, request.model_id, telemetry)

    def risk(entry) -> float:
        return 1.0 + policy.hazard_weight * entry[0].hazard

    if request.sla is SLAClass.LATENCY:
        if request.deadline_s is None:
            raise ConfigurationError("latency-class requests need a deadline_s")
        feasible = [
            entry
            for entry in scored
            if entry[2] - request.arrival_s <= request.deadline_s
        ]
        pool = feasible if feasible else scored
        node, estimate, finish = min(
            pool,
            key=lambda e: (
                (e[2] - request.arrival_s) * risk(e),
                e[1].energy_j,
                e[0].node_id,
            ),
        )
        is_feasible = bool(feasible)
    elif request.sla is SLAClass.THROUGHPUT:
        pool = _replication_pool(policy, scored, resident, hot)
        pool = _coalesce_pool(policy, pool, pending)
        node, estimate, finish = min(
            pool,
            key=lambda e: (e[1].energy_per_image_j * risk(e), e[2], e[0].node_id),
        )
        is_feasible = True
    else:  # BEST_EFFORT
        node, estimate, finish = min(
            _coalesce_pool(
                policy, _replication_pool(policy, scored, resident, hot), pending
            ),
            key=lambda e: (
                (max(e[0].available_s, request.arrival_s) - request.arrival_s)
                * risk(e),
                e[0].hazard,
                e[0].node_id,
            ),
        )
        is_feasible = True

    return PlacementDecision(
        request_id=request.request_id,
        node_id=node.node_id,
        sla=request.sla,
        feasible=is_feasible,
        affinity_hit=estimate.resident,
        replicated=bool(resident) and not estimate.resident,
        est_start_s=max(node.available_s, request.arrival_s),
        est_finish_s=finish,
        est_latency_s=estimate.latency_s,
        est_energy_per_image_j=estimate.energy_per_image_j,
        candidates=len(scored),
    )
