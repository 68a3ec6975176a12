"""SLA-class placement: DVFS-aware ranking plus weight-affinity routing.

Every admitted request carries an SLA class, and the class decides what the
scheduler optimises when it places the request on a node:

* ``latency``      — deadline-feasible nodes (modeled backlog + modeled
  request cost must finish inside the deadline) ranked by earliest modeled
  finish; a high-VDD node wins because its cycle time is short.
* ``throughput``   — ranked by modeled energy per image; a low-VDD node wins
  because energy scales as ``(VDD / 0.9)^2`` while deadlines don't bind.
* ``best_effort``  — load-balanced to the node whose backlog clears first.

Weight affinity is not a separate bonus term: a node that does not hold the
model's layers pays the re-programming charge inside its estimate, so
affinity falls out of the same numbers the classes rank by.  On top of that,
the scheduler *restricts* the candidate pool of throughput / best-effort
traffic to resident nodes — until the model's recent dispatch count crosses
``hot_threshold``, at which point the pool flips to the *non-resident*
nodes and the chosen request pays the programming that creates the next
replica (whose LRU cache evicts whatever went coldest to make room).
Spreading stops once ``max_replicas`` nodes hold the model; steady-state
hot traffic then ranks energy-first among the replicas.

Variation-binned fleets (``ClusterNode(bin=...)``) add one more signal:
each die's binned *failure hazard* multiplies its ranking score by
``1 + hazard_weight * hazard``, so risky silicon must out-price reliable
silicon to win a placement.  Bin *speed* needs no extra term — a slow
die's derated cycle time already prices every estimate the classes rank
by, the same way re-programming charges price affinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import ClusterNode, NodeState, RequestEstimate
from repro.cluster.telemetry import ColumnarTelemetry
from repro.errors import ConfigurationError

__all__ = [
    "SLAClass",
    "ClusterRequest",
    "NoActiveNodesError",
    "PlacementDecision",
    "SLAScheduler",
]


class NoActiveNodesError(ConfigurationError):
    """No node is in rotation to price a request against.

    A distinct type so the router can tell a *capacity* outage (which may
    legitimately strand an admission during fault injection) from request
    validation errors, which must always propagate to the caller.
    """


class SLAClass(enum.Enum):
    """Service classes the router admits."""

    LATENCY = "latency"
    THROUGHPUT = "throughput"
    BEST_EFFORT = "best_effort"


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


@dataclass(frozen=True)
class PlacementDecision:
    """Where a request was placed and what the scheduler believed about it."""

    request_id: int
    node_id: str
    sla: SLAClass
    feasible: bool
    affinity_hit: bool
    replicated: bool
    est_start_s: float
    est_finish_s: float
    est_latency_s: float
    est_energy_per_image_j: float
    candidates: int


class SLAScheduler:
    """Rank candidate nodes per SLA class from modeled cost estimates.

    ``hot_threshold`` is the recent-dispatch count (inside the telemetry
    window) beyond which a model counts as *hot* and its throughput /
    best-effort traffic may leave the resident-node pool to replicate.
    ``max_replicas`` caps how many nodes a hot model spreads onto: once
    that many hold its weights, throughput / best-effort traffic returns to
    ranking among the replicas instead of programming ever more copies.
    """

    def __init__(
        self,
        hot_threshold: int = 6,
        max_replicas: int = 2,
        coalesce_affinity: bool = False,
        hazard_weight: float = 1.0,
    ) -> None:
        if hot_threshold <= 0:
            raise ConfigurationError("hot_threshold must be positive")
        if max_replicas <= 0:
            raise ConfigurationError("max_replicas must be positive")
        if hazard_weight < 0:
            raise ConfigurationError("hazard_weight must be non-negative")
        self.hot_threshold = hot_threshold
        self.max_replicas = max_replicas
        #: How strongly a node's binned failure hazard penalises its ranking
        #: score (``score * (1 + hazard_weight * hazard)``).  Bin speed needs
        #: no extra term — a slow die's derated cycle time already prices
        #: every estimate — but hazard is invisible to the cost models, so
        #: it enters here.  Nominal (un-binned) nodes have hazard 0.0 and
        #: rank exactly as before.
        self.hazard_weight = hazard_weight
        #: Prefer nodes that already hold queued work of the same model for
        #: throughput / best-effort traffic, so a coalescing router
        #: (``ClusterRouter(coalesce=True)``) finds mergeable neighbours at
        #: the queue head instead of spreading mergeable requests thin.
        self.coalesce_affinity = coalesce_affinity

    def policy(self) -> Dict[str, float]:
        """The placement-policy knobs as numbers, for metric exposition.

        Published by the cluster's scrape-time collector as the
        ``scheduler_policy{param}`` gauge family, so every scrape is
        self-describing about the policy that produced its placement
        counters (see ``docs/OBSERVABILITY.md``).  Per-placement series
        deliberately live on the fold side
        (``cluster_requests_total{sla, node}``) rather than here: the
        router ranks a stock scheduler's candidates inline, without calling
        :meth:`choose`, so scheduler-side counters would undercount.
        """
        return {
            "hot_threshold": float(self.hot_threshold),
            "max_replicas": float(self.max_replicas),
            "hazard_weight": float(self.hazard_weight),
            "coalesce_affinity": 1.0 if self.coalesce_affinity else 0.0,
        }

    # ------------------------------------------------------------------ #
    # Pool construction
    # ------------------------------------------------------------------ #
    def _scored(
        self, request: ClusterRequest, nodes: Sequence[ClusterNode]
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

    def is_hot(self, model_id: str, telemetry: ColumnarTelemetry) -> bool:
        """Whether a model's recent traffic justifies replication."""
        return telemetry.recent_model_dispatches(model_id) >= self.hot_threshold

    def _replication_pool(self, scored, resident, hot):
        """Candidate pool for throughput / best-effort traffic.

        ``resident`` here includes pending placements (see :meth:`choose`).
        Cold model (nothing resident): the whole fleet — the first dispatch
        programs the weights wherever the class ranking prefers.  Warm and
        not hot: the resident nodes only (affinity).  Hot and
        under-replicated: the *non-resident* nodes — the chosen node pays
        the programming charge that creates the next replica (a resident
        node would otherwise always win the ranking and replication would
        never happen).  Hot and fully replicated: back to the replicas.
        """
        if not resident:
            return scored
        spreading = (
            hot
            and len(resident) < self.max_replicas
            and len(resident) < len(scored)
        )
        if spreading:
            return [entry for entry in scored if not entry[1].resident]
        return resident

    def _coalesce_pool(self, pool, pending):
        """Restrict a pool to nodes with queued same-model work (if any).

        Only active when ``coalesce_affinity`` is set: steering mergeable
        traffic onto the nodes where its model is already queued is what
        lets the router's cross-request coalescing actually find adjacent
        same-model requests.  Latency traffic is never steered — deadline
        feasibility outranks batching efficiency.
        """
        if not self.coalesce_affinity or not pending:
            return pool
        mergeable = [entry for entry in pool if entry[0].node_id in pending]
        return mergeable if mergeable else pool

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def choose(
        self,
        request: ClusterRequest,
        nodes: Sequence[ClusterNode],
        telemetry: ColumnarTelemetry,
        pending: Optional[frozenset] = None,
    ) -> PlacementDecision:
        """Pick a node for one request; never refuses (worst case: best effort
        placement on the least-bad node, flagged infeasible for telemetry).

        ``pending`` holds node ids with *queued* placements of the same
        model: their weights will be resident by the time this request
        executes behind them (FIFO per node), so they count as replicas —
        both toward the ``max_replicas`` cap (a burst admitted before any
        dispatch must not replicate onto the whole fleet) and as affinity
        candidates.
        """
        pending = pending if pending is not None else frozenset()
        scored = self._scored(request, nodes)
        resident = [
            entry
            for entry in scored
            if entry[1].resident or entry[0].node_id in pending
        ]
        hot = self.is_hot(request.model_id, telemetry)

        # Hazard penalty: a binned die's failure hazard multiplies its
        # ranking score, so risky silicon must out-price reliable silicon
        # to win.  Deadline *feasibility* stays physical (raw finish time):
        # hazard shapes preference, not the laws of the delay model.
        def risk(entry) -> float:
            return 1.0 + self.hazard_weight * entry[0].hazard

        if request.sla is SLAClass.LATENCY:
            if request.deadline_s is None:
                raise ConfigurationError("latency-class requests need a deadline_s")
            feasible = [
                entry
                for entry in scored
                if entry[2] - request.arrival_s <= request.deadline_s
            ]
            pool = feasible if feasible else scored
            # Earliest hazard-weighted modeled finish wins; energy breaks
            # ties so two equally fast nodes prefer the cheaper one.  The
            # penalty weights the request's *latency from arrival* — an
            # absolute clock value would make the same hazard count for
            # more virtual seconds the later in a trace the request
            # arrives (subtracting the shared arrival leaves the
            # hazard-free ordering untouched).
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
            pool = self._replication_pool(scored, resident, hot)
            pool = self._coalesce_pool(pool, pending)
            # Cheapest hazard-weighted joules per image wins; finish time
            # breaks ties.  A spreading pool is all non-resident nodes
            # (this request pays the programming that creates the replica);
            # once max_replicas hold the model the ranking returns to
            # energy-first among the replicas, so sustained batch traffic
            # keeps the low-VDD dividend.
            node, estimate, finish = min(
                pool,
                key=lambda e: (e[1].energy_per_image_j * risk(e), e[2], e[0].node_id),
            )
            is_feasible = True
        else:  # BEST_EFFORT
            # Same replication discipline, ranked by backlog instead: the
            # hazard penalty weights the modeled *wait from arrival* (not
            # the absolute clock), and also breaks clear-immediately ties
            # toward the safer die.
            node, estimate, finish = min(
                self._coalesce_pool(self._replication_pool(scored, resident, hot), pending),
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
