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

:meth:`SLAScheduler.choose` is the one ranking: the router prices every
active node from its cached estimates and hands the resulting
``(node, estimate, finish, hazard)`` bundles to it on every placement —
admission and crash/park re-placement alike.  A subclass that overrides
``choose`` is therefore honoured everywhere; only the router's turbo replay
chunks, which inline the stock ranking, require a stock scheduler.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Collection, Dict, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.node import ClusterNode, RequestEstimate
    from repro.cluster.telemetry import ColumnarTelemetry

__all__ = [
    "SLAClass",
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
        (``cluster_requests_total{sla, node}``) rather than here: turbo
        replay chunks rank a stock scheduler's candidates inline, without
        calling :meth:`choose`, so scheduler-side counters would undercount.
        """
        return {
            "hot_threshold": float(self.hot_threshold),
            "max_replicas": float(self.max_replicas),
            "hazard_weight": float(self.hazard_weight),
            "coalesce_affinity": 1.0 if self.coalesce_affinity else 0.0,
        }

    def choose(
        self,
        scored: Sequence[Tuple["ClusterNode", "RequestEstimate", float, float]],
        model_id: str,
        sla: SLAClass,
        arrival_s: float,
        deadline_s: Optional[float],
        pending: Optional[Collection[str]],
        telemetry: "ColumnarTelemetry",
    ) -> tuple:
        """Pick a node for one request; never refuses (worst case: best effort
        placement on the least-bad node, flagged infeasible for telemetry).

        ``scored`` holds one ``(node, estimate, modeled finish, hazard)``
        bundle per active node, in fleet order (never empty).  ``pending``
        holds node ids with *queued* placements of the same model (or is
        ``None``): their weights will be resident by the time this request
        executes behind them (FIFO per node), so they count as replicas —
        both toward the ``max_replicas`` cap (a burst admitted before any
        dispatch must not replicate onto the whole fleet) and as affinity
        candidates.  ``telemetry``'s recent per-model dispatch count
        decides whether the model is hot.

        Returns the router's decision tuple, :class:`PlacementDecision`'s
        fields after ``request_id``: ``(node_id, sla, feasible,
        affinity_hit, replicated, est_start_s, est_finish_s, est_latency_s,
        est_energy_per_image_j, candidates)``.
        """
        hw = self.hazard_weight
        resident = [
            e for e in scored
            if e[1].resident or (pending and e[0].node_id in pending)
        ]
        # Hazard penalty: a binned die's failure hazard multiplies its
        # ranking score, so risky silicon must out-price reliable silicon
        # to win.  Deadline *feasibility* stays physical (raw finish time):
        # hazard shapes preference, not the laws of the delay model.
        if sla is SLAClass.LATENCY:
            # Earliest hazard-weighted modeled finish wins; energy breaks
            # ties so two equally fast nodes prefer the cheaper one.  The
            # penalty weights the request's *latency from arrival* — an
            # absolute clock value would make the same hazard count for
            # more virtual seconds the later in a trace the request arrives.
            feasible = [e for e in scored if e[2] - arrival_s <= deadline_s]
            node, est, finish, _ = min(
                feasible or scored,
                key=lambda e: (
                    (e[2] - arrival_s) * (1.0 + hw * e[3]), e[1].energy_j, e[0].node_id,
                ),
            )
            is_feasible = bool(feasible)
        else:
            # Throughput / best-effort pool.  Cold model (nothing resident
            # or pending): the whole fleet.  Warm and not hot: the resident
            # nodes only (affinity).  Hot and under-replicated: the
            # *non-resident* nodes — the chosen node pays the programming
            # that creates the next replica (a resident node would
            # otherwise always win).  Hot and fully replicated: back to the
            # replicas.
            pool = scored
            if resident:
                spreading = (
                    telemetry.recent_model_dispatches(model_id) >= self.hot_threshold
                    and len(resident) < self.max_replicas
                    and len(resident) < len(scored)
                )
                pool = [e for e in scored if not e[1].resident] if spreading else resident
            # Coalescing affinity: steer mergeable traffic onto the nodes
            # where its model is already queued, so the router's coalescing
            # finds adjacent same-model requests.
            if self.coalesce_affinity and pending:
                pool = [e for e in pool if e[0].node_id in pending] or pool
            if sla is SLAClass.THROUGHPUT:
                # Cheapest hazard-weighted joules per image; finish breaks ties.
                node, est, finish, _ = min(
                    pool,
                    key=lambda e: (
                        e[1].energy_per_image_j * (1.0 + hw * e[3]), e[2], e[0].node_id,
                    ),
                )
            else:  # BEST_EFFORT
                # Shortest hazard-weighted wait from arrival; hazard breaks
                # clear-immediately ties toward the safer die.
                node, est, finish, _ = min(
                    pool,
                    key=lambda e: (
                        (max(e[0].available_s, arrival_s) - arrival_s) * (1.0 + hw * e[3]),
                        e[3],
                        e[0].node_id,
                    ),
                )
            is_feasible = True
        return (
            node.node_id,
            sla,
            is_feasible,
            est.resident,
            bool(resident) and not est.resident,
            max(node.available_s, arrival_s),
            finish,
            est.latency_s,
            est.energy_per_image_j,
            len(scored),
        )
