"""The cluster front door: admission, placement, dispatch, accounting.

:class:`ClusterRouter` owns a fleet of :class:`~repro.cluster.node.ClusterNode`
instances at heterogeneous supply-voltage operating points and runs the
serving loop in *modeled (virtual) time*:

* :meth:`~ClusterRouter.submit` admits a request tagged with an SLA class,
  places it (:meth:`~repro.cluster.scheduler.SLAScheduler.choose` ranks the
  router's cached per-node estimate bundles — the one ranking every
  placement and crash/park re-placement goes through) and *reserves* the
  node's virtual clock by the request's modeled cost — so the next
  placement sees the backlog it would queue behind;
* :meth:`~ClusterRouter.dispatch_next` / :meth:`~ClusterRouter.drain`
  execute queued requests in earliest-start order, advance each node's
  completion clock by the *measured* modeled compute time, and record one
  telemetry row per request with its deadline outcome;
* :meth:`~ClusterRouter.ledger` merges every node's lifetime ledger into
  one cluster ledger — by construction the sum of its parts.

Virtual time makes the whole control loop deterministic: the same workload
on the same fleet always produces the same placements, latencies, joules
and deadline outcomes, so scheduling behaviour is testable down to
equality.  With a ``fault_plan`` (:class:`repro.reliability.faults.FaultPlan`)
the router also injects scripted crash/stall/degrade/recovery events on the
same clock; a dead node's queued requests are *replayed* onto survivors
(flagged ``replayed``), and a whole-fleet outage strands admissions until a
scripted recovery, so request conservation holds across any crash window.

The router is one discrete-event kernel built for million-request traces:

* requests, placements and queue entries are plain tuples, telemetry is
  columnar (:class:`~repro.cluster.telemetry.ColumnarTelemetry`), and head
  selection runs on a lazily invalidated heap of per-node earliest-start
  candidates;
* warm analytic dispatches are charged through deferred slice signatures
  (:mod:`repro.cluster.kernel`) and settled in bulk — unless callers read
  results back after every drain (the gateway's pattern), where the router
  charges each dispatch directly because a flush per small drain costs more
  than it saves;
* :meth:`~ClusterRouter.replay_trace` is the one trace-replay loop: it
  admits and drains a workload trace in bounded chunks, and runs
  steady-state chunks of an aggregate-only replay as one batch admission +
  dispatch pass (turbo).

Anything the fast paths cannot replicate bit-exactly — cold programming,
EXACT mode, a scheduler subclass (turbo inlines the stock ranking),
execution failures — falls back to the plain per-request node and
scheduler calls.  ``tests/oracle/`` keeps a frozen
per-request object router as the differential reference every path is
checked against.  Direct node-level reads (``node.ledger()`` mid-run) may
observe deferred charges; any router-level read settles first.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from itertools import repeat
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.kernel import ChargeBuffer, DispatchSig, NodeCache, SliceSig, flush_charges
from repro.cluster.node import ClusterNode, ExecutionMode, NodeState
from repro.cluster.scheduler import (
    NoActiveNodesError,
    PlacementDecision,
    SLAClass,
    SLAScheduler,
)
from repro.cluster.telemetry import ColumnarTelemetry, RequestTrace
from repro.cluster.workload import SLA_ORDER
from repro.core.stats import MacroStatistics
from repro.errors import ConfigurationError
from repro.reliability.faults import FaultEvent, FaultKind, FaultPlan
from repro.utils.validation import check_finite, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import MetricsRegistry, Tracer

__all__ = ["ClusterResult", "ClusterRouter", "RequestNotCompleteError"]

#: ``sla_indices`` decoding of workload traces, as telemetry values.
_SLA_VALUES = tuple(sla.value for sla in SLA_ORDER)
_SLA_BY_VALUE = {sla.value: sla for sla in SLAClass}

#: Queue entry layout: (request_id, model_id, images, sla, arrival_s,
#: deadline_s, input_digest, image_count, reserved span, feasible_at_admission).
_E_RID, _E_MODEL, _E_IMAGES, _E_SLA, _E_ARRIVAL, _E_DEADLINE = 0, 1, 2, 3, 4, 5
_E_DIGEST, _E_COUNT, _E_SPAN, _E_FEASIBLE = 6, 7, 8, 9

#: Input digests whose images passed the finiteness check, kept so a
#: recurring tensor is scanned once; the set is cleared when it fills.
_FINITE_DIGESTS = 4096


class RequestNotCompleteError(ConfigurationError):
    """:meth:`ClusterRouter.result` was asked for a request still queued.

    A distinct type so a caller can tell a request that has not run yet
    (after a stalled drain: no node can run it) from the request's own
    dispatch failure, which ``result()`` re-raises as it was raised.
    """


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one routed request: predictions + its telemetry trace.

    The accounting fields live on the trace and are forwarded, so callers
    read ``result.latency_s``, ``result.node_id``, ``result.deadline_missed``
    etc. directly (everything :class:`RequestTrace` exposes).
    """

    trace: RequestTrace
    sla: SLAClass
    predictions: np.ndarray

    def __getattr__(self, name: str):
        # Forward public accounting fields to the trace.  Guarding dunders
        # and "trace" itself keeps copy/pickle machinery (which may probe
        # before the instance dict exists) out of the delegation.
        if name.startswith("_") or name == "trace":
            raise AttributeError(name)
        return getattr(self.trace, name)


class ClusterRouter:
    """Admit, place, and execute SLA-tagged requests on a DVFS fleet.

    Args:
        nodes: The fleet (unique node ids).
        scheduler: Placement policy; its ``choose`` ranks every
            placement (turbo replay chunks, which inline the stock
            ranking, run only for a stock :class:`SLAScheduler`).
        telemetry: The trace log (a fresh :class:`ColumnarTelemetry` when
            omitted).
        coalesce: Merge consecutive queued same-model requests into one
            dispatch.
        fault_plan: Scripted virtual-time fault injection.
        retain_results: ``False`` drops per-request results and placements
            (``drain`` returns ``[]``); counters and telemetry stay exact.
            The flat-memory mode of 10^8-request replays.
        metrics: Registry the router's metric families are folded into at
            scrape time (:mod:`repro.cluster.instrumentation`).
        tracer: Span tracer for the sampled requests' modeled-time trees.
    """

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        scheduler: Optional[SLAScheduler] = None,
        telemetry: Optional[ColumnarTelemetry] = None,
        coalesce: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retain_results: bool = True,
        metrics: Optional["MetricsRegistry"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"node ids must be unique, got {ids}")
        if telemetry is None:
            telemetry = ColumnarTelemetry()
        elif not isinstance(telemetry, ColumnarTelemetry):
            raise ConfigurationError("telemetry must be a ColumnarTelemetry (or None)")
        if retain_results and not telemetry.retain_traces:
            raise ConfigurationError(
                "retain_results=True builds results from retained trace rows; "
                "pass retain_results=False with ColumnarTelemetry(retain_traces=False)"
            )
        self.nodes = nodes
        self._by_id: Dict[str, ClusterNode] = {node.node_id: node for node in nodes}
        self.scheduler = scheduler if scheduler is not None else SLAScheduler()
        self.telemetry = telemetry
        self.coalesce = coalesce
        self.retain_results = retain_results
        #: The plan is immutable and shared; the router keeps its own cursor.
        self.fault_plan = fault_plan
        self._fault_events: Tuple[FaultEvent, ...] = (
            tuple(fault_plan) if fault_plan is not None else ()
        )
        for event in self._fault_events:
            if event.node_id not in self._by_id:
                raise ConfigurationError(f"fault plan names unknown node {event.node_id!r}")
        self._fault_cursor = 0
        #: Events applied so far, in application order (for reports).
        self.fault_log: List[FaultEvent] = []
        #: Virtual clock: the latest arrival or completion seen so far.
        self.clock_s = 0.0
        self._queues: Dict[str, Deque[tuple]] = {node.node_id: deque() for node in nodes}
        #: Per-node *actual* completion clock (reservations live on the node).
        self._completed: Dict[str, float] = {node.node_id: 0.0 for node in nodes}
        # Dispatch-order machinery.  The heap holds (earliest start, node)
        # candidates, lazily invalidated: a popped entry is re-validated
        # against the node's current head and re-pushed when stale.  The
        # pending counters answer "which nodes hold queued work of a model"
        # in O(1) per admission instead of walking every queue.
        self._heap: List[Tuple[float, str]] = []
        self._queued = 0
        self._pending_by_model: Dict[str, Dict[str, int]] = {}
        self._seen_state: Dict[str, NodeState] = {node.node_id: node.state for node in nodes}
        #: Nodes whose backlog could not be re-placed (no active capacity);
        #: re-tried when any node wakes or recovers.
        self._stranded: Set[str] = set()
        #: Requests re-placed after their original admission (crash or park
        #: replay); ids, since one request can strand more than once.
        self._replayed: Set[int] = set()
        #: Total re-placements performed (the replay-overhead numerator).
        self.replayed_placements = 0
        self._next_rid = 0
        self._finite_digests: Set[str] = set()
        #: request_id -> SLAScheduler.choose's decision tuple, materialized
        #: into a PlacementDecision on demand.
        self._decisions: Dict[int, tuple] = {}
        self._failed: Dict[int, BaseException] = {}
        #: request_id -> (telemetry row index, predictions); results are
        #: built from their row on demand, so the row is the only copy.
        self._answers: Dict[int, tuple] = {}
        #: The last drain's results, so reading them back builds nothing.
        self._drained: Dict[int, ClusterResult] = {}
        self._completed_count = 0
        self._ncache: Dict[str, NodeCache] = {}
        self._buffers: Dict[str, ChargeBuffer] = {}
        #: Charge warm analytic dispatches through the deferred buffers.
        #: Each drain re-decides from whether :meth:`result` read the
        #: previous drain's results back.
        self._defer = True
        self._read_back = False
        telemetry._flush_hook = self._settle
        for node in nodes:
            node._pre_mutate_hooks.append(lambda node_id=node.node_id: self.flush_node(node_id))
        #: Observability bridge (repro.cluster.instrumentation); ``None``
        #: keeps every hot path exactly as fast as an uninstrumented build.
        self._obs = None
        self.tracer = tracer
        if metrics is not None:
            from repro.cluster.instrumentation import attach_cluster_observability

            attach_cluster_observability(self, metrics)

    # ------------------------------------------------------------------ #
    # Fleet management
    # ------------------------------------------------------------------ #
    def node(self, node_id: str) -> ClusterNode:
        """Access one node of the fleet."""
        if node_id not in self._by_id:
            raise ConfigurationError(f"unknown node {node_id!r}")
        return self._by_id[node_id]

    def register_model(self, model_id: str, model, allow_transient: bool = False) -> None:
        """Register a model on every node of the fleet."""
        for node in self.nodes:
            node.register_model(model_id, model, allow_transient=allow_transient)

    @property
    def active_nodes(self) -> List[ClusterNode]:
        """Nodes currently in rotation."""
        return [node for node in self.nodes if node.state is NodeState.ACTIVE]

    def queue_depth(self, node_id: Optional[str] = None) -> int:
        """Queued (admitted, not yet executed) requests."""
        if node_id is not None:
            return len(self._queues[node_id])
        return self._queued

    @property
    def completed_requests(self) -> int:
        """Requests that produced a result (the conservation numerator)."""
        return self._completed_count

    @property
    def failed_requests(self) -> int:
        """Requests whose dispatch raised (re-raised by :meth:`result`)."""
        return len(self._failed)

    @property
    def replayed_requests(self) -> int:
        """Distinct requests re-placed after admission (crash/park replay)."""
        return len(self._replayed)

    # ------------------------------------------------------------------ #
    # Deferred-state maintenance
    # ------------------------------------------------------------------ #
    def flush_node(self, node_id: str) -> None:
        """Apply one node's buffered charge sequence to its real ledgers."""
        buf = self._buffers.get(node_id)
        if buf is not None and buf.dispatches:
            flush_charges(self._by_id[node_id], buf, self.telemetry)

    def flush_all(self) -> None:
        """Apply every node's buffered charges (router-level reads)."""
        for node in self.nodes:
            self.flush_node(node.node_id)

    def _settle(self) -> None:
        """Resolve deferred charges, then emit the sampled rows' span trees.

        The telemetry's flush hook: every aggregate read, every drain that
        returns results and every scrape settles first.
        """
        self.flush_all()
        self.telemetry.emit_spans(self.tracer)

    def _node_cache(self, node: ClusterNode) -> NodeCache:
        nc = self._ncache.get(node.node_id)
        engine = node.engine
        ptiles = engine.counters.programmed_tiles
        if nc is None or nc.engine is not engine or nc.ptiles != ptiles:
            if nc is None:
                nc = NodeCache()
                nc.hazard = node.hazard
                self._ncache[node.node_id] = nc
            nc.engine = engine
            nc.ptiles = ptiles
            nc.degrade = node.degrade_factor
            nc.cycle_time = engine.chip.cycle_time_s()
            nc.estimates = {}
            nc.fast_ok = {}
            nc.ssigs = {}
            nc.dsigs = {}
            nc.turbo = {}
        elif nc.degrade != node.degrade_factor:
            nc.degrade = node.degrade_factor
            nc.estimates = {}
            nc.turbo = {}
        return nc

    # ------------------------------------------------------------------ #
    # Fault injection (repro.reliability.FaultPlan)
    # ------------------------------------------------------------------ #
    def _apply_due_faults(self) -> None:
        """Fire every scripted event the virtual clock has reached."""
        events = self._fault_events
        while (
            self._fault_cursor < len(events)
            and events[self._fault_cursor].at_s <= self.clock_s
        ):
            event = events[self._fault_cursor]
            self._fault_cursor += 1
            self._apply_fault(event)

    def _apply_fault(self, event: FaultEvent) -> None:
        """Actuate one event and update the dispatch bookkeeping in place.

        The lifecycle bookkeeping (backlog replay, head candidates,
        stranded retries) is performed here, not deferred to
        :meth:`_sync_states`: a crash and its recovery can both fire
        between two dispatches, and a diff of before/after states would
        see nothing happened.
        """
        node = self._by_id[event.node_id]
        if event.kind is FaultKind.CRASH:
            if node.state is not NodeState.FAILED:
                node.fail()
            self._seen_state[event.node_id] = NodeState.FAILED
            if self._queues[event.node_id]:
                self._replace_parked_backlog(event.node_id)
        elif event.kind is FaultKind.RECOVER:
            node.recover()
            if self._seen_state[event.node_id] is not NodeState.ACTIVE:
                self._seen_state[event.node_id] = NodeState.ACTIVE
                self._push_head_candidate(event.node_id)
                self._retry_stranded()
        elif event.kind is FaultKind.STALL:
            self._completed[event.node_id] = (
                max(self._completed[event.node_id], event.at_s) + event.duration_s
            )
            self._rebuild_reservation(event.node_id)
        elif event.kind is FaultKind.DEGRADE:
            node.degrade(event.factor)
        elif event.kind is FaultKind.RESTORE:
            node.restore()
        self.fault_log.append(event)

    def _advance_to_next_fault(self) -> bool:
        """Move the virtual clock to the next scripted event, if any.

        The escape hatch for a fully stranded fleet: queued work exists but
        nothing can run until a scripted recovery, so time must pass for
        the recovery to fire.
        """
        if self._fault_cursor >= len(self._fault_events):
            return False
        self.clock_s = max(self.clock_s, self._fault_events[self._fault_cursor].at_s)
        return True

    # ------------------------------------------------------------------ #
    # Queue bookkeeping (counters + dispatch heap stay consistent)
    # ------------------------------------------------------------------ #
    def _enqueue(self, node_id: str, entry: tuple) -> None:
        queue = self._queues[node_id]
        queue.append(entry)
        self._queued += 1
        counts = self._pending_by_model.setdefault(entry[_E_MODEL], {})
        counts[node_id] = counts.get(node_id, 0) + 1
        if len(queue) == 1 and self._by_id[node_id].state is NodeState.ACTIVE:
            heapq.heappush(
                self._heap,
                (max(self._completed[node_id], entry[_E_ARRIVAL]), node_id),
            )

    def _dequeue_head(self, node_id: str) -> tuple:
        entry = self._queues[node_id].popleft()
        self._queued -= 1
        counts = self._pending_by_model[entry[_E_MODEL]]
        remaining = counts[node_id] - 1
        if remaining:
            counts[node_id] = remaining
        else:
            del counts[node_id]
            if not counts:
                del self._pending_by_model[entry[_E_MODEL]]
        return entry

    def _push_head_candidate(self, node_id: str) -> None:
        queue = self._queues[node_id]
        if queue:
            heapq.heappush(
                self._heap,
                (max(self._completed[node_id], queue[0][_E_ARRIVAL]), node_id),
            )

    # ------------------------------------------------------------------ #
    # Placement
    # ------------------------------------------------------------------ #
    def _place(self, model_id, images, sla, arrival, deadline) -> tuple:
        """Price every active node and let the scheduler rank the bundles.

        One ``(node, estimate, modeled finish, hazard)`` bundle per active
        node, in fleet order, with the estimate served from the node cache;
        returns :meth:`SLAScheduler.choose`'s decision tuple.
        """
        scored = []
        key = (model_id, images.shape)
        for node in self.nodes:
            if node.state is not NodeState.ACTIVE:
                continue
            nc = self._node_cache(node)
            est = nc.estimates.get(key)
            if est is None:
                est = node.estimate_request(model_id, images)
                nc.estimates[key] = est
            scored.append(
                (node, est, max(node.available_s, arrival) + est.latency_s,
                 nc.hazard)
            )
        if not scored:
            raise NoActiveNodesError(
                "no active nodes: wake a parked node before submitting"
            )
        return self.scheduler.choose(
            scored, model_id, sla, arrival, deadline,
            self._pending_by_model.get(model_id), self.telemetry,
        )

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        model_id: str,
        images: np.ndarray,
        sla: SLAClass = SLAClass.BEST_EFFORT,
        deadline_s: Optional[float] = None,
        arrival_s: Optional[float] = None,
        input_digest: Optional[str] = None,
    ) -> int:
        """Admit one request into the cluster.

        The chosen node's virtual clock is reserved through the request's
        modeled finish so later admissions queue behind it.

        Args:
            model_id: A model previously passed to ``register_model``.
            images: ``(batch, channels, height, width)`` float64 tensor
                of finite values, none larger in magnitude than
                :data:`repro.utils.validation.MAX_INPUT_MAGNITUDE`.
            sla: The request's service class, an :class:`SLAClass` member
                (latency / throughput / best effort); anything else is
                refused before admission.
            deadline_s: Virtual-time deadline; required for (and only
                meaningful to) the latency class.
            arrival_s: Pins the request's position on the virtual clock
                (workload generators use it to model inter-arrival gaps);
                omitted, the request arrives "now".
            input_digest: Optionally names the request's images for the
                analytic execution mode's forward memo (two requests may
                share a digest only if their images are identical).

        Returns:
            The request id to pass to :meth:`result`.
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4 or images.shape[0] == 0:
            raise ConfigurationError("expected a non-empty (batch, channels, height, width) array")
        # A non-finite pixel has no integer code, and a huge finite one
        # overflows its image's activation scale: either way the forward
        # would fail, taking every request of its dispatch group down with
        # it.  So both are refused here (see check_finite's bound).
        # A digest names identical images (the forward memo's contract), so a
        # known-finite one is not re-scanned: analytic requests otherwise
        # never read their pixels.
        if input_digest not in self._finite_digests:
            check_finite("images", images)
            if input_digest is not None:
                if len(self._finite_digests) >= _FINITE_DIGESTS:
                    self._finite_digests.clear()
                self._finite_digests.add(input_digest)
        if not isinstance(sla, SLAClass):
            # A wire name ("latency") would skip the deadline check, rank
            # as best effort and then fail its dispatch's telemetry row.
            raise ConfigurationError(f"sla must be an SLAClass member, got {sla!r}")
        if sla is SLAClass.LATENCY:
            if deadline_s is None or deadline_s <= 0:
                raise ConfigurationError("latency-class requests need a positive deadline_s")
        arrival = self.clock_s if arrival_s is None else float(arrival_s)
        if arrival < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if arrival > self.clock_s:
            self.clock_s = arrival
        # Scripted faults the arrival clock has reached fire before
        # placement, so admission never chooses a node that is already
        # (virtually) dead at this request's arrival.
        self._apply_due_faults()
        rid = self._next_rid
        self._next_rid += 1
        try:
            decision = self._place(model_id, images, sla, arrival, deadline_s)
        except NoActiveNodesError:
            if NodeState.FAILED not in [node.state for node in self.nodes]:
                # A fully *parked* fleet is an operator decision and still
                # refuses admission; only a fault outage strands.
                raise
            self._strand(rid, model_id, images, sla, arrival, deadline_s, input_digest)
            return rid
        node = self._by_id[decision[0]]
        node.available_s = decision[6]
        entry = (
            rid, model_id, images, sla, arrival, deadline_s, input_digest,
            int(images.shape[0]), decision[6] - decision[5], decision[2],
        )
        self._enqueue(node.node_id, entry)
        if self.retain_results:
            self._decisions[rid] = decision
        return rid

    def _strand(self, rid, model_id, images, sla, arrival, deadline, digest) -> None:
        """Queue a request admitted while the whole fleet is down.

        Dropping admissions during an outage would break request
        conservation, so the request is stranded deterministically on the
        first node and replays when any node recovers or wakes.
        """
        node = min(self.nodes, key=lambda n: n.node_id)
        decision = (node.node_id, sla, False, False, False, arrival, arrival, 0.0, 0.0, 0)
        entry = (
            rid, model_id, images, sla, arrival, deadline, digest,
            int(images.shape[0]), 0.0, False,
        )
        self._enqueue(node.node_id, entry)
        if self.retain_results:
            self._decisions[rid] = decision
        self._stranded.add(node.node_id)

    # ------------------------------------------------------------------ #
    # Lifecycle transitions (park/wake/crash replay)
    # ------------------------------------------------------------------ #
    def _rebuild_reservation(self, node_id: str) -> None:
        """Re-derive a node's reserved clock from measured reality.

        The reservation becomes the node's measured completion time plus
        the reserved span of everything still queued on it, re-chained
        from reality — how reservations stay exact when a dispatch
        finishes (or fails) at a different time than its admission-time
        estimate assumed.
        """
        available = self._completed[node_id]
        for entry in self._queues[node_id]:
            start = max(available, entry[_E_ARRIVAL])
            available = start + entry[_E_SPAN]
        self._by_id[node_id].available_s = available

    def _sync_states(self) -> None:
        """React to park/wake transitions since the previous dispatch.

        Nodes are parked and woken directly (operators, the autoscaler), so
        the router diffs each node's lifecycle state against what it last
        saw: an ACTIVE -> PARKED transition re-places that node's backlog;
        a wake re-announces the node's queue head and retries any backlog
        stranded while the whole fleet was down.
        """
        woke = False
        for node in self.nodes:
            node_id = node.node_id
            state = node.state
            if state is self._seen_state[node_id]:
                continue
            self._seen_state[node_id] = state
            if self._obs is not None:
                self._obs.node_transition(node_id, state.name.lower())
            if state is NodeState.ACTIVE:
                woke = True
                self._push_head_candidate(node_id)
            elif self._queues[node_id]:
                self._replace_parked_backlog(node_id)
        if woke:
            self._retry_stranded()

    def _retry_stranded(self) -> None:
        for node_id in sorted(self._stranded):
            if self._by_id[node_id].state is NodeState.ACTIVE:
                self._stranded.discard(node_id)
            elif self._queues[node_id]:
                self._replace_parked_backlog(node_id)
            else:
                self._stranded.discard(node_id)

    def _replace_parked_backlog(self, node_id: str) -> None:
        """Re-place one parked or failed node's queued requests.

        With no active node left they stay queued where they were (marked
        stranded) until something wakes or recovers.
        """
        node = self._by_id[node_id]
        stranded: List[tuple] = []
        while self._queues[node_id]:
            stranded.append(self._dequeue_head(node_id))
        node.available_s = self._completed[node_id]
        for index, entry in enumerate(stranded):
            try:
                decision = self._place(
                    entry[_E_MODEL], entry[_E_IMAGES], entry[_E_SLA],
                    entry[_E_ARRIVAL], entry[_E_DEADLINE],
                )
            except NoActiveNodesError:
                for item in stranded[index:]:
                    self._enqueue(node_id, item)
                self._rebuild_reservation(node_id)
                self._stranded.add(node_id)
                return
            target = self._by_id[decision[0]]
            target.available_s = decision[6]
            self._enqueue(
                target.node_id,
                entry[:_E_SPAN] + (decision[6] - decision[5], decision[2]),
            )
            if self.retain_results:
                self._decisions[entry[_E_RID]] = decision
            self._replayed.add(entry[_E_RID])
            self.replayed_placements += 1
        self._stranded.discard(node_id)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _select_head(self) -> Optional[Tuple[str, float]]:
        heap = self._heap
        while heap:
            start, node_id = heapq.heappop(heap)
            if self._by_id[node_id].state is not NodeState.ACTIVE:
                continue
            queue = self._queues[node_id]
            if not queue:
                continue
            actual = max(self._completed[node_id], queue[0][_E_ARRIVAL])
            if actual != start:
                heapq.heappush(heap, (actual, node_id))
                continue
            return node_id, start
        return None

    def _gather_group(self, node: ClusterNode, start: float) -> List[tuple]:
        node_id = node.node_id
        group = [self._dequeue_head(node_id)]
        if not self.coalesce:
            return group
        head = group[0]
        budget = node.max_batch_size - head[_E_COUNT]
        queue = self._queues[node_id]
        head_tail = head[_E_IMAGES].shape[1:]
        while queue:
            candidate = queue[0]
            if (
                candidate[_E_MODEL] != head[_E_MODEL]
                or candidate[_E_ARRIVAL] > start
                or candidate[_E_COUNT] > budget
                or candidate[_E_IMAGES].shape[1:] != head_tail
            ):
                break
            budget -= candidate[_E_COUNT]
            group.append(self._dequeue_head(node_id))
        return group

    def _fast_ok(self, node: ClusterNode, nc: NodeCache, model_id: str) -> bool:
        ok = nc.fast_ok.get(model_id)
        if ok is None:
            ok = node.holds_model(model_id)
            nc.fast_ok[model_id] = ok
        return ok

    def _build_dsig(
        self, node: ClusterNode, nc: NodeCache, model_id: str,
        shape_tail: tuple, total: int,
    ) -> DispatchSig:
        step = node.max_batch_size
        slices: List[SliceSig] = []
        start = 0
        while start < total:
            size = min(step, total - start)
            skey = (model_id, shape_tail, size)
            ssig = nc.ssigs.get(skey)
            if ssig is None:
                ssig = SliceSig(node, model_id, shape_tail, size)
                nc.ssigs[skey] = ssig
            slices.append(ssig)
            start += size
        return DispatchSig(slices, nc.cycle_time)

    def _fail_group(self, node_id: str, group: List[tuple], error: BaseException) -> None:
        """Store a dispatch failure on its requests and release their reservations.

        :meth:`result` re-raises the failure; the node's clock is
        re-derived from measured reality plus the spans still queued.
        """
        for e in group:
            self._failed[e[_E_RID]] = error
        self._rebuild_reservation(node_id)
        self._push_head_candidate(node_id)

    def _complete(self, node_id: str, start: float, compute_s: float) -> float:
        """Advance a node past one executed dispatch; returns its finish."""
        finish = start + compute_s
        self._completed[node_id] = finish
        if finish > self.clock_s:
            self.clock_s = finish
        # Executed work no longer needs its reservation; re-chain the
        # remaining backlog's spans from measured reality.
        self._rebuild_reservation(node_id)
        self._push_head_candidate(node_id)
        return finish

    def _dispatch_group(self) -> List[int]:
        """Run the next dispatch; returns the completed request ids."""
        while True:
            self._apply_due_faults()
            self._sync_states()
            selected = self._select_head()
            if selected is not None:
                break
            if self._queued and self._advance_to_next_fault():
                continue
            return []
        node_id, start = selected
        node = self._by_id[node_id]
        group = self._gather_group(node, start)
        if self._defer and node.execution_mode is ExecutionMode.ANALYTIC:
            nc = self._node_cache(node)
            if self._fast_ok(node, nc, group[0][_E_MODEL]):
                return self._dispatch_fast(node, nc, group, start)
        return self._dispatch_direct(node, group, start)

    def _dispatch_fast(
        self, node: ClusterNode, nc: NodeCache, group: List[tuple],
        start: float,
    ) -> List[int]:
        """Warm analytic dispatch: template charges, deferred; memo forward."""
        node_id = node.node_id
        model_id = group[0][_E_MODEL]
        total = 0
        for e in group:
            total += e[_E_COUNT]
        dkey = (model_id, group[0][_E_IMAGES].shape[1:], total)
        dsig = nc.dsigs.get(dkey)
        if dsig is None:
            dsig = self._build_dsig(node, nc, model_id, dkey[1], total)
            nc.dsigs[dkey] = dsig
        buf = self._buffers.get(node_id)
        if buf is None:
            buf = ChargeBuffer(node.engine)
            self._buffers[node_id] = buf
        elif not buf.dispatches and buf.engine is not node.engine:
            buf.engine = node.engine
            buf.macros_seen.clear()
        # Charges are buffered *before* the forward (the direct path charges
        # before predicting), so a failing spot check leaves them applied.
        buf.dispatches.append(dsig.slices)
        compute_s = dsig.compute_s(node.degrade_factor)
        try:
            answers, spot_checked = node._memo_predict(
                model_id, [(e[_E_IMAGES], e[_E_DIGEST]) for e in group]
            )
        except Exception as error:
            self._fail_group(node_id, group, error)
            raise
        finish = self._complete(node_id, start, compute_s)
        return self._record_group(
            node_id, group, answers, spot_checked, start, finish, compute_s, None,
            True, False, "analytic",
        )

    def _dispatch_direct(
        self, node: ClusterNode, group: List[tuple], start: float
    ) -> List[int]:
        """Direct dispatch: the plain node calls, charged as they run.

        Flushes the node's deferred charges first, so its ledger folds stay
        in chronological order.  Every dispatch the fast path cannot (or,
        while results are read back per drain, should not) take runs here;
        a subclass hooks completed groups by extending it.
        """
        node_id = node.node_id
        self.flush_node(node_id)
        model_id = group[0][_E_MODEL]
        try:
            predictions, dispatch = node.execute_group(
                model_id, [(e[_E_IMAGES], e[_E_DIGEST]) for e in group]
            )
        except Exception as error:
            self._fail_group(node_id, group, error)
            raise
        finish = self._complete(node_id, start, dispatch.compute_s)
        return self._record_group(
            node_id, group, predictions, dispatch.spot_checked, start, finish,
            dispatch.compute_s, dispatch.energy_j, dispatch.affinity_hit,
            dispatch.programmed, dispatch.execution_mode,
        )

    def _record_group(
        self, node_id: str, group: List[tuple], answers, spot_checked,
        start: float, finish: float, compute_s: float,
        energy_j: Optional[float], affinity_hit: bool, programmed: bool,
        mode: str,
    ) -> List[int]:
        """Record one completed dispatch's rows; returns their request ids.

        Each request gets its image fraction of the dispatch's compute time
        and energy.  ``energy_j`` is ``None`` while the node's charges are
        deferred: the rows then wait in its charge buffer, whose flush
        fills their energies in.
        """
        model_id = group[0][_E_MODEL]
        total = 0
        for e in group:
            total += e[_E_COUNT]
        coalesced = len(group)
        record_row = self.telemetry.record_row
        retain = self.retain_results
        replayed_set = self._replayed
        if energy_j is None:
            buf = self._buffers[node_id]
            ordinal = len(buf.dispatches) - 1
            row_app = buf.row_indexes.append
            ord_app = buf.ordinals.append
            frac_app = buf.fractions.append
        rids: List[int] = []
        for e, request_predictions, checked in zip(group, answers, spot_checked):
            rid = e[_E_RID]
            count = e[_E_COUNT]
            # A group of one has fraction 1.0: its shares are exact.
            fraction = count / total
            arrival = e[_E_ARRIVAL]
            deadline = e[_E_DEADLINE]
            missed = deadline is not None and finish - arrival > deadline
            index = record_row(
                (
                    rid, model_id, node_id, e[_E_SLA].value, count, arrival,
                    start, finish, compute_s * fraction, deadline, missed,
                    affinity_hit, programmed, e[_E_FEASIBLE], mode, coalesced,
                    checked, rid in replayed_set,
                ),
                None if energy_j is None else energy_j * fraction,
            )
            if energy_j is None:
                row_app(index)
                ord_app(ordinal)
                frac_app(fraction)
            if retain:
                self._answers[rid] = (index, request_predictions)
            rids.append(rid)
        self._completed_count += coalesced
        return rids

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def _answer(self, rid: int) -> ClusterResult:
        """Build one completed request's result from its telemetry row."""
        index, predictions = self._answers[rid]
        trace = self.telemetry.trace_at(index)
        return ClusterResult(trace=trace, sla=_SLA_BY_VALUE[trace.sla], predictions=predictions)

    def _need_results(self, what: str) -> None:
        if not self.retain_results:
            raise ConfigurationError(
                f"{what} needs per-request results; this router was built with "
                "retain_results=False (use drain() and the telemetry aggregates)"
            )

    def dispatch_next(self) -> Optional[ClusterResult]:
        """Execute the queued request that can start earliest (None if idle).

        Requests queued on parked nodes are re-placed first; if every node
        is parked they stay queued (and this returns None) rather than
        failing work that was never attempted.  With coalescing enabled a
        dispatch may complete several requests at once; the head request's
        result is returned and the others are retrievable via
        :meth:`result` (:meth:`drain` returns every completed result).

        Returns:
            The head :class:`ClusterResult`, or ``None`` when nothing is
            dispatchable.
        """
        self._need_results("dispatch_next()")
        rids = self._dispatch_group()
        if not rids:
            return None
        self._settle()
        return self._answer(rids[0])

    def drain(self) -> List[ClusterResult]:
        """Execute the whole backlog in earliest-start order.

        Returns:
            Every :class:`ClusterResult` completed by this call, in
            completion order (``[]`` when results are not retained).
        """
        if self._obs is not None:
            self._obs.drains.inc()
        # Results read back one by one after the previous drain mean each
        # drain is small and fully consumed (the gateway's pattern): a
        # deferred flush per drain would cost more than direct charging.
        self._defer = not self._read_back
        self._read_back = False
        completed: List[int] = []
        retain = self.retain_results
        while True:
            rids = self._dispatch_group()
            if not rids:
                break
            if retain:
                completed.extend(rids)
        if not retain:
            return []
        self._settle()
        results = [self._answer(rid) for rid in completed]
        self._drained = dict(zip(completed, results))
        return results

    def result(self, request_id: int) -> ClusterResult:
        """The completed result of a request.

        Re-raises the original execution failure if the request's dispatch
        failed, and raises :class:`RequestNotCompleteError` while it is
        queued.
        """
        if request_id in self._failed:
            raise self._failed[request_id]
        if not self.retain_results:
            raise ConfigurationError("results are not retained (retain_results=False)")
        self._read_back = True
        result = self._drained.get(request_id)
        if result is not None:
            return result
        if request_id not in self._answers:
            raise RequestNotCompleteError(f"request {request_id} is not complete; call drain()")
        self._settle()  # a drain that raised part-way left its rows unsettled
        return self._answer(request_id)

    def decision(self, request_id: int) -> PlacementDecision:
        """The admission-time placement decision of a request."""
        self._need_results("decision()")
        d = self._decisions.get(request_id)
        if d is None:
            raise ConfigurationError(f"unknown request {request_id}")
        return PlacementDecision(request_id, *d)

    # ------------------------------------------------------------------ #
    # Batch trace replay (the turbo path)
    # ------------------------------------------------------------------ #
    def replay_trace(
        self, trace, image_pool, drain_every: int = 64, autoscaler=None
    ) -> Dict[str, float]:
        """Stream a workload trace through the router in arrival order.

        The cluster's one trace-replay loop.  Requests draw their images
        round-robin from the pool's distinct slots (the slot digest rides
        along as ``input_digest``), and the backlog is drained every
        ``drain_every`` admissions — bounded queues keep the per-dispatch
        reservation re-chaining cheap and mirror a live router that serves
        while it admits.  ``autoscaler`` (a
        :class:`~repro.cluster.autoscale.ReactiveAutoscaler`) observes
        before every chunk's drain, while the chunk's backlog is still
        queued, so fleet reshaping — including waking spares under the
        failure pressure of an injected crash — happens inside the serving
        loop.

        Each ``drain_every`` chunk whose steady-state preconditions hold
        (stock scheduler, no coalescing, ``retain_results=False``, every
        chunk model warm and resident on every active node, all pool
        digests memoised, no fault due inside the chunk's horizon, no
        autoscaler) runs a specialised batch admission+dispatch loop
        (turbo): array-backed reservation and completion chains, one
        telemetry append and one memo/ledger write-back per chunk instead
        of per request.  Chunks that fail a precondition take the
        per-request submit/drain loop, so mixing chunks preserves
        bit-exactness.

        Returns flat replay statistics, including the wall-clock
        requests/sec of the whole loop.
        """
        check_positive("drain_every", drain_every)
        arr = trace.arrivals_s.tolist()
        cnt = trace.image_counts.tolist()
        mi = trace.model_indices.tolist()
        si = trace.sla_indices.tolist()
        deadlines = trace.deadlines_s
        dl = [
            None if nan else value
            for value, nan in zip(deadlines.tolist(), np.isnan(deadlines).tolist())
        ]
        model_ids = trace.model_ids
        slot_cursor: Dict[Tuple[str, int], int] = {}
        requests = len(arr)
        completed_before = self._completed_count
        turbo_ok = autoscaler is None
        start_wall = time.perf_counter()
        pos = 0
        while pos < requests:
            end = min(pos + drain_every, requests)
            ctx = (
                self._turbo_context(arr, cnt, mi, pos, end, model_ids, image_pool, slot_cursor)
                if turbo_ok
                else None
            )
            if ctx is not None:
                self._turbo_chunk(ctx, arr, si, dl, pos, end, slot_cursor)
                if self._obs is not None and end - pos == drain_every:
                    self._obs.drains.inc()  # the drain the chunk stands for
            else:
                for i in range(pos, end):
                    model_id = model_ids[mi[i]]
                    ck = (model_id, cnt[i])
                    slots = image_pool[ck]
                    cursor = slot_cursor.get(ck, 0)
                    digest, images = slots[cursor]
                    slot_cursor[ck] = (cursor + 1) % len(slots)
                    self.submit(
                        model_id,
                        images,
                        sla=SLA_ORDER[si[i]],
                        deadline_s=dl[i],
                        arrival_s=arr[i],
                        input_digest=digest,
                    )
                if end - pos == drain_every:
                    # Observe *before* draining: queue depth (and therefore
                    # failure pressure) is visible while the backlog is real.
                    if autoscaler is not None:
                        autoscaler.observe()
                    self.drain()
                    self.telemetry.maybe_fold()
            pos = end
        if autoscaler is not None:
            autoscaler.observe()
        self.drain()
        wall_s = time.perf_counter() - start_wall
        completed = self._completed_count - completed_before
        images_total = float(trace.total_images)
        return {
            "requests": float(requests),
            "completed": float(completed),
            "images": images_total,
            "wall_s": wall_s,
            "requests_per_s": requests / wall_s if wall_s > 0 else 0.0,
            "images_per_s": images_total / wall_s if wall_s > 0 else 0.0,
        }

    def _turbo_node_entry(self, node, nc, model_id, count, slots):
        """Admission/dispatch constants of one (node, model, count).

        ``False`` when that combination cannot take the turbo path (not
        resident, not warm, or pool slots the generic path must validate).
        Cached on the node cache: any retune/programming rebuilds it.
        """
        shape = slots[0][1].shape
        for digest, images in slots:
            if (
                digest is None
                or images.ndim != 4
                or images.shape != shape
                or images.dtype != np.float64
            ):
                return False
        if shape[0] != count or count == 0:
            return False
        if not self._fast_ok(node, nc, model_id):
            return False
        ekey = (model_id, shape)
        est = nc.estimates.get(ekey)
        if est is None:
            est = node.estimate_request(model_id, slots[0][1])
            nc.estimates[ekey] = est
        if not est.resident:
            return False
        dkey = (model_id, shape[1:], count)
        dsig = nc.dsigs.get(dkey)
        if dsig is None:
            dsig = self._build_dsig(node, nc, model_id, dkey[1], count)
            nc.dsigs[dkey] = dsig
        return (
            est.latency_s,
            est.energy_j,
            est.energy_per_image_j,
            dsig.compute_s(node.degrade_factor),
            dsig.slices,
            dsig.batches,
        )

    def _turbo_context(
        self, arr, cnt, mi, pos, end, model_ids, image_pool, slot_cursor
    ):
        """Validate one chunk's turbo preconditions.

        Returns the prepared per-chunk context, or ``None`` to take the
        per-request path.
        """
        if (
            self.retain_results
            or type(self.scheduler) is not SLAScheduler
            or self.coalesce
            or self.scheduler.coalesce_affinity
        ):
            return None
        if self._stranded or self._queued or arr[pos] < 0:
            return None
        self._sync_states()
        if self._queued:
            return None
        active = [n for n in self.nodes if n.state is NodeState.ACTIVE]
        if not active:
            return None
        ncs = []
        for node in active:
            if node.execution_mode is not ExecutionMode.ANALYTIC:
                return None
            ncs.append(self._node_cache(node))
        hw = self.scheduler.hazard_weight
        risk = [1.0 + hw * nc.hazard for nc in ncs]
        hazard = [nc.hazard for nc in ncs]
        node_ids = [n.node_id for n in active]
        combos: Dict[tuple, list] = {}
        for i in range(pos, end):
            combos.setdefault((mi[i], cnt[i]), None)
        max_step = 0.0
        key_table: List[tuple] = []
        for mindex, count in combos:
            model_id = model_ids[mindex]
            ck = (model_id, count)
            slots = image_pool.get(ck)
            if slots is None:
                return None
            lat, energy, tkey0 = [], [], []
            compute, slices, batches = [], [], []
            for j, node in enumerate(active):
                nc = ncs[j]
                ent = nc.turbo.get(ck)
                if ent is None:
                    ent = self._turbo_node_entry(node, nc, model_id, count,
                                                 slots)
                    nc.turbo[ck] = ent
                if ent is False:
                    return None
                lat.append(ent[0])
                energy.append(ent[1])
                tkey0.append(ent[2] * risk[j])
                compute.append(ent[3])
                slices.append(ent[4])
                batches.append(ent[5])
                if ent[0] > max_step:
                    max_step = ent[0]
                if ent[3] > max_step:
                    max_step = ent[3]
            keys = [
                ClusterNode._memo_key(model_id, images, digest)
                for digest, images in slots
            ]
            for node in active:
                entries = node.forward_memo._entries
                for key in keys:
                    if key not in entries:
                        return None
            # A strictly unique minimum of the primary throughput key picks
            # the same node regardless of finish-time tie-breaks.
            low = min(tkey0)
            static_t = -1
            if sum(1 for v in tkey0 if v == low) == 1:
                static_t = tkey0.index(low)
            key_base = len(key_table)
            key_table.extend(keys)
            combos[(mindex, count)] = [
                model_id, ck, lat, energy, tkey0, static_t, compute,
                slices, batches, keys, slots, len(slots),
                slot_cursor.get(ck, 0), key_base, count,
            ]
        if self._fault_cursor < len(self._fault_events):
            # Conservative horizon: the chunk's virtual time cannot pass
            # base + chunk_len * max_step, so a fault strictly beyond it
            # can never become due inside the chunk (on either path).
            base = arr[end - 1]
            if self.clock_s > base:
                base = self.clock_s
            for value in self._completed.values():
                if value > base:
                    base = value
            bound = base + (end - pos) * max_step
            if self._fault_events[self._fault_cursor].at_s <= bound:
                return None
        # One combo reference per request: an int-keyed lookup when the
        # chunk is single-model (the common replay shape), the full
        # (model, count) key otherwise.
        if len({key[0] for key in combos}) == 1:
            by_count = {key[1]: value for key, value in combos.items()}
            creq = [by_count[c] for c in cnt[pos:end]]
        else:
            creq = [combos[(m, c)] for m, c in zip(mi[pos:end], cnt[pos:end])]
        return (active, node_ids, combos, creq, risk, hazard, key_table)

    def _turbo_chunk(self, ctx, arr, si, dl, pos, end, slot_cursor):
        """One chunk of batch admission + per-node dispatch passes.

        Replicates `_place` -> `_enqueue` -> `_select_head` ->
        `_dispatch_fast` value- and order-identically for the steady state
        the context validated.  Admission walks the chunk once with the
        same ranking keys, float op order and first-minimum tie-breaks as
        the stock `SLAScheduler.choose`.  Dispatch then runs one tight FIFO pass per node —
        each node's start/finish chain depends only on its own queue, not
        on the cross-node interleave — and recovers the heap's exact
        merged order, min ``(max(completed, arrival), node_id)``, with a
        stable lexsort over the per-node start times.  Telemetry rows,
        charge-buffer events and memo counters/LRU order are written back
        once per chunk; the telemetry folds each node's aggregates from
        those rows.
        """
        active, node_ids, combos, creq, risk, hazard, key_table = ctx
        nn = len(active)
        avail = [node.available_s for node in active]
        completed = self._completed
        comp = [completed[nid] for nid in node_ids]
        pend: List[list] = [[] for _ in range(nn)]
        appends = [p.append for p in pend]
        rid = self._next_rid
        bk0 = bk1 = bk2 = bfin = None
        # --- admission: the stock ranking over the chunk's constants --- #
        for a, s, d, combo in zip(arr[pos:end], si[pos:end], dl[pos:end],
                                  creq):
            if s == 1:  # THROUGHPUT
                sj = combo[5]
                if sj >= 0:
                    bj = sj
                    av = avail[bj]
                    bfin = (av if av > a else a) + combo[2][bj]
                else:
                    lat = combo[2]
                    tkey0 = combo[4]
                    bj = -1
                    for j in range(nn):
                        k0 = tkey0[j]
                        av = avail[j]
                        fin_j = (av if av > a else a) + lat[j]
                        if bj < 0 or k0 < bk0:
                            take = True
                        elif k0 == bk0:
                            take = fin_j < bk1 or (
                                fin_j == bk1 and node_ids[j] < bk2
                            )
                        else:
                            take = False
                        if take:
                            bj, bk0, bk1, bk2 = j, k0, fin_j, node_ids[j]
                            bfin = fin_j
                feas = True
            elif s == 0:  # LATENCY
                if d is None or d <= 0:
                    raise ConfigurationError(
                        "latency-class requests need a positive deadline_s"
                    )
                lat = combo[2]
                any_f = False
                bj = -1
                for j in range(nn):
                    av = avail[j]
                    fin_j = (av if av > a else a) + lat[j]
                    lat_j = fin_j - a
                    feasible = lat_j <= d
                    if feasible and not any_f:
                        any_f = True
                        bj = -1
                    if any_f and not feasible:
                        continue
                    k0 = lat_j * risk[j]
                    if bj < 0 or k0 < bk0:
                        take = True
                    elif k0 == bk0:
                        e_j = combo[3][j]
                        take = e_j < bk1 or (
                            e_j == bk1 and node_ids[j] < bk2
                        )
                    else:
                        take = False
                    if take:
                        bj, bk0, bk1, bk2 = j, k0, combo[3][j], node_ids[j]
                        bfin = fin_j
                feas = any_f
            else:  # BEST_EFFORT
                lat = combo[2]
                bj = -1
                for j in range(nn):
                    av = avail[j]
                    st = av if av > a else a
                    k0 = (st - a) * risk[j]
                    if bj < 0 or k0 < bk0:
                        take = True
                    elif k0 == bk0:
                        h_j = hazard[j]
                        take = h_j < bk1 or (
                            h_j == bk1 and node_ids[j] < bk2
                        )
                    else:
                        take = False
                    if take:
                        bj, bk0, bk1, bk2 = j, k0, hazard[j], node_ids[j]
                        bfin = st + lat[j]
                feas = True
            avail[bj] = bfin
            cur = combo[12]
            combo[12] = 0 if cur + 1 == combo[11] else cur + 1
            appends[bj]((rid, a, d, feas, s, cur, combo))
            rid += 1
        for combo in combos.values():
            slot_cursor[combo[1]] = combo[12]
        # --- dispatch: one FIFO pass per node --------------------------- #
        telemetry = self.telemetry
        buffers = self._buffers
        n = end - pos
        sla_values = _SLA_VALUES
        mxfin = self.clock_s
        rank = sorted(range(nn), key=node_ids.__getitem__)
        order_of = [0] * nn
        for r, j in enumerate(rank):
            order_of[j] = r
        st_arr = np.empty(n)
        rk_arr = np.empty(n, dtype=np.intp)
        rows_cat: List[tuple] = []
        ids_cat: List[int] = []
        offsets = [0] * nn
        ord0s = [0] * nn
        filled = 0
        for j in range(nn):
            pj = pend[j]
            offsets[j] = filled
            if not pj:
                continue  # untouched node: leave its reservation alone
            node = active[j]
            buf = buffers.get(node.node_id)
            if buf is None:
                buf = ChargeBuffer(node.engine)
                buffers[node.node_id] = buf
            elif not buf.dispatches and buf.engine is not node.engine:
                buf.engine = node.engine
                buf.macros_seen.clear()
            ord0s[j] = len(buf.dispatches)
            dapp = buf.dispatches.append
            comp_j = comp[j]
            sce_j = node.spot_check_every
            hs_j = node._memo_hits_since_check
            spots_j = 0
            memo = node.forward_memo
            nid = node_ids[j]
            sts_j: List[float] = []
            sapp = sts_j.append
            rapp = rows_cat.append
            iapp = ids_cat.append
            for e_rid, a, d, feas, s, slot, combo in pj:
                st = comp_j if comp_j > a else a
                compute_s = combo[6][j]
                fin = st + compute_s
                comp_j = fin
                dapp(combo[7][j])
                iapp(combo[13] + slot)
                spot = False
                if sce_j:
                    hs_j += 1
                    if hs_j >= sce_j:
                        hs_j = 0
                        spots_j += 1
                        key = combo[9][slot]
                        fresh = node._plain_forward(
                            combo[0], combo[10][slot][1]
                        )
                        if not np.array_equal(fresh, memo._entries[key]):
                            raise ConfigurationError(
                                f"analytic spot check failed on node "
                                f"{node.node_id!r} for model {combo[0]!r}: "
                                "memoised predictions diverge from a fresh "
                                "forward (input digests must uniquely "
                                "identify request images)"
                            )
                        spot = True
                rapp((
                    e_rid, combo[0], nid, sla_values[s], combo[14], a, st,
                    fin, compute_s, d, d is not None and (fin - a) > d, True,
                    False, feas, "analytic", 1, spot, False,
                ))
                sapp(st)
            k = len(pj)
            st_arr[filled:filled + k] = sts_j
            rk_arr[filled:filled + k] = order_of[j]
            filled += k
            comp[j] = comp_j
            if comp_j > mxfin:
                mxfin = comp_j
            node.available_s = comp_j
            completed[nid] = comp_j
            node._memo_hits_since_check = hs_j
            node.spot_checks += spots_j
        # --- merged order + chunk-boundary write-backs ------------------ #
        # Stable sort by (start, node rank) == the heap's pick order:
        # per-node starts are nondecreasing, so this *is* the k-way merge.
        order = np.lexsort((rk_arr, st_arr))
        rows = [rows_cat[k] for k in order.tolist()]
        base = telemetry.record_rows_batch(rows)
        inv = np.empty(n, dtype=np.intp)
        inv[order] = np.arange(n, dtype=np.intp)
        for j in range(nn):
            pj = pend[j]
            if not pj:
                continue
            ofs = offsets[j]
            k = len(pj)
            buf2 = buffers[node_ids[j]]
            buf2.row_indexes.extend((inv[ofs:ofs + k] + base).tolist())
            buf2.ordinals.extend(range(ord0s[j], ord0s[j] + k))
            buf2.fractions.extend(repeat(1.0, k))
        # Memo hit counters and LRU order: one pass per distinct memo,
        # touching each *key* once (in last-touch order) instead of once
        # per dispatch.
        groups: Dict[int, list] = {}
        for j in range(nn):
            if pend[j]:
                groups.setdefault(
                    id(active[j].forward_memo), []
                ).append(j)
        ids_arr = np.asarray(ids_cat, dtype=np.intp)
        for members in groups.values():
            memo = active[members[0]].forward_memo
            memo.hits += sum(len(pend[j]) for j in members)
            last = np.full(len(key_table), -1, dtype=np.intp)
            if len(members) == 1:
                j = members[0]
                ofs = offsets[j]
                sl = slice(ofs, ofs + len(pend[j]))
                # Within one node positions are already ascending, so the
                # final assignment per key id is its last touch.
                last[ids_arr[sl]] = inv[sl]
            else:
                ids_g = np.concatenate(
                    [ids_arr[offsets[j]:offsets[j] + len(pend[j])]
                     for j in members]
                )
                pos_g = np.concatenate(
                    [inv[offsets[j]:offsets[j] + len(pend[j])]
                     for j in members]
                )
                srt = np.argsort(pos_g, kind="stable")
                last[ids_g[srt]] = pos_g[srt]
            touched = np.nonzero(last >= 0)[0]
            move = memo._entries.move_to_end
            ordered = touched[np.argsort(last[touched], kind="stable")]
            for kid in ordered.tolist():
                move(key_table[kid])
        last_arrival = arr[end - 1]
        self.clock_s = mxfin if mxfin > last_arrival else last_arrival
        self._completed_count += n
        self._next_rid = rid
        telemetry.maybe_fold()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Settle deferred charges (idempotent)."""
        self.flush_all()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def ledger(self) -> MacroStatistics:
        """Cluster-level ledger: the merge of every node's lifetime ledger."""
        self.flush_all()
        merged = MacroStatistics()
        for node in self.nodes:
            merged.merge(node.ledger())
        return merged

    def summary(self) -> Dict[str, object]:
        """Fleet-wide report: telemetry aggregates plus per-node summaries,
        each merged with the node's telemetry aggregates as ``telemetry_<key>``."""
        self.flush_all()
        return {
            "clock_s": self.clock_s,
            "queue_depth": float(self.queue_depth()),
            "completed_requests": float(self.completed_requests),
            "replayed_requests": float(self.replayed_requests),
            "fault_events_applied": float(len(self.fault_log)),
            "cluster": self.telemetry.summary(),
            "nodes": {
                node.node_id: {
                    **node.summary(),
                    **{
                        f"telemetry_{key}": value
                        for key, value in self.telemetry.node_summary(node.node_id).items()
                    },
                }
                for node in self.nodes
            },
        }
