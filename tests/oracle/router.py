"""The frozen per-request object router: the differential oracle.

This is the cluster router's original object implementation — one
:class:`~oracle.scheduler.ClusterRequest` and
:class:`~repro.cluster.scheduler.PlacementDecision` per request, ranked by
the frozen object-form :func:`oracle.scheduler.choose`, an immediate engine
charge per dispatch, one :class:`~repro.cluster.telemetry.RequestTrace` per
completion, and the plain per-request trace-replay loop — kept unchanged
as the reference :class:`repro.cluster.router.ClusterRouter` must match bit
for bit.  No production path uses it; the differential suite
(``tests/test_event_kernel.py``) and ``benchmarks/bench_event_kernel.py``
run both on the same workload and compare every observable.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from oracle.scheduler import ClusterRequest, choose
from oracle.telemetry import ClusterTelemetry
from repro.cluster.instrumentation import attach_cluster_observability
from repro.cluster.node import ClusterNode, NodeState
from repro.cluster.router import ClusterResult
from repro.cluster.scheduler import (
    NoActiveNodesError,
    PlacementDecision,
    SLAClass,
    SLAScheduler,
)
from repro.cluster.telemetry import RequestTrace
from repro.core.stats import MacroStatistics
from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer
from repro.reliability.faults import FaultEvent, FaultKind, FaultPlan
from repro.utils.validation import check_positive

__all__ = ["ObjectRouter"]


class ObjectRouter:
    """The per-request object router (the frozen differential oracle)."""

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        scheduler: Optional[SLAScheduler] = None,
        telemetry: Optional[ClusterTelemetry] = None,
        coalesce: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        nodes = list(nodes)
        if not nodes:
            raise ConfigurationError("a cluster needs at least one node")
        ids = [node.node_id for node in nodes]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"node ids must be unique, got {ids}")
        self.nodes = nodes
        self._by_id: Dict[str, ClusterNode] = {node.node_id: node for node in nodes}
        self.scheduler = scheduler if scheduler is not None else SLAScheduler()
        self.telemetry = telemetry if telemetry is not None else ClusterTelemetry()
        self.coalesce = coalesce
        self.fault_plan = fault_plan
        self._fault_events: Tuple[FaultEvent, ...] = (
            tuple(fault_plan) if fault_plan is not None else ()
        )
        for event in self._fault_events:
            if event.node_id not in self._by_id:
                raise ConfigurationError(f"fault plan names unknown node {event.node_id!r}")
        self._fault_cursor = 0
        self.fault_log: List[FaultEvent] = []
        self._replayed: Set[int] = set()
        self.replayed_placements = 0
        self.clock_s = 0.0
        self._queues: Dict[str, Deque[Tuple[ClusterRequest, PlacementDecision]]] = {
            node.node_id: deque() for node in nodes
        }
        self._completed_s: Dict[str, float] = {node.node_id: 0.0 for node in nodes}
        self._results: Dict[int, ClusterResult] = {}
        self._failed: Dict[int, BaseException] = {}
        self._decisions: Dict[int, PlacementDecision] = {}
        self._next_request_id = 0
        self._heap: List[Tuple[float, str]] = []
        self._queued_requests = 0
        self._pending_by_model: Dict[str, Dict[str, int]] = {}
        self._seen_state: Dict[str, NodeState] = {node.node_id: node.state for node in nodes}
        self._stranded: Set[str] = set()
        self._obs = None
        self.tracer = tracer
        if metrics is not None:
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
        return self._queued_requests

    @property
    def completed_requests(self) -> int:
        """Requests that produced a result (the conservation numerator)."""
        return len(self._results)

    @property
    def failed_requests(self) -> int:
        """Requests whose dispatch raised (re-raised by :meth:`result`)."""
        return len(self._failed)

    @property
    def replayed_requests(self) -> int:
        """Distinct requests re-placed after admission (crash/park replay)."""
        return len(self._replayed)

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
        between two dispatches (e.g. during a run of admissions), and a
        diff of before/after states would see nothing happened.
        """
        node = self._by_id[event.node_id]
        if event.kind is FaultKind.CRASH:
            if node.state is not NodeState.FAILED:
                node.fail()
            self._seen_state[event.node_id] = NodeState.FAILED
            if self._queues[event.node_id]:
                # The same exclusion/re-placement machinery parking uses.
                self._replace_parked_backlog(event.node_id)
        elif event.kind is FaultKind.RECOVER:
            node.recover()
            if self._seen_state[event.node_id] is not NodeState.ACTIVE:
                self._seen_state[event.node_id] = NodeState.ACTIVE
                self._push_head_candidate(event.node_id)
                self._retry_stranded()
        elif event.kind is FaultKind.STALL:
            # The hiccup pushes the node's completion clock forward; the
            # lazy dispatch heap revalidates starts, so no heap surgery.
            self._completed_s[event.node_id] = (
                max(self._completed_s[event.node_id], event.at_s) + event.duration_s
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
        nothing can run until a scripted recovery — time must pass for the
        recovery to fire, so the router advances to it instead of giving
        up with requests still queued.
        """
        if self._fault_cursor >= len(self._fault_events):
            return False
        self.clock_s = max(
            self.clock_s, self._fault_events[self._fault_cursor].at_s
        )
        return True

    # ------------------------------------------------------------------ #
    # Queue bookkeeping (counters + dispatch heap stay consistent)
    # ------------------------------------------------------------------ #
    def _enqueue(
        self, node_id: str, request: ClusterRequest, decision: PlacementDecision
    ) -> None:
        """Append a placement to a node's queue, maintaining the counters."""
        queue = self._queues[node_id]
        queue.append((request, decision))
        self._queued_requests += 1
        counts = self._pending_by_model.setdefault(request.model_id, {})
        counts[node_id] = counts.get(node_id, 0) + 1
        if len(queue) == 1 and self._by_id[node_id].state is NodeState.ACTIVE:
            heapq.heappush(
                self._heap,
                (max(self._completed_s[node_id], request.arrival_s), node_id),
            )

    def _dequeue_head(self, node_id: str) -> Tuple[ClusterRequest, PlacementDecision]:
        """Pop a node's queue head, maintaining the counters."""
        request, decision = self._queues[node_id].popleft()
        self._queued_requests -= 1
        counts = self._pending_by_model[request.model_id]
        remaining = counts[node_id] - 1
        if remaining:
            counts[node_id] = remaining
        else:
            del counts[node_id]
            if not counts:
                del self._pending_by_model[request.model_id]
        return request, decision

    def _push_head_candidate(self, node_id: str) -> None:
        """(Re-)announce a node's queue head to the dispatch heap."""
        queue = self._queues[node_id]
        if queue:
            heapq.heappush(
                self._heap,
                (max(self._completed_s[node_id], queue[0][0].arrival_s), node_id),
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
            images: ``(batch, channels, height, width)`` float64 tensor.
            sla: The request's service class (latency / throughput /
                best effort).
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
            raise ConfigurationError(
                "expected a non-empty (batch, channels, height, width) array"
            )
        if sla is SLAClass.LATENCY:
            if deadline_s is None or deadline_s <= 0:
                raise ConfigurationError(
                    "latency-class requests need a positive deadline_s"
                )
        arrival = self.clock_s if arrival_s is None else float(arrival_s)
        if arrival < 0:
            raise ConfigurationError("arrival_s must be non-negative")
        if arrival > self.clock_s:
            self.clock_s = arrival
        # Scripted faults the arrival clock has reached fire before
        # placement, so admission never chooses a node that is already
        # (virtually) dead at this request's arrival.
        self._apply_due_faults()

        request = ClusterRequest(
            request_id=self._next_request_id,
            model_id=model_id,
            images=images,
            sla=sla,
            arrival_s=arrival,
            deadline_s=deadline_s,
            input_digest=input_digest,
        )
        self._next_request_id += 1

        try:
            decision = choose(
                self.scheduler,
                request,
                self.nodes,
                self.telemetry,
                pending=self._pending_nodes(model_id),
            )
        except NoActiveNodesError:
            # Only the capacity outage is caught — request validation
            # errors (plain ConfigurationError) always propagate.
            states = [node.state for node in self.nodes]
            if NodeState.FAILED not in states:
                # A fully *parked* fleet is an operator decision and still
                # refuses admission (pinned behaviour); only a fault
                # outage gets the stranding path.
                raise
            # Total outage with failed capacity: the request is admitted
            # anyway — stranded deterministically on the first node — and
            # replays through the normal machinery when any node recovers
            # or wakes.  Dropping admissions during an outage would break
            # request conservation.
            self._strand_admission(request)
            return request.request_id
        node = self._by_id[decision.node_id]
        # Reserve the backlog: the next admission must queue behind this
        # request's modeled span.
        node.available_s = decision.est_finish_s
        self._enqueue(node.node_id, request, decision)
        self._decisions[request.request_id] = decision
        return request.request_id

    def _strand_admission(self, request: ClusterRequest) -> PlacementDecision:
        """Queue a request admitted while the whole fleet is down."""
        node = min(self.nodes, key=lambda n: n.node_id)
        decision = PlacementDecision(
            request_id=request.request_id,
            node_id=node.node_id,
            sla=request.sla,
            feasible=False,
            affinity_hit=False,
            replicated=False,
            est_start_s=request.arrival_s,
            est_finish_s=request.arrival_s,  # zero-span: re-priced on replay
            est_latency_s=0.0,
            est_energy_per_image_j=0.0,
            candidates=0,
        )
        self._enqueue(node.node_id, request, decision)
        self._decisions[request.request_id] = decision
        self._stranded.add(node.node_id)
        return decision

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _rebuild_reservation(self, node_id: str) -> None:
        """Re-derive a node's reserved clock from measured reality.

        The reservation becomes the node's measured completion time plus
        the modeled span of everything still queued on it.  Each queued
        decision contributes its own span (est_finish - est_start
        at admission), re-chained from reality — this is how reservations
        stay exact when a dispatch finishes (or fails) at a different time
        than its admission-time estimate assumed.
        """
        available = self._completed_s[node_id]
        for request, decision in self._queues[node_id]:
            start = max(available, request.arrival_s)
            available = start + (decision.est_finish_s - decision.est_start_s)
        self._by_id[node_id].available_s = available

    def _pending_nodes(self, model_id: str) -> frozenset:
        """Node ids with queued (not yet executed) placements of a model.

        The scheduler counts these as replicas-in-the-making so a burst of
        admissions cannot replicate a hot model past its cap.  Served from
        the incrementally maintained counters — O(replicas), not O(queue).
        """
        counts = self._pending_by_model.get(model_id)
        if not counts:
            return frozenset()
        return frozenset(counts)

    def _sync_states(self) -> None:
        """React to park/wake transitions since the previous dispatch.

        Nodes are parked and woken directly (operators, the autoscaler), so
        the router diffs each node's lifecycle state against what it last
        saw instead of re-scanning every parked backlog per dispatch: when
        nothing changed, this is a handful of identity comparisons.  An
        ACTIVE -> PARKED transition strands that node's backlog and
        re-places it; a wake re-announces the node's queue head and retries
        any backlog stranded while the whole fleet was parked.
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
        """Re-try backlogs stranded while the whole fleet was down.

        Called when any node returns to rotation (wake or recovery; the
        returning node's own head candidate is pushed by the caller).
        """
        for node_id in sorted(self._stranded):
            if self._by_id[node_id].state is NodeState.ACTIVE:
                # The stranded node itself returned: its backlog runs
                # where it is.
                self._stranded.discard(node_id)
            elif self._queues[node_id]:
                self._replace_parked_backlog(node_id)
            else:
                self._stranded.discard(node_id)

    def _replace_parked_backlog(self, node_id: str) -> None:
        """Re-place one parked node's queued requests onto active nodes.

        Parking is allowed while work is queued (an operator can park any
        node at any time); the stranded requests are re-scheduled instead
        of failing.  With no active node left they stay queued on the
        parked node (marked stranded) until something wakes.
        """
        node = self._by_id[node_id]
        stranded: List[Tuple[ClusterRequest, PlacementDecision]] = []
        while self._queues[node_id]:
            stranded.append(self._dequeue_head(node_id))
        node.available_s = self._completed_s[node_id]
        for index, (request, _) in enumerate(stranded):
            try:
                decision = choose(
                    self.scheduler,
                    request,
                    self.nodes,
                    self.telemetry,
                    pending=self._pending_nodes(request.model_id),
                )
            except NoActiveNodesError:
                # No active nodes: park the rest back where they were,
                # restoring the reservation that covers them.
                for item in stranded[index:]:
                    self._enqueue(node_id, *item)
                self._rebuild_reservation(node_id)
                self._stranded.add(node_id)
                return
            target = self._by_id[decision.node_id]
            target.available_s = decision.est_finish_s
            self._enqueue(target.node_id, request, decision)
            self._decisions[request.request_id] = decision
            self._replayed.add(request.request_id)
            self.replayed_placements += 1
        self._stranded.discard(node_id)

    def _select_head(self) -> Optional[Tuple[str, float]]:
        """Pop the (node, start) pair that can dispatch earliest.

        Lazy-heap selection: a popped candidate is validated against the
        node's *current* state — still active, still has that queue head,
        still starts at the recorded time — and re-pushed corrected when
        stale.  Starts only ever move later (completions advance the
        node's clock, queue heads are FIFO), so the first validated entry
        is the global ``min (start, node_id)``, exactly what the previous
        full scan selected.
        """
        heap = self._heap
        while heap:
            start, node_id = heapq.heappop(heap)
            if self._by_id[node_id].state is not NodeState.ACTIVE:
                continue
            queue = self._queues[node_id]
            if not queue:
                continue
            actual = max(self._completed_s[node_id], queue[0][0].arrival_s)
            if actual != start:
                heapq.heappush(heap, (actual, node_id))
                continue
            return node_id, start
        return None

    def _gather_group(
        self, node: ClusterNode, start: float
    ) -> List[Tuple[ClusterRequest, PlacementDecision]]:
        """Pop the dispatch group from a node's queue head.

        Without coalescing this is exactly the head request.  With
        coalescing, consecutive queued requests of the same model (and
        image geometry) that have already arrived by ``start`` are merged
        while the total stays inside one ``max_batch_size`` dispatch.
        """
        node_id = node.node_id
        group = [self._dequeue_head(node_id)]
        if not self.coalesce:
            return group
        head = group[0][0]
        budget = node.max_batch_size - head.image_count
        queue = self._queues[node_id]
        while queue:
            candidate = queue[0][0]
            if (
                candidate.model_id != head.model_id
                or candidate.arrival_s > start
                or candidate.image_count > budget
                or candidate.images.shape[1:] != head.images.shape[1:]
            ):
                break
            budget -= candidate.image_count
            group.append(self._dequeue_head(node_id))
        return group

    def _dispatch_group(self) -> List[ClusterResult]:
        """Execute the next dispatch (one request, or a coalesced group)."""
        while True:
            self._apply_due_faults()
            self._sync_states()
            selected = self._select_head()
            if selected is not None:
                break
            # Nothing dispatchable.  If work is queued and scripted events
            # remain, let virtual time pass to the next event (a recovery
            # may unstrand the backlog); otherwise the router is idle.
            if self._queued_requests and self._advance_to_next_fault():
                continue
            return []
        node_id, start = selected
        node = self._by_id[node_id]
        group = self._gather_group(node, start)

        try:
            if len(group) == 1:
                request = group[0][0]
                dispatch = node.execute(
                    request.model_id, request.images, input_digest=request.input_digest
                )
                predictions = [dispatch.predictions]
            else:
                predictions, dispatch = node.execute_group(
                    group[0][0].model_id,
                    [(request.images, request.input_digest) for request, _ in group],
                )
        except Exception as error:
            # Mirror the serve layer's contract one level up: the failure is
            # stored on the requests (re-raised by result()) instead of the
            # requests silently vanishing from the queue.  The failed
            # reservations are genuinely released: the node's clock is
            # re-derived from measured reality plus the spans of what is
            # still queued (not from tail estimates that embed the failed
            # spans).
            for request, _ in group:
                self._failed[request.request_id] = error
            self._rebuild_reservation(node_id)
            self._push_head_candidate(node_id)
            raise
        finish = start + dispatch.compute_s
        self._completed_s[node_id] = finish
        if finish > self.clock_s:
            self.clock_s = finish
        # Executed work no longer needs its reservation; re-chain the
        # remaining backlog's spans from measured reality (estimates of
        # cold multi-layer dispatches can drift a little from actuals).
        self._rebuild_reservation(node_id)
        self._push_head_candidate(node_id)

        total_images = sum(request.image_count for request, _ in group)
        results: List[ClusterResult] = []
        coalesced = len(group)
        for (request, decision), request_predictions, spot_checked in zip(
            group, predictions, dispatch.spot_checked
        ):
            if coalesced == 1:
                compute_share = dispatch.compute_s
                energy_share = dispatch.energy_j
            else:
                # A merged dispatch finishes as one unit; its cost is
                # attributed proportionally to each request's image count
                # (every layer's work scales linearly with the rows a
                # request contributes to the batch).
                fraction = request.image_count / total_images
                compute_share = dispatch.compute_s * fraction
                energy_share = dispatch.energy_j * fraction
            latency = finish - request.arrival_s
            missed = request.deadline_s is not None and latency > request.deadline_s
            span_id = None
            if self.tracer is not None and self.tracer.should_sample(
                request.request_id
            ):
                span_id = self.tracer.emit_request(
                    request.request_id,
                    node_id,
                    request.arrival_s,
                    start,
                    finish,
                    compute_share,
                    sla=request.sla.value,
                )
            trace = RequestTrace(
                request_id=request.request_id,
                model_id=request.model_id,
                node_id=node_id,
                sla=request.sla.value,
                images=request.image_count,
                arrival_s=request.arrival_s,
                start_s=start,
                finish_s=finish,
                compute_s=compute_share,
                energy_j=energy_share,
                deadline_s=request.deadline_s,
                deadline_missed=missed,
                affinity_hit=dispatch.affinity_hit,
                programmed=dispatch.programmed,
                feasible_at_admission=decision.feasible,
                execution_mode=dispatch.execution_mode,
                coalesced=coalesced,
                spot_checked=spot_checked,
                replayed=request.request_id in self._replayed,
                span_id=span_id,
            )
            self.telemetry.record(trace)
            result = ClusterResult(
                trace=trace, sla=request.sla, predictions=request_predictions
            )
            self._results[request.request_id] = result
            results.append(result)
        return results

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
        results = self._dispatch_group()
        return results[0] if results else None

    def drain(self) -> List[ClusterResult]:
        """Execute the whole backlog in earliest-start order.

        Returns:
            Every :class:`ClusterResult` completed by this call, in
            completion order.
        """
        if self._obs is not None:
            self._obs.drains.inc()
        completed: List[ClusterResult] = []
        while True:
            results = self._dispatch_group()
            if not results:
                return completed
            completed.extend(results)

    def replay_trace(
        self, trace, image_pool, drain_every: int = 64, autoscaler=None
    ) -> Dict[str, float]:
        """Stream a workload trace through the router in arrival order.

        The plain per-request loop (round-robin pool slots, a drain every
        ``drain_every`` admissions, the autoscaler observing before each
        drain) — the reference the core's turbo chunks must match.
        """
        from repro.cluster.workload import SLA_ORDER

        check_positive("drain_every", drain_every)
        arrivals = trace.arrivals_s
        counts = trace.image_counts
        model_indices = trace.model_indices
        sla_indices = trace.sla_indices
        deadlines = trace.deadlines_s
        model_ids = trace.model_ids
        slot_cursor: Dict[Tuple[str, int], int] = {}

        requests = len(trace)
        completed = 0
        start_wall = time.perf_counter()
        for index in range(requests):
            model_id = model_ids[model_indices[index]]
            count = int(counts[index])
            slots = image_pool[(model_id, count)]
            cursor = slot_cursor.get((model_id, count), 0)
            digest, images = slots[cursor]
            slot_cursor[(model_id, count)] = (cursor + 1) % len(slots)
            deadline = deadlines[index]
            self.submit(
                model_id,
                images,
                sla=SLA_ORDER[sla_indices[index]],
                deadline_s=None if np.isnan(deadline) else float(deadline),
                arrival_s=float(arrivals[index]),
                input_digest=digest,
            )
            if (index + 1) % drain_every == 0:
                if autoscaler is not None:
                    autoscaler.observe()
                completed += len(self.drain())
        if autoscaler is not None:
            autoscaler.observe()
        completed += len(self.drain())
        wall_s = time.perf_counter() - start_wall

        return {
            "requests": float(requests),
            "completed": float(completed),
            "images": float(trace.total_images),
            "wall_s": wall_s,
            "requests_per_s": requests / wall_s if wall_s > 0 else 0.0,
            "images_per_s": trace.total_images / wall_s if wall_s > 0 else 0.0,
        }

    def result(self, request_id: int) -> ClusterResult:
        """The completed result of a request.

        Re-raises the original execution failure if the request's dispatch
        failed, and raises :class:`ConfigurationError` while it is queued.
        """
        if request_id in self._failed:
            raise self._failed[request_id]
        if request_id not in self._results:
            raise ConfigurationError(
                f"request {request_id} is not complete; call drain()"
            )
        return self._results[request_id]

    def decision(self, request_id: int) -> PlacementDecision:
        """The admission-time placement decision of a request."""
        if request_id not in self._decisions:
            raise ConfigurationError(f"unknown request {request_id}")
        return self._decisions[request_id]

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Nothing to release: node forwards are synchronous (idempotent)."""

    def __enter__(self) -> "ObjectRouter":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #
    def ledger(self) -> MacroStatistics:
        """Cluster-level ledger: the merge of every node's lifetime ledger."""
        merged = MacroStatistics()
        for node in self.nodes:
            merged.merge(node.ledger())
        return merged

    def summary(self) -> Dict[str, object]:
        """Fleet-wide report: telemetry aggregates plus per-node summaries."""
        return {
            "clock_s": self.clock_s,
            "queue_depth": float(self.queue_depth()),
            "completed_requests": float(self.completed_requests),
            "replayed_requests": float(self.replayed_requests),
            "fault_events_applied": float(len(self.fault_log)),
            "cluster": self.telemetry.summary(),
            "nodes": {node.node_id: node.summary() for node in self.nodes},
        }
