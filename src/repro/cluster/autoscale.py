"""Reactive autoscaling: wake/park nodes and retune operating points.

The autoscaler closes the loop between telemetry and fleet shape.  It is
deliberately *reactive* and rule-based — every decision is a pure function
of the router's current queue depth and the telemetry window, so the same
workload always produces the same scaling trajectory (pinned by tests):

* **wake** — when the backlog per active node exceeds ``wake_queue_depth``,
  or the latency class is missing deadlines, a parked node returns to
  rotation (the fastest parked node under miss pressure, the most
  energy-efficient one under pure backlog pressure);
* **park** — a node whose queue is empty and that served nothing for
  ``park_after_idle`` consecutive observations is taken out of rotation
  (highest-VDD first: idle fast silicon is the expensive kind), never below
  ``min_active``;
* **retune up** — miss pressure with nothing left to wake moves the slowest
  active node one rung up the voltage ladder (DVFS as the escalation after
  horizontal scaling is exhausted);
* **retune down** — a quiet fleet (no backlog, no recent latency traffic)
  moves the fastest active node one rung down to the efficient end.

Retuning rebuilds the node's chip, so its weight cache empties and the next
dispatch pays re-programming — the autoscaler only retunes nodes whose
queues are empty, which keeps that cost off the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cluster.node import NodeState
from repro.cluster.router import ClusterRouter
from repro.cluster.scheduler import SLAClass
from repro.errors import ConfigurationError

__all__ = ["ScalingAction", "ReactiveAutoscaler"]


@dataclass(frozen=True)
class ScalingAction:
    """One actuation the autoscaler performed."""

    step: int
    action: str  # "wake" | "park" | "retune_up" | "retune_down"
    node_id: str
    vdd: float
    reason: str


def _reason_category(reason: str) -> str:
    """Collapse a free-text action reason to a bounded label value.

    The full reason strings carry run-specific numbers ("queue depth 7
    over 2 active nodes"), which would explode metric label cardinality;
    the category keeps the *why* scrapeable.
    """
    for prefix, category in (
        ("failure pressure", "failure_pressure"),
        ("deadline miss rate", "deadline_miss"),
        ("queue depth", "queue_depth"),
        ("idle for", "idle"),
        ("fleet quiet", "fleet_quiet"),
    ):
        if reason.startswith(prefix):
            return category
    return "other"


class ReactiveAutoscaler:
    """Queue-depth / deadline-miss driven fleet controller."""

    def __init__(
        self,
        router: ClusterRouter,
        min_active: int = 1,
        wake_queue_depth: int = 3,
        park_after_idle: int = 3,
        miss_rate_threshold: float = 0.0,
        voltage_rungs: Sequence[float] = (0.6, 0.8, 1.0),
    ) -> None:
        if min_active < 1:
            raise ConfigurationError("min_active must be at least 1")
        if wake_queue_depth < 1:
            raise ConfigurationError("wake_queue_depth must be at least 1")
        if park_after_idle < 1:
            raise ConfigurationError("park_after_idle must be at least 1")
        if not voltage_rungs:
            raise ConfigurationError("voltage_rungs must be non-empty")
        self.router = router
        self.min_active = min_active
        self.wake_queue_depth = wake_queue_depth
        self.park_after_idle = park_after_idle
        self.miss_rate_threshold = miss_rate_threshold
        self.voltage_rungs = tuple(sorted(voltage_rungs))
        self.step = 0
        self.actions: List[ScalingAction] = []
        self._idle_steps: Dict[str, int] = {node.node_id: 0 for node in router.nodes}
        self._dispatches_seen: Dict[str, int] = {
            node.node_id: node.telemetry.dispatches for node in router.nodes
        }
        #: Traces seen as of the previous observation; starts at zero so the
        #: first observe() treats pre-attachment history as fresh traffic.
        #: Counter-based (not a trace-list slice) so the probe works when
        #: the telemetry keeps aggregates only and retains no trace rows.
        self._traces_seen = 0
        self._deadline_traces_seen = 0
        #: Actions already folded into a bound metrics registry.
        self._actions_folded = 0
        self._actions_metric = None

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def bind_metrics(self, registry) -> None:
        """Expose scaling decisions through a :class:`repro.obs` registry.

        Registers ``autoscaler_actions_total{action, reason}`` plus a
        ``autoscaler_steps_total`` counter, folded lazily at scrape time
        from the action log — the control loop itself stays untouched.
        """
        self._actions_metric = registry.counter(
            "autoscaler_actions_total",
            "Scaling actuations taken, by action and reason category.",
            labelnames=("action", "reason"),
        )
        self._steps_metric = registry.counter(
            "autoscaler_steps_total",
            "Autoscaler control iterations observed.",
        )
        registry.register_collector(lambda _registry: self._fold_actions())

    def _fold_actions(self) -> None:
        pending = self.actions[self._actions_folded :]
        for action in pending:
            self._actions_metric.labels(
                action=action.action, reason=_reason_category(action.reason)
            ).inc()
        self._actions_folded = len(self.actions)
        delta = self.step - self._steps_metric.value
        if delta > 0:
            self._steps_metric.inc(delta)

    # ------------------------------------------------------------------ #
    # Rung arithmetic
    # ------------------------------------------------------------------ #
    def _rung_above(self, vdd: float) -> Optional[float]:
        for rung in self.voltage_rungs:
            if rung > vdd + 1e-9:
                return rung
        return None

    def _rung_below(self, vdd: float) -> Optional[float]:
        for rung in reversed(self.voltage_rungs):
            if rung < vdd - 1e-9:
                return rung
        return None

    # ------------------------------------------------------------------ #
    # The control step
    # ------------------------------------------------------------------ #
    def observe(self) -> List[ScalingAction]:
        """One control iteration; returns the actions it took (often none)."""
        self.step += 1
        actions: List[ScalingAction] = []
        router = self.router
        active = [n for n in router.nodes if n.state is NodeState.ACTIVE]
        parked = [n for n in router.nodes if n.state is NodeState.PARKED]
        failed = [n for n in router.nodes if n.state is NodeState.FAILED]
        depth = router.queue_depth()
        miss_rate = router.telemetry.recent_deadline_miss_rate(
            sla=SLAClass.LATENCY.value
        )
        # The window only moves when requests are dispatched, so an old miss
        # would otherwise read as pressure forever — on an idle fleet, or
        # (worse) on one serving pure throughput traffic that keeps the
        # window alive.  Miss pressure therefore requires *deadline-class*
        # traffic since the last observation: without it the fleet may
        # decay (park / retune down) normally.
        trace_count = router.telemetry.trace_count
        deadline_count = router.telemetry.deadline_trace_count
        latency_traffic = deadline_count > self._deadline_traces_seen
        self._traces_seen = trace_count
        self._deadline_traces_seen = deadline_count
        miss_pressure = latency_traffic and miss_rate > self.miss_rate_threshold

        # Update idle tracking before acting: a node is idle this step when
        # nothing new was dispatched on it and nothing is queued for it.
        for node in router.nodes:
            seen = self._dispatches_seen[node.node_id]
            now = node.telemetry.dispatches
            self._dispatches_seen[node.node_id] = now
            queued = router.queue_depth(node.node_id)
            if node.state is NodeState.ACTIVE and now == seen and not queued:
                self._idle_steps[node.node_id] += 1
            else:
                self._idle_steps[node.node_id] = 0

        # 0. Failure pressure: dead capacity with work on the books wakes a
        # spare immediately — a crash is not a demand signal that should
        # have to climb over the queue-depth threshold.  The fastest parked
        # node replaces the failed one (the replayed requests already lost
        # time; do not hand them to slow silicon too).
        if failed and parked and (depth > 0 or miss_pressure):
            # max_frequency_hz folds in both the rail and the die's bin
            # derate, so "fastest" holds on uniform-vdd binned fleets too.
            node = max(parked, key=lambda n: (n.max_frequency_hz, n.node_id))
            node.wake()
            self._idle_steps[node.node_id] = 0
            actions.append(
                ScalingAction(
                    self.step,
                    "wake",
                    node.node_id,
                    node.vdd,
                    f"failure pressure: {len(failed)} node(s) failed",
                )
            )
            active.append(node)
            parked.remove(node)

        # 1. Wake under pressure.  With zero active nodes any backlog at
        # all must wake something — nothing else can ever drain it.
        if parked and (miss_pressure or depth > self.wake_queue_depth * len(active)):
            if miss_pressure:
                # Deadlines are bleeding: bring back the fastest silicon
                # (frequency, not vdd — bins derate dice at the same rail).
                node = max(parked, key=lambda n: (n.max_frequency_hz, n.node_id))
                reason = f"deadline miss rate {miss_rate:.2f}"
            else:
                # Pure backlog: the efficient node absorbs it cheapest.
                node = min(parked, key=lambda n: (n.vdd, n.node_id))
                reason = f"queue depth {depth} over {len(active)} active nodes"
            node.wake()
            self._idle_steps[node.node_id] = 0
            actions.append(
                ScalingAction(self.step, "wake", node.node_id, node.vdd, reason)
            )
            active.append(node)
            parked.remove(node)

        # 2. Retune up when miss pressure persists with nothing left to wake.
        elif miss_pressure and not parked:
            candidates = [
                n
                for n in active
                if not router.queue_depth(n.node_id)
                and self._rung_above(n.vdd) is not None
            ]
            if candidates:
                node = min(candidates, key=lambda n: (n.vdd, n.node_id))
                target = self._rung_above(node.vdd)
                node.retune(target)
                actions.append(
                    ScalingAction(
                        self.step,
                        "retune_up",
                        node.node_id,
                        target,
                        f"deadline miss rate {miss_rate:.2f}, no parked capacity",
                    )
                )

        # 3. Park long-idle nodes (never below min_active).
        if not miss_pressure and depth == 0:
            idle = [
                n
                for n in active
                if self._idle_steps[n.node_id] >= self.park_after_idle
            ]
            idle.sort(key=lambda n: (-n.vdd, n.node_id))
            for node in idle:
                if len(active) <= self.min_active:
                    break
                node.park()
                active.remove(node)
                self._idle_steps[node.node_id] = 0
                actions.append(
                    ScalingAction(
                        self.step,
                        "park",
                        node.node_id,
                        node.vdd,
                        f"idle for {self.park_after_idle} observations",
                    )
                )

            # 4. Retune down when the fleet is quiet and nothing latency-
            # critical ran recently: shift remaining capacity to the
            # efficient end of the ladder.
            if not router.telemetry.recent_has_sla(SLAClass.LATENCY.value):
                candidates = [
                    n
                    for n in active
                    if self._idle_steps[n.node_id] >= self.park_after_idle
                    and self._rung_below(n.vdd) is not None
                ]
                if candidates:
                    node = max(candidates, key=lambda n: (n.vdd, n.node_id))
                    target = self._rung_below(node.vdd)
                    node.retune(target)
                    self._idle_steps[node.node_id] = 0
                    actions.append(
                        ScalingAction(
                            self.step,
                            "retune_down",
                            node.node_id,
                            target,
                            "fleet quiet, no recent latency traffic",
                        )
                    )

        self.actions.extend(actions)
        return actions
