"""Deterministic virtual-time fault injection for the cluster runtime.

A :class:`FaultPlan` is an immutable script of node-level failure events on
the cluster's *modeled* (virtual) clock — the same clock the router runs
admission and dispatch on — so a chaos scenario is exactly as deterministic
as the workload itself: the same trace through the same plan on the same
fleet produces the same placements, replays, latencies and ledgers, in
either execution mode.  The semantics mirror the per-device-server failure
model of distributed instrument-control stacks (a device server crashes,
its queued work is re-routed, it reconnects later):

* ``CRASH``   — the node leaves rotation; requests queued on it are
  *replayed* through the scheduler onto surviving nodes (the router's
  existing exclusion/re-placement machinery), never lost or duplicated;
* ``RECOVER`` — the node returns to rotation at full health (a crash also
  clears any degradation);
* ``STALL``   — a transient hiccup: the node stays in rotation but its
  completion clock is pushed ``duration_s`` into the future, delaying
  everything queued behind it;
* ``DEGRADE`` — thermal throttling / partial failure: the node's modeled
  compute time stretches by ``factor`` (work and energy are unchanged —
  the silicon does the same switching, slower);
* ``RESTORE`` — degradation ends (factor returns to 1.0).

Events take effect at the first router step whose virtual clock has reached
their timestamp; ties apply in plan order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["FaultKind", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    """What happens to the node when the event fires."""

    CRASH = "crash"
    RECOVER = "recover"
    STALL = "stall"
    DEGRADE = "degrade"
    RESTORE = "restore"


@dataclass(frozen=True)
class FaultEvent:
    """One scripted fault on the virtual clock."""

    at_s: float
    kind: FaultKind
    node_id: str
    #: STALL only: how long the node's completion clock is pushed forward.
    duration_s: float = 0.0
    #: DEGRADE only: modeled compute-time multiplier (>= 1 throttles).
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError("fault events need a non-negative at_s")
        if not self.node_id:
            raise ConfigurationError("fault events need a node_id")
        if self.kind is FaultKind.STALL and self.duration_s <= 0:
            raise ConfigurationError("STALL events need a positive duration_s")
        if self.kind is FaultKind.DEGRADE and self.factor <= 0:
            raise ConfigurationError("DEGRADE events need a positive factor")


class FaultPlan:
    """An ordered, immutable schedule of fault events.

    The plan itself holds no cursor — the router keeps its own progress —
    so one plan can be replayed against many fleets (the fidelity benches
    run the identical plan through EXACT and ANALYTIC fleets).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()) -> None:
        ordered = list(events)
        for event in ordered:
            if not isinstance(event, FaultEvent):
                raise ConfigurationError(f"not a FaultEvent: {event!r}")
        # Stable sort: simultaneous events keep their scripted order.
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(ordered, key=lambda event: event.at_s)
        )

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def node_crash(
        cls,
        node_id: str,
        at_s: float,
        recover_at_s: Optional[float] = None,
    ) -> "FaultPlan":
        """A single crash (with optional scripted recovery)."""
        events = [FaultEvent(at_s=at_s, kind=FaultKind.CRASH, node_id=node_id)]
        if recover_at_s is not None:
            if recover_at_s <= at_s:
                raise ConfigurationError("recovery must follow the crash")
            events.append(
                FaultEvent(at_s=recover_at_s, kind=FaultKind.RECOVER, node_id=node_id)
            )
        return cls(events)

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """The union of two plans (events interleaved by timestamp)."""
        return FaultPlan(self.events + other.events)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def downtime_s(self, node_ids: Sequence[str], span_s: float) -> Dict[str, float]:
        """Scripted per-node downtime over ``[0, span_s]``.

        Crash-to-recovery intervals (open crashes run to the span end) plus
        stall durations; the scripted-availability denominator of
        reliability studies.  Degradation is slow, not down, and does not
        count.
        """
        if span_s < 0:
            raise ConfigurationError("span_s must be non-negative")
        downtime = {node_id: 0.0 for node_id in node_ids}
        down_since: Dict[str, float] = {}
        for event in self.events:
            if event.node_id not in downtime or event.at_s > span_s:
                continue
            if event.kind is FaultKind.CRASH:
                down_since.setdefault(event.node_id, event.at_s)
            elif event.kind is FaultKind.RECOVER:
                started = down_since.pop(event.node_id, None)
                if started is not None:
                    downtime[event.node_id] += event.at_s - started
            elif event.kind is FaultKind.STALL:
                downtime[event.node_id] += min(event.duration_s, span_s - event.at_s)
        for node_id, started in down_since.items():
            downtime[node_id] += span_s - started
        return downtime

    def availability(self, node_ids: Sequence[str], span_s: float) -> float:
        """Scripted fleet availability: 1 - downtime over node-time."""
        if not node_ids or span_s <= 0:
            return 1.0
        downtime = self.downtime_s(node_ids, span_s)
        return 1.0 - sum(downtime.values()) / (span_s * len(node_ids))
