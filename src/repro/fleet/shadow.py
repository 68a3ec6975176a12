"""Coordinator-side node replicas: charge the accounting, skip the math.

The fleet's central design move: the coordinator runs the *unmodified*
virtual-time admission/scheduling loop of :class:`~repro.cluster.router.
ClusterRouter` over :class:`ShadowNode` replicas of the fleet.  A shadow
charges every dispatch through the engine's exact-charge API
(:meth:`~repro.cluster.node.ClusterNode._charge_batches` — the same path
the analytic execution mode uses, pinned bit-identical to EXACT execution
by ``tests/test_execution_modes.py``) but never runs a numpy forward; the
expensive forwards happen in parallel on the worker processes, whose nodes
replay the identical dispatch sequence.

Because placements, reservations, virtual timing, ledgers and deadline
outcomes all derive from the shadow charges, the coordinator's loop is
*authoritative and oracle-identical by construction*: it never waits on a
worker, and a sharded run produces the same ledger sums and deadline-miss
sets as the single-process router.  Workers only contribute the
prediction tensors — which land, via completion messages, in the very
arrays the shadows handed out as placeholders (filled in place, so every
already-returned :class:`~repro.cluster.router.ClusterResult` sees them).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import (
    ClusterNode,
    ExecutionMode,
    NodeDispatch,
    NodeSpec,
    NodeState,
)
from repro.cluster.router import ClusterRouter
from repro.errors import ConfigurationError

__all__ = ["ShadowNode", "FleetRouter", "PendingGroup", "shadows_from_specs"]


class PendingGroup:
    """What a shadow dispatch left behind for the coordinator to ship.

    ``targets`` are the sentinel-filled placeholder arrays the router
    already handed out inside results; the worker's completion is written
    into them in place.  For a coalesced group the targets are consecutive
    views of one backing array, matching the worker's grouped forward.
    """

    __slots__ = ("model_id", "parts", "targets")

    def __init__(
        self,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
        targets: List[np.ndarray],
    ) -> None:
        self.model_id = model_id
        self.parts = list(parts)
        self.targets = targets


class ShadowNode(ClusterNode):
    """A charge-only replica of one fleet node.

    Built from the same :class:`~repro.cluster.node.NodeSpec` as the
    worker-side real node (``spec.build(node_cls=ShadowNode)``), so
    pricing, residency, batching and ledger behaviour match exactly.
    ``execute``/``execute_group`` report ``execution_mode="exact"``
    because that is what the paired worker runs — the shadow is an
    accounting proxy for it, not an analytic-mode node.  Its own mode is
    EXACT for the same reason, so the router charges every shadow dispatch
    directly and never takes the memoised analytic fast path.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.execution_mode = ExecutionMode.EXACT
        #: Coordinator callback ``(node_id, vdd)`` fired after a retune,
        #: so the worker replica mirrors the rail change in sequence.
        self.retune_hook = None
        #: The last dispatch, until the coordinator collects it.
        self._pending: Optional[PendingGroup] = None

    # ------------------------------------------------------------------ #
    # Lifecycle mirroring
    # ------------------------------------------------------------------ #
    def retune(self, vdd: float) -> None:
        """Retune the shadow, then notify the coordinator's retune hook."""
        if vdd == self.vdd:
            return
        super().retune(vdd)
        if self.retune_hook is not None:
            self.retune_hook(self.node_id, vdd)

    # ------------------------------------------------------------------ #
    # Charge-only execution
    # ------------------------------------------------------------------ #
    def take_pending(self) -> Optional[PendingGroup]:
        """Collect (and clear) the dispatch the last execute left behind."""
        pending, self._pending = self._pending, None
        return pending

    @staticmethod
    def _placeholder(images: int) -> np.ndarray:
        # Predictions are argmax class indices (always >= 0), so -1 is an
        # impossible value: a prediction read before its completion
        # arrived is loudly wrong instead of silently plausible.
        return np.full((images,), -1, dtype=np.int64)

    def _require_active(self) -> None:
        if self.state is not NodeState.ACTIVE:
            raise ConfigurationError(
                f"node {self.node_id!r} is {self.state.value}; it must return "
                "to rotation (wake/recover) before dispatching"
            )

    def execute(
        self,
        model_id: str,
        images: np.ndarray,
        input_digest: Optional[str] = None,
    ) -> NodeDispatch:
        """Charge one request's accounting; predictions stay sentinel-filled."""
        self._require_active()
        specs = self._layer_charge_specs(model_id, images.shape)
        affinity_hit = self.holds_model(model_id)
        misses_before = self.engine.cache.misses
        batches, compute, energy, critical = self._charge_batches(
            specs, int(images.shape[0])
        )
        placeholder = self._placeholder(int(images.shape[0]))
        self._pending = PendingGroup(
            model_id, [(images, input_digest)], [placeholder]
        )
        return NodeDispatch(
            predictions=placeholder,
            compute_s=compute,
            energy_j=energy,
            affinity_hit=affinity_hit,
            programmed=self.engine.cache.misses > misses_before,
            batches=batches,
            critical_path_cycles=critical,
            execution_mode=ExecutionMode.EXACT.value,
        )

    def execute_group(
        self,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
    ) -> Tuple[List[np.ndarray], NodeDispatch]:
        """Charge a coalesced group; per-part targets stay sentinel-filled."""
        self._require_active()
        if not parts:
            raise ConfigurationError("execute_group needs at least one request")
        first_shape = parts[0][0].shape
        if any(images.shape[1:] != first_shape[1:] for images, _ in parts):
            raise ConfigurationError(
                "coalesced requests must share one image geometry"
            )
        specs = self._layer_charge_specs(model_id, first_shape)
        affinity_hit = self.holds_model(model_id)
        misses_before = self.engine.cache.misses
        sizes = [int(images.shape[0]) for images, _ in parts]
        total = sum(sizes)
        batches, compute, energy, critical = self._charge_batches(specs, total)
        grouped = self._placeholder(total)
        targets: List[np.ndarray] = []
        offset = 0
        for size in sizes:
            targets.append(grouped[offset : offset + size])
            offset += size
        self._pending = PendingGroup(model_id, parts, targets)
        dispatch = NodeDispatch(
            predictions=grouped,
            compute_s=compute,
            energy_j=energy,
            affinity_hit=affinity_hit,
            programmed=self.engine.cache.misses > misses_before,
            batches=batches,
            critical_path_cycles=critical,
            execution_mode=ExecutionMode.EXACT.value,
        )
        return targets, dispatch


class FleetRouter(ClusterRouter):
    """The unmodified router core with one seam: completed groups ship out.

    Shadows are EXACT-mode nodes, so every dispatch the core runs on them
    — from :meth:`dispatch_next`, :meth:`drain` or a replay — funnels
    through the direct-charge dispatch.  Extending it is the whole
    integration: after the core charged the shadow and recorded the rows,
    the coordinator collects the shadow's pending group and enqueues the
    dispatch message toward the owning worker.
    """

    def __init__(self, nodes: Sequence[ShadowNode], coordinator, **kwargs) -> None:
        super().__init__(nodes, **kwargs)
        self._coordinator = coordinator

    def _dispatch_direct(self, node, group, start) -> List[int]:
        rids = super()._dispatch_direct(node, group, start)
        self._coordinator._on_group_dispatched(node.node_id, rids)
        return rids


def shadows_from_specs(specs: Sequence[NodeSpec]) -> List[ShadowNode]:
    """Build the coordinator's replica fleet from the shared recipes."""
    return [spec.build(node_cls=ShadowNode) for spec in specs]
