"""Charge-only node replicas: charge the accounting, skip the math.

The fleet's central design move: the coordinator runs the *unmodified*
virtual-time admission/scheduling loop of :class:`~repro.cluster.router.
ClusterRouter` over :class:`ShadowNode` replicas of the fleet.  A shadow
runs the node's own dispatch body and swaps only its compute module: every
batch is charged through the engine's exact-charge API
(:meth:`~repro.cluster.node.ClusterNode._charge_batches` — the path both
execution modes charge through, pinned bit-identical to the engine-bound
forward by ``tests/test_execution_modes.py``) and never runs a numpy
forward.  Workers replay their shard's dispatches on the same class and
compute the predictions apart, one golden forward per model over each
run of dispatches they receive (:func:`forward_into`).

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

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.node import ClusterNode, ExecutionMode, NodeSpec, _part_views
from repro.cluster.router import ClusterRouter

__all__ = ["ShadowNode", "FleetRouter", "PendingGroup", "forward_into", "shadows_from_specs"]


class PendingGroup:
    """What a shadow dispatch left behind for the coordinator to ship.

    ``targets`` are the sentinel-filled placeholder arrays the dispatch
    handed out — one per part, consecutive views of the group's backing
    array.  :func:`forward_into` fills them on a worker (and on the
    coordinator after a worker death); a completion fills them in place.
    """

    __slots__ = ("node", "model_id", "parts", "targets")

    def __init__(
        self,
        node: ClusterNode,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
        grouped: np.ndarray,
    ) -> None:
        self.node = node
        self.model_id = model_id
        self.parts = list(parts)
        self.targets: List[np.ndarray] = _part_views(grouped, parts)


class ShadowNode(ClusterNode):
    """A charge-only replica of one fleet node.

    Built from a :class:`~repro.cluster.node.NodeSpec` on both sides of the
    pipe (``spec.build(node_cls=ShadowNode)``), so pricing, residency,
    batching and ledger behaviour match exactly: it runs the inherited
    dispatch body and overrides only the per-group compute hook.
    Dispatches report ``execution_mode="exact"`` because the predictions
    come from the golden forward — the shadow is an accounting proxy for an
    exact node, not an analytic-mode node.  Its own mode is EXACT for the
    same reason, so the router charges every shadow dispatch directly and
    never takes the memoised analytic fast path.
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

    def _compute_group(
        self,
        model_id: str,
        parts: Sequence[Tuple[np.ndarray, Optional[str]]],
        total: int,
    ) -> Tuple[np.ndarray, Tuple[int, float, float, int], Tuple[bool, ...]]:
        """Charge the group; its predictions stay sentinel-filled."""
        totals = self._charge_batches(model_id, parts[0][0].shape, total)
        # Predictions are argmax class indices (always >= 0), so -1 is an
        # impossible value: a prediction read before its completion
        # arrived is loudly wrong instead of silently plausible.
        grouped = np.full((total,), -1, dtype=np.int64)
        self._pending = PendingGroup(self, model_id, parts, grouped)
        return grouped, totals, (False,) * len(parts)


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


def forward_into(groups: Sequence[PendingGroup], step: int) -> int:
    """Fill pending groups' placeholders with one golden forward per model.

    A model's images run through its first group's node in slices of at
    most ``step`` images; scales are per image, so each part gets what it
    gets alone.  Returns the number of forward calls.
    """
    by_model: Dict[str, List[PendingGroup]] = {}
    for group in groups:
        by_model.setdefault(group.model_id, []).append(group)
    calls = 0
    for model_id, members in by_model.items():
        stacked = np.concatenate([images for group in members for images, _ in group.parts])
        starts = range(0, stacked.shape[0], step)
        calls += len(starts)
        forward = members[0].node._plain_forward
        predictions = np.concatenate([forward(model_id, stacked[i : i + step]) for i in starts])
        offset = 0
        for group in members:
            for target in group.targets:
                target[:] = predictions[offset : offset + target.shape[0]]
                offset += target.shape[0]
    return calls


def shadows_from_specs(specs: Sequence[NodeSpec]) -> List[ShadowNode]:
    """Build a charge-only replica fleet from the shared recipes."""
    return [spec.build(node_cls=ShadowNode) for spec in specs]
