"""The frozen object trace log of the oracle router.

:class:`ClusterTelemetry` keeps one :class:`~repro.cluster.telemetry.RequestTrace`
per request and computes every aggregate with plain Python folds over the
log — floats with :func:`left_fold`'s ``+=`` loop (the builtin ``sum()``
of floats is compensated since Python 3.12, so it is no left fold), counts
with ``sum()`` — and the reference
:class:`~repro.cluster.telemetry.ColumnarTelemetry` must match bit for bit,
fleet-wide, per SLA class and per node.
:meth:`ClusterTelemetry.fold_metrics` is the object path of the
scrape-time metric fold, so an oracle router with a registry attached
publishes the same ``cluster_*`` series the core does.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.cluster.telemetry import RequestTrace

__all__ = ["ClusterTelemetry", "left_fold"]


def left_fold(values: Iterable[float]) -> float:
    """``0.0 + v[0] + v[1] + ...``, one rounding per addition."""
    total = 0.0
    for value in values:
        total += value
    return total


class ClusterTelemetry:
    """Fleet-wide trace log plus the windowed signals the control loops use.

    ``window`` bounds the two reactive signals (deadline-miss rate, model
    heat) to the most recent traces, so the scheduler and autoscaler respond
    to the *current* traffic mix instead of the whole history.
    """

    def __init__(self, window: int = 32) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.traces: List[RequestTrace] = []
        #: Traces recorded with a deadline attached, maintained as a counter
        #: so the autoscaler's "any latency traffic yet?" probe is O(1) —
        #: and identical across this log and the columnar one (which may
        #: not retain the rows the probe would otherwise scan).
        self.deadline_trace_count = 0
        self._recent: Deque[RequestTrace] = deque(maxlen=window)
        #: Per-model dispatch counts over the sliding window, maintained
        #: incrementally: the scheduler reads model heat on every admission,
        #: so the signal must not cost a window scan per request.
        self._recent_model_counts: Dict[str, int] = {}
        #: Scrape-time metric fold (attach_cluster_observability sets it).
        self.instrumentation = None
        self._obs_folded = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, trace: RequestTrace) -> None:
        """Append one routed request to the log and the sliding window."""
        self.traces.append(trace)
        if trace.deadline_s is not None:
            self.deadline_trace_count += 1
        counts = self._recent_model_counts
        if len(self._recent) == self.window:
            evicted = self._recent[0].model_id
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        self._recent.append(trace)
        counts[trace.model_id] = counts.get(trace.model_id, 0) + 1

    def fold_metrics(self) -> None:
        """Fold the traces recorded since the last scrape into the registry."""
        traces = self.traces[self._obs_folded :]
        if self.instrumentation is None or not traces:
            return
        fields = RequestTrace.__dataclass_fields__
        rows = [
            tuple(getattr(t, name) for name in fields if name not in ("energy_j", "span_id"))
            for t in traces
        ]
        cols = list(zip(*rows))
        arrival = np.asarray(cols[5], dtype=np.float64)
        sla_arr = np.asarray(cols[3], dtype=object)
        node_arr = np.asarray(cols[2], dtype=object)
        self.instrumentation.fold_columns(
            cols,
            energy=np.asarray([t.energy_j for t in traces], dtype=np.float64),
            images=np.asarray(cols[4], dtype=np.int64),
            arrival=arrival,
            latency=np.asarray(cols[7], dtype=np.float64) - arrival,
            missed=np.asarray(cols[10], dtype=bool),
            sla_masks={sla: sla_arr == sla for sla in sorted(set(cols[3]))},
            node_masks={node: node_arr == node for node in sorted(set(cols[2]))},
            coalesced_n=sum(t.coalesced > 1 for t in traces),
            replayed_n=sum(t.replayed for t in traces),
        )
        self._obs_folded = len(self.traces)

    # ------------------------------------------------------------------ #
    # Reactive signals
    # ------------------------------------------------------------------ #
    def recent_deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Deadline-miss fraction over the sliding window.

        Only deadline-carrying traces count; ``sla`` restricts the window
        further (the autoscaler watches the latency class specifically).
        """
        eligible = [
            trace
            for trace in self._recent
            if trace.deadline_s is not None and (sla is None or trace.sla == sla)
        ]
        if not eligible:
            return 0.0
        return sum(trace.deadline_missed for trace in eligible) / len(eligible)

    def recent_model_dispatches(self, model_id: str) -> int:
        """How many of the last ``window`` dispatches served this model.

        O(1): served from the incrementally maintained window counts.
        """
        return self._recent_model_counts.get(model_id, 0)

    def recent_has_sla(self, sla: str) -> bool:
        """Whether any dispatch in the sliding window served this class.

        The autoscaler's retune-down guard: only fleets with no recent
        latency-class traffic shift capacity to the efficient rungs.
        """
        return any(trace.sla == sla for trace in self._recent)

    # ------------------------------------------------------------------ #
    # Whole-history aggregates
    # ------------------------------------------------------------------ #
    @property
    def trace_count(self) -> int:
        """Requests recorded so far (shared API with the columnar log)."""
        return len(self.traces)

    def request_count(self, sla: Optional[str] = None) -> int:
        """Requests recorded so far, optionally restricted to one class."""
        if sla is None:
            return len(self.traces)
        return sum(trace.sla == sla for trace in self.traces)

    def total_energy_j(self) -> float:
        """Total modeled energy over the full log."""
        return left_fold(trace.energy_j for trace in self.traces)

    def traces_for(
        self, sla: Optional[str] = None, model_id: Optional[str] = None
    ) -> List[RequestTrace]:
        """Filtered view of the full trace log."""
        return [
            trace
            for trace in self.traces
            if (sla is None or trace.sla == sla)
            and (model_id is None or trace.model_id == model_id)
        ]

    def deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Lifetime deadline-miss fraction of deadline-carrying requests."""
        eligible = [
            trace
            for trace in self.traces
            if trace.deadline_s is not None and (sla is None or trace.sla == sla)
        ]
        if not eligible:
            return 0.0
        return sum(trace.deadline_missed for trace in eligible) / len(eligible)

    def energy_per_image_j(self, sla: Optional[str] = None) -> float:
        """Modeled energy per image over (a class of) the full log."""
        traces = self.traces_for(sla=sla)
        images = sum(trace.images for trace in traces)
        if not images:
            return 0.0
        return left_fold(trace.energy_j for trace in traces) / images

    def latency_quantiles_s(
        self,
        quantiles: Sequence[float] = (0.5, 0.9, 0.99, 0.999),
        sla: Optional[str] = None,
    ) -> Dict[float, float]:
        """Latency quantiles over (a class of) the full log.

        The deadline-miss CDF summary reliability studies report: where the
        latency distribution sits relative to the deadline shows *how badly*
        requests missed during a fault window, not just how many.
        """
        traces = self.traces_for(sla=sla)
        if not traces:
            return {q: 0.0 for q in quantiles}
        latencies = sorted(trace.latency_s for trace in traces)
        last = len(latencies) - 1
        return {
            q: latencies[min(last, int(q * len(latencies)))] for q in quantiles
        }

    def mean_latency_s(self, sla: Optional[str] = None) -> float:
        """Mean modeled request latency over (a class of) the full log."""
        traces = self.traces_for(sla=sla)
        if not traces:
            return 0.0
        return left_fold(trace.latency_s for trace in traces) / len(traces)

    def summary(self) -> Dict[str, float]:
        """Flat fleet-wide aggregates for reports."""
        images = sum(trace.images for trace in self.traces)
        return {
            "requests": float(len(self.traces)),
            "images": float(images),
            "energy_j": self.total_energy_j(),
            "mean_latency_s": self.mean_latency_s(),
            "deadline_miss_rate": self.deadline_miss_rate(),
            "affinity_hit_rate": (
                sum(trace.affinity_hit for trace in self.traces) / len(self.traces)
                if self.traces
                else 0.0
            ),
            "programmed_dispatches": float(
                sum(trace.programmed for trace in self.traces)
            ),
            "analytic_requests": float(
                sum(trace.execution_mode == "analytic" for trace in self.traces)
            ),
            "coalesced_requests": float(
                sum(trace.coalesced > 1 for trace in self.traces)
            ),
            "spot_checked_requests": float(
                sum(trace.spot_checked for trace in self.traces)
            ),
            "replayed_requests": float(
                sum(trace.replayed for trace in self.traces)
            ),
        }

    def node_summary(self, node_id: str) -> Dict[str, float]:
        """One node's aggregates, folded over its traces in log order."""
        traces = [trace for trace in self.traces if trace.node_id == node_id]
        images = sum(trace.images for trace in traces)
        energy = left_fold(trace.energy_j for trace in traces)
        return {
            "dispatches": float(len(traces)),
            "images": float(images),
            "energy_j": energy,
            "energy_per_image_j": energy / images if images else 0.0,
            "busy_s": left_fold(trace.compute_s for trace in traces),
            "deadline_misses": float(sum(trace.deadline_missed for trace in traces)),
            "affinity_hits": float(sum(trace.affinity_hit for trace in traces)),
            "programmed_dispatches": float(sum(trace.programmed for trace in traces)),
        }
