"""Telemetry of the multi-chip cluster: request traces and derived signals.

The cluster's control loops are *reactive*: the scheduler and the autoscaler
act on what recently happened, not on offline profiles.  This module is the
shared measurement substrate:

* :class:`RequestTrace` — the immutable record of one routed request
  (placement, modeled queue delay / compute time, energy, deadline outcome,
  whether the weights were already resident on the chosen node);
* :class:`ColumnarTelemetry` — the fleet-wide trace log, stored as one
  tuple per request; the running folds (fleet-wide, per SLA class and per
  node) every whole-history aggregate is read from, so a node's joules,
  busy time and deadline misses are folds of its own rows; and the two
  *windowed* signals the control loops key on: the recent deadline-miss
  rate of the latency class and the recent per-model dispatch counts (a
  model whose recent count crosses the scheduler's threshold is "hot" and
  becomes eligible for replication onto additional nodes).

Everything here is measured in the cluster's *modeled* (virtual) time — the
chip delay/energy models drive the clock, so every signal is deterministic
and the scheduling tests can pin exact outcomes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["RequestTrace", "ColumnarTelemetry"]


def _fold(start: float, parts: List[np.ndarray]) -> float:
    """Strict sequential left fold ``start + p[0] + p[1] + ...`` (bit-exact).

    ``np.add.accumulate`` on float64 applies the same rounding sequence a
    Python ``+=`` loop does, so the result equals a per-request
    accumulator's value bit for bit.
    """
    lead = np.empty(1, dtype=np.float64)
    lead[0] = start
    return float(np.add.accumulate(np.concatenate([lead] + parts))[-1])


@dataclass(frozen=True)
class RequestTrace:
    """Everything recorded about one routed request."""

    request_id: int
    model_id: str
    node_id: str
    sla: str
    images: int
    arrival_s: float
    start_s: float
    finish_s: float
    compute_s: float
    energy_j: float
    deadline_s: Optional[float]
    deadline_missed: bool
    affinity_hit: bool
    programmed: bool
    feasible_at_admission: bool
    #: Execution mode the dispatch ran under ("exact" / "analytic").
    execution_mode: str = "exact"
    #: How many requests shared the dispatch (1 = not coalesced).
    coalesced: int = 1
    #: Whether this dispatch's memoised predictions were spot-checked.
    spot_checked: bool = False
    #: Whether the request was re-placed after admission (its original node
    #: crashed or was parked before the dispatch could run).
    replayed: bool = False
    #: Root span id of the request's modeled-time span tree, when the run
    #: carried a :class:`repro.obs.Tracer` and this request was sampled
    #: (``request_id % sample_every == 0``); ``None`` otherwise.
    span_id: Optional[int] = None

    @property
    def queue_delay_s(self) -> float:
        """Modeled time the request waited behind the node's backlog."""
        return self.start_s - self.arrival_s

    @property
    def latency_s(self) -> float:
        """Modeled end-to-end latency (queue delay + compute)."""
        return self.finish_s - self.arrival_s


class _Fold:
    """Running aggregates of every row, or of one SLA class's or node's rows.

    ``energy``, ``latency`` and ``busy`` are :func:`_fold` continuations,
    so folding rows in increments adds the same values in the same order
    as one fold over all of them.
    """

    __slots__ = (
        "count", "images", "energy", "latency", "busy", "eligible", "missed",
        "affinity", "programmed",
    )

    def __init__(self) -> None:
        self.count = 0
        self.images = 0
        self.energy = 0.0
        self.latency = 0.0
        #: Modeled compute time (a node's busy time).
        self.busy = 0.0
        #: Deadline-carrying rows, and how many of them missed.
        self.eligible = 0
        self.missed = 0
        self.affinity = 0
        self.programmed = 0

    def add(
        self, images, energy, latency, compute, has_deadline, missed, affinity, programmed
    ) -> None:
        """Fold one chunk of row columns (numpy arrays of equal length)."""
        self.count += len(images)
        self.images += int(images.sum())
        self.energy = _fold(self.energy, [energy])
        self.latency = _fold(self.latency, [latency])
        self.busy = _fold(self.busy, [compute])
        self.eligible += int(np.count_nonzero(has_deadline))
        self.missed += int(np.count_nonzero(has_deadline & missed))
        self.affinity += int(np.count_nonzero(affinity))
        self.programmed += int(np.count_nonzero(programmed))

    @property
    def miss_rate(self) -> float:
        return self.missed / self.eligible if self.eligible else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.latency / self.count if self.count else 0.0

    @property
    def energy_per_image_j(self) -> float:
        return self.energy / self.images if self.images else 0.0


class ColumnarTelemetry:
    """Fleet-wide trace log plus the windowed signals the control loops use.

    Each routed request is one row: the :class:`RequestTrace` field tuple
    without ``energy_j``, which lives in a parallel column because the
    router's deferred charges fill it in at flush time.  ``window`` bounds
    the reactive signals (recent miss rate, model heat, recent SLA
    presence) to the most recent rows; they are maintained online and
    never need a flush.  Whole-history aggregates are running folds, one
    for all rows, one per SLA class and one per node: every aggregate read
    flushes (the router's settle hook resolves deferred energies and emits
    sampled spans, then the rows recorded since the previous flush are
    folded, in the same pass, into those folds and the attached registry)
    and reads the folds.  Rows are kept only for :attr:`traces`,
    :meth:`trace_at` and :meth:`latency_quantiles_s`; with
    ``retain_traces=False`` flushed rows are dropped (flat memory), and
    every aggregate stays available.
    """

    #: Rows buffered in aggregate mode before they are folded into the
    #: running aggregates and dropped (the flat-memory flush cadence).
    _AGG_FLUSH_ROWS = 65536

    def __init__(self, window: int = 32, retain_traces: bool = True) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.retain_traces = retain_traces
        self._rows: List[tuple] = []
        self._energy: List[Optional[float]] = []
        self._recent: Deque[Tuple[str, str, bool, bool]] = deque(maxlen=window)
        #: Per-model dispatch counts over the sliding window, maintained
        #: incrementally: the scheduler reads model heat on every admission,
        #: so the signal must not cost a window scan per request.
        self._recent_model_counts: Dict[str, int] = {}
        #: Lifetime count of deadline-carrying traces (the autoscaler's
        #: "fresh latency traffic" signal without slicing the trace log).
        self.deadline_trace_count = 0
        #: The owning router's settle step, run before every flush.
        self._flush_hook: Optional[Callable[[], None]] = None
        #: Optional :class:`repro.cluster.instrumentation.ClusterInstrumentation`
        #: folded into by every flush (vectorised; never per-row).
        self.instrumentation = None
        #: Rows of ``_rows`` already folded (always 0 once rows are dropped).
        self._folded = 0
        #: Rows already checked for span sampling (see :meth:`emit_spans`).
        self._spanned = 0
        #: request_id → root span id for sampled requests.
        self._span_by_request: Dict[int, int] = {}
        self._all = _Fold()
        self._by_sla: Dict[str, _Fold] = {}
        self._by_node: Dict[str, _Fold] = {}
        # Summary-only counts over every folded row.
        self._analytic = 0
        self._coalesced = 0
        self._spot = 0
        self._replayed = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _note(self, model_id: str, sla: str, has_deadline: bool, missed: bool) -> None:
        """Slide one dispatch into the recent window."""
        counts = self._recent_model_counts
        recent = self._recent
        if len(recent) == self.window:
            evicted = recent[0][0]
            remaining = counts[evicted] - 1
            if remaining:
                counts[evicted] = remaining
            else:
                del counts[evicted]
        recent.append((model_id, sla, has_deadline, missed))
        counts[model_id] = counts.get(model_id, 0) + 1
        if has_deadline:
            self.deadline_trace_count += 1

    def record_row(self, row: tuple, energy: Optional[float]) -> int:
        """Append one trace row; returns its index (for deferred energy).

        ``row`` is the :class:`RequestTrace` field tuple *without*
        ``energy_j`` and ``span_id``: (request_id, model_id, node_id, sla,
        images, arrival_s, start_s, finish_s, compute_s, deadline_s,
        deadline_missed, affinity_hit, programmed, feasible_at_admission,
        execution_mode, coalesced, spot_checked, replayed).
        """
        index = len(self._rows)
        self._rows.append(row)
        self._energy.append(energy)
        self._note(row[1], row[3], row[9] is not None, row[10])
        return index

    def record_rows_batch(self, rows: List[tuple]) -> int:
        """Append a chunk of trace rows (energies deferred); returns the
        index of the first appended row.

        The batch entry point of the router's turbo replay: one call per
        dispatch chunk instead of one per request.  The sliding window ends
        in the same state sequential :meth:`record_row` calls leave it in —
        when the chunk covers the whole window only the tail can survive,
        so the window is rebuilt from the tail directly.
        """
        base = len(self._rows)
        self._rows.extend(rows)
        self._energy.extend([None] * len(rows))
        if len(rows) >= self.window:
            recent = self._recent
            recent.clear()
            recent.extend(
                (r[1], r[3], r[9] is not None, r[10])
                for r in rows[len(rows) - self.window :]
            )
            counts: Dict[str, int] = {}
            for item in recent:
                counts[item[0]] = counts.get(item[0], 0) + 1
            self._recent_model_counts = counts
            self.deadline_trace_count += sum(1 for r in rows if r[9] is not None)
        else:
            for r in rows:
                self._note(r[1], r[3], r[9] is not None, r[10])
        return base

    def maybe_fold(self) -> None:
        """Fold-and-drop when the aggregate-mode row buffer grows large.

        Called at dispatch-chunk boundaries (never mid-dispatch: folding
        resolves the router's deferred energies first, which must not run
        while a dispatch is still appending its rows).  A no-op with
        retained traces or below the buffering threshold.
        """
        if not self.retain_traces and len(self._rows) >= self._AGG_FLUSH_ROWS:
            self._flush()

    def set_energy_batch(self, indexes: Sequence[int], energies: Sequence[float]) -> None:
        """Fill many deferred energy shares in one pass (the router's flush)."""
        column = self._energy
        for index, energy in zip(indexes, energies):
            column[index] = energy

    # ------------------------------------------------------------------ #
    # Settling: spans, flush, fold
    # ------------------------------------------------------------------ #
    def emit_spans(self, tracer) -> None:
        """Emit the span tree of every sampled row recorded since the last call.

        Only one request in ``tracer.sample_every`` is sampled, so the scan
        is a vectorised id test and the per-span Python runs rarely.
        """
        rows = self._rows
        start, self._spanned = self._spanned, len(rows)
        if tracer is None or not tracer.sample_every or start == len(rows):
            return
        ids = np.fromiter(
            map(itemgetter(0), rows[start:]), dtype=np.int64, count=len(rows) - start
        )
        spans = self._span_by_request
        for offset in np.flatnonzero(ids % tracer.sample_every == 0).tolist():
            r = rows[start + offset]
            spans[r[0]] = tracer.emit_request(
                r[0], r[2], r[5], r[6], r[7], r[8], sla=r[3]
            )

    def fold_metrics(self) -> None:
        """Bring the attached instrumentation up to date (the scrape hook)."""
        self._flush()

    def _flush(self) -> None:
        """Settle deferred state, then fold the rows recorded since the last
        flush into the running aggregates and the attached registry.

        Folded rows are dropped unless traces are retained.
        """
        if self._flush_hook is not None:
            self._flush_hook()
        if self._folded == len(self._rows):
            return
        cols = list(zip(*self._rows[self._folded :]))
        energy = np.asarray(self._energy[self._folded :], dtype=np.float64)
        images = np.asarray(cols[4], dtype=np.int64)
        arrival = np.asarray(cols[5], dtype=np.float64)
        latency = np.asarray(cols[7], dtype=np.float64) - arrival
        missed = np.asarray(cols[10], dtype=bool)
        has_deadline = np.asarray([d is not None for d in cols[9]], dtype=bool)
        sla_arr = np.asarray(cols[3], dtype=object)
        sla_masks = {sla: sla_arr == sla for sla in sorted(set(cols[3]))}
        node_arr = np.asarray(cols[2], dtype=object)
        node_masks = {node: node_arr == node for node in sorted(set(cols[2]))}
        coalesced_n = sum(1 for c in cols[15] if c > 1)
        replayed_n = int(np.count_nonzero(cols[17]))
        if self.instrumentation is not None:
            # The registry fold shares the transpose and the column arrays
            # with the aggregate fold below; the sharing is what keeps the
            # instrumented replay inside the <=5% overhead gate.
            self.instrumentation.fold_columns(
                cols,
                energy=energy,
                images=images,
                arrival=arrival,
                latency=latency,
                missed=missed,
                sla_masks=sla_masks,
                node_masks=node_masks,
                coalesced_n=coalesced_n,
                replayed_n=replayed_n,
            )
        columns = (
            images, energy, latency, np.asarray(cols[8], dtype=np.float64),
            has_deadline, missed, np.asarray(cols[11], dtype=bool),
            np.asarray(cols[12], dtype=bool),
        )
        self._all.add(*columns)
        for folds, masks in ((self._by_sla, sla_masks), (self._by_node, node_masks)):
            for key, mask in masks.items():
                folds.setdefault(key, _Fold()).add(*(column[mask] for column in columns))
        self._analytic += sum(1 for m in cols[14] if m == "analytic")
        self._coalesced += coalesced_n
        self._spot += int(np.count_nonzero(cols[16]))
        self._replayed += replayed_n
        if self.retain_traces:
            self._folded = len(self._rows)
        else:
            self._rows = []
            self._energy = []
            self._spanned = 0

    def _totals(self, sla: Optional[str]) -> _Fold:
        """Flush, then the running fold of one class (``None``: every row)."""
        self._flush()
        if sla is None:
            return self._all
        return self._by_sla.get(sla) or _Fold()

    def _need_rows(self, what: str) -> None:
        if not self.retain_traces:
            raise ConfigurationError(
                f"{what} needs retained traces; this telemetry was built "
                "with retain_traces=False (aggregates only)"
            )

    # ------------------------------------------------------------------ #
    # Reactive signals (online; no flush needed)
    # ------------------------------------------------------------------ #
    def recent_deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Deadline-miss fraction over the sliding window.

        Only deadline-carrying traces count; ``sla`` restricts the window
        further (the autoscaler watches the latency class specifically).
        """
        eligible = [t for t in self._recent if t[2] and (sla is None or t[1] == sla)]
        if not eligible:
            return 0.0
        return sum(t[3] for t in eligible) / len(eligible)

    def recent_model_dispatches(self, model_id: str) -> int:
        """How many of the last ``window`` dispatches served this model."""
        return self._recent_model_counts.get(model_id, 0)

    def recent_has_sla(self, sla: str) -> bool:
        """Whether any dispatch in the sliding window served this class.

        The autoscaler's retune-down guard: only fleets with no recent
        latency-class traffic shift capacity to the efficient rungs.
        """
        return any(t[1] == sla for t in self._recent)

    # ------------------------------------------------------------------ #
    # Retained rows
    # ------------------------------------------------------------------ #
    @property
    def trace_count(self) -> int:
        """Lifetime number of recorded traces (cheap; no flush)."""
        return self._all.count + len(self._rows) - self._folded

    def trace_at(self, index: int) -> RequestTrace:
        """Build the :class:`RequestTrace` of one settled row."""
        r = self._rows[index]
        return RequestTrace(
            r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7], r[8],
            self._energy[index], r[9], r[10], r[11], r[12], r[13], r[14],
            r[15], r[16], r[17], self._span_by_request.get(r[0]),
        )

    @property
    def traces(self) -> List[RequestTrace]:
        """Trace objects of every retained row, built on each access.

        The rows stay the only stored copy; callers that walk the log more
        than once should keep the returned list.
        """
        self._need_rows("traces")
        self._flush()
        return [self.trace_at(index) for index in range(len(self._rows))]

    def traces_for(
        self, sla: Optional[str] = None, model_id: Optional[str] = None
    ) -> List[RequestTrace]:
        """Filtered view of the full trace log."""
        return [
            t
            for t in self.traces
            if (sla is None or t.sla == sla) and (model_id is None or t.model_id == model_id)
        ]

    def latency_quantiles_s(
        self,
        quantiles=(0.5, 0.9, 0.99, 0.999),
        sla: Optional[str] = None,
    ) -> Dict[float, float]:
        """Latency quantiles over (a class of) the full log.

        The deadline-miss CDF summary reliability studies report: where the
        latency distribution sits relative to the deadline shows *how badly*
        requests missed during a fault window, not just how many.
        """
        self._need_rows("latency_quantiles_s")
        self._flush()
        latencies = sorted(r[7] - r[5] for r in self._rows if sla is None or r[3] == sla)
        if not latencies:
            return {q: 0.0 for q in quantiles}
        last = len(latencies) - 1
        return {q: float(latencies[min(last, int(q * len(latencies)))]) for q in quantiles}

    # ------------------------------------------------------------------ #
    # Whole-history aggregates (one flush, then a read of the folds)
    # ------------------------------------------------------------------ #
    def request_count(self, sla: Optional[str] = None) -> int:
        """Lifetime trace count, optionally restricted to one SLA class."""
        return self._totals(sla).count

    def deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Lifetime deadline-miss fraction of deadline-carrying requests."""
        return self._totals(sla).miss_rate

    def total_energy_j(self) -> float:
        """Lifetime energy fold over the trace log (== sum of energies)."""
        return self._totals(None).energy

    def energy_per_image_j(self, sla: Optional[str] = None) -> float:
        """Modeled energy per image over (a class of) the full log."""
        return self._totals(sla).energy_per_image_j

    def mean_latency_s(self, sla: Optional[str] = None) -> float:
        """Mean modeled request latency over (a class of) the full log."""
        return self._totals(sla).mean_latency_s

    def summary(self) -> Dict[str, float]:
        """Flat fleet-wide aggregates for reports."""
        fold = self._totals(None)
        count = fold.count
        return {
            "requests": float(count),
            "images": float(fold.images),
            "energy_j": fold.energy,
            "mean_latency_s": fold.mean_latency_s,
            "deadline_miss_rate": fold.miss_rate,
            "affinity_hit_rate": (fold.affinity / count if count else 0.0),
            "programmed_dispatches": float(fold.programmed),
            "analytic_requests": float(self._analytic),
            "coalesced_requests": float(self._coalesced),
            "spot_checked_requests": float(self._spot),
            "replayed_requests": float(self._replayed),
        }

    def node_summary(self, node_id: str) -> Dict[str, float]:
        """Flat aggregates of one node's rows (its dispatch history)."""
        self._flush()
        fold = self._by_node.get(node_id) or _Fold()
        return {
            "dispatches": float(fold.count),
            "images": float(fold.images),
            "energy_j": fold.energy,
            "energy_per_image_j": fold.energy_per_image_j,
            "busy_s": fold.busy,
            "deadline_misses": float(fold.missed),
            "affinity_hits": float(fold.affinity),
            "programmed_dispatches": float(fold.programmed),
        }
