"""Telemetry of the multi-chip cluster: request traces and derived signals.

The cluster's control loops are *reactive*: the scheduler and the autoscaler
act on what recently happened, not on offline profiles.  This module is the
shared measurement substrate:

* :class:`RequestTrace` — the immutable record of one routed request
  (placement, modeled queue delay / compute time, energy, deadline outcome,
  whether the weights were already resident on the chosen node);
* :class:`NodeTelemetry` — per-node aggregates (dispatches, images, energy,
  modeled busy time, an EWMA of per-image latency) the scheduler reads when
  ranking candidates and the autoscaler reads when hunting idle nodes;
* :class:`ColumnarTelemetry` — the fleet-wide trace log, stored as one
  tuple per request, plus the two *windowed* signals the control loops key
  on: the recent deadline-miss rate of the latency class and the recent
  per-model dispatch counts (a model whose recent count crosses the
  scheduler's threshold is "hot" and becomes eligible for replication onto
  additional nodes).

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

__all__ = ["RequestTrace", "NodeTelemetry", "ColumnarTelemetry"]


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


@dataclass
class NodeTelemetry:
    """Aggregates of one node's dispatch history.

    ``ewma_image_latency_s`` tracks the per-image modeled compute latency
    with an exponential moving average — the cheap online signal of how fast
    this node currently is for the traffic it actually receives (the
    operating point sets the floor, batch composition moves it around).
    """

    node_id: str
    ewma_alpha: float = 0.3
    dispatches: int = 0
    images: int = 0
    energy_j: float = 0.0
    busy_s: float = 0.0
    deadline_misses: int = 0
    affinity_hits: int = 0
    programmed_dispatches: int = 0
    ewma_image_latency_s: float = 0.0

    def record(
        self,
        images: int,
        compute_s: float,
        energy_j: float,
        missed: bool,
        affinity_hit: bool,
        programmed: bool,
    ) -> None:
        """Fold one routed request into the node's aggregates."""
        self.dispatches += 1
        self.images += images
        self.energy_j += energy_j
        self.busy_s += compute_s
        if missed:
            self.deadline_misses += 1
        if affinity_hit:
            self.affinity_hits += 1
        if programmed:
            self.programmed_dispatches += 1
        sample = compute_s / images
        if self.dispatches == 1:
            self.ewma_image_latency_s = sample
        else:
            self.ewma_image_latency_s += self.ewma_alpha * (sample - self.ewma_image_latency_s)

    @property
    def energy_per_image_j(self) -> float:
        """Measured energy per served image (0 before the first dispatch)."""
        return self.energy_j / self.images if self.images else 0.0

    def summary(self) -> Dict[str, float]:
        """Flat counters for reports."""
        return {
            "dispatches": float(self.dispatches),
            "images": float(self.images),
            "energy_j": self.energy_j,
            "energy_per_image_j": self.energy_per_image_j,
            "busy_s": self.busy_s,
            "deadline_misses": float(self.deadline_misses),
            "affinity_hits": float(self.affinity_hits),
            "programmed_dispatches": float(self.programmed_dispatches),
            "ewma_image_latency_s": self.ewma_image_latency_s,
        }


class ColumnarTelemetry:
    """Fleet-wide trace log plus the windowed signals the control loops use.

    Each routed request is one row: the :class:`RequestTrace` field tuple
    without ``energy_j``, which lives in a parallel column because the
    router's deferred charges fill it in at flush time.  ``window`` bounds
    the reactive signals (recent miss rate, model heat, recent SLA
    presence) to the most recent rows; they are maintained online and
    never need a flush.  Whole-history aggregates flush first (the
    router's settle hook resolves deferred energies and emits sampled
    spans) and then fold the columns left to right, the order a
    per-request ``sum()`` would.  With ``retain_traces=False`` flushed rows
    are folded into running aggregates and dropped (flat memory); only
    ``summary()``, ``deadline_miss_rate``, ``request_count``,
    ``total_energy_j`` and the recent signals stay available in that mode.
    """

    #: RequestTrace field order, minus energy_j (deferred; parallel column).
    _ROW_FIELDS = 18

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
        #: folded into at scrape time (vectorised; never per-row).
        self.instrumentation = None
        #: Rows already folded into the instrumentation registry.
        self._obs_folded = 0
        #: Rows already checked for span sampling (see :meth:`emit_spans`).
        self._spanned = 0
        #: request_id → root span id for sampled requests.
        self._span_by_request: Dict[int, int] = {}
        self._columns_stamp = -1
        self._columns: Dict[str, np.ndarray] = {}
        # Aggregate-mode running folds (exact sequential continuations).
        self._agg_count = 0
        self._agg_images = 0
        self._agg_energy = 0.0
        self._agg_latency = 0.0
        self._agg_affinity = 0
        self._agg_programmed = 0
        self._agg_analytic = 0
        self._agg_coalesced = 0
        self._agg_spot = 0
        self._agg_replayed = 0
        self._agg_sla_count: Dict[str, int] = {}
        self._agg_eligible: Dict[Optional[str], int] = {}
        self._agg_missed: Dict[Optional[str], int] = {}

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
    # Settling: spans, flush, scrape-time metric fold
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
        """Fold every row not yet folded into the attached instrumentation.

        The scrape-time half of the observability fold: retained rows are
        folded here, never on the request path.  Aggregate mode folds
        inside the flush, just before it drops the rows.
        """
        self._flush()
        folded = self._obs_folded
        if self.instrumentation is not None and len(self._rows) > folded:
            self.instrumentation.fold_rows(self._rows[folded:], self._energy[folded:])
            self._obs_folded = len(self._rows)

    def _flush(self) -> None:
        """Settle deferred state (and fold+drop rows in aggregate mode)."""
        if self._flush_hook is not None:
            self._flush_hook()
        if self.retain_traces or not self._rows:
            return
        rows = self._rows
        cols = list(zip(*rows))
        energy = np.asarray(self._energy, dtype=np.float64)
        images = np.asarray(cols[4], dtype=np.int64)
        arrival = np.asarray(cols[5], dtype=np.float64)
        finish = np.asarray(cols[7], dtype=np.float64)
        latency = finish - arrival
        missed = np.asarray(cols[10], dtype=bool)
        sla_arr = np.asarray(cols[3], dtype=object)
        sla_masks = {sla: sla_arr == sla for sla in sorted(set(cols[3]))}
        coalesced_n = sum(1 for c in cols[15] if c > 1)
        replayed_n = int(np.count_nonzero(cols[17]))
        if self.instrumentation is not None:
            # One vectorised observability fold per flush, sharing the
            # transpose and column arrays the aggregate fold below needs
            # anyway — the sharing is what keeps the instrumented replay
            # inside the ≤5% overhead gate.
            self.instrumentation.fold_columns(
                cols,
                energy=energy,
                images=images,
                arrival=arrival,
                finish=finish,
                latency=latency,
                missed=missed,
                sla_masks=sla_masks,
                coalesced_n=coalesced_n,
                replayed_n=replayed_n,
            )
        self._agg_count += len(rows)
        self._agg_images += int(images.sum())
        self._agg_energy = _fold(self._agg_energy, [energy])
        self._agg_latency = _fold(self._agg_latency, [latency])
        self._agg_affinity += int(np.count_nonzero(cols[11]))
        self._agg_programmed += int(np.count_nonzero(cols[12]))
        self._agg_analytic += sum(1 for m in cols[14] if m == "analytic")
        self._agg_coalesced += coalesced_n
        self._agg_spot += int(np.count_nonzero(cols[16]))
        self._agg_replayed += replayed_n
        has_deadline = np.asarray([d is not None for d in cols[9]], dtype=bool)
        for sla, mask in sla_masks.items():
            self._agg_sla_count[sla] = self._agg_sla_count.get(sla, 0) + int(mask.sum())
            eligible = mask & has_deadline
            if eligible.any():
                self._agg_eligible[sla] = self._agg_eligible.get(sla, 0) + int(
                    eligible.sum()
                )
                self._agg_missed[sla] = self._agg_missed.get(sla, 0) + int(
                    (eligible & missed).sum()
                )
        self._agg_eligible[None] = self._agg_eligible.get(None, 0) + int(
            has_deadline.sum()
        )
        self._agg_missed[None] = self._agg_missed.get(None, 0) + int(
            (has_deadline & missed).sum()
        )
        self._rows = []
        self._energy = []
        self._obs_folded = 0
        self._spanned = 0
        self._columns_stamp = -1

    def _need_rows(self, what: str) -> None:
        if not self.retain_traces:
            raise ConfigurationError(
                f"{what} needs retained traces; this telemetry was built "
                "with retain_traces=False (aggregates only)"
            )

    def _cols(self) -> Dict[str, np.ndarray]:
        """Columnar views of the retained rows (cached per append stamp)."""
        if self._columns_stamp != len(self._rows):
            rows = self._rows
            cols = list(zip(*rows)) if rows else [[] for _ in range(self._ROW_FIELDS)]
            self._columns = {
                "sla": np.asarray(cols[3], dtype=object),
                "images": np.asarray(cols[4], dtype=np.int64),
                "arrival": np.asarray(cols[5], dtype=np.float64),
                "finish": np.asarray(cols[7], dtype=np.float64),
                "has_deadline": np.asarray([d is not None for d in cols[9]], dtype=bool),
                "missed": np.asarray(cols[10], dtype=bool),
                "affinity": np.asarray(cols[11], dtype=bool),
            }
            self._columns_stamp = len(self._rows)
        return self._columns

    def _energy_col(self) -> np.ndarray:
        return np.asarray(self._energy, dtype=np.float64)

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
    # Whole-history aggregates
    # ------------------------------------------------------------------ #
    @property
    def trace_count(self) -> int:
        """Lifetime number of recorded traces (cheap; no flush)."""
        return self._agg_count + len(self._rows)

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

    def request_count(self, sla: Optional[str] = None) -> int:
        """Lifetime trace count, optionally restricted to one SLA class."""
        if sla is None:
            return self.trace_count
        self._flush()
        cols = self._cols()
        folded = self._agg_sla_count.get(sla, 0)
        if len(self._rows):
            folded += int(np.count_nonzero(cols["sla"] == sla))
        return folded

    def deadline_miss_rate(self, sla: Optional[str] = None) -> float:
        """Lifetime deadline-miss fraction of deadline-carrying requests."""
        self._flush()
        eligible = self._agg_eligible.get(sla, 0)
        missed = self._agg_missed.get(sla, 0)
        if self._rows:
            cols = self._cols()
            mask = cols["has_deadline"]
            if sla is not None:
                mask = mask & (cols["sla"] == sla)
            eligible += int(np.count_nonzero(mask))
            missed += int(np.count_nonzero(mask & cols["missed"]))
        if not eligible:
            return 0.0
        return missed / eligible

    def total_energy_j(self) -> float:
        """Lifetime energy fold over the trace log (== sum of energies)."""
        self._flush()
        if not self._rows:
            return self._agg_energy if self._agg_count else 0.0
        return _fold(self._agg_energy, [self._energy_col()])

    def energy_per_image_j(self, sla: Optional[str] = None) -> float:
        """Modeled energy per image over (a class of) the full log."""
        self._need_rows("energy_per_image_j")
        self._flush()
        cols = self._cols()
        if sla is None:
            images = int(cols["images"].sum()) if len(self._rows) else 0
            energy = self._energy_col()
        else:
            mask = cols["sla"] == sla
            images = int(cols["images"][mask].sum()) if len(self._rows) else 0
            energy = self._energy_col()[mask]
        if not images:
            return 0.0
        return _fold(0.0, [energy]) / images

    def _latencies(self, sla: Optional[str]) -> np.ndarray:
        cols = self._cols()
        latency = cols["finish"] - cols["arrival"]
        if sla is not None:
            latency = latency[cols["sla"] == sla]
        return latency

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
        latencies = np.sort(self._latencies(sla))
        if not len(latencies):
            return {q: 0.0 for q in quantiles}
        last = len(latencies) - 1
        return {q: float(latencies[min(last, int(q * len(latencies)))]) for q in quantiles}

    def mean_latency_s(self, sla: Optional[str] = None) -> float:
        """Mean modeled request latency over (a class of) the full log."""
        self._flush()
        if sla is None and not self.retain_traces:
            count = self.trace_count
            return self._agg_latency / count if count else 0.0
        self._need_rows("mean_latency_s(sla=...)")
        latencies = self._latencies(sla)
        if not len(latencies):
            return 0.0
        return _fold(0.0, [latencies]) / len(latencies)

    def summary(self) -> Dict[str, float]:
        """Flat fleet-wide aggregates for reports."""
        self._flush()
        cols = self._cols()
        n = len(self._rows)
        count = self._agg_count + n
        images = self._agg_images + (int(cols["images"].sum()) if n else 0)
        energy = self.total_energy_j() if count else 0.0
        affinity = self._agg_affinity + (int(np.count_nonzero(cols["affinity"])) if n else 0)
        rows = self._rows
        programmed = self._agg_programmed + sum(1 for r in rows if r[12])
        analytic = self._agg_analytic + sum(1 for r in rows if r[14] == "analytic")
        coalesced = self._agg_coalesced + sum(1 for r in rows if r[15] > 1)
        spot = self._agg_spot + sum(1 for r in rows if r[16])
        replayed = self._agg_replayed + sum(1 for r in rows if r[17])
        if self.retain_traces:
            mean_latency = _fold(0.0, [self._latencies(None)]) / count if count else 0.0
        else:
            mean_latency = self._agg_latency / count if count else 0.0
        return {
            "requests": float(count),
            "images": float(images),
            "energy_j": energy,
            "mean_latency_s": mean_latency,
            "deadline_miss_rate": self.deadline_miss_rate(),
            "affinity_hit_rate": (affinity / count if count else 0.0),
            "programmed_dispatches": float(programmed),
            "analytic_requests": float(analytic),
            "coalesced_requests": float(coalesced),
            "spot_checked_requests": float(spot),
            "replayed_requests": float(replayed),
        }
