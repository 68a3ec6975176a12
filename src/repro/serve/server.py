"""Batched inference serving on top of the weight-stationary chip engine.

A serving front end has one job: amortise fixed per-dispatch cost over as
many requests as possible without letting any single request wait forever.
:class:`InferenceServer` does exactly that for the quantised CNN/MLP
pipelines:

* clients :meth:`~InferenceServer.submit` image batches of any size (thread
  safe — many producers may submit concurrently);
* the server coalesces pending requests into activation batches of at most
  ``max_batch_size`` images (requests are split across batches when needed,
  so one huge request cannot stall the queue);
* every batch runs through a single :class:`QuantizedCNN` forward pass whose
  integer matmuls execute on a shared
  :class:`repro.core.matmul.TiledMatmulEngine` — weights are programmed once
  and stay stationary across every batch of the server's lifetime;
* per-request latency (queue delay + compute) and per-batch chip accounting
  (work cycles, critical path, utilization, modeled latency) are recorded
  and aggregated into a :class:`ServerReport`.

The optional background worker (:meth:`~InferenceServer.start` /
:meth:`~InferenceServer.stop`) batches by the classic two-condition rule:
dispatch when a full batch is available *or* the oldest request has waited
``max_wait_s``.  Synchronous callers can ignore the worker entirely and use
:meth:`~InferenceServer.predict` / :meth:`~InferenceServer.drain`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chip import IMCChip
from repro.core.config import MacroConfig
from repro.core.matmul import TiledMatmulEngine
from repro.errors import ConfigurationError
from repro.utils.validation import check_finite, check_positive

__all__ = [
    "InferenceRequest",
    "RequestResult",
    "BatchRecord",
    "ServerReport",
    "InferenceServer",
]


@dataclass
class InferenceRequest:
    """One client request: a batch of images awaiting prediction."""

    request_id: int
    images: np.ndarray
    arrival_s: float
    #: Images of this request already dispatched into batches.
    consumed: int = 0

    @property
    def size(self) -> int:
        """Number of images in the request."""
        return int(self.images.shape[0])

    @property
    def remaining(self) -> int:
        """Images not yet dispatched."""
        return self.size - self.consumed


@dataclass(frozen=True)
class RequestResult:
    """Outcome of one request after all its images were served."""

    request_id: int
    predictions: np.ndarray
    queue_delay_s: float
    latency_s: float
    batch_indices: Tuple[int, ...]


@dataclass(frozen=True)
class BatchRecord:
    """Chip-level accounting of one coalesced activation batch."""

    batch_index: int
    images: int
    request_ids: Tuple[int, ...]
    host_wall_s: float
    total_cycles: int
    critical_path_cycles: int
    energy_j: float
    modeled_latency_s: float
    utilization: float


@dataclass(frozen=True)
class ServerReport:
    """Aggregated serving statistics."""

    requests: int
    images: int
    batches: int
    mean_batch_size: float
    throughput_images_per_s: float
    mean_latency_s: float
    max_latency_s: float
    mean_queue_delay_s: float
    total_cycles: int
    total_energy_j: float
    modeled_chip_time_s: float
    mean_utilization: float
    cache_hits: int
    cache_misses: int
    cache_evictions: int

    def summary(self) -> Dict[str, float]:
        """Flat dictionary for JSON reports."""
        return {
            "requests": float(self.requests),
            "images": float(self.images),
            "batches": float(self.batches),
            "mean_batch_size": self.mean_batch_size,
            "throughput_images_per_s": self.throughput_images_per_s,
            "mean_latency_s": self.mean_latency_s,
            "max_latency_s": self.max_latency_s,
            "mean_queue_delay_s": self.mean_queue_delay_s,
            "total_cycles": float(self.total_cycles),
            "total_energy_j": self.total_energy_j,
            "modeled_chip_time_s": self.modeled_chip_time_s,
            "mean_utilization": self.mean_utilization,
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_evictions": float(self.cache_evictions),
        }


@dataclass
class _PendingOutput:
    """Partial predictions of a request while its batches complete."""

    request: InferenceRequest
    predictions: List[np.ndarray] = field(default_factory=list)
    batch_indices: List[int] = field(default_factory=list)


class InferenceServer:
    """Coalesce many ``predict`` requests into batched chip dispatches.

    Parameters
    ----------
    model:
        A :class:`repro.dnn.pipeline.QuantizedCNN` (or any object exposing
        ``with_backend(matmul)`` and ``predict(images)``); the server rebinds
        it onto the shared tiled engine.
    engine:
        The weight-stationary matmul engine.  When omitted, one is built on
        a fresh chip of ``num_macros`` shards.
    num_macros / precision_bits:
        Geometry of the default chip when ``engine`` is not supplied.
    max_batch_size:
        Upper bound of images per coalesced dispatch.
    max_wait_s:
        Batching wait budget of the background worker: a partial batch is
        dispatched once its oldest request has waited this long.
    """

    def __init__(
        self,
        model,
        engine: Optional[TiledMatmulEngine] = None,
        num_macros: int = 8,
        precision_bits: int = 8,
        max_batch_size: int = 64,
        max_wait_s: float = 0.0,
    ) -> None:
        check_positive("max_batch_size", max_batch_size)
        if max_wait_s < 0:
            raise ConfigurationError("max_wait_s must be non-negative")
        if engine is None:
            engine = TiledMatmulEngine(
                IMCChip(num_macros, MacroConfig(precision_bits=precision_bits))
            )
        self.engine = engine
        self.model = model.with_backend(engine)
        self.max_batch_size = max_batch_size
        self.max_wait_s = max_wait_s

        self._lock = threading.Lock()
        self._work_available = threading.Condition(self._lock)
        #: Serialises batch execution: the chip engine is a shared resource,
        #: so the synchronous drain path and the background worker must not
        #: dispatch concurrently.
        self._dispatch_lock = threading.Lock()
        self._queue: Deque[InferenceRequest] = deque()
        self._pending: Dict[int, _PendingOutput] = {}
        self._completed: Dict[int, RequestResult] = {}
        self._next_request_id = 0
        self._batches: List[BatchRecord] = []
        self._results: List[RequestResult] = []
        self._failed: Dict[int, BaseException] = {}
        self._worker: Optional[threading.Thread] = None
        self._stop_requested = False
        self._started_s = time.perf_counter()
        self._busy_s = 0.0

    # ------------------------------------------------------------------ #
    # Client interface
    # ------------------------------------------------------------------ #
    def submit(self, images: np.ndarray) -> int:
        """Enqueue a batch of images for inference (thread safe).

        Args:
            images: ``(batch, channels, height, width)`` float64 tensor;
                any batch size (oversized requests are split at dispatch).

        Returns:
            The request id to pass to :meth:`result`.

        Raises:
            ConfigurationError: The tensor is not 4-D, the batch is
                empty, or a pixel is NaN or infinite (it has no integer
                code, and its failed forward would fail every batchmate).
        """
        images = np.asarray(images, dtype=np.float64)
        if images.ndim != 4:
            raise ConfigurationError(
                f"expected images of shape (batch, channels, height, width), "
                f"got {images.shape}"
            )
        if images.shape[0] == 0:
            raise ConfigurationError("a request needs at least one image")
        check_finite("images", images)
        with self._lock:
            request_id = self._next_request_id
            self._next_request_id += 1
            request = InferenceRequest(
                request_id=request_id,
                images=images,
                arrival_s=time.perf_counter(),
            )
            self._queue.append(request)
            self._pending[request_id] = _PendingOutput(request=request)
            self._work_available.notify()
        return request_id

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Synchronous convenience: submit, serve the queue, return labels.

        Everything already queued ahead of this request is served too (in
        arrival order), exactly like a real server draining its backlog.

        Args:
            images: ``(batch, channels, height, width)`` float64 tensor.

        Returns:
            Predicted class labels, one per image.
        """
        request_id = self.submit(images)
        self.drain()
        return self.result(request_id).predictions

    def result(self, request_id: int) -> RequestResult:
        """The completed result of a request.

        Args:
            request_id: The id :meth:`submit` returned.

        Returns:
            The request's :class:`RequestResult` (predictions + latency).

        Raises:
            ConfigurationError: The request is still pending.
            Exception: The original model/engine exception if the
                request's batch failed (whether it failed on the
                synchronous path or inside the background worker).
        """
        with self._lock:
            if request_id in self._failed:
                raise self._failed[request_id]
            if request_id not in self._completed:
                raise ConfigurationError(
                    f"request {request_id} is not complete; call drain() or "
                    "run the background worker"
                )
            return self._completed[request_id]

    @property
    def pending_images(self) -> int:
        """Images queued but not yet dispatched."""
        with self._lock:
            return sum(request.remaining for request in self._queue)

    # ------------------------------------------------------------------ #
    # Batch formation and execution
    # ------------------------------------------------------------------ #
    def _take_batch_locked(self) -> List[Tuple[InferenceRequest, int, int]]:
        """Pop up to ``max_batch_size`` images from the queue head.

        Returns ``(request, start, stop)`` image slices; requests larger
        than the remaining budget are split and stay at the queue head.
        """
        plan: List[Tuple[InferenceRequest, int, int]] = []
        budget = self.max_batch_size
        while budget > 0 and self._queue:
            request = self._queue[0]
            take = min(budget, request.remaining)
            plan.append((request, request.consumed, request.consumed + take))
            request.consumed += take
            budget -= take
            if request.remaining == 0:
                self._queue.popleft()
        return plan

    def _execute_batch(
        self, plan: Sequence[Tuple[InferenceRequest, int, int]]
    ) -> List[RequestResult]:
        """Run one coalesced batch and complete any finished requests."""
        batch_index = len(self._batches)
        engine = self.engine
        chip = engine.chip
        start_s = time.perf_counter()
        try:
            # Everything from coalescing to the forward pass can fail (e.g.
            # requests of incompatible image shapes concatenated into one
            # batch); any failure must land on the requests, not strand them.
            images = np.concatenate(
                [req.images[start:stop] for req, start, stop in plan]
            )
            mark = engine.ledger_mark()
            predictions = self.model.predict(images)
        except Exception as error:
            self._fail_batch(plan, error)
            raise
        host_wall = time.perf_counter() - start_s
        self._busy_s += host_wall
        total_cycles, critical, energy_j = engine.ledger_since(mark)
        utilization = (
            total_cycles / (chip.num_macros * critical) if critical else 0.0
        )
        record = BatchRecord(
            batch_index=batch_index,
            images=int(images.shape[0]),
            request_ids=tuple(req.request_id for req, _, _ in plan),
            host_wall_s=host_wall,
            total_cycles=total_cycles,
            critical_path_cycles=critical,
            energy_j=energy_j,
            modeled_latency_s=critical * chip.cycle_time_s(),
            utilization=utilization,
        )

        completed: List[RequestResult] = []
        offset = 0
        done_s = time.perf_counter()
        with self._lock:
            self._batches.append(record)
            for request, start, stop in plan:
                pending = self._pending[request.request_id]
                pending.predictions.append(predictions[offset : stop - start + offset])
                pending.batch_indices.append(batch_index)
                offset += stop - start
                if stop == request.size:
                    result = RequestResult(
                        request_id=request.request_id,
                        predictions=np.concatenate(pending.predictions),
                        queue_delay_s=start_s - request.arrival_s,
                        latency_s=done_s - request.arrival_s,
                        batch_indices=tuple(pending.batch_indices),
                    )
                    self._completed[request.request_id] = result
                    self._results.append(result)
                    del self._pending[request.request_id]
                    completed.append(result)
        return completed

    def _fail_batch(
        self, plan: Sequence[Tuple[InferenceRequest, int, int]], error: BaseException
    ) -> None:
        """Attach a batch failure to every request it contained.

        The requests are taken out of the pending/queue state (any images of
        a split request not yet dispatched are dropped too — a half-failed
        request has no usable result) and the original exception is stored
        so :meth:`result` / :meth:`predict` re-raise it on the submitting
        client's thread instead of the failure dying inside the worker.
        """
        with self._lock:
            for request, _, _ in plan:
                self._failed[request.request_id] = error
                self._pending.pop(request.request_id, None)
                if request.remaining > 0:
                    try:
                        self._queue.remove(request)
                    except ValueError:
                        pass

    def serve_once(self) -> List[RequestResult]:
        """Form and execute one batch; returns the requests it completed."""
        with self._dispatch_lock:
            with self._lock:
                plan = self._take_batch_locked()
            if not plan:
                return []
            return self._execute_batch(plan)

    def drain(self) -> List[RequestResult]:
        """Serve the whole backlog synchronously.

        Returns:
            Every :class:`RequestResult` completed by this call, in
            completion order.
        """
        completed: List[RequestResult] = []
        while True:
            batch = self.serve_once()
            if not batch and self.pending_images == 0:
                return completed
            completed.extend(batch)

    # ------------------------------------------------------------------ #
    # Background worker
    # ------------------------------------------------------------------ #
    def _worker_loop(self) -> None:
        while True:
            with self._work_available:
                while not self._stop_requested and not self._queue:
                    self._work_available.wait(timeout=0.05)
                if self._stop_requested and not self._queue:
                    return
                # Dispatch on a full batch, otherwise honour the wait budget
                # of the oldest request before sending a partial batch.  A
                # condition wakeup (new submit) re-evaluates both rules, so
                # trickling submits keep accumulating instead of flushing a
                # partial batch early.
                while not self._stop_requested:
                    if not self._queue:
                        # A concurrent drain()/predict() consumed the queue
                        # while we waited; nothing left to batch.
                        break
                    pending = sum(request.remaining for request in self._queue)
                    budget_left = self.max_wait_s - (
                        time.perf_counter() - self._queue[0].arrival_s
                    )
                    if pending >= self.max_batch_size or budget_left <= 0:
                        break
                    self._work_available.wait(timeout=budget_left)
            try:
                self.serve_once()
            except Exception:
                # The failure is already stored on every request of the
                # batch (re-raised by result()/predict() on the client's
                # thread); the worker itself survives to serve the rest of
                # the queue instead of dying silently.
                continue

    def start(self) -> None:
        """Start the background batching worker."""
        if self._worker is not None and self._worker.is_alive():
            raise ConfigurationError("the server worker is already running")
        self._stop_requested = False
        self._worker = threading.Thread(
            target=self._worker_loop, name="imc-inference-server", daemon=True
        )
        self._worker.start()

    def stop(self) -> None:
        """Drain the queue and stop the background worker (idempotent).

        Safe to call any number of times, before :meth:`start`, after a
        previous :meth:`stop`, and from ``__exit__``.
        """
        worker = self._worker
        if worker is None:
            return
        with self._work_available:
            self._stop_requested = True
            self._work_available.notify_all()
        worker.join()
        self._worker = None

    # ------------------------------------------------------------------ #
    # Context manager
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "InferenceServer":
        """Start the background worker (if not already running)."""
        if self._worker is None or not self._worker.is_alive():
            self.start()
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        """Stop the worker; the queue is drained before the worker exits."""
        self.stop()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    @property
    def batches(self) -> List[BatchRecord]:
        """Per-batch dispatch records (in execution order)."""
        return list(self._batches)

    @property
    def results(self) -> List[RequestResult]:
        """Per-request results (in completion order)."""
        return list(self._results)

    def report(self) -> ServerReport:
        """Aggregate everything served so far."""
        results = self.results
        batches = self.batches
        images = sum(batch.images for batch in batches)
        cache = self.engine.cache
        wall = max(self._busy_s, 1e-12)
        return ServerReport(
            requests=len(results),
            images=images,
            batches=len(batches),
            mean_batch_size=images / len(batches) if batches else 0.0,
            throughput_images_per_s=images / wall if images else 0.0,
            mean_latency_s=(
                sum(r.latency_s for r in results) / len(results) if results else 0.0
            ),
            max_latency_s=max((r.latency_s for r in results), default=0.0),
            mean_queue_delay_s=(
                sum(r.queue_delay_s for r in results) / len(results)
                if results
                else 0.0
            ),
            total_cycles=sum(batch.total_cycles for batch in batches),
            total_energy_j=sum(batch.energy_j for batch in batches),
            modeled_chip_time_s=sum(batch.modeled_latency_s for batch in batches),
            mean_utilization=(
                sum(batch.utilization for batch in batches) / len(batches)
                if batches
                else 0.0
            ),
            cache_hits=cache.hits,
            cache_misses=cache.misses,
            cache_evictions=cache.evictions,
        )
