"""The fleet coordinator: one virtual-time brain, N executing bodies.

:class:`FleetCluster` shards a fleet description across ``workers``
spawn-context processes and runs the whole admission/placement/virtual-
time loop locally over :class:`~repro.fleet.shadow.ShadowNode` replicas.
The division of labour:

* **Coordinator (this process)** — scheduling, reservations, virtual
  clocks, fault injection, telemetry, ledgers.  All of it runs on the
  shadows' exact-charge accounting, so it is deterministic, never waits
  on a worker, and is bit-identical to a single-process
  :class:`~repro.cluster.router.ClusterRouter` over the same fleet.
* **Workers** — the numpy forwards, in parallel: one golden forward per
  model over each run of dispatches, replayed on the same charge-only
  replicas.  Completions carry only prediction tensors, written in place
  into the placeholder arrays the shadows handed out.

Message flow is work-conserving and batched: a worker with no sent group
awaiting its completion gets a new group at once, a busy one up to
``flush_every`` groups per pipe send, with a bounded per-worker in-flight
window (``max_inflight``) for backpressure; activation tensors travel via
the digest-keyed shared-memory :class:`~repro.fleet.shm.TensorStore`.

**Crash handling.**  A dead pipe marks the worker's shadow nodes FAILED —
the router's own backlog-replay machinery (PR 5) then re-places queued
requests onto survivors, flagged ``replayed`` — and every unacknowledged
in-flight group is recovered locally by the workers' charge-free fused
forward (bit-identical predictions, no double accounting:
those groups' ledger charges and traces were already recorded by the
shadow at dispatch time).

**Sync barriers.**  :meth:`sync` flushes, waits for all in-flight work,
collects each live worker's ledgers and ``repro.obs`` snapshot, merges
them in stable worker-rank order, and cross-checks every worker ledger
against its shadow to equality — a live fidelity audit of the whole
charge-mirror design.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import ClusterNode, NodeSpec, NodeState
from repro.errors import ConfigurationError
from repro.fleet.messages import (
    Completion,
    Dispatch,
    Hello,
    RegisterModel,
    Retune,
    Shutdown,
    Sync,
    SyncReply,
    TensorRef,
    WorkerFailure,
)
from repro.fleet.shadow import FleetRouter, PendingGroup, ShadowNode, forward_into
from repro.fleet.shm import TensorStore
from repro.fleet.worker import WorkerConfig, worker_main
from repro.obs import MetricsRegistry
from repro.utils.validation import check_positive

__all__ = ["FleetCluster", "FleetError", "FleetFidelityError"]


class FleetError(RuntimeError):
    """A fleet runtime failure (dead workers, timeouts, protocol errors)."""


class FleetFidelityError(FleetError):
    """A worker's ledger diverged from its shadow at a sync barrier."""


@dataclass
class _InflightGroup:
    """One shipped dispatch group awaiting its completion."""

    seq: int
    request_ids: Tuple[int, ...]
    refs: Tuple[TensorRef, ...]
    pending: PendingGroup


@dataclass
class _WorkerHandle:
    """Coordinator-side state of one worker."""

    rank: int
    conn: object
    runner: object
    config: WorkerConfig
    alive: bool = True
    pid: Optional[int] = None
    outbox: list = field(default_factory=list)
    inflight: Dict[int, _InflightGroup] = field(default_factory=dict)
    #: Every group with a lower ``seq`` has left the outbox.
    flushed_seq: int = 0


class FleetCluster:
    """A sharded, multi-process drop-in for :class:`ClusterRouter`.

    Exposes the router surface the gateway and the workload tools use
    (``submit`` / ``drain`` / ``result`` / ``queue_depth`` / ``ledger`` /
    ``replay_trace`` / ``shutdown`` ...); anything else delegates to the
    internal coordinator router, which *is* a ``ClusterRouter`` over the
    shadow fleet.  Workers replay the dispatches on the same replicas and
    fuse their golden forwards, so predictions are exact whatever mode the
    specs name; read-disturb chips are refused (no replica runs their
    engine-bound forward).

    Args:
        nodes: The fleet description — :class:`ClusterNode` instances
            (their :meth:`~ClusterNode.spec` recipes are taken; the
            originals are left untouched) or ready :class:`NodeSpec`\\ s.
        workers: Worker process count; node ``i`` lands on rank
            ``i % workers`` (the stable rank mapping every merge uses).
        transport: ``"spawn"`` (real processes, the default) or
            ``"thread"`` — the same worker loop on an in-process thread,
            used by tests to drive the full message protocol under
            coverage and by crash drills that must not kill the host.
        flush_every: Dispatch groups a busy worker's outbox buffers
            before a pipe send (amortises pickling/wakeups).  A worker
            with no sent group awaiting its completion is idle and gets
            each new group at once.
        max_inflight: Bound of unacknowledged groups per worker; at the
            bound the coordinator drains completions before shipping
            more (backpressure, and a pipe-deadlock guard).
        inline_bytes: Tensors at or below this size bypass shared memory.
        log_dir: Directory for per-worker log files
            (``fleet-worker-<rank>.log``) — the CI crash artifacts.
        crash_after: Optional ``{rank: N}`` crash drills (see
            :class:`~repro.fleet.worker.WorkerConfig`).
        barrier_timeout_s: Hard ceiling on any wait for worker progress.

    Remaining keyword arguments (``scheduler``, ``telemetry``,
    ``coalesce``, ``fault_plan``, ``metrics``, ``tracer``) pass straight
    through to the coordinator router.
    """

    def __init__(
        self,
        nodes: Sequence[object],
        workers: int = 2,
        *,
        transport: str = "spawn",
        flush_every: int = 32,
        max_inflight: int = 512,
        inline_bytes: int = 2048,
        log_dir: Optional[str] = None,
        crash_after: Optional[Dict[int, int]] = None,
        barrier_timeout_s: float = 120.0,
        **router_kwargs,
    ) -> None:
        check_positive("workers", workers)
        check_positive("flush_every", flush_every)
        check_positive("max_inflight", max_inflight)
        check_positive("barrier_timeout_s", barrier_timeout_s)
        if transport not in ("spawn", "thread"):
            raise ConfigurationError(
                f"transport must be 'spawn' or 'thread', got {transport!r}"
            )
        specs = tuple(
            node.spec() if isinstance(node, ClusterNode) else node
            for node in nodes
        )
        if not specs:
            raise ConfigurationError("a fleet needs at least one node")
        if any(not isinstance(spec, NodeSpec) for spec in specs):
            raise ConfigurationError(
                "nodes must be ClusterNode or NodeSpec instances"
            )
        if any(spec.config.inject_read_disturb for spec in specs):
            raise ConfigurationError(
                "a fleet cannot serve read-disturb chips: "
                "no replica runs their engine-bound forward"
            )
        if workers > len(specs):
            raise ConfigurationError(
                f"{workers} workers need at least as many nodes "
                f"(got {len(specs)})"
            )
        self.workers = workers
        self.transport = transport
        self.flush_every = flush_every
        self.max_inflight = max_inflight
        self.barrier_timeout_s = barrier_timeout_s
        self._rank_of: Dict[str, int] = {
            spec.node_id: index % workers for index, spec in enumerate(specs)
        }
        self._specs = specs
        shadows = [spec.build(node_cls=ShadowNode) for spec in specs]
        self._shadow_by_id: Dict[str, ShadowNode] = {
            shadow.node_id: shadow for shadow in shadows
        }
        self._router = FleetRouter(shadows, self, **router_kwargs)
        for shadow in shadows:
            shadow.retune_hook = self._queue_retune
        self._store = TensorStore(inline_bytes=inline_bytes)
        self._next_seq = 0
        self._next_barrier = 0
        self._pending_predictions: set = set()
        self._sync_replies: Dict[int, SyncReply] = {}
        self._worker_metrics: Dict[int, dict] = {}
        self._log_dir = log_dir
        self._shutdown_done = False
        #: Requests whose predictions were recovered coordinator-side
        #: after a worker death (the mid-batch window).
        self.locally_recovered = 0
        #: Worker deaths observed (crash drills, kills, real faults).
        self.worker_crashes = 0

        crash_after = crash_after or {}
        self._handles: List[_WorkerHandle] = []
        if log_dir is not None:
            os.makedirs(log_dir, exist_ok=True)
        context = multiprocessing.get_context("spawn")
        for rank in range(workers):
            shard = tuple(
                spec for spec in specs if self._rank_of[spec.node_id] == rank
            )
            config = WorkerConfig(
                rank=rank,
                specs=shard,
                log_path=(
                    os.path.join(log_dir, f"fleet-worker-{rank}.log")
                    if log_dir is not None
                    else None
                ),
                crash_after=crash_after.get(rank),
                hard_exit=(transport == "spawn"),
            )
            parent_conn, child_conn = context.Pipe(duplex=True)
            if transport == "spawn":
                runner = context.Process(
                    target=worker_main,
                    args=(config, child_conn),
                    name=f"fleet-worker-{rank}",
                    daemon=True,
                )
                runner.start()
                child_conn.close()  # the child owns its end now
            else:
                runner = threading.Thread(
                    target=worker_main,
                    args=(config, child_conn),
                    name=f"fleet-worker-{rank}",
                    daemon=True,
                )
                runner.start()
            self._handles.append(
                _WorkerHandle(
                    rank=rank, conn=parent_conn, runner=runner, config=config
                )
            )

    # ------------------------------------------------------------------ #
    # Delegation to the coordinator router
    # ------------------------------------------------------------------ #
    def __getattr__(self, name: str):
        if name.startswith("__"):
            raise AttributeError(name)
        router = self.__dict__.get("_router")
        if router is None:
            raise AttributeError(name)
        return getattr(router, name)

    @property
    def tracer(self):
        """The coordinator router's span tracer (gateway attaches here)."""
        return self._router.tracer

    @tracer.setter
    def tracer(self, value) -> None:
        """Forward tracer assignment to the coordinator router."""
        self._router.tracer = value

    @property
    def _obs(self):
        # attach_cluster_observability() assigns router._obs directly; the
        # forwarding property lands that on the real router so dispatch
        # hooks actually fire.
        return self._router._obs

    @_obs.setter
    def _obs(self, value) -> None:
        self._router._obs = value

    # ------------------------------------------------------------------ #
    # Model registration
    # ------------------------------------------------------------------ #
    def register_model(
        self, model_id: str, model, allow_transient: bool = False
    ) -> None:
        """Register a model on every shadow and every worker replica."""
        self._router.register_model(model_id, model, allow_transient=allow_transient)
        message = RegisterModel(model_id, model, allow_transient)
        for handle in self._handles:
            if handle.alive:
                handle.outbox.append(message)

    # ------------------------------------------------------------------ #
    # Dispatch shipping (called from FleetRouter._dispatch_direct)
    # ------------------------------------------------------------------ #
    def _queue_retune(self, node_id: str, vdd: float) -> None:
        handle = self._handles[self._rank_of[node_id]]
        if handle.alive:
            handle.outbox.append(Retune(node_id, vdd))

    def _on_group_dispatched(self, node_id: str, request_ids: List[int]) -> None:
        shadow = self._shadow_by_id[node_id]
        pending = shadow.take_pending()
        if pending is None:  # pragma: no cover - defensive
            return
        request_ids = tuple(request_ids)
        refs: List[TensorRef] = []
        digests: List[Optional[str]] = []
        for images, digest in pending.parts:
            key = (
                digest
                if digest is not None
                else ClusterNode._content_digest(images)
            )
            refs.append(self._store.put(key, images))
            digests.append(digest)
        group = _InflightGroup(
            seq=self._next_seq,
            request_ids=request_ids,
            refs=tuple(refs),
            pending=pending,
        )
        self._next_seq += 1
        self._pending_predictions.update(request_ids)
        handle = self._handles[self._rank_of[node_id]]
        if not handle.alive:
            # The worker died between the shadow failing and the router
            # noticing (or the fill is racing a crash): recover locally.
            self._recover(handle, [group])
            return
        handle.inflight[group.seq] = group
        handle.outbox.append(
            Dispatch(
                seq=group.seq,
                node_id=node_id,
                model_id=pending.model_id,
                parts=group.refs,
                digests=tuple(digests),
                request_ids=request_ids,
            )
        )
        self._poll_all()
        # Work-conserving: when the oldest in-flight group is still in the
        # outbox, the worker has nothing to do, so it gets the groups now.
        if (
            len(handle.outbox) >= self.flush_every
            or next(iter(handle.inflight), -1) >= handle.flushed_seq
        ):
            self._flush(handle)
        waited = time.monotonic()
        while handle.alive and len(handle.inflight) >= self.max_inflight:
            self._flush(handle)
            self._receive(handle, timeout=0.2)
            if time.monotonic() - waited > self.barrier_timeout_s:
                raise FleetError(
                    f"worker {handle.rank} made no progress for "
                    f"{self.barrier_timeout_s:.0f}s with "
                    f"{len(handle.inflight)} groups in flight"
                )

    # ------------------------------------------------------------------ #
    # Pipe machinery
    # ------------------------------------------------------------------ #
    def _flush(self, handle: _WorkerHandle) -> None:
        if not handle.outbox or not handle.alive:
            return
        batch, handle.outbox = handle.outbox, []
        handle.flushed_seq = self._next_seq
        try:
            handle.conn.send(batch)
        except (OSError, ValueError, BrokenPipeError):
            self._worker_died(handle)

    def _poll_all(self) -> None:
        for handle in self._handles:
            while handle.alive and handle.conn.poll(0):
                self._receive(handle, timeout=0)

    def _receive(self, handle: _WorkerHandle, timeout: float = 0.2) -> bool:
        """Receive and process one message batch; ``True`` if one arrived."""
        if not handle.alive:
            return False
        try:
            if not handle.conn.poll(timeout):
                if self._runner_dead(handle) and not handle.conn.poll(0):
                    self._worker_died(handle)
                return False
            batch = handle.conn.recv()
        except (EOFError, OSError):
            self._worker_died(handle)
            return False
        for message in batch:
            self._handle_message(handle, message)
        return True

    def _runner_dead(self, handle: _WorkerHandle) -> bool:
        runner = handle.runner
        if isinstance(runner, threading.Thread):
            return not runner.is_alive()
        return runner.exitcode is not None

    def _handle_message(self, handle: _WorkerHandle, message) -> None:
        if isinstance(message, Completion):
            group = handle.inflight.pop(message.seq, None)
            if group is None:  # pragma: no cover - defensive
                return
            for target, predictions in zip(group.pending.targets, message.predictions):
                target[:] = predictions
            self._settle_group(group)
        elif isinstance(message, SyncReply):
            self._sync_replies[handle.rank] = message
        elif isinstance(message, Hello):
            handle.pid = message.pid
        elif isinstance(message, WorkerFailure):
            self._worker_died(handle)
            raise FleetError(
                f"worker {message.rank} failed: {message.message}\n"
                f"{message.traceback}"
            )
        else:  # pragma: no cover - protocol misuse guard
            raise FleetError(f"unexpected fleet message {message!r}")

    def _settle_group(self, group: _InflightGroup) -> None:
        for ref in group.refs:
            self._store.release(ref)
        self._pending_predictions.difference_update(group.request_ids)

    # ------------------------------------------------------------------ #
    # Crash handling
    # ------------------------------------------------------------------ #
    def _worker_died(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.worker_crashes += 1
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        # The worker's shadow nodes leave rotation as a *fault*: the
        # router's next sync pass replays their queued backlog onto
        # survivors through the PR 5 machinery (replayed=True traces).
        for node_id, rank in self._rank_of.items():
            if rank != handle.rank:
                continue
            shadow = self._shadow_by_id[node_id]
            if shadow.state is NodeState.ACTIVE:
                shadow.fail()
        # Unacknowledged in-flight groups were already charged and traced
        # by their shadows — only the predictions are missing.  Recover
        # them locally, charge-free and bit-identical.
        self._recover(handle, list(handle.inflight.values()))
        handle.inflight.clear()
        handle.outbox.clear()

    def _recover(self, handle: _WorkerHandle, groups: List[_InflightGroup]) -> None:
        """Fill a dead worker's in-flight groups, one forward per model."""
        step = min(spec.max_batch_size for spec in handle.config.specs)
        forward_into([group.pending for group in groups], step)
        for group in groups:
            self.locally_recovered += len(group.request_ids)
            self._settle_group(group)

    @property
    def live_workers(self) -> List[int]:
        """Ranks still serving."""
        return [handle.rank for handle in self._handles if handle.alive]

    # ------------------------------------------------------------------ #
    # Barriers
    # ------------------------------------------------------------------ #
    def _await_predictions(self) -> None:
        """Flush everything and wait until no group is in flight."""
        for handle in self._handles:
            self._flush(handle)
        deadline = time.monotonic() + self.barrier_timeout_s
        for handle in self._handles:
            while handle.alive and handle.inflight:
                self._receive(handle, timeout=0.2)
                if time.monotonic() > deadline:
                    raise FleetError(
                        f"worker {handle.rank} still holds "
                        f"{len(handle.inflight)} in-flight groups after "
                        f"{self.barrier_timeout_s:.0f}s"
                    )

    def sync(self) -> Dict[str, object]:
        """Full barrier: drain in-flight work, merge and audit worker state.

        Collects each live worker's per-node ledgers and metrics
        snapshot, folds the snapshots into :meth:`metrics_snapshot`'s
        cache in stable rank order, and cross-checks every worker ledger
        against its shadow — total cycles and array accesses to integer
        equality, total energy to float equality (the exact-charge
        contract is bit-identity, and the tests hold it there).

        Returns:
            A report: barrier id, live ranks, per-rank dispatch-group
            counts, and the audited node count.
        """
        self._await_predictions()
        barrier_id = self._next_barrier
        self._next_barrier += 1
        self._sync_replies = {}
        for handle in self._handles:
            if handle.alive:
                handle.outbox.append(Sync(barrier_id))
                self._flush(handle)
        deadline = time.monotonic() + self.barrier_timeout_s
        for handle in self._handles:
            while handle.alive and handle.rank not in self._sync_replies:
                self._receive(handle, timeout=0.2)
                if time.monotonic() > deadline:
                    raise FleetError(
                        f"worker {handle.rank} missed barrier {barrier_id} "
                        f"after {self.barrier_timeout_s:.0f}s"
                    )
        audited = 0
        groups: Dict[int, int] = {}
        for rank in sorted(self._sync_replies):
            reply = self._sync_replies[rank]
            if reply.barrier_id != barrier_id:
                raise FleetError(
                    f"worker {rank} answered barrier {reply.barrier_id}, "
                    f"expected {barrier_id}"
                )
            self._worker_metrics[rank] = reply.metrics
            groups[rank] = reply.dispatch_groups
            for node_id, ledger in reply.ledgers.items():
                shadow_ledger = self._shadow_by_id[node_id].ledger()
                if (
                    ledger.total_cycles != shadow_ledger.total_cycles
                    or ledger.array_accesses != shadow_ledger.array_accesses
                    or ledger.total_energy_j != shadow_ledger.total_energy_j
                ):
                    raise FleetFidelityError(
                        f"worker {rank} ledger for node {node_id!r} diverged "
                        f"from its shadow: cycles "
                        f"{ledger.total_cycles} vs {shadow_ledger.total_cycles}, "
                        f"energy {ledger.total_energy_j!r} vs "
                        f"{shadow_ledger.total_energy_j!r}"
                    )
                audited += 1
        return {
            "barrier_id": barrier_id,
            "live_workers": self.live_workers,
            "dispatch_groups": groups,
            "audited_nodes": audited,
        }

    # ------------------------------------------------------------------ #
    # Router surface with barrier semantics
    # ------------------------------------------------------------------ #
    def submit(self, *args, **kwargs) -> int:
        """Admit one request (see :meth:`ClusterRouter.submit`)."""
        return self._router.submit(*args, **kwargs)

    def dispatch_next(self):
        """Dispatch the earliest-start request and wait for its predictions."""
        result = self._router.dispatch_next()
        if result is not None:
            self._await_predictions()
        return result

    def drain(self):
        """Drain the backlog; returns results with predictions materialised.

        The virtual-time loop never waits on workers — the wait happens
        once, here at the end, and the placeholder arrays inside the
        returned results are filled in place as completions land.
        """
        completed = self._router.drain()
        self._await_predictions()
        return completed

    def result(self, request_id: int):
        """A completed result, predictions guaranteed materialised."""
        if request_id in self._pending_predictions:
            self._await_predictions()
        return self._router.result(request_id)

    def replay_trace(
        self, trace, image_pool, drain_every: int = 64, autoscaler=None
    ) -> Dict[str, float]:
        """Stream a workload trace through the fleet in arrival order.

        Runs the coordinator router's :meth:`ClusterRouter.replay_trace`,
        whose per-chunk drains do *not* barrier — the coordinator keeps
        admitting and charging while workers chew through earlier chunks
        in parallel; predictions are awaited once at the end (and the
        reported wall time includes that wait, so requests/sec is honest
        end-to-end throughput).
        """
        start = time.perf_counter()
        stats = self._router.replay_trace(
            trace, image_pool, drain_every=drain_every, autoscaler=autoscaler
        )
        self._await_predictions()
        wall_s = time.perf_counter() - start
        stats["wall_s"] = wall_s
        stats["requests_per_s"] = stats["requests"] / wall_s if wall_s else 0.0
        stats["images_per_s"] = stats["images"] / wall_s if wall_s else 0.0
        return stats

    # ------------------------------------------------------------------ #
    # Accounting / observability
    # ------------------------------------------------------------------ #
    def ledger(self):
        """The authoritative cluster ledger (the shadows' merge).

        Identical to the single-process oracle's by construction; the
        worker replicas' ledgers are audited against the shadows at every
        :meth:`sync` instead of being merged here — a dead worker's nodes
        therefore never leave a hole in the accounting.
        """
        return self._router.ledger()

    def worker_ledgers(self) -> Dict[int, Dict[str, object]]:
        """Per-rank node ledgers from the most recent :meth:`sync`."""
        return {
            rank: dict(reply.ledgers)
            for rank, reply in sorted(self._sync_replies.items())
        }

    def metrics_snapshot(self) -> dict:
        """One merged ``repro.obs`` snapshot: coordinator + every worker.

        Worker snapshots are the ones captured at the latest
        :meth:`sync`, folded in stable rank order into a *copy* of the
        coordinator registry (repeated calls never double-count).
        """
        registry = self._router_metrics_copy()
        registry.merge_snapshots(
            self._worker_metrics[rank] for rank in sorted(self._worker_metrics)
        )
        return registry.snapshot()

    def _router_metrics_copy(self) -> MetricsRegistry:
        obs = self._router._obs
        if obs is not None:
            return MetricsRegistry.from_snapshot(obs.metrics.snapshot())
        return MetricsRegistry()

    def summary(self) -> Dict[str, object]:
        """The router summary plus fleet-runtime counters."""
        report = self._router.summary()
        report["fleet"] = {
            "workers": float(self.workers),
            "live_workers": float(len(self.live_workers)),
            "worker_crashes": float(self.worker_crashes),
            "locally_recovered": float(self.locally_recovered),
            "tensor_segments": float(self._store.segments_created),
            "tensor_reuse_hits": float(self._store.reuse_hits),
            "inline_refs": float(self._store.inline_refs),
        }
        return report

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self) -> None:
        """Stop workers, unlink shared memory, settle the router (idempotent)."""
        if self._shutdown_done:
            return
        self._shutdown_done = True
        try:
            self._await_predictions()
        except FleetError:  # dying workers must not block teardown
            pass
        for handle in self._handles:
            if handle.alive:
                handle.outbox.append(Shutdown())
                self._flush(handle)
        for handle in self._handles:
            runner = handle.runner
            if isinstance(runner, threading.Thread):
                runner.join(timeout=10.0)
            else:
                runner.join(timeout=10.0)
                if runner.exitcode is None:  # pragma: no cover
                    runner.terminate()
                    runner.join(timeout=5.0)
            if handle.alive:
                try:
                    handle.conn.close()
                except OSError:  # pragma: no cover
                    pass
                handle.alive = False
        self._store.close()
        self._router.shutdown()

    def __enter__(self) -> "FleetCluster":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.shutdown()
