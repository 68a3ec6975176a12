"""The worker process: charge-only replicas, fused forwards, no scheduling.

``worker_main`` is the spawn-context entry point.  A worker builds its
shard as the coordinator's own :class:`~repro.fleet.shadow.ShadowNode`
replicas (from the pickled :class:`~repro.cluster.node.NodeSpec`
recipes), resolves activation tensors through a :class:`~repro.fleet.
shm.TensorReader`, and charges each dispatch group exactly as the
coordinator's shadow did — same class, same order, same batch formation
— so its ledgers are bit-identical to the shadows' and the sync-barrier
cross-check can hold them to equality.  Each run of consecutive dispatches
gets one golden forward per model (:func:`~repro.fleet.shadow.
forward_into`) and its completions, in ``seq`` order, before any later
reply.

The loop is single-threaded and message-driven (the event-style,
non-threaded concurrency shape): receive one batch of messages, process
them in order, send one batch of replies.  It never blocks on anything
but the pipe, and it never makes a scheduling decision.

``crash_after`` is the deterministic fault hook of the crash drills: the
worker dies (hard ``os._exit`` from a process, soft pipe-close from a
thread transport) *after* charging that many dispatch groups and
*before* acknowledging the next — exactly the mid-batch window the
coordinator's recovery has to cover.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cluster.node import NodeSpec
from repro.fleet.messages import (
    Completion,
    Dispatch,
    Hello,
    RegisterModel,
    Retune,
    Shutdown,
    Sync,
    SyncReply,
    WorkerFailure,
)
from repro.fleet.shadow import forward_into, shadows_from_specs
from repro.fleet.shm import TensorReader
from repro.obs import MetricsRegistry

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, picklable for the spawn context."""

    rank: int
    specs: Tuple[NodeSpec, ...]
    log_path: Optional[str] = None
    #: Crash drill: die after charging this many dispatch groups,
    #: before acknowledging the next (``None`` = never).
    crash_after: Optional[int] = None
    #: ``True``: die with ``os._exit`` (spawn transport).  ``False``:
    #: close the pipe and return (thread transport — an in-process
    #: worker must not take the whole interpreter down with it).
    hard_exit: bool = True


def _log_writer(config: WorkerConfig):
    if config.log_path is None:
        return lambda line: None
    handle = open(config.log_path, "a", encoding="utf-8", buffering=1)

    def write(line: str) -> None:
        handle.write(f"[worker {config.rank}] {line}\n")

    return write


def worker_main(config: WorkerConfig, conn) -> None:
    """Serve one shard over a duplex pipe until Shutdown, a closed pipe or
    the crash drill.

    Args:
        config: The worker's shard and drill settings.
        conn: The child end of a :func:`multiprocessing.Pipe`.
    """
    log = _log_writer(config)
    nodes = {node.node_id: node for node in shadows_from_specs(config.specs)}
    step = min(spec.max_batch_size for spec in config.specs)
    reader = TensorReader()
    metrics = MetricsRegistry()
    labels = {"rank": str(config.rank)}
    groups_counter = metrics.counter(
        "fleet_worker_dispatch_groups_total",
        "Dispatch groups executed by this worker.",
        labelnames=("rank",),
    ).labels(**labels)
    requests_counter = metrics.counter(
        "fleet_worker_requests_total",
        "Requests completed by this worker (group parts).",
        labelnames=("rank",),
    ).labels(**labels)
    images_counter = metrics.counter(
        "fleet_worker_images_total",
        "Images executed by this worker.",
        labelnames=("rank",),
    ).labels(**labels)
    forwards_counter = metrics.counter(
        "fleet_worker_forwards_total",
        "Golden forward calls run by this worker.",
        labelnames=("rank",),
    ).labels(**labels)
    tensor_fetches = metrics.counter(
        "fleet_worker_tensor_fetches_total",
        "TensorRef resolutions, by shared-memory cache outcome.",
        labelnames=("rank", "outcome"),
    )

    groups_done = 0
    run = []  # (seq, pending group) of the current run of dispatches

    def complete(replies) -> None:
        """Forward the run's groups and append their completions."""
        forwards_counter.inc(forward_into([group for _, group in run], step))
        replies.extend(Completion(seq, tuple(group.targets)) for seq, group in run)
        run.clear()

    log(f"online pid={os.getpid()} nodes={sorted(nodes)}")
    try:
        replies = [Hello(config.rank, os.getpid(), tuple(sorted(nodes)))]
        while True:
            # A send or receive on a pipe the coordinator closed (it may
            # have declared this worker dead) ends the worker quietly.
            try:
                if replies:
                    conn.send(replies)
                batch = conn.recv()
            except (EOFError, OSError):
                log("pipe closed; exiting")
                return
            replies = []
            for message in batch:
                if isinstance(message, Dispatch):
                    if (
                        config.crash_after is not None
                        and groups_done >= config.crash_after
                    ):
                        log(
                            f"crash drill: dying mid-batch after "
                            f"{groups_done} groups (seq {message.seq} unacked)"
                        )
                        if config.hard_exit:
                            os._exit(3)
                        conn.close()
                        return
                    node = nodes[message.node_id]
                    hits_before, misses_before = reader.hits, reader.misses
                    arrays = [reader.fetch(ref) for ref in message.parts]
                    tensor_fetches.labels(rank=str(config.rank), outcome="hit").inc(
                        reader.hits - hits_before
                    )
                    tensor_fetches.labels(rank=str(config.rank), outcome="miss").inc(
                        reader.misses - misses_before
                    )
                    node.execute_group(message.model_id, list(zip(arrays, message.digests)))
                    run.append((message.seq, node.take_pending()))
                    groups_done += 1
                    groups_counter.inc()
                    requests_counter.inc(len(message.request_ids))
                    images_counter.inc(sum(a.shape[0] for a in arrays))
                    continue
                complete(replies)
                if isinstance(message, RegisterModel):
                    for node in nodes.values():
                        node.register_model(
                            message.model_id,
                            message.model,
                            allow_transient=message.allow_transient,
                        )
                    log(f"registered model {message.model_id!r}")
                elif isinstance(message, Retune):
                    nodes[message.node_id].retune(message.vdd)
                    log(f"retuned {message.node_id} to {message.vdd} V")
                elif isinstance(message, Sync):
                    replies.append(
                        SyncReply(
                            barrier_id=message.barrier_id,
                            rank=config.rank,
                            ledgers={
                                node_id: node.ledger()
                                for node_id, node in nodes.items()
                            },
                            metrics=metrics.snapshot(),
                            dispatch_groups=groups_done,
                        )
                    )
                    log(
                        f"barrier {message.barrier_id}: {groups_done} groups "
                        f"done, reader {reader.summary()}"
                    )
                elif isinstance(message, Shutdown):
                    try:
                        if replies:
                            conn.send(replies)
                    except OSError:
                        log("pipe closed; exiting")
                        return
                    log("shutdown")
                    conn.close()
                    return
                else:  # pragma: no cover - protocol misuse guard
                    raise RuntimeError(f"unknown fleet message {message!r}")
            complete(replies)
    except Exception as error:  # forward the failure, then die loudly
        log(f"fatal: {error}\n{traceback.format_exc()}")
        try:
            conn.send(
                [
                    WorkerFailure(
                        config.rank, str(error), traceback.format_exc()
                    )
                ]
            )
        except (OSError, ValueError):
            pass
        raise
