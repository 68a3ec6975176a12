"""The worker process: fused forwards over registered models, nothing else.

``worker_main`` is the spawn-context entry point.  A worker builds no node,
chip or engine: the coordinator's :class:`~repro.fleet.shadow.ShadowNode`
replicas keep the fleet's one ledger, so a worker keeps only the models
that :class:`~repro.fleet.messages.RegisterModel` delivers.  It resolves
activation tensors through a :class:`~repro.fleet.shm.TensorReader` and
answers each run of consecutive dispatches with one golden forward per
model (:func:`~repro.fleet.shadow.forward_into`) and the run's
completions, in ``seq`` order, before any later reply.

The loop is single-threaded and message-driven (the event-style,
non-threaded concurrency shape): receive one batch of messages, process
them in order, send one batch of replies.  It never blocks on anything
but the pipe, and it never makes a scheduling decision.

``crash_after`` is the deterministic fault hook of the crash drills: the
worker dies (hard ``os._exit`` from a process, soft pipe-close from a
thread transport) *after* taking that many dispatch groups and *before*
acknowledging the next — exactly the mid-batch window the coordinator's
recovery has to cover.
"""

from __future__ import annotations

import contextlib
import os
import traceback
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.cluster.node import NodeSpec
from repro.fleet.messages import (
    Completion,
    Dispatch,
    Hello,
    RegisterModel,
    Shutdown,
    Sync,
    SyncReply,
    WorkerFailure,
)
from repro.fleet.shadow import PendingGroup, forward_into
from repro.fleet.shm import TensorReader
from repro.obs import MetricsRegistry

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs, picklable for the spawn context."""

    rank: int
    specs: Tuple[NodeSpec, ...]
    log_path: Optional[str] = None
    #: Crash drill: die after taking this many dispatch groups,
    #: before acknowledging the next (``None`` = never).
    crash_after: Optional[int] = None
    #: ``True``: die with ``os._exit`` (spawn transport).  ``False``:
    #: close the pipe and return (thread transport — an in-process
    #: worker must not take the whole interpreter down with it).
    hard_exit: bool = True


@contextlib.contextmanager
def _log_writer(config: WorkerConfig) -> Iterator:
    """A line logger for the worker's log file, closed on the way out."""
    if config.log_path is None:
        yield lambda line: None
        return
    with open(config.log_path, "a", encoding="utf-8", buffering=1) as handle:
        yield lambda line: handle.write(f"[worker {config.rank}] {line}\n")


def worker_main(config: WorkerConfig, conn) -> None:
    """Serve one shard over a duplex pipe until Shutdown, a closed pipe or
    the crash drill.

    Args:
        config: The worker's shard and drill settings.
        conn: The child end of a :func:`multiprocessing.Pipe`.
    """
    with _log_writer(config) as log:
        _serve(config, conn, log)


def _serve(config: WorkerConfig, conn, log) -> None:
    """The worker loop: one batch of replies per batch of messages."""
    models: Dict[str, object] = {}
    node_ids = tuple(sorted(spec.node_id for spec in config.specs))
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
    run: List[Tuple[int, PendingGroup]] = []  # the current run of dispatches

    def complete(replies) -> None:
        """Forward the run's groups and append their completions."""
        forwards_counter.inc(forward_into([group for _, group in run], models, step))
        replies.extend(Completion(seq, tuple(group.targets)) for seq, group in run)
        run.clear()

    log(f"online pid={os.getpid()} nodes={list(node_ids)}")
    try:
        replies = [Hello(config.rank, os.getpid(), node_ids)]
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
                    hits_before, misses_before = reader.hits, reader.misses
                    arrays = [reader.fetch(ref) for ref in message.parts]
                    tensor_fetches.labels(rank=str(config.rank), outcome="hit").inc(
                        reader.hits - hits_before
                    )
                    tensor_fetches.labels(rank=str(config.rank), outcome="miss").inc(
                        reader.misses - misses_before
                    )
                    images = sum(a.shape[0] for a in arrays)
                    grouped = np.empty(images, dtype=np.int64)
                    parts = [(a, None) for a in arrays]
                    run.append((message.seq, PendingGroup(message.model_id, parts, grouped)))
                    groups_done += 1
                    groups_counter.inc()
                    requests_counter.inc(len(arrays))
                    images_counter.inc(images)
                    continue
                complete(replies)
                if isinstance(message, RegisterModel):
                    models[message.model_id] = message.model
                    log(f"registered model {message.model_id!r}")
                elif isinstance(message, Sync):
                    replies.append(
                        SyncReply(
                            barrier_id=message.barrier_id,
                            rank=config.rank,
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
