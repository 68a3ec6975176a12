"""Wire types of the coordinator <-> worker pipes.

The fleet protocol is deliberately small: a handful of frozen dataclasses
pickled over :mod:`multiprocessing` duplex pipes, always as *lists* (one
``send`` per batch), so a flush amortises the pickling and wakeup cost of
a pipe round-trip over many dispatch groups.

Three invariants the whole design leans on:

* **Per-pipe FIFO.**  Every message to a worker travels on that worker's
  single pipe and is processed in order, so a model's
  :class:`RegisterModel` reaches the worker before any dispatch of it.
* **A completion names its group.**  Every :class:`Dispatch` carries a
  ``seq`` that the coordinator holds in flight until the one
  :class:`Completion` with that ``seq`` lands, so predictions fill the
  right placeholders whatever order a worker answers in; the
  coordinator checks each completion against its in-flight group.
* **Activation tensors travel by reference.**  A :class:`TensorRef` names
  a digest-keyed :class:`multiprocessing.shared_memory.SharedMemory`
  block (or carries a small array inline); the bytes cross the process
  boundary once per distinct digest, not once per request — the gateway's
  ``images_ref`` idiom, one level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "TensorRef",
    "Hello",
    "RegisterModel",
    "Dispatch",
    "Sync",
    "Shutdown",
    "Completion",
    "SyncReply",
    "WorkerFailure",
]


@dataclass(frozen=True)
class TensorRef:
    """A picklable handle to one activation tensor.

    ``shm_name`` names the shared-memory block holding the row-major
    float64 bytes; ``None`` means the array was small enough to ride
    inline (``inline``) instead of paying a block per tiny tensor.
    """

    digest: str
    shape: Tuple[int, ...]
    dtype: str
    shm_name: Optional[str] = None
    inline: Optional[np.ndarray] = None


@dataclass(frozen=True)
class Hello:
    """Worker boot announcement (first message on the pipe)."""

    rank: int
    pid: int
    node_ids: Tuple[str, ...]


@dataclass(frozen=True)
class RegisterModel:
    """Make a model available to the worker's forwards."""

    model_id: str
    model: object


@dataclass(frozen=True)
class Dispatch:
    """Forward one dispatch group (one request, or a coalesced run).

    ``parts`` holds one tensor per request, in the order the
    coordinator's shadow charged the group in.
    """

    seq: int
    model_id: str
    parts: Tuple[TensorRef, ...]


@dataclass(frozen=True)
class Sync:
    """Barrier request: reply with metrics once all prior work ran."""

    barrier_id: int


@dataclass(frozen=True)
class Shutdown:
    """Orderly worker exit (close the pipe, return)."""


@dataclass(frozen=True)
class Completion:
    """Predictions of one dispatch group, in the group's part order."""

    seq: int
    predictions: Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SyncReply:
    """Barrier answer: the worker's counters at the barrier.

    ``metrics`` is a ``repro.obs`` registry snapshot (merged
    coordinator-side in stable worker-rank order); ``dispatch_groups``
    counts the dispatches the worker has taken.
    """

    barrier_id: int
    rank: int
    metrics: dict
    dispatch_groups: int


@dataclass(frozen=True)
class WorkerFailure:
    """A worker-side exception, forwarded before the worker exits."""

    rank: int
    message: str
    traceback: str
