"""Wire types of the coordinator <-> worker pipes.

The fleet protocol is deliberately small: a handful of frozen dataclasses
pickled over :mod:`multiprocessing` duplex pipes, always as *lists* (one
``send`` per batch), so a flush amortises the pickling and wakeup cost of
a pipe round-trip over many dispatch groups.

Two invariants the whole design leans on:

* **Per-pipe FIFO is per-node order.**  Every message to a worker travels
  on that worker's single pipe and is processed sequentially, so the
  dispatch/retune sequence a worker applies to one of its nodes is exactly
  the sequence the coordinator's shadow replica charged — which is what
  makes the worker-side ledgers bit-identical to the shadows'.
* **Activation tensors travel by reference.**  A :class:`TensorRef` names
  a digest-keyed :class:`multiprocessing.shared_memory.SharedMemory`
  block (or carries a small array inline); the bytes cross the process
  boundary once per distinct digest, not once per request — the gateway's
  ``images_ref`` idiom, one level down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "TensorRef",
    "Hello",
    "RegisterModel",
    "Dispatch",
    "Retune",
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
    """Register a model on every node the worker owns."""

    model_id: str
    model: object
    allow_transient: bool = False


@dataclass(frozen=True)
class Dispatch:
    """Execute one dispatch group (one request, or a coalesced run).

    ``parts``/``digests``/``request_ids`` are parallel, in queue order —
    the same order the coordinator's shadow charged the group in.
    """

    seq: int
    node_id: str
    model_id: str
    parts: Tuple[TensorRef, ...]
    digests: Tuple[Optional[str], ...]
    request_ids: Tuple[int, ...]


@dataclass(frozen=True)
class Retune:
    """Mirror a shadow node's DVFS actuation onto the worker's replica.

    Ordered between dispatches on the pipe, so the worker's chip rebuild
    (and the re-programming charges that follow) lands at exactly the
    point in the node's dispatch sequence where the shadow's did.
    """

    node_id: str
    vdd: float


@dataclass(frozen=True)
class Sync:
    """Barrier request: reply with ledgers + metrics once all prior work ran."""

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
    """Barrier answer: the worker's accounting state at the barrier.

    ``ledgers`` maps node id to the node's lifetime
    :class:`~repro.core.stats.MacroStatistics`; ``metrics`` is a
    ``repro.obs`` registry snapshot (merged coordinator-side in stable
    worker-rank order).
    """

    barrier_id: int
    rank: int
    ledgers: Dict[str, object]
    metrics: dict
    dispatch_groups: int


@dataclass(frozen=True)
class WorkerFailure:
    """A worker-side exception, forwarded before the worker exits."""

    rank: int
    message: str
    traceback: str
