"""Digest-keyed shared-memory transport for activation tensors.

The coordinator-side :class:`TensorStore` owns the blocks: ``put`` writes
an array into a :class:`multiprocessing.shared_memory.SharedMemory`
segment keyed by the request's input digest (the gateway's ``images_ref``
idiom) and hands back a picklable :class:`~repro.fleet.messages.TensorRef`;
in-flight dispatches pin their digests with a refcount, and fully released
entries linger LRU so a trace workload's small pool of distinct inputs
crosses the process boundary once per digest, not once per request.

The worker-side :class:`TensorReader` resolves refs: it attaches the named
block, copies the bytes out, closes the mapping immediately and memoises
the copy by digest — so no numpy view ever outlives a mapping (no
``BufferError`` on close, no dependence on coordinator-side lifetimes) and
repeated digests cost one dict hit.

Small arrays skip shared memory entirely and ride inline in the ref:
below ``inline_bytes`` the pickle cost is lower than a segment round-trip.

Attachment uses ``track=False`` where Python supports it (3.13+); on older
runtimes attaches simply re-register with the (tree-shared, set-backed)
resource tracker, which the coordinator's ``unlink`` balances — see
:func:`attach_readonly`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.fleet.messages import TensorRef
from repro.utils.validation import check_positive

__all__ = ["TensorStore", "TensorReader", "attach_readonly"]


def attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment without taking ownership of its cleanup.

    On 3.13+ ``track=False`` skips resource-tracker registration natively.
    Earlier runtimes register every attach — which is harmless here: the
    tracker process (and its name cache, a set) is shared across the
    spawn tree, so a worker's attach-registration dedupes against the
    coordinator's create-registration, and the coordinator's ``unlink``
    balances it.  Unregistering by hand instead would strip the creator's
    entry and make that unlink warn.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


@dataclass
class _StoreEntry:
    """One digest's segment plus its pin count."""

    segment: Optional[shared_memory.SharedMemory]
    ref: TensorRef
    pins: int = 0


class TensorStore:
    """Coordinator-side owner of the shared activation tensors.

    Args:
        inline_bytes: Arrays at or below this size ride inline in the
            :class:`TensorRef` instead of a shared segment.
        capacity: Unpinned entries retained for digest reuse; beyond it
            the least recently used zero-pin entries are unlinked.
    """

    def __init__(self, inline_bytes: int = 2048, capacity: int = 1024) -> None:
        if inline_bytes < 0:
            raise ConfigurationError("inline_bytes must be non-negative")
        check_positive("capacity", capacity)
        self.inline_bytes = inline_bytes
        self.capacity = capacity
        self._entries: "OrderedDict[str, _StoreEntry]" = OrderedDict()
        self.segments_created = 0
        self.inline_refs = 0
        self.reuse_hits = 0
        self._closed = False

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, digest: str, array: np.ndarray) -> TensorRef:
        """Publish one tensor under a digest; pins the entry until released.

        Two calls may share a digest only if their bytes are identical —
        the same contract the forward memo and the gateway cache already
        hold digests to.
        """
        if self._closed:
            raise ConfigurationError("TensorStore is closed")
        array = np.ascontiguousarray(array, dtype=np.float64)
        entry = self._entries.get(digest)
        if entry is not None:
            entry.pins += 1
            self.reuse_hits += 1
            self._entries.move_to_end(digest)
            return entry.ref
        if array.nbytes <= self.inline_bytes:
            ref = TensorRef(
                digest=digest,
                shape=tuple(array.shape),
                dtype=str(array.dtype),
                inline=array,
            )
            self.inline_refs += 1
            # Inline refs are still tracked (pins work the same either
            # way); they just own no segment.
            self._entries[digest] = _StoreEntry(segment=None, ref=ref, pins=1)
            return ref
        segment = shared_memory.SharedMemory(create=True, size=array.nbytes)
        self.segments_created += 1
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        view[:] = array
        del view  # no exported buffers may outlive segment.close()
        ref = TensorRef(
            digest=digest,
            shape=tuple(array.shape),
            dtype=str(array.dtype),
            shm_name=segment.name,
        )
        self._entries[digest] = _StoreEntry(segment=segment, ref=ref, pins=1)
        return ref

    def release(self, ref: TensorRef) -> None:
        """Unpin one ref; fully released entries become LRU-evictable."""
        entry = self._entries.get(ref.digest)
        if entry is None:
            return
        entry.pins = max(0, entry.pins - 1)
        self._evict()

    def _evict(self) -> None:
        """Unlink least-recently-used zero-pin entries beyond capacity."""
        if len(self._entries) <= self.capacity:
            return
        for digest in list(self._entries):
            if len(self._entries) <= self.capacity:
                break
            entry = self._entries[digest]
            if entry.pins:
                continue
            del self._entries[digest]
            self._destroy(entry)

    @staticmethod
    def _destroy(entry: _StoreEntry) -> None:
        if entry.segment is not None:
            entry.segment.close()
            try:
                entry.segment.unlink()
            except FileNotFoundError:  # already gone (operator cleanup)
                pass

    def close(self) -> None:
        """Unlink every segment; safe to call repeatedly."""
        if self._closed:
            return
        self._closed = True
        for entry in self._entries.values():
            self._destroy(entry)
        self._entries.clear()

    def __enter__(self) -> "TensorStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()


class TensorReader:
    """Worker-side resolver of :class:`TensorRef` handles.

    Copies each distinct digest out of shared memory once and serves
    repeats from a bounded LRU of the copies.
    """

    def __init__(self, capacity: int = 1024) -> None:
        check_positive("capacity", capacity)
        self.capacity = capacity
        self._cache: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def fetch(self, ref: TensorRef) -> np.ndarray:
        """Materialise one ref (cached per digest)."""
        cached = self._cache.get(ref.digest)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(ref.digest)
            return cached
        self.misses += 1
        if ref.shm_name is None:
            array = np.asarray(ref.inline, dtype=np.float64)
        else:
            segment = attach_readonly(ref.shm_name)
            try:
                view = np.ndarray(
                    ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf
                )
                array = np.array(view)  # own copy; mapping closes next line
                del view
            finally:
                segment.close()
        self._cache[ref.digest] = array
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return array

    def summary(self) -> Dict[str, float]:
        """Flat counters for worker sync replies / reports."""
        return {
            "entries": float(len(self._cache)),
            "hits": float(self.hits),
            "misses": float(self.misses),
        }
