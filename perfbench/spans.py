"""Span recording for the traced run, installed around ``repro`` entry points.

The traced run wraps each layer's public entry points by *name*.  A
wrapper records one span per call — name, start, end, parent (from a
per-thread stack) and the request id when the call carries one — into
flat in-memory arrays, which are written out when the run ends.  An
entry point that no longer exists is reported as absent instead of
failing, so the benchmark outlives refactors that delete or rename one.

A layer's self time is the duration of its spans minus the part their
child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: (module, attribute path, span name, request-id source).  The span
#: name's prefix up to the first dot is the layer the time is charged to.
#: A request-id source of ``"arg"`` takes the first argument after
#: ``self``; ``"return"`` takes the returned id.
ENTRY_POINTS: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.cluster.router", "ClusterRouter.submit", "router.submit", "return"),
    ("repro.cluster.router", "ClusterRouter.drain", "router.drain", None),
    ("repro.cluster.router", "ClusterRouter.result", "router.result", "arg"),
    ("repro.cluster.router", "ClusterRouter.replay_trace", "router.replay_trace", None),
    ("repro.cluster.scheduler", "SLAScheduler.choose", "scheduler.choose", None),
    ("repro.cluster.node", "ClusterNode.execute", "node.execute", None),
    ("repro.cluster.node", "ClusterNode.execute_group", "node.execute_group", None),
    ("repro.cluster.node", "ClusterNode.estimate_request", "node.estimate_request", None),
    ("repro.serve.server", "InferenceServer.drain", "serve.drain", None),
    ("repro.core.matmul", "TiledMatmulEngine.matmul", "engine.matmul", None),
    ("repro.core.matmul", "TiledMatmulEngine.charge_layers", "engine.charge_layers", None),
    ("repro.gateway.protocol", "FrameDecoder.feed", "protocol.feed", None),
    ("repro.gateway.protocol", "encode_frame", "protocol.encode_frame", None),
    ("repro.gateway.protocol", "decode_images", "protocol.decode_images", None),
    ("repro.gateway.protocol", "images_digest", "protocol.images_digest", None),
    ("repro.gateway.journal", "AdmissionJournal.record_admitted", "journal.record_admitted", None),
    ("repro.gateway.journal", "AdmissionJournal.record_done", "journal.record_done", None),
    ("repro.gateway.server", "_RegistryStats.__getitem__", "obs.stats_get", None),
    ("repro.gateway.server", "_RegistryStats.__setitem__", "obs.stats_set", None),
    ("repro.fleet.coordinator", "FleetCluster.replay_trace", "fleet.replay_trace", None),
    ("repro.fleet.coordinator", "FleetCluster.drain", "fleet.drain", None),
    ("repro.fleet.coordinator", "FleetCluster.sync", "fleet.sync", None),
)

#: Classes whose every public method (and property) is an ``obs`` span.
OBS_CLASSES: Tuple[Tuple[str, str], ...] = (
    ("repro.obs.registry", "MetricFamily"),
    ("repro.obs.registry", "Counter"),
    ("repro.obs.registry", "Gauge"),
    ("repro.obs.registry", "Histogram"),
)


_ABSENT = object()


def layer_of(span_name: str) -> str:
    """The layer a span is charged to: its name up to the first dot."""
    return span_name.split(".", 1)[0]


class SpanRecorder:
    """Flat, append-only span storage shared by every wrapper."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        #: 1 where a generator resume produced a value (a decoded frame).
        self.yielded = array("b")
        self.installed: List[str] = []
        self.absent: List[str] = []
        #: (owner, attribute, value before install) of every rebinding.
        self._patched: List[tuple] = []
        self._local = threading.local()

    def name_id(self, span_name: str) -> int:
        if span_name not in self.name_ids:
            self.name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        return self.name_ids[span_name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name_id: int) -> Tuple[list, int]:
        stack = self._stack()
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(-1)
        self.yielded.append(0)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append(index)
        return stack, index

    def _close(self, stack: list, index: int) -> None:
        self.end[index] = time.perf_counter()
        stack.pop()

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, function, span_name: str, request_source: Optional[str] = None):
        """A span-recording stand-in for ``function``."""
        name_id = self.name_id(span_name)
        if inspect.isgeneratorfunction(function):
            return self._wrap_generator(function, name_id)
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack, index = recorder._open(name_id)
            try:
                result = function(*args, **kwargs)
            finally:
                recorder._close(stack, index)
            if request_source == "return" and isinstance(result, int):
                recorder.request[index] = result
            elif request_source == "arg" and len(args) > 1 and isinstance(args[1], int):
                recorder.request[index] = args[1]
            return result

        return traced

    def _wrap_generator(self, function, name_id: int):
        """Generators do their work while resumed: one span per resume."""
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            generator = function(*args, **kwargs)
            while True:
                stack, index = recorder._open(name_id)
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    recorder._close(stack, index)
                recorder.yielded[index] = 1
                yield item

        return traced

    # ------------------------------------------------------------------ #
    # Installation by name
    # ------------------------------------------------------------------ #
    def install(
        self,
        entry_points: Iterable[Tuple[str, str, str, Optional[str]]] = ENTRY_POINTS,
        obs_classes: Iterable[Tuple[str, str]] = OBS_CLASSES,
    ) -> None:
        """Wrap every entry point that exists; record the rest as absent."""
        self.installed, self.absent = [], []
        for module_name, path, span_name, request_source in entry_points:
            owner, attribute = _resolve(module_name, path)
            original = getattr(owner, attribute, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{path}")
                continue
            traced = self.wrap(original, span_name, request_source)
            if inspect.isclass(owner):
                self._rebind(owner, attribute, traced)
            else:
                self._patch_everywhere(original, traced)
            self.installed.append(f"{module_name}.{path}")
        for module_name, class_name in obs_classes:
            owner, _ = _resolve(module_name, class_name + ".x")
            if owner is None:
                self.absent.append(f"{module_name}.{class_name}")
                continue
            for attribute, value in list(vars(owner).items()):
                if attribute.startswith("_"):
                    continue
                span_name = f"obs.{class_name}.{attribute}"
                if isinstance(value, property) and value.fget is not None:
                    self._rebind(
                        owner, attribute, property(self.wrap(value.fget, span_name), value.fset)
                    )
                elif inspect.isfunction(value):
                    self._rebind(owner, attribute, self.wrap(value, span_name))
            self.installed.append(f"{module_name}.{class_name}")

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        for owner, attribute, previous in reversed(self._patched):
            if previous is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        self._patched = []

    def _rebind(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def _patch_everywhere(self, original, traced) -> None:
        """Rebind a module-level function wherever a caller resolves it.

        ``from repro.gateway.protocol import encode_frame`` copies the name
        into the importing module, so the wrapper must replace every loaded
        ``repro`` module's binding of the same function object.
        """
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._rebind(module, attribute, traced)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def columns(self) -> Dict[str, np.ndarray]:
        """The recorded spans as numpy columns (open spans are dropped)."""
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        keep = end > 0.0
        return {
            "name": np.frombuffer(self.name, dtype=np.int32)[keep].copy(),
            "parent": _reindex(np.frombuffer(self.parent, dtype=np.int32), keep),
            "request": np.frombuffer(self.request, dtype=np.int64)[keep].copy(),
            "yielded": np.frombuffer(self.yielded, dtype=np.int8)[keep].copy(),
            "start": np.frombuffer(self.start, dtype=np.float64)[keep].copy(),
            "end": end[keep],
        }

    def write(self, path: str, extra: Optional[dict] = None) -> None:
        """Write spans (``.npz``) plus names and metadata (``.json``)."""
        np.savez(path + ".npz", **self.columns())
        meta = {
            "names": self.names,
            "installed": self.installed,
            "absent": self.absent,
            "extra": extra or {},
        }
        with open(path + ".json", "w") as handle:
            json.dump(meta, handle)


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module.Class.attr`` or ``module.func``."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *owners, attribute = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, attribute


def _reindex(parent: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Parent indices renumbered after dropping spans (dropped -> -1)."""
    new_index = np.cumsum(keep) - 1
    parent = parent[keep].astype(np.int64)
    valid = parent >= 0
    mapped = np.full(parent.shape, -1, dtype=np.int64)
    mapped[valid] = np.where(keep[parent[valid]], new_index[parent[valid]], -1)
    return mapped.astype(np.int32)


# ---------------------------------------------------------------------- #
# Arithmetic
# ---------------------------------------------------------------------- #
def self_times(start: Sequence[float], end: Sequence[float], parent: Sequence[int]) -> np.ndarray:
    """Each span's duration minus the part its direct children cover.

    Children of one span run inside it on one thread and never overlap
    each other, so the covered part is the sum of their durations.
    """
    start = np.asarray(start, dtype=np.float64)
    duration = np.asarray(end, dtype=np.float64) - start
    parent = np.asarray(parent, dtype=np.int64)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def aggregate(columns: Dict[str, np.ndarray], names: Sequence[str]) -> Dict[str, dict]:
    """Per span name: calls, values yielded, total duration and total self
    time (seconds)."""
    if len(columns["start"]) == 0:
        return {}
    own = self_times(columns["start"], columns["end"], columns["parent"])
    duration = columns["end"] - columns["start"]
    ids = columns["name"]
    calls = np.bincount(ids, minlength=len(names))
    total = np.bincount(ids, weights=duration, minlength=len(names))
    self_total = np.bincount(ids, weights=own, minlength=len(names))
    yields = np.bincount(ids, weights=columns["yielded"], minlength=len(names))
    return {
        name: {
            "calls": int(calls[i]),
            "yields": int(yields[i]),
            "total_s": float(total[i]),
            "self_s": float(self_total[i]),
        }
        for i, name in enumerate(names)
        if calls[i]
    }


def merge_aggregates(parts: Iterable[Dict[str, dict]]) -> Dict[str, dict]:
    """Sum per-name aggregates of several processes."""
    merged: Dict[str, dict] = {}
    for part in parts:
        for name, entry in part.items():
            slot = merged.setdefault(name, {"calls": 0, "yields": 0, "total_s": 0.0, "self_s": 0.0})
            for key in slot:
                slot[key] += entry[key]
    return merged


def layer_self_s(aggregates: Dict[str, dict]) -> Dict[str, float]:
    """Self time summed per layer."""
    layers: Dict[str, float] = {}
    for name, entry in aggregates.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + entry["self_s"]
    return layers


def load(path: str, windows: Sequence[Tuple[float, float]] = ()) -> Tuple[Dict[str, dict], dict]:
    """Read a written span file back: (aggregates by name, metadata).

    With ``windows`` (``perf_counter`` bounds, comparable across processes
    of one host) only spans lying inside one of them are kept.
    """
    with open(path + ".json") as handle:
        meta = json.load(handle)
    with np.load(path + ".npz") as data:
        columns = {key: data[key] for key in data.files}
    if windows:
        keep = np.zeros(len(columns["start"]), dtype=bool)
        for low, high in windows:
            keep |= (columns["start"] >= low) & (columns["end"] <= high)
        parent = _reindex(columns["parent"], keep)
        columns = {key: value[keep] for key, value in columns.items()}
        columns["parent"] = parent
    return aggregate(columns, meta["names"]), meta


def traced_worker_main(out_path: str, config, conn) -> None:
    """A fleet worker with span wrappers installed; spans written at exit."""
    from repro.fleet import worker

    recorder = SpanRecorder()
    recorder.install()
    try:
        worker.worker_main(config, conn)
    finally:
        recorder.write(f"{out_path}-rank{config.rank}")
