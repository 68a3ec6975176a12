"""Span-based request lifecycle tracing on the dual clock.

A request's life is a small tree of spans::

    gateway.accept
    └─ admission
       └─ schedule
          └─ dispatch
             └─ engine.charge
    response.write

The cluster layers run in *modeled* time, so their spans are emitted
retroactively (:meth:`Tracer.emit`) with virtual start/end seconds taken
from the dispatch record; the gateway layers run in wall time and use
:meth:`Tracer.start_span` / :meth:`Tracer.end_span` around real I/O.
Both kinds carry dual timestamps, like every metric sample.

Sampling is **deterministic**: a request is traced iff
``request_id % sample_every == 0`` (default 1/1024 in hot paths).  The
same arithmetic runs identically in the cluster router and the gateway,
so instrumented replays stay bit-reproducible — the property
``benchmarks/bench_obs_overhead.py`` gates.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed step of a request's lifecycle.

    ``trace_id`` groups the spans of one request; ``parent_id`` links the
    tree.  Virtual timestamps are ``None`` for wall-only spans (gateway
    I/O before the router's clock is involved).
    """

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int] = None
    start_virtual_s: Optional[float] = None
    end_virtual_s: Optional[float] = None
    start_wall_s: Optional[float] = None
    end_wall_s: Optional[float] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration_virtual_s(self) -> Optional[float]:
        """Modeled duration (None unless both virtual stamps are set)."""
        if self.start_virtual_s is None or self.end_virtual_s is None:
            return None
        return self.end_virtual_s - self.start_virtual_s

    def to_dict(self) -> dict:
        """JSON-safe rendering of the span."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_virtual_s": self.start_virtual_s,
            "end_virtual_s": self.end_virtual_s,
            "start_wall_s": self.start_wall_s,
            "end_wall_s": self.end_wall_s,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Allocates span ids, applies the sampling rule, retains spans.

    Args:
        sample_every: Trace one request in this many (``request_id``
            modulo); 1 traces everything, 0 disables tracing entirely.
        max_spans: Bound of the retained span ring (oldest evicted).

    Span ids are a plain monotonic counter, so two runs over the same
    workload produce identical ids — tracing never perturbs determinism.
    """

    def __init__(self, sample_every: int = 1024, max_spans: int = 4096) -> None:
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.sample_every = sample_every
        self.spans: Deque[Span] = deque(maxlen=max_spans)
        self._next_span_id = 1
        self.sampled_requests = 0

    def should_sample(self, request_id: int) -> bool:
        """The deterministic sampling rule (same in every subsystem)."""
        return self.sample_every > 0 and request_id % self.sample_every == 0

    def _allocate(self) -> int:
        span_id = self._next_span_id
        self._next_span_id += 1
        return span_id

    # -------------------------------------------------------------- #
    # Wall-clock spans (gateway I/O)
    # -------------------------------------------------------------- #
    def start_span(
        self,
        name: str,
        trace_id: int,
        parent: Optional[Span] = None,
        virtual_s: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Open a span now (wall clock); close with :meth:`end_span`."""
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._allocate(),
            parent_id=parent.span_id if parent is not None else None,
            start_virtual_s=virtual_s,
            start_wall_s=time.time(),
            attrs=attrs,
        )
        return span

    def end_span(self, span: Span, virtual_s: Optional[float] = None) -> Span:
        """Close a span (wall clock) and retain it."""
        span.end_wall_s = time.time()
        if virtual_s is not None:
            span.end_virtual_s = virtual_s
        self.spans.append(span)
        return span

    # -------------------------------------------------------------- #
    # Retroactive modeled-time spans (cluster router)
    # -------------------------------------------------------------- #
    def emit(
        self,
        name: str,
        trace_id: int,
        start_virtual_s: float,
        end_virtual_s: float,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Record an already-finished modeled-time span.

        The cluster knows a request's full timeline only once the
        dispatch completes, so its spans arrive after the fact with both
        virtual endpoints; the wall stamp marks when the span was
        *recorded* (both endpoints equal — the modeled work costs no
        wall time of its own).
        """
        wall = time.time()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=self._allocate(),
            parent_id=parent.span_id if parent is not None else None,
            start_virtual_s=start_virtual_s,
            end_virtual_s=end_virtual_s,
            start_wall_s=wall,
            end_wall_s=wall,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def emit_request(
        self,
        request_id: int,
        node_id: str,
        arrival_s: float,
        start_s: float,
        finish_s: float,
        compute_s: float,
        **attrs,
    ) -> int:
        """Emit the standard modeled-time span tree of one request.

        ``admission → schedule → dispatch → engine.charge``, rooted at
        the request's arrival.  Returns the root span id (threaded into
        the request's :class:`~repro.cluster.telemetry.RequestTrace`).

        The taxonomy (see ``docs/OBSERVABILITY.md``): *admission* covers
        arrival to dispatch start (the queue), *schedule* is the
        placement decision (instantaneous in modeled time), *dispatch*
        covers the node's service interval, and *engine.charge* is the
        compute portion of the dispatch on the chosen node.
        """
        self.sampled_requests += 1
        root = self.emit(
            "admission", request_id, arrival_s, start_s, node_id=node_id, **attrs
        )
        schedule = self.emit(
            "schedule", request_id, arrival_s, arrival_s, parent=root, node_id=node_id
        )
        dispatch = self.emit(
            "dispatch", request_id, start_s, finish_s, parent=schedule, node_id=node_id
        )
        self.emit(
            "engine.charge",
            request_id,
            max(start_s, finish_s - compute_s),
            finish_s,
            parent=dispatch,
            node_id=node_id,
        )
        return root.span_id

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #
    def spans_for(self, trace_id: int) -> List[Span]:
        """Retained spans of one request, in emission order."""
        return [span for span in self.spans if span.trace_id == trace_id]

    def to_dicts(self) -> List[dict]:
        """JSON-safe rendering of every retained span."""
        return [span.to_dict() for span in self.spans]
