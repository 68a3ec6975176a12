"""Vectorized trace-driven load generation for cluster studies.

Million-request scheduling experiments need million-request workloads, and
synthesising them one Python object at a time would cost more than serving
them on the analytic fast path.  This module builds whole traces as numpy
arrays:

* :func:`poisson_trace` — stationary Poisson arrivals (exponential gaps);
* :func:`diurnal_trace` — an inhomogeneous Poisson process whose rate
  follows a raised-cosine day/night profile, sampled exactly by inverting
  the integrated rate function (no thinning loop);
* :func:`burst_trace` — a stationary baseline overlaid with periodic
  rate-multiplied burst windows, sampled through the same inverse-transform
  machinery.

Every generator decorates the arrival times with vectorized draws of the
request mix: model, SLA class, image count and (for the latency class) a
deadline.  :func:`build_image_pool` slices a finite pool of distinct
request batches whose slot digests double as the ``input_digest`` the
analytic execution mode memoises forwards by, and
:meth:`ClusterRouter.replay_trace <repro.cluster.router.ClusterRouter.replay_trace>`
streams a trace through the router in arrival order, drawing each request's
images round-robin from that pool and draining in bounded chunks so queues
(and the per-dispatch reservation re-chaining) stay short.

Everything is seeded and deterministic: the same seed always produces the
same trace, so trace studies are reproducible down to the ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.scheduler import SLAClass
from repro.errors import ConfigurationError
from repro.utils.validation import check_positive

__all__ = [
    "WorkloadTrace",
    "poisson_trace",
    "diurnal_trace",
    "burst_trace",
]

#: Canonical SLA order of the ``sla_indices`` column.
SLA_ORDER: Tuple[SLAClass, ...] = (
    SLAClass.LATENCY,
    SLAClass.THROUGHPUT,
    SLAClass.BEST_EFFORT,
)


@dataclass(frozen=True)
class WorkloadTrace:
    """One synthesised request trace, column-oriented.

    ``arrivals_s`` is sorted and non-negative; ``sla_indices`` indexes
    :data:`SLA_ORDER`; ``model_indices`` indexes :attr:`model_ids`;
    ``deadlines_s`` is ``nan`` for requests without a deadline.
    """

    scenario: str
    model_ids: Tuple[str, ...]
    arrivals_s: np.ndarray
    image_counts: np.ndarray
    model_indices: np.ndarray
    sla_indices: np.ndarray
    deadlines_s: np.ndarray

    def __len__(self) -> int:
        return int(self.arrivals_s.shape[0])

    @property
    def duration_s(self) -> float:
        """Span of the trace on the virtual clock."""
        if len(self) == 0:
            return 0.0
        return float(self.arrivals_s[-1])

    @property
    def total_images(self) -> int:
        """Images across every request of the trace."""
        return int(self.image_counts.sum())

    @property
    def mean_rate_rps(self) -> float:
        """Average arrival rate over the trace span."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return len(self) / duration

    def head(self, requests: int) -> "WorkloadTrace":
        """The first ``requests`` arrivals as a trace of their own."""
        return WorkloadTrace(
            scenario=self.scenario,
            model_ids=self.model_ids,
            arrivals_s=self.arrivals_s[:requests],
            image_counts=self.image_counts[:requests],
            model_indices=self.model_indices[:requests],
            sla_indices=self.sla_indices[:requests],
            deadlines_s=self.deadlines_s[:requests],
        )

    def summary(self) -> Dict[str, float]:
        """Flat description for reports."""
        sla_counts = np.bincount(self.sla_indices, minlength=len(SLA_ORDER))
        summary = {
            "requests": float(len(self)),
            "images": float(self.total_images),
            "duration_s": self.duration_s,
            "mean_rate_rps": self.mean_rate_rps,
        }
        for sla, count in zip(SLA_ORDER, sla_counts):
            summary[f"{sla.value}_requests"] = float(count)
        return summary


def _normalised(name: str, weights: Optional[Sequence[float]], size: int) -> np.ndarray:
    if weights is None:
        return np.full(size, 1.0 / size)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (size,) or (weights < 0).any() or weights.sum() <= 0:
        raise ConfigurationError(
            f"{name} must be {size} non-negative weights with a positive sum"
        )
    return weights / weights.sum()


def _assemble(
    scenario: str,
    arrivals: np.ndarray,
    rng: np.random.Generator,
    model_ids: Sequence[str],
    model_weights: Optional[Sequence[float]],
    image_counts: Sequence[int],
    image_count_weights: Optional[Sequence[float]],
    sla_mix: Optional[Dict[str, float]],
    deadline_s: Optional[float],
) -> WorkloadTrace:
    """Decorate sorted arrivals with the vectorized request mix."""
    model_ids = tuple(model_ids)
    if not model_ids:
        raise ConfigurationError("at least one model id is required")
    image_counts = np.asarray(list(image_counts), dtype=np.int64)
    if image_counts.size == 0 or (image_counts <= 0).any():
        raise ConfigurationError("image_counts must be positive integers")
    requests = arrivals.shape[0]

    mix = {sla.value: 0.0 for sla in SLA_ORDER}
    if sla_mix is None:
        mix["best_effort"] = 1.0
    else:
        unknown = set(sla_mix) - set(mix)
        if unknown:
            raise ConfigurationError(f"unknown SLA classes in sla_mix: {sorted(unknown)}")
        mix.update(sla_mix)
    sla_weights = _normalised(
        "sla_mix", [mix[sla.value] for sla in SLA_ORDER], len(SLA_ORDER)
    )
    if sla_weights[0] > 0 and (deadline_s is None or deadline_s <= 0):
        raise ConfigurationError(
            "a latency-class share requires a positive deadline_s"
        )

    model_p = _normalised("model_weights", model_weights, len(model_ids))
    count_p = _normalised("image_count_weights", image_count_weights, image_counts.size)

    model_indices = rng.choice(len(model_ids), size=requests, p=model_p)
    counts = image_counts[rng.choice(image_counts.size, size=requests, p=count_p)]
    sla_indices = rng.choice(len(SLA_ORDER), size=requests, p=sla_weights)
    deadlines = np.full(requests, np.nan)
    if deadline_s is not None:
        deadlines[sla_indices == 0] = float(deadline_s)

    return WorkloadTrace(
        scenario=scenario,
        model_ids=model_ids,
        arrivals_s=arrivals,
        image_counts=counts,
        model_indices=model_indices.astype(np.int64),
        sla_indices=sla_indices.astype(np.int64),
        deadlines_s=deadlines,
    )


def poisson_trace(
    requests: int,
    rate_rps: float,
    model_ids: Sequence[str] = ("model-a",),
    model_weights: Optional[Sequence[float]] = None,
    image_counts: Sequence[int] = (4, 8, 16),
    image_count_weights: Optional[Sequence[float]] = None,
    sla_mix: Optional[Dict[str, float]] = None,
    deadline_s: Optional[float] = None,
    seed: int = 2020,
) -> WorkloadTrace:
    """Stationary Poisson arrivals at ``rate_rps`` requests per second."""
    check_positive("requests", requests)
    check_positive("rate_rps", rate_rps)
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=requests))
    return _assemble(
        "poisson",
        arrivals,
        rng,
        model_ids,
        model_weights,
        image_counts,
        image_count_weights,
        sla_mix,
        deadline_s,
    )


def _inverse_transform_arrivals(
    rng: np.random.Generator,
    requests: int,
    grid_t: np.ndarray,
    rate_fn,
) -> np.ndarray:
    """Exact inhomogeneous-Poisson arrivals via the integrated rate.

    The cumulative rate ``L(t) = \\int rate(u) du`` is evaluated on a dense
    grid (trapezoid rule); arrivals are the inverse images of sorted
    uniforms on ``[0, L(T)]`` — the textbook time-change construction,
    fully vectorized.
    """
    rates = rate_fn(grid_t)
    if (rates < 0).any():
        raise ConfigurationError("rate function must be non-negative")
    gaps = np.diff(grid_t)
    cumulative = np.concatenate(
        ([0.0], np.cumsum(0.5 * (rates[1:] + rates[:-1]) * gaps))
    )
    total = cumulative[-1]
    if total <= 0:
        raise ConfigurationError("rate function integrates to zero over the span")
    targets = np.sort(rng.uniform(0.0, total, size=requests))
    return np.interp(targets, cumulative, grid_t)


def diurnal_trace(
    requests: int,
    period_s: float,
    base_rate_rps: float,
    peak_rate_rps: float,
    periods: float = 2.0,
    model_ids: Sequence[str] = ("model-a",),
    model_weights: Optional[Sequence[float]] = None,
    image_counts: Sequence[int] = (4, 8, 16),
    image_count_weights: Optional[Sequence[float]] = None,
    sla_mix: Optional[Dict[str, float]] = None,
    deadline_s: Optional[float] = None,
    grid_points: int = 4096,
    seed: int = 2020,
) -> WorkloadTrace:
    """Day/night arrivals: a raised-cosine rate between base and peak.

    ``rate(t) = base + (peak - base) * (1 - cos(2 pi t / period)) / 2`` —
    the trough sits at ``t = 0`` and the peak half a period later.
    """
    check_positive("requests", requests)
    check_positive("period_s", period_s)
    check_positive("base_rate_rps", base_rate_rps)
    check_positive("periods", periods)
    if peak_rate_rps < base_rate_rps:
        raise ConfigurationError("peak_rate_rps must be >= base_rate_rps")
    rng = np.random.default_rng(seed)
    span = period_s * periods
    grid = np.linspace(0.0, span, grid_points)

    def rate(t: np.ndarray) -> np.ndarray:
        swing = (peak_rate_rps - base_rate_rps) * 0.5
        return base_rate_rps + swing * (1.0 - np.cos(2.0 * np.pi * t / period_s))

    arrivals = _inverse_transform_arrivals(rng, requests, grid, rate)
    return _assemble(
        "diurnal",
        arrivals,
        rng,
        model_ids,
        model_weights,
        image_counts,
        image_count_weights,
        sla_mix,
        deadline_s,
    )


def burst_trace(
    requests: int,
    base_rate_rps: float,
    burst_every_s: float,
    burst_duration_s: float,
    burst_multiplier: float = 8.0,
    span_s: Optional[float] = None,
    model_ids: Sequence[str] = ("model-a",),
    model_weights: Optional[Sequence[float]] = None,
    image_counts: Sequence[int] = (4, 8, 16),
    image_count_weights: Optional[Sequence[float]] = None,
    sla_mix: Optional[Dict[str, float]] = None,
    deadline_s: Optional[float] = None,
    grid_points: int = 8192,
    seed: int = 2020,
) -> WorkloadTrace:
    """A stationary baseline punctuated by periodic rate-multiplied bursts.

    Every ``burst_every_s`` seconds the rate jumps to ``burst_multiplier``
    times the baseline for ``burst_duration_s`` — flash crowds on top of
    steady traffic.  ``span_s`` defaults to the time the baseline alone
    would need to carry the trace, so several bursts always fit.
    """
    check_positive("requests", requests)
    check_positive("base_rate_rps", base_rate_rps)
    check_positive("burst_every_s", burst_every_s)
    check_positive("burst_duration_s", burst_duration_s)
    if burst_duration_s >= burst_every_s:
        raise ConfigurationError("burst_duration_s must be below burst_every_s")
    if burst_multiplier < 1.0:
        raise ConfigurationError("burst_multiplier must be >= 1")
    rng = np.random.default_rng(seed)
    span = span_s if span_s is not None else requests / base_rate_rps
    check_positive("span_s", span)
    grid = np.linspace(0.0, span, grid_points)

    def rate(t: np.ndarray) -> np.ndarray:
        in_burst = np.mod(t, burst_every_s) < burst_duration_s
        return base_rate_rps * np.where(in_burst, burst_multiplier, 1.0)

    arrivals = _inverse_transform_arrivals(rng, requests, grid, rate)
    return _assemble(
        "burst",
        arrivals,
        rng,
        model_ids,
        model_weights,
        image_counts,
        image_count_weights,
        sla_mix,
        deadline_s,
    )


def build_image_pool(
    images_by_model: Dict[str, np.ndarray],
    image_counts: Sequence[int],
    pool_slots: int = 8,
) -> Dict[Tuple[str, int], List[Tuple[str, np.ndarray]]]:
    """Distinct request batches per (model, image count), with stable digests.

    Slices ``pool_slots`` distinct windows out of each model's image bank
    for every request size; the returned digests are unique per slot and
    safe to pass as ``input_digest`` (identical digest => identical bytes).
    """
    check_positive("pool_slots", pool_slots)
    pool: Dict[Tuple[str, int], List[Tuple[str, np.ndarray]]] = {}
    for model_id, bank in images_by_model.items():
        bank = np.ascontiguousarray(np.asarray(bank, dtype=np.float64))
        for count in image_counts:
            if bank.shape[0] < count:
                raise ConfigurationError(
                    f"model {model_id!r} needs at least {count} bank images"
                )
            slots = []
            stride = max(1, (bank.shape[0] - count) // max(1, pool_slots - 1))
            for slot in range(pool_slots):
                start = min(slot * stride, bank.shape[0] - count)
                slots.append(
                    (
                        f"{model_id}/{count}/{start}",
                        np.ascontiguousarray(bank[start : start + count]),
                    )
                )
            pool[(model_id, count)] = slots
    return pool

