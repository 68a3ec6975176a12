"""Tests for the ``repro.obs`` observability layer.

Covers the metrics registry (counter/gauge/histogram semantics, label
children, NaN rejection, snapshot round-trips, collectors, dual
timestamps), the span tracer (deterministic sampling, the standard
request span tree), the exposition renderers and the CLI report, plus
the ``percentile_summary`` edge cases and the histogram merge
associativity property the registry docstring promises.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ClusterNode, ClusterRouter, SLAClass
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.gateway.protocol import percentile_summary
from repro.obs import (
    Histogram,
    MetricError,
    MetricsRegistry,
    Tracer,
    render_json,
    render_prometheus,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.__main__ import render_report
from repro.obs.registry import SNAPSHOT_SCHEMA
from repro.reliability import ChipBinner


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_tolerated(self):
        # The gateway's zero-loss accounting occasionally takes a
        # count back, so negative increments must not raise.
        registry = MetricsRegistry()
        counter = registry.counter("staged_total")
        counter.inc(3.0)
        counter.inc(-1.0)
        assert counter.value == 2.0

    def test_nan_increment_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("bad_total")
        with pytest.raises(MetricError, match="NaN"):
            counter.inc(float("nan"))


class TestGauge:
    def test_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("queue_depth")
        gauge.set(7.0)
        gauge.inc(-2.0)
        assert gauge.value == 5.0

    def test_nan_rejected(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("bad_depth")
        with pytest.raises(MetricError, match="NaN"):
            gauge.set(float("nan"))


class TestHistogram:
    def test_basic_statistics(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds").labels()
        for value in (0.5, 1.0, 2.0, 4.0):
            histogram.record(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(7.5)
        assert histogram.min == 0.5
        assert histogram.max == 4.0
        assert histogram.mean == pytest.approx(7.5 / 4)

    def test_zero_samples_get_their_own_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("zeros_seconds").labels()
        histogram.record(0.0)
        histogram.record(0.0)
        assert histogram.zero_count == 2
        assert histogram.buckets == {}
        assert histogram.quantile(0.5) == 0.0

    def test_nan_and_negative_rejected(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("strict_seconds").labels()
        with pytest.raises(MetricError, match="NaN"):
            histogram.record(float("nan"))
        with pytest.raises(MetricError, match=">= 0"):
            histogram.record(-1.0)

    def test_record_many_matches_scalar_path(self):
        registry = MetricsRegistry()
        scalar = registry.histogram("scalar_seconds").labels()
        batch = registry.histogram("batch_seconds").labels()
        values = [0.0, 0.001, 0.01, 0.1, 1.0, 10.0, 0.01]
        for value in values:
            scalar.record(value)
        batch.record_many(np.asarray(values))
        assert batch.buckets == scalar.buckets
        assert batch.zero_count == scalar.zero_count
        assert batch.count == scalar.count
        assert batch.sum == pytest.approx(scalar.sum)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert batch.quantile(q) == scalar.quantile(q)

    def test_record_many_rejects_nan_and_negative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("batch_strict_seconds").labels()
        with pytest.raises(MetricError, match="NaN"):
            histogram.record_many([1.0, float("nan")])
        with pytest.raises(MetricError, match=">= 0"):
            histogram.record_many([1.0, -0.5])
        assert histogram.count == 0

    def test_record_many_empty_is_noop(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("empty_seconds").labels()
        histogram.record_many([])
        assert histogram.count == 0
        assert histogram.wall_s is None

    def test_quantile_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("clamp_seconds").labels()
        histogram.record(3.0)
        # One sample: every positive quantile is that sample (bucket
        # edge is clamped to the observed min/max).
        assert histogram.quantile(0.5) == 3.0
        assert histogram.quantile(1.0) == 3.0

    def test_quantile_domain_checked(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("domain_seconds").labels()
        with pytest.raises(MetricError, match="quantile"):
            histogram.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("void_seconds").labels()
        assert histogram.quantile(0.99) == 0.0
        assert histogram.mean == 0.0

    def test_merge_requires_matching_grid(self):
        clock = lambda: None  # noqa: E731 - trivial stand-in clock
        coarse = Histogram({}, clock, buckets_per_octave=4)
        fine = Histogram({}, clock, buckets_per_octave=8)
        with pytest.raises(MetricError, match="bucket grids"):
            coarse.merge(fine)


class TestRegistry:
    def test_declare_is_idempotent(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", labelnames=("node",))
        second = registry.counter("hits_total", labelnames=("node",))
        assert first is second

    def test_redeclare_with_other_kind_rejected(self):
        registry = MetricsRegistry()
        registry.counter("shape_total")
        with pytest.raises(MetricError, match="already declared"):
            registry.gauge("shape_total")

    def test_invalid_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="invalid metric name"):
            registry.counter("bad-name")

    def test_label_mismatch_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("typed_total", labelnames=("sla",))
        with pytest.raises(MetricError, match="do not match"):
            family.labels(node="n0")
        with pytest.raises(MetricError, match="declares labels"):
            family.inc()

    def test_label_children_are_distinct_series(self):
        registry = MetricsRegistry()
        family = registry.counter("routed_total", labelnames=("sla", "node"))
        family.labels(sla="latency", node="n0").inc(2)
        family.labels(sla="throughput", node="n1").inc(5)
        assert family.labels(sla="latency", node="n0").value == 2
        assert family.labels(sla="throughput", node="n1").value == 5
        assert len(family.samples()) == 2

    def test_virtual_clock_stamps_samples(self):
        clock = {"now": 12.5}
        registry = MetricsRegistry(virtual_clock=lambda: clock["now"])
        counter = registry.counter("timed_total").labels()
        counter.inc()
        assert counter.virtual_s == 12.5
        assert counter.wall_s is not None
        clock["now"] = 99.0
        counter.inc()
        assert counter.virtual_s == 99.0

    def test_virtual_clock_attached_later(self):
        registry = MetricsRegistry()
        counter = registry.counter("late_total").labels()
        counter.inc()
        assert counter.virtual_s is None
        registry.set_virtual_clock(lambda: 3.0)
        counter.inc()
        assert counter.virtual_s == 3.0
        assert registry.snapshot()["virtual_time_s"] == 3.0

    def test_collectors_run_at_snapshot(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("residency_generation")
        registry.register_collector(lambda r: gauge.set(gauge.value + 1.0))
        registry.snapshot()
        registry.snapshot()
        assert gauge.value == 2.0

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry(virtual_clock=lambda: 42.0)
        registry.counter("req_total", labelnames=("sla",)).labels(sla="latency").inc(7)
        registry.gauge("depth").set(3.0)
        histogram = registry.histogram("lat_seconds", buckets_per_octave=4)
        histogram.record_many([0.01, 0.1, 1.0])
        snapshot = registry.snapshot()
        assert snapshot["schema"] == SNAPSHOT_SCHEMA
        # The snapshot must be JSON-safe verbatim.
        restored = MetricsRegistry.from_snapshot(json.loads(json.dumps(snapshot)))
        assert restored.get("req_total").labels(sla="latency").value == 7
        assert restored.get("depth").value == 3.0
        rebuilt = restored.get("lat_seconds").labels()
        assert rebuilt.count == 3
        assert rebuilt.buckets_per_octave == 4
        assert rebuilt.quantile(0.5) == histogram.labels().quantile(0.5)

    def test_merge_snapshot_adds_counters_overwrites_gauges(self):
        worker_a = MetricsRegistry()
        worker_a.counter("jobs_total").inc(3)
        worker_a.gauge("depth").set(1.0)
        worker_b = MetricsRegistry()
        worker_b.counter("jobs_total").inc(4)
        worker_b.gauge("depth").set(9.0)
        worker_a.merge_snapshot(worker_b.snapshot())
        assert worker_a.get("jobs_total").value == 7
        assert worker_a.get("depth").value == 9.0

    def test_merge_snapshot_rejects_wrong_schema(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError, match="schema"):
            registry.merge_snapshot({"schema": "other/9", "metrics": {}})


class TestTracer:
    def test_should_sample_is_modular_arithmetic(self):
        tracer = Tracer(sample_every=8)
        sampled = [i for i in range(32) if tracer.should_sample(i)]
        assert sampled == [0, 8, 16, 24]

    def test_sample_every_zero_disables(self):
        tracer = Tracer(sample_every=0)
        assert not any(tracer.should_sample(i) for i in range(100))

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="sample_every"):
            Tracer(sample_every=-1)
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)

    def test_emit_request_builds_standard_tree(self):
        tracer = Tracer(sample_every=1)
        root_id = tracer.emit_request(
            request_id=1024,
            node_id="node-0",
            arrival_s=1.0,
            start_s=1.5,
            finish_s=2.5,
            compute_s=0.75,
            sla="latency",
        )
        spans = tracer.spans_for(1024)
        assert [s.name for s in spans] == [
            "admission",
            "schedule",
            "dispatch",
            "engine.charge",
        ]
        admission, schedule, dispatch, charge = spans
        assert admission.span_id == root_id
        assert admission.parent_id is None
        assert schedule.parent_id == admission.span_id
        assert dispatch.parent_id == schedule.span_id
        assert charge.parent_id == dispatch.span_id
        # Admission covers the queue; engine.charge is the compute tail.
        assert admission.duration_virtual_s == pytest.approx(0.5)
        assert dispatch.duration_virtual_s == pytest.approx(1.0)
        assert charge.start_virtual_s == pytest.approx(1.75)
        assert admission.attrs["sla"] == "latency"
        assert tracer.sampled_requests == 1

    def test_span_ids_deterministic_across_runs(self):
        def run():
            tracer = Tracer(sample_every=1)
            for request_id in range(5):
                tracer.emit_request(request_id, "n0", 0.0, 0.1, 0.2, 0.1)
            return [s.span_id for s in tracer.spans]

        assert run() == run()

    def test_max_spans_evicts_oldest(self):
        tracer = Tracer(sample_every=1, max_spans=4)
        tracer.emit_request(0, "n0", 0.0, 0.1, 0.2, 0.1)
        tracer.emit_request(1, "n0", 0.0, 0.1, 0.2, 0.1)
        assert len(tracer.spans) == 4
        assert all(span.trace_id == 1 for span in tracer.spans)

    def test_wall_spans_round_trip(self):
        tracer = Tracer(sample_every=1)
        span = tracer.start_span("gateway.accept", trace_id=7, peer="client-1")
        tracer.end_span(span, virtual_s=2.0)
        (kept,) = tracer.spans_for(7)
        assert kept.start_wall_s is not None
        assert kept.end_wall_s >= kept.start_wall_s
        assert kept.end_virtual_s == 2.0
        assert kept.to_dict()["attrs"] == {"peer": "client-1"}
        assert tracer.to_dicts() == [kept.to_dict()]


def _sample_snapshot() -> dict:
    registry = MetricsRegistry(virtual_clock=lambda: 60.0)
    requests = registry.counter(
        "cluster_requests_total", "requests", labelnames=("sla", "node")
    )
    requests.labels(sla="latency", node="node-0").inc(10)
    energy = registry.counter(
        "cluster_energy_joules_total", "energy", labelnames=("sla", "node")
    )
    energy.labels(sla="latency", node="node-0").inc(0.25)
    images = registry.counter(
        "cluster_images_total", "images", labelnames=("sla", "node")
    )
    images.labels(sla="latency", node="node-0").inc(20)
    latency = registry.histogram(
        "cluster_request_latency_seconds", "latency", labelnames=("sla", "node")
    )
    latency.labels(sla="latency", node="node-0").record_many([0.01, 0.02, 0.04])
    registry.gauge("gateway_queue_depth", "queue").set(3.0)
    return registry.snapshot()


class TestRenderers:
    def test_prometheus_counters_and_gauges(self):
        text = render_prometheus(_sample_snapshot())
        assert "# TYPE cluster_requests_total counter" in text
        assert 'cluster_requests_total{sla="latency",node="node-0"} 10' in text
        assert "gateway_queue_depth 3" in text
        assert "obs_virtual_time_seconds 60" in text

    def test_prometheus_histogram_series(self):
        text = render_prometheus(_sample_snapshot())
        assert 'cluster_request_latency_seconds_bucket{sla="latency"' in text
        assert 'le="+Inf"} 3' in text
        assert 'cluster_request_latency_seconds_count{sla="latency",node="node-0"} 3' in text
        # Bucket series are cumulative: counts never decrease.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("cluster_request_latency_seconds_bucket")
        ]
        assert counts == sorted(counts)

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("odd_total", labelnames=("kind",)).labels(
            kind='quo"te\\slash'
        ).inc()
        text = render_prometheus(registry.snapshot())
        assert 'kind="quo\\"te\\\\slash"' in text

    def test_render_json_is_stable(self):
        snapshot = _sample_snapshot()
        text = render_json(snapshot)
        assert json.loads(text)["schema"] == SNAPSHOT_SCHEMA
        assert text == render_json(json.loads(text))

    def test_report_lists_series_and_gateway(self):
        report = render_report(_sample_snapshot())
        assert "latency" in report
        assert "node-0" in report
        assert "queue=3" in report

    def test_report_on_empty_snapshot(self):
        report = render_report(MetricsRegistry().snapshot())
        assert "no cluster request series" in report


class TestCli:
    def test_report_subcommand(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(_sample_snapshot()), encoding="utf-8")
        assert obs_main(["report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs report" in out
        assert "node-0" in out

    def test_report_subcommand_json_format(self, tmp_path, capsys):
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(_sample_snapshot()), encoding="utf-8")
        assert obs_main(["report", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == SNAPSHOT_SCHEMA

    def test_tail_rejects_bad_target(self, capsys):
        assert obs_main(["tail", "not-an-address"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err


class TestPercentileSummary:
    def test_empty_sample_is_all_zeros(self):
        summary = percentile_summary([])
        assert summary == {
            "count": 0,
            "p50_s": 0.0,
            "p99_s": 0.0,
            "p999_s": 0.0,
            "max_s": 0.0,
        }

    def test_single_sample_collapses_every_percentile(self):
        summary = percentile_summary([0.125])
        assert summary["count"] == 1
        assert summary["p50_s"] == 0.125
        assert summary["p99_s"] == 0.125
        assert summary["p999_s"] == 0.125
        assert summary["max_s"] == 0.125

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            percentile_summary([0.1, float("nan"), 0.2])

    def test_percentiles_ordered(self):
        summary = percentile_summary([i / 1000.0 for i in range(1, 101)])
        assert summary["p50_s"] <= summary["p99_s"] <= summary["p999_s"]
        assert summary["p999_s"] <= summary["max_s"] == 0.1


# Latency-shaped positive floats spanning ~9 octaves, plus exact zeros.
_samples = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-4, max_value=64.0, allow_nan=False),
    ),
    max_size=40,
)


def _fold(chunks) -> Histogram:
    """Fold sample chunks into one histogram, in the order given."""
    merged = Histogram({}, lambda: None)
    for chunk in chunks:
        part = Histogram({}, lambda: None)
        part.record_many(chunk)
        merged.merge(part)
    return merged


class TestMergeProperty:
    """The registry docstring's pinned property: merge order never
    changes what a histogram reports."""

    @given(a=_samples, b=_samples, c=_samples)
    def test_merge_associative_and_commutative(self, a, b, c):
        orders = [(a, b, c), (c, a, b), (b, c, a), (c, b, a)]
        reference = _fold(orders[0])
        for order in orders[1:]:
            other = _fold(order)
            assert other.buckets == reference.buckets
            assert other.zero_count == reference.zero_count
            assert other.count == reference.count
            assert other.sum == pytest.approx(reference.sum)
            for q in (0.0, 0.5, 0.9, 0.99, 1.0):
                assert other.quantile(q) == reference.quantile(q)

    @given(a=_samples, b=_samples)
    def test_merge_matches_single_pass(self, a, b):
        merged = _fold((a, b))
        single = Histogram({}, lambda: None)
        single.record_many(list(a) + list(b))
        assert merged.buckets == single.buckets
        assert merged.count == single.count
        for q in (0.5, 0.99):
            assert merged.quantile(q) == single.quantile(q)

    @given(values=_samples)
    def test_snapshot_merge_reconstructs_quantiles(self, values):
        registry = MetricsRegistry()
        histogram = registry.histogram("prop_seconds").labels()
        histogram.record_many(values)
        restored = MetricsRegistry.from_snapshot(
            json.loads(json.dumps(registry.snapshot()))
        ).get("prop_seconds").labels()
        assert restored.count == histogram.count
        if values:
            assert restored.min == histogram.min
            assert restored.max == histogram.max
        else:
            assert math.isinf(restored.min)
        for q in (0.5, 0.99):
            assert restored.quantile(q) == histogram.quantile(q)


class TestClusterInstrumentation:
    """The cluster ends up in the registry: folds, collectors, spans.

    Exercises the ``metrics=`` / ``tracer=`` wiring end-to-end on a real
    two-node router — the fold-side request series, the scrape-time
    collectors (scheduler policy, serve counters, node state, bin
    gauges) and the retro-emitted span trees.
    """

    @pytest.fixture(scope="class")
    def observed(self):
        dataset = make_pattern_image_dataset(samples=90, size=8)
        model, _ = train_pattern_cnn(dataset, epochs=6, seed=0)
        chip_bin = ChipBinner(seed=2020, samples=256).bin_chip(0)
        registry = MetricsRegistry()
        tracer = Tracer(sample_every=1)
        nodes = [
            ClusterNode("n0", vdd=1.0, num_macros=16, bin=chip_bin),
            ClusterNode("n1", vdd=0.7, num_macros=16),
        ]
        router = ClusterRouter(nodes, metrics=registry, tracer=tracer)
        router.register_model("m", model)
        for start in range(0, 6, 2):
            router.submit(
                "m", dataset.test_images[start : start + 2], sla=SLAClass.THROUGHPUT
            )
        router.submit(
            "m", dataset.test_images[:1], sla=SLAClass.LATENCY, deadline_s=10.0
        )
        router.drain()
        return router, registry, tracer, registry.snapshot()

    def test_request_series_fold_to_submitted_totals(self, observed):
        router, registry, _, snap = observed
        series = snap["metrics"]["cluster_requests_total"]["samples"]
        assert sum(s["value"] for s in series) == 4.0
        assert {s["labels"]["sla"] for s in series} <= {"latency", "throughput"}
        assert {s["labels"]["node"] for s in series} <= {"n0", "n1"}
        images = snap["metrics"]["cluster_images_total"]["samples"]
        assert sum(s["value"] for s in images) == 7.0
        latency = registry.get("cluster_request_latency_seconds")
        assert sum(s.count for s in latency.samples()) == 4
        assert snap["metrics"]["cluster_energy_joules_total"]["samples"]

    def test_collector_publishes_runtime_and_clock(self, observed):
        router, _, _, snap = observed
        metrics = snap["metrics"]
        assert snap["virtual_time_s"] == router.clock_s
        assert metrics["cluster_virtual_clock_seconds"]["samples"][0]["value"] == (
            router.clock_s
        )
        assert metrics["cluster_queue_depth"]["samples"][0]["value"] == 0.0
        assert metrics["cluster_admissions_total"]["samples"][0]["value"] == 4.0
        assert metrics["cluster_drains_total"]["samples"][0]["value"] >= 1.0

    def test_scheduler_policy_gauges_match_policy(self, observed):
        router, _, _, snap = observed
        series = snap["metrics"]["scheduler_policy"]["samples"]
        published = {s["labels"]["param"]: s["value"] for s in series}
        assert published == router.scheduler.policy()

    def test_serve_counters_per_node_and_model(self, observed):
        router, _, _, snap = observed
        metrics = snap["metrics"]
        images = metrics["serve_images_total"]["samples"]
        assert all(s["labels"]["model"] == "m" for s in images)
        assert sum(s["value"] for s in images) == 7.0
        batches = metrics["serve_batches_total"]["samples"]
        assert sum(s["value"] for s in batches) >= 4.0

    def test_node_state_and_bin_gauges(self, observed):
        router, _, _, snap = observed
        metrics = snap["metrics"]
        active = {
            s["labels"]["node"]: s["value"]
            for s in metrics["node_active"]["samples"]
        }
        assert active == {"n0": 1.0, "n1": 1.0}
        assert metrics["node_weight_cache_misses_total"]["samples"]
        # Only n0 is binned; its silicon grade is exposed per field.
        binned = router.nodes[0].bin
        for field, value in binned.metric_summary().items():
            series = metrics[f"node_bin_{field}"]["samples"]
            assert [s["labels"]["node"] for s in series] == ["n0"]
            assert series[0]["value"] == value

    def test_spans_emitted_for_every_sampled_request(self, observed):
        _, _, tracer, _ = observed
        assert tracer.sampled_requests == 4
        roots = [s for s in tracer.spans if s.name == "admission"]
        assert len(roots) == 4
        names = {s.name for s in tracer.spans}
        assert {"admission", "schedule", "dispatch", "engine.charge"} <= names

    def test_snapshot_survives_merge_round_trip(self, observed):
        _, _, _, snap = observed
        clone = MetricsRegistry()
        clone.merge_snapshot(json.loads(json.dumps(snap)))
        reread = clone.snapshot()

        def series(snapshot):
            # Timestamps re-stamp on merge; the data must not change.
            return [
                (s["labels"]["sla"], s["labels"]["node"], s["value"])
                for s in snapshot["metrics"]["cluster_requests_total"]["samples"]
            ]

        assert series(reread) == series(snap)
