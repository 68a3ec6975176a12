"""Vectorized trace-driven load generation (repro.cluster.workload)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ExecutionMode,
    build_image_pool,
    burst_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.cluster.workload import SLA_ORDER
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError


class TestGenerators:
    def test_poisson_shape_and_determinism(self):
        kwargs = dict(
            rate_rps=200.0,
            model_ids=("a", "b"),
            image_counts=(2, 4),
            sla_mix={"latency": 0.25, "throughput": 0.5, "best_effort": 0.25},
            deadline_s=0.01,
            seed=7,
        )
        trace = poisson_trace(5000, **kwargs)
        again = poisson_trace(5000, **kwargs)
        assert len(trace) == 5000
        assert np.all(np.diff(trace.arrivals_s) >= 0)
        assert np.array_equal(trace.arrivals_s, again.arrivals_s)
        assert np.array_equal(trace.model_indices, again.model_indices)
        assert set(np.unique(trace.image_counts)) <= {2, 4}
        # Deadlines exactly on the latency class, nan elsewhere.
        latency = trace.sla_indices == 0
        assert np.all(trace.deadlines_s[latency] == 0.01)
        assert np.all(np.isnan(trace.deadlines_s[~latency]))
        # Empirical rate within 10 % of the requested one.
        assert trace.mean_rate_rps == pytest.approx(200.0, rel=0.1)

    def test_poisson_requires_deadline_for_latency_share(self):
        with pytest.raises(ConfigurationError):
            poisson_trace(10, rate_rps=1.0, sla_mix={"latency": 1.0})

    def test_diurnal_concentrates_arrivals_at_the_peak(self):
        trace = diurnal_trace(
            20000, period_s=100.0, base_rate_rps=20.0, peak_rate_rps=300.0, seed=3
        )
        assert np.all(np.diff(trace.arrivals_s) >= 0)
        phase = np.mod(trace.arrivals_s, 100.0)
        # The raised-cosine peak sits half a period in; the trough at 0.
        peak_fraction = np.mean((phase > 30.0) & (phase < 70.0))
        trough_fraction = np.mean((phase < 10.0) | (phase > 90.0))
        assert peak_fraction > 2.0 * trough_fraction

    def test_burst_concentrates_arrivals_in_burst_windows(self):
        trace = burst_trace(
            20000,
            base_rate_rps=100.0,
            burst_every_s=20.0,
            burst_duration_s=2.0,
            burst_multiplier=10.0,
            seed=3,
        )
        in_burst = np.mod(trace.arrivals_s, 20.0) < 2.0
        # Burst windows are 10 % of the span but carry ~53 % of the traffic
        # (10x rate): far above the uniform 10 %.
        assert in_burst.mean() > 0.4

    def test_head_and_summary(self):
        trace = poisson_trace(100, rate_rps=10.0, seed=1)
        head = trace.head(10)
        assert len(head) == 10
        assert np.array_equal(head.arrivals_s, trace.arrivals_s[:10])
        summary = trace.summary()
        assert summary["requests"] == 100.0
        assert summary["best_effort_requests"] == 100.0
        assert set(f"{sla.value}_requests" for sla in SLA_ORDER) <= set(summary)

    def test_validation_errors(self):
        with pytest.raises(Exception):
            poisson_trace(0, rate_rps=1.0)
        with pytest.raises(ConfigurationError):
            poisson_trace(5, rate_rps=1.0, image_counts=())
        with pytest.raises(ConfigurationError):
            poisson_trace(5, rate_rps=1.0, model_ids=())
        with pytest.raises(ConfigurationError):
            poisson_trace(5, rate_rps=1.0, sla_mix={"gold": 1.0})
        with pytest.raises(ConfigurationError):
            burst_trace(
                5,
                base_rate_rps=1.0,
                burst_every_s=1.0,
                burst_duration_s=2.0,
            )
        with pytest.raises(ConfigurationError):
            diurnal_trace(5, period_s=1.0, base_rate_rps=2.0, peak_rate_rps=1.0)


class TestPoolAndReplay:
    @pytest.fixture(scope="class")
    def served(self):
        dataset = make_pattern_image_dataset(samples=120, size=8, seed=13)
        cnn, _ = train_pattern_cnn(dataset, epochs=5, seed=13)
        return dataset, cnn

    def test_build_image_pool_slots_are_distinct_and_digested(self, served):
        dataset, _ = served
        pool = build_image_pool({"cnn": dataset.test_images}, (2, 4), pool_slots=3)
        assert set(pool) == {("cnn", 2), ("cnn", 4)}
        for (model_id, count), slots in pool.items():
            assert len(slots) == 3
            digests = [digest for digest, _ in slots]
            assert len(set(digests)) == 3
            for digest, images in slots:
                assert images.shape[0] == count
                assert digest.startswith(f"{model_id}/{count}/")

    def test_replay_completes_the_whole_trace(self, served):
        dataset, cnn = served
        pool = build_image_pool({"cnn": dataset.test_images}, (2, 4))
        trace = poisson_trace(
            40, rate_rps=100.0, model_ids=("cnn",), image_counts=(2, 4), seed=5
        )
        node = ClusterNode(
            "n0", num_macros=16, execution_mode=ExecutionMode.ANALYTIC
        )
        with ClusterRouter([node]) as router:
            router.register_model("cnn", cnn)
            stats = router.replay_trace(trace, pool, drain_every=8)
            assert stats["requests"] == 40.0
            assert stats["completed"] == 40.0
            assert stats["images"] == float(trace.total_images)
            assert len(router.telemetry.traces) == 40
            # Arrival order is preserved on the virtual clock.
            arrivals = [t.arrival_s for t in router.telemetry.traces]
            assert arrivals == sorted(arrivals)

    def test_replay_is_deterministic_across_runs(self, served):
        dataset, cnn = served
        pool = build_image_pool({"cnn": dataset.test_images}, (3,))
        trace = poisson_trace(
            25, rate_rps=50.0, model_ids=("cnn",), image_counts=(3,), seed=9
        )

        def run():
            node = ClusterNode(
                "n0", num_macros=16, execution_mode=ExecutionMode.ANALYTIC
            )
            with ClusterRouter([node]) as router:
                router.register_model("cnn", cnn)
                router.replay_trace(trace, pool, drain_every=8)
                ledger = router.ledger()
                return (
                    [t.finish_s for t in router.telemetry.traces],
                    ledger.total_cycles,
                    ledger.total_energy_j,
                )

        assert run() == run()
