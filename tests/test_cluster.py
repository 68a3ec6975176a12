"""Tests for the DVFS-aware cluster runtime (repro.cluster).

Everything runs in modeled virtual time, so scheduling behaviour is
deterministic and can be pinned down to equality: placements, deadline
outcomes, affinity hits, replication, autoscaler actions, and the
cluster-ledger conservation law.
"""

import numpy as np
import pytest

from repro.analysis.experiments import cluster_scheduling_study
from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ColumnarTelemetry,
    ExecutionMode,
    NodeState,
    ReactiveAutoscaler,
    SLAClass,
    SLAScheduler,
    build_image_pool,
    model_weight_codes,
    poisson_trace,
)
from repro.cluster import router as router_module
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.reliability import FaultPlan
from repro.utils.validation import check_ledger_conservation

NUM_MACROS = 16


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=90, size=8)
    model_a, _ = train_pattern_cnn(dataset, epochs=6, seed=0)
    model_b, _ = train_pattern_cnn(dataset, epochs=6, seed=1)
    return dataset, model_a, model_b


def _node(node_id, vdd, **kwargs):
    kwargs.setdefault("num_macros", NUM_MACROS)
    return ClusterNode(node_id, vdd=vdd, **kwargs)


def _router(models, vdds, **kwargs):
    nodes = [_node(f"n{i}-{vdd:.1f}v", vdd) for i, vdd in enumerate(vdds)]
    router = ClusterRouter(nodes, **kwargs)
    for model_id, model in models.items():
        router.register_model(model_id, model)
    return router


class TestClusterNode:
    def test_operating_point_sets_frequency_and_energy(self, trained):
        _, model_a, _ = trained
        fast = _node("fast", 1.0)
        eco = _node("eco", 0.6)
        assert fast.max_frequency_hz > 5 * eco.max_frequency_hz
        assert fast.cycle_time_s < eco.cycle_time_s
        for node in (fast, eco):
            node.register_model("m", model_a)
        images = np.zeros((2, 1, 8, 8))
        est_fast = fast.estimate_request("m", images)
        est_eco = eco.estimate_request("m", images)
        # Identical work, different physics.
        assert est_fast.critical_path_cycles == est_eco.critical_path_cycles
        assert est_fast.latency_s < est_eco.latency_s
        assert est_fast.energy_j > est_eco.energy_j

    def test_model_weight_codes_covers_cnn_and_mlp(self, trained):
        _, model_a, _ = trained
        codes = model_weight_codes(model_a)
        assert len(codes) == len(model_a.conv_layers) + len(model_a.head.layers)
        assert model_weight_codes(model_a.head)  # bare MLP works too
        with pytest.raises(ConfigurationError):
            model_weight_codes(object())

    def test_registration_and_residency_lifecycle(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.9)
        node.register_model("m", model_a)
        with pytest.raises(ConfigurationError):
            node.register_model("m", model_a)  # duplicate
        with pytest.raises(ConfigurationError):
            node.estimate_request("ghost", dataset.test_images[:1])
        assert not node.holds_model("m")
        dispatch = node.execute("m", dataset.test_images[:2])
        assert dispatch.programmed and not dispatch.affinity_hit
        assert node.holds_model("m")
        again = node.execute("m", dataset.test_images[:2])
        assert again.affinity_hit and not again.programmed

    def test_register_refuses_models_the_geometry_cannot_hold(self, trained):
        _, model_a, _ = trained
        # The stock CNN's 144-row dense head cannot become resident on the
        # default 8-macro cache; silently accepting it would re-charge
        # programming on every dispatch and disable affinity forever.
        small = ClusterNode("small", vdd=0.9, num_macros=8)
        with pytest.raises(ConfigurationError, match="allow_transient"):
            small.register_model("m", model_a)
        small.register_model("m", model_a, allow_transient=True)
        assert "m" in small.model_ids

    def test_register_checks_aggregate_residency_not_just_per_layer(self):
        # Two layers that fit individually (100 rows each vs a 125-row
        # single-macro cache) but can never be resident together: every
        # forward pass would evict the other layer.
        rng = np.random.default_rng(0)

        class StubLayer:
            def __init__(self):
                class Q:
                    codes = rng.integers(-9, 10, size=(100, 2))

                self.quantized_weights = Q()

        class StubMLP:
            layers = [StubLayer(), StubLayer()]

            def with_backend(self, matmul):
                return self

        node = ClusterNode("tiny", vdd=0.9, num_macros=1)
        with pytest.raises(ConfigurationError, match="allow_transient"):
            node.register_model("m", StubMLP())
        node.register_model("m", StubMLP(), allow_transient=True)

    def test_execute_is_bit_exact_vs_reference(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.6)
        node.register_model("m", model_a)
        images = dataset.test_images[:5]
        dispatch = node.execute("m", images)
        assert np.array_equal(dispatch.predictions, model_a.predict(images))

    def test_engine_matches_per_lane_oracle_on_node(self, trained):
        # The acceptance oracle: a cluster node's engine agrees with the
        # full per-lane on-array reference path.
        node = _node("n", 0.6, num_macros=2)
        rng = np.random.default_rng(11)
        acts = rng.integers(-9, 10, size=(3, 40))
        weights = rng.integers(-9, 10, size=(40, 6))
        fast = node.engine.matmul(acts, weights, layer_id="probe")
        oracle = node.engine.matmul_reference(acts, weights, layer_id="probe")
        assert np.array_equal(fast, oracle)

    def test_warm_estimate_brackets_measured_compute(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.9)
        node.register_model("m", model_a)
        images = dataset.test_images[:3]
        node.execute("m", images)  # warm the cache
        estimate = node.estimate_request("m", images)
        assert estimate.resident and estimate.program_cycles == 0
        dispatch = node.execute("m", images)
        # The estimate treats layers as sequential barriers; the measured
        # batch critical path allows cross-layer overlap on the macros, so
        # the estimate is a tight conservative bound.
        assert dispatch.compute_s <= estimate.latency_s <= 1.5 * dispatch.compute_s
        # Energy has no overlap subtlety: planning equals measurement.
        assert estimate.energy_j == pytest.approx(dispatch.energy_j, rel=1e-9)

    def test_parked_node_refuses_dispatch(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.9)
        node.register_model("m", model_a)
        node.park()
        assert node.state is NodeState.PARKED
        with pytest.raises(ConfigurationError):
            node.execute("m", dataset.test_images[:1])
        node.wake()
        node.execute("m", dataset.test_images[:1])

    def test_retune_rebuilds_chip_and_preserves_ledger(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.6)
        node.register_model("m", model_a)
        node.execute("m", dataset.test_images[:2])
        cycles_before = node.ledger().total_cycles
        assert node.holds_model("m")
        node.retune(1.0)
        assert node.vdd == 1.0
        assert node.chip.operating_point.vdd == 1.0
        # The rail change invalidated the arrays: weights must re-program.
        assert not node.holds_model("m")
        # ...but history is not lost.
        assert node.ledger().total_cycles == cycles_before
        dispatch = node.execute("m", dataset.test_images[:2])
        assert dispatch.programmed
        assert node.ledger().total_cycles > cycles_before

    def test_retune_rebinds_exact_forwards_to_the_new_engine(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.6)
        node.register_model("m", model_a)
        node.execute("m", dataset.test_images[:2])
        retired = node.engine
        retired_calls = retired.counters.matmul_calls
        node.retune(1.0)
        assert node.engine is not retired
        dispatch = node.execute("m", dataset.test_images[:2])
        # The forward ran (and charged) on the rebuilt engine only.
        assert retired.counters.matmul_calls == retired_calls
        assert node.engine.counters.matmul_calls == retired_calls
        assert node.chip.stats.total_energy_j == pytest.approx(
            dispatch.energy_j, rel=1e-12
        )

    def test_retune_to_same_vdd_is_a_no_op(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.9)
        node.register_model("m", model_a)
        node.execute("m", dataset.test_images[:1])
        chip = node.chip
        node.retune(0.9)
        assert node.chip is chip  # nothing rebuilt, cache intact

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    @pytest.mark.parametrize("max_batch_size", [0, -1])
    def test_refuses_non_positive_max_batch_size(self, mode, max_batch_size):
        # The batch loop would otherwise serve a request in zero batches
        # (no charges, zero latency and energy) or crash mid-dispatch.
        with pytest.raises(ConfigurationError, match="max_batch_size"):
            ClusterNode("n", max_batch_size=max_batch_size, execution_mode=mode)

    def test_group_batches_program_each_layer_once(self, trained):
        dataset, model_a, _ = trained
        node = _node("n", 0.9, max_batch_size=4)
        node.register_model("m", model_a)
        parts = [(dataset.test_images[start : start + 4], None) for start in range(0, 12, 4)]
        _, dispatch = node.execute_group("m", parts)
        assert dispatch.batches == 3
        # conv + two head layers: programmed by the first batch, hit by the
        # two later ones.
        assert node.engine.cache.misses == 3
        assert node.engine.cache.hits == 2 * 3
        assert node.engine.cache.evictions == 0

    def test_explicit_precision_wins_over_passed_config(self):
        from repro.core import MacroConfig

        node = ClusterNode("n", precision_bits=4, config=MacroConfig())
        assert node.chip.precision_bits == 4
        assert ClusterNode("m").chip.precision_bits == 8  # default unchanged


class TestScheduling:
    def test_latency_class_routes_to_fast_node(self, trained):
        dataset, model_a, model_b = trained
        router = _router({"a": model_a}, vdds=(0.6, 1.0))
        deadline = 5 * router.nodes[1].estimate_request("a", dataset.test_images[:2]).latency_s
        request = router.submit(
            "a", dataset.test_images[:2], sla=SLAClass.LATENCY, deadline_s=deadline
        )
        decision = router.decision(request)
        assert decision.node_id == router.nodes[1].node_id  # the 1.0 V node
        assert decision.feasible
        result = router.drain()[0]
        assert not result.deadline_missed

    def test_throughput_class_routes_to_efficient_node(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6, 1.0))
        request = router.submit(
            "a", dataset.test_images[:4], sla=SLAClass.THROUGHPUT
        )
        assert router.decision(request).node_id == router.nodes[0].node_id

    def test_latency_class_requires_deadline(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9,))
        with pytest.raises(ConfigurationError):
            router.submit("a", dataset.test_images[:1], sla=SLAClass.LATENCY)

    def test_infeasible_deadline_is_flagged_and_missed(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6,))
        fast_lat = router.nodes[0].estimate_request("a", dataset.test_images[:2]).latency_s
        request = router.submit(
            "a",
            dataset.test_images[:2],
            sla=SLAClass.LATENCY,
            deadline_s=fast_lat / 100.0,
        )
        decision = router.decision(request)
        assert not decision.feasible
        result = router.drain()[0]
        assert result.deadline_missed
        assert router.telemetry.deadline_miss_rate() == 1.0

    def test_affinity_routes_warm_traffic_to_resident_node(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6, 0.6))
        first = router.submit("a", dataset.test_images[:3], sla=SLAClass.THROUGHPUT)
        router.drain()
        resident_node = router.result(first).node_id
        # The model is now resident on exactly one node; cold-capable pool
        # restriction must keep sending its traffic there.
        for _ in range(3):
            request = router.submit(
                "a", dataset.test_images[:3], sla=SLAClass.THROUGHPUT
            )
            router.drain()
            result = router.result(request)
            assert result.node_id == resident_node
            assert result.affinity_hit and not result.programmed

    def test_hot_model_replicates_to_second_node(self, trained):
        dataset, model_a, _ = trained
        router = _router(
            {"a": model_a},
            vdds=(0.6, 1.0),
            scheduler=SLAScheduler(hot_threshold=2),
        )
        for _ in range(4):
            router.submit("a", dataset.test_images[:3], sla=SLAClass.THROUGHPUT)
            router.drain()
        holders = [node for node in router.nodes if node.holds_model("a")]
        assert len(holders) == 2  # replicated once the model ran hot
        replicated = [
            router.decision(trace.request_id).replicated
            for trace in router.telemetry.traces
        ]
        assert any(replicated)

    def test_best_effort_replication_respects_max_replicas(self, trained):
        dataset, model_a, _ = trained
        router = _router(
            {"a": model_a},
            vdds=(0.9, 0.9, 0.9),
            scheduler=SLAScheduler(hot_threshold=1, max_replicas=2),
        )
        for _ in range(6):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
            router.drain()
        holders = [node for node in router.nodes if node.holds_model("a")]
        # Hot best-effort traffic spreads to the replica cap and no further.
        assert len(holders) == 2

    def test_burst_admission_cannot_overshoot_the_replica_cap(self, trained):
        dataset, model_a, _ = trained
        router = _router(
            {"a": model_a},
            vdds=(0.9, 0.9, 0.9),
            scheduler=SLAScheduler(hot_threshold=1, max_replicas=2),
        )
        # Warm one node and make the model hot.
        seed = router.submit("a", dataset.test_images[:2], sla=SLAClass.THROUGHPUT)
        router.drain()
        holder = router.result(seed).node_id
        # A burst admitted before any dispatch: the queued placement on the
        # new replica must count toward the cap, or the second request
        # replicates onto a third node.
        for _ in range(3):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.THROUGHPUT)
        router.drain()
        holders = [node.node_id for node in router.nodes if node.holds_model("a")]
        assert holder in holders
        assert len(holders) == 2

    def test_best_effort_cold_burst_converges_then_hot_spreads(self, trained):
        dataset, model_a, _ = trained
        router = _router(
            {"a": model_a},
            vdds=(0.9, 0.9),
            scheduler=SLAScheduler(hot_threshold=1, max_replicas=2),
        )
        requests = [
            router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
            for _ in range(4)
        ]
        # A cold burst queues behind the first programming (pending
        # placements count as affinity) — one programming charge total.
        placements = {router.decision(r).node_id for r in requests}
        assert len(placements) == 1
        results = router.drain()
        assert sum(r.programmed for r in results) == 1
        # The model is hot now: the next burst spreads to the replica cap.
        for _ in range(2):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
        router.drain()
        holders = [node for node in router.nodes if node.holds_model("a")]
        assert len(holders) == 2

    def test_all_nodes_parked_refuses_admission(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9,))
        router.nodes[0].park()
        with pytest.raises(ConfigurationError):
            router.submit("a", dataset.test_images[:1])


class TestRouterAccounting:
    def test_results_bit_exact_and_accounted(self, trained):
        dataset, model_a, model_b = trained
        router = _router({"a": model_a, "b": model_b}, vdds=(1.0, 0.6))
        images = dataset.test_images[:4]
        ids = {
            "a": router.submit("a", images, sla=SLAClass.THROUGHPUT),
            "b": router.submit("b", images, sla=SLAClass.BEST_EFFORT),
        }
        results = router.drain()
        assert len(results) == 2
        for model_id, request_id in ids.items():
            model = {"a": model_a, "b": model_b}[model_id]
            result = router.result(request_id)
            assert np.array_equal(result.predictions, model.predict(images))
            assert result.energy_j > 0
            assert result.compute_s > 0
            assert result.finish_s >= result.start_s >= result.arrival_s

    def test_cluster_ledger_equals_sum_of_node_ledgers(self, trained):
        dataset, model_a, model_b = trained
        router = _router({"a": model_a, "b": model_b}, vdds=(1.0, 0.6, 0.6))
        for start in range(0, 12, 3):
            router.submit(
                "a" if start % 2 else "b",
                dataset.test_images[start : start + 3],
                sla=SLAClass.THROUGHPUT if start % 2 else SLAClass.BEST_EFFORT,
            )
        router.drain()
        # Retune one node so the conservation law also covers retired chips.
        router.nodes[2].retune(1.0)
        router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
        router.drain()
        check_ledger_conservation(
            router.ledger(), [node.ledger() for node in router.nodes]
        )

    def test_virtual_time_is_monotonic_and_fifo_per_node(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9,))
        for _ in range(3):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
        results = router.drain()
        starts = [r.start_s for r in results]
        finishes = [r.finish_s for r in results]
        assert starts == sorted(starts)
        assert all(f2 >= f1 for f1, f2 in zip(finishes, finishes[1:]))
        # Back-to-back arrivals queue behind each other on the single node.
        assert results[1].queue_delay_s > 0

    def test_queue_depth_and_summary(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9,))
        router.submit("a", dataset.test_images[:1])
        assert router.queue_depth() == 1
        router.drain()
        assert router.queue_depth() == 0
        summary = router.summary()
        assert summary["cluster"]["requests"] == 1.0
        assert set(summary["nodes"]) == {router.nodes[0].node_id}

    def test_summary_carries_each_nodes_telemetry(self, trained):
        """``router.summary()["nodes"][id]`` merges the node's telemetry
        aggregates as ``telemetry_<key>`` (perfbench's replay report reads
        ``telemetry_images`` and ``telemetry_dispatches`` from there)."""
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9, 0.6))
        for index in range(4):
            router.submit("a", dataset.test_images[index : index + 2], sla=SLAClass.THROUGHPUT)
        router.drain()
        summary = router.summary()
        assert sum(node["telemetry_images"] for node in summary["nodes"].values()) == 8.0
        for node_id, node in summary["nodes"].items():
            telemetry = router.telemetry.node_summary(node_id)
            assert node["telemetry_images"] == telemetry["images"]
            assert node["telemetry_dispatches"] == telemetry["dispatches"]
            assert {f"telemetry_{key}" for key in telemetry} <= set(node)

    def test_context_manager_and_unknown_lookups(self, trained):
        dataset, model_a, _ = trained
        with _router({"a": model_a}, vdds=(0.9,)) as router:
            with pytest.raises(ConfigurationError):
                router.node("ghost")
            with pytest.raises(ConfigurationError):
                router.result(123)
            with pytest.raises(ConfigurationError):
                router.submit("a", np.zeros((0, 1, 8, 8)))
        router.shutdown()  # idempotent after __exit__

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_request_cannot_poison_its_coalesced_batchmates(self, trained, bad):
        # A non-finite pixel has no integer code.  Admitted, it would fail
        # its forward and with it the dispatch of every coalesced batchmate;
        # refused, the batchmates are served as if it never came.
        dataset, model_a, _ = trained
        good = dataset.test_images[:8]
        with _router({"a": model_a}, vdds=(0.9,), coalesce=True) as router:
            alone = router.submit("a", good)
            router.drain()
            expected = router.result(alone).predictions
        assert len(set(expected.tolist())) > 1
        poisoned = good[:1].copy()
        poisoned[0, 0, 3, 3] = bad
        with _router({"a": model_a}, vdds=(0.9,), coalesce=True) as router:
            request = router.submit("a", good)
            with pytest.raises(ConfigurationError, match="finite"):
                router.submit("a", poisoned)
            router.drain()
            assert np.array_equal(router.result(request).predictions, expected)

    @pytest.mark.parametrize("mode", [ExecutionMode.EXACT, ExecutionMode.ANALYTIC])
    def test_huge_finite_request_cannot_poison_its_coalesced_batchmates(self, trained, mode):
        # A finite pixel of 1e307 overflows its image's activation scale:
        # admitted, it failed the whole coalesced dispatch.
        dataset, model_a, _ = trained
        before, after = dataset.test_images[:4], dataset.test_images[4:6]
        router = ClusterRouter([_node("n0", 0.9, execution_mode=mode)], coalesce=True)
        router.register_model("a", model_a)
        with router:
            first = router.submit("a", before)
            with pytest.raises(ConfigurationError, match="finite"):
                router.submit("a", dataset.test_images[:1] * 1e307)
            second = router.submit("a", after)
            router.drain()
            for request, images in ((first, before), (second, after)):
                assert np.array_equal(router.result(request).predictions, model_a.predict(images))

    def test_a_known_finite_digest_is_scanned_once(self, trained, monkeypatch):
        dataset, model_a, _ = trained
        scanned = []
        monkeypatch.setattr(router_module, "check_finite", lambda name, images: scanned.append(1))
        monkeypatch.setattr(router_module, "_FINITE_DIGESTS", 2)
        images = dataset.test_images[:2]
        with _router({"a": model_a}, vdds=(0.9,)) as router:
            for digest in ("d0", "d0", "d1", None, None, "d0", "d2"):
                router.submit("a", images, input_digest=digest)
            router.drain()
            # Scanned: d0, d1, both digest-less requests and d2; the repeats
            # of d0 hit the set.  d2 found it full, so it cleared it.
            assert len(scanned) == 5
            assert router._finite_digests == {"d2"}

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusterRouter([_node("dup", 0.9), _node("dup", 0.6)])

    def test_dispatch_failure_is_stored_and_reraised(self, trained):
        dataset, model_a, _ = trained

        class ExplodingCNN:
            """Looks like a CNN to registration; fails at prediction."""

            def __init__(self, cnn):
                self.conv_layers = cnn.conv_layers
                self.head = cnn.head

            def with_backend(self, matmul):
                return self

            def predict(self, images):
                raise RuntimeError("boom")

        router = _router({"bad": ExplodingCNN(model_a)}, vdds=(0.9,))
        request = router.submit("bad", dataset.test_images[:2])
        with pytest.raises(RuntimeError, match="boom"):
            router.drain()
        # The failure sticks to the request instead of it silently
        # vanishing from the queue with result() forever "not complete",
        # and the failed request's virtual-clock reservation is released.
        with pytest.raises(RuntimeError, match="boom"):
            router.result(request)
        assert router.nodes[0].available_s == 0.0

    @pytest.mark.parametrize("sla", ["latency", "best_effort", None])
    def test_an_sla_that_is_not_an_sla_class_is_refused(self, trained, sla):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9,))
        node = router.nodes[0]
        with pytest.raises(ConfigurationError, match="SLAClass"):
            router.submit("a", dataset.test_images[:2], sla=sla, deadline_s=1.0)
        # Refused before admission: nothing reserved, queued or charged.
        assert node.available_s == 0.0
        assert router.queue_depth() == 0
        assert router.drain() == []
        assert node.ledger().total_cycles == 0
        # Conservation: the refusal took no request id, and every admitted
        # request reaches exactly one terminal outcome.
        admitted = router.submit("a", dataset.test_images[:2], sla=SLAClass.THROUGHPUT)
        assert admitted == 0
        router.drain()
        assert router.result(admitted).predictions.shape == (2,)
        assert router.completed_requests == 1
        assert router.failed_requests == 0
        assert router.queue_depth() == 0

    def test_parking_a_node_requeues_its_backlog(self, trained):
        dataset, model_a, _ = trained
        router = _router(
            {"a": model_a},
            vdds=(0.9, 0.9),
            scheduler=SLAScheduler(hot_threshold=1),  # no affinity pinning
        )
        requests = [
            router.submit("a", dataset.test_images[:2]) for _ in range(4)
        ]
        parked = router.nodes[0]
        parked.park()
        # Nothing fails: the parked node's backlog is re-placed on the
        # other node and everything completes.
        results = router.drain()
        assert {r.request_id for r in results} == set(requests)
        assert all(r.node_id == router.nodes[1].node_id for r in results)
        # With the whole fleet parked, work waits instead of failing.
        router.nodes[1].park()
        waiting = router.submit  # admission requires an active node
        with pytest.raises(ConfigurationError):
            waiting("a", dataset.test_images[:2])
        parked.wake()
        queued = router.submit("a", dataset.test_images[:2])
        parked.park()
        assert router.drain() == []  # all parked: queued, not poisoned
        assert router.queue_depth() == 1
        parked.wake()
        router.drain()
        assert router.result(queued).predictions.shape == (2,)


class LastNodeScheduler(SLAScheduler):
    """Pins every placement to the last scored node and counts its calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def choose(self, scored, model_id, sla, arrival_s, deadline_s, pending, telemetry):
        self.calls += 1
        return super().choose(
            scored[-1:], model_id, sla, arrival_s, deadline_s, pending, telemetry
        )


class TestSchedulerHook:
    """An overriding ``choose`` is honoured on every placement path."""

    #: The stock ranking puts none of these requests on the last node:
    #: throughput goes to 0.6 V, latency to 1.0 V, best effort to n0.
    VDDS = (0.6, 1.0, 0.9)

    def test_submit_places_through_the_override(self, trained):
        dataset, model_a, _ = trained
        scheduler = LastNodeScheduler()
        router = _router({"a": model_a}, vdds=self.VDDS, scheduler=scheduler)
        images = dataset.test_images[:2]
        requests = [
            router.submit("a", images, sla=SLAClass.LATENCY, deadline_s=1.0),
            router.submit("a", images, sla=SLAClass.THROUGHPUT),
            router.submit("a", images, sla=SLAClass.BEST_EFFORT),
        ]
        assert scheduler.calls == 3
        last = router.nodes[-1].node_id
        assert [router.decision(r).node_id for r in requests] == [last] * 3
        assert {result.node_id for result in router.drain()} == {last}

    def test_crash_re_placement_goes_through_the_override(self, trained):
        dataset, model_a, _ = trained
        scheduler = LastNodeScheduler()
        crashed, survivor = "n2-0.9v", "n1-1.0v"
        router = _router(
            {"a": model_a}, vdds=self.VDDS, scheduler=scheduler,
            fault_plan=FaultPlan.node_crash(crashed, at_s=1.0),
        )
        images = dataset.test_images[:2]
        backlog = [
            router.submit("a", images, sla=SLAClass.THROUGHPUT, arrival_s=0.0)
            for _ in range(3)
        ]
        assert {router.decision(r).node_id for r in backlog} == {crashed}
        # The crash fires at this arrival, before its placement: the queued
        # backlog is re-placed through the override, then the new request.
        late = router.submit("a", images, sla=SLAClass.THROUGHPUT, arrival_s=1.0)
        assert scheduler.calls == 3 + 3 + 1
        assert router.replayed_placements == 3
        assert {router.decision(r).node_id for r in backlog + [late]} == {survivor}
        results = router.drain()
        assert {result.node_id for result in results} == {survivor}
        assert sorted(r.request_id for r in results if r.replayed) == backlog

    @pytest.mark.parametrize("override", [True, False])
    def test_replay_trace_takes_the_per_request_loop(
        self, trained, monkeypatch, override
    ):
        dataset, model_a, _ = trained
        pool = build_image_pool({"a": dataset.test_images}, (2,), pool_slots=4)
        trace = poisson_trace(
            200, rate_rps=50.0, model_ids=("a",), image_counts=(2,), seed=4
        )
        nodes = [
            _node(f"n{i}", vdd, execution_mode=ExecutionMode.ANALYTIC)
            for i, vdd in enumerate(self.VDDS)
        ]
        scheduler = LastNodeScheduler() if override else SLAScheduler()
        router = ClusterRouter(
            nodes, scheduler=scheduler, retain_results=False,
            telemetry=ColumnarTelemetry(retain_traces=False),
        )
        router.register_model("a", model_a)
        for node in nodes:  # warm: weights programmed, every slot memoised
            for slots in pool.values():
                for digest, images in slots:
                    node.execute("a", images, input_digest=digest)
        turbo_chunks = []
        plain_chunk = ClusterRouter._turbo_chunk
        monkeypatch.setattr(
            ClusterRouter, "_turbo_chunk",
            lambda self, *args: turbo_chunks.append(1) or plain_chunk(self, *args),
        )
        stats = router.replay_trace(trace, pool, drain_every=32)
        assert stats["completed"] == 200.0
        served = [router.telemetry.node_summary(node.node_id)["dispatches"] for node in nodes]
        if override:
            # Turbo inlines the stock ranking, so the override forces the
            # per-request loop: one choose call per request.
            assert not turbo_chunks
            assert scheduler.calls == 200
            assert served == [0, 0, 200]
        else:
            assert turbo_chunks
            assert served == [200, 0, 0]


class TestAutoscaler:
    def test_wakes_parked_node_on_queue_pressure(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9, 0.6))
        eco = router.nodes[1]
        eco.park()
        scaler = ReactiveAutoscaler(router, wake_queue_depth=1)
        for _ in range(3):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
        actions = scaler.observe()
        assert [a.action for a in actions] == ["wake"]
        assert actions[0].node_id == eco.node_id  # backlog -> efficient node
        assert eco.state is NodeState.ACTIVE
        router.drain()

    def test_wakes_for_any_backlog_when_fleet_fully_parked(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9, 0.6))
        request = router.submit("a", dataset.test_images[:2])
        for node in router.nodes:
            node.park()
        # One queued request is below the per-node wake threshold, but with
        # zero active nodes nothing else can ever drain it.
        scaler = ReactiveAutoscaler(router, wake_queue_depth=3)
        actions = scaler.observe()
        assert [a.action for a in actions] == ["wake"]
        router.drain()
        assert router.result(request).predictions.shape == (2,)

    def test_wakes_fastest_node_on_deadline_misses(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6, 1.0))
        fast = router.nodes[1]
        fast.park()
        eco_latency = router.nodes[0].estimate_request(
            "a", dataset.test_images[:2]
        ).latency_s
        router.submit(
            "a",
            dataset.test_images[:2],
            sla=SLAClass.LATENCY,
            deadline_s=eco_latency / 10.0,
        )
        router.drain()  # the eco node misses the deadline
        scaler = ReactiveAutoscaler(router, wake_queue_depth=100)
        actions = scaler.observe()
        assert [a.action for a in actions] == ["wake"]
        assert actions[0].node_id == fast.node_id  # misses -> fastest silicon
        assert "miss" in actions[0].reason

    def test_parks_idle_nodes_down_to_min_active(self, trained):
        _, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(1.0, 0.6))
        scaler = ReactiveAutoscaler(router, min_active=1, park_after_idle=2)
        parked = []
        for _ in range(5):
            parked.extend(a for a in scaler.observe() if a.action == "park")
        assert [a.node_id for a in parked] == [router.nodes[0].node_id]
        assert router.nodes[0].state is NodeState.PARKED  # fast one parks
        assert router.nodes[1].state is NodeState.ACTIVE  # floor holds

    def test_retunes_up_when_missing_with_no_parked_capacity(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6,))
        node = router.nodes[0]
        eco_latency = node.estimate_request("a", dataset.test_images[:2]).latency_s
        router.submit(
            "a",
            dataset.test_images[:2],
            sla=SLAClass.LATENCY,
            deadline_s=eco_latency / 10.0,
        )
        router.drain()
        cycles_before = node.ledger().total_cycles
        scaler = ReactiveAutoscaler(
            router, voltage_rungs=(0.6, 1.0), park_after_idle=100
        )
        actions = scaler.observe()
        assert [a.action for a in actions] == ["retune_up"]
        assert node.vdd == 1.0
        assert node.ledger().total_cycles == cycles_before  # history kept

    def test_retunes_down_when_fleet_is_quiet(self, trained):
        _, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(1.0,))
        scaler = ReactiveAutoscaler(
            router, min_active=1, park_after_idle=2, voltage_rungs=(0.6, 1.0)
        )
        actions = []
        for _ in range(4):
            actions.extend(scaler.observe())
        assert [a.action for a in actions] == ["retune_down"]
        assert router.nodes[0].vdd == 0.6

    def test_miss_pressure_decays_without_traffic(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(1.0, 0.6))
        fast_latency = router.nodes[0].estimate_request(
            "a", dataset.test_images[:2]
        ).latency_s
        router.submit(
            "a",
            dataset.test_images[:2],
            sla=SLAClass.LATENCY,
            deadline_s=fast_latency / 100.0,  # a guaranteed miss
        )
        router.drain()
        scaler = ReactiveAutoscaler(
            router, min_active=1, park_after_idle=2, voltage_rungs=(0.6, 1.0)
        )
        # The window only moves with traffic, so a lone stale miss must not
        # hold the idle fleet awake at full voltage forever: once no new
        # traffic arrives, pressure decays and idle nodes park normally.
        for _ in range(6):
            scaler.observe()
        active = [n for n in router.nodes if n.state is NodeState.ACTIVE]
        assert len(active) == 1

    def test_throughput_traffic_does_not_sustain_stale_miss_pressure(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.6, 1.0))
        fast = router.nodes[1]
        fast.park()
        eco_latency = router.nodes[0].estimate_request(
            "a", dataset.test_images[:2]
        ).latency_s
        router.submit(
            "a",
            dataset.test_images[:2],
            sla=SLAClass.LATENCY,
            deadline_s=eco_latency / 10.0,
        )
        router.drain()  # one stale miss
        scaler = ReactiveAutoscaler(router, wake_queue_depth=100, park_after_idle=100)
        assert [a.action for a in scaler.observe()] == ["wake"]  # fresh miss
        fast.park()
        # Pure throughput traffic keeps the trace window moving but carries
        # no deadlines: the stale miss must not keep re-waking the fleet.
        for _ in range(3):
            router.submit("a", dataset.test_images[:2], sla=SLAClass.THROUGHPUT)
            router.drain()
            assert scaler.observe() == []

    def test_no_action_under_normal_load(self, trained):
        dataset, model_a, _ = trained
        router = _router({"a": model_a}, vdds=(0.9, 0.6))
        scaler = ReactiveAutoscaler(router, park_after_idle=100)
        router.submit("a", dataset.test_images[:2], sla=SLAClass.BEST_EFFORT)
        assert scaler.observe() == []
        router.drain()
        assert scaler.observe() == []


class TestClusterSchedulingStudy:
    """The acceptance criteria of the cluster PR, pinned on a small study."""

    @pytest.fixture(scope="class")
    def study(self):
        return cluster_scheduling_study(
            fleets={
                "dvfs_mixed": (1.0, 0.6),
                "homogeneous_high": (1.0, 1.0),
                "homogeneous_low": (0.6, 0.6),
            },
            samples=90,
            epochs=6,
            waves=4,
        )

    def test_mixed_fleet_has_zero_misses_and_full_feasibility(self, study):
        mixed = study["dvfs_mixed"]
        assert mixed.latency_miss_rate == 0.0
        assert mixed.latency_feasible_rate == 1.0

    def test_mixed_beats_high_fleet_on_throughput_energy(self, study):
        assert (
            study["dvfs_mixed"].throughput_energy_per_image_j
            < study["homogeneous_high"].throughput_energy_per_image_j
        )

    def test_mixed_beats_low_fleet_on_deadline_misses(self, study):
        assert (
            study["dvfs_mixed"].latency_miss_rate
            < study["homogeneous_low"].latency_miss_rate
        )
        assert study["homogeneous_low"].latency_miss_rate > 0.5

    def test_every_fleet_is_bit_exact_and_ledger_conserved(self, study):
        for point in study.values():
            assert point.bit_exact
            assert point.ledger_conserved
            assert point.requests == point.latency_requests + (
                point.requests - point.latency_requests
            )

    def test_study_is_deterministic(self, study):
        again = cluster_scheduling_study(
            fleets={"dvfs_mixed": (1.0, 0.6)}, samples=90, epochs=6, waves=4
        )["dvfs_mixed"]
        reference = study["dvfs_mixed"]
        assert again.latency_mean_s == reference.latency_mean_s
        assert again.total_energy_j == reference.total_energy_j
        assert again.programmed_dispatches == reference.programmed_dispatches
