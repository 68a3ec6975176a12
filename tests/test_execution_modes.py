"""Fidelity contract of the analytic execution fast path.

The cluster's ``ExecutionMode.ANALYTIC`` promises that skipping the numpy
forwards changes *nothing observable*: ledgers, dispatch accounting,
virtual-time telemetry and predictions are bit-identical to the exact path.
These tests pin that contract at every layer — engine ``charge_dispatch``
vs ``matmul``, node execute/execute_group, router trace streams, and the
whole ``cluster_scheduling_study``.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis.experiments import cluster_scheduling_study
from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ExecutionMode,
    ForwardMemo,
    SLAClass,
    SLAScheduler,
)
from repro.core.chip import IMCChip
from repro.core.config import MacroConfig
from repro.core.matmul import TiledMatmulEngine
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.gateway.__main__ import build_demo_router
from repro.utils.validation import check_ledger_conservation


def _engine(num_macros=4, **kwargs):
    return TiledMatmulEngine(
        IMCChip(num_macros, MacroConfig(precision_bits=8)), **kwargs
    )


def _macro_records(engine):
    return [
        {
            opcode: (rec.invocations, rec.words, rec.cycles, rec.energy_j)
            for opcode, rec in macro.stats.records.items()
        }
        for macro in engine.chip.macros
    ]


def _node_state(node):
    """Everything an exact dispatch leaves on a node, for twin comparisons."""
    engine, cache = node.engine, node.engine.cache
    return (
        engine.statistics(),
        _macro_records(engine),
        {model_id: list(counts) for model_id, counts in node.forward_counts.items()},
        [(layer_id, cache.peek(layer_id).hits) for layer_id in cache.resident_layers],
        (cache.hits, cache.misses, cache.evictions),
    )


def _dispatch_twins(golden, reference, model_id, parts):
    """Serve one group on both twins and assert they agree bit for bit.

    Predictions, every ``NodeDispatch`` field and the node state must match.
    """
    answers_g, dispatch_g = golden.execute_group(model_id, parts)
    answers_r, dispatch_r = reference.execute_group(model_id, parts)
    assert len(answers_g) == len(answers_r) == len(parts)
    for got, want in zip(answers_g, answers_r):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    for field in dataclasses.fields(dispatch_g):
        got, want = getattr(dispatch_g, field.name), getattr(dispatch_r, field.name)
        if field.name == "predictions":
            assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            assert got == want, field.name
    assert _node_state(golden) == _node_state(reference)
    return dispatch_g


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=120, size=8, seed=13)
    cnn, _ = train_pattern_cnn(dataset, epochs=6, seed=13)
    return dataset, cnn


class TestChargeDispatch:
    def test_charge_matches_matmul_ledger_and_dispatch_exactly(self):
        """Property-style sweep: random shapes/batches, warm and cold."""
        rng = np.random.default_rng(11)
        real, charged = _engine(), _engine()
        for index in range(24):
            batch = int(rng.integers(1, 12))
            inner = int(rng.integers(2, 200))
            outer = int(rng.integers(1, 24))
            layer_id = f"layer-{index % 5}"  # mix of cold, warm, re-shaped ids
            acts = rng.integers(-9, 10, size=(batch, inner))
            weights = rng.integers(-9, 10, size=(inner, outer))
            try:
                real.matmul(acts, weights, layer_id=layer_id)
                charged.charge_dispatch(batch, weights, layer_id=layer_id)
            except ConfigurationError:
                # Shape conflict with a resident id: both paths must refuse
                # identically; re-raise asymmetries as failures.
                with pytest.raises(ConfigurationError):
                    charged.charge_dispatch(batch, weights, layer_id=layer_id)
                continue
            assert real.last_dispatch == charged.last_dispatch
            assert real.statistics() == charged.statistics()
            assert _macro_records(real) == _macro_records(charged)
        assert real.cache.resident_layers == charged.cache.resident_layers

    def test_charge_layers_is_ledger_identical_to_charge_dispatch(self):
        rng = np.random.default_rng(3)
        a, b = _engine(), _engine()
        layers = []
        for index in range(3):
            weights = rng.integers(-9, 10, size=(40 + 30 * index, 6))
            layers.append((5 + index, weights, f"l{index}"))
        for _ in range(3):  # cold first round, warm afterwards
            for batch, weights, layer_id in layers:
                a.charge_dispatch(batch, weights, layer_id=layer_id)
            b.charge_layers(layers)
        assert a.statistics() == b.statistics()
        assert _macro_records(a) == _macro_records(b)

    def test_charge_refuses_disturb_configs(self):
        engine = TiledMatmulEngine(
            IMCChip(2, MacroConfig(precision_bits=8, inject_read_disturb=True))
        )
        with pytest.raises(ConfigurationError):
            engine.charge_dispatch(4, np.ones((8, 4), dtype=np.int64), layer_id="x")

    def test_charge_validates_operands(self):
        engine = _engine()
        with pytest.raises(Exception):
            engine.charge_dispatch(0, np.ones((8, 4), dtype=np.int64))
        with pytest.raises(ConfigurationError):
            engine.charge_dispatch(2, np.full((8, 4), 1 << 12))

    def test_ledger_marks_bracket_programming_and_compute(self):
        engine = _engine()
        rng = np.random.default_rng(5)
        weights = rng.integers(-9, 10, size=(80, 12))
        mark = engine.ledger_mark()
        engine.charge_dispatch(6, weights, layer_id="l")
        total, critical, energy = engine.ledger_since(mark)
        assert total == engine.chip.stats.total_cycles
        assert energy == pytest.approx(engine.chip.stats.total_energy_j, rel=1e-12)
        assert 0 < critical <= total


class TestNodeFidelity:
    def _pair(self, cnn, **kwargs):
        exact = ClusterNode("exact", vdd=0.9, num_macros=16, **kwargs)
        analytic = ClusterNode(
            "analytic",
            vdd=0.9,
            num_macros=16,
            execution_mode=ExecutionMode.ANALYTIC,
            **kwargs,
        )
        for node in (exact, analytic):
            node.register_model("cnn", cnn)
        return exact, analytic

    @pytest.mark.parametrize(
        "max_batch_size, degrade",
        [(4, None), (3, 1.1), (4, 1.3), (5, 1.25)],
        ids=["nom", "deg-b3", "deg-b4", "deg-b5"],
    )
    def test_execute_matches_exact_including_split_batches(
        self, trained, max_batch_size, degrade
    ):
        dataset, cnn = trained
        exact, analytic = self._pair(cnn, max_batch_size=max_batch_size)
        if degrade is not None:
            for node in (exact, analytic):
                node.degrade(degrade)
        images = dataset.test_images[:11]  # split into 3 to 4 batches
        for _ in range(2):  # cold then warm
            de = exact.execute("cnn", images)
            da = analytic.execute("cnn", images, input_digest="probe")
            assert np.array_equal(de.predictions, da.predictions)
            assert de.compute_s == da.compute_s
            assert de.energy_j == da.energy_j
            assert de.batches == da.batches == -(-11 // max_batch_size)
            assert de.critical_path_cycles == da.critical_path_cycles
            assert (de.programmed, de.affinity_hit) == (da.programmed, da.affinity_hit)
        assert exact.engine.statistics() == analytic.engine.statistics()
        ledger_e, ledger_a = exact.ledger(), analytic.ledger()
        assert ledger_e.total_cycles == ledger_a.total_cycles
        assert ledger_e.total_energy_j == ledger_a.total_energy_j

    def test_execute_group_matches_exact(self, trained):
        dataset, cnn = trained
        exact, analytic = self._pair(cnn, max_batch_size=8)
        parts = [
            (dataset.test_images[i * 3 : (i + 1) * 3], f"part-{i}") for i in range(3)
        ]
        preds_e, de = exact.execute_group("cnn", parts)
        preds_a, da = analytic.execute_group("cnn", parts)
        for a, b in zip(preds_e, preds_a):
            assert np.array_equal(a, b)
        assert de.compute_s == da.compute_s
        assert de.energy_j == da.energy_j
        assert de.batches == da.batches
        assert exact.engine.statistics() == analytic.engine.statistics()

    def test_exact_node_on_disturb_config_reports_its_ledger_delta(self):
        # Disturb configurations compute on the per-lane reference path,
        # whose charges bypass the engine's running accumulators; the
        # node's ledger marks must still see them.
        dataset = make_pattern_image_dataset(samples=40, size=5, seed=3)
        cnn, _ = train_pattern_cnn(
            dataset, conv_channels=(2,), hidden_sizes=(4,), epochs=2, seed=3
        )
        config = MacroConfig(precision_bits=8, inject_read_disturb=True, seed=5)
        node = ClusterNode("disturb", num_macros=2, config=config)
        node.register_model("cnn", cnn)
        dispatch = node.execute("cnn", dataset.test_images[:1])
        per_macro = [macro.stats.total_cycles for macro in node.chip.macros]
        assert dispatch.critical_path_cycles == max(per_macro) > 0
        assert dispatch.energy_j == node.chip.stats.total_energy_j > 0
        assert dispatch.compute_s == max(per_macro) * node.cycle_time_s > 0

    @staticmethod
    def _twins(monkeypatch, models, **kwargs):
        """An exact node and its engine-bound reference twin.

        The twin's exact batches run through the engine-bound model, the
        batch loop a read-disturb chip keeps.
        """
        golden = ClusterNode("twin", vdd=0.9, **kwargs)
        reference = ClusterNode("twin", vdd=0.9, **kwargs)
        monkeypatch.setattr(
            reference, "_golden_batches", reference._engine_bound_batches
        )
        for node in (golden, reference):
            for model_id, model in models:
                node.register_model(model_id, model, allow_transient=True)
        return golden, reference

    @pytest.mark.parametrize("max_batch_size", [1, 3, 256])
    def test_exact_node_matches_the_engine_bound_batch_loop(
        self, trained, monkeypatch, max_batch_size
    ):
        dataset, cnn = trained
        images = dataset.test_images
        golden, reference = self._twins(
            monkeypatch, [("cnn", cnn)], num_macros=16, max_batch_size=max_batch_size
        )
        # Sizes 2, 2, 1, 4: at batch size 3 the second and fourth parts
        # straddle a batch boundary.
        group = [
            (images[0:2], None),
            (images[2:4], "b"),
            (images[4:5], None),
            (images[5:9], "d"),
        ]
        cold = _dispatch_twins(golden, reference, "cnn", group)
        assert cold.programmed and not cold.affinity_hit
        warm = _dispatch_twins(golden, reference, "cnn", group)
        assert warm.affinity_hit and not warm.programmed
        _dispatch_twins(golden, reference, "cnn", [(images[9:16], None)])
        for node in (golden, reference):
            node.degrade(1.7)
        _dispatch_twins(golden, reference, "cnn", group)
        for node in (golden, reference):
            node.restore()
            node.retune(0.7)
        assert _dispatch_twins(golden, reference, "cnn", group).programmed
        _dispatch_twins(golden, reference, "cnn", group[1:3])
        assert golden.forward_counts["cnn"][1] == 9 * 4 + 7 + 3
        assert golden.ledger().total_cycles == reference.ledger().total_cycles
        assert golden.ledger().total_energy_j == reference.ledger().total_energy_j

    @pytest.mark.parametrize("num_macros", [8, 16], ids=["transient", "evicting"])
    def test_exact_node_matches_the_engine_bound_batch_loop_under_contention(
        self, trained, monkeypatch, num_macros
    ):
        # Either model alone fits 16 macros but not both, so every switch
        # evicts and re-programs; on 8 macros the largest layer never
        # becomes resident and is programmed on every call.
        dataset, cnn = trained
        other, _ = train_pattern_cnn(dataset, epochs=2, seed=7)
        images = dataset.test_images
        golden, reference = self._twins(
            monkeypatch, [("a", cnn), ("b", other)], num_macros=num_macros, max_batch_size=3
        )
        group = [(images[0:2], None), (images[2:7], None)]
        for model_id in ("a", "b", "a", "a", "b"):
            _dispatch_twins(golden, reference, model_id, group)
        # Some of the six layers were programmed more than once.
        assert golden.engine.cache.misses > 6
        assert (golden.engine.cache.evictions > 0) == (num_macros == 16)

    def test_twin_comparison_catches_a_perturbed_charge_row(self, trained, monkeypatch):
        dataset, cnn = trained
        group = [(dataset.test_images[0:2], None), (dataset.test_images[2:5], None)]
        golden, reference = self._twins(
            monkeypatch, [("cnn", cnn)], num_macros=16, max_batch_size=3
        )
        _dispatch_twins(golden, reference, "cnn", group)  # cold: programs
        engine = golden.engine
        honest = engine._charge_rows_for

        def perturbed(entry, batch):
            first, *rest = honest(entry, batch)
            first = list(first)
            first[3] += 1  # one more MULT cycle...
            first[8] += 1  # ...and on the macro's running cycle count
            return (tuple(first), *rest)

        monkeypatch.setattr(engine, "_charge_rows_for", perturbed)
        with pytest.raises(AssertionError):
            _dispatch_twins(golden, reference, "cnn", group)

    def test_twin_comparison_catches_a_flipped_prediction(self, trained, monkeypatch):
        dataset, cnn = trained
        group = [(dataset.test_images[0:2], None), (dataset.test_images[2:5], None)]
        golden, reference = self._twins(
            monkeypatch, [("cnn", cnn)], num_macros=16, max_batch_size=3
        )
        _dispatch_twins(golden, reference, "cnn", group)
        honest = golden._plain_forward

        def flipped(model_id, images):
            predictions = honest(model_id, images).copy()
            predictions[0] = (predictions[0] + 1) % 3
            return predictions

        monkeypatch.setattr(golden, "_plain_forward", flipped)
        with pytest.raises(AssertionError):
            _dispatch_twins(golden, reference, "cnn", group)

    def test_exact_node_on_a_disturb_chip_computes_on_the_per_lane_path(self, monkeypatch):
        dataset = make_pattern_image_dataset(samples=40, size=5, seed=3)
        cnn, _ = train_pattern_cnn(
            dataset, conv_channels=(2,), hidden_sizes=(4,), epochs=2, seed=3
        )
        config = MacroConfig(precision_bits=8, inject_read_disturb=True, seed=5)
        node = ClusterNode("disturb", num_macros=2, config=config, max_batch_size=1)
        node.register_model("cnn", cnn)
        calls = []
        per_lane = node.engine.matmul_reference

        def spy(*args, **kwargs):
            calls.append(args)
            return per_lane(*args, **kwargs)

        monkeypatch.setattr(node.engine, "matmul_reference", spy)
        monkeypatch.setattr(
            node, "_plain_forward", lambda *args: pytest.fail("golden forward ran")
        )
        node.execute_group("cnn", [(dataset.test_images[:2], None)])
        layers = len(node.layer_ids("cnn"))
        assert len(calls) == 2 * layers  # two batches of one image
        assert node.forward_counts["cnn"] == [2, 2]

    def test_exact_node_does_not_age(self, trained):
        # A dispatch must not leave per-request or per-batch records behind:
        # a long-lived exact node keeps a constant footprint.
        dataset, cnn = trained
        node = ClusterNode("exact", vdd=0.9, num_macros=16, max_batch_size=8)
        node.register_model("cnn", cnn)
        parts = [(dataset.test_images[:1], None), (dataset.test_images[1:3], None)]
        dispatches = 2000
        for _ in range(50):
            node.execute_group("cnn", parts)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(dispatches):
                node.execute_group("cnn", parts)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * dispatches

    def test_memo_runs_model_once_per_unique_digest(self, trained):
        dataset, cnn = trained
        memo = ForwardMemo()
        node = ClusterNode(
            "a",
            num_macros=16,
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
        )
        node.register_model("cnn", cnn)
        images = dataset.test_images[:5]
        for _ in range(10):
            node.execute("cnn", images, input_digest="same")
        assert memo.misses == 1
        assert memo.hits == 9
        assert len(memo) == 1

    def test_memo_falls_back_to_content_key_without_digest(self, trained):
        dataset, cnn = trained
        memo = ForwardMemo()
        node = ClusterNode(
            "a",
            num_macros=16,
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
        )
        node.register_model("cnn", cnn)
        node.execute("cnn", dataset.test_images[:4])
        node.execute("cnn", dataset.test_images[:4])
        node.execute("cnn", dataset.test_images[4:8])
        assert memo.misses == 2 and memo.hits == 1

    def test_a_memo_entry_cannot_be_edited_through_a_result(self, trained):
        # Every request carrying a digest is handed the same memoised array;
        # an edit through one result would change every later answer.
        dataset, _ = trained
        router = build_demo_router(nodes=2, num_macros=8, mode="analytic", coalesce=True)
        images = dataset.test_images[:2]
        answers = []
        for _ in range(3):  # cold (direct dispatch), then warm
            rid = router.submit("cnn", images, input_digest="x")
            router.drain()
            predictions = router.result(rid).predictions
            with pytest.raises(ValueError, match="read-only"):
                predictions[:] = 99
            answers.append(predictions.tolist())
        assert answers[0] == answers[1] == answers[2]
        assert 99 not in answers[0]
        node = router.nodes[0]
        dispatch = node.execute("cnn", images, input_digest="x")
        assert not dispatch.predictions.flags.writeable

    def test_spot_check_catches_lying_digests(self, trained):
        dataset, cnn = trained
        node = ClusterNode(
            "a",
            num_macros=16,
            execution_mode=ExecutionMode.ANALYTIC,
            spot_check_every=1,
        )
        node.register_model("cnn", cnn)
        node.execute("cnn", dataset.test_images[:4], input_digest="d")
        with pytest.raises(ConfigurationError, match="spot check"):
            # Same digest, different images: the memo would silently serve
            # the wrong predictions; the sampled audit must catch it.
            node.execute("cnn", dataset.test_images[4:8], input_digest="d")

    def test_spot_check_passes_on_honest_digests(self, trained):
        dataset, cnn = trained
        node = ClusterNode(
            "a",
            num_macros=16,
            execution_mode=ExecutionMode.ANALYTIC,
            spot_check_every=2,
        )
        node.register_model("cnn", cnn)
        for _ in range(5):
            node.execute("cnn", dataset.test_images[:4], input_digest="d")
        assert node.spot_checks == 2

    def test_a_spot_check_is_stamped_only_on_the_request_it_audited(self, trained):
        # Three coalesced requests, one of them a memo hit: only the hit is
        # re-run, so only its trace may say it was audited.  The first round
        # takes the deferred-charge dispatch, the second (results were read
        # back in between) the direct one.
        dataset, cnn = trained
        images = dataset.test_images
        node = ClusterNode(
            "a", num_macros=16, execution_mode=ExecutionMode.ANALYTIC, spot_check_every=1
        )
        router = ClusterRouter([node], coalesce=True)
        router.register_model("cnn", cnn)
        router.submit("cnn", images[:2], arrival_s=0.0, input_digest="hit")
        router.drain()
        for round_ in range(2):
            ids = [
                router.submit("cnn", images[2:5], arrival_s=0.0, input_digest=f"miss{round_}a"),
                router.submit("cnn", images[:2], arrival_s=0.0, input_digest="hit"),
                router.submit("cnn", images[5:6], arrival_s=0.0, input_digest=f"miss{round_}b"),
            ]
            router.drain()
            traces = [router.result(rid).trace for rid in ids]
            assert [trace.coalesced for trace in traces] == [3, 3, 3]
            assert [trace.spot_checked for trace in traces] == [False, True, False]
        assert node.spot_checks == 2
        assert router.telemetry.summary()["spot_checked_requests"] == 2.0

    def test_estimate_cache_tracks_residency_changes(self, trained):
        dataset, cnn = trained
        node = ClusterNode("a", num_macros=16)
        node.register_model("cnn", cnn)
        images = dataset.test_images[:4]
        cold = node.estimate_request("cnn", images)
        assert not cold.resident
        node.execute("cnn", images)
        warm = node.estimate_request("cnn", images)
        assert warm.resident
        assert warm.latency_s < cold.latency_s
        # Cached warm estimate equals a recomputed one.
        assert node.estimate_request("cnn", images) == warm


class TestRouterFidelity:
    def _route(self, cnn, dataset, mode, coalesce=False):
        nodes = [
            ClusterNode(
                f"n{i}", vdd=vdd, num_macros=16, execution_mode=mode
            )
            for i, vdd in enumerate((1.0, 0.6))
        ]
        with ClusterRouter(
            nodes, scheduler=SLAScheduler(), coalesce=coalesce
        ) as router:
            router.register_model("cnn", cnn)
            for index in range(12):
                images = dataset.test_images[(index % 4) * 3 : (index % 4) * 3 + 3]
                router.submit(
                    "cnn",
                    images,
                    sla=list(SLAClass)[index % 3],
                    deadline_s=1.0 if index % 3 == 0 else None,
                    arrival_s=index * 1e-5,
                    input_digest=f"p{index % 4}",
                )
                if index % 5 == 4:
                    router.drain()
            router.drain()
            traces = list(router.telemetry.traces)
            ledger = router.ledger()
            # Every mode/coalescing configuration must satisfy the same
            # conservation law: cluster ledger == sum of node ledgers.
            check_ledger_conservation(
                ledger, [node.ledger() for node in nodes]
            )
            predictions = {
                i: router.result(i).predictions for i in range(12)
            }
        return traces, ledger, predictions

    def test_trace_stream_is_bit_identical_across_modes(self, trained):
        dataset, cnn = trained
        te, ledger_e, preds_e = self._route(cnn, dataset, ExecutionMode.EXACT)
        ta, ledger_a, preds_a = self._route(cnn, dataset, ExecutionMode.ANALYTIC)
        assert len(te) == len(ta)
        for a, b in zip(te, ta):
            assert (
                a.request_id,
                a.node_id,
                a.start_s,
                a.finish_s,
                a.compute_s,
                a.energy_j,
                a.deadline_missed,
                a.affinity_hit,
                a.programmed,
                a.feasible_at_admission,
            ) == (
                b.request_id,
                b.node_id,
                b.start_s,
                b.finish_s,
                b.compute_s,
                b.energy_j,
                b.deadline_missed,
                b.affinity_hit,
                b.programmed,
                b.feasible_at_admission,
            )
            assert b.execution_mode == "analytic"
        assert ledger_e.total_cycles == ledger_a.total_cycles
        assert ledger_e.total_energy_j == ledger_a.total_energy_j
        for request_id in preds_e:
            assert np.array_equal(preds_e[request_id], preds_a[request_id])

    def test_coalesced_modes_agree_with_each_other(self, trained):
        dataset, cnn = trained
        te, ledger_e, preds_e = self._route(
            cnn, dataset, ExecutionMode.EXACT, coalesce=True
        )
        ta, ledger_a, preds_a = self._route(
            cnn, dataset, ExecutionMode.ANALYTIC, coalesce=True
        )
        assert [t.coalesced for t in te] == [t.coalesced for t in ta]
        assert [t.finish_s for t in te] == [t.finish_s for t in ta]
        assert [t.energy_j for t in te] == [t.energy_j for t in ta]
        assert ledger_e.total_cycles == ledger_a.total_cycles
        assert ledger_e.total_energy_j == ledger_a.total_energy_j
        for request_id in preds_e:
            assert np.array_equal(preds_e[request_id], preds_a[request_id])

    def test_coalescing_merges_adjacent_same_model_requests(self, trained):
        dataset, cnn = trained
        node = ClusterNode("solo", num_macros=16, max_batch_size=64)
        with ClusterRouter([node], coalesce=True) as router:
            router.register_model("cnn", cnn)
            for index in range(4):
                router.submit("cnn", dataset.test_images[:3], arrival_s=0.0)
            results = router.drain()
        assert len(results) == 4
        assert results[0].coalesced == 4
        assert router.telemetry.summary()["coalesced_requests"] == 4.0

    def test_queue_depth_and_pending_counters_stay_consistent(self, trained):
        dataset, cnn = trained
        nodes = [ClusterNode(f"n{i}", num_macros=16) for i in range(2)]
        with ClusterRouter(nodes) as router:
            router.register_model("cnn", cnn)
            for index in range(6):
                router.submit("cnn", dataset.test_images[:2], arrival_s=index * 1e-6)
            assert router.queue_depth() == 6
            assert router.queue_depth() == sum(
                router.queue_depth(node.node_id) for node in nodes
            )
            assert set(router._pending_by_model["cnn"]) <= {"n0", "n1"}
            assert sum(router._pending_by_model["cnn"].values()) == 6
            router.drain()
            assert router.queue_depth() == 0
            assert "cnn" not in router._pending_by_model


class TestStudyFidelity:
    @pytest.fixture(scope="class")
    def studies(self):
        kwargs = dict(num_macros=16, samples=60, epochs=3, waves=2)
        return (
            cluster_scheduling_study(execution_mode="exact", **kwargs),
            cluster_scheduling_study(execution_mode="analytic", **kwargs),
        )

    def test_analytic_study_reproduces_exact_bit_for_bit(self, studies):
        exact, analytic = studies
        assert exact.keys() == analytic.keys()
        for fleet in exact:
            assert dataclasses.asdict(exact[fleet]) == dataclasses.asdict(
                analytic[fleet]
            ), fleet

    def test_studies_remain_internally_consistent(self, studies):
        _, analytic = studies
        for point in analytic.values():
            assert point.ledger_conserved
            assert point.bit_exact
