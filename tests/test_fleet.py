"""The fleet runtime: sharded execution, single-process determinism.

The charter test is differential: a :class:`~repro.fleet.FleetCluster`
run over worker shards must produce the *same* ledger totals, deadline
-miss sets and prediction arrays as a single-process
:class:`~repro.cluster.router.ClusterRouter` over an identical fleet and
workload — the fidelity contract the whole shadow-charge design exists to
keep.  Around it: the NodeSpec recipes, the shared-memory tensor
transport, the order-invariant metrics merge, the delivery audit (a
tampered pipe — a duplicated, dropped or unknown message, or a short
completion — must raise, not go unnoticed), and the crash drills (worker
death mid-batch must conserve every admitted request).

Thread-transport fleets run the full message protocol in-process (fast,
coverage-visible); a bounded set of spawn-transport tests exercises real
processes, real shared memory and the hard-exit crash drill.
"""

import gc
import multiprocessing
import threading
import time
import warnings

import numpy as np
import pytest

from repro.cluster import ClusterNode, ClusterRouter
from repro.cluster.node import ExecutionMode
from repro.cluster.router import SLAClass
from repro.core.config import MacroConfig
from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.fleet import (
    FleetCluster,
    FleetError,
    FleetFidelityError,
    ShadowNode,
    TensorReader,
    TensorStore,
    WorkerConfig,
    worker_main,
)
from repro.fleet.messages import (
    Completion,
    Dispatch,
    Hello,
    RegisterModel,
    Shutdown,
    Sync,
    SyncReply,
    TensorRef,
)
from repro.fleet.shm import attach_readonly
from repro.obs import MetricsRegistry
from repro.utils.validation import check_ledger_conservation

NUM_MACROS = 4


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=90, size=8, seed=13)
    model, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=13
    )
    return dataset, model


def make_nodes(count=4, mixed_vdd=True, max_batch_size=8):
    return [
        ClusterNode(
            f"node-{index}",
            vdd=1.0 if (index % 2 == 0 or not mixed_vdd) else 0.6,
            num_macros=NUM_MACROS,
            max_batch_size=max_batch_size,
            execution_mode=ExecutionMode.EXACT,
        )
        for index in range(count)
    ]


def submit_mixed(router, pool, requests=30, seed=11, arrival_gap=0.0):
    """The shared mixed-SLA workload both sides of a differential run get."""
    rng = np.random.default_rng(seed)
    slas = [SLAClass.LATENCY, SLAClass.BEST_EFFORT, SLAClass.THROUGHPUT]
    ids = []
    for index in range(requests):
        count = int(rng.integers(1, 5))
        start = int(rng.integers(0, pool.shape[0] - count))
        sla = slas[index % 3]
        ids.append(
            router.submit(
                "cnn",
                pool[start : start + count].copy(),
                sla=sla,
                deadline_s=0.05 if sla is SLAClass.LATENCY else None,
                arrival_s=index * arrival_gap,
            )
        )
    return ids


def assert_matches_oracle(fleet, oracle, pool, requests=30, seed=11):
    """Run the same workload on both, assert the full fidelity contract."""
    submit_mixed(oracle, pool, requests=requests, seed=seed)
    submit_mixed(fleet, pool, requests=requests, seed=seed)
    oracle_results = oracle.drain()
    fleet_results = fleet.drain()
    assert len(fleet_results) == len(oracle_results) == requests
    oracle_ledger, fleet_ledger = oracle.ledger(), fleet.ledger()
    assert fleet_ledger.total_cycles == oracle_ledger.total_cycles
    assert fleet_ledger.total_energy_j == oracle_ledger.total_energy_j
    assert {r.request_id for r in fleet_results if r.deadline_missed} == {
        r.request_id for r in oracle_results if r.deadline_missed
    }
    for ours, theirs in zip(fleet_results, oracle_results):
        assert ours.request_id == theirs.request_id
        assert np.array_equal(ours.predictions, theirs.predictions)


# ---------------------------------------------------------------------- #
# NodeSpec: the shard recipe
# ---------------------------------------------------------------------- #
class TestNodeSpec:
    def test_round_trip_builds_an_equivalent_node(self, trained):
        dataset, model = trained
        original = ClusterNode(
            "n0",
            vdd=0.8,
            num_macros=NUM_MACROS,
            max_batch_size=16,
            execution_mode=ExecutionMode.EXACT,
        )
        rebuilt = original.spec().build()
        assert isinstance(rebuilt, ClusterNode)
        assert rebuilt.node_id == "n0"
        assert rebuilt.vdd == original.vdd
        assert rebuilt.max_batch_size == original.max_batch_size
        for node in (original, rebuilt):
            node.register_model("m", model)
            node.execute("m", dataset.test_images[:3])
        assert (
            rebuilt.ledger().total_cycles == original.ledger().total_cycles
        )
        assert (
            rebuilt.ledger().total_energy_j == original.ledger().total_energy_j
        )

    def test_build_as_shadow_charges_identically(self, trained):
        dataset, model = trained
        spec = make_nodes(count=1)[0].spec()
        real, shadow = spec.build(), spec.build(node_cls=ShadowNode)
        assert isinstance(shadow, ShadowNode)
        for node in (real, shadow):
            node.register_model("m", model)
            node.execute("m", dataset.test_images[:3])
        assert shadow.ledger().total_cycles == real.ledger().total_cycles
        assert shadow.ledger().total_energy_j == real.ledger().total_energy_j


# ---------------------------------------------------------------------- #
# Shadow placeholders
# ---------------------------------------------------------------------- #
class TestShadowNode:
    def test_placeholder_is_a_loud_sentinel(self, trained):
        dataset, model = trained
        shadow = make_nodes(count=1)[0].spec().build(node_cls=ShadowNode)
        shadow.register_model("m", model)
        dispatch = shadow.execute("m", dataset.test_images[:3])
        assert np.all(dispatch.predictions == -1)
        pending = shadow.take_pending()
        assert pending is not None and shadow.take_pending() is None
        pending.targets[0][:] = 2
        assert np.all(dispatch.predictions == 2)  # same backing memory

    def test_group_targets_are_views_of_one_array(self, trained):
        dataset, model = trained
        shadow = make_nodes(count=1)[0].spec().build(node_cls=ShadowNode)
        shadow.register_model("m", model)
        parts = [
            (dataset.test_images[:2], "a"),
            (dataset.test_images[2:5], "b"),
        ]
        targets, dispatch = shadow.execute_group("m", parts)
        assert [t.shape[0] for t in targets] == [2, 3]
        targets[1][:] = 7
        assert np.all(dispatch.predictions[2:] == 7)

    def test_inactive_shadow_refuses_dispatch(self, trained):
        dataset, model = trained
        shadow = make_nodes(count=1)[0].spec().build(node_cls=ShadowNode)
        shadow.register_model("m", model)
        shadow.fail()
        with pytest.raises(ConfigurationError, match="failed"):
            shadow.execute("m", dataset.test_images[:2])


# ---------------------------------------------------------------------- #
# Shared-memory tensor transport
# ---------------------------------------------------------------------- #
class TestTensorTransport:
    def test_small_arrays_ride_inline(self):
        with TensorStore(inline_bytes=2048) as store:
            ref = store.put("d1", np.ones((4, 4)))
            assert ref.shm_name is None and ref.inline is not None
            assert store.inline_refs == 1
            fetched = TensorReader().fetch(ref)
            assert np.array_equal(fetched, np.ones((4, 4)))

    def test_large_arrays_cross_via_shared_memory(self):
        payload = np.arange(4096, dtype=np.float64).reshape(64, 64)
        with TensorStore(inline_bytes=64) as store:
            ref = store.put("d2", payload)
            assert ref.shm_name is not None
            reader = TensorReader()
            fetched = reader.fetch(ref)
            assert np.array_equal(fetched, payload)
            assert reader.misses == 1
            again = reader.fetch(ref)
            assert reader.hits == 1 and again is fetched

    def test_digest_reuse_pins_one_segment(self):
        payload = np.zeros((64, 64))
        with TensorStore(inline_bytes=64) as store:
            first = store.put("d3", payload)
            second = store.put("d3", payload)
            assert first is second
            assert store.segments_created == 1 and store.reuse_hits == 1

    def test_release_and_capacity_evict_unpinned_lru(self):
        with TensorStore(inline_bytes=0, capacity=2) as store:
            refs = [store.put(f"d{i}", np.full((32, 32), i)) for i in range(4)]
            assert len(store) == 4  # pinned entries never evict
            for ref in refs:
                store.release(ref)
            assert len(store) == 2  # down to capacity, LRU first
            assert np.all(TensorReader().fetch(refs[3]) == 3)  # newest survives
            with pytest.raises(FileNotFoundError):
                attach_readonly(refs[0].shm_name)  # oldest segment unlinked

    def test_put_after_close_refuses(self):
        store = TensorStore()
        store.close()
        store.close()  # idempotent
        with pytest.raises(ConfigurationError, match="closed"):
            store.put("d", np.ones(2))

    def test_reader_cache_is_bounded(self):
        reader = TensorReader(capacity=2)
        for index in range(4):
            reader.fetch(
                TensorRef(
                    digest=f"d{index}",
                    shape=(2,),
                    dtype="float64",
                    inline=np.full(2, index),
                )
            )
        assert reader.misses == 4
        assert reader.summary()["entries"] == 2.0


# ---------------------------------------------------------------------- #
# Order-invariant snapshot merge
# ---------------------------------------------------------------------- #
class TestMergeSnapshots:
    @staticmethod
    def _worker_snapshot(rank, value):
        registry = MetricsRegistry()
        counter = registry.counter(
            "fleet_worker_requests_total", "requests", labelnames=("rank",)
        )
        counter.labels(rank=str(rank)).inc(value)
        registry.histogram("latency_s", "latency").labels().record(value)
        return registry.snapshot()

    def test_merge_is_order_invariant_for_counters_and_histograms(self):
        snaps = [self._worker_snapshot(rank, rank + 1.0) for rank in range(3)]

        def merged(order):
            registry = MetricsRegistry()
            registry.merge_snapshots(snaps[i] for i in order)
            return registry.snapshot()["metrics"]

        forward, backward = merged([0, 1, 2]), merged([2, 1, 0])
        for name in ("fleet_worker_requests_total", "latency_s"):
            fwd = {
                tuple(s["labels"].items()): s.get("value", s.get("count"))
                for s in forward[name]["samples"]
            }
            bwd = {
                tuple(s["labels"].items()): s.get("value", s.get("count"))
                for s in backward[name]["samples"]
            }
            assert fwd == bwd
        samples = forward["fleet_worker_requests_total"]["samples"]
        assert sum(s["value"] for s in samples) == 6.0


# ---------------------------------------------------------------------- #
# Differential fidelity: fleet vs single-process oracle
# ---------------------------------------------------------------------- #
@pytest.mark.timeout(120)
class TestFleetFidelity:
    def test_thread_fleet_matches_oracle(self, trained):
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="thread"
        ) as fleet:
            fleet.register_model("cnn", model)
            oracle = ClusterRouter(make_nodes())
            oracle.register_model("cnn", model)
            assert_matches_oracle(fleet, oracle, dataset.test_images)
            report = fleet.sync()
            assert report["live_workers"] == [0, 1]
            assert report["audited_nodes"] == 4
            assert sum(report["dispatch_groups"].values()) > 0
            check_ledger_conservation(
                fleet.ledger(),
                [shadow.ledger() for shadow in fleet._shadow_by_id.values()],
            )
            oracle.shutdown()

    def test_coalesced_thread_fleet_matches_oracle(self, trained):
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="thread", coalesce=True
        ) as fleet:
            fleet.register_model("cnn", model)
            oracle = ClusterRouter(make_nodes(), coalesce=True)
            oracle.register_model("cnn", model)
            assert_matches_oracle(fleet, oracle, dataset.test_images, seed=5)
            oracle.shutdown()

    def test_retune_matches_a_router_retuned_at_the_same_point(self, trained):
        # A retune rebuilds the shadow's chip, so the re-programming
        # charges that follow land in the coordinator's ledger; workers
        # keep no ledger, so nothing about the retune is shipped.
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="thread"
        ) as fleet:
            fleet.register_model("cnn", model)
            oracle = ClusterRouter(make_nodes())
            oracle.register_model("cnn", model)
            assert_matches_oracle(fleet, oracle, dataset.test_images, requests=9)
            fleet.node("node-1").retune(0.8)
            oracle.node("node-1").retune(0.8)
            assert_matches_oracle(fleet, oracle, dataset.test_images, requests=9, seed=3)
            assert fleet.node("node-1").ledger().total_cycles == (
                oracle.node("node-1").ledger().total_cycles
            )
            assert fleet.sync()["audited_nodes"] == 4
            oracle.shutdown()

    def test_metrics_snapshot_merges_worker_families(self, trained):
        dataset, model = trained
        from repro.cluster.instrumentation import attach_cluster_observability

        registry = MetricsRegistry()
        with FleetCluster(
            make_nodes(), workers=2, transport="thread"
        ) as fleet:
            attach_cluster_observability(fleet, registry)
            fleet.register_model("cnn", model)
            submit_mixed(fleet, dataset.test_images, requests=12)
            fleet.drain()
            fleet.sync()
            snapshot = fleet.metrics_snapshot()
            names = set(snapshot["metrics"])
            assert "cluster_requests_total" in names
            assert "fleet_worker_requests_total" in names
            worker_total = sum(
                s["value"]
                for s in snapshot["metrics"]["fleet_worker_requests_total"][
                    "samples"
                ]
            )
            assert worker_total == 12.0
            # Repeated merges must not double-count the worker counters.
            again = fleet.metrics_snapshot()
            assert (
                sum(
                    s["value"]
                    for s in again["metrics"]["fleet_worker_requests_total"][
                        "samples"
                    ]
                )
                == worker_total
            )

    def test_summary_reports_fleet_runtime(self, trained):
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="thread"
        ) as fleet:
            fleet.register_model("cnn", model)
            submit_mixed(fleet, dataset.test_images, requests=6)
            fleet.drain()
            report = fleet.summary()
            assert report["fleet"]["workers"] == 2.0
            assert report["fleet"]["live_workers"] == 2.0
            assert report["fleet"]["worker_crashes"] == 0.0

    def test_result_awaits_predictions(self, trained):
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="thread", flush_every=64
        ) as fleet:
            fleet.register_model("cnn", model)
            request_id = fleet.submit(
                "cnn", dataset.test_images[:3], sla=SLAClass.BEST_EFFORT
            )
            while fleet.dispatch_next() is not None:
                pass
            result = fleet.result(request_id)
            assert np.all(np.asarray(result.predictions) >= 0)

    def test_an_idle_worker_gets_its_dispatch_at_once(self, trained):
        # With no sent group awaiting its completion the worker is idle, so
        # the group leaves the outbox at once instead of waiting for
        # flush_every groups or a drain.
        dataset, model = trained
        with FleetCluster(
            make_nodes(count=2), workers=1, transport="thread", flush_every=64
        ) as fleet:
            fleet.register_model("cnn", model)
            request_id = fleet.submit("cnn", dataset.test_images[:3])
            assert fleet._router.dispatch_next() is not None
            assert fleet._handles[0].outbox == []
            fleet.drain()
            predictions = fleet.result(request_id).predictions
            assert np.array_equal(predictions, model.predict(dataset.test_images[:3]))

    def test_replay_trace_reports_honest_wall_time(self, trained):
        dataset, model = trained
        from repro.cluster.workload import build_image_pool, poisson_trace

        counts = (2, 4)
        trace = poisson_trace(
            requests=24,
            rate_rps=600.0,
            model_ids=("cnn",),
            image_counts=counts,
            seed=4,
        )
        pool = build_image_pool({"cnn": dataset.test_images}, counts)
        with FleetCluster(
            make_nodes(max_batch_size=64), workers=2, transport="thread"
        ) as fleet:
            fleet.register_model("cnn", model)
            stats = fleet.replay_trace(trace, pool, drain_every=8)
            assert stats["completed"] == stats["requests"] == len(trace)
            assert stats["wall_s"] > 0 and stats["requests_per_s"] > 0


# ---------------------------------------------------------------------- #
# Configuration guards
# ---------------------------------------------------------------------- #
class TestFleetConfiguration:
    def test_more_workers_than_nodes_refused(self):
        with pytest.raises(ConfigurationError, match="workers"):
            FleetCluster(make_nodes(count=2), workers=3, transport="thread")

    def test_unknown_transport_refused(self):
        with pytest.raises(ConfigurationError, match="transport"):
            FleetCluster(make_nodes(), workers=2, transport="fork")

    def test_nodes_must_be_specs_or_cluster_nodes(self):
        with pytest.raises(ConfigurationError):
            FleetCluster(["not-a-node"], workers=1, transport="thread")

    def test_specs_accepted_directly(self, trained):
        specs = [node.spec() for node in make_nodes(count=2)]
        with FleetCluster(specs, workers=2, transport="thread") as fleet:
            assert sorted(fleet._shadow_by_id) == ["node-0", "node-1"]

    def test_unexpected_message_is_a_fleet_error(self, trained):
        with FleetCluster(
            make_nodes(count=2), workers=1, transport="thread"
        ) as fleet:
            with pytest.raises(FleetError, match="unexpected fleet message"):
                fleet._handle_message(fleet._handles[0], "bogus")
            # The handler above is a protocol guard, not a worker death.
            assert fleet._handles[0].alive

    def test_read_disturb_nodes_refused_before_workers_start(self):
        # Shadows charge through the exact-charge API, which refuses
        # read-disturb chips; the fleet must say so up front instead of
        # failing its first drain with that lower-level error.
        node = ClusterNode(
            "node-0",
            num_macros=NUM_MACROS,
            config=MacroConfig(inject_read_disturb=True),
        )
        with pytest.raises(ConfigurationError, match="read-disturb"):
            FleetCluster([node], workers=1, transport="thread")

    def test_worker_config_is_picklable(self):
        import pickle

        config = WorkerConfig(
            rank=0, specs=tuple(n.spec() for n in make_nodes(count=1))
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone.rank == 0 and clone.specs[0].node_id == "node-0"


# ---------------------------------------------------------------------- #
# Fused forwards: one golden forward per run of dispatches
# ---------------------------------------------------------------------- #
def spy_predict(monkeypatch, model):
    """Record the image count of every ``predict`` call of the model's class."""
    calls = []
    predict = type(model).predict

    def spy(self, images):
        calls.append(images.shape[0])
        return predict(self, images)

    # Patched on the class: a worker forwards with its own unpickled copy.
    monkeypatch.setattr(type(model), "predict", spy)
    return calls


@pytest.mark.timeout(120)
class TestFusedForwards:
    #: One received batch: the part sizes of each dispatch, with a
    #: second model's registration ending the first run of dispatches.
    SCRIPT = ((3,), (4,), (2, 3), (5,), (1,), "register", (6,), (4,))

    def test_worker_forwards_each_run_of_dispatches_in_slices(self, trained, monkeypatch):
        dataset, model = trained
        specs = tuple(node.spec() for node in make_nodes(count=2, max_batch_size=8))
        images = dataset.train_images
        batch, parts_of, offset = [RegisterModel("cnn", model)], [], 0
        for step in self.SCRIPT:
            if step == "register":
                batch.append(RegisterModel("cnn-2", model))
                continue
            seq, parts = len(parts_of), []
            for size in step:
                parts.append(images[offset : offset + size])
                offset += size
            refs = tuple(
                TensorRef(f"{seq}.{index}", part.shape, "float64", inline=part)
                for index, part in enumerate(parts)
            )
            batch.append(Dispatch(seq, "cnn", refs))
            parts_of.append(parts)
        batch.append(Sync(0))

        forwarded = spy_predict(monkeypatch, model)
        parent, child = multiprocessing.Pipe()
        config = WorkerConfig(rank=0, specs=specs, hard_exit=False)
        worker = threading.Thread(target=worker_main, args=(config, child), daemon=True)
        worker.start()
        try:
            assert parent.poll(30.0) and isinstance(parent.recv()[0], Hello)
            parent.send(batch)
            assert parent.poll(30.0), "the worker never replied"
            replies = parent.recv()
            parent.send([Shutdown()])
        finally:
            worker.join(timeout=10.0)
            parent.close()

        # Each run of dispatches is one forward, cut into slices of at most
        # max_batch_size images (18 images, then 10 after the registration).
        assert forwarded == [8, 8, 2, 8, 2]
        assert sum(forwarded) == offset
        assert [type(reply) for reply in replies] == [Completion] * 7 + [SyncReply]
        assert [reply.seq for reply in replies[:-1]] == list(range(7))
        for completion, parts in zip(replies, parts_of):
            assert len(completion.predictions) == len(parts)
            for predictions, part in zip(completion.predictions, parts):
                assert np.array_equal(predictions, model.predict(part))
        sync = replies[-1]
        assert sync.dispatch_groups == 7
        metrics = sync.metrics["metrics"]
        assert [s["value"] for s in metrics["fleet_worker_forwards_total"]["samples"]] == [5.0]
        assert [s["value"] for s in metrics["fleet_worker_dispatch_groups_total"]["samples"]] == [
            7.0
        ]

    def test_dead_worker_recovers_with_one_forward_per_model(self, trained, monkeypatch):
        dataset, model = trained
        oracle = ClusterRouter(make_nodes(count=2, mixed_vdd=False, max_batch_size=64))
        oracle.register_model("cnn", model)
        oracle_ids = submit_mixed(oracle, dataset.test_images, requests=12, seed=4)
        expected = {r.request_id: r.predictions for r in oracle.drain()}
        oracle.shutdown()
        with FleetCluster(
            make_nodes(count=2, mixed_vdd=False, max_batch_size=64),
            workers=1,
            transport="thread",
        ) as fleet:
            fleet.register_model("cnn", model)
            # Nothing leaves the outbox, so every dispatched group is still
            # in flight when the worker dies.
            monkeypatch.setattr(fleet, "_flush", lambda handle: None)
            ids = submit_mixed(fleet, dataset.test_images, requests=12, seed=4)
            fleet._router.drain()
            handle = fleet._handles[0]
            assert len(handle.inflight) == 12
            while handle.alive and handle.pid is None:  # the worker is up before it dies
                fleet._receive(handle, timeout=0.2)
            images = sum(
                target.shape[0]
                for group in handle.inflight.values()
                for target in group.pending.targets
            )
            forwarded = spy_predict(monkeypatch, model)
            fleet._worker_died(handle)
            assert forwarded == [images]
            assert fleet.locally_recovered == 12
            assert not handle.inflight and not fleet._pending_predictions
            for ours, theirs in zip(ids, oracle_ids):
                assert np.array_equal(fleet.result(ours).predictions, expected[theirs])


# ---------------------------------------------------------------------- #
# Worker crash mid-batch: conservation under both recovery paths
# ---------------------------------------------------------------------- #
@pytest.mark.timeout(120)
class TestWorkerCrash:
    def test_thread_crash_mid_batch_conserves_requests(self, trained, tmp_path):
        dataset, model = trained
        # flush_every=1 + a tight in-flight window makes the coordinator
        # notice the death while backlog is still queued — so both
        # recovery paths run: local fills for unacked in-flight groups,
        # router backlog replay (replayed=True) for queued requests.
        with FleetCluster(
            make_nodes(mixed_vdd=False),
            workers=2,
            transport="thread",
            crash_after={1: 3},
            flush_every=1,
            max_inflight=2,
            log_dir=str(tmp_path),
        ) as fleet:
            fleet.register_model("cnn", model)
            ids = submit_mixed(fleet, dataset.test_images, requests=40, seed=5)
            results = fleet.drain()
            assert len(results) == len(ids)  # no request lost or duplicated
            assert sorted(r.request_id for r in results) == sorted(ids)
            assert fleet.worker_crashes == 1
            assert fleet.live_workers == [0]
            assert any(r.replayed for r in results)
            assert fleet.locally_recovered > 0
            for result in results:
                assert np.all(np.asarray(result.predictions) >= 0)
            report = fleet.sync()
            assert report["live_workers"] == [0]
            assert report["audited_nodes"] == 2  # survivors only
            log = (tmp_path / "fleet-worker-1.log").read_text()
            assert "crash drill" in log

    def test_all_workers_dead_strands_backlog_like_all_nodes_crashed(
        self, trained
    ):
        dataset, model = trained
        with FleetCluster(
            make_nodes(count=2, mixed_vdd=False),
            workers=2,
            transport="thread",
            crash_after={0: 0, 1: 0},
            flush_every=1,
            max_inflight=1,
        ) as fleet:
            fleet.register_model("cnn", model)
            ids = submit_mixed(fleet, dataset.test_images, requests=6, seed=2)
            results = fleet.drain()
            assert fleet.live_workers == []
            # Every dead worker fails its shadow nodes, so with nobody
            # left the un-dispatched backlog strands — exactly the
            # single-process router's all-nodes-crashed semantics.  What
            # *was* dispatched before the deaths is recovered locally
            # with real predictions; nothing is silently dropped.
            assert 0 < len(results) < len(ids)
            assert fleet.locally_recovered > 0
            assert fleet.queue_depth() == len(ids) - len(results)
            for result in results:
                assert np.all(np.asarray(result.predictions) >= 0)

    def test_worker_exits_quietly_when_the_coordinator_closed_the_pipe(
        self, tmp_path, monkeypatch
    ):
        # A coordinator that declared the worker dead closes its end before
        # reading the worker's Hello; the worker must log and return, not
        # die on the Hello's send.
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        parent, child = multiprocessing.Pipe()
        parent.close()
        log_path = tmp_path / "worker.log"
        config = WorkerConfig(
            rank=0,
            specs=tuple(node.spec() for node in make_nodes(count=1)),
            log_path=str(log_path),
            hard_exit=False,
        )
        worker = threading.Thread(target=worker_main, args=(config, child), daemon=True)
        worker.start()
        worker.join(timeout=30.0)
        child.close()
        assert not worker.is_alive()
        assert escaped == []
        assert "pipe closed; exiting" in log_path.read_text()

    def test_worker_closes_its_log_file_on_the_way_out(self, tmp_path):
        parent, child = multiprocessing.Pipe()
        parent.close()
        config = WorkerConfig(
            rank=0,
            specs=tuple(node.spec() for node in make_nodes(count=1)),
            log_path=str(tmp_path / "worker.log"),
            hard_exit=False,
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            worker_main(config, child)
            gc.collect()
        child.close()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_crashed_fleet_predictions_match_oracle(self, trained):
        dataset, model = trained
        oracle_nodes = make_nodes(mixed_vdd=False)
        oracle = ClusterRouter(oracle_nodes)
        oracle.register_model("cnn", model)
        ids = submit_mixed(oracle, dataset.test_images, requests=20, seed=9)
        by_id = {r.request_id: r for r in oracle.drain()}
        with FleetCluster(
            make_nodes(mixed_vdd=False),
            workers=2,
            transport="thread",
            crash_after={1: 2},
            flush_every=1,
            max_inflight=2,
        ) as fleet:
            fleet.register_model("cnn", model)
            submit_mixed(fleet, dataset.test_images, requests=20, seed=9)
            results = fleet.drain()
            assert fleet.worker_crashes == 1
            # Timing (and so ledgers) legitimately differ once nodes fail
            # mid-run, but every prediction — locally recovered, replayed
            # or worker-served — must still be the model's exact output.
            for result in results:
                assert np.array_equal(
                    result.predictions, by_id[result.request_id].predictions
                )
        oracle.shutdown()


# ---------------------------------------------------------------------- #
# Delivery audit: a tampered pipe raises instead of going unnoticed
# ---------------------------------------------------------------------- #
class TamperedPipe:
    """The coordinator's end of a worker pipe, rewriting one message.

    The first message of type ``kind`` that is sent (``outgoing``) or
    received is replaced by the messages ``edit(message)`` returns.
    """

    def __init__(self, conn, kind, edit, outgoing):
        self._conn, self._kind, self._edit, self._outgoing = conn, kind, edit, outgoing
        self._done = False

    def _rewrite(self, batch):
        rewritten = []
        for message in batch:
            if not self._done and isinstance(message, self._kind):
                self._done = True
                rewritten.extend(self._edit(message))
            else:
                rewritten.append(message)
        return rewritten

    def send(self, batch):
        self._conn.send(self._rewrite(batch) if self._outgoing else batch)

    def recv(self):
        batch = self._conn.recv()
        return batch if self._outgoing else self._rewrite(batch)

    def poll(self, timeout=0.0):
        return self._conn.poll(timeout)

    def close(self):
        self._conn.close()


@pytest.mark.timeout(120)
class TestDeliveryAudit:
    @staticmethod
    def _fleet(kind, edit, outgoing=True, **kwargs):
        fleet = FleetCluster(make_nodes(count=2), workers=1, transport="thread", **kwargs)
        handle = fleet._handles[0]
        handle.conn = TamperedPipe(handle.conn, kind, edit, outgoing)
        return fleet

    def test_a_duplicated_dispatch_is_a_fidelity_error(self, trained):
        dataset, model = trained
        with self._fleet(Dispatch, lambda message: [message, message]) as fleet:
            fleet.register_model("cnn", model)
            fleet.submit("cnn", dataset.test_images[:3])
            with pytest.raises(FleetFidelityError, match="not in flight"):
                fleet.drain()
                fleet.sync()

    def test_a_completion_for_a_seq_not_in_flight_is_a_fidelity_error(self, trained):
        dataset, model = trained

        def stray(message):
            return [message, Completion(message.seq + 100, message.predictions)]

        with self._fleet(Completion, stray, outgoing=False) as fleet:
            fleet.register_model("cnn", model)
            fleet.submit("cnn", dataset.test_images[:3])
            with pytest.raises(FleetFidelityError, match="seq 100, which is not in flight"):
                fleet.drain()
                fleet.sync()

    @pytest.mark.parametrize(
        "edit",
        [
            lambda predictions: predictions[:-1],
            lambda predictions: (predictions[0][:-1],) + predictions[1:],
        ],
        ids=["missing_part", "short_part"],
    )
    def test_a_completion_missing_predictions_is_a_fidelity_error(self, trained, edit):
        # Without the check the placeholders would keep their -1 sentinels.
        dataset, model = trained

        def truncate(message):
            return [Completion(message.seq, edit(message.predictions))]

        with self._fleet(Completion, truncate, outgoing=False, coalesce=True) as fleet:
            fleet.register_model("cnn", model)
            fleet.submit("cnn", dataset.test_images[:3], sla=SLAClass.BEST_EFFORT)
            fleet.submit("cnn", dataset.test_images[3:5], sla=SLAClass.BEST_EFFORT)
            with pytest.raises(FleetFidelityError, match="prediction shapes"):
                fleet.drain()
                fleet.sync()

    def test_a_dropped_dispatch_fails_the_barrier(self, trained):
        dataset, model = trained
        with self._fleet(Dispatch, lambda message: [], barrier_timeout_s=1.0) as fleet:
            fleet.register_model("cnn", model)
            fleet.submit("cnn", dataset.test_images[:3])
            fleet._router.drain()
            started = time.monotonic()
            with pytest.raises(FleetError, match="in-flight"):
                fleet.sync()
            assert time.monotonic() - started < 10.0

    def test_a_dropped_registration_is_a_fleet_error(self, trained, monkeypatch):
        dataset, model = trained
        escaped = []
        monkeypatch.setattr(threading, "excepthook", escaped.append)
        with self._fleet(RegisterModel, lambda message: []) as fleet:
            fleet.register_model("cnn", model)
            request_id = fleet.submit("cnn", dataset.test_images[:3])
            with pytest.raises(FleetError, match="worker 0 failed"):
                fleet.drain()
            fleet._handles[0].runner.join(timeout=10.0)
            # The group the worker could not forward is recovered locally.
            predictions = fleet.result(request_id).predictions
            assert np.array_equal(predictions, model.predict(dataset.test_images[:3]))
        assert [args.exc_type for args in escaped] == [KeyError]


# ---------------------------------------------------------------------- #
# Spawn transport: real processes, real shared memory
# ---------------------------------------------------------------------- #
@pytest.mark.timeout(300)
class TestSpawnTransport:
    def test_spawn_fleet_matches_oracle(self, trained):
        dataset, model = trained
        with FleetCluster(
            make_nodes(), workers=2, transport="spawn"
        ) as fleet:
            fleet.register_model("cnn", model)
            oracle = ClusterRouter(make_nodes())
            oracle.register_model("cnn", model)
            assert_matches_oracle(
                fleet, oracle, dataset.test_images, requests=20
            )
            report = fleet.sync()
            assert report["live_workers"] == [0, 1]
            assert fleet.worker_crashes == 0
            oracle.shutdown()

    def test_spawn_worker_hard_crash_conserves_requests(self, trained, tmp_path):
        dataset, model = trained
        with FleetCluster(
            make_nodes(mixed_vdd=False),
            workers=2,
            transport="spawn",
            crash_after={1: 2},
            flush_every=1,
            max_inflight=2,
            log_dir=str(tmp_path),
        ) as fleet:
            fleet.register_model("cnn", model)
            ids = submit_mixed(fleet, dataset.test_images, requests=24, seed=5)
            results = fleet.drain()
            assert len(results) == len(ids)
            assert fleet.worker_crashes == 1
            assert fleet.live_workers == [0]
            for result in results:
                assert np.all(np.asarray(result.predictions) >= 0)
            assert "crash drill" in (
                tmp_path / "fleet-worker-1.log"
            ).read_text()
