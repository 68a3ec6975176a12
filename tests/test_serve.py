"""Tests for the batched inference server (repro.serve)."""

import threading

import numpy as np
import pytest

from repro.dnn import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.serve import InferenceServer

NUM_MACROS = 8


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=120, size=8)
    cnn, _ = train_pattern_cnn(dataset, epochs=8)
    return dataset, cnn


def _server(cnn, **kwargs) -> InferenceServer:
    kwargs.setdefault("num_macros", NUM_MACROS)
    return InferenceServer(cnn, **kwargs)


class TestSubmitDrain:
    def test_predictions_bit_exact_vs_reference_backend(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=16)
        reference = cnn.predict(dataset.test_images[:20])
        first = server.submit(dataset.test_images[:12])
        second = server.submit(dataset.test_images[12:20])
        completed = server.drain()
        assert {r.request_id for r in completed} == {first, second}
        assert np.array_equal(server.result(first).predictions, reference[:12])
        assert np.array_equal(server.result(second).predictions, reference[12:20])

    def test_requests_are_coalesced_into_batches(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=16)
        for start in range(0, 16, 4):
            server.submit(dataset.test_images[start : start + 4])
        server.drain()
        assert len(server.batches) == 1
        assert server.batches[0].images == 16
        assert len(server.batches[0].request_ids) == 4

    def test_large_request_is_split_across_batches(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=8)
        request = server.submit(dataset.test_images[:20])
        server.drain()
        result = server.result(request)
        assert result.predictions.shape == (20,)
        assert len(result.batch_indices) == 3  # 8 + 8 + 4
        assert [batch.images for batch in server.batches] == [8, 8, 4]

    def test_predict_serves_backlog_in_arrival_order(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=32)
        reference = cnn.predict(dataset.test_images[:6])
        queued = server.submit(dataset.test_images[:4])
        direct = server.predict(dataset.test_images[4:6])
        assert np.array_equal(direct, reference[4:6])
        assert np.array_equal(server.result(queued).predictions, reference[:4])

    def test_result_of_pending_request_raises(self, trained):
        dataset, cnn = trained
        server = _server(cnn)
        request = server.submit(dataset.test_images[:2])
        with pytest.raises(ConfigurationError):
            server.result(request)

    def test_rejects_bad_requests(self, trained):
        _, cnn = trained
        server = _server(cnn)
        with pytest.raises(ConfigurationError):
            server.submit(np.zeros((0, 1, 8, 8)))
        with pytest.raises(ConfigurationError):
            server.submit(np.zeros((4, 8, 8)))
        with pytest.raises(ConfigurationError):
            InferenceServer(cnn, max_batch_size=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_images_before_they_join_a_batch(self, trained, bad):
        dataset, cnn = trained
        server = _server(cnn)
        good = dataset.test_images[:8]
        poisoned = dataset.test_images[8:9].copy()
        poisoned[0, 0, 2, 5] = bad
        request = server.submit(good)
        with pytest.raises(ConfigurationError, match="finite"):
            server.submit(poisoned)
        server.drain()
        assert np.array_equal(server.result(request).predictions, cnn.predict(good))


class TestAccounting:
    def test_latency_and_queue_delay_recorded(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=8)
        server.submit(dataset.test_images[:4])
        (result,) = server.drain()
        assert result.latency_s > 0
        assert 0 <= result.queue_delay_s <= result.latency_s

    def test_report_aggregates(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=8)
        for start in range(0, 24, 6):
            server.submit(dataset.test_images[start : start + 6])
        server.drain()
        report = server.report()
        assert report.requests == 4
        assert report.images == 24
        assert report.batches == 3
        assert report.mean_batch_size == 8.0
        assert report.throughput_images_per_s > 0
        assert report.total_cycles > 0
        assert report.modeled_chip_time_s > 0
        assert 0 < report.mean_utilization <= 1.0

    def test_weights_stay_stationary_across_batches(self, trained):
        dataset, cnn = trained
        # 16 macros provide enough programmable rows for the whole network
        # (the 144x16 head alone occupies 1152 array rows at 8-bit).
        server = _server(cnn, max_batch_size=4, num_macros=16)
        for start in range(0, 12, 4):
            server.submit(dataset.test_images[start : start + 4])
        server.drain()
        # conv + two head layers: programmed once, hit on every later batch.
        assert server.engine.cache.misses == 3
        assert server.engine.cache.hits == 2 * 3
        assert server.report().cache_evictions == 0

    def test_chip_utilization_uses_all_macros(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=16)
        server.submit(dataset.test_images[:16])
        server.drain()
        busy = [
            stats.total_cycles
            for stats in server.engine.chip.per_macro_statistics()
        ]
        assert sum(1 for cycles in busy if cycles > 0) > 1


class TestConcurrency:
    def test_concurrent_submissions_all_served(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=8)
        reference = cnn.predict(dataset.test_images[:20])
        ids = {}
        lock = threading.Lock()

        def client(index):
            request = server.submit(dataset.test_images[index * 4 : index * 4 + 4])
            with lock:
                ids[index] = request

        threads = [threading.Thread(target=client, args=(i,)) for i in range(5)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        server.drain()
        for index, request in ids.items():
            assert np.array_equal(
                server.result(request).predictions,
                reference[index * 4 : index * 4 + 4],
            )

    def test_worker_waits_out_the_budget_instead_of_flushing_partials(self, trained):
        import time

        dataset, cnn = trained
        server = _server(cnn, max_batch_size=100, max_wait_s=0.25)
        server.start()
        # Trickle three submits well inside the wait budget: each wakeup
        # must re-evaluate the dispatch rule, not flush a partial batch.
        for start in range(0, 9, 3):
            server.submit(dataset.test_images[start : start + 3])
            time.sleep(0.02)
        deadline = time.perf_counter() + 2.0
        while not server.batches and time.perf_counter() < deadline:
            time.sleep(0.01)
        server.stop()
        assert len(server.batches) == 1
        assert server.batches[0].images == 9

    def test_background_worker_serves_and_stops(self, trained):
        dataset, cnn = trained
        server = _server(cnn, max_batch_size=8, max_wait_s=0.01)
        server.start()
        with pytest.raises(ConfigurationError):
            server.start()  # already running
        requests = [
            server.submit(dataset.test_images[start : start + 3])
            for start in range(0, 12, 3)
        ]
        server.stop()  # drains the queue before joining
        reference = cnn.predict(dataset.test_images[:12])
        for index, request in enumerate(requests):
            assert np.array_equal(
                server.result(request).predictions,
                reference[index * 3 : index * 3 + 3],
            )
        server.stop()  # idempotent


class _ExplodingModel:
    """A model whose forward pass fails when any pixel is negative."""

    def with_backend(self, matmul):
        return self

    def predict(self, images):
        if float(np.min(images)) < 0:
            raise RuntimeError("boom")
        return np.zeros(images.shape[0], dtype=np.int64)


def _flaky_server(**kwargs):
    kwargs.setdefault("num_macros", 1)
    return InferenceServer(_ExplodingModel(), **kwargs)


def _await_outcome(server, request_id, timeout_s=5.0):
    """Poll until a request completes or fails; returns ('ok'|exc)."""
    import time

    deadline = time.perf_counter() + timeout_s
    while time.perf_counter() < deadline:
        try:
            server.result(request_id)
        except ConfigurationError:
            time.sleep(0.01)
            continue
        except Exception as error:  # noqa: BLE001 - the stored failure
            return error
        return "ok"
    raise AssertionError(f"request {request_id} neither completed nor failed")


GOOD = np.ones((2, 1, 4, 4))
BAD = -np.ones((2, 1, 4, 4))


class TestLifecycle:
    def test_context_manager_starts_and_stops_worker(self, trained):
        dataset, cnn = trained
        with _server(cnn, max_batch_size=8, max_wait_s=0.0) as server:
            assert server._worker is not None and server._worker.is_alive()
            request = server.submit(dataset.test_images[:3])
            assert _await_outcome(server, request) == "ok"
        assert server._worker is None  # __exit__ stopped the worker
        reference = cnn.predict(dataset.test_images[:3])
        assert np.array_equal(server.result(request).predictions, reference)

    def test_context_manager_drains_backlog_on_exit(self, trained):
        dataset, cnn = trained
        with _server(cnn, max_batch_size=4, max_wait_s=10.0) as server:
            requests = [
                server.submit(dataset.test_images[start : start + 2])
                for start in range(0, 6, 2)
            ]
        # stop() drains before joining: everything submitted is complete.
        for request in requests:
            assert server.result(request).predictions.shape == (2,)

    def test_stop_is_idempotent_in_every_state(self, trained):
        _, cnn = trained
        server = _server(cnn)
        server.stop()  # never started
        server.stop()
        server.start()
        server.stop()
        server.stop()  # already stopped
        server.start()  # restartable after stop
        server.stop()

    def test_reentry_after_exit_restarts_worker(self, trained):
        _, cnn = trained
        server = _server(cnn, max_wait_s=0.0)
        with server:
            pass
        with server:
            assert server._worker is not None and server._worker.is_alive()
        assert server._worker is None


class TestWorkerFailurePropagation:
    def test_sync_drain_propagates_and_stores_failure(self):
        server = _flaky_server()
        request = server.submit(BAD)
        with pytest.raises(RuntimeError, match="boom"):
            server.drain()
        # The failure is stored on the request and re-raised on inspection.
        with pytest.raises(RuntimeError, match="boom"):
            server.result(request)
        assert server.pending_images == 0

    def test_predict_reraises_model_failure(self):
        server = _flaky_server()
        with pytest.raises(RuntimeError, match="boom"):
            server.predict(BAD)

    def test_worker_failure_reaches_submitting_client(self):
        server = _flaky_server(max_wait_s=0.0)
        with server:
            request = server.submit(BAD)
            error = _await_outcome(server, request)
        assert isinstance(error, RuntimeError)
        with pytest.raises(RuntimeError, match="boom"):
            server.result(request)

    def test_worker_survives_a_failed_batch(self):
        server = _flaky_server(max_wait_s=0.0)
        with server:
            bad = server.submit(BAD)
            assert isinstance(_await_outcome(server, bad), RuntimeError)
            assert server._worker.is_alive()
            good = server.submit(GOOD)
            assert _await_outcome(server, good) == "ok"
        assert np.array_equal(server.result(good).predictions, np.zeros(2))

    def test_coalescing_failure_before_predict_still_lands_on_requests(self):
        # Incompatible image shapes fail in np.concatenate, *before* the
        # model runs; the failure must reach both requests instead of
        # stranding them consumed-but-never-completed.  The synchronous
        # drain coalesces both queued requests into one batch
        # deterministically (no worker timing involved).
        server = _flaky_server()
        first = server.submit(np.ones((2, 1, 4, 4)))
        second = server.submit(np.ones((2, 1, 8, 8)))
        with pytest.raises(ValueError):
            server.drain()
        for request in (first, second):
            with pytest.raises(ValueError):
                server.result(request)
        assert server.pending_images == 0

    def test_split_request_failure_clears_queue_state(self):
        # Batch 1 (4 images) fails; the request's remaining images must not
        # linger in the queue as an undead half-request.
        server = _flaky_server(max_batch_size=4)
        request = server.submit(-np.ones((6, 1, 4, 4)))
        with pytest.raises(RuntimeError):
            server.drain()
        assert server.pending_images == 0
        with pytest.raises(RuntimeError):
            server.result(request)
