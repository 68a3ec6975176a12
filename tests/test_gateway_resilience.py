"""Revision-3 resilience surface: deadlines, cancellation, breaker, journal.

Covers the end-to-end hardening added on top of the base gateway:

* deadline budgets — client-side local expiry, server-side shedding at
  admission and at dispatch, the ``shed`` error code;
* CANCEL unwinding queued work and HEALTH reporting live/ready/draining;
* per-connection idle timeouts that spare connections with outstanding
  work;
* the client circuit breaker (closed/open/half-open on an injectable
  clock) and the total retry time budget;
* hedged re-sends of idempotent ``images_ref`` requests (async client);
* the crash-safe admission journal — unit semantics, torn-line-tolerant
  recovery, the CLI, and the supervised-restart drill built on
  :meth:`ThreadedGateway.kill`.
"""

import asyncio
import json
import random
import socket
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.gateway import (
    AdmissionJournal,
    AsyncGatewayClient,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExpiredError,
    FrameDecoder,
    FrameType,
    GatewayClient,
    GatewayRequestError,
    GatewayShedError,
    RetryBudgetExceeded,
    ThreadedGateway,
    encode_frame,
    encode_images,
)
from repro.gateway.journal import TERMINAL_STATUSES
from repro.reliability import FaultEvent, FaultKind, FaultPlan


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=60, size=8, seed=13)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=13
    )
    return dataset, cnn


def make_router(cnn, nodes=1):
    memo = ForwardMemo()
    fleet = [
        ClusterNode(
            f"n{index}",
            vdd=1.0,
            num_macros=4,
            max_batch_size=256,
            execution_mode=ExecutionMode.ANALYTIC,
            forward_memo=memo,
        )
        for index in range(nodes)
    ]
    router = ClusterRouter(fleet, coalesce=True)
    router.register_model("cnn", cnn)
    return router


@pytest.fixture()
def gateway(trained):
    _, cnn = trained
    router = make_router(cnn)
    gw = ThreadedGateway(router, max_queue=64, min_retry_after_s=1e-6)
    gw.start()
    yield gw
    gw.stop()
    router.shutdown()


def recv_frames(sock, count, decoder=None):
    decoder = decoder or FrameDecoder()
    frames = []
    while len(frames) < count:
        chunk = sock.recv(65536)
        assert chunk, "stream closed early"
        frames.extend(decoder.feed(chunk))
    return frames


def wait_until(predicate, timeout_s=10.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# --------------------------------------------------------------------- #
# Circuit breaker (unit)
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_timeout_s=0.0)

    def test_trips_after_threshold_and_recovers_via_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_timeout_s=5.0, clock=clock
        )
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()
        assert breaker.retry_in_s() == pytest.approx(5.0)
        clock.advance(5.1)
        # One probe slot: first allow() claims it, concurrent callers wait.
        assert breaker.allow()
        assert breaker.state == "half_open"
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_failure_reopens_with_fresh_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=2.0, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        assert not breaker.allow()
        assert breaker.retry_in_s() == pytest.approx(2.0)

    def test_success_resets_consecutive_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout_s=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"


# --------------------------------------------------------------------- #
# Circuit breaker + retry budget (integration)
# --------------------------------------------------------------------- #
class TestClientHardening:
    def test_breaker_opens_on_dead_endpoint_and_fails_fast(self, trained):
        dataset, _ = trained
        # Grab a port that is definitely closed.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout_s=30.0, clock=clock
        )
        client = GatewayClient(
            "127.0.0.1", dead_port, retries=0, timeout_s=0.5, breaker=breaker
        )
        for _ in range(2):
            with pytest.raises(Exception):
                client.ping()
        assert breaker.state == "open"
        # Third call never touches the socket: CircuitOpenError, instantly.
        with pytest.raises(CircuitOpenError) as info:
            client.ping()
        assert info.value.retry_in_s == pytest.approx(30.0)
        assert client.counters["breaker_rejections"] == 1
        assert client.counters["transport_errors"] == 2
        client.close()

    def test_breaker_closes_again_after_successful_probe(self, gateway, trained):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout_s=1.0, clock=clock
        )
        breaker.record_failure()  # pretend the endpoint just died
        client = GatewayClient(
            gateway.server.host, gateway.server.port, breaker=breaker
        )
        with pytest.raises(CircuitOpenError):
            client.ping()
        clock.advance(1.5)
        assert client.ping() >= 0  # half-open probe succeeds
        assert breaker.state == "closed"
        client.close()

    def test_retry_budget_exhaustion_raises(self, gateway, trained):
        dataset, _ = trained
        gateway.server.pause_dispatch()
        try:
            # Saturate the queue so further requests get BUSY.
            sock = socket.create_connection(
                (gateway.server.host, gateway.server.port)
            )
            for index in range(gateway.server.max_queue):
                sock.sendall(
                    encode_frame(
                        FrameType.REQUEST,
                        {
                            "id": index,
                            "model_id": "cnn",
                            "images": encode_images(dataset.test_images[:1]),
                        },
                    )
                )
            assert wait_until(
                lambda: gateway.server.snapshot()["queue_depth"] >= gateway.server.max_queue
            )
            client = GatewayClient(
                gateway.server.host,
                gateway.server.port,
                retries=50,
                backoff_base_s=0.01,
                retry_budget_s=0.05,
                rng=random.Random(0),
            )
            started = time.monotonic()
            with pytest.raises(RetryBudgetExceeded):
                client.predict("cnn", dataset.test_images[:1])
            # The budget caps wall time well below 50 full retries.
            assert time.monotonic() - started < 5.0
            assert client.counters["busy_retries"] >= 1
            client.close()
            sock.close()
        finally:
            gateway.server.resume_dispatch()

    def test_counters_track_successful_traffic(self, gateway, trained):
        dataset, cnn = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            client.predict("cnn", dataset.test_images[:1])
            assert client.counters["requests"] == 1
            assert client.counters["transport_errors"] == 0
            assert client.counters["shed"] == 0


# --------------------------------------------------------------------- #
# Deadline budgets and shedding
# --------------------------------------------------------------------- #
class TestDeadlineBudgets:
    def test_expired_budget_fails_locally_without_touching_the_wire(
        self, gateway, trained
    ):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            with pytest.raises(DeadlineExpiredError):
                client.predict("cnn", dataset.test_images[:1], budget_s=0.0)
            assert client.counters["expired_local"] == 1
        assert gateway.server.snapshot()["requests_received"] == 0

    def test_server_sheds_zero_budget_at_admission(self, gateway, trained):
        dataset, _ = trained
        sock = socket.create_connection(
            (gateway.server.host, gateway.server.port)
        )
        sock.sendall(
            encode_frame(
                FrameType.REQUEST,
                {
                    "id": 1,
                    "model_id": "cnn",
                    "images": encode_images(dataset.test_images[:1]),
                    "budget_s": 0.0,
                },
            )
        )
        frames = recv_frames(sock, 1)
        sock.close()
        frame_type, payload = frames[0]
        assert frame_type is FrameType.ERROR
        assert payload["code"] == "shed"
        assert gateway.server.snapshot()["shed_sent"] == 1

    def test_server_sheds_expired_work_at_dispatch(self, gateway, trained):
        dataset, _ = trained
        gateway.server.pause_dispatch()
        sock = socket.create_connection(
            (gateway.server.host, gateway.server.port)
        )
        sock.sendall(
            encode_frame(
                FrameType.REQUEST,
                {
                    "id": 7,
                    "model_id": "cnn",
                    "images": encode_images(dataset.test_images[:1]),
                    "budget_s": 0.05,
                },
            )
        )
        assert wait_until(lambda: gateway.server.snapshot()["queue_depth"] == 1)
        time.sleep(0.1)  # let the budget expire while queued
        gateway.server.resume_dispatch()
        frames = recv_frames(sock, 1)
        sock.close()
        frame_type, payload = frames[0]
        assert frame_type is FrameType.ERROR
        assert payload["code"] == "shed"
        assert "while queued" in payload["message"]

    def test_client_maps_shed_to_typed_error(self, gateway, trained):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            # A tiny-but-positive budget passes the local check, then the
            # server sheds it (admission races dispatch; either side may
            # win, both surface as typed deadline failures).
            with pytest.raises((GatewayShedError, DeadlineExpiredError)):
                client.predict("cnn", dataset.test_images[:1], budget_s=1e-7)

    def test_budget_validation_rejects_nan_and_bool(self, gateway):
        for bad in (float("nan"), True, "soon"):
            sock = socket.create_connection(
                (gateway.server.host, gateway.server.port)
            )
            sock.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    {"id": 1, "model_id": "cnn", "budget_s": bad},
                )
            )
            frames = recv_frames(sock, 1)
            sock.close()
            frame_type, payload = frames[0]
            assert frame_type is FrameType.ERROR
            assert payload["code"] == "bad_request"
            assert "budget_s" in payload["message"]

    def test_generous_budget_is_transparent(self, gateway, trained):
        dataset, cnn = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            result = client.predict(
                "cnn", dataset.test_images[:2], budget_s=30.0
            )
            assert np.array_equal(
                result.predictions, cnn.predict(dataset.test_images[:2])
            )


# --------------------------------------------------------------------- #
# CANCEL and HEALTH
# --------------------------------------------------------------------- #
class TestCancelAndHealth:
    def test_cancel_unwinds_queued_request(self, gateway, trained):
        dataset, _ = trained
        gateway.server.pause_dispatch()
        sock = socket.create_connection(
            (gateway.server.host, gateway.server.port)
        )
        sock.sendall(
            encode_frame(
                FrameType.REQUEST,
                {
                    "id": 5,
                    "model_id": "cnn",
                    "images": encode_images(dataset.test_images[:1]),
                },
            )
        )
        assert wait_until(lambda: gateway.server.snapshot()["queue_depth"] == 1)
        sock.sendall(
            encode_frame(FrameType.CANCEL, {"id": 6, "target_id": 5})
        )
        frames = recv_frames(sock, 2)
        gateway.server.resume_dispatch()
        by_type = {frame_type: payload for frame_type, payload in frames}
        assert by_type[FrameType.CANCEL] == {
            "id": 6,
            "target_id": 5,
            "cancelled": True,
        }
        assert by_type[FrameType.ERROR]["id"] == 5
        assert by_type[FrameType.ERROR]["code"] == "cancelled"
        assert gateway.server.snapshot()["queue_depth"] == 0
        stats = gateway.server.snapshot()
        assert stats["cancels_received"] == 1
        assert stats["requests_cancelled"] == 1
        # Definitely never executed.
        time.sleep(0.05)
        assert gateway.server.snapshot()["responses_sent"] == 0
        sock.close()

    def test_cancel_cannot_reach_other_connections(self, gateway, trained):
        dataset, _ = trained
        gateway.server.pause_dispatch()
        victim = socket.create_connection(
            (gateway.server.host, gateway.server.port)
        )
        attacker = socket.create_connection(
            (gateway.server.host, gateway.server.port)
        )
        victim.sendall(
            encode_frame(
                FrameType.REQUEST,
                {
                    "id": 9,
                    "model_id": "cnn",
                    "images": encode_images(dataset.test_images[:1]),
                },
            )
        )
        assert wait_until(lambda: gateway.server.snapshot()["queue_depth"] == 1)
        attacker.sendall(
            encode_frame(FrameType.CANCEL, {"id": 1, "target_id": 9})
        )
        frames = recv_frames(attacker, 1)
        assert frames[0][1]["cancelled"] is False
        assert gateway.server.snapshot()["queue_depth"] == 1
        gateway.server.resume_dispatch()
        reply = recv_frames(victim, 1)[0]
        assert reply[0] is FrameType.RESPONSE  # victim still served
        victim.close()
        attacker.close()

    def test_health_reports_ready_then_draining(self, trained):
        _, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=64)
        gw.start()
        try:
            with GatewayClient(gw.server.host, gw.server.port) as client:
                reply = client.health()
                assert reply["state"] == "ready"
                assert reply["queue_depth"] == 0
                assert reply["queue_limit"] == 64
                assert reply["draining"] is False
            assert gw.server.snapshot()["health_checks"] == 1
        finally:
            gw.stop()
            router.shutdown()

    def test_health_reports_live_when_paused(self, gateway):
        gateway.server.pause_dispatch()
        try:
            with GatewayClient(
                gateway.server.host, gateway.server.port
            ) as client:
                assert client.health()["state"] == "live"
        finally:
            gateway.server.resume_dispatch()


# --------------------------------------------------------------------- #
# Idle timeout
# --------------------------------------------------------------------- #
class TestIdleTimeout:
    def test_idle_connection_is_closed_with_a_courtesy_error(self, trained):
        _, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=64, idle_timeout_s=0.15)
        gw.start()
        try:
            sock = socket.create_connection((gw.server.host, gw.server.port))
            frames = recv_frames(sock, 1)  # blocks until the timeout fires
            assert frames[0][0] is FrameType.ERROR
            assert frames[0][1]["code"] == "idle_timeout"
            assert sock.recv(65536) == b""  # then the server closes
            sock.close()
            assert gw.server.snapshot()["idle_timeouts"] == 1
        finally:
            gw.stop()
            router.shutdown()

    def test_outstanding_work_spares_the_connection(self, trained):
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(
            router, max_queue=64, idle_timeout_s=0.1
        )
        gw.start()
        try:
            gw.server.pause_dispatch()
            sock = socket.create_connection((gw.server.host, gw.server.port))
            sock.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": 1,
                        "model_id": "cnn",
                        "images": encode_images(dataset.test_images[:1]),
                    },
                )
            )
            assert wait_until(lambda: gw.server.snapshot()["queue_depth"] == 1)
            # Several timeout periods pass; the pending request keeps the
            # connection alive.
            time.sleep(0.35)
            assert gw.server.snapshot()["idle_timeouts"] == 0
            gw.server.resume_dispatch()
            reply = recv_frames(sock, 1)[0]
            assert reply[0] is FrameType.RESPONSE
            sock.close()
        finally:
            gw.stop()
            router.shutdown()

    def test_invalid_idle_timeout_rejected(self, trained):
        _, cnn = trained
        router = make_router(cnn)
        try:
            from repro.gateway.server import GatewayServer

            with pytest.raises(ConfigurationError):
                GatewayServer(router, idle_timeout_s=0.0)
        finally:
            router.shutdown()


# --------------------------------------------------------------------- #
# Hedging (async client)
# --------------------------------------------------------------------- #
class TestHedging:
    def test_hedged_ref_request_wins_and_both_counters_move(
        self, gateway, trained
    ):
        dataset, cnn = trained

        async def scenario():
            async with AsyncGatewayClient(
                gateway.server.host, gateway.server.port
            ) as client:
                # Prime the digest cache with a full upload (never hedged).
                first = await client.predict("cnn", dataset.test_images[:1])
                # Stall dispatch so the primary send sits long enough for
                # the hedge timer to fire, then release.
                gateway.server.pause_dispatch()
                task = asyncio.ensure_future(
                    client.predict(
                        "cnn", dataset.test_images[:1], hedge_after_s=0.05
                    )
                )
                await asyncio.sleep(0.2)
                gateway.server.resume_dispatch()
                second = await task
                return first, second, client.hedges_sent, client.hedge_wins

        first, second, hedges_sent, hedge_wins = asyncio.run(scenario())
        assert np.array_equal(first.predictions, second.predictions)
        assert hedges_sent == 1
        assert hedge_wins in (0, 1)  # either copy may win the race

    def test_fast_replies_never_hedge(self, gateway, trained):
        dataset, _ = trained

        async def scenario():
            async with AsyncGatewayClient(
                gateway.server.host, gateway.server.port
            ) as client:
                await client.predict("cnn", dataset.test_images[:1])
                await client.predict(
                    "cnn", dataset.test_images[:1], hedge_after_s=5.0
                )
                return client.hedges_sent

        assert asyncio.run(scenario()) == 0

    def test_async_cancel_roundtrip(self, gateway):
        async def scenario():
            async with AsyncGatewayClient(
                gateway.server.host, gateway.server.port
            ) as client:
                # Nothing queued under this id: a truthful False ack.
                assert await client.cancel(12345) is False
                health = await client.health()
                return health["state"]

        assert asyncio.run(scenario()) == "ready"


# --------------------------------------------------------------------- #
# Admission journal (unit)
# --------------------------------------------------------------------- #
class TestAdmissionJournal:
    def test_round_trip_and_counts(self, tmp_path):
        path = tmp_path / "adm.jsonl"
        with AdmissionJournal(path, fsync_every=2) as journal:
            a = journal.record_admitted("cnn", "ref-a", wire_id=1)
            b = journal.record_admitted("cnn", "ref-b", wire_id=2)
            journal.record_done(a, "responded")
            journal.record_done(b, "shed")
        recovery = AdmissionJournal.recover(path)
        assert recovery.admitted == [a, b]
        assert recovery.outcomes == {a: "responded", b: "shed"}
        assert recovery.lost == []
        assert recovery.counts["responded"] == 1
        assert recovery.counts["shed"] == 1
        assert "fully reconciled" in recovery.report() or "0" in recovery.report()

    def test_unfinished_records_are_lost(self, tmp_path):
        path = tmp_path / "adm.jsonl"
        journal = AdmissionJournal(path)
        done = journal.record_admitted("cnn", "ref-a")
        journal.record_done(done, "responded")
        lost = journal.record_admitted("cnn", "ref-b")
        journal.abandon()  # crash: no final fsync, no done record
        recovery = AdmissionJournal.recover(path)
        assert recovery.lost == [lost]
        assert lost not in recovery.outcomes
        assert "LOST" in recovery.report()

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "adm.jsonl"
        with AdmissionJournal(path) as journal:
            jid = journal.record_admitted("cnn", "ref-a")
            journal.record_done(jid, "responded")
        with open(path, "ab") as handle:
            handle.write(b'{"op": "admit", "jid": 99, "mo')  # torn mid-write
        recovery = AdmissionJournal.recover(path)
        assert recovery.torn_lines == 1
        assert recovery.admitted == [jid]
        assert recovery.lost == []

    def test_ids_resume_past_a_previous_incarnation(self, tmp_path):
        path = tmp_path / "adm.jsonl"
        journal = AdmissionJournal(path)
        first = journal.record_admitted("cnn", "ref-a")
        journal.abandon()
        reborn = AdmissionJournal(path)
        second = reborn.record_admitted("cnn", "ref-b")
        reborn.close()
        assert second > first
        recovery = AdmissionJournal.recover(path)
        assert recovery.admitted == [first, second]

    def test_invalid_status_rejected(self, tmp_path):
        with AdmissionJournal(tmp_path / "adm.jsonl") as journal:
            jid = journal.record_admitted("cnn", "ref")
            with pytest.raises(ValueError):
                journal.record_done(jid, "vanished")

    def test_recover_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            AdmissionJournal.recover(tmp_path / "nope.jsonl")
        recovery = AdmissionJournal.recover(
            tmp_path / "nope.jsonl", missing_ok=True
        )
        assert recovery.admitted == []

    def test_fsync_batching_policy(self, tmp_path):
        journal = AdmissionJournal(
            tmp_path / "adm.jsonl", fsync_every=3, fsync_interval_s=3600.0
        )
        journal.record_admitted("cnn", "a")
        journal.record_admitted("cnn", "b")
        assert journal.fsyncs == 0
        journal.record_admitted("cnn", "c")
        assert journal.fsyncs == 1
        journal.close()

    def test_cli_reports_and_exits_by_loss(self, tmp_path):
        path = tmp_path / "adm.jsonl"
        journal = AdmissionJournal(path)
        jid = journal.record_admitted("cnn", "ref-a")
        journal.abandon()
        completed = subprocess.run(
            [sys.executable, "-m", "repro.gateway.journal", str(path), "--json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert completed.returncode == 1  # loss -> nonzero
        payload = json.loads(completed.stdout)
        assert payload["lost"] == [jid]
        # A reconciled journal exits 0.
        with AdmissionJournal(path) as again:
            again.record_done(jid, "dropped")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.gateway.journal", str(path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        assert completed.returncode == 0


# --------------------------------------------------------------------- #
# Journal wired into the gateway + the crash drill
# --------------------------------------------------------------------- #
class TestCrashDrill:
    def test_graceful_drain_leaves_a_reconciled_journal(self, trained, tmp_path):
        dataset, cnn = trained
        path = tmp_path / "adm.jsonl"
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=64, journal=str(path))
        gw.start()
        try:
            with GatewayClient(gw.server.host, gw.server.port) as client:
                for index in range(5):
                    client.predict("cnn", dataset.test_images[index : index + 1])
            # The final "responded" record lands just after the staged
            # write; give the loop a beat.
            assert wait_until(
                lambda: gw.server.snapshot()["journal_records_written"] >= 10
            )
        finally:
            gw.stop()
            router.shutdown()
        recovery = AdmissionJournal.recover(path)
        assert len(recovery.admitted) == 5
        assert recovery.lost == []
        assert all(
            status == "responded" for status in recovery.outcomes.values()
        )

    def test_kill_loses_exactly_the_in_flight_requests(self, trained, tmp_path):
        dataset, cnn = trained
        path = tmp_path / "adm.jsonl"
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=64, journal=str(path))
        gw.start()
        killed_with_depth = 0
        try:
            with GatewayClient(gw.server.host, gw.server.port) as client:
                # Two answered before the crash...
                for index in range(2):
                    client.predict("cnn", dataset.test_images[index : index + 1])
            # ...then park three in the paused queue and pull the plug.
            gw.server.pause_dispatch()
            sock = socket.create_connection((gw.server.host, gw.server.port))
            for index in range(3):
                sock.sendall(
                    encode_frame(
                        FrameType.REQUEST,
                        {
                            "id": 100 + index,
                            "model_id": "cnn",
                            "images": encode_images(
                                dataset.test_images[index : index + 1]
                            ),
                        },
                    )
                )
            assert wait_until(lambda: gw.server.snapshot()["queue_depth"] == 3)
            killed_with_depth = gw.server.snapshot()["queue_depth"]
            gw.kill()
            sock.close()
        finally:
            if gw._thread is not None and gw._thread.is_alive():
                gw.stop()
            router.shutdown()
        assert killed_with_depth == 3
        recovery = AdmissionJournal.recover(path)
        assert len(recovery.admitted) == 5
        assert len(recovery.lost) == 3  # exactly the parked requests
        assert sorted(recovery.outcomes.values()) == ["responded", "responded"]
        # The restarted incarnation resumes ids past the dead one and
        # reconciles cleanly on top of the same file.
        router2 = make_router(cnn)
        gw2 = ThreadedGateway(router2, max_queue=64, journal=str(path))
        gw2.start()
        try:
            with GatewayClient(gw2.server.host, gw2.server.port) as client:
                client.predict("cnn", dataset.test_images[:1])
        finally:
            gw2.stop()
            router2.shutdown()
        after = AdmissionJournal.recover(path)
        assert len(after.admitted) == 6
        assert after.admitted[-1] > max(recovery.admitted)
        assert sorted(after.lost) == sorted(recovery.lost)  # still exact

    def test_statuses_cover_the_terminal_set(self):
        # The journal's vocabulary must match the dispatcher's outcomes;
        # drift here would silently un-reconcile recoveries.
        assert set(TERMINAL_STATUSES) == {
            "responded",
            "error",
            "shed",
            "cancelled",
            "dropped",
        }


# --------------------------------------------------------------------- #
# A fleet with no live node left
# --------------------------------------------------------------------- #
class TestStrandedFleet:
    def test_dead_fleet_answers_error_and_health_stays_live(self, trained, tmp_path):
        """Every node failed and no recovery is scheduled (as when every
        fleet worker died): the drain makes no progress, so each request is
        answered with an ERROR and journaled ``error`` instead of the
        dispatcher spinning with the event loop blocked."""
        dataset, cnn = trained
        path = tmp_path / "adm.jsonl"
        router = ClusterRouter(
            [ClusterNode("n0", vdd=1.0, num_macros=4, max_batch_size=256)],
            fault_plan=FaultPlan([FaultEvent(0.0, FaultKind.CRASH, "n0")]),
        )
        router.register_model("cnn", cnn)
        gw = ThreadedGateway(router, max_queue=64, journal=str(path))
        gw.start()
        try:
            with GatewayClient(
                gw.server.host, gw.server.port, retries=0, timeout_s=2.0
            ) as client:
                started = time.monotonic()
                for index in range(2):
                    with pytest.raises(GatewayRequestError) as raised:
                        client.predict("cnn", dataset.test_images[index : index + 1])
                    assert raised.value.code == "execution_failed"
                assert client.health()["state"] == "ready"
                assert time.monotonic() - started < 2.0
            assert wait_until(
                lambda: gw.server.snapshot()["journal_records_written"] >= 4
            )
        finally:
            gw.stop()
            router.shutdown()
        assert router.queue_depth() == 2  # stranded, never executed
        recovery = AdmissionJournal.recover(path)
        assert recovery.lost == []
        assert list(recovery.outcomes.values()) == ["error", "error"]
