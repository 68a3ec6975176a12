"""Both gateway clients make the same decisions, and a dead stream fails fast.

``GatewayClient`` and ``AsyncGatewayClient`` drive one decision core, so
for every scripted reply sequence they must end the same way: the same
result or exception type, the same attempts, the same ``counters``, the
same backoff sleeps and the same ``images`` / ``images_ref`` choice on
each attempt.  A stand-in gateway answers each REQUEST from a script, so
every branch (BUSY, each ERROR code, an unexpected frame, a deadline that
expires between attempts) is reached without a real router.

``malformed_frame`` closes the stream, which the two transports handle
differently (the sync pool reconnects, the async client's one pipelined
stream dies), so it is checked per client.  The dead-stream cases run
against a live :class:`ThreadedGateway`, each bounded by
``asyncio.wait_for`` so a regression fails by timeout instead of hanging.
"""

import asyncio
import random
import threading
from typing import NamedTuple, Optional, Tuple

import numpy as np
import pytest

from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.gateway import (
    AsyncGatewayClient,
    DeadlineExpiredError,
    FrameDecoder,
    FrameType,
    GatewayBusyError,
    GatewayClient,
    GatewayError,
    GatewayRequestError,
    GatewayResult,
    GatewayShedError,
    RetryBudgetExceeded,
    ThreadedGateway,
    encode_frame,
)
from repro.gateway.client import _backoff_delay_s
from repro.gateway.protocol import images_digest

IMAGES = np.arange(4, dtype=np.float64).reshape(1, 1, 2, 2)
CALL_TIMEOUT_S = 10.0


class Reply(NamedTuple):
    """One scripted answer to a REQUEST."""

    frame_type: FrameType
    payload: dict
    delay_s: float = 0.0
    closes: bool = False


def busy(hint_s: float = 0.0, delay_s: float = 0.0) -> Reply:
    return Reply(
        FrameType.BUSY,
        {"retry_after_s": hint_s, "queue_depth": 1, "queue_limit": 1, "draining": False},
        delay_s,
    )


def error(code: str) -> Reply:
    if code == "malformed_frame":
        # As the real server does: the frame never parsed, so the ERROR
        # carries a null id and the stream closes behind it.
        return Reply(FrameType.ERROR, {"id": None, "code": code, "message": code}, closes=True)
    return Reply(FrameType.ERROR, {"code": code, "message": code})


RESPONSE = Reply(
    FrameType.RESPONSE, {"request_id": 41, "predictions": [3], "trace": {"node_id": "n0"}}
)
#: A frame type no REQUEST is ever answered with.
PONG = Reply(FrameType.PONG, {})


class ScriptedGateway:
    """A stand-in gateway on its own event-loop thread.

    It answers the n-th REQUEST it reads, on any connection, with
    ``script[n]`` and records every REQUEST payload in ``requests``.
    """

    def __init__(self, script) -> None:
        self.script = list(script)
        self.requests = []
        self.connections = 0
        self._handlers = []
        self._writers = []
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever, daemon=True)

    def __enter__(self) -> "ScriptedGateway":
        self._thread.start()
        self._server = asyncio.run_coroutine_threadsafe(
            asyncio.start_server(self._serve, "127.0.0.1", 0), self._loop
        ).result(CALL_TIMEOUT_S)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    def __exit__(self, *exc_info) -> None:
        async def shutdown():
            # Closing each stream ends its handler at the next read.
            self._server.close()
            for writer in self._writers:
                writer.close()
            await asyncio.gather(*self._handlers)

        asyncio.run_coroutine_threadsafe(shutdown(), self._loop).result(CALL_TIMEOUT_S)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(CALL_TIMEOUT_S)
        self._loop.close()

    async def _serve(self, reader, writer) -> None:
        self._handlers.append(asyncio.current_task())
        self._writers.append(writer)
        self.connections += 1
        decoder = FrameDecoder()
        try:
            while chunk := await reader.read(65536):
                for frame_type, payload in decoder.feed(chunk):
                    assert frame_type is FrameType.REQUEST
                    reply = self.script[len(self.requests)]
                    self.requests.append(payload)
                    await asyncio.sleep(reply.delay_s)
                    writer.write(
                        encode_frame(reply.frame_type, {"id": payload["id"], **reply.payload})
                    )
                    if reply.closes:
                        return
        finally:
            writer.close()


class Case(NamedTuple):
    """One script plus the outcome both clients must reach."""

    script: Tuple[Reply, ...]
    outcome: type
    sends: Tuple[str, ...]
    counters: dict = {}
    sleeps: int = 0
    known: bool = False
    budget_s: Optional[float] = None
    options: dict = {}


CASES = {
    "upload_answered": Case((RESPONSE,), GatewayResult, ("images",)),
    "reference_answered": Case((RESPONSE,), GatewayResult, ("images_ref",), known=True),
    "busy_then_answered": Case(
        (busy(), busy(), RESPONSE),
        GatewayResult,
        ("images",) * 3,
        {"busy_retries": 2},
        sleeps=2,
    ),
    "busy_past_the_retries": Case(
        (busy(0.005),) * 3,
        GatewayBusyError,
        ("images",) * 3,
        {"busy_retries": 2},
        sleeps=2,
        options={"retries": 2},
    ),
    "busy_past_the_retry_budget": Case(
        # Every delay is floored at the 30 ms hint: the second would
        # overrun the 50 ms budget.
        (busy(0.03),) * 2,
        RetryBudgetExceeded,
        ("images",) * 2,
        {"busy_retries": 1},
        sleeps=1,
        options={"retry_budget_s": 0.05},
    ),
    "lost_reference_uploaded": Case(
        (error("unknown_images_ref"), RESPONSE),
        GatewayResult,
        ("images_ref", "images"),
        known=True,
    ),
    "lost_reference_uploaded_with_no_retry_left": Case(
        (error("unknown_images_ref"), RESPONSE),
        GatewayResult,
        ("images_ref", "images"),
        known=True,
        options={"retries": 0},
    ),
    "lost_reference_upload_busy_with_no_retry_left": Case(
        (error("unknown_images_ref"), busy()),
        GatewayBusyError,
        ("images_ref", "images"),
        known=True,
        options={"retries": 0},
    ),
    "busy_then_lost_reference": Case(
        (busy(), error("unknown_images_ref"), RESPONSE),
        GatewayResult,
        ("images_ref", "images_ref", "images"),
        {"busy_retries": 1},
        sleeps=1,
        known=True,
    ),
    "unknown_reference_after_an_upload": Case(
        (error("unknown_images_ref"),), GatewayRequestError, ("images",)
    ),
    "shed": Case((error("shed"),), GatewayShedError, ("images",), {"shed": 1}),
    "bad_request": Case((error("bad_request"),), GatewayRequestError, ("images",)),
    "busy_then_bad_request": Case(
        (busy(), error("bad_request")),
        GatewayRequestError,
        ("images",) * 2,
        {"busy_retries": 1},
        sleeps=1,
    ),
    "unexpected_frame": Case((PONG,), GatewayError, ("images",)),
    "budget_stamped_on_every_attempt": Case(
        (busy(), RESPONSE),
        GatewayResult,
        ("images",) * 2,
        {"busy_retries": 1},
        sleeps=1,
        budget_s=30.0,
    ),
    "budget_expires_between_attempts": Case(
        # The BUSY lands after the whole budget is spent; the injected
        # sleep returns at once, and the next attempt is refused locally.
        (busy(delay_s=0.4),),
        DeadlineExpiredError,
        ("images",),
        {"busy_retries": 1, "expired_local": 1},
        sleeps=1,
        budget_s=0.2,
    ),
}


def drive_sync(case: Case, port: int):
    sleeps = []
    client = GatewayClient(
        "127.0.0.1", port, sleep=sleeps.append, rng=random.Random(0), **case.options
    )
    if case.known:
        client._known_refs.add(images_digest(IMAGES))
    with client:
        try:
            outcome = client.predict("cnn", IMAGES, budget_s=case.budget_s)
        except GatewayError as failure:
            outcome = failure
    return outcome, client.counters, sleeps


def drive_async(case: Case, port: int):
    sleeps = []

    async def sleep(delay_s):
        sleeps.append(delay_s)

    client = AsyncGatewayClient(
        "127.0.0.1", port, sleep=sleep, rng=random.Random(0), **case.options
    )
    if case.known:
        client._known_refs.add(images_digest(IMAGES))

    async def call():
        async with client:
            try:
                return await asyncio.wait_for(
                    client.predict("cnn", IMAGES, budget_s=case.budget_s), CALL_TIMEOUT_S
                )
            except GatewayError as failure:
                return failure

    outcome = asyncio.run(call())
    return outcome, client.counters, sleeps


def run_case(case: Case, drive):
    with ScriptedGateway(case.script) as gateway:
        outcome, counters, sleeps = drive(case, gateway.port)
    return {
        "outcome": type(outcome),
        "attempts": getattr(outcome, "attempts", len(gateway.requests)),
        "sent": len(gateway.requests),
        "counters": dict(counters),
        "sleeps": sleeps,
        "sends": tuple(
            "images" if "images" in payload else "images_ref" for payload in gateway.requests
        ),
        "budgets": [payload.get("budget_s") for payload in gateway.requests],
        "result": (
            (outcome.predictions.tolist(), outcome.request_id, outcome.images_ref)
            if isinstance(outcome, GatewayResult)
            else None
        ),
    }


class TestDecisionTable:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_both_clients_decide_alike(self, name):
        case = CASES[name]
        runs = []
        for drive in (drive_sync, drive_async):
            run = run_case(case, drive)
            assert run["outcome"] is case.outcome, drive.__name__
            assert run["sends"] == case.sends
            assert run["attempts"] == run["sent"] == len(case.sends)
            expected = dict.fromkeys(run["counters"], 0)
            expected.update(requests=1, **case.counters)
            assert run["counters"] == expected
            assert len(run["sleeps"]) == case.sleeps
            stamped = run.pop("budgets")
            if case.budget_s is None:
                assert stamped == [None] * len(case.sends)
            else:
                assert all(0.0 < left <= case.budget_s for left in stamped)
                assert stamped == sorted(stamped, reverse=True)
            runs.append(run)
        sync, pipelined = runs
        assert sync == pipelined

    def test_sleeps_follow_the_shared_backoff_policy(self):
        case = CASES["busy_then_answered"]
        rng = random.Random(0)
        policy = [_backoff_delay_s(attempt, 0.0, 0.01, 1.0, rng=rng) for attempt in range(2)]
        assert run_case(case, drive_sync)["sleeps"] == policy
        assert run_case(case, drive_async)["sleeps"] == policy


class TestMalformedFrame:
    SCRIPT = (error("malformed_frame"), RESPONSE)

    def test_sync_client_resends_on_a_fresh_connection(self):
        with ScriptedGateway(self.SCRIPT) as gateway:
            outcome, counters, sleeps = drive_sync(
                Case(self.SCRIPT, GatewayResult, ()), gateway.port
            )
            assert gateway.connections == 2
            assert len(gateway.requests) == 2
        assert isinstance(outcome, GatewayResult)
        assert outcome.attempts == 2
        assert counters["transport_errors"] == 1
        assert counters["reconnects"] == 1
        assert sleeps == []

    def test_async_client_fails_with_its_stream(self):
        with ScriptedGateway(self.SCRIPT) as gateway:
            outcome, counters, sleeps = drive_async(
                Case(self.SCRIPT, GatewayError, ()), gateway.port
            )
            assert gateway.connections == 1
        # The null-id ERROR reaches no waiter; the stream's end fails the
        # call, and the pipelined client never reconnects.
        assert type(outcome) is GatewayError
        assert "closed" in str(outcome)
        assert counters["reconnects"] == 0
        assert sleeps == []


# --------------------------------------------------------------------- #
# A dead stream fails every pending and later call (live gateway)
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=60, size=8, seed=13)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=13
    )
    return dataset, cnn


def make_router(cnn):
    node = ClusterNode(
        "n0",
        vdd=1.0,
        num_macros=4,
        max_batch_size=256,
        execution_mode=ExecutionMode.ANALYTIC,
        forward_memo=ForwardMemo(),
    )
    router = ClusterRouter([node], coalesce=True)
    router.register_model("cnn", cnn)
    return router


async def until(predicate, timeout_s: float = CALL_TIMEOUT_S) -> None:
    async def poll():
        while not predicate():
            await asyncio.sleep(0.005)

    await asyncio.wait_for(poll(), timeout_s)


class TestDeadStream:
    def test_calls_after_a_gateway_kill_raise_gateway_error(self, trained):
        dataset, cnn = trained
        images = dataset.test_images[:1]
        router = make_router(cnn)
        gateway = ThreadedGateway(router, max_queue=64)
        gateway.start()
        try:

            async def scenario():
                async with AsyncGatewayClient(gateway.server.host, gateway.server.port) as client:
                    first = await client.predict("cnn", images)
                    gateway.kill()
                    failures = []
                    for _ in range(2):
                        with pytest.raises(GatewayError) as info:
                            await asyncio.wait_for(client.predict("cnn", images), 5.0)
                        failures.append(info.value)
                    return first, failures

            first, failures = asyncio.run(scenario())
        finally:
            gateway.stop()
            router.shutdown()
        assert np.array_equal(first.predictions, cnn.predict(images))
        assert len(failures) == 2

    def test_close_fails_the_request_in_flight(self, trained):
        dataset, cnn = trained
        images = dataset.test_images[:1]
        router = make_router(cnn)
        gateway = ThreadedGateway(router, max_queue=64)
        gateway.start()
        gateway.server.pause_dispatch()
        try:

            async def scenario():
                client = AsyncGatewayClient(gateway.server.host, gateway.server.port)
                await client.connect()
                pending = asyncio.ensure_future(client.predict("cnn", images))
                await until(lambda: gateway.server.snapshot()["queue_depth"] == 1)
                await client.close()
                with pytest.raises(GatewayError, match="client is closed"):
                    await asyncio.wait_for(pending, 5.0)
                with pytest.raises(GatewayError, match="client is closed"):
                    await client.health()
                # Connecting again opens a fresh stream that serves.
                gateway.server.resume_dispatch()
                await client.connect()
                try:
                    return await asyncio.wait_for(client.predict("cnn", images), 5.0)
                finally:
                    await client.close()

            result = asyncio.run(scenario())
        finally:
            gateway.server.resume_dispatch()
            gateway.stop()
            router.shutdown()
        assert np.array_equal(result.predictions, cnn.predict(images))
