"""The wire gateway: framing, server behaviour, SDK, and the spec contract.

Four layers of coverage:

* protocol unit tests — framing round-trips, incremental decoding across
  arbitrary chunk boundaries, every malformed-frame rejection;
* the **spec contract** — ``TestSpecByteLayout`` builds frames from raw
  ``struct``/``json``/``base64`` calls following only the byte layout
  documented in ``docs/PROTOCOL.md`` (never the protocol module's
  encoder), and a live server must accept them: the acceptance gate that
  the document and the implementation cannot drift;
* server behaviour over real loopback sockets — concurrent clients,
  pipelined frames, mid-request disconnect, backpressure BUSY round-trips
  with the zero-loss accounting, graceful drain;
* SDK behaviour — pooling, retry/backoff schedules (injected sleep, no
  real waiting), images_ref re-upload fallback, error surfacing.
"""

import base64
import json
import random
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode, ForwardMemo
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.errors import ConfigurationError
from repro.gateway import (
    AsyncGatewayClient,
    FrameDecoder,
    FrameType,
    GatewayBusyError,
    GatewayClient,
    GatewayRequestError,
    ProtocolError,
    ThreadedGateway,
    decode_frame,
    decode_images,
    encode_frame,
    encode_images,
    images_digest,
)
from repro.gateway import server as gateway_server
from repro.gateway.client import _backoff_delay_s
from repro.gateway.server import _STATS_KEYS, GatewayServer
from repro.obs.registry import Counter, Gauge, MetricFamily


# --------------------------------------------------------------------- #
# Shared fixtures: one tiny trained CNN, fresh gateway per test
# --------------------------------------------------------------------- #
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


def wait_until(predicate, timeout_s=10.0):
    """Poll a cross-thread condition on the live server (real time, bounded)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.001)
    raise AssertionError("condition not met within timeout")


def recv_frames(sock, count, decoder=None):
    """Read exactly ``count`` frames from a blocking socket."""
    decoder = decoder or FrameDecoder()
    frames = []
    while len(frames) < count:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection early"
        frames.extend(decoder.feed(chunk))
    return frames


class CeilingRng:
    """A jitter RNG pinned to the top of the window: full jitter degrades
    to the classic deterministic doubling schedule, which the retry tests
    assert exactly."""

    @staticmethod
    def uniform(_low, high):
        return high


# --------------------------------------------------------------------- #
# Protocol unit tests
# --------------------------------------------------------------------- #
class TestFraming:
    def test_round_trip(self):
        frame = encode_frame(FrameType.PING, {"id": 7})
        assert decode_frame(frame) == (FrameType.PING, {"id": 7})

    def test_incremental_decode_any_chunking(self):
        frames = b"".join(
            encode_frame(FrameType.REQUEST, {"id": index}) for index in range(5)
        )
        for step in (1, 3, 8, 11, len(frames)):
            decoder = FrameDecoder()
            seen = []
            for start in range(0, len(frames), step):
                seen.extend(decoder.feed(frames[start : start + step]))
            assert [payload["id"] for _, payload in seen] == list(range(5))
            assert decoder.pending_bytes == 0

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FrameType.PING, {}))
        frame[0] = 0x58
        with pytest.raises(ProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_unsupported_version_rejected(self):
        # 0x01-0x03 are the supported revisions; 0x04 does not exist.
        frame = bytearray(encode_frame(FrameType.PING, {}))
        frame[2] = 0x04
        with pytest.raises(ProtocolError, match="version"):
            decode_frame(bytes(frame))

    def test_revision2_version_byte_accepted(self):
        # Revision 2 (METRICS) bumped the version byte; a 0x02 header on a
        # revision-1 frame type decodes fine.
        frame = bytearray(encode_frame(FrameType.PING, {"id": 1}))
        frame[2] = 0x02
        assert decode_frame(bytes(frame)) == (FrameType.PING, {"id": 1})

    def test_revision3_version_byte_accepted(self):
        # Revision 3 (CANCEL/HEALTH) bumped the version byte again; a 0x03
        # header on a revision-1 frame type decodes fine.
        frame = bytearray(encode_frame(FrameType.PING, {"id": 1}))
        frame[2] = 0x03
        assert decode_frame(bytes(frame)) == (FrameType.PING, {"id": 1})

    def test_cancel_and_health_require_revision3(self):
        # CANCEL/HEALTH under an older version byte is the spec violation
        # a pre-revision-3 receiver would reject as an unknown type.
        for frame_type in (FrameType.CANCEL, FrameType.HEALTH):
            frame = bytearray(encode_frame(frame_type, {}))
            assert frame[2] == 0x03  # the encoder stamps revision 3 itself
            frame[2] = 0x02
            with pytest.raises(ProtocolError, match="requires"):
                decode_frame(bytes(frame))

    def test_metrics_frame_requires_revision2(self):
        # METRICS under a revision-1 version byte is the spec violation a
        # pure revision-1 receiver would reject as an unknown type.
        frame = bytearray(encode_frame(FrameType.METRICS, {}))
        assert frame[2] == 0x02  # the encoder stamps revision 2 by itself
        frame[2] = 0x01
        with pytest.raises(ProtocolError, match="requires"):
            decode_frame(bytes(frame))

    def test_unknown_type_rejected(self):
        frame = bytearray(encode_frame(FrameType.PING, {}))
        frame[3] = 0x7F
        with pytest.raises(ProtocolError, match="frame type"):
            decode_frame(bytes(frame))

    def test_oversized_announcement_rejected_before_buffering(self):
        header = struct.pack(">2sBBI", b"RG", 1, 1, 2**31)
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            list(decoder.feed(header))

    def test_non_object_payload_rejected(self):
        body = json.dumps([1, 2]).encode()
        frame = struct.pack(">2sBBI", b"RG", 1, 5, len(body)) + body
        with pytest.raises(ProtocolError, match="object"):
            decode_frame(frame)

    def test_length_mismatch_rejected(self):
        frame = encode_frame(FrameType.PING, {"id": 1})
        with pytest.raises(ProtocolError, match="length mismatch"):
            decode_frame(frame + b"x")


class TestImagesCodec:
    def test_round_trip(self):
        images = np.arange(2 * 1 * 3 * 3, dtype=np.float64).reshape(2, 1, 3, 3)
        assert np.array_equal(decode_images(encode_images(images)), images)

    def test_digest_is_content_derived_and_shape_aware(self):
        images = np.ones((1, 1, 2, 2))
        assert images_digest(images) == images_digest(images.copy())
        assert images_digest(images) != images_digest(images.reshape(1, 1, 4, 1))
        assert images_digest(images) != images_digest(images * 2)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda payload: payload.pop("data"),
            lambda payload: payload.update(dtype=">f4"),
            lambda payload: payload.update(shape=[1, 1]),
            lambda payload: payload.update(data="!!!"),
            lambda payload: payload.update(shape=[9, 9, 9, 9]),
        ],
    )
    def test_malformed_images_rejected(self, mutate):
        payload = encode_images(np.ones((1, 1, 2, 2)))
        mutate(payload)
        with pytest.raises(ProtocolError):
            decode_images(payload)

    def test_non_4d_images_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            encode_images(np.ones((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_images_rejected(self, bad):
        images = np.ones((2, 1, 2, 2))
        images[1, 0, 1, 0] = bad
        with pytest.raises(ProtocolError, match="finite"):
            decode_images(encode_images(images))

    @pytest.mark.parametrize(
        "shape",
        [
            [2**32, 2**32, 1, 1],  # an int64 product wraps to 0 bytes
            [2**62, 4, 1, 1],  # wraps to 0 as well
            [2**70, 3, 1, 1],
            [1, 1, 2048, 1025],  # one row past the frame limit
        ],
    )
    def test_byte_count_past_the_frame_limit_rejected(self, shape):
        with pytest.raises(ProtocolError, match="frame limit"):
            decode_images({"shape": shape, "dtype": "<f8", "data": ""})

    def test_byte_count_at_the_frame_limit_is_checked_against_the_body(self):
        with pytest.raises(ProtocolError, match="holds 0 bytes"):
            decode_images({"shape": [1, 1, 2048, 1024], "dtype": "<f8", "data": ""})


class TestBackoffPolicy:
    def test_exponential_doubling_from_base(self):
        delays = [_backoff_delay_s(n, 0.0, 0.01, 10.0) for n in range(4)]
        assert delays == [0.01, 0.02, 0.04, 0.08]

    def test_server_hint_dominates_when_larger(self):
        assert _backoff_delay_s(0, 0.5, 0.01, 10.0) == 0.5

    def test_cap_clamps_both(self):
        assert _backoff_delay_s(20, 0.0, 0.01, 1.0) == 1.0
        assert _backoff_delay_s(0, 5.0, 0.01, 1.0) == 1.0

    def test_full_jitter_spans_the_window_and_respects_floor_and_cap(self):
        rng = random.Random(17)
        window = 0.01 * (2.0**3)
        draws = [_backoff_delay_s(3, 0.002, 0.01, 1.0, rng=rng) for _ in range(200)]
        assert all(0.002 <= delay <= window for delay in draws)
        # Full jitter actually uses the window (not clustered at an edge).
        assert min(draws) < 0.25 * window
        assert max(draws) > 0.75 * window

    def test_jitter_never_undercuts_the_server_hint(self):
        rng = random.Random(3)
        for attempt in range(6):
            assert _backoff_delay_s(attempt, 0.05, 0.001, 1.0, rng=rng) >= 0.05

    def test_jitter_is_deterministic_under_a_seeded_rng(self):
        one = [
            _backoff_delay_s(n, 0.0, 0.01, 1.0, rng=random.Random(9))
            for n in range(4)
        ]
        two = [
            _backoff_delay_s(n, 0.0, 0.01, 1.0, rng=random.Random(9))
            for n in range(4)
        ]
        assert one == two


# --------------------------------------------------------------------- #
# The spec contract: frames built from the documented byte layout only
# --------------------------------------------------------------------- #
class TestSpecByteLayout:
    """docs/PROTOCOL.md round-trips against a live server.

    Everything below is built from the spec's documented constants —
    magic ``0x52 0x47``, version ``0x01``, type codes, big-endian length
    prefix, base64 little-endian float64 image buffers — without calling
    the protocol module's encoder.
    """

    @staticmethod
    def spec_frame(type_code: int, payload: dict) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        return b"\x52\x47" + bytes([0x01, type_code]) + struct.pack(">I", len(body)) + body

    def test_request_built_from_spec_is_served(self, trained, gateway):
        dataset, cnn = trained
        images = dataset.test_images[:2]
        payload = {
            "id": 1234,
            "model_id": "cnn",
            "sla": "throughput",
            "images": {
                "shape": list(images.shape),
                "dtype": "<f8",
                "data": base64.b64encode(
                    np.ascontiguousarray(images, dtype="<f8").tobytes()
                ).decode("ascii"),
            },
        }
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(self.spec_frame(0x01, payload))
            ((frame_type, reply),) = recv_frames(sock, 1)
        assert frame_type is FrameType.RESPONSE
        assert reply["id"] == 1234
        assert np.array_equal(np.asarray(reply["predictions"]), cnn.predict(images))
        assert reply["trace"]["node_id"] == "n0"

    def test_spec_ping_and_stats(self, gateway):
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(self.spec_frame(0x05, {"id": 1}))
            sock.sendall(self.spec_frame(0x07, {"id": 2}))
            frames = recv_frames(sock, 2)
        assert frames[0][0] is FrameType.PONG and frames[0][1]["id"] == 1
        assert frames[1][0] is FrameType.STATS
        assert frames[1][1]["stats"]["pings"] == 1

    def test_worked_example_digest_matches_spec(self):
        # The §7 worked example of docs/PROTOCOL.md, pinned.
        assert images_digest(np.zeros((1, 1, 2, 2))) == (
            "f0ab42974e4b46f5fb9e0665255c1ff6f6f8e8c61a781431d80413ad89d81213"
        )

    def test_spec_version_byte_rejected(self, gateway):
        frame = b"\x52\x47" + bytes([0x04, 0x05]) + struct.pack(">I", 2) + b"{}"
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(frame)
            ((frame_type, reply),) = recv_frames(sock, 1)
            assert frame_type is FrameType.ERROR
            assert reply["code"] == "malformed_frame"
            assert "version" in reply["message"]
            assert sock.recv(1) == b""  # the server closes after a framing error

    def test_spec_metrics_scrape(self, gateway):
        # The revision-2 METRICS frame from §7 of docs/PROTOCOL.md, built
        # byte-by-byte: version 0x02, type 0x09.  The reply is a METRICS
        # frame whose snapshot carries the same counters STATS reports.
        body = json.dumps({"id": 3}).encode("utf-8")
        frame = b"\x52\x47" + bytes([0x02, 0x09]) + struct.pack(">I", len(body)) + body
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(self.spec_frame(0x05, {"id": 1}))  # one PING first
            sock.sendall(frame)
            frames = recv_frames(sock, 2)
        assert frames[0][0] is FrameType.PONG
        assert frames[1][0] is FrameType.METRICS
        reply = frames[1][1]
        assert reply["id"] == 3
        snapshot = reply["snapshot"]
        assert snapshot["schema"] == "repro.obs/1"
        pings = snapshot["metrics"]["gateway_pings_total"]["samples"][0]["value"]
        assert pings == 1

    def test_spec_metrics_under_revision1_is_malformed(self, gateway):
        # Type 0x09 with version byte 0x01 violates the versioning rules.
        frame = b"\x52\x47" + bytes([0x01, 0x09]) + struct.pack(">I", 2) + b"{}"
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(frame)
            ((frame_type, reply),) = recv_frames(sock, 1)
            assert frame_type is FrameType.ERROR
            assert reply["code"] == "malformed_frame"

    def test_spec_health_probe(self, gateway):
        # The revision-3 HEALTH frame from §7 of docs/PROTOCOL.md, built
        # byte-by-byte: version 0x03, type 0x0B, payload {"id": 7}.
        body = json.dumps({"id": 7}).encode("utf-8")
        assert body == b'{"id": 7}'  # the §7 worked example, 9 bytes
        frame = b"\x52\x47" + bytes([0x03, 0x0B]) + struct.pack(">I", len(body)) + body
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(frame)
            ((frame_type, reply),) = recv_frames(sock, 1)
        assert frame_type is FrameType.HEALTH
        assert reply["id"] == 7
        assert reply["state"] == "ready"
        assert reply["queue_limit"] == gateway.server.max_queue
        assert reply["draining"] is False

    def test_spec_cancel_unknown_target_acks_false(self, gateway):
        # The revision-3 CANCEL frame from §4.9: version 0x03, type 0x0A,
        # its own op id plus the target's id.  Nothing is queued, so the
        # ack reports cancelled: false and nothing else happens.
        body = json.dumps({"id": 8, "target_id": 1234}).encode("utf-8")
        frame = b"\x52\x47" + bytes([0x03, 0x0A]) + struct.pack(">I", len(body)) + body
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(frame)
            ((frame_type, reply),) = recv_frames(sock, 1)
        assert frame_type is FrameType.CANCEL
        assert reply == {"id": 8, "target_id": 1234, "cancelled": False}

    def test_spec_cancel_and_health_under_revision2_are_malformed(self, gateway):
        # Types 0x0A/0x0B under a version byte below 0x03 violate §2.1.
        for type_code in (0x0A, 0x0B):
            frame = (
                b"\x52\x47" + bytes([0x02, type_code]) + struct.pack(">I", 2) + b"{}"
            )
            with socket.create_connection(
                (gateway.server.host, gateway.server.port)
            ) as sock:
                sock.sendall(frame)
                ((frame_type, reply),) = recv_frames(sock, 1)
                assert frame_type is FrameType.ERROR
                assert reply["code"] == "malformed_frame"


# --------------------------------------------------------------------- #
# Server behaviour over real sockets
# --------------------------------------------------------------------- #
class TestServing:
    def test_concurrent_clients_all_served_correctly(self, trained, gateway):
        dataset, cnn = trained
        host, port = gateway.server.host, gateway.server.port
        failures = []

        def drive(offset):
            try:
                with GatewayClient(host, port, pool_size=1) as client:
                    for index in range(8):
                        images = dataset.test_images[offset + index : offset + index + 2]
                        result = client.predict("cnn", images, sla="throughput")
                        if not np.array_equal(
                            result.predictions, cnn.predict(images)
                        ):
                            failures.append((offset, index))
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [threading.Thread(target=drive, args=(offset,)) for offset in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        stats = gateway.server.snapshot()
        assert stats["responses_sent"] == 48
        assert stats["router_completed"] == 48

    def test_pipelined_frames_in_one_segment(self, trained, gateway):
        dataset, _ = trained
        ref_result = None
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            ref_result = client.predict("cnn", dataset.test_images[:1])
        burst = b"".join(
            encode_frame(
                FrameType.REQUEST,
                {
                    "id": index,
                    "model_id": "cnn",
                    "sla": "best_effort",
                    "images_ref": ref_result.images_ref,
                },
            )
            for index in range(5)
        )
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(burst)
            frames = recv_frames(sock, 5)
        assert sorted(payload["id"] for _, payload in frames) == list(range(5))
        assert all(frame_type is FrameType.RESPONSE for frame_type, _ in frames)

    def test_latency_sla_deadline_round_trip(self, trained, gateway):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            result = client.predict(
                "cnn", dataset.test_images[:1], sla="latency", deadline_s=10.0
            )
        assert result.trace["sla"] == "latency"
        assert result.trace["deadline_missed"] is False
        assert result.trace["execution_mode"] == "analytic"

    def test_unknown_model_is_bad_request(self, trained, gateway):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            with pytest.raises(GatewayRequestError, match="bad_request"):
                client.predict("nope", dataset.test_images[:1])

    def test_latency_without_deadline_is_bad_request(self, trained, gateway):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            with pytest.raises(GatewayRequestError, match="bad_request"):
                client.predict("cnn", dataset.test_images[:1], sla="latency")

    def test_unknown_images_ref_error_code(self, gateway):
        frame = encode_frame(
            FrameType.REQUEST,
            {"id": 1, "model_id": "cnn", "images_ref": "f" * 64},
        )
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(frame)
            ((frame_type, reply),) = recv_frames(sock, 1)
        assert frame_type is FrameType.ERROR
        assert reply["code"] == "unknown_images_ref"

    @pytest.mark.parametrize(
        "images",
        [
            {"shape": [2, 1, 2, 2], "dtype": "<f8", "bad_at": (5, np.nan)},
            {"shape": [2, 1, 2, 2], "dtype": "<f8", "bad_at": (5, 1e307)},
            {"shape": [2**32, 2**32, 1, 1], "dtype": "<f8", "data": ""},
        ],
        ids=["nan_pixel", "huge_pixel", "wrapping_shape"],
    )
    def test_bad_images_are_bad_request_and_the_connection_stays_open(self, gateway, images):
        if "bad_at" in images:
            values = np.ones(images.pop("shape"))
            index, value = images.pop("bad_at")
            values.reshape(-1)[index] = value
            images = encode_images(values)
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(
                encode_frame(FrameType.REQUEST, {"id": 7, "model_id": "cnn", "images": images})
            )
            sock.sendall(encode_frame(FrameType.PING, {"id": 8}))
            (error_type, error), (pong_type, pong) = recv_frames(sock, 2)
        assert error_type is FrameType.ERROR
        assert (error["code"], error["id"]) == ("bad_request", 7)
        assert pong_type is FrameType.PONG and pong["id"] == 8
        stats = gateway.server.snapshot()
        assert (stats["requests_received"], stats["errors_sent"]) == (1, 1)
        assert stats["requests_admitted"] == 0

    def test_a_dispatch_configuration_error_is_execution_failed(
        self, trained, gateway, monkeypatch
    ):
        # result() re-raises the dispatch's own exception; that it is a
        # ConfigurationError does not make it a server fault.
        dataset, _ = trained

        def refuse(self, *args):
            raise ConfigurationError("the compute module refused the group")

        monkeypatch.setattr(ClusterNode, "_compute_group", refuse)
        with GatewayClient(gateway.server.host, gateway.server.port, retries=0) as client:
            with pytest.raises(GatewayRequestError) as raised:
                client.predict("cnn", dataset.test_images[:1])
        assert raised.value.code == "execution_failed"

    def test_malformed_frame_gets_error_then_close(self, gateway):
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(b"XXXXXXXXXXXXXXXX")
            ((frame_type, reply),) = recv_frames(sock, 1)
            assert frame_type is FrameType.ERROR
            assert reply["code"] == "malformed_frame"
            assert sock.recv(1) == b""
        # The server survives and serves the next connection.
        stats = gateway.server.snapshot()
        assert stats["malformed_frames"] == 1

    def test_mid_request_disconnect_is_absorbed(self, trained, gateway):
        dataset, cnn = trained
        host, port = gateway.server.host, gateway.server.port
        gateway.server.pause_dispatch()
        with socket.create_connection((host, port)) as sock:
            sock.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": 9,
                        "model_id": "cnn",
                        "images": encode_images(dataset.test_images[:1]),
                    },
                )
            )
        # The client is gone before its (paused) request dispatches; wait
        # until the server's reader has actually observed the hangup so the
        # dispatch deterministically finds a closed connection.
        wait_until(
            lambda: gateway.server.snapshot()["connections_closed"] >= 1
            and gateway.server.snapshot()["requests_received"] >= 1
        )
        gateway.server.resume_dispatch()
        with GatewayClient(host, port) as client:
            result = client.predict("cnn", dataset.test_images[1:2])
            assert np.array_equal(
                result.predictions, cnn.predict(dataset.test_images[1:2])
            )
            stats = client.stats()
        # The orphaned request was still executed and knowingly dropped.
        assert stats["responses_dropped"] == 1
        assert stats["router_completed"] == 2
        assert (
            stats["requests_admitted"]
            == stats["responses_sent"] + stats["responses_dropped"]
        )

    def test_partial_frame_then_disconnect_is_absorbed(self, gateway):
        with socket.create_connection((gateway.server.host, gateway.server.port)) as sock:
            sock.sendall(encode_frame(FrameType.PING, {"id": 0})[:5])
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            assert client.ping() > 0


class TestBackpressure:
    def test_busy_round_trip_zero_loss_under_2x_burst(self, trained):
        """The acceptance invariant: admitted+BUSY == offered, all answered."""
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=8, min_retry_after_s=1e-6)
        gw.start()
        try:
            host, port = gw.server.host, gw.server.port
            with GatewayClient(host, port) as client:
                seed = client.predict("cnn", dataset.test_images[:1])
            gw.server.pause_dispatch()
            offered = 16  # 2x the admission bound
            burst = b"".join(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": index,
                        "model_id": "cnn",
                        "sla": "throughput",
                        "images_ref": seed.images_ref,
                    },
                )
                for index in range(offered)
            )
            with socket.create_connection((host, port)) as sock:
                sock.sendall(burst)
                busy = [
                    (frame_type, payload)
                    for frame_type, payload in recv_frames(sock, 8)
                ]
                # With dispatch held, exactly max_queue admissions fit and
                # the rest are refused immediately.
                assert all(frame_type is FrameType.BUSY for frame_type, _ in busy)
                for _, payload in busy:
                    assert payload["retry_after_s"] > 0
                    assert payload["queue_limit"] == 8
                    assert payload["draining"] is False
                gw.server.resume_dispatch()
                responses = recv_frames(sock, 8)
            assert all(
                frame_type is FrameType.RESPONSE for frame_type, _ in responses
            )
            answered = {payload["id"] for _, payload in responses}
            refused = {payload["id"] for _, payload in busy}
            # Zero loss: every offered request got exactly one verdict.
            assert answered | refused == set(range(offered))
            assert answered & refused == set()
            stats = gw.server.snapshot()
            assert stats["requests_received"] == offered + 1
            assert stats["requests_admitted"] == 8 + 1
            assert stats["busy_sent"] == 8
            assert stats["responses_sent"] == 8 + 1
            assert stats["router_completed"] == 8 + 1
        finally:
            gw.stop()
            router.shutdown()

    def test_sdk_retry_backoff_schedule_without_sleeping(self, trained):
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=1, min_retry_after_s=1e-6)
        gw.start()
        try:
            host, port = gw.server.host, gw.server.port
            with GatewayClient(host, port) as seeder:
                seeder.predict("cnn", dataset.test_images[:1])
            gw.server.pause_dispatch()
            # Fill the queue bound with a request that will stay queued.
            filler = socket.create_connection((host, port))
            filler.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": 0,
                        "model_id": "cnn",
                        "images": encode_images(dataset.test_images[:1]),
                    },
                )
            )
            recorded = []
            client = GatewayClient(
                host,
                port,
                retries=3,
                backoff_base_s=0.01,
                backoff_cap_s=10.0,
                sleep=recorded.append,
                rng=CeilingRng(),
            )
            with client:
                with pytest.raises(GatewayBusyError) as info:
                    client.predict("cnn", dataset.test_images[1:2])
            # Three backoff sleeps between four attempts, doubling from the
            # base (the server hint is driven to ~0 by min_retry_after_s).
            assert recorded == [0.01, 0.02, 0.04]
            assert info.value.retry_after_s > 0
            assert info.value.draining is False
            # Releasing the dispatcher serves the queued filler: zero loss.
            gw.server.resume_dispatch()
            ((frame_type, _),) = recv_frames(filler, 1)
            assert frame_type is FrameType.RESPONSE
            filler.close()
            with GatewayClient(host, port) as fresh:
                result = fresh.predict("cnn", dataset.test_images[1:2])
                assert result.attempts == 1
        finally:
            gw.stop()
            router.shutdown()

    def test_sdk_reuploads_after_unknown_images_ref(self, trained, gateway):
        dataset, cnn = trained
        images = dataset.test_images[:2]
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            # Poison the client's ref cache: it believes the server has
            # seen these images although it has not.
            client._known_refs.add(images_digest(images))
            result = client.predict("cnn", images)
        assert np.array_equal(result.predictions, cnn.predict(images))


class TestGracefulDrain:
    def test_draining_server_refuses_with_busy_draining(self, trained, gateway):
        dataset, _ = trained
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            client.predict("cnn", dataset.test_images[:1])
            gateway.server._draining = True
            try:
                recorded = []
                client._sleep = recorded.append
                client.retries = 1
                with pytest.raises(GatewayBusyError) as info:
                    client.predict("cnn", dataset.test_images[:1])
                assert info.value.draining is True
            finally:
                gateway.server._draining = False

    def test_drain_completes_admitted_work_and_says_goodbye(self, trained):
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=64)
        gw.start()
        try:
            host, port = gw.server.host, gw.server.port
            with GatewayClient(host, port) as seeder:
                seed = seeder.predict("cnn", dataset.test_images[:1])
            gw.server.pause_dispatch()
            sock = socket.create_connection((host, port))
            for index in range(5):
                sock.sendall(
                    encode_frame(
                        FrameType.REQUEST,
                        {
                            "id": index,
                            "model_id": "cnn",
                            "sla": "throughput",
                            "images_ref": seed.images_ref,
                        },
                    )
                )
            # Wait until the server has really accepted the connection and
            # queued all 5 admissions (the listener may not have run yet),
            # then stop: the drain must finish them, announce DRAIN, and
            # close the stream.
            wait_until(
                lambda: gw.server.snapshot()["requests_admitted"] == 6
            )
            stopper = threading.Thread(target=gw.stop)
            stopper.start()
            frames = recv_frames(sock, 6)
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            assert [frame_type for frame_type, _ in frames[:5]] == [
                FrameType.RESPONSE
            ] * 5
            assert frames[5][0] is FrameType.DRAIN
            assert frames[5][1]["reason"] == "shutdown"
            assert sock.recv(1) == b""
            sock.close()
            stats = gw.server.snapshot()
            assert stats["requests_admitted"] == 6
            assert stats["responses_sent"] == 6
        finally:
            router.shutdown()


class TestAsyncClient:
    def test_pipelined_predictions_demultiplex(self, trained, gateway):
        import asyncio

        dataset, cnn = trained
        host, port = gateway.server.host, gateway.server.port

        async def drive():
            async with AsyncGatewayClient(host, port) as client:
                await client.predict("cnn", dataset.test_images[:1])
                batches = [dataset.test_images[i : i + 2] for i in range(8)]
                results = await asyncio.gather(
                    *[client.predict("cnn", batch, sla="throughput") for batch in batches]
                )
                stats = await client.stats()
                return batches, results, stats

        batches, results, stats = asyncio.run(drive())
        for batch, result in zip(batches, results):
            assert np.array_equal(result.predictions, cnn.predict(batch))
        assert stats["responses_sent"] == 9

    def test_async_retry_backoff_schedule(self, trained):
        import asyncio

        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=1, min_retry_after_s=1e-6)
        gw.start()
        try:
            host, port = gw.server.host, gw.server.port
            with GatewayClient(host, port) as seeder:
                seeder.predict("cnn", dataset.test_images[:1])
            gw.server.pause_dispatch()
            filler = socket.create_connection((host, port))
            filler.sendall(
                encode_frame(
                    FrameType.REQUEST,
                    {
                        "id": 0,
                        "model_id": "cnn",
                        "images": encode_images(dataset.test_images[:1]),
                    },
                )
            )
            recorded = []

            async def fake_sleep(delay):
                recorded.append(delay)

            async def drive():
                async with AsyncGatewayClient(
                    host,
                    port,
                    retries=2,
                    backoff_base_s=0.01,
                    sleep=fake_sleep,
                    rng=CeilingRng(),
                ) as client:
                    with pytest.raises(GatewayBusyError):
                        await client.predict("cnn", dataset.test_images[1:2])

            asyncio.run(drive())
            assert recorded == [0.01, 0.02]
            gw.server.resume_dispatch()
            ((frame_type, _),) = recv_frames(filler, 1)
            assert frame_type is FrameType.RESPONSE
            filler.close()
        finally:
            gw.stop()
            router.shutdown()


# --------------------------------------------------------------------- #
# Wire counters: plain ints, published at scrape time
# --------------------------------------------------------------------- #
def ref_request(wire_id, images_ref, **fields):
    """One REQUEST frame re-referencing an uploaded tensor."""
    return encode_frame(
        FrameType.REQUEST,
        {
            "id": wire_id,
            "model_id": "cnn",
            "sla": "throughput",
            "images_ref": images_ref,
            **fields,
        },
    )


def recv_one_counted(sock):
    """Read exactly one frame: (frame type, payload, bytes on the wire)."""
    decoder = FrameDecoder()
    size = 0
    while True:
        chunk = sock.recv(65536)
        assert chunk, "server closed the connection early"
        size += len(chunk)
        frames = list(decoder.feed(chunk))
        if frames:
            ((frame_type, payload),) = frames
            assert decoder.pending_bytes == 0
            return frame_type, payload, size


class TestScrapeTimeCounters:
    def test_stats_and_scrape_agree_on_every_counter_after_a_drill(self, trained):
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=4, min_retry_after_s=1e-6)
        host, port = gw.start()
        server = gw.server
        try:
            with GatewayClient(host, port) as client:
                ref = client.predict("cnn", dataset.test_images[:2]).images_ref
                client.predict("cnn", dataset.test_images[:2])  # by images_ref
                client.ping()
                client.health()
                with pytest.raises(GatewayRequestError, match="bad_request"):
                    client.predict("nope", dataset.test_images[:1])
            with socket.create_connection((host, port)) as sock:
                sock.sendall(ref_request(1, ref, budget_s=0.0))
                ((_, shed),) = recv_frames(sock, 1)
                assert shed["code"] == "shed"
                server.pause_dispatch()
                sock.sendall(b"".join(ref_request(i, ref) for i in range(2, 6)))
                wait_until(lambda: server.snapshot()["queue_depth"] == 4)
                sock.sendall(ref_request(6, ref))  # the queue is full: BUSY
                sock.sendall(encode_frame(FrameType.CANCEL, {"id": 7, "target_id": 2}))
                replies = [frame_type for frame_type, _ in recv_frames(sock, 3)]
                assert replies == [FrameType.BUSY, FrameType.ERROR, FrameType.CANCEL]
            # The three still-queued requests now belong to a closed peer.
            wait_until(
                lambda: server.snapshot()["connections_closed"]
                == server.snapshot()["connections_opened"]
            )
            server.resume_dispatch()
            with socket.create_connection((host, port)) as sock:
                sock.sendall(b"XXXXXXXXXXXXXXXX")
                ((_, malformed),) = recv_frames(sock, 1)
                assert malformed["code"] == "malformed_frame"
            wait_until(
                lambda: server.snapshot()["queue_depth"] == 0
                and server.snapshot()["connections_closed"]
                == server.snapshot()["connections_opened"]
            )

            with socket.create_connection((host, port)) as probe:
                probe.sendall(encode_frame(FrameType.STATS, {"id": 1}))
                _, reply, stats_reply_bytes = recv_one_counted(probe)
                stats = reply["stats"]
                scrape = encode_frame(FrameType.METRICS, {"id": 2})
                probe.sendall(scrape)
                _, reply, scrape_reply_bytes = recv_one_counted(probe)
                families = reply["snapshot"]["metrics"]

                async def read_on_loop():
                    return server.snapshot()

                final = gw.call(read_on_loop)
        finally:
            gw.stop()
            router.shutdown()

        for key in (
            "requests_admitted",
            "responses_sent",
            "responses_dropped",
            "busy_sent",
            "errors_sent",
            "shed_sent",
            "cancels_received",
            "requests_cancelled",
            "health_checks",
            "pings",
            "malformed_frames",
        ):
            assert final[key] >= 1, key
        # The probe's own frames are the only traffic between the reads.
        scrape_moves = {
            "frames_received": 1,
            "bytes_received": len(scrape),
            "bytes_sent": stats_reply_bytes,
        }
        for key in _STATS_KEYS:
            (sample,) = families[f"gateway_{key}_total"]["samples"]
            assert sample["value"] == stats[key] + scrape_moves.get(key, 0), key
            after_scrape = scrape_reply_bytes if key == "bytes_sent" else 0
            assert final[key] == sample["value"] + after_scrape, key

    def test_a_scrape_moves_each_counter_to_its_int_down_as_well_as_up(self, trained):
        _, cnn = trained
        router = make_router(cnn)
        server = GatewayServer(router)
        family = server.metrics.get("gateway_responses_sent_total")
        (sample,) = family.samples()
        try:
            assert sample.value == 0 and sample.wall_s is None
            server.stats["responses_sent"] = 3
            assert sample.value == 0  # nothing is published between scrapes
            before = time.time()
            server.metrics.snapshot()
            assert sample.value == 3
            stamped = sample.wall_s
            assert stamped >= before
            server.metrics.snapshot()
            assert sample.wall_s == stamped  # unchanged, so not re-stamped
            server.stats["responses_sent"] = 2  # a take-back for a vanished peer
            server.metrics.snapshot()
            assert sample.value == 2
        finally:
            router.shutdown()

    def test_concurrent_scrapes_never_publish_past_the_int(self, trained):
        # Scrapes may come from several threads while the loop counts;
        # each moves counters by a delta, so unserialised scrapes could
        # apply one delta twice and publish more than was ever counted.
        _, cnn = trained
        router = make_router(cnn)
        server = GatewayServer(router)
        overshoots, stop = [], threading.Event()

        def scrape():
            while not stop.is_set():
                family = server.metrics.snapshot()["metrics"]["gateway_pings_total"]
                if family["samples"][0]["value"] > server.stats["pings"]:
                    overshoots.append(family["samples"][0]["value"])

        scrapers = [threading.Thread(target=scrape) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in scrapers:
                thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                server.stats["pings"] += 1000
                time.sleep(0.001)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in scrapers:
                thread.join(timeout=10)
            router.shutdown()
        assert not any(thread.is_alive() for thread in scrapers)
        assert overshoots == []
        pings = server.metrics.snapshot()["metrics"]["gateway_pings_total"]
        assert pings["samples"][0]["value"] == server.stats["pings"]


#: Registry calls one router drain may make on the gateway's thread (the
#: object router counts the drain itself: one ``labels`` + one ``inc``).
REGISTRY_CALLS_PER_DRAIN = 4


class TestObsTierRule:
    def test_registry_calls_grow_with_drains_not_requests(self, trained, monkeypatch):
        dataset, cnn = trained
        router = make_router(cnn)
        gw = ThreadedGateway(router, max_queue=1024)
        host, port = gw.start()
        calls, drains = [], []
        try:
            with GatewayClient(host, port) as client:
                ref = client.predict("cnn", dataset.test_images[:1]).images_ref
            gateway_thread = gw._thread.ident
            for owner, name in ((MetricFamily, "labels"), (Counter, "inc"), (Gauge, "set")):

                def counting(*args, _original=getattr(owner, name), **kwargs):
                    if threading.get_ident() == gateway_thread:
                        calls.append(name)
                    return _original(*args, **kwargs)

                monkeypatch.setattr(owner, name, counting)
            drain = router.drain

            def counting_drain():
                drains.append(1)
                return drain()

            monkeypatch.setattr(router, "drain", counting_drain)

            def serve(count):
                del calls[:], drains[:]
                gw.server.pause_dispatch()
                with socket.create_connection((host, port)) as sock:
                    sock.sendall(b"".join(ref_request(i, ref) for i in range(count)))
                    wait_until(lambda: gw.server.snapshot()["queue_depth"] == count)
                    gw.server.resume_dispatch()
                    frames = recv_frames(sock, count)
                assert all(frame_type is FrameType.RESPONSE for frame_type, _ in frames)
                return len(calls), len(drains)

            served = {count: serve(count) for count in (64, 256)}
        finally:
            gw.stop()
            router.shutdown()
        for count, (made, drained) in served.items():
            # Dispatch batches admission_batch (128) requests per drain.
            assert drained == -(-count // 128)
            assert made <= REGISTRY_CALLS_PER_DRAIN * drained, (count, made)


class TestImagesRefCache:
    @staticmethod
    def tensors(count):
        rng = np.random.default_rng(5)
        return [rng.random((2, 1, 8, 8)) for _ in range(count)]

    def test_uploads_past_the_budget_evict_least_recently_used(self, gateway, monkeypatch):
        tensors = self.tensors(5)
        budget = 3 * tensors[0].nbytes
        monkeypatch.setattr(gateway_server, "IMAGES_REF_CACHE_BYTES", budget)
        server = gateway.server
        with GatewayClient(server.host, server.port) as client:
            refs = [client.predict("cnn", images).images_ref for images in tensors[:3]]
            client.predict("cnn", tensors[0])  # a hit moves refs[0] to the back
            for images in tensors[3:]:
                refs.append(client.predict("cnn", images).images_ref)
                assert server._images_bytes <= budget
        cache = server._images_by_ref
        assert list(cache) == [refs[0], refs[3], refs[4]]
        assert server._images_bytes == sum(array.nbytes for array in cache.values())

    def test_evicted_ref_is_reuploaded_and_served_correctly(
        self, trained, gateway, monkeypatch
    ):
        _, cnn = trained
        first, second = self.tensors(2)
        monkeypatch.setattr(gateway_server, "IMAGES_REF_CACHE_BYTES", first.nbytes)
        with GatewayClient(gateway.server.host, gateway.server.port) as client:
            client.predict("cnn", first)
            client.predict("cnn", second)  # evicts first
            result = client.predict("cnn", first)  # its ref is unknown now
        assert result.attempts == 2
        assert np.array_equal(result.predictions, cnn.predict(first))
        stats = gateway.server.snapshot()
        assert stats["errors_sent"] == 1
        assert stats["responses_sent"] == 3


# --------------------------------------------------------------------- #
# The operator CLI
# --------------------------------------------------------------------- #
class TestCli:
    @pytest.mark.timeout(60)
    def test_drains_on_sigint_when_started_with_sigint_ignored(self):
        # A non-interactive shell starts `cmd &` with SIGINT ignored, and
        # asyncio only turns SIGINT into a drain from its default handler.
        import os
        import select
        import signal
        import subprocess
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.gateway", "--port", "0", "--nodes", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            seen = b""
            deadline = time.monotonic() + 30.0
            while b"gateway serving" not in seen:
                remaining = deadline - time.monotonic()
                assert remaining > 0, seen
                if select.select([process.stdout], [], [], remaining)[0]:
                    chunk = os.read(process.stdout.fileno(), 4096)
                    assert chunk, seen
                    seen += chunk
            process.send_signal(signal.SIGINT)
            output, _ = process.communicate(timeout=10.0)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0
        assert b"gateway stopped" in output
