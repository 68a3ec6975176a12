"""Property-based fuzzing of the wire protocol: hostile bytes, clean exits.

The framing layer is the trust boundary of the whole gateway: everything
past it assumes well-formed frames.  These properties push adversarial
byte streams — random garbage, mutated valid frames, truncations,
oversized length prefixes, pathological chunkings — through
:class:`FrameDecoder` and a live :class:`GatewayServer` and require one
of exactly two outcomes every time:

* the bytes parse into frames (only possible when the mutation landed
  harmlessly, e.g. in JSON whitespace), or
* :class:`ProtocolError` — never a hang, never an unhandled exception,
  never a decoder left in a state that corrupts *subsequent* traffic.

Live-server properties additionally require the standard courtesy: a
``malformed_frame`` ERROR frame before the connection closes.

Profiles come from ``tests/conftest.py`` (``ci`` bounded/derandomized,
``REPRO_HYPOTHESIS_PROFILE=nightly`` for the deep sweep).
"""

import json
import math
import socket
import struct

import pytest
from hypothesis import example, given, strategies as st

from repro.gateway import (
    FrameDecoder,
    FrameType,
    ProtocolError,
    decode_frame,
    encode_frame,
)
from repro.gateway.protocol import HEADER_SIZE, MAGIC, MAX_PAYLOAD_BYTES


def valid_frames() -> st.SearchStrategy[bytes]:
    """Well-formed frames with random payload shapes."""
    payloads = st.dictionaries(
        st.sampled_from(["id", "model_id", "sla", "message", "pad"]),
        st.one_of(
            st.integers(min_value=-(2**31), max_value=2**31),
            st.text(max_size=24),
            st.booleans(),
            st.none(),
        ),
        max_size=4,
    )
    return st.builds(
        encode_frame,
        st.sampled_from(list(FrameType)),
        payloads,
    )


def huge_image_shapes() -> st.SearchStrategy[list]:
    """4-D shapes whose float64 byte count exceeds the frame limit.

    Dimensions near powers of two make numpy's int64 product wrap, to 0
    or to a small count an empty or short body would match.
    """
    dims = st.one_of(
        st.integers(min_value=1, max_value=64),
        st.sampled_from([2**31, 2**32, 2**33, 2**61, 2**62, 2**63, 2**64]),
        st.integers(min_value=2**20, max_value=2**80),
    )
    return st.lists(dims, min_size=4, max_size=4).filter(
        lambda shape: math.prod(shape) * 8 > MAX_PAYLOAD_BYTES
    )


class TestDecoderFuzz:
    @given(st.binary(max_size=256))
    def test_random_garbage_never_crashes_the_decoder(self, data):
        decoder = FrameDecoder()
        try:
            list(decoder.feed(data))
        except ProtocolError:
            pass  # the only acceptable failure mode

    @given(
        frame=valid_frames(),
        position=st.integers(min_value=0, max_value=200),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_single_byte_mutations_parse_or_raise(self, frame, position, flip):
        mutated = bytearray(frame)
        mutated[position % len(mutated)] ^= flip
        try:
            decode_frame(bytes(mutated))
        except ProtocolError:
            pass

    @given(frame=valid_frames(), keep=st.floats(min_value=0.0, max_value=1.0))
    def test_truncated_frames_stay_pending_or_raise(self, frame, keep):
        cut = int(len(frame) * keep)
        decoder = FrameDecoder()
        try:
            frames = list(decoder.feed(frame[:cut]))
        except ProtocolError:
            return
        if cut < len(frame):
            # An incomplete frame must never be surfaced as complete.
            assert frames == []
            # Once the header is consumed the buffer holds only body bytes.
            expected_pending = cut if cut < HEADER_SIZE else cut - HEADER_SIZE
            assert decoder.pending_bytes == expected_pending
            # Feeding the remainder completes it exactly once.
            try:
                frames = list(decoder.feed(frame[cut:]))
                assert len(frames) == 1
            except ProtocolError:
                pass  # e.g. the random payload hit a schema check

    @given(
        length=st.integers(
            min_value=MAX_PAYLOAD_BYTES + 1, max_value=2**32 - 1
        ),
        frame_type=st.sampled_from(list(FrameType)),
    )
    def test_oversized_length_prefix_is_rejected_before_buffering(
        self, length, frame_type
    ):
        # A liar header must be refused from the prefix alone — the
        # decoder must not wait for (or allocate) gigabytes.
        header = MAGIC + bytes([0x01, frame_type.value]) + struct.pack(
            ">I", length
        )
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError):
            list(decoder.feed(header))

    @given(
        frames=st.lists(valid_frames(), min_size=1, max_size=4),
        chunk_size=st.integers(min_value=1, max_value=64),
    )
    def test_pathological_chunking_is_lossless(self, frames, chunk_size):
        stream = b"".join(frames)
        decoder = FrameDecoder()
        decoded = []
        for start in range(0, len(stream), chunk_size):
            decoded.extend(decoder.feed(stream[start : start + chunk_size]))
        assert len(decoded) == len(frames)
        assert decoder.pending_bytes == 0

    @given(garbage=st.binary(min_size=1, max_size=64), frame=valid_frames())
    def test_a_poisoned_decoder_stays_poisoned(self, garbage, frame):
        # Once the stream is out of sync there is no safe resynchronisation
        # point — the decoder must keep refusing rather than guess.
        decoder = FrameDecoder()
        bad_magic = b"XX" + garbage
        with pytest.raises(ProtocolError):
            list(decoder.feed(bad_magic + frame))
        with pytest.raises(ProtocolError):
            list(decoder.feed(frame))


class TestLiveServerFuzz:
    """Hostile bytes against a real listening gateway.

    One gateway serves the whole class (hypothesis would otherwise pay a
    server start/stop per example); every example uses its own fresh
    connection, so examples stay independent.
    """

    @pytest.fixture(scope="class", autouse=True)
    def live(self, request):
        from repro.cluster import ClusterNode, ClusterRouter, ExecutionMode
        from repro.dnn.pipeline import (
            make_pattern_image_dataset,
            train_pattern_cnn,
        )
        from repro.gateway import ThreadedGateway

        dataset = make_pattern_image_dataset(samples=60, size=8, seed=13)
        cnn, _ = train_pattern_cnn(
            dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=2, seed=13
        )
        fleet = [
            ClusterNode(
                "n0",
                vdd=1.0,
                num_macros=4,
                max_batch_size=256,
                execution_mode=ExecutionMode.ANALYTIC,
            )
        ]
        router = ClusterRouter(fleet, coalesce=True)
        router.register_model("cnn", cnn)
        gw = ThreadedGateway(router, max_queue=64)
        gw.start()
        request.cls.address = (gw.server.host, gw.server.port)
        request.cls.gateway = gw
        yield
        gw.stop()
        router.shutdown()

    def _send_and_drain(self, data: bytes) -> list:
        """Send hostile bytes; read frames until the server closes."""
        sock = socket.create_connection(self.address, timeout=10.0)
        sock.settimeout(10.0)
        try:
            sock.sendall(data)
            # Half-close: the server sees EOF instead of waiting for the
            # rest of a partial frame, so the exchange always terminates.
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionError, OSError):
            pass  # server already slammed the door — acceptable
        decoder = FrameDecoder()
        frames = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                frames.extend(decoder.feed(chunk))
        except (ConnectionError, TimeoutError, OSError):
            pass
        finally:
            sock.close()
        return frames

    @given(garbage=st.binary(min_size=6, max_size=128))
    def test_garbage_draws_malformed_frame_then_close(self, garbage):
        # Prefix with broken magic so every example is certainly invalid;
        # min_size keeps the total at or past one full header, the point
        # where the server can first judge the stream.
        frames = self._send_and_drain(b"ZZ" + garbage)
        assert frames, "server closed without the courtesy ERROR"
        frame_type, payload = frames[-1]
        assert frame_type is FrameType.ERROR
        assert payload["code"] == "malformed_frame"

    @given(
        frame=valid_frames(),
        position=st.integers(min_value=0, max_value=200),
        flip=st.integers(min_value=1, max_value=255),
    )
    def test_mutated_frames_never_hang_the_server(self, frame, position, flip):
        mutated = bytearray(frame)
        mutated[position % len(mutated)] ^= flip
        frames = self._send_and_drain(bytes(mutated))
        # The mutation either left a parseable frame (the server answered
        # or ignored it per type) or drew the malformed_frame close.  The
        # invariant under test: _send_and_drain returned, i.e. the server
        # always terminated the exchange — no hang, no stuck connection.
        for frame_type, payload in frames:
            assert frame_type in FrameType
        # And the gateway is still alive for well-formed traffic.
        probe = socket.create_connection(self.address, timeout=10.0)
        probe.settimeout(10.0)
        probe.sendall(encode_frame(FrameType.PING, {"id": 1}))
        decoder = FrameDecoder()
        got = []
        while not got:
            chunk = probe.recv(65536)
            assert chunk, "gateway died after a mutated frame"
            got.extend(decoder.feed(chunk))
        probe.close()
        assert got[0][0] is FrameType.PONG

    @given(trailer=st.binary(max_size=32))
    def test_oversized_header_is_refused_immediately(self, trailer):
        header = MAGIC + bytes([0x01, 0x01]) + struct.pack(
            ">I", MAX_PAYLOAD_BYTES + 1
        )
        frames = self._send_and_drain(header + trailer)
        assert frames
        assert frames[-1][0] is FrameType.ERROR
        assert frames[-1][1]["code"] == "malformed_frame"

    @given(shape=huge_image_shapes(), data=st.sampled_from(["", "AAAAAAAAAAA="]))
    @example(shape=[2**32, 2**32, 1, 1], data="")
    def test_huge_image_shapes_draw_bad_request_and_keep_the_connection(self, shape, data):
        request = {
            "id": 3,
            "model_id": "cnn",
            "images": {"shape": shape, "dtype": "<f8", "data": data},
        }
        with socket.create_connection(self.address, timeout=10.0) as sock:
            sock.settimeout(10.0)
            sock.sendall(encode_frame(FrameType.REQUEST, request))
            sock.sendall(encode_frame(FrameType.PING, {"id": 4}))
            decoder = FrameDecoder()
            frames = []
            while len(frames) < 2:
                chunk = sock.recv(65536)
                assert chunk, "the reader died instead of answering"
                frames.extend(decoder.feed(chunk))
        (error_type, error), (pong_type, _) = frames
        assert error_type is FrameType.ERROR
        assert (error["code"], error["id"]) == ("bad_request", 3)
        assert pong_type is FrameType.PONG

    @given(payload=st.binary(min_size=1, max_size=64))
    def test_non_json_payloads_are_malformed(self, payload):
        try:
            json.loads(payload.decode("utf-8"))
            return  # astronomically rare: the bytes were valid JSON
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        frame = (
            MAGIC
            + bytes([0x01, 0x01])
            + struct.pack(">I", len(payload))
            + payload
        )
        frames = self._send_and_drain(frame)
        assert frames
        assert frames[-1][0] is FrameType.ERROR
        assert frames[-1][1]["code"] == "malformed_frame"
