"""Wire protocol for the async gateway: framing, payload schemas, codecs.

The gateway speaks *length-prefixed JSON frames* over a TCP stream.  Every
frame is an 8-byte fixed header followed by a UTF-8 JSON object::

    offset  size  field
    0       2     magic, the ASCII bytes "RG" (0x52 0x47)
    2       1     protocol version (0x01; 0x02 for METRICS frames;
                  0x03 for CANCEL / HEALTH frames)
    3       1     frame type (one of :class:`FrameType`)
    4       4     payload length N, big-endian unsigned
    8       N     payload, a UTF-8 encoded JSON object

The normative specification — schemas of every payload, the versioning
rules, and a worked byte-level example — lives in ``docs/PROTOCOL.md``; a
test constructs frames from that document's byte layout alone and the
server must accept them, so the spec and this module cannot drift.

This module is deliberately dependency-free beyond numpy: the benchmark
load-generator worker processes import only this module (plus a socket),
which is the protocol's portability claim in miniature.  Image tensors
travel as base64-encoded little-endian float64 buffers plus an explicit
shape, or by content digest (:func:`images_digest`) once the server has
seen the bytes — see :func:`encode_images` / :func:`decode_images`.
"""

from __future__ import annotations

import base64
import enum
import hashlib
import json
import math
import struct
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.validation import MAX_INPUT_MAGNITUDE, within_input_range

__all__ = [
    "FrameType",
    "ProtocolError",
    "FrameDecoder",
    "MAGIC",
    "PROTOCOL_VERSION",
    "PROTOCOL_VERSION_2",
    "PROTOCOL_VERSION_3",
    "SUPPORTED_VERSIONS",
    "MIN_VERSION_BY_TYPE",
    "HEADER_SIZE",
    "HEADER_STRUCT",
    "MAX_PAYLOAD_BYTES",
    "WIRE_DTYPE",
    "encode_frame",
    "decode_frame",
    "encode_images",
    "decode_images",
    "images_digest",
    "percentile_summary",
]

#: The two magic bytes opening every frame ("RG": Repro Gateway).
MAGIC = b"RG"
#: The baseline protocol version (revision 1: frame types 0x01–0x08).
#: Revision 2 added the METRICS frame; per the versioning rules in
#: docs/PROTOCOL.md a new frame type bumps the version byte, so METRICS
#: frames carry 0x02 while every revision-1 frame keeps 0x01 — existing
#: byte layouts are unchanged.  The high bit of the version byte stays
#: reserved to flag a non-JSON payload codec (msgpack) in a future
#: revision; any version outside :data:`SUPPORTED_VERSIONS` is rejected.
PROTOCOL_VERSION = 0x01
#: Revision 2: adds :attr:`FrameType.METRICS` (registry scrape).
PROTOCOL_VERSION_2 = 0x02
#: Revision 3: adds :attr:`FrameType.CANCEL` (unwind a queued request) and
#: :attr:`FrameType.HEALTH` (live/ready/draining probe), plus the optional
#: ``budget_s`` REQUEST field (deadline propagation) and the ``shed`` /
#: ``cancelled`` / ``idle_timeout`` ERROR codes — field and code additions
#: ride inside the existing frame layouts per the §2.1 forward-compat
#: rules, so only the two new frame types carry the 0x03 version byte.
PROTOCOL_VERSION_3 = 0x03
#: Version bytes this implementation accepts.
SUPPORTED_VERSIONS = frozenset(
    {PROTOCOL_VERSION, PROTOCOL_VERSION_2, PROTOCOL_VERSION_3}
)
#: struct layout of the fixed header: magic(2) version(1) type(1) length(4).
HEADER_STRUCT = struct.Struct(">2sBBI")
#: Size of the fixed header in bytes.
HEADER_SIZE = HEADER_STRUCT.size
#: Default upper bound on a single frame's payload.  A peer announcing a
#: larger payload is treated as malformed (the connection is closed) —
#: the length prefix must never be able to balloon server memory.
MAX_PAYLOAD_BYTES = 16 * 1024 * 1024
#: Numpy dtype string of image tensors on the wire (little-endian float64).
WIRE_DTYPE = "<f8"


class FrameType(enum.IntEnum):
    """Frame type codes (byte 3 of the header)."""

    #: Client -> server: one inference request.
    REQUEST = 0x01
    #: Server -> client: the successful answer to one REQUEST.
    RESPONSE = 0x02
    #: Server -> client: a request-level or connection-level failure.
    ERROR = 0x03
    #: Server -> client: admission refused, retry after a hint interval.
    BUSY = 0x04
    #: Client -> server: liveness probe.
    PING = 0x05
    #: Server -> client: answer to PING.
    PONG = 0x06
    #: Client -> server: counters query; server -> client: the counters.
    STATS = 0x07
    #: Server -> client: the server is draining; no new work is accepted.
    DRAIN = 0x08
    #: Client -> server: observability scrape; server -> client: the full
    #: metrics registry snapshot.  Revision 2 — frames of this type carry
    #: version byte 0x02.
    METRICS = 0x09
    #: Client -> server: unwind a queued-but-undispatched request
    #: (``target_id`` names the REQUEST's id); server -> client: the
    #: acknowledgement (``cancelled`` true/false).  Revision 3.
    CANCEL = 0x0A
    #: Client -> server: health probe; server -> client: the
    #: live/ready/draining state.  Revision 3.
    HEALTH = 0x0B


#: Frame types that exist only from a given protocol revision onward.
#: ``_parse_header`` enforces this: a revision-1 header naming a
#: revision-2 type is rejected, exactly as a pure revision-1 receiver
#: would reject it.
MIN_VERSION_BY_TYPE = {
    FrameType.METRICS: PROTOCOL_VERSION_2,
    FrameType.CANCEL: PROTOCOL_VERSION_3,
    FrameType.HEALTH: PROTOCOL_VERSION_3,
}


class ProtocolError(ValueError):
    """A peer violated the framing or payload rules.

    Raised by :func:`decode_frame` and :class:`FrameDecoder` on bad magic,
    an unsupported version byte, an unknown frame type, an oversized
    payload announcement, or a payload that is not a JSON object.  The
    server answers with an ``ERROR`` frame and closes the connection; the
    client SDK surfaces it to the caller.
    """


def encode_frame(
    frame_type: FrameType, payload: dict, version: Optional[int] = None
) -> bytes:
    """Serialise one frame: fixed header plus UTF-8 JSON payload.

    Args:
        frame_type: The frame's :class:`FrameType`.
        payload: JSON-serialisable payload object (a dict).
        version: Version byte to stamp; defaults to the lowest revision
            that defines ``frame_type`` (0x01 for the revision-1 types,
            0x02 for METRICS), so every pre-existing frame's bytes are
            identical to what revision 1 produced.

    Returns:
        The wire bytes of the complete frame.

    Raises:
        ProtocolError: If the encoded payload exceeds
            :data:`MAX_PAYLOAD_BYTES`, or ``version`` is unsupported or
            predates ``frame_type``.
    """
    if version is None:
        version = MIN_VERSION_BY_TYPE.get(frame_type, PROTOCOL_VERSION)
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(f"unsupported protocol version 0x{version:02x}")
    if version < MIN_VERSION_BY_TYPE.get(frame_type, PROTOCOL_VERSION):
        raise ProtocolError(
            f"frame type {frame_type.name} needs protocol version "
            f"0x{MIN_VERSION_BY_TYPE[frame_type]:02x} or later"
        )
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"payload of {len(body)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    return HEADER_STRUCT.pack(MAGIC, version, int(frame_type), len(body)) + body


def _parse_header(header: bytes, max_payload: int) -> Tuple[FrameType, int]:
    """Validate a fixed header; returns (frame type, payload length)."""
    magic, version, type_code, length = HEADER_STRUCT.unpack(header)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r} (expected {MAGIC!r})")
    if version not in SUPPORTED_VERSIONS:
        raise ProtocolError(
            f"unsupported protocol version 0x{version:02x} "
            f"(this implementation speaks 0x{PROTOCOL_VERSION:02x}"
            f"-0x{PROTOCOL_VERSION_3:02x})"
        )
    try:
        frame_type = FrameType(type_code)
    except ValueError:
        raise ProtocolError(f"unknown frame type 0x{type_code:02x}") from None
    if version < MIN_VERSION_BY_TYPE.get(frame_type, PROTOCOL_VERSION):
        # A revision-1 header must not name a revision-2 type: a pure
        # revision-1 receiver would reject the code as unknown, and the
        # spec's rule is that new types arrive only with the version bump.
        raise ProtocolError(
            f"frame type {frame_type.name} (0x{type_code:02x}) requires "
            f"protocol version 0x{MIN_VERSION_BY_TYPE[frame_type]:02x}, "
            f"header says 0x{version:02x}"
        )
    if length > max_payload:
        raise ProtocolError(
            f"announced payload of {length} bytes exceeds the "
            f"{max_payload}-byte limit"
        )
    return frame_type, length


def decode_frame(data: bytes) -> Tuple[FrameType, dict]:
    """Decode exactly one complete frame from ``data``.

    Args:
        data: The full frame bytes (header + payload, nothing more).

    Returns:
        The ``(frame_type, payload)`` pair.

    Raises:
        ProtocolError: On any framing violation, a length prefix that does
            not match ``len(data)``, or a payload that is not a JSON object.
    """
    if len(data) < HEADER_SIZE:
        raise ProtocolError(f"frame of {len(data)} bytes is shorter than the header")
    frame_type, length = _parse_header(data[:HEADER_SIZE], MAX_PAYLOAD_BYTES)
    if len(data) != HEADER_SIZE + length:
        raise ProtocolError(
            f"frame length mismatch: header announces {length} payload bytes, "
            f"{len(data) - HEADER_SIZE} present"
        )
    return frame_type, _parse_payload(data[HEADER_SIZE:])


def _parse_payload(body: bytes) -> dict:
    """Decode a payload buffer into the JSON object the schemas require."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"payload is not valid UTF-8 JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


class FrameDecoder:
    """Incremental frame parser for a TCP byte stream.

    Feed arbitrarily sliced chunks with :meth:`feed`; complete frames come
    back in order.  The decoder validates the header as soon as the first
    8 bytes arrive, so a malformed peer is rejected before its announced
    payload is buffered.

    Args:
        max_payload: Per-frame payload cap; beyond it :meth:`feed` raises.
    """

    def __init__(self, max_payload: int = MAX_PAYLOAD_BYTES) -> None:
        self._buffer = bytearray()
        self._max_payload = max_payload
        self._expected: Optional[Tuple[FrameType, int]] = None

    def feed(self, chunk: bytes) -> Iterator[Tuple[FrameType, dict]]:
        """Consume a chunk; yield every frame it completes.

        Args:
            chunk: The next bytes read from the stream (any length).

        Yields:
            ``(frame_type, payload)`` pairs, in wire order.

        Raises:
            ProtocolError: On a framing violation; the stream is
                unrecoverable past this point and must be closed.
        """
        self._buffer.extend(chunk)
        while True:
            if self._expected is None:
                if len(self._buffer) < HEADER_SIZE:
                    return
                self._expected = _parse_header(
                    bytes(self._buffer[:HEADER_SIZE]), self._max_payload
                )
                del self._buffer[:HEADER_SIZE]
            frame_type, length = self._expected
            if len(self._buffer) < length:
                return
            body = bytes(self._buffer[:length])
            del self._buffer[:length]
            self._expected = None
            yield frame_type, _parse_payload(body)

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered towards the next (incomplete) frame."""
        return len(self._buffer)


def encode_images(images: np.ndarray) -> dict:
    """Encode an image tensor as the wire's ``images`` payload object.

    Args:
        images: A ``(batch, channels, height, width)`` array; it is cast
            to little-endian float64 (the only dtype on the wire).

    Returns:
        ``{"shape": [...], "dtype": "<f8", "data": <base64>}``.

    Raises:
        ProtocolError: If ``images`` is not 4-dimensional or is empty.
    """
    array = np.ascontiguousarray(np.asarray(images, dtype=WIRE_DTYPE))
    if array.ndim != 4 or array.shape[0] == 0:
        raise ProtocolError(
            "images must be a non-empty (batch, channels, height, width) "
            f"array, got shape {array.shape}"
        )
    return {
        "shape": [int(dim) for dim in array.shape],
        "dtype": WIRE_DTYPE,
        "data": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def decode_images(payload: dict) -> np.ndarray:
    """Decode the wire's ``images`` payload object back into an array.

    Args:
        payload: The ``{"shape", "dtype", "data"}`` object of a REQUEST.

    Returns:
        The ``(batch, channels, height, width)`` float64 array.

    Raises:
        ProtocolError: On a missing field, a dtype other than
            :data:`WIRE_DTYPE`, a shape whose byte count exceeds
            :data:`MAX_PAYLOAD_BYTES`, a bad base64 body, a byte count that
            does not match the announced shape, or a NaN or infinite value.
    """
    if not isinstance(payload, dict):
        raise ProtocolError("images must be an object with shape/dtype/data")
    for field in ("shape", "dtype", "data"):
        if field not in payload:
            raise ProtocolError(f"images object is missing {field!r}")
    if payload["dtype"] != WIRE_DTYPE:
        raise ProtocolError(
            f"images dtype must be {WIRE_DTYPE!r}, got {payload['dtype']!r}"
        )
    shape = payload["shape"]
    if (
        not isinstance(shape, list)
        or len(shape) != 4
        or not all(isinstance(dim, int) and dim > 0 for dim in shape)
    ):
        raise ProtocolError(f"images shape must be 4 positive ints, got {shape!r}")
    # Python ints: numpy's int64 product wraps (2**32 * 2**32 reads as 0).
    expected = math.prod(shape) * 8
    if expected > MAX_PAYLOAD_BYTES:
        raise ProtocolError(
            f"images shape {shape} needs {expected} bytes, over the "
            f"{MAX_PAYLOAD_BYTES}-byte frame limit"
        )
    try:
        raw = base64.b64decode(payload["data"], validate=True)
    except (ValueError, TypeError) as error:
        raise ProtocolError(f"images data is not valid base64: {error}") from None
    if len(raw) != expected:
        raise ProtocolError(
            f"images data holds {len(raw)} bytes, shape {shape} needs {expected}"
        )
    images = np.frombuffer(raw, dtype=WIRE_DTYPE).reshape(shape)
    # A NaN or infinity has no integer code, and a huge finite value
    # overflows its image's activation scale: the failed forward would take
    # down every request coalesced into the same dispatch.
    if not within_input_range(images):
        raise ProtocolError(f"images must be finite with magnitude at most {MAX_INPUT_MAGNITUDE:g}")
    return images.copy()


def images_digest(images: np.ndarray) -> str:
    """Content digest naming an image tensor on the wire.

    Both sides compute the same value — ``sha256`` over the ASCII prefix
    ``"<f8:BxCxHxW:"`` followed by the tensor's little-endian float64
    bytes in C order — so a client can refer to previously transferred
    images by ``images_ref`` without a registration round-trip.

    Args:
        images: The image tensor (cast to the wire dtype first).

    Returns:
        The lowercase hex digest string.
    """
    array = np.ascontiguousarray(np.asarray(images, dtype=WIRE_DTYPE))
    prefix = f"{WIRE_DTYPE}:{'x'.join(str(dim) for dim in array.shape)}:"
    return hashlib.sha256(prefix.encode("ascii") + array.tobytes()).hexdigest()


def percentile_summary(latencies_s: List[float]) -> dict:
    """Tail-latency summary of a latency sample: p50 / p99 / p99.9 / max.

    Args:
        latencies_s: Per-request wall latencies in seconds.

    Returns:
        A dict with ``count``, ``p50_s``, ``p99_s``, ``p999_s`` and
        ``max_s`` (zeros when the sample is empty).

    Raises:
        ValueError: If any latency is NaN — a NaN would silently poison
            every percentile, so it is rejected at the door.
    """
    if not len(latencies_s):
        return {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "p999_s": 0.0, "max_s": 0.0}
    array = np.asarray(latencies_s, dtype=np.float64)
    if np.isnan(array).any():
        raise ValueError("latencies must not contain NaN")
    p50, p99, p999 = np.percentile(array, [50.0, 99.0, 99.9])
    return {
        "count": int(array.size),
        "p50_s": float(p50),
        "p99_s": float(p99),
        "p999_s": float(p999),
        "max_s": float(array.max()),
    }
