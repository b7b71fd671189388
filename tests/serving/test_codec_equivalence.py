"""Codec pins: the precomputed-field encoder emits exactly the bytes of
the ``dataclasses.asdict`` encoding it replaced, and the frame decoder
never drops frames that completed before a corrupt length prefix."""

import dataclasses
import json
import struct

import pytest

from repro.errors import TransportError
from repro.serving.wire import (
    MAX_FRAME_BYTES,
    MESSAGE_TYPES,
    AckReply,
    ErrorReply,
    EvaluateOp,
    EvaluateReply,
    FrameDecoder,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    UpdateOp,
    decode_message,
    encode_frame,
    encode_message,
)

#: At least one instance per registered type; ``None`` fields and
#: nested record dicts/lists included.
SAMPLES = [
    EvaluateOp("<Request/>"),
    EvaluateOp("<Request/>", "<Query/>", True),
    LoadOp("<Policy PolicyId='p'/>"),
    UpdateOp("<Policy PolicyId='p'/>"),
    RevokeOp("p:LTA"),
    IngestOp("weather"),
    IngestOp(
        "weather",
        [
            {"samplingtime": 1, "rainrate": 7.5, "station": "S1"},
            {"samplingtime": 2, "rainrate": None, "tags": ["a", "b"]},
            {"nested": {"x": [1, {"y": None}]}, "unicode": "café"},
        ],
    ),
    PingOp(),
    EvaluateReply(True),
    EvaluateReply(False, "uri:1", "Deny", None, "denied", "no policy"),
    AckReply("ingest", None, 20),
    AckReply("revoke", "p:LTA"),
    ErrorReply("TransportError"),
    ErrorReply("ShardUnavailableError", "shard 2 restarting", True),
]


def asdict_encoding(seq, message):
    """The encoding as it was built before: ``asdict`` + ``json.dumps``."""
    op = {cls: name for name, cls in MESSAGE_TYPES.items()}[type(message)]
    envelope = {"seq": seq, "op": op, "body": dataclasses.asdict(message)}
    return encode_frame(json.dumps(envelope, separators=(",", ":")).encode())


def test_samples_cover_every_registered_type():
    assert {type(m) for m in SAMPLES} == set(MESSAGE_TYPES.values())


@pytest.mark.parametrize("message", SAMPLES, ids=repr)
def test_encoding_is_byte_identical_to_asdict(message):
    for seq in (0, 7, 2**31 - 1):
        assert encode_message(seq, message) == asdict_encoding(seq, message)


class TestFrameDecoderKeepsCompletedFrames:
    def test_frames_before_an_oversized_prefix_are_returned(self):
        frames = [encode_message(seq, PingOp()) for seq in range(3)]
        bad = struct.pack("!I", MAX_FRAME_BYTES + 1)
        decoder = FrameDecoder()
        payloads = decoder.feed(b"".join(frames) + bad + b"tail")
        assert [decode_message(p)[0] for p in payloads] == [0, 1, 2]
        assert isinstance(decoder.error, TransportError)
        # The violation is raised on the next call, never swallowed.
        with pytest.raises(TransportError):
            decoder.feed(encode_message(3, PingOp()))
        with pytest.raises(TransportError):
            decoder.eof()

    def test_leading_oversized_prefix_raises_at_once(self):
        decoder = FrameDecoder()
        with pytest.raises(TransportError):
            decoder.feed(struct.pack("!I", MAX_FRAME_BYTES + 1))
        assert decoder.error is not None
