"""Real asyncio serving front-end (the paper's Section 4.1 socket layer).

The simulation stack (`repro.framework`) models the prototype's
entities over a virtual clock; this package puts a real wire in front
of the same :class:`~repro.framework.server.DataServer`:

``wire``
    Length-prefixed frames and the JSON codec for the five operation
    types (evaluate / load / update / revoke / ingest) plus replies.
``server``
    :class:`AsyncDataServer` — one ``asyncio.Protocol`` per connection
    that decodes, executes and answers each read's frames inline, with
    pipeline, in-flight and write-buffer backpressure.
``client``
    :class:`AsyncClient` — pipelined batches over one connection, with
    per-call deadlines and retry/backoff on retryable errors.
``stats``
    :class:`LatencyRecorder` — per-op p50/p90/p99 in the dbworkload
    run-table shape.
"""

from repro.serving.client import RETRYABLE_OPS, AsyncClient
from repro.serving.server import AsyncDataServer
from repro.serving.stats import LatencyRecorder
from repro.serving.wire import (
    MAX_FRAME_BYTES,
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

__all__ = [
    "RETRYABLE_OPS",
    "AsyncClient",
    "AsyncDataServer",
    "LatencyRecorder",
    "MAX_FRAME_BYTES",
    "AckReply",
    "ErrorReply",
    "EvaluateOp",
    "EvaluateReply",
    "FrameDecoder",
    "IngestOp",
    "LoadOp",
    "PingOp",
    "RevokeOp",
    "UpdateOp",
    "decode_message",
    "encode_frame",
    "encode_message",
]
