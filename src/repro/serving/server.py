"""``asyncio``-based serving front-end over a real :class:`DataServer`.

The paper's prototype serves clients over sockets (Section 4.1); this
module puts a real TCP listener in front of the reproduction's data
server.  Design:

Connection anatomy
    Each accepted connection is one :class:`asyncio.Protocol`, with no
    task of its own.  ``data_received`` feeds the bytes to the sans-IO
    :class:`~repro.serving.wire.FrameDecoder`, decodes every completed
    frame onto a per-connection deque, and then *pumps*: it executes
    the ready ops synchronously, in arrival order, and answers the
    whole batch with one ``transport.write``.  A pipelined client
    therefore never observes reordering within its connection, and a
    read that delivered many frames costs one send, not one per reply.

Backpressure
    The pump stops while the transport is over its write watermark
    (``write_high_water``, via the ``pause_writing``/``resume_writing``
    callbacks), so a slow reader leaves ops waiting on the deque.
    Reading is paused while the deque holds ``pipeline_depth`` ops or
    the global count of decoded-but-unanswered ops reaches
    ``max_in_flight``; it resumes when both drop below their bounds.
    Both bounds are checked after each read, so one read's frames may
    overshoot them.  ``read_pauses`` counts every pause, so tests can
    observe the bounds engaging.

Execution
    Operations run on the event-loop thread, which serializes them
    exactly like the in-process :class:`DataServer` (whose engine and
    registries are not thread-safe) — the differential harness relies
    on this.  The one exception: when a :class:`ProcessShardPool` is
    attached, PDP evaluation is shipped to the pool from an executor
    thread (the pool is multi-driver safe).  The pump stops at that op;
    the future's done-callback threads the decision back into the PEP
    via the ``pdp_response`` seam, answers the op and restarts the
    pump, so the ops behind it keep their order.

Failure containment
    Payload-level garbage inside an intact frame produces an in-order
    :class:`ErrorReply` and the connection lives on.  Framing-level
    corruption (oversized length prefix, truncated frame) ends only
    that connection's input: the frames completed before it are still
    answered, then the connection closes.  On a clean EOF every op
    already pipelined is answered before the close.  A client vanishing
    mid-pipeline drops its waiting ops and releases their in-flight
    count; other connections never notice.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import socket
import time
from collections import deque
from typing import Deque, Optional, Set

from repro.core.user_query import UserQuery
from repro.errors import ShardUnavailableError, TransportError
from repro.framework.messages import StreamRequestMessage
from repro.framework.server import DataServer
from repro.serving.stats import LatencyRecorder
from repro.serving.wire import (
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
    encode_message,
)
from repro.xacml.response import Decision
from repro.xacml.xml_io import parse_request_xml

logger = logging.getLogger(__name__)


def _error_reply(error: Exception) -> ErrorReply:
    """The wire form of an op failure."""
    if isinstance(error, ShardUnavailableError):
        # A dead/restarting shard is a transient, *retryable* fault
        # (unless the shard was declared degraded): flag it so
        # resilient clients back off and retry while the supervisor
        # respawns the worker — the connection stays usable either way.
        return ErrorReply(
            type(error).__name__, str(error), retryable=error.retryable
        )
    return ErrorReply(type(error).__name__, str(error))


class AsyncDataServer:
    """TCP front-end: concurrent connections, pipelining, backpressure.

    Use::

        front = await AsyncDataServer(server).start()
        ...
        await front.aclose()

    ``port=0`` (the default) binds an ephemeral loopback port; the
    bound port is available as :attr:`port` after :meth:`start`.
    """

    def __init__(
        self,
        server: DataServer,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 256,
        pipeline_depth: int = 32,
        write_high_water: int = 64 * 1024,
        sndbuf: Optional[int] = None,
        pool=None,
    ):
        self.server = server
        self.host = host
        self.port = port
        self.max_in_flight = max(1, max_in_flight)
        self.pipeline_depth = max(1, pipeline_depth)
        self.write_high_water = write_high_water
        #: Shrink the kernel send buffer (per accepted socket) so the
        #: userspace write watermark — not ~200 KB of kernel buffering —
        #: decides when backpressure engages.  Tests use this.
        self.sndbuf = sndbuf
        self.pool = pool
        self.stats = LatencyRecorder()
        self.connections_total = 0  # guarded by: event-loop
        self.active_connections = 0  # guarded by: event-loop
        #: Reader stalls: how often a connection's reading was paused
        #: by a full pipeline or the in-flight bound (the backpressure
        #: signal).
        self.read_pauses = 0  # guarded by: event-loop
        #: Connections whose input ended in a framing-level protocol
        #: violation or a transport error.
        self.protocol_errors = 0  # guarded by: event-loop
        #: Decoded-but-unanswered ops across all connections.
        self._in_flight = 0  # guarded by: event-loop
        self._connections: Set["_Connection"] = set()  # guarded by: event-loop
        #: Connections with reading paused, rechecked as ops are answered.
        self._paused: Set["_Connection"] = set()  # guarded by: event-loop
        self._asyncio_server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "AsyncDataServer":
        loop = asyncio.get_running_loop()
        self._asyncio_server = await loop.create_server(
            functools.partial(_Connection, self), self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        return self

    async def __aenter__(self) -> "AsyncDataServer":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Stop accepting, then tear down every live connection."""
        if self._asyncio_server is None:
            return
        self._asyncio_server.close()
        for connection in list(self._connections):
            connection.abort()
        await self._asyncio_server.wait_closed()
        self._asyncio_server = None
        # The transports report connection_lost on the next iteration.
        await asyncio.sleep(0)

    # -- operation execution -----------------------------------------------------

    async def execute(self, message):
        """Execute one decoded op; never raises — failures become
        :class:`ErrorReply`, exactly what goes on the wire.  Public so
        differential harnesses can replay served semantics in-process.
        """
        request = pdp_response = None
        if self.pool is not None and isinstance(message, EvaluateOp):
            try:
                request, decision = self._pool_decision(message)
                pdp_response = await decision
            except Exception as error:
                return _error_reply(error)
        return self._reply(message, request, pdp_response)

    def _pool_decision(self, op: EvaluateOp):
        """Parse *op*'s request and ship its PDP call to the pool:
        ``(request, future)``."""
        request = parse_request_xml(op.request_xml)
        # The pool is multi-driver: executor threads are drivers.
        future = asyncio.get_running_loop().run_in_executor(
            None, self.pool.evaluate, request
        )
        return request, future

    def _reply(self, message, request=None, pdp_response=None):
        """The synchronous core of :meth:`execute`: the reply for one op,
        given the pool's decision when the PDP already ran elsewhere."""
        try:
            if isinstance(message, EvaluateOp):
                return self._evaluate(message, request, pdp_response)
            return self._execute_other(message)
        except Exception as error:
            return _error_reply(error)

    def _execute_other(self, message):
        if isinstance(message, (LoadOp, UpdateOp)):
            apply = (
                self.server.load_policy
                if isinstance(message, LoadOp)
                else self.server.update_policy
            )
            apply(message.policy_xml)
            op = "load" if isinstance(message, LoadOp) else "update"
            return AckReply(op)
        if isinstance(message, RevokeOp):
            self.server.remove_policy(message.policy_id)
            return AckReply("revoke", detail=message.policy_id)
        if isinstance(message, IngestOp):
            count = self.server.instance.engine.push_batch(
                message.stream, message.records
            )
            return AckReply("ingest", count=count)
        if isinstance(message, PingOp):
            return AckReply("ping")
        return ErrorReply("TransportError", f"unserveable op {type(message).__name__}")

    def _evaluate(self, op: EvaluateOp, request=None, pdp_response=None):
        if request is None:
            request = parse_request_xml(op.request_xml)
        if op.decide_only:
            response = (
                pdp_response
                if pdp_response is not None
                else self.server.instance.pdp.evaluate(request)
            )
            return EvaluateReply(
                ok=response.decision is Decision.PERMIT,
                decision=response.decision.value,
                policy_id=response.policy_id,
            )
        user_query = (
            UserQuery.from_xml(op.user_query_xml) if op.user_query_xml else None
        )
        message = StreamRequestMessage(request, user_query)
        response, _timing = self.server.process(message, pdp_response=pdp_response)
        return EvaluateReply(
            ok=response.ok,
            handle_uri=response.handle_uri,
            decision=response.decision,
            policy_id=response.policy_id,
            error_kind=response.error_kind,
            error_detail=response.error_detail,
        )


class _Connection(asyncio.Protocol):
    """One accepted connection: decode, execute and answer inline.

    Every callback runs on the event loop, so the state below needs no
    lock; ops waiting on the deque count toward the front's in-flight
    total until they are answered or dropped.
    """

    def __init__(self, front: AsyncDataServer) -> None:
        self._front = front
        self._transport: Optional[asyncio.Transport] = None
        self._decoder = FrameDecoder()
        #: Decoded ops waiting to run: ``(seq, received, message)``.
        self._pending: Deque[tuple] = deque()  # guarded by: event-loop
        #: The pool future the pump is stopped at, if any.
        self._waiting: Optional[asyncio.Future] = None  # guarded by: event-loop
        self._writing_paused = False  # guarded by: event-loop
        self._reading_paused = False  # guarded by: event-loop
        #: No more input (EOF or a framing violation): answer what is
        #: pending, then close.
        self._input_done = False  # guarded by: event-loop
        self._closed = False  # guarded by: event-loop

    # -- transport callbacks -----------------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        front = self._front
        self._transport = transport
        front.connections_total += 1
        front.active_connections += 1
        front._connections.add(self)
        sock = transport.get_extra_info("socket")
        if front.sndbuf is not None and sock is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, front.sndbuf)
        transport.set_write_buffer_limits(high=front.write_high_water)

    def data_received(self, data: bytes) -> None:
        if self._input_done:
            return
        received = time.perf_counter()
        decoder = self._decoder
        try:
            frames = decoder.feed(data)
        except TransportError:
            frames = ()
        if frames:
            pending = self._pending
            for payload in frames:
                try:
                    seq, message = decode_message(payload)
                except TransportError as error:
                    # An intact frame with a garbage payload: answer it
                    # (in order, like any op) and keep serving.
                    seq, message = -1, ErrorReply("TransportError", str(error))
                pending.append((seq, received, message))
            self._front._in_flight += len(frames)
        if decoder.error is not None:
            self._end_input(protocol_error=True)
        self._pump()

    def eof_received(self) -> bool:
        if not self._input_done:
            try:
                self._decoder.eof()
            except TransportError:
                self._end_input(protocol_error=True)
            else:
                self._end_input(protocol_error=False)
        # Keep the transport open (half-closed) while ops are still to
        # be answered; the pump closes it once they are.
        return bool(self._pending) or self._waiting is not None

    def pause_writing(self) -> None:
        self._writing_paused = True

    def resume_writing(self) -> None:
        self._writing_paused = False
        self._pump()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        front = self._front
        if exc is not None:
            logger.debug("connection lost: %r", exc)
            if not self._input_done:
                front.protocol_errors += 1
        self._shut()
        front.active_connections -= 1
        front._connections.discard(self)

    def abort(self) -> None:
        """Server shutdown: drop the waiting ops and the connection."""
        self._shut()
        self._transport.abort()

    # -- the pump ---------------------------------------------------------------

    def _pump(self, done: Optional[tuple] = None) -> None:
        """Run every ready op in arrival order and answer the batch with
        one write.  *done* is an op already executed, answered first."""
        if self._closed:
            return
        front = self._front
        pending = self._pending
        answered = [done] if done is not None else []
        while pending and self._waiting is None and not self._writing_paused:
            seq, received, message = pending.popleft()
            if isinstance(message, ErrorReply):
                answered.append((seq, received, None, message))  # decode failure
                continue
            if front.pool is not None and isinstance(message, EvaluateOp):
                try:
                    request, future = front._pool_decision(message)
                except Exception as error:
                    answered.append((seq, received, "EvaluateOp", _error_reply(error)))
                    continue
                self._waiting = future
                future.add_done_callback(functools.partial(
                    self._pdp_done, seq, received, message, request
                ))
                break
            answered.append(
                (seq, received, type(message).__name__, front._reply(message))
            )
        if answered:
            self._answer(answered)
        self._update_reading()
        if self._input_done and not pending and self._waiting is None:
            self._transport.close()

    def _pdp_done(self, seq, received, message, request, future) -> None:
        """A pool decision arrived: finish its op and restart the pump."""
        if future.cancelled():
            return  # the connection went away first
        error = future.exception()
        if self._closed:
            return  # its in-flight count went with the connection
        self._waiting = None
        if error is None:
            reply = self._front._reply(message, request, future.result())
        else:
            reply = _error_reply(error)
        self._pump((seq, received, "EvaluateOp", reply))

    def _answer(self, answered: list) -> None:
        """One write for a batch of ``(seq, received, op, reply)``."""
        frames = []
        for seq, _, _, reply in answered:
            try:
                frames.append(encode_message(seq, reply))
            except TransportError as error:
                # A reply too large for one frame still answers its slot.
                frames.append(encode_message(seq, _error_reply(error)))
        self._transport.write(b"".join(frames))
        now = time.perf_counter()
        stats = self._front.stats
        for _, received, op_name, _ in answered:
            if op_name is not None:
                stats.record(op_name, now - received)
        self._release(len(answered))

    # -- in-flight and read-pause bookkeeping --------------------------------------

    def _release(self, count: int) -> None:
        """*count* ops left flight; resume connections the bound paused."""
        front = self._front
        front._in_flight -= count
        if front._paused and front._in_flight < front.max_in_flight:
            for connection in list(front._paused):
                connection._update_reading()

    def _update_reading(self) -> None:
        """Pause or resume reading to match the pipeline and in-flight bounds."""
        front = self._front
        if self._closed or self._input_done:
            front._paused.discard(self)
            return
        full = (
            len(self._pending) >= front.pipeline_depth
            or front._in_flight >= front.max_in_flight
        )
        if full and not self._reading_paused:
            self._reading_paused = True
            front.read_pauses += 1
            front._paused.add(self)
            self._transport.pause_reading()
        elif self._reading_paused and not full:
            self._reading_paused = False
            front._paused.discard(self)
            self._transport.resume_reading()

    def _end_input(self, protocol_error: bool) -> None:
        """No more ops will arrive; the pending ones are still answered."""
        self._input_done = True
        if protocol_error:
            self._front.protocol_errors += 1

    def _shut(self) -> None:
        """Drop the waiting ops and release their in-flight count."""
        if self._closed:
            return
        self._closed = True
        dropped = len(self._pending)
        if self._waiting is not None:
            dropped += 1
            self._waiting.cancel()
        self._pending.clear()
        self._front._paused.discard(self)
        if dropped:
            self._release(dropped)
