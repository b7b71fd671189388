"""Pipelined asyncio client for :class:`AsyncDataServer`.

One connection, client-assigned sequence numbers, and two calling
styles: :meth:`call` for one op at a time, :meth:`pipeline` to ship a
whole batch before reading any reply (the server answers strictly in
order, so replies are matched positionally and the echoed sequence
numbers are verified as they come back).

**Deadlines.**  Every :meth:`call`/:meth:`pipeline` carries a per-call
deadline (``timeout=`` per call, :attr:`DEFAULT_TIMEOUT` otherwise); a
call that misses it raises :class:`~repro.errors.ClientTimeoutError` —
typed apart from :class:`~repro.errors.TransportError`, because the
transport may be healthy while the server is merely hung, and a
timed-out *mutation* may or may not have been applied.  A timeout also
desynchronizes the connection: replies are matched positionally, so
once a reply is abandoned mid-read every later slot would be off by
one — the client marks itself broken and every later call fails fast
with a :class:`TransportError` telling the caller to reconnect.

**Retries.**  :meth:`call` retries an op only when *all three* hold:
the server answered (so the positional protocol is still in sync) with
an :class:`ErrorReply` marked ``retryable`` (a shard mid-restart, for
instance), and the op is idempotent (:data:`RETRYABLE_OPS` — evaluate
and ping).  Mutations are never auto-retried: a retryable refusal is
surfaced for the caller to decide, and a timeout is ambiguous anyway.
Backoff is exponential with full jitter, capped, and counted in
:attr:`retries_performed` so tests can observe the policy engaging.
The call's single deadline spans the whole retry loop — attempts *and*
backoff sleeps — so retries can never multiply the caller's timeout.
"""

from __future__ import annotations

import asyncio
import logging
import random
import socket
from collections import deque
from typing import Deque, List, Optional, Sequence, Union

from repro.core.user_query import UserQuery
from repro.errors import ClientTimeoutError, TransportError
from repro.serving.wire import (
    ErrorReply,
    EvaluateOp,
    FrameDecoder,
    IngestOp,
    LoadOp,
    PingOp,
    RevokeOp,
    UpdateOp,
    decode_message,
    encode_message,
)
from repro.xacml.policy import Policy
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

logger = logging.getLogger(__name__)

#: Ops that are safe to resend after a retryable server-side refusal:
#: decide/ping have no server-side effects.  Mutations (load, update,
#: revoke, ingest) are deliberately absent.
RETRYABLE_OPS = (EvaluateOp, PingOp)


class AsyncClient:
    """One served connection; create via :meth:`connect`."""

    #: Per-call deadline applied when a call does not pass its own
    #: ``timeout``.  ``None`` (or a non-positive value) waits forever —
    #: the pre-PR-7 behaviour, opt-in only.
    DEFAULT_TIMEOUT = 30.0

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        max_retries: int = 3,
        retry_base_delay: float = 0.05,
        retry_max_delay: float = 1.0,
        rng: Optional[random.Random] = None,
    ):
        self._reader = reader
        self._writer = writer
        #: Reply framing: bytes read from the socket are fed to one
        #: sans-IO decoder, and complete payloads wait here in order.
        self._decoder = FrameDecoder()  # guarded by: event-loop
        self._payloads: Deque[bytes] = deque()  # guarded by: event-loop
        self._seq = 0  # guarded by: event-loop
        self._timeout = timeout
        self.max_retries = max(0, max_retries)
        self.retry_base_delay = retry_base_delay
        self.retry_max_delay = retry_max_delay
        # Jitter need not be reproducible; tests inject their own rng.
        self._rng = rng if rng is not None else random.Random()  # analysis: allow[seed-random] retry jitter is deliberately unseeded; deterministic tests inject rng
        #: Set after a deadline miss: the positional reply protocol is
        #: off by one from here on, so the connection refuses further
        #: calls rather than mismatching replies.
        self._desynced = False  # guarded by: event-loop
        #: Observability: retryable-error resends and deadline misses.
        self.retries_performed = 0  # guarded by: event-loop
        self.timeouts = 0  # guarded by: event-loop

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        rcvbuf: Optional[int] = None,
        **kwargs,
    ) -> "AsyncClient":
        """Open a connection; *rcvbuf* shrinks the kernel receive buffer
        (set before connecting) so backpressure tests control how many
        response bytes the network path absorbs.  Remaining keyword
        arguments (``timeout``, ``max_retries``, ...) configure the
        client."""
        if rcvbuf is None:
            reader, writer = await asyncio.open_connection(host, port)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
                sock.setblocking(False)
                await asyncio.get_running_loop().sock_connect(sock, (host, port))
                reader, writer = await asyncio.open_connection(sock=sock)
            except BaseException:
                # Until open_connection hands the socket to a transport,
                # nothing else will ever close it.
                sock.close()
                raise
        return cls(reader, writer, **kwargs)

    async def __aenter__(self) -> "AsyncClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception as error:
            logger.debug("wait_closed during aclose: %s", error)

    # -- deadlines ---------------------------------------------------------------

    def _deadline(self, timeout: Optional[float]) -> Optional[float]:
        """Absolute loop-time deadline for one call, or None."""
        if timeout is None:
            timeout = self._timeout
        if timeout is None or timeout <= 0:
            return None
        return asyncio.get_running_loop().time() + timeout

    async def _bounded(self, coroutine, deadline: Optional[float]):
        """Run *coroutine* under the call deadline.

        A miss abandons the awaited read mid-slot — the connection is
        desynchronized from that point and marked unusable."""
        if deadline is None:
            return await coroutine
        remaining = deadline - asyncio.get_running_loop().time()
        try:
            if remaining <= 0:
                raise asyncio.TimeoutError
            return await asyncio.wait_for(coroutine, remaining)
        except asyncio.TimeoutError:
            self._desynced = True
            self.timeouts += 1
            raise ClientTimeoutError(
                "served call missed its deadline; the connection is "
                "desynchronized — reconnect to continue"
            ) from None

    def _check_usable(self) -> None:
        if self._desynced:
            raise TransportError(
                "connection desynchronized by an earlier timeout; "
                "open a new connection"
            )

    # -- raw op interface --------------------------------------------------------

    def send_nowait(self, op) -> int:
        """Buffer one op without flushing; returns its sequence number."""
        seq = self._seq
        # analysis: allow[guarded-by] sync helper invoked only from this client's coroutines, so still on the loop
        self._seq += 1
        self._writer.write(encode_message(seq, op))
        return seq

    async def call(self, op, timeout: Optional[float] = None):
        """Send one op and await its reply, with the retry policy.

        Retries (idempotent ops, retryable error replies only) resend
        the op after an exponential full-jitter backoff.  One overall
        deadline — ``timeout`` (or the default) measured from entry —
        bounds the *whole* loop, attempts and backoff sleeps included:
        a call with ``timeout=T`` returns (or raises) within ~``T``,
        never ``max_retries × T``.  When the budget runs out between
        attempts, the last (retryable) error reply is surfaced rather
        than sleeping past the deadline.
        """
        deadline = self._deadline(timeout)
        attempt = 0
        while True:
            reply = (await self._pipeline([op], deadline))[0]
            if not (
                isinstance(reply, ErrorReply)
                and reply.retryable
                and isinstance(op, RETRYABLE_OPS)
                and attempt < self.max_retries
            ):
                return reply
            attempt += 1
            cap = min(
                self.retry_base_delay * (2 ** (attempt - 1)),
                self.retry_max_delay,
            )
            delay = self._rng.uniform(0, cap)
            if deadline is not None:
                remaining = deadline - asyncio.get_running_loop().time()
                if remaining <= delay:
                    # Out of budget: the next attempt could not finish
                    # inside the deadline anyway.
                    return reply
            self.retries_performed += 1
            await asyncio.sleep(delay)

    async def pipeline(self, ops: Sequence, timeout: Optional[float] = None):
        """Ship every op, then read every reply (in order).

        One deadline covers the whole batch.  No automatic retries at
        this level: a pipeline mixes op kinds, and partial resends
        would reorder the batch semantics callers rely on.
        """
        return await self._pipeline(ops, self._deadline(timeout))

    async def _pipeline(self, ops: Sequence, deadline: Optional[float]):
        self._check_usable()
        seqs = [self.send_nowait(op) for op in ops]
        await self._bounded(self._writer.drain(), deadline)
        return [
            await self._bounded(self._read_reply(expected), deadline)
            for expected in seqs
        ]

    async def pipeline_timed(self, ops: Sequence, timeout: Optional[float] = None):
        """Like :meth:`pipeline`, but returns ``(reply, seconds)`` pairs.

        Each op is timed from batch admission (the shared write) to its
        own reply arriving — the client-observed latency a load
        generator wants per op, queueing delay behind earlier replies
        included.
        """
        self._check_usable()
        deadline = self._deadline(timeout)
        loop = asyncio.get_running_loop()
        seqs = [self.send_nowait(op) for op in ops]
        started = loop.time()
        await self._bounded(self._writer.drain(), deadline)
        timed = []
        for expected in seqs:
            reply = await self._bounded(self._read_reply(expected), deadline)
            timed.append((reply, loop.time() - started))
        return timed

    #: Bytes asked of the socket per read while waiting for a reply.
    READ_CHUNK = 64 * 1024

    async def _next_payload(self) -> bytes:
        """The next reply payload, framed by the connection's
        :class:`FrameDecoder`.  An oversized length prefix or an EOF
        mid-frame raises its :class:`TransportError` once the frames
        completed before it are consumed; a clean EOF raises one too."""
        payloads = self._payloads
        while not payloads:
            decoder = self._decoder
            if decoder.error is not None:
                raise decoder.error
            data = await self._reader.read(self.READ_CHUNK)
            if not data:
                decoder.eof()
                raise TransportError("server closed the connection")
            payloads.extend(decoder.feed(data))
        return payloads.popleft()

    async def _read_reply(self, expected_seq: int):
        seq, reply = decode_message(await self._next_payload())
        # seq -1 flags a reply to a frame the server could not decode;
        # it still occupies this pipeline slot (replies are in order).
        if seq not in (expected_seq, -1):
            raise TransportError(
                f"reply out of order: expected seq {expected_seq}, got {seq}"
            )
        return reply

    # -- convenience wrappers ----------------------------------------------------

    async def evaluate(
        self,
        request: Union[Request, str],
        user_query: Optional[Union[UserQuery, str]] = None,
        decide_only: bool = False,
        timeout: Optional[float] = None,
    ):
        if isinstance(request, Request):
            request = request_to_xml(request)
        if isinstance(user_query, UserQuery):
            user_query = user_query.to_xml()
        return await self.call(
            EvaluateOp(request, user_query, decide_only), timeout=timeout
        )

    async def load(self, policy: Union[Policy, str]):
        if isinstance(policy, Policy):
            policy = policy_to_xml(policy)
        return await self.call(LoadOp(policy))

    async def update(self, policy: Union[Policy, str]):
        if isinstance(policy, Policy):
            policy = policy_to_xml(policy)
        return await self.call(UpdateOp(policy))

    async def revoke(self, policy_id: str):
        return await self.call(RevokeOp(policy_id))

    async def ingest(self, stream: str, records: Sequence[dict]):
        return await self.call(IngestOp(stream, list(records)))

    async def ping(self, timeout: Optional[float] = None):
        return await self.call(PingOp(), timeout=timeout)
