"""The load generator: prepared frames over loopback TCP, one asyncio loop.

The generator writes frames built before timing started and keeps the
raw reply bytes; replies are decoded and checked after the clock stops.
"""

from __future__ import annotations

import asyncio
import struct
import time
from dataclasses import dataclass, field
from typing import List, Sequence

_HEADER = struct.Struct("!I")

#: Time a phase (or a set-up pipeline) may take before every op still
#: outstanding counts as timed out.
GRACE_SECONDS = 30.0


class ReplyReader:
    """Splits the reply byte stream into frame payloads."""

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        self._buffer = bytearray()
        self._frames: List[bytes] = []

    async def next(self) -> bytes:
        while not self._frames:
            chunk = await self._reader.read(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
            offset = 0
            while len(self._buffer) - offset >= 4:
                (length,) = _HEADER.unpack_from(self._buffer, offset)
                end = offset + 4 + length
                if end > len(self._buffer):
                    break
                self._frames.append(bytes(self._buffer[offset + 4:end]))
                offset = end
            del self._buffer[:offset]
            self._frames.reverse()
        return self._frames.pop()


@dataclass
class PhaseResult:
    """What one connection sent and got back during one phase."""

    sent: List[int] = field(default_factory=list)
    replies: List[bytes] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    timeouts: int = 0
    finished_at: float = 0.0


class Connection:
    def __init__(self, reader, writer):
        self.replies = ReplyReader(reader)
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass

    async def pipeline(self, table: Sequence[bytes], ops: Sequence[int],
                       depth: int = 64) -> List[bytes]:
        """Send *ops* with up to *depth* outstanding; untimed set-up use."""
        result = await self.capacity(table, ops, depth)
        if result.timeouts:
            raise TimeoutError(f"{result.timeouts} set-up ops timed out")
        return result.replies

    async def sequential(self, table: Sequence[bytes], ops: Sequence[int]) -> PhaseResult:
        """Send *ops* one at a time, each timed from write to reply."""
        result = PhaseResult()
        clock = time.perf_counter
        write, replies, latencies = self.writer.write, self.replies, result.latencies
        try:
            async with asyncio.timeout(GRACE_SECONDS):
                for op in ops:
                    started = clock()
                    write(table[op])
                    result.sent.append(op)
                    result.replies.append(await replies.next())
                    latencies.append(clock() - started)
        except TimeoutError:
            result.timeouts = len(result.sent) - len(result.replies)
        result.finished_at = clock()
        return result

    async def capacity(self, table: Sequence[bytes], ops: Sequence[int],
                       depth: int) -> PhaseResult:
        """Send *ops* in a closed loop with up to *depth* outstanding."""
        result = PhaseResult()
        pending = iter(ops)
        write, replies = self.writer.write, self.replies
        outstanding = 0

        def send_next() -> bool:
            op = next(pending, None)
            if op is None:
                return False
            write(table[op])
            result.sent.append(op)
            return True

        try:
            async with asyncio.timeout(GRACE_SECONDS):
                while outstanding < depth and send_next():
                    outstanding += 1
                await self.writer.drain()
                while outstanding:
                    result.replies.append(await replies.next())
                    outstanding -= 1
                    if send_next():
                        outstanding += 1
                        await self.writer.drain()
        except TimeoutError:
            result.timeouts = outstanding
        result.finished_at = time.perf_counter()
        return result
