"""Client reply framing through the sans-IO :class:`FrameDecoder`.

A stub server writes crafted byte sequences, so the client must cope
with replies split across reads, several replies in one read, and the
framing violations that end a connection: an oversized length prefix
(after the replies completed before it are handed out), an EOF
mid-frame, and a clean EOF while a reply is awaited.
"""

import asyncio
import struct

import pytest

from repro.errors import TransportError
from repro.serving import AsyncClient
from repro.serving.wire import MAX_FRAME_BYTES, AckReply, encode_message

from serving_helpers import TIMEOUT


def ack(seq):
    return encode_message(seq, AckReply("ping"))


async def with_stub(chunks, scenario):
    """Serve one connection that writes *chunks* (pausing between them
    so each arrives in its own read), then closes."""

    async def handler(reader, writer):
        for chunk in chunks:
            writer.write(chunk)
            await writer.drain()
            await asyncio.sleep(0.01)
        writer.close()

    server = await asyncio.start_server(handler, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        client = await AsyncClient.connect("127.0.0.1", port)
        async with client:
            await scenario(client)
    finally:
        server.close()
        await server.wait_closed()


def run(chunks, scenario):
    asyncio.run(asyncio.wait_for(with_stub(chunks, scenario), TIMEOUT))


class TestClientFraming:
    def test_replies_split_and_coalesced_across_reads(self):
        frames = ack(0) + ack(1) + ack(2)
        # One byte at a time for the first reply, the rest in one write.
        chunks = [frames[i:i + 1] for i in range(len(ack(0)))] + [frames[len(ack(0)):]]

        async def scenario(client):
            replies = [await client._read_reply(seq) for seq in range(3)]
            assert all(reply.op == "ping" for reply in replies)

        run(chunks, scenario)

    def test_oversized_reply_after_a_good_one(self):
        chunks = [ack(0) + struct.pack("!I", MAX_FRAME_BYTES + 1)]

        async def scenario(client):
            assert (await client._read_reply(0)).op == "ping"
            with pytest.raises(TransportError, match="exceeds"):
                await client._read_reply(1)

        run(chunks, scenario)

    def test_eof_mid_frame(self):
        chunks = [ack(0)[:-3]]

        async def scenario(client):
            with pytest.raises(TransportError, match="mid-frame"):
                await client._read_reply(0)

        run(chunks, scenario)

    def test_clean_eof_while_awaiting_a_reply(self):
        async def scenario(client):
            assert (await client._read_reply(0)).op == "ping"
            with pytest.raises(TransportError, match="closed the connection"):
                await client._read_reply(1)

        run([ack(0)], scenario)

    def test_out_of_order_reply_rejected(self):
        async def scenario(client):
            with pytest.raises(TransportError, match="out of order"):
                await client._read_reply(5)

        run([ack(4)], scenario)
