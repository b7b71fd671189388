"""The one-protocol connection loop: frames decoded, executed and
answered inline, one transport write per batch.

These pin what the loop adds on top of the ordering and backpressure
tests: batched replies, answers after a half-close, answers for the
frames that preceded a corrupt header, and request order with a shard
pool in the path.
"""

import asyncio
import struct

import pytest

from repro.errors import TransportError
from repro.serving import AsyncClient, AsyncDataServer
from repro.serving import server as server_module
from repro.serving.wire import (
    MAX_FRAME_BYTES,
    AckReply,
    EvaluateOp,
    EvaluateReply,
    PingOp,
    encode_message,
)
from repro.xacml.request import Request
from repro.xacml.sharding import ProcessShardPool
from repro.xacml.xml_io import request_to_xml

from serving_helpers import TIMEOUT, make_data_server


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


def evaluate_op(subject="LTA", decide_only=True):
    return EvaluateOp(
        request_to_xml(Request.simple(subject, "weather")), None, decide_only
    )


@pytest.fixture
def server_writes(monkeypatch):
    """Every server-side ``transport.write``, as the byte count written."""
    writes = []
    connection_made = server_module._Connection.connection_made

    def counting_connection_made(self, transport):
        write = transport.write

        def counted(data):
            writes.append(len(data))
            write(data)

        transport.write = counted
        connection_made(self, transport)

    monkeypatch.setattr(
        server_module._Connection, "connection_made", counting_connection_made
    )
    return writes


class TestBatchedReplies:
    def test_one_client_write_of_pings_is_answered_in_few_writes(
        self, server_writes
    ):
        async def scenario():
            async with AsyncDataServer(make_data_server()) as front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port
                ) as client:
                    client._writer.write(
                        b"".join(encode_message(seq, PingOp()) for seq in range(32))
                    )
                    await client._writer.drain()
                    # _read_reply checks each echoed sequence number, so
                    # the replies arrive in request order.
                    replies = [await client._read_reply(seq) for seq in range(32)]
                    assert all(
                        isinstance(r, AckReply) and r.op == "ping" for r in replies
                    )
                stats = front.stats.snapshot()
            assert stats["PingOp"].count == 32

        run(scenario())
        assert 1 <= len(server_writes) < 8


class TestHalfClose:
    def test_client_half_close_after_a_pipeline_gets_every_reply(self):
        async def scenario():
            # A slow-reading client: the server stops its pump at the
            # write watermark, so ops are still waiting when EOF arrives.
            front = AsyncDataServer(
                make_data_server(),
                write_high_water=1024,
                sndbuf=4096,
                pipeline_depth=512,
                max_in_flight=1024,
            )
            async with front:
                client = await AsyncClient.connect(
                    "127.0.0.1", front.port, rcvbuf=4096
                )
                async with client:
                    ops = [
                        PingOp() if i % 3 else evaluate_op() for i in range(150)
                    ]
                    seqs = [client.send_nowait(op) for op in ops]
                    await client._writer.drain()
                    client._writer.write_eof()
                    await asyncio.sleep(0.05)
                    replies = [await client._read_reply(seq) for seq in seqs]
                    for op, reply in zip(ops, replies):
                        if isinstance(op, PingOp):
                            assert reply.op == "ping"
                        else:
                            assert isinstance(reply, EvaluateReply) and reply.ok
                    # Then the server closes its side.
                    assert await client._reader.read() == b""
                assert front.protocol_errors == 0

        run(scenario())


    def test_half_close_while_a_pool_decision_is_pending(self):
        # The pump stops at each pool evaluate, so EOF arrives while
        # ops still wait behind the executor future.
        server = make_data_server(pdp_shards=4)

        async def scenario(pool):
            async with AsyncDataServer(server, pool=pool) as front:
                client = await AsyncClient.connect("127.0.0.1", front.port)
                async with client:
                    ops = [evaluate_op() if i % 2 else PingOp() for i in range(20)]
                    seqs = [client.send_nowait(op) for op in ops]
                    client._writer.write_eof()
                    await client._writer.drain()
                    replies = [await client._read_reply(seq) for seq in seqs]
                    assert [type(r) for r in replies] == [
                        EvaluateReply if i % 2 else AckReply for i in range(20)
                    ]
                    assert all(r.ok for r in replies if isinstance(r, EvaluateReply))
                    assert await client._reader.read() == b""

        with ProcessShardPool(server.instance.store) as pool:
            run(scenario(pool))


class TestCorruptHeaderMidChunk:
    def test_frames_before_a_corrupt_header_are_answered_then_closed(self):
        async def scenario():
            async with AsyncDataServer(make_data_server()) as front:
                bad = await AsyncClient.connect("127.0.0.1", front.port)
                good = await AsyncClient.connect("127.0.0.1", front.port)
                bad._writer.write(
                    b"".join(encode_message(seq, PingOp()) for seq in range(3))
                    + struct.pack("!I", MAX_FRAME_BYTES + 1)
                )
                await bad._writer.drain()
                for seq in range(3):
                    assert (await bad._read_reply(seq)).op == "ping"
                with pytest.raises(TransportError):
                    await bad._read_reply(3)
                assert front.protocol_errors == 1
                assert (await good.ping()).op == "ping"
                await bad.aclose()
                await good.aclose()

        run(scenario())


class TestPoolPathOrdering:
    def test_pipelined_evaluates_and_pings_return_in_request_order(self):
        server = make_data_server(subjects=("LTA", "NEA"), pdp_shards=4)

        async def scenario(pool):
            async with AsyncDataServer(server, pool=pool) as front:
                async with await AsyncClient.connect(
                    "127.0.0.1", front.port
                ) as client:
                    ops = []
                    for i in range(48):
                        if i % 3 == 2:
                            ops.append(PingOp())
                        else:
                            subject = ("LTA", "NEA", "stranger")[i // 3 % 3]
                            ops.append(evaluate_op(subject, decide_only=i % 2 == 0))
                    replies = await client.pipeline(ops)
            for op, reply in zip(ops, replies):
                if isinstance(op, PingOp):
                    assert isinstance(reply, AckReply) and reply.op == "ping"
                    continue
                assert isinstance(reply, EvaluateReply)
                if "stranger" in op.request_xml:
                    assert not reply.ok
                else:
                    assert reply.ok
                    assert reply.policy_id in {"p:LTA", "p:NEA"}
                    assert reply.policy_id[2:] in op.request_xml

        with ProcessShardPool(server.instance.store) as pool:
            run(scenario(pool))
