"""The server process: a default ``AsyncDataServer`` over the Table 3 streams.

:func:`serve` is the entry function of the spawned server process.  It
builds the production serving path in its default configuration (no
shard pool, no ``pdp_shards``) and answers control requests from the
benchmark over a pipe, on the server's own event loop, so every
snapshot it returns is consistent with the ops served before it.
Control requests never touch the measured TCP path.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import time

from repro.framework.network import SimulatedNetwork
from repro.framework.server import DataServer
from repro.serving.server import AsyncDataServer
from repro.streams.engine import StreamEngine
from repro.workload.generator import WorkloadGenerator

from perfbench.calibrate import spin


class ResidenceRecorder:
    """Stands in for ``AsyncDataServer.stats``: one list of receive→reply
    seconds over every op type, reset at each measured phase."""

    def __init__(self) -> None:
        self.samples = []

    def record(self, op: str, seconds: float) -> None:
        self.samples.append(seconds)


def build_server(engine: StreamEngine) -> DataServer:
    """The data server every run and replay uses, over *engine*."""
    for name, schema in WorkloadGenerator().streams.items():
        engine.register_input_stream(name, schema)
    return DataServer(
        SimulatedNetwork(),
        engine=engine,
        enforce_single_access=False,
        allow_partial_results=True,
    )


def serve(conn) -> None:
    """Process entry: serve until told to stop or the pipe closes."""
    asyncio.run(_serve(conn))


async def _serve(conn) -> None:
    server = build_server(StreamEngine())
    front = await AsyncDataServer(server).start()
    front.stats = ResidenceRecorder()
    stopped = asyncio.Event()
    loop = asyncio.get_running_loop()

    def on_control() -> None:
        try:
            command, argument = conn.recv()
        except EOFError:
            stopped.set()
            return
        try:
            conn.send(_control(command, argument, server, front, stopped))
        except Exception as error:
            conn.send(error)

    loop.add_reader(conn.fileno(), on_control)
    conn.send(("ready", front.port, os.getpid()))
    try:
        await stopped.wait()
    finally:
        loop.remove_reader(conn.fileno())
        await front.aclose()


def _control(command, argument, server: DataServer, front: AsyncDataServer, stopped):
    if command == "stop":
        stopped.set()
        return None
    if command == "state":
        return _state(server, front)
    if command == "spin":
        return spin()
    if command == "cpu":
        # The process's own CPU clock (utime + stime, to the
        # nanosecond); /proc's tick counts are too coarse for a phase.
        return time.process_time()
    if command == "reset_residence":
        front.stats = ResidenceRecorder()
        return None
    if command == "outputs":
        engine = server.instance.engine
        return {uri: [t.values for t in engine.read(uri)] for uri in argument}
    raise ValueError(f"unknown control command {command!r}")


def _state(server: DataServer, front: AsyncDataServer) -> dict:
    samples = front.stats.samples
    return {
        "policies": len(server.instance.store),
        "active_queries": server.instance.engine.active_query_count,
        "read_pauses": front.read_pauses,
        "residence_ops": len(samples),
        "residence_p50_s": statistics.median(samples) if samples else 0.0,
    }
