"""The served run: set-up, sequential and capacity phases over TCP.

Topology: one spawned server process running :func:`perfbench.served.serve`
and this process as the generator, with one asyncio loop and at most
two connections.  Server CPU is read by the server from its own CPU
clock over the control pipe; its peak RSS is read from ``/proc``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.serving.wire import decode_message

from perfbench import served
from perfbench.client import Connection, PhaseResult
from perfbench.workloads import CAPACITY_DEPTH, SLICES, Workload

CONTROL_TIMEOUT = 60.0
#: Extra servers set up (and stopped) in a run, spread over its slices;
#: with the measured server's own, ``setup_s`` is a median of five.
EXTRA_SETUPS = 4


class ServerProcess:
    """The spawned server and its control pipe."""

    def __init__(self) -> None:
        context = multiprocessing.get_context("spawn")
        self.conn, child = context.Pipe()
        self.process = context.Process(target=served.serve, args=(child,), daemon=True)
        self.process.start()
        child.close()
        try:
            _, self.port, self.pid = self._receive()
        except BaseException:
            self.stop()
            raise

    def _receive(self):
        if not self.conn.poll(CONTROL_TIMEOUT):
            raise TimeoutError("server process did not answer its control pipe")
        reply = self.conn.recv()
        if isinstance(reply, Exception):
            raise reply
        return reply

    def control(self, command: str, argument=None):
        self.conn.send((command, argument))
        return self._receive()

    def cpu_seconds(self) -> float:
        """utime + stime of the server process, from its own clock."""
        return self.control("cpu")

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        try:
            if self.process.is_alive():
                self.control("stop")
        except (OSError, EOFError, TimeoutError):
            pass
        finally:
            self.process.join(10)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(10)
            self.conn.close()


@dataclass
class Slice:
    """One sequential phase followed by one capacity phase."""

    sequential: PhaseResult
    capacity: List[PhaseResult]
    sequential_cpu_s: float
    sequential_wall_s: float
    residence_p50_s: float
    capacity_wall_s: float
    capacity_server_cpu_s: float
    capacity_client_cpu_s: float
    #: The server's ``spin()`` (see :mod:`perfbench.calibrate`): the
    #: mean of the spins before and after each phase.
    sequential_spin_s: float
    capacity_spin_s: float


@dataclass
class ServedRun:
    setups: List[Dict[str, float]] = field(default_factory=list)
    setup_replies: List[bytes] = field(default_factory=list)
    warmup_replies: List[bytes] = field(default_factory=list)
    slices: List[Slice] = field(default_factory=list)
    #: Server state before the first phase and after every phase.
    states: List[dict] = field(default_factory=list)
    outputs: Dict[str, list] = field(default_factory=dict)
    peak_rss_mib: float = 0.0


async def _setup(workload: Workload):
    """Spawn a server and load the workload's policies (and standing
    queries): the server, an open connection to it, the set-up's
    timings and the replies."""
    started = time.perf_counter()
    server = ServerProcess()
    try:
        ready = time.perf_counter()
        connection = await Connection.open(server.port)
        replies = await connection.pipeline(workload.table, workload.setup_loads)
        loaded = time.perf_counter()
        replies += await connection.pipeline(workload.table, workload.setup_register)
        done = time.perf_counter()
    except BaseException:
        server.stop()
        raise
    timings = {
        "spawn_s": ready - started,
        "load_s": loaded - ready,
        "register_s": done - loaded,
        "setup_s": done - started,
    }
    return server, connection, timings, replies


def _pin(pid: int, cpus) -> None:
    """Restrict every thread of process *pid* to *cpus*."""
    for task in os.listdir(f"/proc/{pid}/task"):
        os.sched_setaffinity(int(task), cpus)


def _pin_to_quietest(server: ServerProcess, cpus) -> Tuple[int, float]:
    """Pin the server and this process to the one CPU of *cpus* on
    which the server's ``spin()`` is fastest; return the CPU and that
    spin.

    With both ends of the sequential phase on one CPU, every step of an
    op runs at the speed the spin measured, and an op's reply wakes the
    generator by a context switch rather than by waking the other CPU.
    """
    spins = {}
    for cpu in sorted(cpus):
        _pin(server.pid, {cpu})
        spins[cpu] = server.control("spin")
    quietest = min(spins, key=spins.get)
    _pin(server.pid, {quietest})
    _pin(os.getpid(), {quietest})
    return quietest, spins[quietest]


def standing_uris(workload: Workload, setup_replies: Sequence[bytes]) -> List[str]:
    """Handle URIs of the standing queries, in registration order
    (None where a registration failed)."""
    count = len(workload.setup_register)
    tail = setup_replies[len(setup_replies) - count:] if count else []
    return [decode_message(payload)[1].handle_uri for payload in tail]


async def run_served(workload: Workload, oracle) -> ServedRun:
    """Set up a server, then measure it over the workload's slices.

    Each slice is a sequential then a capacity phase.  After the
    set-up, the warm-up and every slice, *oracle* is advanced over the
    ops just sent, and after every ``SLICES // EXTRA_SETUPS``-th slice
    one more server is set up and stopped, both while the measured
    server is idle.  This spreads the slices and set-ups over the run:
    a burst of load from elsewhere on the host lands in one slice or
    set-up rather than in a whole phase.  The server times ``spin()``
    before and after every phase, so each phase's timings can be scaled
    by the host's speed around it.
    """
    run = ServedRun()
    table = workload.table
    cpus = os.sched_getaffinity(0)
    server, first, timings, run.setup_replies = await _setup(workload)
    run.setups.append(timings)
    second = None
    try:
        await oracle.advance(workload.setup_loads + workload.setup_register)
        run.warmup_replies = await first.pipeline(table, workload.warmup)
        await oracle.advance(workload.warmup)
        second = await Connection.open(server.port)
        run.states.append(server.control("state"))
        for number, (sequential_ops, capacity_ops) in enumerate(
            zip(workload.sequential, workload.capacity)
        ):
            server.control("reset_residence")
            quietest, spin_before = _pin_to_quietest(server, cpus)
            cpu = server.cpu_seconds()
            started = time.perf_counter()
            sequential = await first.sequential(table, sequential_ops)
            sequential_wall = sequential.finished_at - started
            sequential_cpu = server.cpu_seconds() - cpu
            spin_between = server.control("spin")
            run.states.append(server.control("state"))

            # The capacity phase keeps the server on its CPU and moves
            # the generator to the others.
            _pin(os.getpid(), cpus - {quietest} or cpus)
            client_cpu, cpu = time.process_time(), server.cpu_seconds()
            started = time.perf_counter()
            capacity = await asyncio.gather(*(
                connection.capacity(table, ops, CAPACITY_DEPTH)
                for connection, ops in zip((first, second), capacity_ops)
            ))
            wall = max(result.finished_at for result in capacity) - started
            capacity_server_cpu = server.cpu_seconds() - cpu
            capacity_client_cpu = time.process_time() - client_cpu
            spin_after = server.control("spin")
            _pin(server.pid, cpus)
            _pin(os.getpid(), cpus)
            run.slices.append(Slice(
                sequential=sequential,
                capacity=capacity,
                sequential_cpu_s=sequential_cpu,
                sequential_wall_s=sequential_wall,
                residence_p50_s=run.states[-1]["residence_p50_s"],
                capacity_wall_s=wall,
                capacity_server_cpu_s=capacity_server_cpu,
                capacity_client_cpu_s=capacity_client_cpu,
                sequential_spin_s=(spin_before + spin_between) / 2,
                capacity_spin_s=(spin_between + spin_after) / 2,
            ))
            run.states.append(server.control("state"))
            await oracle.advance(
                sequential.sent + [op for result in capacity for op in result.sent]
            )
            if any(result.timeouts for result in (sequential, *capacity)):
                # The connections are out of step with their replies.
                break
            if number % (SLICES // EXTRA_SETUPS) == SLICES // EXTRA_SETUPS - 1:
                extra, connection, timings, _ = await _setup(workload)
                run.setups.append(timings)
                try:
                    await connection.close()
                finally:
                    extra.stop()
        # Peak RSS before the outputs are copied out for the check.
        run.peak_rss_mib = server.peak_rss_mib()
        uris = [uri for uri in standing_uris(workload, run.setup_replies) if uri]
        if uris:
            run.outputs = server.control("outputs", uris)
    finally:
        for connection in (first, second):
            if connection is not None:
                await connection.close()
        server.stop()
    return run


def median_setup(run: ServedRun, key: str) -> float:
    return statistics.median(setup[key] for setup in run.setups)
