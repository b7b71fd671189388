"""Correctness checks on the served replies, run off the clock.

Each workload's oracle is advanced after every phase, while the server
is idle, so the measured slices of a run are spread over the oracle's
work instead of following each other within a few seconds.

- ``decide``: every decision equals ``PolicyDecisionPoint.reference()``
  over the same policies, loaded in the same order.
- ``enforce``: every reply's ``(ok, decision, policy_id, error_kind)``
  equals a serial in-process replay of the same ops through
  ``AsyncDataServer.execute``; handle URIs are not compared.  Decisions
  do not depend on how the two capacity connections interleaved,
  because updates re-send policies unchanged.
- ``ingest``: every standing query's retained output equals the
  reference engine's, fed the same batches in the same per-stream order.

Steady state: ``enforce`` ends each measured phase with the live query
and policy counts it started with; no workload adds a policy.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.serving.wire import ErrorReply, EvaluateOp, EvaluateReply, IngestOp, LoadOp, decode_message

from perfbench.replay import ReferenceEngine, ReferencePdp, SerialReplay, reply_key
from perfbench.served_run import ServedRun, standing_uris
from perfbench.workloads import INGEST_BATCH, Workload

logger = logging.getLogger(__name__)

#: Worker processes for the reference oracles (the host has two CPUs,
#: idle once the served run has stopped).
ORACLE_WORKERS = 2
WORKER_TIMEOUT = 60.0


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def _phases(workload: Workload, run: ServedRun):
    """(label, ops sent, raw replies, measured phase or None), in the
    order the oracle was advanced."""
    setup_ops = workload.setup_loads + workload.setup_register
    yield "setup", setup_ops, run.setup_replies, None
    yield "warmup", workload.warmup, run.warmup_replies, None
    for number, piece in enumerate(run.slices):
        yield f"sequential{number}", piece.sequential.sent, piece.sequential.replies, piece.sequential
        for index, result in enumerate(piece.capacity):
            yield f"capacity{number}.{index}", result.sent, result.replies, result


def check(workload: Workload, run: ServedRun, oracle: Oracle) -> Verdict:
    verdict = Verdict()
    mismatches = Counter()
    expected = iter(oracle.expected)
    for label, ops, replies, result in _phases(workload, run):
        is_measured = result is not None
        if is_measured:
            verdict.attempted += len(ops)
            verdict.failed += result.timeouts
        elif len(replies) != len(ops):
            verdict.problems.append(f"{label}: {len(ops)} ops sent, {len(replies)} replies")
        wants = [next(expected) for _ in ops]
        for op, payload, want in zip(ops, replies, wants):
            seq, reply = decode_message(payload)
            if seq != op:
                verdict.problems.append(f"{label}: reply for op {seq} where {op} was due")
                return verdict
            got = reply_key(reply)
            if got == want:
                continue
            mismatches[f"{got} != {want}"] += 1
            unexpected_error = isinstance(reply, ErrorReply) or (
                isinstance(reply, EvaluateReply) and reply.error_kind != want[-1]
            )
            if is_measured and unexpected_error:
                verdict.failed += 1
    for detail, count in mismatches.most_common(5):
        verdict.problems.append(f"{count} replies differ from the oracle: {detail}")
    oracle.finish(run, verdict)
    _check_steady(workload, run, verdict)
    return verdict


# -- oracles ---------------------------------------------------------------------


class Remote:
    """An object living in its own spawned process, called over a pipe."""

    def __init__(self, factory, *args):
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=_host, args=(child, factory, args))
        self._process.start()
        child.close()

    def send(self, method: str, *args) -> None:
        self._conn.send((method, args))

    def receive(self):
        if not self._conn.poll(WORKER_TIMEOUT):
            raise TimeoutError("oracle worker did not answer")
        reply = self._conn.recv()
        if isinstance(reply, Exception):
            raise reply
        return reply

    def call(self, method: str, *args):
        self.send(method, *args)
        return self.receive()

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError as error:
            logger.debug("oracle worker already gone: %s", error)
        self._conn.close()
        self._process.join(WORKER_TIMEOUT)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join()


def _host(conn, factory, args) -> None:
    """Worker process entry: build the object, then serve calls."""
    try:
        target = factory(*args)
        conn.send(None)
        while True:
            request = conn.recv()
            if request is None:
                return
            method, call_args = request
            conn.send(getattr(target, method)(*call_args))
    except EOFError:
        return
    except Exception as error:
        conn.send(error)
        raise
    finally:
        conn.close()


def _start(factory, argument_lists) -> List[Remote]:
    """One Remote per argument list, started together, all ready."""
    workers = [Remote(factory, *arguments) for arguments in argument_lists]
    try:
        for worker in workers:
            worker.receive()
    except BaseException:
        for worker in workers:
            worker.close()
        raise
    return workers


class Oracle:
    """Expected reply keys, in the order the ops were sent."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.expected: List[tuple] = []
        self.workers: List[Remote] = []

    async def advance(self, ops: Sequence[int]) -> None:
        raise NotImplementedError

    def finish(self, run: ServedRun, verdict: Verdict) -> None:
        """Checks that need the whole run."""

    def close(self) -> None:
        for worker in self.workers:
            worker.close()


class DecideOracle(Oracle):
    """Every decision against ``PolicyDecisionPoint.reference()``."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        policies = [decode_message(workload.payload(op))[1].policy_xml
                    for op in workload.setup_loads]
        self.workers = _start(ReferencePdp, [(policies,)] * ORACLE_WORKERS)
        self.answers: Dict[str, tuple] = {}

    async def advance(self, ops: Sequence[int]) -> None:
        messages = [decode_message(self.workload.payload(op))[1] for op in ops]
        new = list(dict.fromkeys(
            m.request_xml for m in messages
            if isinstance(m, EvaluateOp) and m.request_xml not in self.answers
        ))
        chunks = [new[k::ORACLE_WORKERS] for k in range(ORACLE_WORKERS)]
        for worker, chunk in zip(self.workers, chunks):
            worker.send("decide", chunk)
        for worker, chunk in zip(self.workers, chunks):
            self.answers.update(zip(chunk, worker.receive()))
        for message in messages:
            if isinstance(message, LoadOp):
                self.expected.append(("ack", "load", 0))
            else:
                decision, policy_id = self.answers[message.request_xml]
                self.expected.append(
                    ("evaluate", decision == "Permit", decision, policy_id, None)
                )

    def finish(self, run: ServedRun, verdict: Verdict) -> None:
        verdict.notes.append(
            f"reference PDP evaluated {len(self.answers)} distinct requests"
        )


class EnforceOracle(Oracle):
    """Every reply against a serial in-process replay."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        self.replay = SerialReplay()

    async def advance(self, ops: Sequence[int]) -> None:
        self.expected += await self.replay.run([self.workload.payload(op) for op in ops])

    def finish(self, run: ServedRun, verdict: Verdict) -> None:
        verdict.notes.append(f"serial replay executed {len(self.expected)} ops")


class IngestOracle(Oracle):
    """Standing-query outputs against ``StreamEngine.reference()``, one
    worker per share of the streams."""

    def __init__(self, workload: Workload):
        super().__init__(workload)
        setup = [workload.payload(op)
                 for op in workload.setup_loads + workload.setup_register]
        shares = [workload.streams[k::ORACLE_WORKERS] for k in range(ORACLE_WORKERS)]
        self.workers = _start(
            ReferenceEngine,
            [(setup, len(workload.setup_register), share) for share in shares],
        )
        self.owner = {stream: worker for worker, share in zip(self.workers, shares)
                      for stream in share}
        self.setup_keys = iter(self.workers[0].call("setup_keys"))

    async def advance(self, ops: Sequence[int]) -> None:
        batches: Dict[Remote, List[bytes]] = {worker: [] for worker in self.workers}
        for op in ops:
            payload = self.workload.payload(op)
            message = decode_message(payload)[1]
            if isinstance(message, IngestOp):
                batches[self.owner[message.stream]].append(payload)
                self.expected.append(("ack", "ingest", INGEST_BATCH))
            else:
                self.expected.append(next(self.setup_keys))
        for worker, payloads in batches.items():
            worker.send("push", payloads)
        for worker in batches:
            worker.receive()

    def finish(self, run: ServedRun, verdict: Verdict) -> None:
        reference: Dict[int, list] = {}
        for worker in self.workers:
            reference.update(worker.call("outputs"))
        uris = standing_uris(self.workload, run.setup_replies)
        unregistered = uris.count(None)
        if unregistered:
            verdict.problems.append(
                f"{unregistered} of {len(uris)} standing queries were refused at set-up"
            )
        differing = [
            uri for position, uri in enumerate(uris)
            if not same_output(run.outputs.get(uri), reference.get(position))
        ]
        if differing:
            verdict.problems.append(
                f"{len(differing)} of {len(uris)} standing queries' outputs differ "
                f"from the reference engine (first: {differing[0]})"
            )
        tuples = sum(len(values) for values in reference.values())
        verdict.notes.append(
            f"reference engine matched {len(uris) - len(differing)} of {len(uris)} "
            f"standing queries ({tuples} output tuples)"
        )


ORACLES = {"decide": DecideOracle, "enforce": EnforceOracle, "ingest": IngestOracle}


def same_output(got, want) -> bool:
    """Equal outputs, floats within the drift the repository's engine
    equivalence tests allow incremental window aggregates
    (``rel_tol=1e-6, abs_tol=1e-4``); every other value exactly."""
    if got is None or want is None or len(got) != len(want):
        return False
    for got_values, want_values in zip(got, want):
        if got_values == want_values:
            continue
        if len(got_values) != len(want_values):
            return False
        for g, w in zip(got_values, want_values):
            if g != w and not (
                isinstance(g, float) and isinstance(w, float)
                and math.isclose(g, w, rel_tol=1e-6, abs_tol=1e-4)
            ):
                return False
    return True


# -- steady state ----------------------------------------------------------------


def _check_steady(workload: Workload, run: ServedRun, verdict: Verdict) -> None:
    policies = len(workload.setup_loads)
    for number, (before, after) in enumerate(zip(run.states, run.states[1:])):
        if after["policies"] != policies:
            verdict.problems.append(
                f"after measured phase {number}: {after['policies']} policies "
                f"loaded, expected {policies}"
            )
        if before["active_queries"] != after["active_queries"]:
            verdict.problems.append(
                f"measured phase {number}: live queries went from "
                f"{before['active_queries']} to {after['active_queries']}"
            )
