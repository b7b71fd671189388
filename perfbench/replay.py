"""In-process replays: the traced per-layer run and the correctness oracles.

The traced replay executes the served ops in one process, calling the
same public functions, in the same order, as
``AsyncDataServer._execute`` does, and records a span around each call.
Spans live in memory and are written out when the run ends.  The
oracles check the served replies: the reference PDP for ``decide``, a
serial replay through ``AsyncDataServer.execute`` for ``enforce`` and
the reference engine for ``ingest``.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.user_query import UserQuery
from repro.framework.messages import StreamRequestMessage
from repro.serving.server import AsyncDataServer
from repro.serving.wire import (
    AckReply,
    EvaluateOp,
    EvaluateReply,
    IngestOp,
    LoadOp,
    UpdateOp,
    decode_message,
    encode_message,
)
from repro.streams.engine import StreamEngine
from repro.xacml.pdp import PolicyDecisionPoint
from repro.xacml.response import Decision
from repro.xacml.store import PolicyStore
from repro.xacml.xml_io import parse_policy_xml, parse_request_xml

from perfbench.served import build_server


class NullTracer:
    """Calls straight through; the untraced replay uses it."""

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans ``(name, start, end, parent, op)`` kept in memory.

    A span is a tuple of numbers and a name, which the garbage
    collector stops tracking, so a long trace does not make the
    collections the traced code triggers slower.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self.op = -1
        self._stack: List[int] = []

    def call(self, name, fn, *args):
        # The span opens before and closes after the tracer's own
        # bookkeeping, so that cost lands in the span, not its parent's
        # self time.
        started = time.perf_counter()
        stack, spans = self._stack, self.spans
        parent = stack[-1] if stack else -1
        index = len(spans)
        spans.append(None)
        stack.append(index)
        try:
            return fn(*args)
        finally:
            stack.pop()
            spans[index] = (name, started, time.perf_counter(), parent, self.op)

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own


class Replayer:
    """One in-process data server executing served payloads."""

    def __init__(self, tracer=None, engine: Optional[StreamEngine] = None):
        self.tracer = tracer if tracer is not None else NullTracer()
        self.server = build_server(engine if engine is not None else StreamEngine())
        #: (op id, ``PepTimings``) of every traced ``pep.handle`` call.
        self.pep_timings: List[Tuple[int, object]] = []
        self.tuples_pushed = 0
        self.updates = 0
        if isinstance(self.tracer, Tracer):
            pep = self.server.instance.pep
            handle_request = pep.handle_request

            def traced_handle(request, user_query=None, pdp_response=None):
                result = self.tracer.call(
                    "pep.handle", handle_request, request, user_query, pdp_response
                )
                self.pep_timings.append((self.tracer.op, result.timings))
                return result

            pep.handle_request = traced_handle

    def run(self, payloads: Sequence[bytes], first_op: int = 0) -> List[object]:
        """Execute *payloads* in order; op ids count up from *first_op*."""
        replies = []
        tracer = self.tracer
        for op_id, payload in enumerate(payloads, first_op):
            if isinstance(tracer, Tracer):
                tracer.op = op_id
                replies.append(tracer.call("op", self.execute, payload))
            else:
                replies.append(self.execute(payload))
        return replies

    def execute(self, payload: bytes):
        """``AsyncDataServer._execute`` for the ops the workloads send,
        one traced call per layer (the PDP runs ahead of the PEP, as the
        ``pdp_response`` seam allows).  ``server.reply`` is the serving
        layer building its reply; what no span covers is dispatch."""
        call = self.tracer.call
        server = self.server
        seq, message = call("wire.decode", decode_message, payload)
        if isinstance(message, EvaluateOp):
            request = call("xml.parse_request", parse_request_xml, message.request_xml)
            pdp = server.instance.pdp
            if message.decide_only:
                response = call("pdp.evaluate", pdp.evaluate, request)
                reply = call(
                    "server.reply", EvaluateReply,
                    response.decision is Decision.PERMIT, None,
                    response.decision.value, response.policy_id,
                )
            else:
                user_query = (
                    call("user_query.parse", UserQuery.from_xml, message.user_query_xml)
                    if message.user_query_xml
                    else None
                )
                pdp_response = call("pdp.evaluate", pdp.evaluate, request)
                response, _ = call(
                    "dataserver.process", server.process,
                    StreamRequestMessage(request, user_query), pdp_response,
                )
                reply = call(
                    "server.reply", EvaluateReply,
                    response.ok, response.handle_uri, response.decision,
                    response.policy_id, response.error_kind, response.error_detail,
                )
        elif isinstance(message, LoadOp):
            policy = call("xml.parse_policy", parse_policy_xml, message.policy_xml)
            call("store.load", server.load_policy, policy)
            reply = call("server.reply", AckReply, "load")
        elif isinstance(message, UpdateOp):
            policy = call("xml.parse_policy", parse_policy_xml, message.policy_xml)
            call("store.update", server.update_policy, policy)
            self.updates += 1
            reply = call("server.reply", AckReply, "update")
        elif isinstance(message, IngestOp):
            count = call(
                "engine.push", server.instance.engine.push_batch,
                message.stream, message.records,
            )
            self.tuples_pushed += count
            reply = call("server.reply", AckReply, "ingest", None, count)
        else:
            raise TypeError(f"workloads send no {type(message).__name__}")
        call("wire.encode", encode_message, seq, reply)
        return reply

    # -- counters read from the layers' public surfaces ------------------------

    def counters(self) -> dict:
        instance = self.server.instance
        engine = instance.engine
        plans = engine.plan_stats().values()
        return {
            "pdp": instance.pdp.cache_stats(),
            "revocations": instance.graph_manager.revocations,
            "updates": self.updates,
            "tuples": self.tuples_pushed,
            "active_queries": engine.active_query_count,
            "outputs": sum(q.output.total_appended for q in engine.active_queries()),
            "live_nodes": sum(p["live_nodes"] for p in plans),
            "nodes_created": sum(p["nodes_created"] for p in plans),
            "nodes_shared": sum(p["nodes_shared"] for p in plans),
        }


def reply_key(reply) -> tuple:
    """The fields a served reply must share with its oracle."""
    if isinstance(reply, EvaluateReply):
        return ("evaluate", reply.ok, reply.decision, reply.policy_id, reply.error_kind)
    if isinstance(reply, AckReply):
        return ("ack", reply.op, reply.count)
    return ("error", reply.error_kind)


# -- oracles -----------------------------------------------------------------------


class ReferencePdp:
    """``PolicyDecisionPoint.reference()`` over the policies, in load order."""

    def __init__(self, policy_xml: Sequence[str]):
        store = PolicyStore()
        for xml in policy_xml:
            store.load(parse_policy_xml(xml))
        self.pdp = PolicyDecisionPoint.reference(store)

    def decide(self, request_xml: Sequence[str]) -> List[Tuple[str, Optional[str]]]:
        """(decision, deciding policy id) per request."""
        results = []
        for xml in request_xml:
            response = self.pdp.evaluate(parse_request_xml(xml))
            results.append((response.decision.value, response.policy_id))
        return results


class ReferenceEngine:
    """``StreamEngine.reference()`` behind the same policy loads and
    standing-query registrations the server received (the last
    *register_count* of *setup_payloads*), fed the batches of *streams*
    in the order the server received them."""

    def __init__(self, setup_payloads: Sequence[bytes], register_count: int,
                 streams: Sequence[str]):
        self.replayer = Replayer(engine=StreamEngine.reference())
        self.setup_replies = self.replayer.run(setup_payloads)
        first = len(setup_payloads) - register_count
        self.standing = []
        for payload, reply in zip(setup_payloads[first:], self.setup_replies[first:]):
            _, message = decode_message(payload)
            stream = parse_request_xml(message.request_xml).resource_id
            self.standing.append((stream, reply.handle_uri))
        self.streams = set(streams)

    def setup_keys(self) -> List[tuple]:
        return [reply_key(reply) for reply in self.setup_replies]

    def push(self, payloads: Sequence[bytes]) -> None:
        engine = self.replayer.server.instance.engine
        for payload in payloads:
            _, message = decode_message(payload)
            engine.push_batch(message.stream, message.records)

    def outputs(self) -> Dict[int, List[tuple]]:
        """Retained output per standing query on this engine's streams,
        keyed by registration position."""
        engine = self.replayer.server.instance.engine
        return {
            position: [t.values for t in engine.read(uri)]
            for position, (stream, uri) in enumerate(self.standing)
            if uri is not None and stream in self.streams
        }


class SerialReplay:
    """Payloads through ``AsyncDataServer.execute``, one at a time."""

    def __init__(self) -> None:
        self.front = AsyncDataServer(build_server(StreamEngine()))

    async def run(self, payloads: Sequence[bytes]) -> List[tuple]:
        keys = []
        for payload in payloads:
            _, message = decode_message(payload)
            keys.append(reply_key(await self.front.execute(message)))
        return keys


# -- per-layer summary -------------------------------------------------------------


def layer_summary(tracer: Tracer, measured: range) -> Dict[str, Tuple[float, int]]:
    """Layer name → (median self seconds, span count).

    Spans of *measured* ops are summarised; a layer that runs only in
    set-up (policy loads) is summarised over its set-up spans.
    """
    own = tracer.self_times()
    by_layer: Dict[str, List[float]] = defaultdict(list)
    setup: Dict[str, List[float]] = defaultdict(list)
    for span, seconds in zip(tracer.spans, own):
        (by_layer if span[4] in measured else setup)[span[0]].append(seconds)
    for name, values in setup.items():
        by_layer.setdefault(name, values)
    return {
        name: (statistics.median(values), len(values))
        for name, values in by_layer.items()
    }
