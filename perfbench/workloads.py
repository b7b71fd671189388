"""Seeded op sequences for the three served workloads.

Every op is generated from the Table 3 workload and the benchmark's
``--seed`` and encoded into a wire frame before anything is timed, so
the generator only copies prepared bytes onto sockets while the server
is measured.

An op is an index into :attr:`Workload.table`, which holds each
distinct frame once (a frame's sequence number is its table index, so
a reply's echoed ``seq`` names the op it answers).  Ops are drawn in
*rounds*, and every phase sends a fixed number of whole rounds: the
first rounds that add up to the phase's op count.  Whole rounds are
how ``enforce`` keeps its live query count bounded (see
:func:`_enforce_round`); a fixed op count means a run does the same
work, and leaves the same state behind, however fast the host is.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from repro.loadgen.mix import derive_seed
from repro.serving.wire import EvaluateOp, IngestOp, LoadOp, UpdateOp, encode_message
from repro.workload.generator import TABLE3, WorkloadGenerator
from repro.workload.zipf import zipf_ranks
from repro.xacml.request import Request
from repro.xacml.xml_io import policy_to_xml, request_to_xml

#: The Table 3 policy set is the paper's fixed workload; ``--seed``
#: varies the op sequences drawn over it.
TABLE3_SEED = 2012
#: Share of ``decide`` evaluates from never-seen subjects (cache misses).
STRANGER_FRACTION = 0.1
#: ``enforce``: Table 3 requests per round, each evaluated (full PEP)
#: ROUND_REPEATS times before the round re-sends the policies that
#: granted them, withdrawing the spawned graphs.
ROUND_ITEMS = 4
ROUND_REPEATS = 4
#: Full-PEP evaluates ``enforce`` sends, in whole rounds, before any
#: phase is measured, so the decision cache, PEP and engine are in the
#: state this traffic keeps them in.
ENFORCE_WARMUP_OPS = 1000
#: ``ingest``: standing Table 3 queries registered in setup, records per
#: batch, and distinct prepared batches per stream.  Sized so that a
#: 8-second run collects well over 1000 sequential and 1000 capacity
#: ops on a 2-CPU host while the reference check stays within seconds.
STANDING_QUERIES = 120
INGEST_BATCH = 20
BATCHES_PER_STREAM = 32
#: Measured slices per run; each is a sequential then a capacity phase.
SLICES = 48
#: Ops per second of each phase, sequential and capacity (both
#: connections together), on the 2-CPU host the benchmark was built on.
#: A phase sends ``rate * seconds / (2 * SLICES)`` ops, so there a run
#: measures for about ``--seconds``.
RATES = {"decide": (3100, 6400), "enforce": (1350, 1800), "ingest": (470, 530)}
#: Connections in the capacity phase, and ops each keeps outstanding.
CAPACITY_CONNECTIONS = 2
CAPACITY_DEPTH = 32

# Seed domains (integer tags mixed by derive_seed).
_SEQUENTIAL, _CAPACITY, _RECORDS, _WARMUP = 1, 2, 3, 4

Round = Tuple[int, ...]
Phase = List[int]
#: A workload's preparation returns its round sources: for the
#: sequential phase ``f(seed)``, for a capacity connection ``f(seed,
#: connection)``; each yields rounds without end.
Rounds = Callable[..., Iterator[Round]]


@dataclass
class Workload:
    """Prepared frames plus the order each phase sends them in."""

    name: str
    seed: int
    streams: List[str] = field(default_factory=list)
    table: List[bytes] = field(default_factory=list)
    setup_loads: List[int] = field(default_factory=list)
    setup_register: List[int] = field(default_factory=list)
    warmup: List[int] = field(default_factory=list)
    #: Per slice: the sequential phase's ops, and each capacity
    #: connection's ops.
    sequential: List[Phase] = field(default_factory=list)
    capacity: List[List[Phase]] = field(default_factory=list)
    #: Op → latency class; ``latency_p50_ms`` averages the classes'
    #: medians, and ops without a class are not in it.
    latency_class: Dict[int, str] = field(default_factory=dict)

    def add(self, message) -> int:
        """Encode *message* with its table index as ``seq``."""
        index = len(self.table)
        self.table.append(encode_message(index, message))
        return index

    def payload(self, index: int) -> bytes:
        return self.table[index][4:]


class _Table3:
    """The Table 3 items, encoded once per distinct document."""

    def __init__(self, workload: Workload):
        generator = WorkloadGenerator(seed=TABLE3_SEED)
        self.items = generator.generate()
        self.streams = generator.streams
        self.policy_ids = [item.policy.policy_id for item in self.items]
        self.policy_xml: Dict[str, str] = {}
        for item in self.items:
            if item.policy.policy_id not in self.policy_xml:
                self.policy_xml[item.policy.policy_id] = policy_to_xml(item.policy)
        self.request_xml = [request_to_xml(item.request) for item in self.items]
        self.user_query_xml = [
            item.user_query.to_xml() if item.user_query is not None else None
            for item in self.items
        ]
        self.loads = {
            policy_id: workload.add(LoadOp(xml))
            for policy_id, xml in self.policy_xml.items()
        }

    def ranks(self, count: int, seed: int) -> List[int]:
        """*count* Zipf(α) item indexes over all Table 3 requests."""
        return [
            rank - 1
            for rank in zipf_ranks(
                count, TABLE3.zipf_alpha, len(self.items), seed=seed
            )
        ]


def build(name: str, seed: int, seconds: float) -> Workload:
    """Prepare workload *name* for about ``seconds / 2`` of sequential
    and of capacity time (see :data:`RATES`)."""
    workload = Workload(name, seed)
    table3 = _Table3(workload)
    workload.streams = sorted(table3.streams)
    workload.setup_loads = list(table3.loads.values())
    prepare = {"decide": _decide, "enforce": _enforce, "ingest": _ingest}[name]
    sequential_rounds, capacity_rounds = prepare(workload, table3)
    sequential_rate, capacity_rate = RATES[name]
    phase_seconds = seconds / (2 * SLICES)
    sequential_ops = max(1, round(sequential_rate * phase_seconds))
    capacity_ops = max(1, round(capacity_rate * phase_seconds / CAPACITY_CONNECTIONS))
    sequential = sequential_rounds(derive_seed(seed, _SEQUENTIAL))
    capacity = [capacity_rounds(derive_seed(seed, _CAPACITY, connection), connection)
                for connection in range(CAPACITY_CONNECTIONS)]
    for _ in range(SLICES):
        workload.sequential.append(take(sequential, sequential_ops))
        workload.capacity.append([take(rounds, capacity_ops) for rounds in capacity])
    return workload


def take(rounds: Iterator[Round], ops: int) -> Phase:
    """The ops of the first rounds of *rounds* that add up to *ops* or
    more."""
    phase: Phase = []
    while len(phase) < ops:
        phase.extend(next(rounds))
    return phase


# -- decide ------------------------------------------------------------------------


def _decide(workload: Workload, table3: _Table3) -> Tuple[Rounds, Rounds]:
    evaluate = [
        workload.add(EvaluateOp(xml, None, True)) for xml in table3.request_xml
    ]
    workload.warmup = list(evaluate)
    stream_names = sorted(table3.streams)
    strangers = 0

    def rounds(seed: int, connection: int = 0) -> Iterator[Round]:
        nonlocal strangers
        rng = random.Random(seed)
        for index in _zipf(table3, seed):
            if rng.random() < STRANGER_FRACTION:
                strangers += 1
                request = Request.simple(
                    f"stranger{strangers}", rng.choice(stream_names)
                )
                op = workload.add(EvaluateOp(request_to_xml(request), None, True))
            else:
                op = evaluate[index]
            workload.latency_class[op] = "evaluate"
            yield (op,)

    return rounds, rounds


def _zipf(table3: _Table3, seed: int, chunk: int = 4096) -> Iterator[int]:
    """Zipf(α) item indexes over all Table 3 requests, without end."""
    for part in itertools.count():
        yield from table3.ranks(chunk, derive_seed(seed, part))


# -- enforce -----------------------------------------------------------------------


def _enforce(workload: Workload, table3: _Table3) -> Tuple[Rounds, Rounds]:
    evaluate = [
        workload.add(EvaluateOp(xml, query, False))
        for xml, query in zip(table3.request_xml, table3.user_query_xml)
    ]
    for op, query in zip(evaluate, table3.user_query_xml):
        workload.latency_class[op] = "evaluate+query" if query else "evaluate"
    update = {
        policy_id: workload.add(UpdateOp(xml))
        for policy_id, xml in table3.policy_xml.items()
    }

    def rounds(seed: int, connection: int = 0) -> Iterator[Round]:
        items = _zipf(table3, seed)
        while True:
            yield _enforce_round([next(items) for _ in range(ROUND_ITEMS)],
                                 evaluate, update, table3.policy_ids)

    workload.warmup = take(rounds(derive_seed(workload.seed, _WARMUP)),
                           ENFORCE_WARMUP_OPS)
    return rounds, rounds


def _enforce_round(
    items: Sequence[int],
    evaluate: Sequence[int],
    update: Dict[str, int],
    policy_ids: Sequence[str],
) -> Round:
    """Each item evaluated ROUND_REPEATS times, interleaved, then an
    update of every policy that granted one.

    Re-sending a policy unchanged keeps every decision the same but
    withdraws the graphs it spawned (Section 3.3), so once a round's
    replies are in, none of the round's graphs is live: the engine's
    query count is back where it started however rounds interleave.
    Repeating each request keeps updates near a fifth of the ops.
    """
    granting = list(dict.fromkeys(policy_ids[index] for index in items))
    return tuple(evaluate[index] for index in items * ROUND_REPEATS) + tuple(
        update[policy_id] for policy_id in granting
    )


# -- ingest ------------------------------------------------------------------------


def _ingest(workload: Workload, table3: _Table3) -> Tuple[Rounds, Rounds]:
    workload.setup_register = [
        workload.add(
            EvaluateOp(table3.request_xml[index], table3.user_query_xml[index], False)
        )
        for index in range(STANDING_QUERIES)
    ]
    rng = random.Random(derive_seed(workload.seed, _RECORDS))
    stream_names = sorted(table3.streams)
    batches = {
        stream: [
            workload.add(
                IngestOp(stream, _records(stream, rng, b * INGEST_BATCH))
            )
            for b in range(BATCHES_PER_STREAM)
        ]
        for stream in stream_names
    }
    for stream, ops in batches.items():
        workload.latency_class.update(dict.fromkeys(ops, stream))
    workload.warmup = [batches[stream][0] for stream in stream_names]

    def rounds(seed: int, streams: Sequence[str]) -> Iterator[Round]:
        # A round sends one batch to each stream, so every phase gives
        # the streams (whose standing queries differ in number and
        # cost) equal shares of the ops on every seed.
        rng = random.Random(seed)
        while True:
            yield tuple(rng.choice(batches[stream]) for stream in streams)

    def sequential(seed: int) -> Iterator[Round]:
        return rounds(seed, stream_names)

    def capacity(seed: int, connection: int) -> Iterator[Round]:
        # Each capacity connection owns a disjoint set of streams, so
        # every stream's batches reach the engine in one connection's
        # send order.
        return rounds(seed, stream_names[connection::CAPACITY_CONNECTIONS])

    return sequential, capacity


def _records(stream: str, rng: random.Random, first: int) -> List[dict]:
    """One batch of sensor readings inside the Table 3 value ranges."""
    if stream.startswith("gps"):
        return [
            {
                "samplingtime": first + i,
                "deviceid": f"bus{rng.randrange(40)}",
                "latitude": round(rng.uniform(1.2, 1.5), 5),
                "longitude": round(rng.uniform(103.6, 104.1), 5),
                "altitude": round(rng.uniform(0.0, 80.0), 2),
                "speed": round(rng.uniform(0.0, 35.0), 2),
                "heading": rng.randrange(360),
            }
            for i in range(INGEST_BATCH)
        ]
    return [
        {
            "samplingtime": first + i,
            "temperature": round(rng.uniform(15.0, 38.0), 2),
            "humidity": round(rng.uniform(20.0, 100.0), 2),
            "solarradiation": round(rng.uniform(0.0, 1000.0), 1),
            "rainrate": round(rng.uniform(0.0, 120.0), 2),
            "windspeed": round(rng.uniform(0.0, 30.0), 2),
            "winddirection": rng.randrange(360),
            "barometer": round(rng.uniform(990.0, 1025.0), 2),
        }
        for i in range(INGEST_BATCH)
    ]
