"""Metrics: end to end from the served run, per layer from the traced replay.

End-to-end timings are medians over the run's slices (see
:func:`perfbench.served_run.run_served`), except ``setup_s``, the
median of the run's set-ups; ``rss_mb`` is the server's peak.  Each
slice's timings are first scaled to the reference host speed by the
server's ``spin()`` around their phase (:mod:`perfbench.calibrate`):
a latency or CPU time is multiplied, and a rate divided, by
``REFERENCE_SPIN_S / spin``.  ``setup_s`` is not scaled: a set-up
spreads its work over a new process, the generator and the kernel,
and no one process's spin gauges it.  ``host.spin_ms`` and the
``*_unscaled`` per-layer metrics report the run's spins and its
timings as measured.

A slice's ``latency_p50_ms`` is the mean of its latency classes'
medians (:attr:`perfbench.workloads.Workload.latency_class`): ops whose
costs are far apart (``ingest``'s streams) each get their own class, so
the median falls inside one cost mode rather than between two.

The traced replay sets up a fresh in-process server exactly as the
served one was (policy loads, standing queries, warm-up), then replays
the ops of the sequential phase with a span around every layer call.
Layer self times are medians over those spans; a layer that the
workload only exercises in set-up (policy loads) is summarised over its
set-up spans.  A layer the workload never calls reports 0 with a span
count of 0.  The same ops are also replayed untraced, so
``trace.overhead_ratio`` is traced over untraced replay time.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from repro.serving.wire import decode_message

from perfbench.calibrate import scaled
from perfbench.replay import Replayer, Tracer, layer_summary, reply_key
from perfbench.served_run import ServedRun, median_setup
from perfbench.workloads import Workload

#: Layer span name → per-layer metric reporting its median self time (µs).
SELF_TIME_METRICS = {
    "wire.decode": "wire.decode_us",
    "wire.encode": "wire.encode_us",
    "xml.parse_request": "xml.parse_request_us",
    "xml.parse_policy": "xml.parse_policy_us",
    "user_query.parse": "user_query.parse_us",
    "pdp.evaluate": "pdp.evaluate_us",
    "store.load": "store.load_us",
    "store.update": "store.update_us",
    "pep.handle": "pep.handle_us",
    "dataserver.process": "dataserver.wrapper_us",
}
#: Share of the root spans no layer span may cover before the trace
#: counts as not closing.  What no span covers is the replayer's op
#: dispatch and the tracer's own call overhead, about 5% of an op on
#: ``decide`` (the cheapest ops) on the 2-CPU host the benchmark was
#: built on; a layer call left without a span would add its whole
#: time.
UNATTRIBUTED_LIMIT = 0.10


def _sequential_latencies(run: ServedRun) -> List[float]:
    return [latency for piece in run.slices for latency in piece.sequential.latencies]


def class_p50(workload: Workload, result) -> float:
    """Mean over the latency classes of each class's median latency."""
    by_class: Dict[str, List[float]] = defaultdict(list)
    for op, latency in zip(result.sent, result.latencies):
        name = workload.latency_class.get(op)
        if name is not None:
            by_class[name].append(latency)
    return statistics.fmean(statistics.median(values) for values in by_class.values())


def _capacity_wall(piece) -> float:
    """Seconds per completed op in the slice's capacity phase."""
    return piece.capacity_wall_s / sum(len(result.replies) for result in piece.capacity)


def end_to_end(run: ServedRun, workload: Workload) -> Dict[str, float]:
    slices = run.slices
    return {
        "setup_s": median_setup(run, "setup_s"),
        "latency_p50_ms": statistics.median(
            scaled(class_p50(workload, piece.sequential), piece.sequential_spin_s)
            for piece in slices
        ) * 1e3,
        "capacity_ops_s": statistics.median(
            1 / scaled(_capacity_wall(piece), piece.capacity_spin_s) for piece in slices
        ),
        "cpu_us_per_op": statistics.median(
            scaled(piece.sequential_cpu_s / len(piece.sequential.replies),
                   piece.sequential_spin_s)
            for piece in slices
        ) * 1e6,
        "rss_mb": run.peak_rss_mib,
    }


def served_layers(run: ServedRun, workload: Workload) -> Dict[str, float]:
    """Layer numbers read from the served run (tracing off)."""
    slices = run.slices
    phases = [result for piece in slices for result in (piece.sequential, *piece.capacity)]
    residence = statistics.median(piece.residence_p50_s for piece in slices)
    rtt = statistics.median(
        statistics.median(piece.sequential.latencies) for piece in slices
    )
    wall = sum(piece.capacity_wall_s for piece in slices)
    # states: before the first phase, then after each sequential and
    # each capacity phase in turn.
    pauses = sum(
        after["read_pauses"] - before["read_pauses"]
        for before, after in zip(run.states[1::2], run.states[2::2])
    )
    return {
        "host.spin_ms": statistics.median(piece.sequential_spin_s for piece in slices) * 1e3,
        "latency_p50_unscaled_ms": statistics.median(
            class_p50(workload, piece.sequential) for piece in slices
        ) * 1e3,
        "capacity_unscaled_ops_s": statistics.median(
            1 / _capacity_wall(piece) for piece in slices
        ),
        "latency_p99_ms": quantile(_sequential_latencies(run), 0.99) * 1e3,
        "wire.bytes_in": statistics.fmean(
            len(workload.table[op]) for result in phases for op in result.sent
        ),
        "wire.bytes_out": statistics.fmean(
            len(payload) + 4 for result in phases for payload in result.replies
        ),
        "server.residence_p50_ms": residence * 1e3,
        "server.busy_share": sum(p.capacity_server_cpu_s for p in slices) / wall,
        "server.read_pauses": pauses,
        "client.busy_share": sum(p.capacity_client_cpu_s for p in slices) / wall,
        "client.rtt_minus_residence_us": (rtt - residence) * 1e6,
        "setup.spawn_s": median_setup(run, "spawn_s"),
        "setup.load_s": median_setup(run, "load_s"),
        "setup.register_s": median_setup(run, "register_s"),
    }


def quantile(values, share: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(share * 1000) - 1]


class Replay(NamedTuple):
    replayer: Replayer
    replies: List[object]
    seconds: float
    before: dict
    after: dict
    measured: range


def _replay(workload: Workload, run: ServedRun, tracer) -> Replay:
    """Set up like the served server, then replay the sequential ops;
    only the sequential ops are timed and counted."""
    replayer = Replayer(tracer)
    setup = [workload.payload(op) for op in workload.setup_loads + workload.setup_register]
    warmup = [workload.payload(op) for op in workload.warmup]
    measured = [workload.payload(op) for piece in run.slices for op in piece.sequential.sent]
    replayer.run(setup)
    replayer.run(warmup, len(setup))
    before = replayer.counters()
    first = len(setup) + len(warmup)
    started = time.perf_counter()
    replies = replayer.run(measured, first)
    seconds = time.perf_counter() - started
    return Replay(replayer, replies, seconds, before, replayer.counters(),
                  range(first, first + len(measured)))


def traced_layers(workload: Workload, run: ServedRun, spans_path: Path,
                  fingerprint: dict) -> Tuple[Dict[str, float], List[str], List[str]]:
    """Per-layer metrics, report lines and problems from the traced replay."""
    problems: List[str] = []
    untraced = _replay(workload, run, None)
    tracer = Tracer()
    traced = _replay(workload, run, tracer)
    replayer, replies, before, after, measured = (
        traced.replayer, traced.replies, traced.before, traced.after, traced.measured
    )

    served = [
        reply_key(decode_message(payload)[1])
        for piece in run.slices for payload in piece.sequential.replies
    ]
    if served != [reply_key(reply) for reply in replies[:len(served)]]:
        problems.append("traced replay replies differ from the served sequential phase")

    summary = layer_summary(tracer, measured)
    metrics = {
        metric: summary.get(layer, (0.0, 0))[0] * 1e6
        for layer, metric in SELF_TIME_METRICS.items()
    }
    # The root "op" span's self time is what no layer span covers (op
    # dispatch, the tracer's call overhead); it is left out of the
    # layer sum, and closure bounds its share.
    own = tracer.self_times()
    roots = [end - start for name, start, end, parent, op in tracer.spans
             if parent < 0 and op in measured]
    root_total = sum(roots)
    layer_total = sum(seconds for span, seconds in zip(tracer.spans, own)
                      if span[4] in measured and span[3] >= 0)
    unattributed = (root_total - layer_total) / root_total
    if not 0 <= unattributed <= UNATTRIBUTED_LIMIT:
        problems.append(
            f"trace does not close: layer self times {layer_total:.6f} s, "
            f"root spans {root_total:.6f} s ({unattributed:.1%} unattributed, "
            f"limit {UNATTRIBUTED_LIMIT:.0%})"
        )
    metrics["trace.unattributed_share"] = unattributed
    residence = statistics.median(piece.residence_p50_s for piece in run.slices)
    metrics["server.overhead_us"] = (residence - statistics.median(roots)) * 1e6
    metrics["trace.overhead_ratio"] = traced.seconds / untraced.seconds

    timings = [t for op, t in replayer.pep_timings if op in measured] or [
        t for _, t in replayer.pep_timings
    ]
    metrics["pep.query_graph_us"] = (
        statistics.median(t.query_graph for t in timings) * 1e6 if timings else 0.0
    )
    metrics["pep.submit_us"] = (
        statistics.median(t.dsms_submit for t in timings) * 1e6 if timings else 0.0
    )

    pdp_before, pdp_after = before["pdp"], after["pdp"]
    lookups = (pdp_after["hits"] + pdp_after["misses"]) - (pdp_before["hits"] + pdp_before["misses"])
    updates = after["updates"] - before["updates"]
    tuples = after["tuples"] - before["tuples"]
    push_total = sum(
        seconds for span, seconds in zip(tracer.spans, own)
        if span[0] == "engine.push" and span[4] in measured
    )
    created, shared = after["nodes_created"], after["nodes_shared"]
    metrics.update({
        "pdp.cache_hit_ratio": (pdp_after["hits"] - pdp_before["hits"]) / lookups if lookups else 0.0,
        "pdp.full_flushes": pdp_after["full_flushes"] - pdp_before["full_flushes"],
        "pdp.targeted_evictions": pdp_after["targeted_evictions"] - pdp_before["targeted_evictions"],
        "graphs.revoked_per_update": (after["revocations"] - before["revocations"]) / updates if updates else 0.0,
        "engine.push_us_per_tuple": push_total / tuples * 1e6 if tuples else 0.0,
        "engine.active_queries_start": before["active_queries"],
        "engine.active_queries_end": after["active_queries"],
        "plan.live_nodes": after["live_nodes"],
        "plan.shared_ratio": shared / (created + shared) if created + shared else 0.0,
        "engine.outputs_per_tuple": (after["outputs"] - before["outputs"]) / tuples if tuples else 0.0,
    })

    lines = [
        f"trace: {len(tracer.spans)} spans, {len(roots)} measured ops; "
        f"layer self times sum to {layer_total * 1e3:.3f} ms against "
        f"{root_total * 1e3:.3f} ms of root spans ({unattributed:.2%} unattributed)",
    ]
    for layer, (median, count) in sorted(summary.items()):
        lines.append(f"trace: {layer:20s} self median {median * 1e6:10.2f} us  spans {count}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w") as out:
        json.dump({
            "host": fingerprint,
            "fields": ["name", "start", "end", "parent", "op"],
            "measured_ops": [measured.start, measured.stop],
            "spans": tracer.spans,
        }, out)
    lines.append(f"trace: spans written to {spans_path}")
    return metrics, lines, problems
