"""Exact differential tests: compiled tuple windows ≡ the reference engine.

Below the recompute/incremental crossover
(``size <= INCREMENTAL_OVERLAP * step``) the columnar tuple window
recomputes every emitted window from its column slice with the same
builtin the reference path applies to the same values in the same
order, so compiled outputs must equal ``StreamEngine.reference()``
outputs exactly — ``==`` on every value and its type, drift-prone
``sum``/``avg`` over doubles included.  Above the crossover the
incremental states stay in use and keep the float tolerance of the
property suite; the last class pins which windows hold states, so a
later edit cannot silently turn them into per-emission O(size) loops.
"""

import math
import random

import pytest

from repro.streams.engine import StreamEngine
from repro.streams.graph import QueryGraph
from repro.streams.operators import (
    AggregateOperator,
    AggregationSpec,
    WindowSpec,
    WindowType,
)
from repro.streams.operators.window import INCREMENTAL_OVERLAP
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import StreamTuple

SCHEMA = Schema(
    "w", [Field("x", DataType.DOUBLE), Field("i", DataType.INT)]
)

EXACT_FUNCTIONS = (
    "sum", "avg", "min", "max", "count", "firstval", "lastval", "median",
)

#: (size, step) pairs at or below the crossover: overlapping, tumbling
#: and gapped windows, up to exactly ``INCREMENTAL_OVERLAP`` steps.
EXACT_WINDOWS = ((3, 1), (5, 2), (7, 3), (4, 4), (2, 5), (INCREMENTAL_OVERLAP, 1))


def weather_like(count, seed):
    """Doubles with many significant digits (so any reassociation of a
    sum shows up in the last bits) and ints with duplicates."""
    rng = random.Random(seed)
    return [
        StreamTuple(SCHEMA, (rng.uniform(-1e3, 1e3), rng.randrange(-50, 50)))
        for _ in range(count)
    ]


def graph_for(size, step, specs):
    return QueryGraph("w").append(
        AggregateOperator(
            WindowSpec(WindowType.TUPLE, size, step),
            [AggregationSpec.parse(spec) for spec in specs],
        )
    )


def run_engine(engine, graph, batches):
    engine.register_input_stream("w", SCHEMA)
    handle = engine.register_query(graph.fresh_copy())
    for batch in batches:
        engine.push_batch("w", batch)
    return [t.values for t in engine.read(handle)]


def typed(rows):
    """Values with their exact types, so 4 == 4.0 does not pass."""
    return [tuple((type(value), value) for value in row) for row in rows]


def all_specs():
    return [f"{column}:{name}" for column in ("x", "i") for name in EXACT_FUNCTIONS]


class TestExactBelowCrossover:
    @pytest.mark.parametrize("size,step", EXACT_WINDOWS)
    def test_every_function_exact_in_one_batch(self, size, step):
        tuples = weather_like(200, seed=size * 31 + step)
        graph = graph_for(size, step, all_specs())
        got = run_engine(StreamEngine(), graph, [tuples])
        expected = run_engine(StreamEngine.reference(), graph, [tuples])
        assert got, "the stream must fill at least one window"
        assert typed(got) == typed(expected)

    @pytest.mark.parametrize("size,step", ((5, 2), (4, 4), (3, 7)))
    def test_batches_split_at_every_offset(self, size, step):
        tuples = weather_like(40, seed=7)
        graph = graph_for(size, step, all_specs())
        expected = run_engine(StreamEngine.reference(), graph, [tuples])
        for cut in range(len(tuples) + 1):
            got = run_engine(StreamEngine(), graph, [tuples[:cut], tuples[cut:]])
            assert typed(got) == typed(expected), cut

    def test_one_tuple_batches(self):
        tuples = weather_like(60, seed=11)
        graph = graph_for(6, 4, all_specs())
        got = run_engine(StreamEngine(), graph, [[t] for t in tuples])
        expected = run_engine(StreamEngine.reference(), graph, [tuples])
        assert typed(got) == typed(expected)

    def test_int_median_comes_out_as_a_float(self):
        tuples = [StreamTuple(SCHEMA, (0.5, value)) for value in (3, 9, 1, 4, 7)]
        graph = graph_for(3, 1, ["i:median", "i:sum", "i:avg"])
        got = run_engine(StreamEngine(), graph, [tuples])
        expected = run_engine(StreamEngine.reference(), graph, [tuples])
        # Odd windows pick an int middle value; the DOUBLE output field
        # still stores it as a float, as the reference path does.
        assert got == [(3.0, 13, 13 / 3), (4.0, 14, 14 / 3), (4.0, 12, 4.0)]
        assert typed(got) == typed(expected)
        assert all(type(row[0]) is float and type(row[1]) is int for row in got)

    def test_shared_plan_clone_registered_mid_stream(self):
        """A same-fingerprint query registered after the first one has
        consumed input gets a fresh clone of the aggregate node; both
        must match reference engines with the same registration
        timeline."""
        tuples = weather_like(90, seed=5)
        graph = graph_for(7, 3, ["x:sum", "x:avg", "i:median", "x:lastval"])
        first, second, third = tuples[:23], tuples[23:50], tuples[50:]

        def timeline(engine):
            engine.register_input_stream("w", SCHEMA)
            early = engine.register_query(graph.fresh_copy())
            engine.push_batch("w", first)
            late = engine.register_query(graph.fresh_copy())
            engine.push_batch("w", second)
            engine.push_batch("w", third)
            return [
                [t.values for t in engine.read(handle)] for handle in (early, late)
            ]

        engine = StreamEngine()
        got = timeline(engine)
        expected = timeline(StreamEngine.reference())
        assert engine.plan_stats()["w"]["nodes_created"] == 2  # the clone
        assert typed(got[0]) == typed(expected[0])
        assert typed(got[1]) == typed(expected[1])
        assert len(got[1]) < len(got[0])


class TestAboveCrossover:
    def test_heavy_overlap_within_tolerance(self):
        size, step = 2 * INCREMENTAL_OVERLAP + 2, 2
        tuples = weather_like(400, seed=3)
        specs = ["x:sum", "x:avg", "x:min", "x:max", "x:median", "i:sum"]
        graph = graph_for(size, step, specs)
        got = run_engine(StreamEngine(), graph, [tuples[:150], tuples[150:]])
        expected = run_engine(StreamEngine.reference(), graph, [tuples])
        assert len(got) == len(expected) > 0
        for got_row, expected_row in zip(got, expected):
            for spec, g, e in zip(specs, got_row, expected_row):
                if spec in ("x:sum", "x:avg"):
                    assert math.isclose(g, e, rel_tol=1e-6, abs_tol=1e-4), (spec, g, e)
                else:
                    assert g == e, (spec, g, e)


def columnar_state(size, step, specs):
    operator = AggregateOperator(
        WindowSpec(WindowType.TUPLE, size, step),
        [AggregationSpec.parse(spec) for spec in specs],
    )
    operator.process_batch(weather_like(3, seed=1), operator.output_schema(SCHEMA))
    return operator._columnar


class TestWhichWindowsHoldStates:
    def test_below_crossover_holds_none(self):
        state = columnar_state(INCREMENTAL_OVERLAP, 1, ["x:sum", "x:median"])
        assert state.states == [None, None]

    def test_above_crossover_holds_every_state(self):
        state = columnar_state(
            INCREMENTAL_OVERLAP + 1, 1, ["x:sum", "x:median", "x:min"]
        )
        assert all(s is not None for s in state.states)

    def test_stdev_keeps_its_state_on_any_overlap(self):
        state = columnar_state(5, 2, ["x:stdev", "x:avg"])
        assert state.states[0] is not None
        assert state.states[1] is None

    def test_non_overlapping_windows_hold_none(self):
        for step in (5, 8):
            state = columnar_state(5, step, ["x:stdev", "x:sum"])
            assert state.states == [None, None]
