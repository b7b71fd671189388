"""Parity of make_tuple's typed fast path with its general path.

A record keyed by exactly the declared spellings is built from the
schema's cached record plan; every other record takes the general,
case-insensitive path.  Both must give equal tuples with equal value
types on every input, and the same :class:`SchemaError` message on
every bad one.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.streams.tuples as tuples_module
from repro.errors import SchemaError
from repro.streams.schema import DataType, Field, Schema
from repro.streams.tuples import _make_tuple_general, make_tuple

SCHEMA = Schema(
    "mixed",
    [
        Field("SamplingTime", DataType.TIMESTAMP),
        Field("temp", DataType.DOUBLE),
        Field("count", DataType.INT),
        Field("label", DataType.STRING),
        Field("flag", DataType.BOOL),
    ],
)

GOOD = {"SamplingTime": 1.5, "temp": 20.25, "count": 3, "label": "a", "flag": True}


def outcome(build, record):
    """``("ok", values with their types)`` or ``("error", message)``."""
    try:
        tup = build(SCHEMA, record)
    except SchemaError as error:
        return ("error", str(error))
    return ("ok", [(type(value), value) for value in tup.values], tup.schema)


def assert_parity(record):
    assert outcome(make_tuple, record) == outcome(_make_tuple_general, record)


@pytest.fixture
def general_path_forbidden(monkeypatch):
    """Fail the test if make_tuple leaves the fast path."""

    def forbidden(schema, record):
        raise AssertionError("declared-case record left the fast path")

    monkeypatch.setattr(tuples_module, "_make_tuple_general", forbidden)


class TestFastPathTaken:
    def test_declared_case_keys(self, general_path_forbidden):
        tup = make_tuple(SCHEMA, GOOD)
        assert tup.values == (1.5, 20.25, 3, "a", True)

    def test_int_into_double_and_timestamp_widened(self, general_path_forbidden):
        tup = make_tuple(SCHEMA, dict(GOOD, SamplingTime=7, temp=2))
        assert tup.values[:2] == (7.0, 2.0)
        assert type(tup.values[0]) is float and type(tup.values[1]) is float

    def test_bad_value_raises_from_the_fast_path(self, general_path_forbidden):
        with pytest.raises(SchemaError, match="cannot store bool"):
            make_tuple(SCHEMA, dict(GOOD, count=True))

    def test_schema_builds_its_plan_once_and_lazily(self):
        schema = Schema("lazy", [Field("a", DataType.INT)])
        assert schema._record_plan is None
        make_tuple(schema, {"a": 1})
        plan = schema._record_plan
        make_tuple(schema, {"a": 2})
        assert schema._record_plan is plan


class TestParity:
    def test_declared_case_keys(self):
        assert_parity(GOOD)

    def test_mixed_case_keys_fall_back_and_are_accepted(self):
        record = {"samplingtime": 1.5, "TEMP": 20.25, "Count": 3, "label": "a", "flag": True}
        assert outcome(make_tuple, record) == outcome(make_tuple, GOOD)
        assert_parity(record)

    def test_missing_key(self):
        record = dict(GOOD)
        del record["label"]
        assert_parity(record)
        assert outcome(make_tuple, record) == (
            "error", "record is missing attribute 'label'"
        )

    def test_extra_key(self):
        assert_parity(dict(GOOD, extra=1))

    def test_extra_key_in_place_of_a_declared_one(self):
        record = dict(GOOD)
        del record["temp"]
        record["tmp"] = 1.0
        assert_parity(record)

    def test_case_duplicate_keys(self):
        record = dict(GOOD, TEMP=1.0)
        assert_parity(record)
        assert outcome(make_tuple, record)[1].startswith("record has duplicate keys")

    def test_case_duplicate_with_a_bad_value(self):
        # Width matches once a key is dropped; the duplicate error must
        # still win over the bad value, as on the general path.
        record = dict(GOOD, count="bad", COUNT=1)
        del record["label"]
        assert_parity(record)
        assert outcome(make_tuple, record)[1].startswith("record has duplicate keys")

    @pytest.mark.parametrize("field", ["count", "temp", "SamplingTime"])
    def test_bool_into_numeric_fields(self, field):
        record = dict(GOOD, **{field: False})
        assert_parity(record)
        assert outcome(make_tuple, record)[0] == "error"

    def test_int_into_double_widened(self):
        record = dict(GOOD, temp=21)
        assert_parity(record)
        assert outcome(make_tuple, record)[1][1] == (float, 21.0)

    @pytest.mark.parametrize("value", [None, "21.5"])
    def test_none_and_str_into_double(self, value):
        record = dict(GOOD, temp=value)
        assert_parity(record)
        assert outcome(make_tuple, record)[0] == "error"

    def test_float_subclass_goes_through_coerce(self):
        class Celsius(float):
            pass

        record = dict(GOOD, temp=Celsius(4.5))
        assert_parity(record)
        assert outcome(make_tuple, record)[1][1] == (float, 4.5)


#: Keys a record may carry: every declared spelling, case variants of
#: some, and strangers.
KEYS = list(GOOD) + ["TEMP", "samplingtime", "Count", "other"]
VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=False, min_value=-10, max_value=10),
    st.text(max_size=2),
)


class TestParityProperty:
    @settings(max_examples=300, deadline=None)
    @given(record=st.dictionaries(st.sampled_from(KEYS), VALUES, max_size=7))
    def test_any_record(self, record):
        assert_parity(record)

    @settings(max_examples=200, deadline=None)
    @given(values=st.fixed_dictionaries({key: VALUES for key in GOOD}))
    def test_declared_keys_any_values(self, values):
        assert_parity(values)
