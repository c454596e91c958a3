"""The canonical JSON writer equals json.dumps(indent=2, sort_keys=True)
byte for byte: on plain trees by its own one-pass path, on anything else
by handing the whole document to json.dumps."""

import collections
import enum
import gc
import json

import pytest
from hypothesis import given, strategies as st

from renitent.cli import canonical_json


def oracle(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


odd_strings = st.sampled_from([
    "", "\x00", "\x1f\x7f", "tab\there", 'quote " and \\ backslash',
    "é中", "  ", "\U0001f600", "</script>"])
scalars = st.one_of(
    st.text(max_size=8), odd_strings,
    st.integers(), st.sampled_from([2 ** 200, -2 ** 200, -(2 ** 63), -1]),
    st.booleans(), st.sampled_from([0, 1]), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324, 0.1, 1e16]),
)
trees = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=8), odd_strings), kids, max_size=5),
    ),
    max_leaves=25,
)


@given(trees)
def test_writer_equals_json_dumps(doc):
    assert canonical_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()],
    {"b": True, "a": 1, "c": False, "d": 0, "e": None},
    {"schema": 1, "directions": [{"uniform": False, "direction": "inf:0"}]},
], ids=repr)
def test_writer_on_edge_shapes(doc):
    assert canonical_json(doc) == oracle(doc)


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


@pytest.mark.parametrize("doc", [
    float("nan"), float("inf"), -float("inf"),
    {"x": [1.0, float("nan")]},
    {10: 0, 9: 1},
    {"a": {2: "b", 1.5: None, True: 0}},
    Colour.RED, [Colour.RED],
    Tag("s"), {Tag("k"): 1},
    collections.OrderedDict([("b", 1), ("a", 2)]),
], ids=repr)
def test_writer_falls_back_to_json_dumps(doc):
    assert canonical_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc", [
    {1: 0, "a": 1},        # keys json.dumps cannot sort
    {"a": {1, 2}},         # a type json.dumps cannot write
    [object()],
], ids=["mixed-keys", "set", "object"])
def test_writer_raises_what_json_dumps_raises(doc):
    with pytest.raises(TypeError) as expected:
        oracle(doc)
    with pytest.raises(TypeError) as got:
        canonical_json(doc)
    assert str(got.value) == str(expected.value)


def test_writer_leaves_no_cyclic_garbage():
    """One call frees everything it built by reference counting alone, so
    its chunk list does not wait for the cyclic collector."""
    doc = {"schema": 1, "directions": [
        {"direction": f"inf:{i}", "uniform": True, "m_d": i % 3,
         "renitent": [{"line": f"[{i}:1:0]", "alpha": i, "t": 1}]}
        for i in range(50)]}
    gc.collect()
    gc.disable()
    try:
        canonical_json(doc)
        assert gc.collect() == 0
    finally:
        gc.enable()
