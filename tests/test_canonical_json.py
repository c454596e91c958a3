"""The canonical JSON writer equals json.dumps(indent=2, sort_keys=True)
byte for byte on the plain trees reports hold, and raises TypeError on
any other value: there is no second path to json.dumps."""

import collections
import enum
import gc
import importlib.util
import json
import sys

import pytest
from hypothesis import given, strategies as st

from renitent import cli
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


class Colour(enum.IntEnum):
    RED = 1


class Tag(str):
    pass


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": []}, {"a": {}}, [[], {}, ()],
    {"b": True, "a": 1, "c": False, "d": 0, "e": None},
    {"schema": 1, "directions": [{"uniform": False, "direction": "inf:0"}]},
    {Tag("k"): 1},        # a str-subclass key is written as its text
], ids=repr)
def test_writer_on_edge_shapes(doc):
    assert canonical_json(doc) == oracle(doc)


@pytest.mark.parametrize("doc, type_name", [
    (float("nan"), "float"), (float("inf"), "float"), (-float("inf"), "float"),
    ({"x": [1.0, float("nan")]}, "float"),
    ({"a": cli._Written("1"), "b": float("nan")}, "float"),
    ({10: 0, 9: 1}, "int"),
    ({"a": {2: "b", 1.5: None, True: 0}}, "bool"),   # True sorts first
    (Colour.RED, "Colour"), ([Colour.RED], "Colour"),
    (Tag("s"), "Tag"),
    (collections.OrderedDict([("b", 1), ("a", 2)]), "OrderedDict"),
], ids=["nan", "inf", "-inf", "nan-in-a-list", "nan-beside-written-text", "int-keys",
        "bool-key", "int-enum", "int-enum-in-a-list", "str-subclass", "ordered-dict"])
def test_writer_refuses_values_no_report_holds(doc, type_name):
    """No report holds any of these values, which json.dumps writes: the
    writer raises TypeError naming the type instead.  Beside written text,
    which json.dumps cannot write, the NaN is still the value named."""
    with pytest.raises(TypeError, match=rf"\b{type_name}\b"):
        canonical_json(doc)


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


def test_written_text_is_indented_to_its_place():
    inner = {"b": [1, {"c": None}], "a": "x"}
    doc = {"k": [cli._Written(canonical_json(inner)), 2], "j": cli._Written("[]")}
    assert canonical_json(doc) == oracle({"k": [inner, 2], "j": []})


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


def test_writer_without_the_c_encoder(monkeypatch):
    """On an interpreter built without _json, a fresh import of the CLI
    escapes strings with json.encoder's function, to the same bytes."""
    monkeypatch.setitem(sys.modules, "_json", None)   # `import _json` raises ImportError
    spec = importlib.util.spec_from_file_location("renitent._cli_without_json", cli.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module._encode_str is json.encoder.encode_basestring_ascii
    doc = {"s": 'quote " and \\ backslash \x00 \u00e9\u4e2d', "n": [1, 2.5, None, True]}
    assert module.canonical_json(doc) == oracle(doc)
