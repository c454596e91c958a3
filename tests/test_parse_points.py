"""parse_points' bulk pass against the per-line loop it falls back to.

_read_lines, the loop, is the reference: on every generated file the
bulk pass (parse_points on ASCII text) gives the same points in the same
insertion order, or the same InputError text.
"""

import pytest
from hypothesis import given, settings, strategies as st

from renitent import PointMultiset, field_create, parse_points
from renitent.errors import InputError
from renitent.gf import GF
from renitent.uniformity import _read_bulk, _read_lines

FIELDS = {"q7": (7, 1), "q31": (31, 1), "q16": (2, 4), "q9": (3, 2)}

# every line break str.splitlines() knows in ASCII text
LINE_ENDS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]
SPACES = [" ", "  ", "\t", " \t ", "\x1f"]
# no line break, so a comment never spills onto a line of its own
COMMENT = st.text(st.sampled_from("ab _#0 9é€３"), max_size=8)


def bad_lines(q):
    """One malformed line of each kind, each refused by _read_lines."""
    return [
        "1", "1 2 1 1", "x 2", "0_3 2", "３ 1", "1" * 5000 + " 2",
        "-1 2", "2 -1", f"{q} 2", f"2 {q}", "1 2 0", "1 2 -1",
    ]


@st.composite
def integer_text(draw, value):
    """value in decimal, maybe with a '+' sign or leading zeros."""
    sign = draw(st.sampled_from(["", "", "+"]))
    return sign + "0" * draw(st.integers(0, 2)) + str(value)


@st.composite
def point_line(draw, q):
    coord = st.one_of(st.integers(0, 2), st.integers(0, q - 1))   # small ones repeat
    values = [draw(coord), draw(coord)]
    if draw(st.booleans()):
        values.append(draw(st.integers(1, 12)))
    sep = draw(st.sampled_from(SPACES))
    line = sep.join([draw(integer_text(v)) for v in values])
    return draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))


@st.composite
def point_files(draw, q):
    """(text, whether a bad line was put in) of an 'a b m' file over GF(q)."""
    kinds = st.sampled_from(["point", "point", "point", "blank", "space", "comment"])
    lines = []
    for kind in draw(st.lists(kinds, max_size=12)):
        if kind == "point":
            line = draw(point_line(q))
        else:
            line = {"blank": "", "space": " \t ", "comment": ""}[kind]
        if kind == "comment" or draw(st.integers(0, 3)) == 0:
            line += "#" + draw(COMMENT)
        lines.append(line)
    has_bad = draw(st.booleans())
    if has_bad:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(bad_lines(q))))
    ends = [draw(st.sampled_from(LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends)), has_bad


def outcome(read):
    """The points of a reader in insertion order, or its InputError text."""
    try:
        return list(read().items())
    except InputError as exc:
        return str(exc)


@pytest.mark.parametrize("pe", FIELDS.values(), ids=FIELDS.keys())
def test_the_bulk_pass_agrees_with_the_line_loop(pe):
    K = field_create(*pe)

    @given(point_files(K.q))
    @settings(max_examples=150, deadline=None)
    def check(case):
        text, has_bad = case
        expected = outcome(lambda: _read_lines(K, text))
        assert outcome(lambda: parse_points(K, text)._mults) == expected
        assert isinstance(expected, str) == has_bad
        if text.isascii():
            # the bulk pass refuses exactly the files the loop refuses, so
            # a well-formed ASCII file never takes the loop
            bulk = _read_bulk(K.q, text)
            assert (expected if bulk is None else list(bulk.items())) == expected

    check()


@pytest.mark.parametrize("text", [
    "# header\r\n0 0 2\r\n1 1\r\n\r\n2 3 1 # trailing\r\n6 6\r\n0 0 1\r\n",
    "# en-tête é\n0 0 2\n1 1\n2 3 1 # suite\n6 6\n0 0 1\n",
], ids=["ascii", "non-ascii comment"])
def test_a_well_formed_file_checks_each_point_once(monkeypatch, text):
    """The reader's own checks are the only ones: GF.check and the checked
    constructor never run."""
    K = field_create(7)
    expected = {(0, 0): 3, (1, 1): 1, (2, 3): 1, (6, 6): 1}

    def refuse(*args):
        raise AssertionError("a point was checked twice")

    monkeypatch.setattr(GF, "check", refuse)
    monkeypatch.setattr(PointMultiset, "__init__", refuse)
    T = parse_points(K, text)
    assert T._mults == expected and list(T._mults) == list(expected)


def test_a_well_formed_ascii_file_never_takes_the_loop(monkeypatch):
    K = field_create(2, 4)

    def refuse(*args):
        raise AssertionError("the line loop ran")

    monkeypatch.setattr("renitent.uniformity._read_lines", refuse)
    T = parse_points(K, "# q = 16\n15 0 3\n0 15\n+07 007 1 # leading zeros\n\n")
    assert T.items() == [((0, 15), 1), ((7, 7), 1), ((15, 0), 3)]
    assert parse_points(K, "").items() == []
