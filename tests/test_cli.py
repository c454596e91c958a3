"""The command-line contract: exit codes, JSON shape, determinism, and
the gen -> analyze -> envelope -> check pipeline."""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import renitent
from renitent import PointMultiset, cli, parse_field_spec, plane
from renitent.cli import (EXIT_HYPOTHESIS, EXIT_INPUT, EXIT_OK, build_parser, canonical_json,
                          main)
from renitent.plane import format_line, format_point, slope_of
from renitent.uniformity import _classify_all
from renitent.counting import DETECTOR_MAX_WORK, detector_work

GF13_LINE_PLUS_HEAVY = "".join(
    [f"{x} 0 {2 if x == 0 else 1}\n" for x in range(13)] + ["1 1 7\n"])


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr().out


def write_points(tmp_path, text, name="pts.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- gen ----------------------------------------------------------------------


def test_gen_planted_writes_points_and_sidecar(tmp_path, capsys):
    out = tmp_path / "inst.pts"
    rc, stdout = run(capsys, [
        "gen", "--field", "7", "--kind", "planted", "--points", "0,0;1,2",
        "--weights", "1,3", "--c", "2", "--out", str(out)])
    assert rc == EXIT_OK
    assert stdout == ""  # silent without --json
    assert out.read_text() == "0 0 2\n1 2 6\n"
    truth = json.loads((tmp_path / "inst.pts.json").read_text())
    assert truth["schema"] == 1
    assert truth["kind"] == "planted"
    assert truth["expected_class"] == 4
    assert truth["field"] == "7"
    assert set(tmp_path.iterdir()) == {out, tmp_path / "inst.pts.json"}
    rc, stdout = run(capsys, [
        "gen", "--field", "7", "--kind", "planted", "--points", "0,0;1,2",
        "--weights", "1,3", "--c", "2", "--out", str(out), "--json"])
    assert rc == EXIT_OK
    assert stdout == (tmp_path / "inst.pts.json").read_text()  # --json echoes the sidecar


def test_gen_random_stdout_is_reproducible(capsys):
    argv = ["gen", "--field", "7", "--kind", "random", "--seed", "42",
            "--density", "0.5"]
    rc1, out1 = run(capsys, argv)
    rc2, out2 = run(capsys, argv)
    assert rc1 == rc2 == EXIT_OK
    assert out1 == out2
    assert out1.splitlines()[0] == "0 1 1"


def test_gen_norm_conic_json(capsys):
    rc, out = run(capsys, ["gen", "--field", "2^3", "--kind", "norm_conic",
                           "--json"])
    assert rc == EXIT_OK
    point_lines, brace = out.split("{", 1)
    truth = json.loads("{" + brace)
    assert truth["kind"] == "norm_conic"
    assert truth["size"] == 9
    assert truth["delta"] == 1
    assert len(point_lines.strip().splitlines()) == 9


def test_gen_input_errors(capsys):
    rc, _ = run(capsys, ["gen", "--field", "7", "--kind", "planted"])
    assert rc == EXIT_INPUT  # --points missing
    rc, _ = run(capsys, ["gen", "--field", "4", "--kind", "random"])
    assert rc == EXIT_INPUT  # 4 is not prime
    rc, _ = run(capsys, ["gen", "--field", "7", "--kind", "planted",
                         "--points", "0;1"])
    assert rc == EXIT_INPUT  # malformed pair


@pytest.mark.parametrize("points, weights, message", [
    ("1,2;3,4", "8,1", "weights must lie in 1..p-1 = 6, got 8"),
    ("1,2;inf:3", "1,1", "planted points must be affine 'a,b' pairs, not directions"),
    ("1,2;3,9", "1,1", "point '3,9' out of range"),
    (";", "1", "empty point list"),
    ("1,2;3,4", "1,x", "bad integer list '1,x'"),
], ids=["weight-over-p", "direction", "out-of-range", "empty-points", "bad-weight"])
def test_gen_planted_refuses_bad_points_and_weights(capsys, points, weights, message):
    rc = main(["gen", "--field", "7", "--kind", "planted", "--points", points,
               "--weights", weights])
    assert rc == EXIT_INPUT
    assert message in capsys.readouterr().err


# -- analyze --------------------------------------------------------------------


def test_analyze_single_point(tmp_path, capsys):
    path = write_points(tmp_path, "2 3 1\n")
    rc, out = run(capsys, ["analyze", "--field", "5", "--in", path,
                           "--lambda", "1"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "analyze"
    assert payload["uniform_count"] == 6
    assert payload["renitent_total"] == 6
    assert len(payload["directions"]) == 6
    assert all(row["uniform"] for row in payload["directions"])
    # canonical serialization: sorted keys, two-space indent, trailing newline
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rc2, out2 = run(capsys, ["analyze", "--field", "5", "--in", path,
                             "--lambda", "1"])
    assert out2 == out


def _analyze_row_dict(d, report):
    """The row cmd_analyze's output holds for direction d, as a dict."""
    return ({"direction": format_point(d), "uniform": False} if report is None
            else report.to_json())


def _row_kinds(d, report):
    if report is None:
        return {"refused"}
    return {"uniform", "vertical" if slope_of(d) is None else "slope",
            "m_d != 0" if report.m_d else "m_d = 0",
            "renitent" if report.renitent else "no renitent line",
            "sharp" if report.sharp else "not sharp"}


# (field, multiset, lambda): together they write every kind of row
ANALYZE_ROW_CORPUS = [
    ("5", {(2, 3): 1}, 1),                                # one sharp renitent line each
    ("5", {(x, y): 1 for x in range(5) for y in range(5)}, 2),   # no renitent line
    ("5", {**{(x, 0): 1 for x in range(5)}, (0, 1): 1}, 1),      # m_d = 1, vertical
    ("5", {(0, 0): 1, (1, 1): 1}, 1),                     # refused classes
    ("3^2", {(1, 2): 1, (4, 5): 2}, 2),
    ("2^3", {(1, 1): 1, (2, 5): 1, (6, 3): 1}, 3),
]


def test_analyze_rows_are_the_canonical_json_of_their_dicts():
    """cli._analyze_row writes each row from a template; it must read as
    canonical_json of the row's dict, alone and inside a document."""
    seen = set()
    for spec, mults, lam in ANALYZE_ROW_CORPUS:
        T = PointMultiset(parse_field_spec(spec), mults)
        for d, report in _classify_all(T, lam):
            row = _analyze_row_dict(d, report)
            written = cli._analyze_row(format_point(d), report)
            assert written.text == canonical_json(row)
            assert (canonical_json({"directions": [written, written]})
                    == canonical_json({"directions": [row, row]}))
            seen |= _row_kinds(d, report)
    assert seen == {"refused", "uniform", "vertical", "slope", "m_d != 0", "m_d = 0",
                    "renitent", "no renitent line", "sharp", "not sharp"}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["5", "7", "2^2", "2^3", "3^2"]), st.data())
def test_analyze_rows_match_on_random_multisets(spec, data):
    K = parse_field_spec(spec)
    point = st.tuples(st.integers(0, K.q - 1), st.integers(0, K.q - 1))
    mults = data.draw(st.dictionaries(point, st.integers(1, 2 * K.p), min_size=1,
                                      max_size=2 * K.q))
    lam = data.draw(st.integers(1, (K.q - 1) // 2))
    for d, report in _classify_all(PointMultiset(K, mults), lam):
        assert (cli._analyze_row(format_point(d), report).text
                == canonical_json(_analyze_row_dict(d, report)))


def test_analyze_names_each_direction_once_per_field(tmp_path, capsys, monkeypatch):
    """The direction names are built once per field: from an empty cache,
    two analyze runs on GF(7) format q + 1 = 8 directions in all."""
    calls = []

    def counting_format_point(point):
        calls.append(point)
        return format_point(point)

    monkeypatch.setattr(cli, "format_point", counting_format_point)
    monkeypatch.setattr(plane, "format_point", counting_format_point)
    plane._direction_names.cache_clear()
    path = write_points(tmp_path, "0 0 1\n1 3 2\n")
    for lam in (1, 2):
        rc, out = run(capsys, ["analyze", "--field", "7", "--in", path, "--lambda", str(lam)])
        assert rc == EXIT_OK
        names = [row["direction"] for row in json.loads(out)["directions"]]
        assert names == [f"inf:{s}" for s in range(7)] + ["inf:vert"]
    assert len(calls) <= 8


def test_analyze_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("2 3 1\n"))
    rc, out = run(capsys, ["analyze", "--field", "5", "--in", "-",
                           "--lambda", "1"])
    assert rc == EXIT_OK
    assert json.loads(out)["uniform_count"] == 6


def test_analyze_marks_non_uniform_directions(tmp_path, capsys):
    # two points, lambda = 1: only the spanned direction stays uniform
    path = write_points(tmp_path, "0 0 1\n1 1 1\n")
    rc, out = run(capsys, ["analyze", "--field", "5", "--in", path,
                           "--lambda", "1"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    rows = {row["direction"]: row for row in payload["directions"]}
    assert rows["inf:1"]["uniform"] is True
    assert rows["inf:0"]["uniform"] is False
    assert payload["uniform_count"] == 1


def test_analyze_input_errors(tmp_path, capsys):
    path = write_points(tmp_path, "9 0 1\n")
    rc, _ = run(capsys, ["analyze", "--field", "5", "--in", path,
                         "--lambda", "1"])
    assert rc == EXIT_INPUT  # coordinate out of range
    rc, _ = run(capsys, ["analyze", "--field", "5",
                         "--in", str(tmp_path / "missing.txt"), "--lambda", "1"])
    assert rc == EXIT_INPUT
    path = write_points(tmp_path, "0 0 1\n")
    rc, _ = run(capsys, ["analyze", "--field", "5", "--in", path,
                         "--lambda", "3"])
    assert rc == EXIT_INPUT  # lambda above (q-1)/2


def test_analyze_rejects_input_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_bytes(b"\xff\xfe 1 2\n")
    rc = main(["analyze", "--field", "7", "--in", str(path), "--lambda", "1"])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: 'utf-8' codec")


def test_analyze_rejects_oversized_field_at_once(tmp_path):
    # the ceiling is checked before any table is built; the timeout only
    # guards against a build that never finishes
    path = write_points(tmp_path, "0 0 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "renitent.cli", "analyze", "--field", "2^30",
         "--in", path, "--lambda", "1"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "too large" in proc.stderr


def test_gen_random_refuses_a_huge_field_at_once():
    # q^2 coins at q = 2^15 would take about 12 minutes; the budget is
    # checked before the first one, so the timeout only catches a regression
    proc = subprocess.run(
        [sys.executable, "-m", "renitent.cli", "gen", "--field", "2^15",
         "--kind", "random", "--density", "0.000001"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert proc.stderr == ("error: a random instance draws one coin per point: "
                           "q^2 = 1073741824 is over the budget of 1048576 points\n")


@pytest.mark.parametrize("spec", ["2^15", "4093"])
@pytest.mark.parametrize("bound", ["gcd", "count"])
def test_detector_bounds_refuse_an_over_budget_field(spec, bound, tmp_path):
    # at either field the detector would take minutes; the budget is
    # checked before the classification, and the timeout only catches a
    # regression
    path = write_points(tmp_path, "1 2 1\n3 5 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "renitent.cli", "check", "--field", spec, "--in", path,
         "--lambda", "2", "--bound", bound],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_INPUT
    assert proc.stdout == ""
    assert "over the budget of" in proc.stderr
    K = parse_field_spec(spec)   # built once: the timing below is the command's own
    t0 = time.perf_counter()
    assert main(["check", "--field", spec, "--in", path, "--lambda", "2",
                 "--bound", bound]) == EXIT_INPUT
    assert time.perf_counter() - t0 < 1.0, K


def test_detector_budget_admits_the_gate_and_benchmark_inputs():
    # the theorems benchmark: planted sets of up to 5 points at q <= 31;
    # the acceptance gate: at most q^2 points at q <= 9; the ladder: two
    # points up to q = 512, and the gcd bound at q = 1021
    cases = [(parse_field_spec(str(q)), 5) for q in (13, 17, 23, 31)]
    cases += [(parse_field_spec(spec), 81) for spec in ("3^2", "2^3", "7")]
    cases += [(parse_field_spec(spec), 2) for spec in ("2^9", "7^3", "17^2", "1021")]
    for K, support in cases:
        assert detector_work(K, support) <= DETECTOR_MAX_WORK, K
    assert detector_work(parse_field_spec("4093"), 2) > DETECTOR_MAX_WORK


# -- envelope ---------------------------------------------------------------------


def test_envelope_regular_single_point(tmp_path, capsys):
    path = write_points(tmp_path, "2 3 1\n")
    rc, out = run(capsys, ["envelope", "--field", "7", "--in", path,
                           "--lambda", "1", "--theorem", "regular"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["curve"]["class"] == 1
    assert payload["curve"]["monomials"] == [
        {"coeff": 1, "i": 1, "j": 0, "k": 0},
        {"coeff": 2, "i": 0, "j": 1, "k": 0},
        {"coeff": 4, "i": 0, "j": 0, "k": 1},
    ]
    assert payload["c"] == 1
    assert payload["verification"]["pass"] is True
    assert len(payload["directions_used"]) == 7
    assert payload["directions_excluded"] == [
        {"direction": "inf:vert", "reason": "vertical direction"}]


def test_envelope_weighted_scan_pipeline(tmp_path, capsys):
    path = write_points(tmp_path, GF13_LINE_PLUS_HEAVY)
    rc, out = run(capsys, ["envelope", "--field", "13", "--in", path,
                           "--lambda", "2", "--theorem", "weighted",
                           "--c", "scan"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["c"] == 7
    assert payload["scan"] == {
        "1": 8, "2": None, "3": None, "4": None, "5": None, "6": None,
        "7": 3, "8": None, "9": 11, "10": 6, "11": 9, "12": None}
    assert payload["curve"]["class"] == 3
    # the curve is U^2 (U + V - W)
    assert payload["curve"]["monomials"] == [
        {"coeff": 1, "i": 3, "j": 0, "k": 0},
        {"coeff": 1, "i": 2, "j": 1, "k": 0},
        {"coeff": 12, "i": 2, "j": 0, "k": 1},
    ]
    assert len(payload["directions_used"]) == 14  # full scan, vertical included
    assert payload["directions_excluded"] == []
    assert len(payload["weights"]) == 27
    assert payload["verification"]["pass"] is True


def test_envelope_weighted_fixed_offset_can_fail_hypotheses(tmp_path, capsys):
    path = write_points(tmp_path, GF13_LINE_PLUS_HEAVY)
    rc, _ = run(capsys, ["envelope", "--field", "13", "--in", path,
                         "--lambda", "2", "--theorem", "weighted", "--c", "2"])
    assert rc == EXIT_HYPOTHESIS  # totals disagree across directions
    rc, _ = run(capsys, ["envelope", "--field", "13", "--in", path,
                         "--lambda", "2", "--theorem", "weighted",
                         "--c", "many"])
    assert rc == EXIT_INPUT


def test_envelope_general_on_merged_instance(tmp_path, capsys):
    path = write_points(tmp_path, "0 0 1\n1 1 1\n2 2 1\n")
    rc, out = run(capsys, ["envelope", "--field", "11", "--in", path,
                           "--lambda", "3", "--theorem", "general"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["curve"]["class"] == 9
    assert payload["curve"]["provenance"] == "general"
    assert payload["verification"]["pass"] is True
    assert len(payload["directions_used"]) == 11
    assert payload["lead_coeffs"]
    merged = [row for row in payload["verification"]["directions"]
              if row["direction"] == "inf:1"]
    assert merged[0]["pencil_contained"] is True


def test_envelope_without_renitent_lines(tmp_path, capsys):
    # the full affine plane is uniform with no renitent line anywhere
    text = "".join(f"{a} {b} 1\n" for a in range(3) for b in range(3))
    path = write_points(tmp_path, text)
    rc, _ = run(capsys, ["envelope", "--field", "3", "--in", path,
                         "--lambda", "1", "--theorem", "regular"])
    assert rc == EXIT_HYPOTHESIS


def test_envelope_regular_excludes_classes_off_the_selected_count(tmp_path, capsys):
    # slope 4 has renitent lines of two counts; slope 2 has another
    # (lambda_d, count offset) than slope 3, which is selected
    path = write_points(tmp_path, "0 0 3\n1 3 2\n3 2 1\n")
    rc, out = run(capsys, ["envelope", "--field", "5", "--in", path,
                           "--lambda", "2", "--theorem", "regular"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["directions_used"] == ["inf:3"]
    assert payload["directions_excluded"] == [
        {"direction": "inf:4", "reason": "renitent counts differ within the class"},
        {"direction": "inf:2", "reason": "count profile differs from the selected class"}]


def test_envelope_weighted_below_a_full_scan_drops_the_vertical(tmp_path, capsys):
    path = write_points(tmp_path, "3 4 1\n4 1 1\n4 4 1\n")
    rc, out = run(capsys, ["envelope", "--field", "7", "--in", path,
                           "--lambda", "2", "--theorem", "weighted", "--c", "scan"])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["directions_used"] == ["inf:0", "inf:4"]
    assert payload["directions_excluded"] == [
        {"direction": "inf:vert", "reason": "vertical direction needs all q+1 covered"}]


@pytest.mark.parametrize("field, lam, text, theorem, message", [
    # two points on x = 0, of weights 1 and 2: each slope class has a
    # renitent line of count 1 and one of count 2
    ("5", "2", "0 1 1\n0 4 2\n", "regular",
     "no slope direction has one repeated renitent count"),
    # two points on x = 0: the vertical direction is the only candidate
    ("5", "1", "0 0 1\n0 4 1\n", "weighted", "no usable direction"),
    ("5", "1", "0 0 1\n0 4 1\n", "general", "no usable slope direction"),
    ("5", "2", "0 4 2\n2 0 3\n", "weighted", "no count offset gives a constant class"),
], ids=["regular-no-repeated-count", "weighted-vertical-only", "general-vertical-only",
        "weighted-no-offset"])
def test_envelope_rejects_inputs_with_no_usable_class(tmp_path, capsys, field, lam, text,
                                                      theorem, message):
    path = write_points(tmp_path, text)
    argv = ["envelope", "--field", field, "--in", path, "--lambda", lam,
            "--theorem", theorem]
    rc = main(argv + (["--c", "scan"] if theorem == "weighted" else []))
    assert rc == EXIT_HYPOTHESIS
    assert capsys.readouterr().err == f"hypothesis rejected: {message}\n"


def _weights_dicts(mults):
    """envelope's weights rows as dicts, in the order of the lines' text."""
    return [{"line": format_line(line), "weight": w}
            for line, w in sorted(mults.items(), key=lambda kv: format_line(kv[0]))]


def _run_envelope(argv, text):
    """(exit status, stdout) of one envelope run reading its points from stdin."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        mp.setattr(sys, "stdin", io.StringIO(text))
        rc = main(argv)
    return rc, out.getvalue()


def _envelope_values(spec, text, lam, theorem, c):
    """The curve, verification report and weight map (None unless
    weighted) that cmd_envelope hands its templates for this input."""
    seen = {}

    def recorder(name):
        template = getattr(cli, name)

        def record(value):
            seen[name] = value
            return template(value)
        return record

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_curve_text", "_verification_text", "_weights_text"):
            mp.setattr(cli, name, recorder(name))
        rc, _ = _run_envelope(["envelope", "--field", spec, "--in", "-", "--lambda", str(lam),
                               "--theorem", theorem, "--c", c], text)
    assert rc == EXIT_OK
    return seen["_curve_text"], seen["_verification_text"], seen.get("_weights_text")


def _wrong_curve_values():
    """A class-1 curve through no renitent line of {(2, 3)} over GF(7):
    every root fails."""
    K = parse_field_spec("7")
    reports = [r for r in renitent.uniform_directions(PointMultiset(K, {(2, 3): 1}), 1)
               if slope_of(r.direction) is not None]
    curve = renitent.EnvelopeCurve(renitent.TriHomPoly.linear(K, 1, 2, K.neg(4)), 1, "regular")
    return curve, renitent.verify_envelope(curve, reports), None


def _envelope_kinds(curve, verification, mults):
    kinds = {curve.provenance}
    for d in verification.directions:
        kinds.add("vertical" if slope_of(d.direction) is None else "slope")
        kinds.add("pencil" if d.pencil_contained else "section")
        for r in d.roots:
            kinds |= {"exact" if r.exact else "at least", "ok" if r.ok else "failing root"}
    if mults and sorted(mults.values()) != [w for _, w in sorted(
            (format_line(line), w) for line, w in mults.items())]:
        kinds.add("weights out of weight order")
    return kinds


# (field, points, lambda, theorem, c): with the wrong curve they write
# every kind of envelope row
ENVELOPE_CORPUS = [
    ("7", "2 3 1\n", 1, "regular", "1"),
    ("13", GF13_LINE_PLUS_HEAVY, 2, "weighted", "scan"),   # the vertical direction
    ("11", "0 0 1\n1 1 1\n2 2 1\n", 3, "general", "1"),   # inf:1 contains its pencil
    ("11", "0 0 2\n1 2 6\n3 5 1\n", 3, "weighted", "1"),  # weights 2, 6 and 1
    ("3^2", "1 2 1\n4 5 1\n", 2, "general", "1"),
]


def test_envelope_templates_are_the_canonical_json_of_their_records():
    """cmd_envelope writes curve, verification and weights from templates;
    each must read as canonical_json of its to_json() (for the weights, of
    the rows cmd_envelope built before), alone and inside a document."""
    seen = set()
    for values in [_envelope_values(*row) for row in ENVELOPE_CORPUS] + [_wrong_curve_values()]:
        curve, verification, mults = values
        pairs = [(cli._curve_text(curve), curve.to_json()),
                 (cli._verification_text(verification), verification.to_json())]
        if mults is not None:
            pairs.append((cli._weights_text(mults), _weights_dicts(mults)))
        for written, reference in pairs:
            assert written.text == canonical_json(reference)
            assert (canonical_json({"doc": {"value": written}, "schema": 1})
                    == canonical_json({"doc": {"value": reference}, "schema": 1}))
        seen |= _envelope_kinds(*values)
    assert seen == {"regular", "weighted", "general", "vertical", "slope", "pencil", "section",
                    "exact", "at least", "ok", "failing root", "weights out of weight order"}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["5", "7", "3^2", "13"]),
       st.sampled_from(["regular", "weighted", "general"]), st.data())
def test_envelope_documents_match_json_dumps_of_the_records(spec, theorem, data):
    """A whole envelope document equals json.dumps(indent=2, sort_keys=True)
    of the document built from the records' to_json()."""
    K = parse_field_spec(spec)
    point = st.tuples(st.integers(0, K.q - 1), st.integers(0, K.q - 1))
    mults = data.draw(st.dictionaries(point, st.integers(1, 2 * K.p), min_size=1, max_size=4))
    lam = data.draw(st.integers(1, min(3, (K.q - 1) // 2)))
    text = "".join(f"{a} {b} {m}\n" for (a, b), m in mults.items())
    argv = ["envelope", "--field", spec, "--in", "-", "--lambda", str(lam),
            "--theorem", theorem, "--c", "scan" if theorem == "weighted" else "1"]
    written = _run_envelope(argv, text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_curve_text", lambda curve: curve.to_json())
        mp.setattr(cli, "_verification_text", lambda report: report.to_json())
        mp.setattr(cli, "_weights_text", _weights_dicts)
        mp.setattr(cli, "canonical_json", lambda doc: json.dumps(doc, indent=2, sort_keys=True))
        assert _run_envelope(argv, text) == written


# -- check ------------------------------------------------------------------------


@pytest.mark.parametrize("bound,theorem", [
    ("deficiency", "deficiency-bound"),
    ("count", "renitent-count-lower-bound"),
    ("gcd", "gcd-degree-bound"),
    ("dichotomy", "index-dichotomy"),
])
def test_check_bounds_on_single_point(tmp_path, capsys, bound, theorem):
    path = write_points(tmp_path, "2 3 1\n")
    rc, out = run(capsys, ["check", "--field", "5", "--in", path,
                           "--lambda", "1", "--bound", bound])
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["theorem"] == theorem
    assert payload["pass"] is True
    assert payload["lhs"] <= payload["rhs"] or bound == "count"
    if bound == "count":
        assert payload["lhs"] >= payload["rhs"]  # a lower bound
        assert payload["witnesses"]["counts_agree"] is True
    if bound == "dichotomy":
        assert payload["witnesses"]["high_points"] == [
            {"point": "2,3", "index": 6}]


def test_check_rejects_empty_multiset(tmp_path, capsys):
    path = write_points(tmp_path, "# nothing\n")
    rc, _ = run(capsys, ["check", "--field", "5", "--in", path,
                         "--lambda", "1", "--bound", "deficiency"])
    assert rc == EXIT_HYPOTHESIS  # no sharp direction exists


@pytest.mark.parametrize("bound", ["deficiency", "count", "gcd"])
def test_check_without_uniform_slope_direction(tmp_path, capsys, bound):
    # well-formed input with no 6-uniform direction: the hypothesis fails
    path = write_points(tmp_path, "0 0 1\n1 1 1\n2 5 1\n3 3 1\n4 1 1\n")
    rc, out = run(capsys, ["check", "--field", "7", "--in", path,
                           "--lambda", "1", "--bound", bound])
    assert rc == EXIT_HYPOTHESIS
    assert out == ""


def test_check_dichotomy_needs_room(tmp_path, capsys):
    path = write_points(tmp_path, "0 0 1\n1 1 1\n")
    rc, _ = run(capsys, ["check", "--field", "5", "--in", path,
                         "--lambda", "2", "--bound", "dichotomy"])
    assert rc == EXIT_HYPOTHESIS


def test_no_lambda_is_legal_at_q2(tmp_path, capsys):
    # 0 < lambda <= (q - 1)/2 has no solution at q = 2: every command
    # reports bad input, none a failed hypothesis
    path = write_points(tmp_path, "0 0 1\n")
    commands = [["check", "--bound", bound]
                for bound in ("deficiency", "count", "gcd", "dichotomy")]
    for argv in commands + [["analyze"]]:
        rc, out = run(capsys, argv + ["--field", "2", "--in", path, "--lambda", "1"])
        assert (rc, out) == (EXIT_INPUT, ""), argv


# -- output plumbing ---------------------------------------------------------------


def test_out_file_is_exact_and_optionally_echoed(tmp_path, capsys):
    path = write_points(tmp_path, "2 3 1\n")
    out = tmp_path / "report.json"
    rc, stdout = run(capsys, ["analyze", "--field", "5", "--in", path,
                              "--lambda", "1", "--out", str(out)])
    assert rc == EXIT_OK
    assert stdout == ""
    stored = out.read_text()
    assert json.loads(stored)["schema"] == 1
    rc, echoed = run(capsys, ["analyze", "--field", "5", "--in", path,
                              "--lambda", "1", "--out", str(out), "--json"])
    assert echoed == stored
    leftovers = [p for p in tmp_path.iterdir()
                 if p.name.startswith(".renitent-")]
    assert leftovers == []


@pytest.mark.parametrize("argv", [
    ["analyze", "--field", "5", "--lambda", "1"],
    ["gen", "--field", "7", "--kind", "random", "--seed", "1"],
], ids=["analyze", "gen"])
def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys, argv):
    if argv[0] == "analyze":
        argv = argv + ["--in", write_points(tmp_path, "2 3 1\n")]
    before = set(tmp_path.iterdir())
    out = tmp_path / "nodir" / "report"
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda u: f"umask{u:03o}")
def test_out_files_get_the_mode_open_would_give(tmp_path, capsys, umask):
    old = os.umask(umask)
    try:
        rc = main(["gen", "--field", "7", "--kind", "random", "--seed", "1",
                   "--out", str(tmp_path / "g")])
    finally:
        os.umask(old)
    assert rc == EXIT_OK
    for name in ("g", "g.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o666 & ~umask


def test_gen_leaves_no_points_file_when_the_sidecar_cannot_be_written(tmp_path, capsys):
    (tmp_path / "g.json").mkdir()
    rc = main(["gen", "--field", "7", "--kind", "random", "--seed", "1",
               "--out", str(tmp_path / "g")])
    captured = capsys.readouterr()
    assert rc == EXIT_INPUT
    assert captured.err == f"error: cannot write {tmp_path / 'g.json'}: Is a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


def test_gen_restores_an_old_points_file_when_the_sidecar_cannot_be_written(tmp_path, capsys):
    (tmp_path / "g").write_text("0 0 1\n")
    (tmp_path / "g.json").mkdir()
    rc = main(["gen", "--field", "7", "--kind", "random", "--seed", "1",
               "--out", str(tmp_path / "g")])
    assert rc == EXIT_INPUT
    assert (tmp_path / "g").read_text() == "0 0 1\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g", "g.json"]


# -- one parser per process -------------------------------------------------------


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    path = write_points(tmp_path, "2 3 1\n")
    for _ in range(3):
        rc, _ = run(capsys, ["analyze", "--field", "5", "--in", path, "--lambda", "1"])
        assert rc == EXIT_OK
    three_calls = len(built)
    build_parser.cache_clear()
    build_parser()
    one_build = len(built) - three_calls
    assert one_build > 1  # the top parser and one per subcommand
    assert three_calls == one_build


def test_reused_parser_keeps_no_options_between_calls(tmp_path, capsys):
    first = write_points(tmp_path, "2 3 1\n", "first.txt")
    second = write_points(tmp_path, "0 0 1\n1 1 1\n", "second.txt")
    out = tmp_path / "report.json"
    rc, echoed = run(capsys, ["analyze", "--field", "5", "--in", first,
                              "--lambda", "1", "--out", str(out), "--json"])
    assert rc == EXIT_OK
    stored = out.read_bytes()
    assert echoed.encode() == stored
    rc, printed = run(capsys, ["analyze", "--field", "5", "--in", second, "--lambda", "2"])
    assert rc == EXIT_OK
    assert json.loads(printed)["size"] == 2
    assert out.read_bytes() == stored


def test_parser_still_works_after_argparse_rejects_an_argv(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--field", "5", "--lambda", "1"])  # no --in
    assert exc.value.code == 2
    capsys.readouterr()
    path = write_points(tmp_path, "2 3 1\n")
    rc, stdout = run(capsys, ["analyze", "--field", "5", "--in", path, "--lambda", "1"])
    assert rc == EXIT_OK
    assert json.loads(stdout)["command"] == "analyze"


REPO_ROOT = Path(__file__).resolve().parents[1]


def test_console_script_round_trip(tmp_path):
    """The `renitent` entry of `[project.scripts]` in pyproject.toml runs
    the gen -> check round trip: its target exists and is callable, reads
    its arguments from sys.argv, and its return value is the exit status.
    The launcher is the one an installer writes, made here from the
    declaration, so no install is needed; that setuptools builds and
    installs it is left to test_installed_console_script_round_trip."""
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["renitent"]
    module, attr = target.split(":")
    bindir = tmp_path / "bin"
    bindir.mkdir()
    launcher = bindir / "renitent"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n")
    launcher.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
               PYTHONPATH=str(Path(renitent.__file__).parents[1]))

    out = tmp_path / "inst.pts"
    gen = subprocess.run(
        ["renitent", "gen", "--field", "3^2", "--kind", "planted",
         "--points", "0,0;1,2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert gen.returncode == 0, gen.stderr
    check = subprocess.run(
        ["renitent", "check", "--field", "3^2", "--in", str(out),
         "--lambda", "2", "--bound", "count"],
        capture_output=True, text=True, env=env)
    assert check.returncode == 0, check.stderr
    payload = json.loads(check.stdout)
    assert payload["theorem"] == "renitent-count-lower-bound"
    assert payload["pass"] is True


def test_python_dash_m_exits_with_mains_status(monkeypatch, tmp_path, capsys):
    """`python -m renitent.cli` runs main on sys.argv and exits with its
    return value; runpy runs it here in-process, on a fresh copy of the
    module, as the interpreter does."""
    path = write_points(tmp_path, "0 0 1\n")
    monkeypatch.setattr(sys, "argv", ["renitent", "analyze", "--field", "7", "--in", path,
                                      "--lambda", "9"])
    monkeypatch.delitem(sys.modules, "renitent.cli")
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("renitent.cli", run_name="__main__")
    assert exit_info.value.code == EXIT_INPUT
    assert "lam" in capsys.readouterr().err


@pytest.mark.skipif(
    importlib.util.find_spec("wheel") is None
    and (importlib.util.find_spec("setuptools") is None
         or importlib.util.find_spec("setuptools.command.bdist_wheel") is None),
    reason="cannot build a wheel offline: neither wheel nor setuptools' "
           "own bdist_wheel (setuptools >= 70.1) is installed")
def test_installed_console_script_round_trip(tmp_path):
    """pip installs the package into a fresh venv, and the `renitent`
    launcher setuptools writes there runs the gen -> check round trip."""
    project = tmp_path / "project"
    shutil.copytree(REPO_ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(REPO_ROOT / "pyproject.toml", project)
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--system-site-packages",
                    "--without-pip", str(venv)], check=True)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    install = subprocess.run(
        [str(venv / "bin" / "python"), "-m", "pip", "install", "--no-index",
         "--no-build-isolation", "--no-deps", str(project)],
        capture_output=True, text=True, env=env)
    assert install.returncode == 0, install.stdout + install.stderr

    renitent_bin = str(venv / "bin" / "renitent")
    out = tmp_path / "inst.pts"
    gen = subprocess.run(
        [renitent_bin, "gen", "--field", "3^2", "--kind", "planted",
         "--points", "0,0;1,2", "--out", str(out)],
        capture_output=True, text=True, env=env)
    assert gen.returncode == 0, gen.stderr
    check = subprocess.run(
        [renitent_bin, "check", "--field", "3^2", "--in", str(out),
         "--lambda", "2", "--bound", "count"],
        capture_output=True, text=True, env=env)
    assert check.returncode == 0, check.stderr
    payload = json.loads(check.stdout)
    assert payload["theorem"] == "renitent-count-lower-bound"
    assert payload["pass"] is True


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "renitent.cli", "gen", "--field", "7",
         "--kind", "random", "--seed", "1", "--density", "0.25"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout  # point lines
