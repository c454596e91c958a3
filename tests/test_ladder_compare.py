"""bench/ladder.py --compare: a digest that differs fails the run.

The ladder keeps, per q, a digest of the classification reports and a
theorem digest of the detector terms and gcd profiles.  compare returns
every (column, digest key, q) whose digest differs from the new column's,
and main exits 1 when that list is not empty; the timing ratios never
fail a run.  These call compare on made-up columns, with no timing run,
and read the import row's figure from a made-up -X importtime log.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

LADDER = pathlib.Path(__file__).resolve().parent.parent / "bench" / "ladder.py"


@pytest.fixture(scope="module")
def ladder():
    path, had_worker = list(sys.path), "worker" in sys.modules
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)   # puts perfbench/ on sys.path for its worker
    finally:
        sys.path[:] = path
        if not had_worker:
            sys.modules.pop("worker", None)
    return module


def column(digest, theorem_digest, median_s=1.0):
    ops = {"uniform_directions": {q: {"median_s": median_s, "iqr_s": 0.0} for q in digest},
           "build_slope_detector": {q: {"median_s": median_s, "iqr_s": 0.0}
                                    for q in theorem_digest}}
    return {"ops": ops, "digest": digest, "theorem_digest": theorem_digest, "python": "3.11.7"}


OLD = column({"31": "a31", "49": "a49"}, {"31": "t31", "49": "t49", "343": "t343"})


def write(tmp_path, columns):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"columns": columns}), encoding="utf-8")
    return str(path)


def test_equal_digests_pass_whatever_the_ratios(ladder, tmp_path, capsys):
    path = write(tmp_path, {"parent": OLD, "change": OLD})
    new = column({"31": "a31", "49": "a49"}, {"31": "t31", "49": "t49"}, median_s=3.0)
    assert ladder.compare(new, path) == []
    out = capsys.readouterr().out
    assert "3.00" in out and "REPORTS DIFFER" not in out


def test_every_differing_digest_is_returned(ladder, tmp_path, capsys):
    changed = column({"31": "a31", "49": "a49"}, {"31": "t31", "49": "other"})
    path = write(tmp_path, {"change": changed, "parent": OLD})
    new = column({"31": "a31", "49": "x49"}, {"31": "t31", "49": "t49"})
    assert ladder.compare(new, path) == [("change", "digest", "49"),
                                         ("change", "theorem_digest", "49"),
                                         ("parent", "digest", "49")]
    out = capsys.readouterr().out
    assert out.count("REPORTS DIFFER") == 4   # two ops at q = 49, against two columns
    assert "q=  31  1.00\n" in out


def test_a_q_missing_from_either_column_is_no_difference(ladder, tmp_path):
    path = write(tmp_path, {"parent": OLD})
    new = column({"31": "a31", "64": "a64"}, {"31": "t31", "64": "t64"})
    assert ladder.compare(new, path) == []


def test_import_seconds_sums_the_top_level_renitent_imports(ladder):
    log = ("import time: self [us] | cumulative | imported package\n"
           "import time:      1363 |      70562 | site\n"
           "import time:       261 |        261 | renitent\n"
           "import time:      1107 |       1942 |   argparse\n"
           "import time:       202 |        202 |     renitent.records\n"
           "import time:       437 |      11228 | renitent.cli\n")
    assert ladder.import_seconds(log) == pytest.approx((261 + 11228) * 1e-6)


@pytest.mark.parametrize("log", [
    "",
    # only nested renitent imports
    "import time:      1107 |       1942 | argparse\n"
    "import time:       202 |        202 |   renitent.records\n",
    # another column layout
    "import time: 261 | 261 | 0 | renitent\n",
])
def test_import_seconds_refuses_a_log_with_no_top_level_renitent_import(ladder, log):
    with pytest.raises(ValueError, match="no top-level renitent import"):
        ladder.import_seconds(log)
