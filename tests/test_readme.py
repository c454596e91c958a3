"""Figures the README states about the source tree match the tree."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_line_count_matches_the_package():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"The package is ([\d,]+) lines of Python", text)
    assert stated, "README no longer states the package's line count"
    # what `wc -l src/renitent/*.py` totals: the newlines of each file
    lines = sum(path.read_bytes().count(b"\n")
                for path in (ROOT / "src" / "renitent").glob("*.py"))
    assert int(stated.group(1).replace(",", "")) == lines
