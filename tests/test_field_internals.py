"""Only gf.py reads a field's tables.

The exp/log/Zech tables and the row kernel's byte tables are how gf
computes, not part of what it offers: the other modules reach them only
through the kernels (K.uadd, K.umul, ...) and the checked methods.  This
keeps the representation free to change inside gf.py alone.
"""

import ast
import pathlib

import pytest

from renitent.gf import GF

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "renitent"
INTERNALS = {"_exp", "_log", "_zech", "_mulrow", "_subtab"}


def _internal_reads(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return sorted({(node.attr, node.lineno) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr in INTERNALS})


def test_internals_are_fields_of_gf():
    assert INTERNALS <= set(GF.__slots__)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "gf.py"),
                         ids=lambda p: p.name)
def test_no_module_but_gf_reads_field_tables(path):
    assert _internal_reads(path) == []


def test_checker_flags_a_table_read(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("def f(K, a):\n    return K._exp[K._log[a]]\n")
    assert _internal_reads(path) == [("_exp", 2), ("_log", 2)]
