"""Every global name the package's modules read is bound somewhere.

No linter ships with the package, so this stands in for pyflakes'
undefined-name check: a name that no import, def, class or assignment
binds at module level, and that is not a builtin, would only fail with
NameError on the first call that reaches it.
"""

import builtins
import pathlib
import symtable

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "renitent"
ALWAYS_BOUND = set(dir(builtins)) | {"__file__", "__path__", "__spec__", "__loader__"}


def _undefined_globals(path):
    top = symtable.symtable(path.read_text(encoding="utf-8"), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols() if s.is_assigned() or s.is_imported()}
    known = bound | ALWAYS_BOUND
    missing, tables = set(), [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for sym in table.get_symbols():
            reads_global = table is top or sym.is_global()
            if sym.is_referenced() and reads_global and sym.get_name() not in known:
                missing.add(sym.get_name())
    return missing


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_undefined_global_names(path):
    assert _undefined_globals(path) == set()


def test_checker_flags_an_unbound_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\n\ndef f(x):\n    if x:\n        raise Missing(os.sep)\n")
    assert _undefined_globals(path) == {"Missing"}
