"""Every raise in the package names a class of renitent.errors.

cli.main turns InputError into exit 2 and HypothesisRejected into exit 3;
any other exception escapes it as a traceback with exit 1.  So a stray
ValueError raised from src would break the exit-code contract on the
first input that reaches it.  The only exceptions allowed are the ones
listed below: unreachable internal checks, the JSON writer's private
fallback signal, the re-raise that cleans up a failed atomic write, and
the AttributeError that PEP 562 requires of the package's lazy
``__getattr__`` for a name it does not export.
"""

import ast
import collections
import pathlib

import pytest

from renitent import errors

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "renitent"
ERROR_CLASSES = {name for name, obj in vars(errors).items()
                 if isinstance(obj, type) and obj.__module__ == errors.__name__}
ALLOWED = {
    "gf.py": {"RuntimeError": 2},   # no irreducible modulus / no generator
    "cli.py": {"_NotPlain": 3, "<re-raise>": 1},
    "__init__.py": {"AttributeError": 1},   # PEP 562: unknown attribute
}


def _stray_raises(path):
    """(name, line) of each raise whose exception is not an errors class."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if exc is None:
            name = "<re-raise>"
        elif isinstance(exc, ast.Name):
            name = exc.id
        else:
            name = ast.unparse(exc)
        if name not in ERROR_CLASSES:
            out.append((name, node.lineno))
    return sorted(out)


def test_errors_defines_the_five_classes():
    assert ERROR_CLASSES == {"RenitentError", "InputError", "HypothesisRejected",
                             "DivisionByZero", "HypothesisViolation"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_raise_names_an_errors_class(path):
    counts = collections.Counter(name for name, _ in _stray_raises(path))
    assert counts == ALLOWED.get(path.name, {})


def test_checker_flags_a_stray_raise(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError(x)\n"
        "    try:\n"
        "        raise InputError('bad') from None\n"
        "    except InputError:\n"
        "        raise\n"
        "    raise errors.Other\n")
    assert _stray_raises(path) == [("<re-raise>", 7), ("ValueError", 3), ("errors.Other", 8)]
