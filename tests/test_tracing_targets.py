"""Every boundary the benchmark's tracer wraps still exists where it looks.

perfbench/tracing.py replaces each "Class.method" target in that class's
own __dict__ and rebinds each function target on its module.  A target
that was deleted, renamed or moved to a base class would only fail when
the traced benchmark runs, so this checks the tables directly.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted({**tracing.SPANS, **tracing.COUNTERS})


def _resolves(modname, attr):
    module = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        return isinstance(cls, type) and meth in cls.__dict__
    return callable(getattr(module, attr, None))


def test_tables_are_not_empty():
    assert len(TARGETS) == len(tracing.SPANS) + len(tracing.COUNTERS) > 0


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t[0]}:{t[1]}")
def test_traced_target_resolves(target):
    assert _resolves(*target)


def test_checker_flags_missing_and_inherited_targets():
    assert not _resolves("renitent.poly", "UniPoly.no_such_method")
    assert not _resolves("renitent.poly", "NoSuchClass.det")
    assert not _resolves("renitent.poly", "no_such_function")
    # DetectorPoly inherits eval_v from BiPoly, so wrapping it there would
    # miss the class the tracer patches
    assert not _resolves("renitent.counting", "DetectorPoly.eval_v")
    assert _resolves("renitent.poly", "BiPoly.eval_v")
