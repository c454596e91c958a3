"""Records take their ``__init__`` from their ``__slots__``.

`records.Record` compiles each record class's constructor on its first
construction.  These tests keep it the only one: no record class but
`EnvelopeCurve` (whose ``lead`` has a default) writes its own, importing
the package compiles none, and the compiled one behaves as the
hand-written constructor it replaces, down to its error messages.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import renitent
from renitent.records import FrozenRecord, Record

SRC = pathlib.Path(renitent.__file__).resolve().parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _record_classes():
    for name in MODULES:
        importlib.import_module(f"renitent.{name}")
    out, todo = [], [Record]
    while todo:
        cls = todo.pop()
        subs = [c for c in cls.__subclasses__() if c.__module__.startswith("renitent.")]
        out.extend(subs)
        todo.extend(subs)
    return out


def test_only_envelope_curve_writes_its_own_init():
    classes = _record_classes()
    assert len(classes) >= 17
    written = [cls.__qualname__ for cls in classes
               if "__init__" in vars(cls)
               and vars(cls)["__init__"].__code__.co_filename.endswith(".py")]
    assert written == ["EnvelopeCurve"]


def test_import_compiles_no_constructor():
    code = ("import renitent.cli, renitent.counting, renitent.envelope, "
            "renitent.generators, renitent.uniformity\n"
            "from renitent.records import Record\n"
            "todo, own = [Record], []\n"
            "while todo:\n"
            "    cls = todo.pop()\n"
            "    todo.extend(cls.__subclasses__())\n"
            "    own += [cls.__qualname__] if '__init__' in vars(cls) else []\n"
            "print(sorted(own))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.split("\n")[0] == "['EnvelopeCurve', 'Record']"


def _pair_class(base):
    class Pair(base):
        __slots__ = ("a", "b")
    return Pair


@pytest.mark.parametrize("base", [Record, FrozenRecord], ids=lambda c: c.__name__)
def test_first_construction_compiles_and_stores_the_init(base):
    Pair = _pair_class(base)
    assert "__init__" not in vars(Pair)
    with pytest.raises(TypeError, match=r"\.Pair\.__init__\(\) missing 1 required "
                                        r"positional argument: 'b'$"):
        Pair(1)
    init = vars(Pair)["__init__"]
    assert init.__qualname__ == "_pair_class.<locals>.Pair.__init__"
    assert Pair(1, 2) == Pair(b=2, a=1) != Pair(2, 1)
    assert vars(Pair)["__init__"] is init
    assert repr(Pair(a=1, b=2)) == "_pair_class.<locals>.Pair(a=1, b=2)"
    with pytest.raises(TypeError, match=r"takes 3 positional arguments but 4"):
        Pair(1, 2, 3)
    with pytest.raises(TypeError, match=r"unexpected keyword argument 'c'"):
        Pair(1, 2, c=3)
    assert vars(Pair)["__init__"] is init


def test_a_base_keeps_the_generic_init():
    generic = vars(Record)["__init__"]
    assert Record()._values() == () == FrozenRecord()._values()
    assert vars(Record)["__init__"] is generic
    assert "__init__" not in vars(FrozenRecord)
    Pair = _pair_class(Record)
    assert Pair(1, 2).b == 2
