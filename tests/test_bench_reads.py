"""Every renitent name the benchmark and the ladder read still resolves.

perfbench's workloads, oracles and layer timers and bench/ladder.py reach
the package through module attributes (``counting.build_point_detector``,
``renitent.gen_random``) and ``from renitent... import`` lines.  A name
deleted from src/ that one of them still reads would fail only when the
benchmark or the ladder runs, so this reads their syntax trees and
resolves each such name, without running them.
"""

import ast
import importlib
import pathlib
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
READERS = ["perfbench/workloads.py", "perfbench/oracles.py", "perfbench/layers.py",
           "bench/ladder.py"]


def renitent_reads(source):
    """Each renitent name the source reads, as a tuple of its dotted parts:
    the names a ``from renitent... import`` line takes, and every
    attribute chain read off a name bound to a renitent module (the name
    ``renitent`` always is one: the ladder's timers take it as a
    parameter)."""
    tree = ast.parse(source)
    bound = {"renitent": ("renitent",)}
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "renitent" and alias.asname:
                    bound[alias.asname] = tuple(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "renitent":
            for alias in node.names:
                path = (*node.module.split("."), alias.name)
                reads.add(path)
                bound[alias.asname or alias.name] = path
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            chain.append(node.attr)
            node = node.value
            if isinstance(node, ast.Name) and node.id in bound:
                reads.add((*bound[node.id], *reversed(chain)))
    return reads


def unresolved(path):
    """The part of path that does not resolve, or None.  The walk follows
    modules and classes; past any other object (a function, an instance)
    nothing more can be checked without running the code."""
    obj = importlib.import_module(path[0])
    for i in range(1, len(path)):
        if not isinstance(obj, (types.ModuleType, type)):
            return None
        name = ".".join(path[:i + 1])
        try:
            obj = getattr(obj, path[i])
        except AttributeError:
            if not isinstance(obj, types.ModuleType):
                return name
            try:   # `from renitent import cli` imports the submodule
                obj = importlib.import_module(name)
            except ImportError:
                return name
    return None


@pytest.mark.parametrize("reader", READERS)
def test_every_renitent_name_a_reader_takes_resolves(reader):
    reads = renitent_reads((ROOT / reader).read_text(encoding="utf-8"))
    assert reads, "the scan found no renitent name"
    assert sorted(filter(None, map(unresolved, reads))) == []


def test_checker_flags_deleted_names():
    source = (
        "import renitent.cli as c\n"
        "from renitent import counting, plane, gone_module\n"
        "from renitent.poly import UniPoly, roots_with_multiplicity\n"
        "def timer(renitent, K):\n"
        "    counting.build_point_detector(renitent.dual_coords(K))\n"
        "    counting.worst = c.main\n"
        "    return plane.ProjPoint.no_such, plane.ProjPoint.affine, UniPoly.x_minus, c.mian\n")
    reads = renitent_reads(source)
    assert ("renitent", "counting", "worst") not in reads   # a write, not a read
    assert sorted(filter(None, map(unresolved, reads))) == [
        "renitent.cli.mian", "renitent.dual_coords", "renitent.gone_module",
        "renitent.plane.ProjPoint.no_such", "renitent.poly.UniPoly.x_minus",
        "renitent.poly.roots_with_multiplicity"]
