"""What importing the package and running a command loads.

``renitent`` loads its names on first use (PEP 562), and each CLI
command imports the modules it runs when it runs, so ``gen`` and
``analyze`` never pay for ``counting``, ``envelope`` or ``dataclasses``;
and the JSON writer takes its string encoder from ``_json``, so no
command loads the ``json`` decoder.
These checks are structural: they list modules, and time nothing.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import renitent

ENV = dict(os.environ, PYTHONPATH=str(Path(renitent.__file__).parents[1]))

# Runs the CLI in a fresh interpreter and prints, last on stderr, the
# modules that importing renitent.cli and running the command added.
PROBE = """
import sys
before = set(sys.modules)
import renitent.cli
rc = renitent.cli.main(sys.argv[1:])
print(" ".join(sorted(set(sys.modules) - before)), file=sys.stderr)
sys.exit(rc)
"""

HEAVY = {"dataclasses", "inspect", "json.decoder", "renitent.counting", "renitent.envelope"}


def loaded_by(argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.fixture
def points(tmp_path):
    path = tmp_path / "pts.txt"
    path.write_text("2 3 1\n")
    return str(path)


def test_import_alone_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import renitent; "
         "print(' '.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "renitent" in loaded
    assert not {m for m in loaded if m.startswith("renitent.")}


def test_cli_import_leaves_the_json_decoder_out():
    # the writer needs only the string encoder, from _json
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; import renitent.cli; "
         "print(' '.join(m for m in ('json', 'json.decoder', 'json.scanner') "
         "if m in sys.modules))"],
        capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


@pytest.mark.parametrize("argv", [
    ["gen", "--field", "7", "--kind", "random", "--seed", "1"],
    ["gen", "--field", "7", "--kind", "planted", "--points", "0,0;1,2"],
    ["gen", "--field", "2^2", "--kind", "norm_conic"],
    ["analyze", "--field", "7", "--lambda", "1"],
], ids=["gen-random", "gen-planted", "gen-norm-conic", "analyze"])
def test_gen_and_analyze_skip_the_theorem_modules(argv, points, tmp_path):
    if argv[0] == "analyze":
        argv = [*argv, "--in", points, "--out", str(tmp_path / "report.json")]
    else:
        argv = [*argv, "--out", str(tmp_path / "inst.pts")]
    loaded = loaded_by(argv)
    assert "renitent.cli" in loaded
    assert not loaded & HEAVY


@pytest.mark.parametrize("bound, needs, skips", [
    ("count", "renitent.counting", "renitent.envelope"),
    ("deficiency", "renitent.envelope", "renitent.counting"),
])
def test_check_loads_the_module_of_its_bound(bound, needs, skips, points):
    loaded = loaded_by(["check", "--field", "7", "--in", points, "--lambda", "1",
                        "--bound", bound])
    assert needs in loaded
    assert skips not in loaded
    assert not loaded & {"dataclasses", "json.decoder"}


# -- the lazy namespace ------------------------------------------------------


def test_every_exported_name_is_the_defining_modules_object():
    assert len(renitent.__all__) == len(set(renitent.__all__)) == 76
    for name in renitent.__all__:
        obj = getattr(renitent, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.startswith("renitent."), name
        assert vars(module)[name] is obj, name


# The public names that no module of src/ calls, each kept for the reason
# the README gives; a new uncalled name, or a kept one that gains a
# caller, must be reconciled with the README and this list.
KEPT_WITHOUT_CALLER = {
    "build_point_detector", "classify_direction", "concurrency_point", "dual_coords",
    "gcd_degree_bound",
    "hankel_det_closed_form", "index_of_point", "line_count", "parallel_class",
    "roots_with_multiplicity", "uni_gcd", "weighted_power_recursion_check",
}


def test_public_names_without_a_caller_are_the_kept_ones():
    # a use is a reference in code: a name's definition, an import, a
    # docstring or a message is none, and __init__ only lists the names
    used = set()
    for path in Path(renitent.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    assert set(renitent.__all__) - used == KEPT_WITHOUT_CALLER


def test_dir_lists_every_exported_name():
    listed = dir(renitent)
    assert set(renitent.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(listed)


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="^module 'renitent' has no attribute 'nope'$"):
        renitent.nope
    with pytest.raises(ImportError):
        from renitent import nope  # noqa: F401


def test_submodules_still_import_from_the_package():
    from renitent import counting, envelope, generators
    assert counting.gcd_profile is renitent.gcd_profile
    assert envelope.verify_envelope is renitent.verify_envelope
    assert generators.gen_random is renitent.gen_random
