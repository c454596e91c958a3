"""Run the hand-written mutants of the package against the tests that must catch them.

    python3 bench/mutants.py

Each row of MUTANTS names a mutant, the source file it edits, an exact
snippet of that file, the text that replaces it, and the test files that
must fail once it is applied.  The script copies src/ and tests/ to a
temporary directory, applies one row at a time to the copy (putting the
file back after), and runs ``python -m pytest -x -q <test files>`` there
under a time limit of TIME_LIMIT seconds.  A mutant is killed when that
run exits nonzero within the limit; one whose tests pass, or run past
the limit, survives.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
a row's snippet does not occur exactly once in its file (the code moved,
and the change that moved it updates the row).  Nothing runs in the
second case.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIME_LIMIT = 120   # seconds per mutant

GF = "src/renitent/gf.py"
COUNTING = "src/renitent/counting.py"
ENVELOPE = "src/renitent/envelope.py"

# (name, file, old snippet, replacement, test files that must fail)
MUTANTS = [
    # the prime field's packed Euclid (gf._prime_kernels' gcd)
    ("ugcd bound without its quotient-length factor", GF,
     "grow = (la - db) * (p - 1)", "grow = p - 1",
     ["tests/test_list_kernels.py"]),
    ("ugcd cleared top slots left unmasked", GF,
     "x, y, la, lb = y, x & ((1 << bits * db) - 1), lb, db",
     "x, y, la, lb = y, x, lb, db",
     ["tests/test_list_kernels.py"]),
    ("ugcd multiplier left negative, so slots borrow", GF,
     "x += -c * inv % p * y << bits * (k - db)",
     "x += -(c * inv % p) * y << bits * (k - db)",
     ["tests/test_list_kernels.py"]),
    ("ugcd never reduced at 2^63", GF,
     "if bx + grow * by >= ceiling:", "if False:",
     ["tests/test_list_kernels.py"]),
    ("ugcd remainder bound without the dividend's", GF,
     "bx, by = by, bx + grow * by", "bx, by = by, grow * by",
     ["tests/test_list_kernels.py"]),
    ("ugcd not reduced when the leading slot reads 0 mod p", GF,
     "if lb and not (y >> bits * (lb - 1)) % p:", "if False:",
     ["tests/test_list_kernels.py"]),
    # gf's padded log tables and the order ceiling
    ("ex's zero stretch ends one entry before 5(q - 1)", GF,
     "ex = exp + [0] * (7 * n)", "ex = exp + [0] * (3 * n - 1) + [1] * (4 * n + 1)",
     ["tests/test_intercepts.py"]),
    ("zz set to 1 on [4(q - 1), 5(q - 1))", GF,
     "zz[8 * n:] = zz[:n]", "zz[8 * n:] = zz[:n]\n    zz[4 * n:5 * n] = [1] * n",
     ["tests/test_intercepts.py"]),
    ("order ceiling refuses q = MAX_ORDER", GF,
     "p ** e > MAX_ORDER:", "p ** e >= MAX_ORDER:",
     ["tests/test_gf.py"]),
    # the gcd detectors
    ("detector form keyed (1, alpha/lead)", COUNTING,
     "(1, mul(beta, inv)) if alpha", "(1, mul(alpha, inv)) if alpha",
     ["tests/test_counting_oracles.py"]),
    ("point detector root without its uneg", COUNTING,
     "f = K.uconv(f, [K.uneg(K.udiv(y, z)), 1])", "f = K.uconv(f, [K.udiv(y, z), 1])",
     ["tests/test_counting.py", "tests/test_counting_oracles.py"]),
    ("slope detector without its report checks", COUNTING,
     "    _check_detector_reports(T, reports)\n    K = T.field\n",
     "    K = T.field\n",
     ["tests/test_counting.py", "tests/test_counting_oracles.py"]),
    # the acceptance helpers
    ("recursion reads P_(lam+j-i+1)", ENVELOPE,
     "K.umul(sums[lam + j - i], poly[lam - i])", "K.umul(sums[lam + j - i + 1], poly[lam - i])",
     ["tests/test_envelope.py"]),
]


def stale_rows(root=ROOT):
    """The rows whose snippet does not occur exactly once in their file."""
    return [name for name, path, old, _, _ in MUTANTS
            if (root / path).read_text().count(old) != 1]


def run(name, path, old, new, tests, work):
    """Apply one mutant in the copy at work, run its tests, put the file
    back; return 'killed', 'survived' or 'timed out'."""
    target = work / path
    original = target.read_text()
    target.write_text(original.replace(old, new))
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIME_LIMIT)
        return "killed" if result.returncode else "survived"
    except subprocess.TimeoutExpired:
        return "timed out"
    finally:
        target.write_text(original)


def main():
    stale = stale_rows()
    if stale:
        for name in stale:
            print(f"stale row: {name}: its snippet does not occur exactly once", file=sys.stderr)
        return 2
    survivors = []
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for row in MUTANTS:
            start = time.perf_counter()
            outcome = run(*row, work)
            print(f"{outcome:>9}  {time.perf_counter() - start:6.1f} s  {row[0]}", flush=True)
            if outcome != "killed":
                survivors.append(row[0])
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
