"""Run the hand-written mutants of the package against the tests that must catch them.

    python3 bench/mutants.py

Each row of MUTANTS names a mutant, the source file it edits, an exact
snippet of that file, the text that replaces it, and the test files that
must fail once it is applied.  The script copies src/, tests/ and
pyproject.toml (which tests/test_cli.py reads) to a temporary directory,
applies one row at a time to the copy (putting the file back after), and
runs ``python -m pytest -x -q <test files>`` there under a time limit of
TIME_LIMIT seconds.  A mutant is killed when that run exits nonzero
within the limit; one whose tests pass, or run past the limit, survives.

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
GENERATORS = "src/renitent/generators.py"
UNIFORMITY = "src/renitent/uniformity.py"
PLANE = "src/renitent/plane.py"
POLY = "src/renitent/poly.py"
RECORDS = "src/renitent/records.py"
CLI = "src/renitent/cli.py"

# the root-row template of cli._verification_text; the row "envelope root row
# one indent level short" writes every one of its indents two spaces shorter
ENVELOPE_ROOT_ROW = """\
            f'\\n        {{\\n          "actual": {"null" if r.actual is None else r.actual},'
            f'\\n          "alpha": {r.alpha},'
            f'\\n          "exact": {"true" if r.exact else "false"},'
            f'\\n          "expected": {r.expected},'
            f'\\n          "line": {_encode_str(format_line(r.line))},'
            f'\\n          "ok": {"true" if r.ok else "false"}\\n        }}'
            for r in d.roots], "\\n      ")
"""

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
    # gf's padded log tables, their walk and the order ceiling
    ("ex's zero stretch ends one entry before 5(q - 1)", GF,
     "lg, ex = [lz] * self.q, [0] * (9 * n)",
     "lg, ex = [lz] * self.q, [0] * (5 * n - 1) + [1] * (4 * n + 1)",
     ["tests/test_intercepts.py"]),
    ("zz set to 1 on [4(q - 1), 5(q - 1))", GF,
     "*repeat(0, 3 * n),", "*repeat(0, 2 * n), *repeat(1, n),",
     ["tests/test_intercepts.py"]),
    ("zz[8(q - 1)] set back to zech[0]", GF,
     "*repeat(0, n + 1), *zech[1:]", "*repeat(0, n), *zech",
     ["tests/test_list_kernels.py", "tests/test_gf.py"]),
    ("lg built from [0] * q", GF,
     "lg, ex = [lz] * self.q,", "lg, ex = [0] * self.q,",
     ["tests/test_gf.py"]),
    ("half read as zz.index(0)", GF,
     "half = zz.index(zero)", "half = zz.index(0)",
     ["tests/test_gf.py"]),
    ("the walk's carry flag one bit low", GF,
     "flags, bias = ones << (w - 1),", "flags, bias = ones << (w - 2),",
     ["tests/test_gf.py"]),
    ("order ceiling refuses q = MAX_ORDER", GF,
     "p ** e > MAX_ORDER:", "p ** e >= MAX_ORDER:",
     ["tests/test_gf.py"]),
    ("Zech's closed form with the carry kept", GF,
     "zech = [lg[x - x % p + (x + 1) % p] for x in ex[:n]]",
     "zech = [lg[x + 1] for x in ex[:n]]",
     ["tests/test_gf.py"]),
    ("_inv_raw with exponent q - 1", GF,
     "return self._pow_raw(a, self.q - 2)", "return self._pow_raw(a, self.q - 1)",
     ["tests/test_gf.py"]),
    # the row intercept kernel (gf._row_intercepts)
    ("row kernel's byte table x - b for b - x", GF,
     "bytes(map(sub, repeat(b), els)) + pad", "bytes(map(sub, els, repeat(b))) + pad",
     ["tests/test_intercepts.py"]),
    ("row kernel's byte row a + s for a * s", GF,
     "bytes(map(mul, repeat(a), els))", "bytes((a + s) % q for s in els)",
     ["tests/test_intercepts.py"]),
    ("row kernel's keys read with stride q - 1", GF,
     "return joined[s::q]", "return joined[s::q - 1]",
     ["tests/test_intercepts.py"]),
    ("row kernel's byte table for b = 0 unpadded", GF,
     "els)) + pad", "els)) + (pad if b else b\"\")",
     ["tests/test_intercepts.py"]),
    # gen_random's lanes of draws (generators._keep_flags)
    ("keep flags in 64-bit slots", GENERATORS,
     "(b\"\\x01\" + bytes(15)) * _LANES", "(b\"\\x01\" + bytes(7)) * _LANES",
     ["tests/test_generators.py"]),
    ("keep flags unmasked after the first multiply", GENERATORS,
     "* 0xBF58476D1CE4E5B9 & mask", "* 0xBF58476D1CE4E5B9",
     ["tests/test_generators.py"]),
    ("keep flags' state not advanced between blocks", GENERATORS,
     "        state = (state + n * _GAMMA) & _MASK\n", "",
     ["tests/test_generators.py"]),
    ("keep flags keep a draw equal to the threshold", GENERATORS,
     "below = (threshold + _MASK) * ones", "below = (threshold + _MASK + 1) * ones",
     ["tests/test_generators.py"]),
    # the refusal from a class's nonempty-line count (uniformity._thin), the
    # distinct-intercept count after a thin class, the weights and x
    # coordinates of the shared loop in the order of the intercept kernel,
    # the sparse branch of uniformity._report and the field check of
    # intercept_profile
    ("refusal with >= for >", UNIFORMITY,
     "p * n - size > lam * (p - 1)", "p * n - size >= lam * (p - 1)",
     ["tests/test_uniformity.py"]),
    ("refusal with <= for <", UNIFORMITY,
     "return n < K.q - lam and", "return n <= K.q - lam and",
     ["tests/test_uniformity.py"]),
    ("refusal reads the support size for |T|", UNIFORMITY,
     "K, mults, size = T.field, T._mults, T.size",
     "K, mults, size = T.field, T._mults, T.support_size",
     ["tests/test_uniformity.py"]),
    ("sparse branch refuses lam nonzero residues", UNIFORMITY,
     "n - res.count(0) > lam", "n - res.count(0) >= lam",
     ["tests/test_uniformity.py"]),
    ("thin path reads the point count for n", UNIFORMITY,
     "len(set(line_keys))", "len(line_keys)",
     ["tests/test_uniformity.py"]),
    ("shared loop's weights in dict order", UNIFORMITY,
     "[mults[pt] for pt in points]", "list(mults.values())",
     ["tests/test_intercepts.py"]),
    ("shared loop's x coordinates in dict order", UNIFORMITY,
     "xs = [a for a, _ in points]", "xs = [a for a, _ in mults]",
     ["tests/test_intercepts.py"]),
    ("renitent lines taken from every nonempty line", UNIFORMITY,
     "compress(profile, res)", "compress(profile, profile.values())",
     ["tests/test_uniformity.py"]),
    ("intercept_profile without its field check", UNIFORMITY,
     "    if direction.field != T.field:\n"
     "        raise InputError(\"multiset and direction use different contexts\")\n",
     "",
     ["tests/test_refusals.py"]),
    # parse_points' bulk pass (uniformity._read_bulk): its test of the text
    # outside comments, its coordinate bound, the sum of a repeated point's
    # multiplicities and the multiplicity floor
    ("bulk pass without its test of the text outside comments", UNIFORMITY,
     "    if not text.isascii() or \"_\" in text:\n"
     "        body = \"\".join(lines)",
     "    if False:\n"
     "        body = \"\".join(lines)",
     ["tests/test_parse_points.py"]),
    ("bulk pass admits q as a coordinate", UNIFORMITY,
     "max(coords) < q", "max(coords) <= q",
     ["tests/test_parse_points.py"]),
    ("bulk pass keeps a repeated point's last multiplicity", UNIFORMITY,
     "if len(mults) < len(points):", "if False:",
     ["tests/test_parse_points.py"]),
    ("bulk pass admits multiplicity 0", UNIFORMITY,
     "min(ms) >= 1", "min(ms) >= 0",
     ["tests/test_parse_points.py"]),
    # the one reader of an integer token (gf._decimal) and the field spec
    ("integer reader takes '_'", GF,
     'if text.isascii() and "_" not in text:', "if text.isascii():",
     ["tests/test_validation.py"]),
    ("modulus entry read with bare int()", GF,
     'tuple(map(_decimal, m[3].split(",")))', 'tuple(map(int, m[3].split(",")))',
     ["tests/test_validation.py"]),
    # analyze's rows, written from a template into the canonical JSON writer
    ("analyze row sharp whenever a line is renitent", CLI,
     'sharp = "true" if report.sharp else "false"',
     'sharp = "true" if report.lambda_d else "false"',
     ["tests/test_cli.py"]),
    ("written text put in place unindented", CLI,
     'out.append(obj.text.replace("\\n", nl))', "out.append(obj.text)",
     ["tests/test_canonical_json.py", "tests/test_cli.py"]),
    ("non-finite floats written", CLI,
     "elif t is float and math.isfinite(obj):", "elif t is float:",
     ["tests/test_canonical_json.py"]),
    ("dict keys written unsorted", CLI,
     "for key in sorted(obj):", "for key in obj:",
     ["tests/test_canonical_json.py"]),
    ("direction names built in reverse order", PLANE,
     "return tuple(map(format_point, all_directions(field)))",
     "return tuple(map(format_point, reversed(all_directions(field))))",
     ["tests/test_cli.py"]),
    # envelope's curve, verification and weights, written from templates
    ("envelope root row one indent level short", CLI,
     ENVELOPE_ROOT_ROW, ENVELOPE_ROOT_ROW.replace("\\n    ", "\\n  "),
     ["tests/test_cli.py"]),
    ("envelope root's exact written from ok", CLI,
     '"true" if r.exact else "false"', '"true" if r.ok else "false"',
     ["tests/test_cli.py"]),
    ("envelope root's actual None written as 0", CLI,
     '"null" if r.actual is None else r.actual', '0 if r.actual is None else r.actual',
     ["tests/test_cli.py"]),
    ("envelope weights ordered by weight", CLI,
     "rows = sorted([(format_line(line), w) for line, w in mults.items()])",
     "rows = sorted([(format_line(line), w) for line, w in mults.items()], "
     "key=lambda row: row[1])",
     ["tests/test_cli.py"]),
    # the frame change of the point-index argument (plane.frame_collineation)
    ("frame's middle row always (1, 0, 0)", PLANE,
     "row2 = (1, 0, 0) if spare.coords[0] else (0, 1, 0)", "row2 = (1, 0, 0)",
     ["tests/test_plane.py"]),
    ("frame's middle row always (0, 1, 0)", PLANE,
     "row2 = (1, 0, 0) if spare.coords[0] else (0, 1, 0)", "row2 = (0, 1, 0)",
     ["tests/test_plane.py"]),
    ("frame's middle row with r2 = 1", PLANE,
     "row2 = (1, 0, 0) if spare.coords[0] else (0, 1, 0)",
     "row2 = (1, 0, 1) if spare.coords[0] else (0, 1, 1)",
     ["tests/test_plane.py"]),
    ("frame's spare the last free direction", PLANE,
     "spare = next((d for d in all_directions(field) if d not in avoid), None)",
     "spare = next((d for d in reversed(all_directions(field)) if d not in avoid), None)",
     ["tests/test_plane.py"]),
    # the record constructors compiled from __slots__
    ("compiled __init__ without its __qualname__", RECORDS,
     '    init.__qualname__ = f"{cls.__qualname__}.__init__"\n', "",
     ["tests/test_record_init.py"]),
    ("compiled __init__ stored on a base class too", RECORDS,
     "        if not cls.__subclasses__():   # a base keeps this one for its subclasses\n"
     "            cls.__init__ = init\n",
     "        cls.__init__ = init\n",
     ["tests/test_record_init.py"]),
    # the gcd detectors
    ("deg g's cancellation rule: every weight sum is 0", COUNTING,
     "if len(sums) > 1:", "if sums != {0}:",
     ["tests/test_counting_oracles.py"]),
    ("deg g's weight sums without the (0, 1) form", COUNTING,
     "for pairs in self._forms.values()}", "for (a, _), pairs in self._forms.items() if a}",
     ["tests/test_counting_oracles.py"]),
    ("multinomials without the sign (-1)^e", COUNTING,
     "[(0, K.from_int((-1) ** K.e))]", "[(0, 1)]",
     ["tests/test_counting_oracles.py"]),
    ("the constant dropped from _coefficients", COUNTING,
     "c = const if k == n else 0", "c = 0",
     ["tests/test_counting_oracles.py"]),
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
    # the polynomial ring the oracle tests build their references with
    ("divmod's quotient coefficient squared", POLY,
     "quo[da - db] = c", "quo[da - db] = mul(c, c)",
     ["tests/test_poly.py"]),
    ("uni_gcd not made monic", POLY,
     "K.ugcd(f.coeffs, g.coeffs)).monic()", "K.ugcd(f.coeffs, g.coeffs))",
     ["tests/test_poly.py"]),
    ("sparse product adds the first V exponent twice", POLY,
     "key = (i1 + i2, j1 + j2)", "key = (i1 + i2, j1 + j1)",
     ["tests/test_counting_oracles.py"]),
    ("root multiplicity counts the step with a nonzero remainder", POLY,
     "if quo.pop():\n            break", "if quo.pop():\n            m += 1\n            break",
     ["tests/test_envelope.py"]),
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
        shutil.copy2(ROOT / "pyproject.toml", work)
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
