"""Command-line driver: generate, analyze, envelope, check.

Exit codes are part of the contract: 0 success, 2 malformed input,
3 well-formed input that fails a construction's hypotheses, 4 a
mathematical verification that the theory says cannot fail actually
failed (which means an implementation bug, so CI should treat 4 as a
defect, not as bad data).  All reports are JSON with "schema": 1 and
sorted keys, written atomically when --out is given (gen's points file
and its .json sidecar both or neither).

The bulky parts of a report are written from one f-string per row and
handed to the writer as _Written text: analyze's direction rows
(_analyze_row), and envelope's curve, verification and weights
(_curve_text, _verification_text, _weights_text).  Each is the same
text canonical_json gives the record's to_json() dict.  canonical_json
writes the rest of a report, and every check report, in its one pass; a
value no report holds raises TypeError.  analyze's direction names come
from plane's tuple of them, built once per field.

Each command imports the modules it runs when it runs: analyze loads no
more than classification needs, and only envelope and check load
`envelope` or `counting`.  They call those modules' functions through
the module, so a wrapper installed on a module attribute sees the call.
"""

import argparse
import functools
import math
import os
import sys

from .errors import HypothesisRejected, InputError, RenitentError
from .gf import _decimal, parse_field_spec
from .plane import _direction_names, format_line, format_point, parse_point, slope_of
from .uniformity import _classify_all, dump_points, parse_points, uniform_directions

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3
EXIT_VERIFY = 4


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _atomic_write(*files):
    """Write each (path, text) pair, all of them or none.

    Each text goes first to a temp file beside its path, with the mode
    open() would give (0o666 less the umask), and then replaces the path.
    If any step fails, every path already replaced gets back what it held:
    nothing, or its old file through a hard link kept for the purpose.
    """
    import tempfile

    umask = os.umask(0)
    os.umask(umask)
    staged, replaced, path = [], [], None
    try:
        try:
            for path, text in files:
                fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                           prefix=".renitent-")
                staged.append(tmp)
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.chmod(tmp, 0o666 & ~umask)
            for (path, _), tmp in zip(files, staged):
                old = os.path.lexists(path)
                backup = tmp + ".old"
                try:
                    os.link(path, backup, follow_symlinks=False)
                except OSError:
                    backup = None
                replaced.append((path, old, backup))
                os.replace(tmp, path)
        except BaseException:
            for done, old, backup in reversed(replaced):
                if backup is not None:
                    os.replace(backup, done)
                elif not old and os.path.lexists(done):
                    os.unlink(done)
            for tmp in staged:
                if os.path.exists(tmp):
                    os.unlink(tmp)
            raise
        for _, _, backup in replaced:
            if backup is not None:
                os.unlink(backup)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror}") from exc


try:   # the C encoder alone: importing json would load its decoder too
    from _json import encode_basestring_ascii as _encode_str
except ImportError:   # an interpreter built without _json
    from json.encoder import encode_basestring_ascii as _encode_str


def _write_json(obj, out, nl):
    """Append obj as json.dumps(indent=2, sort_keys=True) would write it.

    A value no report holds raises TypeError: keys of mixed types in
    sorted(), a key that is not a str in _encode_str, any other type in
    the last branch, with json.dumps's message for a set.  ``nl`` is the
    newline plus the indent of obj's own level.  This is a module-level
    function, not a closure over ``out``: a closure that calls itself is
    a reference cycle, which would keep every document's chunks alive
    until the cyclic collector runs.
    """
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _write_json(obj[key], out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif t is float and math.isfinite(obj):
        out.append(float.__repr__(obj))
    elif t is _Written:
        out.append(obj.text.replace("\n", nl))
    else:
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


class _Written:
    """The canonical JSON of a value, written at the top level: inside a
    document the writer puts it in place as given, indented to its level.
    Only canonical_json writes one: json.dumps raises TypeError on it."""

    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text


def _json_list(rows, nl):
    """The canonical JSON of a list whose items are written as rows, each
    starting with its own newline and indent; nl is the newline and indent
    of the list's own level."""
    return f"[{','.join(rows)}{nl}]" if rows else "[]"


def canonical_json(doc):
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for
    the documents reports hold: str, int, bool, None, finite float, list,
    tuple and dict with str keys, in one pass.  Any other value raises
    TypeError, as json.dumps does for a set.  A _Written value stands for
    the value whose canonical JSON it holds.
    """
    out = []
    _write_json(doc, out, "\n")
    return "".join(out)


def _emit(args, payload):
    payload = dict(payload)
    payload["schema"] = 1
    text = canonical_json(payload) + "\n"
    if args.out:
        _atomic_write((args.out, text))
        if args.json:
            sys.stdout.write(text)
    else:
        sys.stdout.write(text)


def _load_multiset(args):
    field = parse_field_spec(args.field)
    if not args.infile:
        raise InputError("--in is required")
    return field, parse_points(field, _read_text(args.infile))


def _parse_point_list(field, text):
    """The affine points of "a,b;c,d;..."; a direction ("inf:d") is refused."""
    points = [parse_point(field, chunk) for chunk in text.split(";") if chunk.strip()]
    if not points:
        raise InputError("empty point list")
    if any(P.is_at_infinity() for P in points):
        raise InputError("planted points must be affine 'a,b' pairs, not directions")
    return [P.affine_coords() for P in points]


def _parse_int_list(text):
    values = [_decimal(x) for x in text.split(",") if x.strip()]
    if None in values:
        raise InputError(f"bad integer list {text!r}")
    return values


# -- gen ------------------------------------------------------------------


def cmd_gen(args):
    from . import generators

    field = parse_field_spec(args.field)
    if args.kind == "planted":
        if not args.points:
            raise InputError("planted instances need --points 'a,b;c,d;...'")
        points = _parse_point_list(field, args.points)
        weights = _parse_int_list(args.weights) if args.weights else [1] * len(points)
        inst = generators.gen_planted(field, points, weights, args.c)
        T, truth = inst.multiset, inst.to_json()
    elif args.kind == "norm_conic":
        inst = generators.gen_norm_conic(field)
        T, truth = inst.multiset, inst.to_json()
    else:
        T = generators.gen_random(field, args.seed, args.density)
        truth = {"kind": "random", "seed": args.seed, "density": args.density,
                 "size": T.size, "support": T.support_size}
    truth["field"] = args.field
    truth["schema"] = 1
    point_text = dump_points(T)
    truth_text = canonical_json(truth) + "\n"
    if args.out:
        _atomic_write((args.out, point_text), (args.out + ".json", truth_text))
        if args.json:
            sys.stdout.write(truth_text)
    else:
        sys.stdout.write(point_text)
        if args.json:
            sys.stdout.write(truth_text)
    return EXIT_OK


# -- analyze ----------------------------------------------------------------


def _analyze_row(name, report):
    """analyze's row for the direction named name, as _Written: the
    canonical JSON of {"direction": name, "uniform": False} when report
    is None, else of report.to_json(), from one f-string per row and per
    renitent line rather than a dict per row and per line for
    canonical_json to walk."""
    name = _encode_str(name)
    if report is None:
        return _Written(f'{{\n  "direction": {name},\n  "uniform": false\n}}')
    renitent = _json_list([f'\n    {{\n      "alpha": {r.alpha},'
                           f'\n      "line": {_encode_str(format_line(r.line))},'
                           f'\n      "t": {r.t}\n    }}' for r in report.renitent], "\n  ")
    sharp = "true" if report.sharp else "false"
    return _Written(f'{{\n  "direction": {name},'
                    f'\n  "lambda_d": {report.lambda_d},\n  "m_d": {report.m_d},'
                    f'\n  "renitent": {renitent},\n  "sharp": {sharp},\n  "uniform": true\n}}')


def cmd_analyze(args):
    field, T = _load_multiset(args)
    rows = []
    uniform = 0
    renitent_total = 0
    for name, (_, report) in zip(_direction_names(field), _classify_all(T, args.lam)):
        rows.append(_analyze_row(name, report))
        if report is not None:
            uniform += 1
            renitent_total += report.lambda_d
    _emit(args, {
        "command": "analyze",
        "field": args.field,
        "lambda": args.lam,
        "size": T.size,
        "support": T.support_size,
        "uniform_count": uniform,
        "renitent_total": renitent_total,
        "directions": rows,
    })
    return EXIT_OK


# -- envelope ---------------------------------------------------------------


def _curve_text(curve):
    """curve.to_json() as _Written, from one f-string per monomial."""
    monomials = _json_list([f'\n    {{\n      "coeff": {c},\n      "i": {i},'
                            f'\n      "j": {j},\n      "k": {k}\n    }}'
                            for i, j, k, c in curve.poly.monomials()], "\n  ")
    return _Written(f'{{\n  "affine_degree": {curve.affine_degree},'
                    f'\n  "class": {curve.nominal_class},\n  "monomials": {monomials},'
                    f'\n  "provenance": {_encode_str(curve.provenance)}\n}}')


def _verification_text(report):
    """report.to_json() as _Written, from one f-string per direction and
    per root: a root row sits 8 spaces deep, its keys 10."""
    rows = []
    for d in report.directions:
        roots = _json_list([
            f'\n        {{\n          "actual": {"null" if r.actual is None else r.actual},'
            f'\n          "alpha": {r.alpha},'
            f'\n          "exact": {"true" if r.exact else "false"},'
            f'\n          "expected": {r.expected},'
            f'\n          "line": {_encode_str(format_line(r.line))},'
            f'\n          "ok": {"true" if r.ok else "false"}\n        }}'
            for r in d.roots], "\n      ")
        rows.append(f'\n    {{\n      "direction": {_encode_str(format_point(d.direction))},'
                    f'\n      "ok": {"true" if d.ok else "false"},'
                    f'\n      "pencil_contained": {"true" if d.pencil_contained else "false"},'
                    f'\n      "roots": {roots}\n    }}')
    directions = _json_list(rows, "\n  ")
    return _Written(f'{{\n  "directions": {directions},'
                    f'\n  "pass": {"true" if report.ok else "false"}\n}}')


def _weights_text(mults):
    """The weighted construction's {"line", "weight"} rows as _Written, in
    the order of the lines' text."""
    rows = sorted([(format_line(line), w) for line, w in mults.items()])
    return _Written(_json_list([f'\n  {{\n    "line": {_encode_str(text)},'
                                f'\n    "weight": {w}\n  }}' for text, w in rows], "\n"))


def _split_vertical(reports, reason="vertical direction"):
    """(slope reports, [(vertical report, reason)]), in input order."""
    slopes, vertical = [], []
    for r in reports:
        if slope_of(r.direction) is None:
            vertical.append((r, reason))
        else:
            slopes.append(r)
    return slopes, vertical


def _candidate_reports(T, lam):
    out = [r for r in uniform_directions(T, lam) if r.lambda_d > 0]
    if not out:
        raise HypothesisRejected("no uniform direction carries a renitent line")
    return out


def _pick_regular(field, candidates):
    """Largest group of slope directions sharing (lambda_d, count offset).

    The construction needs those two numbers constant across the chosen
    directions; directions outside the winning group are excluded and
    reported rather than silently breaking the hypotheses.
    """
    slopes, vertical = _split_vertical(candidates)
    excluded = []
    groups = {}
    for r in slopes:
        ts = {entry.t for entry in r.renitent}
        if len(ts) != 1:
            excluded.append((r, "renitent counts differ within the class"))
            continue
        offset = (ts.pop() - r.m_d) % field.p
        groups.setdefault((r.lambda_d, offset), []).append(r)
    excluded += vertical   # the vertical direction is the last candidate
    if not groups:
        raise HypothesisRejected("no slope direction has one repeated renitent count")
    key = sorted(groups, key=lambda k: (-len(groups[k]), k))[0]
    for other, members in sorted(groups.items()):
        if other != key:
            for r in members:
                excluded.append((r, "count profile differs from the selected class"))
    return groups[key], excluded, key[1]


def cmd_envelope(args):
    from . import envelope

    field, T = _load_multiset(args)
    candidates = _candidate_reports(T, args.lam)
    mults = None
    extra = {}
    if args.theorem == "regular":
        used, excluded, offset = _pick_regular(field, candidates)
        extra["c"] = offset
        curve = envelope.envelope_regular(T, used)
    elif args.theorem == "weighted":
        used, excluded = candidates, []
        if len(used) < field.q + 1:
            used, excluded = _split_vertical(used, "vertical direction needs all q+1 covered")
        if not used:
            raise HypothesisRejected("no usable direction")
        if args.c == "scan":
            cap = min(field.q - 2, field.p - 1)
            outcomes, best = envelope.scan_weight_classes(used, field.p, cap)
            extra["scan"] = {str(c): total for c, total in outcomes.items()}
            if best is None:
                raise HypothesisRejected("no count offset gives a constant class")
            c = best
        else:
            c = _decimal(args.c)
            if c is None:
                raise InputError(f"--c must be an integer or 'scan', got {args.c!r}")
        extra["c"] = c
        curve, mults = envelope.envelope_weighted(T, used, c)
        extra["weights"] = _weights_text(mults)
    else:
        used, excluded = _split_vertical(candidates)
        if not used:
            raise HypothesisRejected("no usable slope direction")
        curve = envelope.envelope_general(T, used, args.lam)
        extra["lead_coeffs"] = list(curve.lead.coeffs)
    verification = envelope.verify_envelope(curve, used, mults)
    _emit(args, {
        "command": "envelope",
        "theorem": args.theorem,
        "field": args.field,
        "lambda": args.lam,
        "curve": _curve_text(curve),
        "verification": _verification_text(verification),
        "directions_used": [format_point(r.direction) for r in used],
        "directions_excluded": [{"direction": format_point(r.direction),
                                 "reason": reason} for r, reason in excluded],
        **extra,
    })
    return EXIT_OK if verification.ok else EXIT_VERIFY


# -- check ------------------------------------------------------------------


def _uniform_slope_reports(T, lam):
    """The uniform slope directions the count and gcd bounds run on; with
    none, the hypothesis fails (exit 3), the input is fine."""
    reports = _split_vertical(uniform_directions(T, lam))[0]
    if not reports:
        raise HypothesisRejected("no uniform slope direction")
    return reports


def cmd_check(args):
    field, T = _load_multiset(args)
    if args.bound == "deficiency":
        reports = uniform_directions(T, args.lam)
        if not reports:   # well-formed input: the hypothesis fails (exit 3)
            raise HypothesisRejected("no uniform direction")
        from . import envelope

        rep = envelope.deficiency_bound_check(reports, args.lam)
        theorem = "deficiency-bound"
        hypotheses = {"lambda": args.lam, "uniform_directions": len(reports)}
        lhs, rhs, ok = rep.total_deficit, rep.bound, rep.ok
        witnesses = rep.to_json()["per_direction"]
    elif args.bound == "count":
        from . import counting

        counting.check_detector_budget(T)   # before the classification
        rep = counting.renitent_lower_bound_check(T, _uniform_slope_reports(T, args.lam))
        theorem = "renitent-count-lower-bound"
        hypotheses = {"lambda": rep.lam, "directions": rep.n_directions}
        lhs, rhs, ok = rep.count, rep.bound, rep.ok
        witnesses = {"gcd_count": rep.gcd_count, "counts_agree": rep.counts_agree}
    elif args.bound == "gcd":
        from . import counting

        counting.check_detector_budget(T)
        reports = _uniform_slope_reports(T, args.lam)
        det = counting.build_slope_detector(T, reports)
        profile = counting.gcd_profile(det.f, det.g)
        checks = counting.gcd_degree_bounds(profile, field.elements())
        worst = min(checks, key=lambda c: c.slack)
        theorem = "gcd-degree-bound"
        hypotheses = {"lambda": args.lam, "directions": len(reports),
                      "deg_f": profile.deg_f, "deg_g": profile.deg_g}
        lhs, rhs, ok = worst.lhs, worst.rhs, all(c.ok for c in checks)
        witnesses = [c.to_json() for c in checks]
    else:
        from . import counting

        rep = counting.dichotomy_check(T, args.lam)
        theorem = "index-dichotomy"
        hypotheses = {"lambda": rep.lam, "uniform_directions": rep.n_uniform,
                      "renitent_lines": rep.n_lines}
        lhs, rhs, ok = len(rep.offenders), 0, rep.ok
        witnesses = rep.to_json()
    _emit(args, {"theorem": theorem, "hypotheses": hypotheses, "lhs": lhs, "rhs": rhs,
                 "pass": ok, "witnesses": witnesses})
    return EXIT_OK if ok else EXIT_VERIFY


# -- wiring -----------------------------------------------------------------


def _int_arg(text):
    """An integer option's value, read as every input format reads one:
    int() would also take '1_0' and non-ASCII digits."""
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _density_arg(text):
    """gen's --density: float() of ASCII text with no '_', which float()
    would also read."""
    if text.isascii() and "_" not in text:
        try:
            return float(text)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def _add_common(sub):
    sub.add_argument("--field", required=True,
                     help="field spec: p, p^e, or p^e:m=c0,c1,... (constant first)")
    sub.add_argument("--in", dest="infile", required=True,
                     help="point-set file ('a b m' lines, '-' for stdin)")
    sub.add_argument("--out", help="write the JSON report here (atomically)")
    sub.add_argument("--json", action="store_true",
                     help="also print JSON to stdout when --out is given")
    sub.add_argument("--lambda", dest="lam", type=_int_arg, required=True,
                     help="uniformity bound (0 < lambda <= (q-1)/2)")


@functools.cache
def build_parser():
    """The argument parser, built once per process: each parse_args call
    returns a fresh Namespace, and the parser keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="renitent",
        description="Uniform directions, renitent lines, and their envelopes "
                    "over small finite planes.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance with ground truth")
    gen.add_argument("--field", required=True)
    gen.add_argument("--kind", required=True,
                     choices=["planted", "norm_conic", "random"])
    gen.add_argument("--points", help="planted points as 'a,b;c,d;...'")
    gen.add_argument("--weights", help="planted weights as 'w1,w2,...' (default all 1)")
    gen.add_argument("--c", type=_int_arg, default=1,
                     help="multiplicity multiplier for planted instances")
    gen.add_argument("--seed", type=_int_arg, default=0)
    gen.add_argument("--density", type=_density_arg, default=0.5)
    gen.add_argument("--out", help="write the point file here; ground truth "
                                   "goes to OUT.json")
    gen.add_argument("--json", action="store_true",
                     help="also print the ground-truth JSON to stdout")
    gen.set_defaults(func=cmd_gen)

    analyze = sub.add_parser("analyze", help="classify all q+1 directions")
    _add_common(analyze)
    analyze.set_defaults(func=cmd_analyze)

    envelope = sub.add_parser("envelope", help="construct and verify an envelope")
    _add_common(envelope)
    envelope.add_argument("--theorem", required=True,
                          choices=["regular", "weighted", "general"])
    envelope.add_argument("--c", default="1",
                          help="count offset for the weighted construction: "
                               "an integer or 'scan'")
    envelope.set_defaults(func=cmd_envelope)

    check = sub.add_parser("check", help="verify a counting bound")
    _add_common(check)
    check.add_argument("--bound", required=True,
                       choices=["deficiency", "count", "gcd", "dichotomy"])
    check.set_defaults(func=cmd_check)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HypothesisRejected as exc:
        print(f"hypothesis rejected: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RenitentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
