"""Time classification and the gcd detectors up the q ladder and keep the figures.

    python3 bench/ladder.py [--q 31,49,...] [--src DIR] [--column NAME]
        [--out FILE] [--compare FILE]

For each q up to 289 it times, on one gen_random set (seed 7, density
0.3):

* ``uniform_directions``: all q + 1 directions classified at lambda = 2;
* ``intercepts``: the field's list-level intercept kernel, prepared once
  and then called for all q slopes (absent from a checkout without it);
* ``parse_points``: the set written with dump_points, read back with
  parse_points, and checked equal to the set once (in no digest).

The q + 1 intercept profiles of the set are in the digest but not timed:
no command runs the scalar per-direction reference that computes them.
Files up to BENCH_33.json hold an ``intercept_profile`` row, timed
through the intercept kernel.

For every q, up to 512, it times the theorem layer on a planted set of
lambda = min(2, p - 1) points with both coordinates nonzero, drawn from
random.Random(q), classified at that lambda:

* ``uniform_directions_planted``: all q + 1 directions of the planted set
  classified at that lambda (in no digest: ``uniform_directions`` and
  the theorem rows already cover what it computes);
* ``uniform_directions_sparse``: all q + 1 directions classified at
  lambda = 2 on one gen_random set of seed 7 and density 1/q, a support
  of about q points, where most classes are refused from their count of
  nonempty lines (in no digest, for the same reason);
* ``uniform_directions_conic``: at p = 2 and e >= 2 only, all q + 1
  directions of gen_norm_conic's q + 1 points classified at lambda = 1,
  where every class is uniform and read on the sparse residue branch (in
  no digest, for the same reason);
* ``build_slope_detector``: the slope detector of the uniform slope
  directions;
* ``gcd_profile_slope``: gcd_profile of that detector;
* ``gcd_profile_point``: gcd_profile of the point detector of the first
  q // 2 uniform slope directions, with R = (0, 0);
* ``dichotomy_check``: the index dichotomy of the planted set at that
  lambda, its classification included (in no digest, so a file written
  before the row existed still compares like for like);
* ``renitent_lower_bound_check``: the lower bound on the uniform slope
  directions, its slope detector and gcd profile included (in no digest,
  for the same reason).
* ``envelope_regular``, ``envelope_weighted`` and ``envelope_general``:
  the three envelope constructions, the first two on the sharp slope
  directions (the weighted one at the count offset scan_weight_classes
  picks for them) and the general one on every uniform slope direction,
  at that lambda (in no digest, for the same reason).
* ``gen_random``: one fresh gen_random call at seed 7 and density 0.3,
  in no digest (``digest`` classifies the set it draws).

It also times one row that does not depend on q, ``import_renitent``
(listed under q = ``any``): in each of 21 fresh ``python -X importtime
-c "import renitent.cli"`` processes, started after the package's
bytecode cache is filled, the cumulative import time the interpreter
itself reports for the top-level ``renitent`` and ``renitent.*``
imports, so the interpreter's own start is in no sample.  Files before
BENCH_25.json hold an ``import_cli`` row instead, the median of such
starts less that of bare interpreter starts; the two are not compared.

Every sample starts from a freshly built multiset (and, for a gcd_profile
row, a freshly built detector, outside the timing).  The process pins
itself to one CPU, and every sample is scaled to reference speed as
perfbench does: times ``REF_S`` over the timing of perfbench's
``reference()`` loop run just before it.  The result is one column of
medians and IQRs per (op, q), written into ``--out`` beside any columns
already there, so one file can hold the figures of two checkouts
(``--src`` times another checkout's package).  Each column also keeps its Python version and a SHA-256
digest per q of the reports and the profiles, and a theorem digest per q
of the slope detector's terms and both gcd profiles, so two columns can
be seen to compute alike.  ``--compare`` prints, per (op, q), this run's median
over the median in each column of another file, and exits 1 when a digest
or theorem digest of some q differs from that column's (the ratios never
fail a run).
"""

import argparse
import compileall
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from worker import REF_S, reference  # noqa: E402

SCHEMA = 1
LADDER = (31, 49, 64, 81, 121, 125, 127, 128, 243, 251, 256, 289, 343, 509, 512)
CLASSIFY_MAX_Q = 289   # the classification rows take seconds a sample above it
SEED, DENSITY, LAMBDA = 7, 0.3, 2
REPEATS = 5
IMPORT_REPEATS = 21
NOTE = ("Times are scaled to reference speed (REF_S over the reference loop "
        "timed just before each sample, on the same pinned CPU); medians of "
        "5 samples, IQR from the same samples.  The host's speed can "
        "swing 2-4x over minutes and scaling removes most but not all of it: "
        "read a ratio below 1.2x between columns as noise unless it repeats.  "
        "The import_renitent row is the median of renitent's cumulative import "
        "time under -X importtime in 21 fresh `import renitent.cli` processes.")


def field_spec(q):
    """The "p" or "p^e" spec of a prime power q."""
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e, r = 0, q
    while r > 1:
        if r % p:
            raise SystemExit(f"{q} is not a prime power")
        r, e = r // p, e + 1
    return str(p) if e == 1 else f"{p}^{e}"


def reference_scale():
    """REF_S over one timing of perfbench's reference loop."""
    t = time.perf_counter()
    reference()
    return REF_S / (time.perf_counter() - t)


def scaled_sample(prepare, run):
    """One sample of run(prepare()) at reference speed, in seconds."""
    arg = prepare()
    scale = reference_scale()
    t = time.perf_counter()
    run(arg)
    return (time.perf_counter() - t) * scale


def summary(samples):
    quartiles = statistics.quantiles(samples, n=4)
    return {"median_s": statistics.median(samples), "iqr_s": quartiles[2] - quartiles[0],
            "n": len(samples)}


def measure(renitent, q):
    K = renitent.parse_field_spec(field_spec(q))
    entries = list(renitent.gen_random(K, SEED, DENSITY)._mults.items())
    directions = renitent.all_directions(K)

    def fresh():
        return renitent.PointMultiset(K, entries)

    def kernel(T):
        _, keys = K.uintercepts(T._mults)
        for s in K.elements():
            keys(s)

    T = fresh()
    text = renitent.dump_points(T)
    ops = {"uniform_directions": (fresh, lambda T: renitent.uniform_directions(T, LAMBDA)),
           "parse_points": (lambda: text, lambda text: renitent.parse_points(K, text))}
    if hasattr(K, "uintercepts"):
        ops["intercepts"] = (fresh, kernel)
    rows = {op: summary([scaled_sample(prepare, run) for _ in range(REPEATS)])
            for op, (prepare, run) in ops.items()}
    if renitent.parse_points(K, text) != T:
        raise SystemExit(f"parse_points does not read back dump_points' set at q={q}")
    outcome = {"reports": [r.to_json() for r in renitent.uniform_directions(T, LAMBDA)],
               "profiles": [sorted(renitent.intercept_profile(T, d).items())
                            for d in directions]}
    digest = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()
    return rows, digest


def measure_theorems(renitent, q):
    K = renitent.parse_field_spec(field_spec(q))
    lam = min(2, K.p - 1)
    rng = random.Random(q)
    points = []
    while len(points) < lam:
        pt = (rng.randrange(1, q), rng.randrange(1, q))
        if pt not in points:
            points.append(pt)
    entries = list(renitent.gen_planted(K, points, [1] * lam).multiset._mults.items())
    sparse = list(renitent.gen_random(K, SEED, 1 / q)._mults.items())
    reports = [r for r in renitent.uniform_directions(renitent.PointMultiset(K, entries), lam)
               if renitent.slope_of(r.direction) is not None]
    sharp = [r for r in reports if r.lambda_d == lam]
    offset = renitent.scan_weight_classes(sharp, K.p, min(q - 2, K.p - 1))[1]
    origin = renitent.ProjPoint.affine(K, 0, 0)

    def fresh():
        return renitent.PointMultiset(K, entries)

    def slope_detector():
        return renitent.build_slope_detector(fresh(), reports)

    def point_detector():
        return renitent.build_point_detector(fresh(), reports[:q // 2], origin)

    def profile(det):
        return renitent.gcd_profile(det.f, det.g)

    ops = {"uniform_directions_planted": (fresh, lambda T: renitent.uniform_directions(T, lam)),
           "uniform_directions_sparse": (lambda: renitent.PointMultiset(K, sparse),
                                         lambda T: renitent.uniform_directions(T, LAMBDA)),
           "build_slope_detector": (fresh, lambda T: renitent.build_slope_detector(T, reports)),
           "gcd_profile_slope": (slope_detector, profile),
           "gcd_profile_point": (point_detector, profile),
           "dichotomy_check": (fresh, lambda T: renitent.dichotomy_check(T, lam)),
           "renitent_lower_bound_check":
               (fresh, lambda T: renitent.renitent_lower_bound_check(T, reports)),
           "envelope_regular": (fresh, lambda T: renitent.envelope_regular(T, sharp)),
           "envelope_weighted": (fresh, lambda T: renitent.envelope_weighted(T, sharp, offset)),
           "envelope_general": (fresh, lambda T: renitent.envelope_general(T, reports, lam)),
           "gen_random": (lambda: K, lambda K: renitent.gen_random(K, SEED, DENSITY))}
    if K.p == 2 and K.e >= 2:
        conic = list(renitent.gen_norm_conic(K).multiset._mults.items())
        ops["uniform_directions_conic"] = (lambda: renitent.PointMultiset(K, conic),
                                           lambda T: renitent.uniform_directions(T, 1))
    rows = {op: summary([scaled_sample(prepare, run) for _ in range(REPEATS)])
            for op, (prepare, run) in ops.items()}
    det = slope_detector()
    outcome = {"terms": sorted(det.g.terms.items()), "slope": profile(det).to_json(),
               "point": profile(point_detector()).to_json()}
    digest = hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()
    return rows, digest


def import_seconds(log):
    """The cumulative seconds of the top-level renitent imports in an -X importtime log.

    Raises ValueError when the log holds no such line, so a log this
    parse does not read is never recorded as an import time of 0.
    """
    cumulative = []
    for line in log.splitlines():
        parts = line.split("|")
        name = parts[-1][1:]   # nested imports are indented past the one space
        if len(parts) == 3 and (name == "renitent" or name.startswith("renitent.")):
            cumulative.append(int(parts[1]))
    if not cumulative:
        raise ValueError("no top-level renitent import in the -X importtime log")
    return sum(cumulative) * 1e-6


def import_row(src):
    """The scaled cumulative import time of renitent in fresh `import renitent.cli` starts."""
    compileall.compile_dir(src, quiet=1)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-X", "importtime", "-c", "import renitent.cli"]
    samples = []
    for _ in range(IMPORT_REPEATS):
        scale = reference_scale()
        log = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stderr
        samples.append(import_seconds(log) * scale)
    return summary(samples)


def show(op, q, row):
    print(f"{op:20} q={q:>4}  {row['median_s'] * 1e3:9.2f} ms"
          f"  iqr {row['iqr_s'] * 1e3:.2f} ms", flush=True)


def compare(column, path):
    """Print this column's medians over those of every column in path.

    Returns the sorted (column name, digest key, q) of every digest that
    differs from this column's; the ratios are for reading only.
    """
    with open(path, encoding="utf-8") as fh:
        columns = json.load(fh)["columns"]
    differ = set()
    for name, old in sorted(columns.items()):
        print(f"ratio to {path} [{name}] (below 1 is faster now)")
        for op, by_q in column["ops"].items():
            for q, row in by_q.items():
                base = old["ops"].get(op, {}).get(q)
                ratio = "-" if base is None else f"{row['median_s'] / base['median_s']:.2f}"
                flag = ""
                for key in ("digest", "theorem_digest"):
                    same = old.get(key, {}).get(q)
                    if same not in (None, column.get(key, {}).get(q)):
                        flag = "  REPORTS DIFFER"
                        differ.add((name, key, q))
                print(f"  {op:20} q={q:>4}  {ratio}{flag}")
    return sorted(differ)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--q", default=",".join(map(str, LADDER)),
                        help="comma-separated field orders (default: the whole ladder)")
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the renitent package to time")
    parser.add_argument("--column", default="change")
    parser.add_argument("--out", help="JSON file to add this run's column to")
    parser.add_argument("--compare", help="earlier JSON file to print ratios against")
    args = parser.parse_args()

    sys.path.insert(0, os.path.abspath(args.src))
    import renitent

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    column = {"ops": {}, "digest": {}, "theorem_digest": {}, "python": sys.version.split()[0]}
    for q in (int(x) for x in args.q.split(",")):
        parts = [("theorem_digest", measure_theorems)]
        if q <= CLASSIFY_MAX_Q:
            parts.insert(0, ("digest", measure))
        for key, run in parts:
            rows, digest = run(renitent, q)
            column[key][str(q)] = digest
            for op, row in rows.items():
                column["ops"].setdefault(op, {})[str(q)] = row
                show(op, q, row)
    row = import_row(os.path.abspath(args.src))
    column["ops"]["import_renitent"] = {"any": row}
    show("import_renitent", "any", row)

    if args.out:
        doc = {"columns": {}}
        if os.path.exists(args.out):
            with open(args.out, encoding="utf-8") as fh:
                doc = json.load(fh)
        doc.update(schema=SCHEMA, note=NOTE,
                   input={"generator": "gen_random", "seed": SEED, "density": DENSITY,
                          "lambda": LAMBDA,
                          "theorems": {"generator": "gen_planted",
                                       "points": "min(2, p - 1), coordinates from "
                                                 "random.Random(q), both nonzero",
                                       "point_detector": "first q // 2 uniform slope "
                                                         "directions, R = (0, 0)"}})
        doc["columns"][args.column] = column
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if args.compare:
        differ = compare(column, args.compare)
        for name, key, q in differ:
            print(f"{key} differs from [{name}] of {args.compare} at q={q}", file=sys.stderr)
        if differ:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
