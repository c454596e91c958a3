"""The three workloads: inputs from a seed, a fixed job list, a check per job.

A job is one request: an argv for ``renitent`` (served in-process
through ``renitent.cli.main``, or as a real ``python -m renitent.cli``
subprocess for the ``cli`` workload), or for ``theorems`` one direct
call of ``build_point_detector`` + ``gcd_profile``, which no subcommand
reaches.  Every call into renitent goes through a module attribute at
call time, so the traced run's wrappers see it.
"""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial

from renitent import cli, counting, generators, gf, plane, uniformity

import oracles


class Job:
    __slots__ = ("name", "argv", "stdin", "expect_rc", "outputs", "call", "check")

    def __init__(self, name, argv=None, stdin=None, expect_rc=0, outputs=(),
                 call=None, check=None):
        self.name = name
        self.argv = argv          # renitent argv, or None for a direct call
        self.stdin = stdin        # text fed to standard input
        self.expect_rc = expect_rc
        self.outputs = tuple(outputs)  # files the job writes, read back after it
        self.call = call          # () -> stdout text, for direct-call jobs
        self.check = check        # (stdout text) -> problems, or None


def run_inprocess(job):
    """(exit code, stdout bytes) of one in-process request."""
    if job.call is not None:
        return 0, job.call().encode()
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(job.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(job.argv)
            except SystemExit as exc:  # argparse rejects the argv
                rc = exc.code
    finally:
        sys.stdin = saved
    return rc, out.getvalue().encode()


def run_subprocess(job, env, command):
    """(exit code, stdout bytes) of one request in a fresh interpreter."""
    proc = subprocess.run(command + job.argv, input=(job.stdin or "").encode(),
                          capture_output=True, env=env, timeout=120)
    return proc.returncode, proc.stdout


def read_outputs(job):
    blobs = []
    for path in job.outputs:
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return blobs


def canonical(rc, stdout, blobs):
    """Bytes that stand for a job's whole observable result."""
    return b"\0".join([f"rc={rc}".encode(), stdout] + blobs)


# -- inputs ----------------------------------------------------------------------


def sample_points(rng, K, n):
    """n distinct affine points off the axes: a zero coordinate makes the
    detector polynomials sparser, so avoiding it keeps every seed's work
    the same."""
    side = K.q - 1
    return [(1 + i // side, 1 + i % side) for i in rng.sample(range(side * side), n)]


def planted(rng, K, lam, weights=None):
    pts = sample_points(rng, K, lam)
    weights = weights or [1] * lam
    return generators.gen_planted(K, pts, weights, rng.randrange(1, K.p))


def mixed_weights(rng, lam):
    """Weights 1, 2, 1, 2, ... in random order: unequal, with a fixed sum."""
    w = [1 + i % 2 for i in range(lam)]
    rng.shuffle(w)
    return w


class Inputs:
    """Writes input files into one scratch directory."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.n = 0

    def write(self, T):
        self.n += 1
        path = os.path.join(self.workdir, f"in{self.n}.pts")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(uniformity.dump_points(T))
        return path

    def out(self, name):
        return os.path.join(self.workdir, name)


# -- classify --------------------------------------------------------------------

# rung spec -> (kind, support size or lambda) in job order
CLASSIFY_RUNGS = [
    ("3^3", [("random", 10), ("random", 20), ("random", 45), ("planted", 2)]),
    ("7^2", [("random", 40), ("random", 100), ("planted", 2), ("planted", 3)]),
    ("2^6", [("random", 60), ("random", 150), ("conic", 1)]),
    ("3^4", [("random", 60), ("planted", 2)]),
    ("2^7", [("random", 120), ("conic", 1)]),
]
RANDOM_LAMBDA = 2


def sparse_random(rng, K, n):
    """n points drawn from a gen_random multiset of about 3n points.

    Fixing the support size keeps the work per job the same for every
    seed; only the positions change.
    """
    T = generators.gen_random(K, rng.randrange(1 << 32), min(1.0, 3 * n / K.q ** 2))
    points = [pt for pt, _ in T.items()]
    if len(points) < n:
        raise RuntimeError(f"gen_random gave {len(points)} points, fewer than {n}")
    return uniformity.PointMultiset(K, [(pt, 1) for pt in rng.sample(points, n)])


def setup_classify(rng, inputs):
    jobs = []
    for spec, kinds in CLASSIFY_RUNGS:
        K = gf.parse_field_spec(spec)
        for kind, param in kinds:
            extra = {}
            if kind == "random":
                T, lam = sparse_random(rng, K, param), RANDOM_LAMBDA
            elif kind == "planted":
                inst = planted(rng, K, param,
                               [rng.randrange(1, K.p) for _ in range(param)])
                T, lam, extra = inst.multiset, param, {"planted": inst}
            else:
                inst = generators.gen_norm_conic(K)
                T, lam, extra = inst.multiset, 1, {"conic": inst}
            argv = ["analyze", "--field", spec, "--in", inputs.write(T),
                    "--lambda", str(lam)]
            jobs.append(Job(f"analyze.q{K.q}.{kind}", argv,
                            check=partial(oracles.check_analyze, T, lam, **extra)))
    return jobs


# -- theorems --------------------------------------------------------------------

# q -> (lambda of the equal-weight planted set P, of the mixed-weight
# set R, of the second equal-weight set S).  P carries every bound check;
# the dichotomy needs q + 1 > lambda^2 + lambda.
THEOREM_FIELDS = {13: (3, 2, 2), 17: (3, 3, 2), 23: (4, 3, 3), 31: (5, 4, 3)}


def envelope_job(path, inst, lam, theorem):
    q = inst.multiset.field.q
    argv = ["envelope", "--field", str(q), "--in", path, "--lambda", str(lam),
            "--theorem", theorem]
    if theorem == "weighted":
        argv += ["--c", "scan"]
    return Job(f"envelope.q{q}.{theorem}", argv,
               check=partial(oracles.check_envelope, inst, lam, theorem=theorem))


def check_job(path, T, lam, bound):
    q = T.field.q
    argv = ["check", "--field", str(q), "--in", path, "--lambda", str(lam),
            "--bound", bound]
    return Job(f"check.q{q}.{bound}", argv,
               check=partial(oracles.check_bound, T, lam, bound=bound))


def slope_reports(T, lam):
    return [r for r in uniformity.uniform_directions(T, lam)
            if plane.slope_of(r.direction) is not None]


def point_detector(T, lam, R):
    """k_y profile of the point detector that moves R to infinity."""
    det = counting.build_point_detector(T, slope_reports(T, lam), R)
    profile = counting.gcd_profile(det.f, det.g)
    doc = profile.to_json()
    doc["bound_ok"] = all(counting.gcd_degree_bound(profile, y).ok
                          for y in T.field.elements())
    doc["collineation"] = [list(row) for row in det.collineation.matrix]
    return json.dumps(doc, sort_keys=True)


def point_detector_problems(T, lam, R, stdout):
    reports = slope_reports(T, lam)
    coll = plane.frame_collineation(T.field, [r.direction for r in reports], R)
    return oracles.check_point_detector(reports, coll, stdout)


def setup_theorems(rng, inputs):
    jobs = []
    for q, (lam_p, lam_r, lam_s) in THEOREM_FIELDS.items():
        K = gf.parse_field_spec(str(q))
        P = planted(rng, K, lam_p)
        R = planted(rng, K, lam_r, mixed_weights(rng, lam_r))
        S = planted(rng, K, lam_s)
        p_in, r_in, s_in = (inputs.write(inst.multiset) for inst in (P, R, S))
        jobs += [envelope_job(p_in, P, lam_p, th) for th in ("regular", "weighted", "general")]
        jobs += [envelope_job(r_in, R, lam_r, th) for th in ("weighted", "general")]
        jobs += [envelope_job(s_in, S, lam_s, th) for th in ("regular", "weighted", "general")]
        jobs += [check_job(p_in, P.multiset, lam_p, b)
                 for b in ("deficiency", "count", "gcd", "dichotomy")]
        jobs.append(check_job(r_in, R.multiset, lam_r, "count"))
        if q == 31:   # an odd job count puts p50 inside one job's samples
            jobs.append(check_job(r_in, R.multiset, lam_r, "deficiency"))
        anchor = plane.ProjPoint.affine(K, *P.points[0])
        jobs.append(Job(f"point_detector.q{q}",
                        call=partial(point_detector, P.multiset, lam_p, anchor),
                        check=partial(point_detector_problems, P.multiset, lam_p, anchor)))
    return jobs


# -- cli -------------------------------------------------------------------------

# spec -> lambda of the planted set (equal weights keep the weighted
# class within min(q-2, p-1)); GF(16) has p = 2, so one point.
CLI_FIELDS = {"7": 3, "3^2": 2, "13": 3, "2^4": 1}


def setup_cli(rng, inputs):
    jobs = []
    for spec, lam in CLI_FIELDS.items():
        K = gf.parse_field_spec(spec)
        inst = planted(rng, K, lam)
        path = inputs.write(inst.multiset)
        text = uniformity.dump_points(inst.multiset)
        tag = f"q{K.q}"
        gen_out = inputs.out(f"gen-{tag}.pts")
        if K.p == 2:
            gen = ["gen", "--field", spec, "--kind", "random", "--seed",
                   str(rng.randrange(1 << 32)), "--density", "0.3", "--out", gen_out]
        else:
            pts = ";".join(f"{a},{b}" for a, b in sample_points(rng, K, lam))
            gen = ["gen", "--field", spec, "--kind", "planted", "--points", pts,
                   "--c", str(rng.randrange(1, K.p)), "--out", gen_out]
        env_out = inputs.out(f"envelope-{tag}.json")
        common = ["--field", spec, "--lambda", str(lam)]
        jobs += [
            Job(f"gen.{tag}", gen, outputs=(gen_out, gen_out + ".json")),
            Job(f"analyze.{tag}", ["analyze", "--in", "-"] + common, stdin=text),
            Job(f"envelope.{tag}", ["envelope", "--in", path, "--theorem", "weighted",
                                    "--c", "scan", "--out", env_out, "--json"] + common,
                outputs=(env_out,)),
            Job(f"check.{tag}", ["check", "--in", path, "--bound", "count"] + common),
        ]
        if spec == "7":
            # q + 1 = 8 directions cannot exceed lambda^2 + lambda = 12: exit 3
            jobs.append(Job("check.q7.dichotomy_rejected",
                            ["check", "--in", path, "--bound", "dichotomy"] + common,
                            expect_rc=3))
            # 12 is not a prime power: exit 2
            jobs.append(Job("analyze.bad_field",
                            ["analyze", "--field", "12", "--in", path, "--lambda", "1"],
                            expect_rc=2))
    return jobs


def reference_problems(job, rc, stdout, blobs, workdir):
    """The subprocess result must equal in-process cli.main on the same argv."""
    argv, outputs = job.argv, ()
    if job.outputs:   # --out moves to a fresh path; side files keep their suffix
        out = job.outputs[0]
        ref_out = os.path.join(workdir, "reference" + os.path.splitext(out)[1])
        argv = [ref_out if a == out else a for a in argv]
        outputs = [ref_out + path[len(out):] for path in job.outputs]
    ref = Job(job.name, argv, stdin=job.stdin, outputs=outputs)
    ref_rc, ref_stdout = run_inprocess(ref)
    problems = []
    if (ref_rc, ref_stdout) != (rc, stdout):
        problems.append("exit code or stdout differs from in-process cli.main")
    if read_outputs(ref) != blobs:
        problems.append("--out file differs from in-process cli.main")
    return problems


SETUPS = {"classify": setup_classify, "theorems": setup_theorems, "cli": setup_cli}


def setup(workload, seed, workdir):
    return SETUPS[workload](random.Random(seed), Inputs(workdir))
