"""Per-layer microbenchmarks for the traced run, in one fresh process.

    python perfbench/layers.py SEED WORKDIR

Prints one JSON object of metric name -> value as its last line.
Each figure is the median of several repetitions.
"""

import json
import os
import random
import statistics
import subprocess
import sys
import time

from renitent import gf, uniformity

import workloads

GF_LADDER = {31: (31, 1), 49: (7, 2), 64: (2, 6), 81: (3, 4), 125: (5, 3), 128: (2, 7)}
GF_OPS = ("add", "sub", "mul", "inv")
FIELD_CREATE = {49: (7, 2), 64: (2, 6), 81: (3, 4), 128: (2, 7)}
REPEATS = 5
TARGET_S = 0.02   # length of one timed repetition of a field operation


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def gf_ops(rng, out):
    for q, (p, e) in GF_LADDER.items():
        K = gf.field_create(p, e)
        for op in GF_OPS:
            method = getattr(K, op)
            if op == "inv":
                args = [(rng.randrange(1, q),) for _ in range(4096)]
            else:
                args = [(rng.randrange(q), rng.randrange(q)) for _ in range(4096)]

            def loop(n):
                for a in args[:n]:
                    method(*a)
            per_call = median_time(lambda: loop(64), 3) / 64
            n = max(64, min(len(args), int(TARGET_S / per_call)))
            out[f"gf.{op}.q{q}.ns"] = median_time(lambda: loop(n), REPEATS) / n * 1e9


def field_builds(out):
    for q, (p, e) in FIELD_CREATE.items():
        # the constructor itself: field_create's cache would hide the build
        out[f"gf.field_create.q{q}.ms"] = median_time(lambda: gf.GF(p, e), 3) * 1e3


def uniform_directions(rng, out):
    for spec, kinds in workloads.CLASSIFY_RUNGS:
        K = gf.parse_field_spec(spec)
        T = workloads.sparse_random(rng, K, kinds[0][1])  # the rung's first job
        out[f"uniformity.uniform_directions.q{K.q}.ms"] = median_time(
            lambda: uniformity.uniform_directions(T, workloads.RANDOM_LAMBDA), 3) * 1e3


def subprocess_ms(argv, env, stdin="", repeats=REPEATS):
    def once():
        subprocess.run(argv, input=stdin.encode(), capture_output=True, env=env,
                       check=True, timeout=120)
    return median_time(once, repeats) * 1e3


def cli_process(rng, workdir, out):
    env = dict(os.environ)
    start = subprocess_ms([sys.executable, "-c", "pass"], env)
    out["cli.interp_start_ms"] = start
    out["cli.import_ms"] = subprocess_ms(
        [sys.executable, "-c", "import renitent.cli"], env) - start
    jobs = workloads.setup_cli(rng, workloads.Inputs(workdir))
    for job in jobs:
        if job.name.endswith(".q13"):
            cmd = job.name.split(".")[0]
            out[f"cli.{cmd}.p50_ms"] = subprocess_ms(
                [sys.executable, "-m", "renitent.cli"] + job.argv, env, job.stdin or "")


def main(seed, workdir):
    rng = random.Random(seed)
    out = {}
    gf_ops(rng, out)
    field_builds(out)
    uniform_directions(rng, out)
    cli_process(rng, workdir, out)
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(int(sys.argv[1]), sys.argv[2])) + "\n")
