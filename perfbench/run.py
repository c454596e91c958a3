"""The renitent benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload classify|theorems|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its ``src`` directory.  Every measurement runs in a fresh worker
process (perfbench/worker.py) with one closed-loop client.

--trace 0 prints the end-to-end metrics: set-up time (median of
several fresh set-ups), jobs per second, job latency p50/p90 and peak
RSS, with times scaled to the speed of a reference loop timed on the
same CPU (worker.scaled).  --trace 1 repeats the untraced run, then a
traced run (one pass with call counters, one with spans), then the
per-layer microbenchmarks (perfbench/layers.py), and prints the
per-layer metrics.

Every job's output is checked after the timed loop (perfbench/oracles.py),
and a SHA-256 digest of all outputs in job order is printed, so two
commits that keep behaviour print the same digest for the same seed.
The last line of standard output is the result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("classify", "theorems", "cli")
SETUP_MIN_RUNS = 5         # fresh set-up processes, the measured run's own included,
SETUP_MIN_S = 3.0          # and more until this much wall time has passed
WORKER_TIMEOUT_S = 170

# span name -> which per-layer figures it yields
SPAN_METRICS = {
    "cli.main": ("self_ms",),
    "uniformity.classify_direction": ("calls",),
    "uniformity.intercept_profile": ("self_ms",),
    "uniformity.parse_points": ("self_ms",),
    "plane.frame_collineation": ("self_ms",),
    **{f"poly.{n}": ("calls", "self_ms") for n in (
        "UniPoly.__mul__", "UniPoly.__divmod__", "uni_gcd", "BiPoly.__pow__",
        "BiPoly.eval_v", "TriHomPoly.at_vw", "PolyMatrix.det", "homogenize")},
    **{f"envelope.{n}": ("calls", "self_ms") for n in (
        "envelope_regular", "envelope_weighted", "envelope_general",
        "verify_envelope", "scan_weight_classes", "power_sum_polys")},
    **{f"counting.{n}": ("calls", "self_ms") for n in (
        "build_slope_detector", "build_point_detector", "gcd_profile",
        "renitent_lower_bound_check", "dichotomy_check")},
}
COUNTER_METRICS = [f"gf.{op}" for op in ("add", "sub", "neg", "mul", "inv", "pow", "check")]
COUNTER_METRICS.append("plane.incident")
SETUP_SPANS = ["generators.gen_random", "generators.gen_planted", "generators.gen_norm_conic"]


class BenchError(Exception):
    pass


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""),
                PYTHONHASHSEED="0")


def run_child(argv, env, what):
    """Last stdout line of a child as JSON; any failure is fatal."""
    try:
        proc = subprocess.run([sys.executable] + argv, cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{what} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worker(mode, args, env, workdir):
    os.makedirs(workdir)
    argv = [os.path.join(HERE, "worker.py"), mode, args.workload, str(args.seed),
            str(args.seconds), workdir]
    out = run_child(argv, env, f"{mode} worker")
    if os.path.commonpath([out["renitent"], SRC]) != SRC:
        raise BenchError(f"imported renitent from {out['renitent']}, not from {SRC}")
    return out


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(run, setups, key="scaled"):
    """Times at reference speed (key "scaled") or as measured ("latencies")."""
    lat_ms = [x * 1e3 for x in run[key]]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (quantile(lat_ms, 0.9), "ms"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }


def per_layer(traced, untraced, layers):
    """Span and counter figures cover one pass over the job list each."""
    out = {}
    for name, kinds in SPAN_METRICS.items():
        calls, _, self_s = traced["spans"].get(name, (0, 0.0, 0.0))
        if "calls" in kinds:
            out[f"{name}.calls"] = (calls, "count")
        if "self_ms" in kinds:
            out[f"{name}.self_ms"] = (self_s * 1e3, "ms")
    for name in COUNTER_METRICS:
        out[f"{name}.calls"] = (traced["counts"].get(name, 0), "count")
    for name in SETUP_SPANS:
        row = traced["setup_spans"].get(name, (0, 0.0, 0.0))
        out[f"{name}.self_ms"] = (row[2] * 1e3, "ms")
    for name, value in layers.items():
        out[name] = (value, "ns" if name.endswith(".ns") else "ms")
    # one pass's job time at reference speed: the traced run's span pass
    # (its last) against each job's median over the untraced passes
    n = traced["jobs"]
    untraced_pass = sum(statistics.median(untraced["scaled"][i::n]) for i in range(n))
    span_pass = sum(traced["scaled"][-n:])
    out["trace.overhead_frac"] = (span_pass / untraced_pass - 1.0, "ratio")
    return out


def report(args, run, metrics, raw, n_setups):
    n = len(run["scaled"])
    beyond = sum(1 for x in run["scaled"] if x * 1e3 > metrics["job_p90_ms"][0])
    print(f"workload={args.workload} seed={args.seed} passes={run['passes']} "
          f"jobs_per_pass={run['jobs']} attempted={run['attempted']} failed={run['failed']}")
    print(f"digest {args.workload} seed={args.seed} sha256={run['digest']}")
    for err in run["errors"]:
        print(f"FAILED {err}")
    print(f"failed_frac {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']}/{run['attempted']})")
    notes = {"setup_s": f"median of {n_setups} fresh processes",
             "job_p50_ms": f"n={n}", "job_p90_ms": f"n={n}, {beyond} beyond"}
    for name, (value, unit) in metrics.items():
        note = f"; {notes[name]}" if name in notes else ""
        print(f"{name} {value:.6g} {unit}  (as measured {raw[name][0]:.6g}{note})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "renitent", "__init__.py")):
        print(f"error: no renitent package under {SRC}", file=sys.stderr)
        return 2

    # one CPU for this process and every child: the host's CPUs change
    # speed independently, and the reference loop must run where the jobs run
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env()
    print(f"env cpu={cpu} python={sys.version.split()[0]} nproc={os.cpu_count()} "
          f"loadavg={','.join(f'{x:.2f}' for x in os.getloadavg())}")
    # fill the bytecode cache so no timed process compiles
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    base = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    try:
        setups = []
        start = time.perf_counter()
        while len(setups) < SETUP_MIN_RUNS - 1 or time.perf_counter() - start < SETUP_MIN_S:
            setups.append(worker("setup", args, env, os.path.join(base, f"setup{len(setups)}")))
        run = worker("run", args, env, os.path.join(base, "run"))
        setups.append(run)
        traced = layers = None
        if args.trace:
            traced = worker("traced", args, env, os.path.join(base, "traced"))
            os.makedirs(os.path.join(base, "layers"))
            layers = run_child([os.path.join(HERE, "layers.py"), str(args.seed),
                                os.path.join(base, "layers")], env, "layer microbenchmarks")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)

    e2e = end_to_end(run, [s["setup_scaled_s"] for s in setups])
    raw = end_to_end(run, [s["setup_s"] for s in setups], "latencies")
    report(args, run, e2e, raw, len(setups))
    runs, metrics = [run], e2e
    if traced is not None:
        runs.append(traced)
        metrics = per_layer(traced, run, layers)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        if traced["digest"] != run["digest"]:
            print("FAILED tracing changed the output digest")
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0 and all(r["digest"] == run["digest"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
