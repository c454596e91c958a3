"""Smoke test of the benchmark itself, at a tiny run length.

    python3 perfbench/smoke.py

Runs every workload untraced and traced for a fraction of a second
(each run still makes enough passes for a p90) and checks that:
every metric BENCHMARK.json names is printed with its unit and nothing
else is; no job failed; the environment and digest lines are printed;
and, in a directory holding only BENCHMARK.json and perfbench/, the
benchmark exits non-zero without printing a result.  Exits 1 on the
first problem.  Takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd, workload, trace, seconds="0.1"):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-1000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if not any(line.startswith("failed_frac 0 ") for line in lines):
        problems.append("failed_frac is not 0")
    env = [line for line in lines if line.startswith("env ")]
    if not env or not all(f" {key}=" in env[0] for key in ("python", "nproc", "loadavg")):
        problems.append("no env line with python, nproc and loadavg")
    if not any(line.startswith(f"digest {workload} seed=7 sha256=") for line in lines):
        problems.append("no digest line")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics missing {missing}, extra {extra}, wrong unit {units}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("a metric value is not a number")
    return problems


def check_bare():
    """Without the program's sources the benchmark must fail, not report."""
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "classify", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0:
        return ["exit 0 without the program"]
    lines = proc.stdout.strip().splitlines()
    if lines and lines[-1].startswith("{"):
        return ["printed a result without the program"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = 0
    checks = [(f"{w['name']} trace={t}", check_run, (spec, w["name"], t))
              for t in (0, 1) for w in spec["workloads"]]
    checks.append(("bare checkout", check_bare, ()))
    for label, fn, args in checks:
        problems = fn(*args)
        print(f"{'ok  ' if not problems else 'FAIL'} {label}")
        for p in problems:
            print(f"     {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
