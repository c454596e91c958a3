"""One fresh process of the benchmark: set up a workload, then run it.

    python perfbench/worker.py MODE WORKLOAD SEED SECONDS WORKDIR

MODE is ``setup`` (set up and stop), ``run`` (set up, then whole passes
over the job list until SECONDS have passed), or ``traced`` (set up
with spans installed, then one pass with call counters installed and
one with spans).  The last line printed is one JSON object for run.py.
Requires ``src`` on PYTHONPATH; run.py arranges that.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

TRACED_PASSES = ("counts", "spans")   # what the traced run installs, pass by pass
MIN_ATTEMPTS = 100   # leaves ten samples beyond p90
REF_S = 1.75e-3      # reference() on an uncontended core of a 2-vCPU Linux VM,
                     # Python 3.11.7: the speed every time is scaled to
REF_WINDOW = 3       # attempts on each side whose reference timings are pooled
CLI_COMMAND = [sys.executable, "-m", "renitent.cli"]
TRACED_CLI_COMMAND = [sys.executable, os.path.join(os.path.dirname(__file__), "traced_cli.py")]


def reference():
    """A fixed piece of pure-Python work (integer arithmetic and dict
    updates, like the field and polynomial code) that times the host's
    current speed."""
    acc, table = 0, {}
    for i in range(12000):
        acc = (acc * 31 + i) % 1000003
        table[i & 511] = acc
    return acc


def timed_reference():
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def scaled(latencies, refs):
    """Each latency at reference speed: times REF_S over the median
    reference timing of the attempts around it.

    The host's CPUs change speed by a factor of two or more over seconds
    to minutes, for reasons outside this process; the reference loop,
    timed on the same CPU just before each job, slows down with them.
    """
    return [lat * REF_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, lat in enumerate(latencies)]


def main(mode, workload, seed, seconds, workdir):
    tracer = None
    t0 = time.perf_counter()
    import renitent  # set-up time starts just before this import
    if mode == "traced":
        import tracing
        tracer = tracing.Tracer()
        tracer.install(tracing.SPANS)
    import workloads
    jobs = workloads.setup(workload, seed, workdir)
    setup_s = time.perf_counter() - t0
    ref = statistics.median(timed_reference() for _ in range(7))
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * REF_S / ref,
              "renitent": os.path.dirname(renitent.__file__)}
    if mode == "setup":
        return result
    setup_spans = None
    if tracer is not None:
        tracer.uninstall()
        setup_spans = tracing.aggregate(tracer.spans)
        tracer.reset()

    env = dict(os.environ, PERFBENCH_TRACE_DIR=workdir)
    if workload == "cli":
        command = TRACED_CLI_COMMAND if tracer is not None else CLI_COMMAND

        def execute(job):
            return workloads.run_subprocess(job, env, command)
    else:
        execute = workloads.run_inprocess

    latencies, refs, results, attempted = [], [], [], 0
    first = [None] * len(jobs)      # canonical bytes from the first pass
    bad = set()                     # job indices whose attempts failed
    errors = []
    passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            kind = env["PERFBENCH_TRACE"] = TRACED_PASSES[passes]
            tracer.uninstall()
            if workload != "cli":   # cli children install their own (traced_cli.py)
                tracer.install(tracing.SPANS if kind == "spans" else tracing.COUNTERS)
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = attempted
            refs.append(timed_reference())
            t = time.perf_counter()
            try:
                rc, stdout = execute(job)
            except Exception:   # a crashing job is a failed job, not a crashed run
                rc, stdout = None, traceback.format_exc().encode()
            latencies.append(time.perf_counter() - t)
            attempted += 1
            blobs = []
            if rc == job.expect_rc:
                try:
                    blobs = workloads.read_outputs(job)
                except OSError as exc:
                    rc = f"missing output: {exc}"
            problem = None
            if rc != job.expect_rc:
                problem = (f"exit {rc!r}, expected {job.expect_rc}: "
                           f"{stdout[-300:].decode(errors='replace')}")
            blob = workloads.canonical(rc, stdout, blobs)
            if passes == 0:
                first[i] = blob
                results.append((rc, stdout, blobs))
            elif blob != first[i]:
                problem = "output differs between passes"
            if problem and i not in bad:
                bad.add(i)
                errors.append(f"{job.name}: {problem}")
        passes += 1
        if (tracer is not None and passes == len(TRACED_PASSES)) or (
                tracer is None and time.perf_counter() >= deadline
                and attempted >= MIN_ATTEMPTS):
            break

    if tracer is not None:
        tracer.uninstall()
        spans, counts = tracer.spans, tracer.counts
        if workload == "cli":
            spans, counts = merge_child_traces(workdir)
        os.makedirs(".perfbench_out", exist_ok=True)
        tracing.dump(os.path.join(".perfbench_out", f"trace-{workload}.json"), spans, counts)
        result.update(spans=tracing.aggregate(spans), counts=counts,
                      setup_spans=setup_spans)

    # correctness, outside the timed region: one oracle run per distinct job
    for i, (job, (rc, stdout, blobs)) in enumerate(zip(jobs, results)):
        if i in bad:
            continue
        try:
            if workload == "cli":
                problems = workloads.reference_problems(job, rc, stdout, blobs, workdir)
            else:
                problems = job.check(stdout.decode()) if job.check else []
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            bad.add(i)
            errors.append(f"{job.name}: {problems[0]}")
    failed = passes * len(bad)   # a job that fails once fails in every pass

    digest = hashlib.sha256()
    for blob in first:
        digest.update(hashlib.sha256(blob).digest())
    usage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result.update(
        attempted=attempted, failed=failed, passes=passes, jobs=len(jobs),
        latencies=latencies, scaled=scaled(latencies, refs),
        errors=errors[:5],
        digest=digest.hexdigest(),
        peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0)
    return result


def merge_child_traces(workdir):
    """Concatenate the span files the traced cli children wrote."""
    spans, counts = [], {}
    names = sorted((n for n in os.listdir(workdir) if n.startswith("trace-")),
                   key=lambda n: int(n[6:-5]))
    for job, name in enumerate(names):
        with open(os.path.join(workdir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        base = len(spans)
        for row in doc["spans"]:
            spans.append([row[0], row[1], row[2],
                          row[3] + base if row[3] >= 0 else -1, job])
        for key, n in doc["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return spans, counts


if __name__ == "__main__":
    mode, workload, seed, seconds, workdir = sys.argv[1:6]
    out = main(mode, workload, int(seed), float(seconds), workdir)
    sys.stdout.write(json.dumps(out) + "\n")
