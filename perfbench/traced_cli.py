"""``python -m renitent.cli`` with the timing wrappers installed.

The traced run of the ``cli`` workload starts each request through this
file instead, with $PERFBENCH_TRACE set to ``counts`` or ``spans``.  On
exit it writes its spans and counters to a new file in
$PERFBENCH_TRACE_DIR, which the worker merges in request order.
"""

import os
import sys
import time

import renitent.cli

import tracing

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install(tracing.SPANS if os.environ["PERFBENCH_TRACE"] == "spans"
                   else tracing.COUNTERS)
    try:
        rc = renitent.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        tracing.dump(os.path.join(os.environ["PERFBENCH_TRACE_DIR"],
                                  f"trace-{time.time_ns()}.json"),
                     tracer.spans, tracer.counts)
    sys.exit(rc)
