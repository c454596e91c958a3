"""Timing wrappers installed around renitent's layer boundaries.

Used only by the traced run.  Each boundary is either a span (name,
start, end, parent, job) or a bare call counter.  Field operations and
point/line incidence get counters only: they run millions of times per
pass, and a span per call would swamp what it measures.  Even a counter
doubles the cost of a field operation, so the traced run installs the
counters for one pass and the spans for another, and times only the
span pass.

A wrapped module-level function is rebound in every loaded renitent
module that imported it (``counting.uni_gcd`` as well as
``poly.uni_gcd``); a wrapped method is replaced on its class.
``uninstall`` puts every original back.
"""

import functools
import importlib
import json
import sys
import time

# (module, attribute) -> span name; "Class.method" attributes wrap on the class
SPANS = {
    ("renitent.cli", "main"): "cli.main",
    ("renitent.uniformity", "uniform_directions"): "uniformity.uniform_directions",
    ("renitent.uniformity", "classify_direction"): "uniformity.classify_direction",
    ("renitent.uniformity", "intercept_profile"): "uniformity.intercept_profile",
    ("renitent.uniformity", "parse_points"): "uniformity.parse_points",
    ("renitent.poly", "UniPoly.__mul__"): "poly.UniPoly.__mul__",
    ("renitent.poly", "UniPoly.__divmod__"): "poly.UniPoly.__divmod__",
    ("renitent.poly", "uni_gcd"): "poly.uni_gcd",
    ("renitent.poly", "BiPoly.__pow__"): "poly.BiPoly.__pow__",
    ("renitent.poly", "BiPoly.eval_v"): "poly.BiPoly.eval_v",
    ("renitent.poly", "TriHomPoly.at_vw"): "poly.TriHomPoly.at_vw",
    ("renitent.poly", "PolyMatrix.det"): "poly.PolyMatrix.det",
    ("renitent.poly", "homogenize"): "poly.homogenize",
    ("renitent.plane", "frame_collineation"): "plane.frame_collineation",
    ("renitent.envelope", "envelope_regular"): "envelope.envelope_regular",
    ("renitent.envelope", "envelope_weighted"): "envelope.envelope_weighted",
    ("renitent.envelope", "envelope_general"): "envelope.envelope_general",
    ("renitent.envelope", "verify_envelope"): "envelope.verify_envelope",
    ("renitent.envelope", "scan_weight_classes"): "envelope.scan_weight_classes",
    ("renitent.envelope", "power_sum_polys"): "envelope.power_sum_polys",
    ("renitent.counting", "build_slope_detector"): "counting.build_slope_detector",
    ("renitent.counting", "build_point_detector"): "counting.build_point_detector",
    ("renitent.counting", "gcd_profile"): "counting.gcd_profile",
    ("renitent.counting", "renitent_lower_bound_check"):
        "counting.renitent_lower_bound_check",
    ("renitent.counting", "dichotomy_check"): "counting.dichotomy_check",
    ("renitent.generators", "gen_random"): "generators.gen_random",
    ("renitent.generators", "gen_planted"): "generators.gen_planted",
    ("renitent.generators", "gen_norm_conic"): "generators.gen_norm_conic",
}

COUNTERS = {
    ("renitent.gf", "GF." + op): "gf." + op
    for op in ("add", "sub", "neg", "mul", "inv", "pow", "check")
}
COUNTERS[("renitent.plane", "incident")] = "plane.incident"


class Tracer:
    """In-memory spans and counters, written out once the run ends."""

    def __init__(self):
        self.spans = []      # SPAN_FIELDS rows; parent is an index, -1 for none
        self.counts = {}
        self.job = None
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self, table):
        """Wrap every boundary of SPANS or of COUNTERS."""
        make = self._span_wrapper if table is SPANS else self._count_wrapper
        for (modname, attr), name in table.items():
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, make(name, original))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapped = make(name, original)
            for other in list(sys.modules.values()):
                if (getattr(other, "__name__", "").startswith("renitent")
                        and getattr(other, attr, None) is original):
                    setattr(other, attr, wrapped)
                    self._undo.append((other, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def reset(self):
        self.spans.clear()
        for name in self.counts:
            self.counts[name] = 0


SPAN_FIELDS = ["name", "start", "end", "parent", "job"]


def dump(path, spans, counts):
    """Write spans and counters as one JSON document."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": SPAN_FIELDS, "spans": spans, "counts": counts}, fh)


def aggregate(spans):
    """{span name: [calls, total seconds, self seconds]}.

    Self time is the span's duration minus the time its direct children
    cover; calls in one thread nest, so children never overlap and their
    durations simply add.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    return out
