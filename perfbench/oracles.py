"""Independent checks of every job's output.

The reference arithmetic below shares nothing with ``renitent.gf``
except the modulus and the element encoding (base-p digits, constant
first), which are part of the program's output format.  Each check
returns a list of problems; an empty list means the output is right.
Checks run after the timed loop, once per distinct job.
"""

import json

from renitent import plane, uniformity
from renitent.counting import index_of_point
from renitent.poly import TriHomPoly


class RefField:
    """GF(p^e) by schoolbook digit-vector arithmetic, memoised."""

    def __init__(self, p, e, modulus):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = list(modulus)
        self._mul = {}

    def digits(self, a):
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def index(self, digits):
        idx = 0
        for d in reversed(digits):
            idx = idx * self.p + d % self.p
        return idx

    def add(self, a, b):
        if self.e == 1:
            return (a + b) % self.p
        return self.index([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        if self.e == 1:
            return -a % self.p
        return self.index([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.e == 1:
            return a * b % self.p
        key = (a, b) if a <= b else (b, a)
        hit = self._mul.get(key)
        if hit is None:
            p, e = self.p, self.e
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(self.digits(a)):
                for j, y in enumerate(self.digits(b)):
                    prod[i + j] += x * y
            for k in range(len(prod) - 1, e - 1, -1):   # modulus is monic
                c = prod[k] % p
                if c:
                    for j in range(e + 1):
                        prod[k - e + j] -= c * self.modulus[j]
            hit = self._mul[key] = self.index(prod[:e])
        return hit

    def power(self, a, k):
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out


def ref_field(K):
    return RefField(K.p, K.e, K.modulus)


def parse_line(K, text):
    a, b, c = (int(x) for x in text.strip("[]").split(":"))
    return plane.ProjLine(K, a, b, c)


def directions(F):
    """Direction labels in the program's order: slopes, then vertical."""
    return [f"inf:{s}" for s in range(F.q)] + ["inf:vert"]


def intercept(F, slope, point):
    a, b = point
    return a if slope is None else F.sub(b, F.mul(a, slope))


def classify(F, mults, lam):
    """{label: (counts by intercept, typical residue or None)} for all q+1."""
    out = {}
    for label in directions(F):
        slope = None if label == "inf:vert" else int(label[4:])
        counts = [0] * F.q
        for pt, m in mults.items():
            counts[intercept(F, slope, pt)] += m
        freq = {}
        for c in counts:
            freq[c % F.p] = freq.get(c % F.p, 0) + 1
        typical = [r for r, n in freq.items() if n >= F.q - lam]
        out[label] = (counts, typical[0] if typical else None)
    return out


def renitent_of(F, counts, m_d):
    return [(t, counts[t] % F.p) for t in range(F.q) if counts[t] % F.p != m_d]


def on_line(F, coords, point):
    a, b, c = coords
    x, y = point
    return F.add(F.add(F.mul(a, x), F.mul(b, y)), c) == 0


def line_problems(F, K, label, alpha, text):
    """The printed line must be the class line with this intercept."""
    line = parse_line(K, text)
    if label == "inf:vert":
        pts = [(alpha, 0), (alpha, 1)]
    else:
        s = int(label[4:])
        pts = [(0, alpha), (1, F.add(alpha, s))]
    if not all(on_line(F, line.coords, pt) for pt in pts):
        return [f"{label}: line {text} is not the class line with intercept {alpha}"]
    return []


# -- classify ----------------------------------------------------------------


def check_analyze(T, lam, stdout, planted=None, conic=None):
    """Analyze output against the reference classification.

    planted: the PlantedInstance, whose generic directions must show
    exactly the lines through the planted points.  conic: the
    ConicInstance, whose tangents must all pass through the nucleus.
    """
    K = T.field
    F = ref_field(K)
    mults = dict(T.items())
    doc = json.loads(stdout)
    problems = []
    if doc["size"] != sum(mults.values()) or doc["support"] != len(mults):
        problems.append("size or support differs from the input")
    ref = classify(F, mults, lam)
    rows = doc["directions"]
    if [r["direction"] for r in rows] != directions(F):
        return problems + ["direction rows are missing or out of order"]
    uniform = renitent_total = 0
    for row in rows:
        label = row["direction"]
        counts, m_d = ref[label]
        if sum(counts) != T.size:
            problems.append(f"{label}: class counts do not sum to |T|")
        if (m_d is not None) != row["uniform"]:
            problems.append(f"{label}: uniform flag differs from the reference")
            continue
        if m_d is None:
            continue
        uniform += 1
        expect = renitent_of(F, counts, m_d)
        got = [(r["alpha"], r["t"]) for r in row["renitent"]]
        renitent_total += len(got)
        if row["m_d"] != m_d or got != expect or row["lambda_d"] != len(expect) \
                or row["sharp"] != (len(expect) == lam):
            problems.append(f"{label}: renitent lines differ from the reference")
            continue
        for r in row["renitent"]:
            problems += line_problems(F, K, label, r["alpha"], r["line"])
            if uniformity.line_count(T, parse_line(K, r["line"])) % K.p != r["t"]:
                problems.append(f"{label}: line_count disagrees on {r['line']}")
    if doc["uniform_count"] != uniform or doc["renitent_total"] != renitent_total:
        problems.append("summary counts differ from the rows")
    by_label = {row["direction"]: row for row in rows}
    if planted is not None:
        for d in planted.generic_directions:
            label = plane.format_point(d)
            slope = plane.slope_of(d)
            want = sorted(intercept(F, slope, pt) for pt in planted.points)
            got = sorted(r["alpha"] for r in by_label[label].get("renitent", []))
            if got != want:
                problems.append(f"{label}: renitent lines are not the planted lines")
    if conic is not None:
        nucleus = conic.nucleus.affine_coords()
        for row in rows:
            lines = row.get("renitent", [])
            if len(lines) != 1 or not on_line(F, parse_line(K, lines[0]["line"]).coords,
                                              nucleus):
                problems.append(f"{row['direction']}: tangent misses the nucleus")
    return problems


# -- theorems ------------------------------------------------------------------


def curve_of(K, curve_json):
    return TriHomPoly(K, curve_json["class"],
                      {(m["i"], m["j"], m["k"]): m["coeff"] for m in curve_json["monomials"]})


def curve_value(F, curve_json, u, v, w):
    acc = 0
    for m in curve_json["monomials"]:
        term = F.mul(m["coeff"], F.mul(F.power(u, m["i"]),
                                       F.mul(F.power(v, m["j"]), F.power(w, m["k"]))))
        acc = F.add(acc, term)
    return acc


def check_envelope(inst, lam, stdout, theorem):
    """Envelope output: verification passed; the curve goes through the
    dual point of every renitent line of every sharp used direction (by
    the reference arithmetic); equal-weight planted curves are
    proportional to the planted oracle."""
    T = inst.multiset
    K = T.field
    F = ref_field(K)
    doc = json.loads(stdout)
    problems = []
    if not doc["verification"]["pass"]:
        problems.append("verification failed")
    ref = classify(F, dict(T.items()), lam)
    curve = doc["curve"]
    for label in doc["directions_used"]:
        counts, m_d = ref[label]
        if m_d is None:
            problems.append(f"{label}: used direction is not uniform")
            continue
        lines = renitent_of(F, counts, m_d)
        if theorem == "general" and len(lines) < lam:
            continue  # non-sharp: the curve contains the whole pencil line
        for alpha, _ in lines:
            dual = (alpha, int(label[4:]), 1) if label != "inf:vert" else (F.neg(alpha), 1, 0)
            if curve_value(F, curve, *dual) != 0:
                problems.append(f"{label}: curve misses the dual of intercept {alpha}")
    if theorem == "weighted":
        total = sum(w["weight"] for w in doc["weights"])
        if curve["class"] * len(doc["directions_used"]) != total:
            problems.append("weights do not sum to the class on every direction")
    if theorem == "regular" or (theorem == "weighted" and doc["c"] == inst.c):
        if not curve_of(K, curve).proportional_to(inst.oracle):
            problems.append("curve is not proportional to the planted oracle")
    return problems


def check_bound(T, lam, stdout, bound):
    """Check report: pass, both counts agree, and the reference
    classification gives the same left-hand side."""
    K = T.field
    F = ref_field(K)
    doc = json.loads(stdout)
    problems = [] if doc["pass"] else [f"{bound} check did not pass"]
    ref = classify(F, dict(T.items()), lam)
    uniform = {label: renitent_of(F, *row) for label, row in ref.items() if row[1] is not None}
    slopes = {label: lines for label, lines in uniform.items() if label != "inf:vert"}
    if bound == "deficiency":
        lhs = sum(lam - len(lines) for lines in uniform.values())
        if (doc["lhs"], doc["rhs"]) != (lhs, lam * lam - lam):
            problems.append("deficiency sides differ from the reference")
    elif bound == "count":
        lhs = sum(len(lines) for lines in slopes.values())
        w = doc["witnesses"]
        if doc["lhs"] != lhs or not w["counts_agree"] or w["gcd_count"] != lhs:
            problems.append("renitent counts differ between gcd, geometry and reference")
        if doc["rhs"] != lam * (len(slopes) + 1 - lam):
            problems.append("lower bound differs from the reference")
    elif bound == "gcd":
        if doc["hypotheses"]["directions"] != len(slopes):
            problems.append("gcd check used the wrong directions")
        if not all(c["pass"] for c in doc["witnesses"]):
            problems.append("gcd bound fails at some anchor")
    else:
        lines = sum(len(v) for v in uniform.values())
        if doc["hypotheses"]["renitent_lines"] != lines or doc["lhs"] != 0:
            problems.append("dichotomy differs from the reference")
    return problems


def check_point_detector(reports, coll, stdout):
    """k_y = |E| - (renitent lines through the pencil point (1:y:0)),
    the latter counted by direct incidence in the original frame."""
    K = coll.field
    doc = json.loads(stdout)
    inv = coll.inverse()
    for y in K.elements():
        pre = inv.apply_point(plane.ProjPoint(K, 1, y, 0))
        if doc["k"][str(y)] != len(reports) - index_of_point(reports, pre).count:
            return [f"k_{y} disagrees with index_of_point"]
    if not doc["bound_ok"]:
        return ["gcd degree bound fails at some anchor"]
    return []
