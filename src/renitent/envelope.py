"""Envelope curves through the renitent lines of uniform directions.

Everything here works in the dual plane: the line [d:-1:alpha] of slope
d and Y-axis intercept alpha becomes the dual point (alpha : d : 1), and
a class-n envelope is a homogeneous curve g(U,V,W) of degree n that
vanishes on the dual points of the renitent lines.  The unique
projective extension of that convention maps a general line [a:b:c] to
(c : a : -b); in particular the vertical renitent line [1:0:-alpha]
becomes (-alpha : 1 : 0) on the W=0 section of the curve.

Three constructions are provided.  The `regular` one applies when every
direction shows the same number of renitent lines, each with one shared
count offset c, and yields a monic class-lam curve via Newton's
identities on the multiset power sums.  The `weighted` one relaxes the
equal-count hypothesis by reading a weight off each renitent line (the
count offset divided by c mod p) and produces a class-Lambda curve that
meets each renitent line with exactly its weight.  The `general` one
drops the shared-offset hypothesis entirely: a Hankel system in the
power sums produces a class lam^2 curve that either factors through the
renitent dual points of a direction (sharp case, nonzero leading
coefficient) or contains the direction's whole pencil.
"""

from math import comb

from .errors import HypothesisRejected, HypothesisViolation, InputError
from .plane import format_line, format_point, slope_of
from .poly import (
    BiPoly,
    PolyMatrix,
    UniPoly,
    _root_multiplicity,
    homogenize,
    maximal_minors,
)
from .records import FrozenRecord, Record
from .uniformity import check_lam, check_reports


class EnvelopeCurve(Record):
    __slots__ = ("poly", "nominal_class", "provenance", "lead")

    def __init__(self, poly, nominal_class, provenance, lead=None):
        self.poly = poly
        self.nominal_class = nominal_class
        self.provenance = provenance  # "regular" | "weighted" | "general"
        self.lead = lead  # general construction: U^lam coefficient in V

    @property
    def affine_degree(self):
        return self.poly.affine_degree

    def to_json(self):
        return {
            "class": self.nominal_class,
            "affine_degree": self.affine_degree,
            "provenance": self.provenance,
            "monomials": [{"i": i, "j": j, "k": k, "coeff": c}
                          for i, j, k, c in self.poly.monomials()],
        }


def power_sum_polys(T, k_max):
    """Power-sum polynomials in V: sum of m * (b - a V)^k for k = 0..k_max.

    Evaluated at a slope d these give the k-th power sums of the
    multiset's intercepts on the direction-d pencil.  By the binomial
    theorem the V^j coefficient of the k-th is C(k, j) times entry k - j
    of column j, the power sums [sum of m (-a)^j b^i for i = 0..k_max - j].
    """
    K = T.field
    if type(k_max) is not int or k_max < 0:
        raise InputError(f"k_max must be a non-negative integer, got {k_max!r}")
    if k_max > K.q - 2:
        raise InputError(f"k_max must stay below q-1 = {K.q - 1}")
    mul, from_int, powsums = K.umul, K.from_int, K.upowsums
    points = T.items()
    bs = [b for (_, b), _ in points]
    weights = [powsums(((from_int(m), K.uneg(a)),), k_max) for (a, _), m in points]
    cols = [powsums(zip([w[j] for w in weights], bs), k_max - j) for j in range(k_max + 1)]
    return [UniPoly._trusted(K, [mul(from_int(comb(k, j)), cols[j][k - j])
                                 for j in range(k + 1)])
            for k in range(k_max + 1)]


def newton_sigma(power_sums, lam, c):
    """Elementary symmetric polynomials sigma_1..sigma_lam of the
    intercept multiset, from power sums scaled by 1/c, via Newton's
    recursion j*sigma_j = sum_{i<=j} (-1)^(i-1) sigma_{j-i} p_i."""
    if not power_sums:
        raise InputError("need the power sums up to index lam")
    K = power_sums[0].field
    if type(lam) is not int or not 0 < lam <= min(K.q - 2, K.p - 1):
        raise InputError(
            f"need 0 < lam <= min(q-2, p-1) = {min(K.q - 2, K.p - 1)}, got {lam!r}")
    if len(power_sums) < lam + 1:
        raise InputError(f"need power sums up to index {lam}, got {len(power_sums) - 1}")
    if type(c) is not int or not 0 < c < K.p:
        raise InputError(f"count offset must be a nonzero residue mod p, got {c!r}")
    c_inv = K.uinv(c)
    scaled = [ps.scale(c_inv) for ps in power_sums[: lam + 1]]
    sigma = [UniPoly.one(K)]
    for j in range(1, lam + 1):
        acc = UniPoly.zero(K)
        for i in range(1, j + 1):
            term = sigma[j - i] * scaled[i]
            acc = acc + (term if i % 2 == 1 else -term)
        sigma.append(acc.scale(K.uinv(K.from_int(j))))
    return sigma[1:]


def _curve(K, coeffs, n, provenance, lead=None):
    """The class-n EnvelopeCurve whose U^(m-j) coefficient is (-1)^j
    coeffs[j](V), for the m + 1 UniPolys in coeffs."""
    m = len(coeffs) - 1
    neg = K.uneg
    terms = {(m - j, i): neg(c) if j % 2 else c
             for j, cj in enumerate(coeffs) for i, c in enumerate(cj.coeffs) if c}
    return EnvelopeCurve(homogenize(BiPoly._trusted(K, terms), n), n, provenance, lead)


def _monic_curve(T, n, c, provenance):
    """The class-n curve U^n - sigma_1 U^(n-1) + sigma_2 U^(n-2) - ... of
    the intercepts, from the power sums of T scaled by 1/c."""
    sigmas = newton_sigma(power_sum_polys(T, n), n, c)
    return _curve(T.field, [UniPoly.one(T.field), *sigmas], n, provenance)


def envelope_regular(T, reports):
    """Class-lam envelope for directions with equal renitent counts.

    Hypotheses: (i) the shared renitent-line count lam lies in
    1..min(q-2, p-1); (ii) within each direction all renitent lines have
    one count t_d; (iii) t_d - m_d is one residue c for every direction.
    The returned curve is monic of degree lam in U and satisfies
    g(U, d, 1) = prod_i (U - alpha_i(d)) at each covered slope d.
    """
    check_reports(T.field, reports)
    for r in reports:
        if slope_of(r.direction) is None:
            raise HypothesisRejected("the regular construction works on slope directions only")
    K = T.field
    lams = {r.lambda_d for r in reports}
    if len(lams) != 1:
        raise HypothesisRejected(f"renitent counts differ across directions: {sorted(lams)}")
    lam = lams.pop()
    if not 0 < lam <= min(K.q - 2, K.p - 1):
        raise HypothesisViolation(
            "i", f"need 0 < lam <= min(q-2, p-1), got lam = {lam}")
    offsets = set()
    for r in reports:
        ts = {entry.t for entry in r.renitent}
        if len(ts) != 1:
            raise HypothesisViolation(
                "ii", f"direction {format_point(r.direction)} has counts {sorted(ts)}")
        offsets.add((ts.pop() - r.m_d) % K.p)
    if len(offsets) != 1:
        raise HypothesisViolation(
            "iii", f"count offsets differ across directions: {sorted(offsets)}")
    return _monic_curve(T, lam, offsets.pop(), "regular")


class WeightEntry(FrozenRecord):
    __slots__ = ("direction",
                 "weights",  # one weight in 1..p-1 per renitent line, report order
                 "total")    # natural-number sum of the weights


def lambda_weights(report, c):
    """Weights of a direction's renitent lines for count offset c: the
    unique w in 1..p-1 with c*w = t - m_d (mod p), per line."""
    K = report.direction.field
    if type(c) is not int or not 0 < c < K.p:
        raise InputError(f"count offset must be a nonzero residue mod p, got {c!r}")
    c_inv = pow(c, K.p - 2, K.p)
    weights = []
    for entry in report.renitent:
        diff = (entry.t - report.m_d) % K.p
        if diff == 0:
            raise InputError(f"line {format_line(entry.line)} has the typical count")
        weights.append(diff * c_inv % K.p)
    return WeightEntry(report.direction, tuple(weights), sum(weights))


def envelope_weighted(T, reports, c):
    """Class-Lambda envelope meeting each renitent line with its weight.

    Requires |T| nonzero mod p and a common weight total Lambda(c) in
    1..min(q-2, p-1) across all covered directions.  The curve itself
    comes from the power sums of T, so covering all q+1 directions is
    allowed: vertical renitent lines are then met on the W=0 section.
    A vertical direction in a smaller report set is rejected, since the
    slope-only hypothesis cannot see it; re-coordinatize instead.

    Returns (curve, weight map keyed by renitent line).
    """
    check_reports(T.field, reports)
    K = T.field
    if T.size % K.p == 0:
        raise HypothesisRejected(f"|T| = {T.size} vanishes mod p; weights are undetermined")
    full_scan = len(reports) == K.q + 1
    if not full_scan:
        for r in reports:
            if slope_of(r.direction) is None:
                raise HypothesisRejected(
                    "vertical direction allowed only when all q+1 are covered")
    cap = min(K.q - 2, K.p - 1)
    entries = [lambda_weights(r, c) for r in reports]
    totals = {e.total for e in entries}
    for e in entries:
        if e.total > cap:
            raise HypothesisRejected(
                f"direction {format_point(e.direction)} needs class {e.total} > {cap}")
    if len(totals) != 1:
        raise HypothesisRejected(f"weight totals differ across directions: {sorted(totals)}")
    total = totals.pop()
    if total == 0:
        raise InputError("no renitent lines to envelope")
    curve = _monic_curve(T, total, c, "weighted")
    weight_map = {}
    for r, e in zip(reports, entries):
        for entry, w in zip(r.renitent, e.weights):
            weight_map[entry.line] = w
    return curve, weight_map


def scan_weight_classes(reports, p, cap):
    """Try every count offset c; return ({c: total or None}, best c).

    A c is feasible when all directions agree on one total <= cap; the
    winner is the feasible c with the smallest total, ties to smaller c.
    """
    # t - m_d does not depend on c; a zero difference rules out every c.
    # A direction's total depends only on its multiset of differences, so
    # each distinct multiset is summed once.
    diffs = {tuple(sorted((e.t - r.m_d) % r.direction.field.p for e in r.renitent))
             for r in reports}
    if any(0 in ds for ds in diffs):
        return dict.fromkeys(range(1, p)), None
    outcomes = {}
    best = None
    for c in range(1, p):
        c_inv = pow(c, p - 2, p)
        totals = {sum(d * c_inv % p for d in ds) for ds in diffs}
        if len(totals) == 1 and (total := totals.pop()) <= cap:
            outcomes[c] = total
            if best is None or total < outcomes[best]:
                best = c
        else:
            outcomes[c] = None
    return outcomes, best


def weighted_power_recursion_check(field, c_list, x_list, j):
    """Direct check of the weighted power-sum recursion: with
    P_k = sum c_i x_i^k and sigma the elementary symmetric functions of
    the x_i, P_{lam+j} = sum_{i=1..lam} (-1)^(i+1) P_{lam+j-i} sigma_i."""
    K = field
    if len(c_list) != len(x_list) or not x_list:
        raise InputError("need matching nonempty coefficient and node lists")
    if type(j) is not int or j < 0:
        raise InputError(f"index shift must be a non-negative integer, got {j!r}")
    for a in (*x_list, *c_list):
        K.check(a)
    lam = len(x_list)
    sums = K.upowsums(list(zip(c_list, x_list)), lam + j)   # P_0 .. P_(lam+j)
    poly = [1]
    for xi in x_list:
        poly = K.uconv(poly, [K.uneg(xi), 1])
    # poly = x^lam - sigma_1 x^(lam-1) + ... + (-1)^lam sigma_lam
    rhs = 0
    for i in range(1, lam + 1):
        # poly[lam - i] carries (-1)^i sigma_i, so the recursion's
        # (-1)^(i+1) sigma_i is its negation for either parity
        rhs = K.usub(rhs, K.umul(sums[lam + j - i], poly[lam - i]))
    return sums[lam + j] == rhs


def hankel_matrix(power_sums, lam):
    """The lam x lam moment matrix with (r, c) entry pi_{lam-1+r-c}."""
    if type(lam) is not int or lam < 1:
        raise InputError(f"lam must be a positive integer, got {lam!r}")
    if len(power_sums) < 2 * lam - 1:
        raise InputError(
            f"need power sums up to index {2 * lam - 2}, got {len(power_sums) - 1}")
    K = power_sums[0].field
    rows = [[power_sums[lam - 1 + r - c] for c in range(lam)] for r in range(lam)]
    return PolyMatrix(K, rows)


def hankel_det_closed_form(field, c_list, x_list):
    """(-1)^(lam(lam-1)/2) * prod c_i * prod_{i<j} (x_i - x_j)^2."""
    K = field
    if len(c_list) != len(x_list) or not x_list:
        raise InputError("need matching nonempty coefficient and node lists")
    for a in (*c_list, *x_list):
        K.check(a)
    lam = len(x_list)
    acc = 1
    for ci in c_list:
        acc = K.umul(acc, ci)
    for i in range(lam):
        for j in range(i + 1, lam):
            d = K.usub(x_list[i], x_list[j])
            acc = K.umul(acc, K.umul(d, d))
    if (lam * (lam - 1) // 2) % 2 == 1:
        acc = K.uneg(acc)
    return acc


def envelope_general(T, reports, lam):
    """Class lam^2 envelope with no shared-offset hypothesis.

    The U^lam coefficient is M(V) = det H, H the Hankel matrix of power
    sums; the U^(lam-i) coefficient is -M_i(V), det H with its i-th
    column replaced by v, the next lam power sums.  By Cramer's rule
    these are the maximal minors of the lam x (lam + 1) matrix [v | H]:
    the U^(lam-j) coefficient is (-1)^j times the minor without column
    j, and all of them come from one maximal_minors pass.  At a sharp
    direction d the section g(U, d, 1) equals M(d) * prod_i (U -
    alpha_i(d)) with M(d) != 0; at a covered non-sharp direction it
    vanishes identically (the curve contains the whole dual pencil line).
    """
    check_reports(T.field, reports)
    K = T.field
    check_lam(K, lam)
    if len(reports) > K.q:
        raise HypothesisRejected(f"at most q = {K.q} directions, got {len(reports)}")
    for r in reports:
        if slope_of(r.direction) is None:
            raise HypothesisRejected("the general construction works on slope directions only")
        if r.lambda_d > lam:
            raise InputError(
                f"direction {format_point(r.direction)} shows {r.lambda_d} "
                f"renitent lines, more than lam = {lam}")
    sums = power_sum_polys(T, 2 * lam - 1)
    rows = [(sums[lam + r],) + row
            for r, row in enumerate(hankel_matrix(sums, lam).rows)]
    minors = maximal_minors(K, rows)
    full = (1 << (lam + 1)) - 1
    coeffs = [minors[full ^ (1 << j)] for j in range(lam + 1)]
    if all(minor.is_zero() for minor in coeffs):
        raise HypothesisRejected(
            "every coefficient determinant vanishes; no envelope of this class")
    return _curve(K, coeffs, lam * lam, "general", lead=coeffs[0])


class DeficiencyReport(Record):
    __slots__ = ("lam",
                 "per_direction",  # (direction, lambda_d) pairs
                 "total_deficit", "bound", "ok")

    def to_json(self):
        return {
            "lambda": self.lam,
            "per_direction": [{"direction": format_point(d), "lambda_d": ld}
                              for d, ld in self.per_direction],
            "total_deficit": self.total_deficit,
            "bound": self.bound,
            "pass": self.ok,
        }


def deficiency_bound_check(reports, lam):
    """Sum of (lam - lambda_d) over covered directions against lam^2 - lam.

    Requires reports that pass `check_reports`, a legal lam, lambda_d <= lam
    at every direction and one sharp direction, as the bound does.
    """
    if not reports:
        raise InputError("need at least one direction report")
    K = reports[0].direction.field
    check_reports(K, reports)
    check_lam(K, lam)
    for r in reports:
        if r.lambda_d > lam:
            raise InputError(
                f"direction {format_point(r.direction)} shows {r.lambda_d} "
                f"renitent lines, more than lam = {lam}")
    if not any(r.lambda_d == lam for r in reports):
        raise HypothesisRejected("the bound needs a direction with lambda_d = lam")
    per = tuple((r.direction, r.lambda_d) for r in reports)
    total = sum(lam - r.lambda_d for r in reports)
    bound = lam * lam - lam
    return DeficiencyReport(lam, per, total, bound, total <= bound)


# -- verification --------------------------------------------------------


class RootCheck(Record):
    __slots__ = ("line", "alpha", "expected",
                 "actual",  # None under pencil containment
                 "exact",   # whether expected multiplicity was enforced exactly
                 "ok")

    def to_json(self):
        return {"line": format_line(self.line), "alpha": self.alpha,
                "expected": self.expected, "actual": self.actual,
                "exact": self.exact, "ok": self.ok}


class DirectionCheck(Record):
    __slots__ = ("direction", "pencil_contained", "roots")

    @property
    def ok(self):
        return all(r.ok for r in self.roots)

    def to_json(self):
        return {"direction": format_point(self.direction),
                "pencil_contained": self.pencil_contained,
                "roots": [r.to_json() for r in self.roots],
                "ok": self.ok}


class VerificationReport(Record):
    __slots__ = ("directions",)

    @property
    def ok(self):
        return all(d.ok for d in self.directions)

    def to_json(self):
        return {"directions": [d.to_json() for d in self.directions],
                "pass": self.ok}


def verify_envelope(curve, reports, mults=None):
    """Check the curve against each report's renitent lines.

    Slope d is checked on the section g(U, d, 1), the vertical direction
    on g(U, 1, 0) where the dual point of [1:0:-alpha] is (-alpha:1:0).
    Without a weight map each dual point must be a root; with one, root
    multiplicities must match it exactly.  A direction whose whole
    section vanishes is flagged as pencil containment and its roots
    count as covered.
    """
    checks = []
    for r in reports:
        K = r.direction.field
        if K != curve.poly.field:
            raise InputError("report uses a different context")
        s = slope_of(r.direction)
        section = curve.poly.at_vw(s, 1) if s is not None else curve.poly.at_vw(1, 0)
        pencil = section.is_zero()
        roots = []
        for entry in r.renitent:
            root = entry.alpha if s is not None else K.neg(entry.alpha)
            exact = mults is not None and entry.line in mults
            expected = mults[entry.line] if exact else 1
            if pencil:
                roots.append(RootCheck(entry.line, entry.alpha, expected,
                                       None, exact, True))
                continue
            actual = _root_multiplicity(section, root)
            ok = actual == expected if exact else actual >= expected
            roots.append(RootCheck(entry.line, entry.alpha, expected,
                                   actual, exact, ok))
        checks.append(DirectionCheck(r.direction, pencil, tuple(roots)))
    return VerificationReport(tuple(checks))
