"""Counting renitent lines two ways: geometry and gcd degrees.

For a bivariate pair (f, g) whose X-leading coefficient is a nonzero
constant, the profile k_y = deg gcd(f(X,y), g(X,y)) obeys

    sum over y of max(0, k_y - k_y0)  <=  (deg f - k_y0)(deg g - k_y0)

for every choice of y0.  Two detector pairs turn that inequality into
renitent-line counts: the slope detector makes k_y drop by one for each
renitent line of the uniform slope y, giving a lower bound on the total
number of renitent lines; the point detector moves a chosen point R to
infinity first, making k_y record how many renitent lines pass through
each point of one pencil, which yields the index dichotomy (every point
of the plane sits on at most lam renitent lines or on almost all of
them).

Both detectors' g is -|T| plus a bump m_d (1 - L_d^(q-1)) per covered
direction plus w L_v^(q-1) per support point, where L_P = z X + x Y - y
for the image (x : y : z) of the point P in the detector's frame (the
identity for the slope detector).  Each bump is a constant plus one
more such power, so a DetectorPoly stores g unexpanded, in one normal
form built once from the constant and the powers, and reads everything
from it: the gcd profile's q rows g(X, y) in closed form, and deg g
from the weight sums, which leave it at q - 1 unless they cancel the
top level.  The point detector's f is the product of X - c over the
roots c of the moved directions.  The gcd degrees themselves always
come from the Euclidean algorithm, so the algebra stays a second count
beside the geometry.  The geometry reads the reports by parallel class:
a uniform direction lies on its own lambda_d renitent lines, and the
dichotomy counts the affine points one column x = x0 at a time.
"""

from collections import Counter

from .errors import HypothesisRejected, InputError
from .plane import (
    ProjPoint,
    _mat_vec,
    format_line,
    format_point,
    frame_collineation,
    incident,
    slope_of,
)
from .poly import BiPoly, UniPoly
from .records import FrozenRecord, Record
from .uniformity import check_reports, uniform_directions


class GcdProfile(Record):
    __slots__ = ("field",
                 "k",      # y -> deg gcd(f(X,y), g(X,y))
                 "deg_f",  # total degree of f
                 "deg_g")  # total degree of g

    def to_json(self):
        return {"deg_f": self.deg_f, "deg_g": self.deg_g,
                "k": {str(y): ky for y, ky in sorted(self.k.items())}}


def gcd_profile(f, g):
    """k_y for every y in the field.  The X-leading coefficient of f
    must be a nonzero constant, so deg f(X,y) never drops; g(X,y) = 0
    falls out of the Euclidean algorithm as k_y = deg f.

    The rows f(X, y) and g(X, y) come from BiPoly.rows: an f with no Y
    term is evaluated once, and a detector's g (a DetectorPoly) writes
    each row in closed form from its powers.  k_y is the degree of the
    last nonzero remainder K.ugcd returns for the two rows, which the
    monic gcd shares, so no gcd polynomial is built or made monic.
    """
    if f.field != g.field:
        raise InputError("mixed contexts")
    K = f.field
    du = f.deg_u
    lead = {j for (i, j) in f.terms if i == du}
    if du < 0 or lead != {0}:
        raise InputError("the X-leading coefficient of f must be a nonzero constant")
    gcd = K.ugcd
    k = {y: len(gcd(f_y.coeffs, g_y.coeffs)) - 1
         for y, f_y, g_y in zip(K.elements(), f.rows(), g.rows())}
    return GcdProfile(K, k, f.total_degree, g.total_degree)


class GcdBoundCheck(Record):
    __slots__ = ("y0", "k_y0", "lhs", "rhs")

    @property
    def ok(self):
        return self.lhs <= self.rhs

    @property
    def slack(self):
        return self.rhs - self.lhs

    def to_json(self):
        return {"y0": self.y0, "k_y0": self.k_y0, "lhs": self.lhs,
                "rhs": self.rhs, "slack": self.slack, "pass": self.ok}


def gcd_degree_bound(profile, y0):
    """Both sides of the degree inequality at the anchor row y0."""
    if type(y0) is not int or y0 not in profile.k:   # True and 1.0 hash as 1
        raise InputError(f"anchor {y0!r} is not a field element")
    return gcd_degree_bounds(profile, (y0,))[0]


def gcd_degree_bounds(profile, anchors):
    """gcd_degree_bound at each anchor row.  Every left side, the sum of
    max(0, k_y - k0) over all rows, comes from one pass down the
    histogram of the k values: going from one value k to the next lower
    k', each row above k' adds k - k'."""
    hist = Counter(profile.k.values())
    lhs, above, rows, prev = {}, 0, 0, 0
    for k in sorted(hist, reverse=True):
        above += rows * (prev - k)
        lhs[k] = above
        rows, prev = rows + hist[k], k
    out = []
    for y0 in anchors:
        k0 = profile.k[y0]
        out.append(GcdBoundCheck(y0, k0, lhs[k0], (profile.deg_f - k0) * (profile.deg_g - k0)))
    return out


class SlopeDetector(FrozenRecord):
    __slots__ = ("f",  # X^q - X
                 "g")  # vanishes at (x, d) exactly when the slope-d line of
                       # intercept x is typical, for every covered slope d


# The most work a detector may take, in the units of detector_work.  On the
# ladder of BENCH_13.json (build_slope_detector plus gcd_profile_slope, at
# reference speed) a unit costs 0.23-0.69 microseconds, so an admitted
# detector takes at most a few seconds: two points at q = 1021 pass, and
# two points at q = 4093 or anywhere near q = 2^15 do not.
DETECTOR_MAX_WORK = 1 << 23


def detector_work(K, support):
    """Estimated work of building a detector over `support` points of
    GF(q) and running its gcd profile: each of the q rows takes about q
    operations per support point for its closed form (DetectorPoly.rows
    reads g's stored normal form, dense input or not) and q more for the
    Euclid.  The term part bounds the walk of g's terms
    (DetectorPoly._coefficients), which deg g runs only when its top
    level cancels and g.terms runs to the end: each of the (p(p+1)/2)^e
    terms Lucas's theorem leaves is one sum over the stored forms, at
    most support + 1 of them."""
    q = K.q
    return support * (K.p * (K.p + 1) // 2) ** K.e + q * q * (support + 1)


def check_detector_budget(T):
    """Refuse a detector over DETECTOR_MAX_WORK before any of it is built."""
    work = detector_work(T.field, T.support_size)
    if work > DETECTOR_MAX_WORK:
        raise InputError(
            f"a gcd detector over {T.support_size} support points in {T.field!r} is "
            f"estimated at {work} operations, over the budget of {DETECTOR_MAX_WORK}")


def _check_detector_reports(T, reports, allow_vertical=False):
    check_detector_budget(T)
    if len(reports) > T.field.q:
        raise HypothesisRejected(f"at most q = {T.field.q} directions, got {len(reports)}")
    check_reports(T.field, reports)
    if not allow_vertical and any(slope_of(r.direction) is None for r in reports):
        raise HypothesisRejected(
            "slope directions only; re-coordinatize the vertical away")


def _multinomials(K):
    """(k, fits) for k = 0 .. q - 1, so that the level q - 1 - k runs from
    the top down: fits lists, i ascending, the (i, m) whose multinomial m =
    (q-1)! / (i! j! k!), j = q - 1 - k - i, is nonzero mod p.

    By Lucas's theorem m is the product over the base-p digits, and every
    digit of q - 1 is p - 1: m is nonzero exactly when the digits i_t, j_t
    and k_t add up to p - 1 with no carry, and then, as (p-1)! = -1, it is
    (-1)^e times the product of 1/(i_t! j_t! k_t!), an integer mod p and
    so the index of its element.  The fits are written digit by digit from
    the top, one level at a time: the walk holds O(q e) of them.
    """
    p, q = K.p, K.q
    inv_fact = [1] * p
    for d in range(1, p):
        inv_fact[d] = inv_fact[d - 1] * pow(d, p - 2, p) % p

    def levels(place, k, fits):
        # every k with the digits of k above place, ascending; fits covers
        # the digits of i above place
        if not place:
            yield k, fits
            return
        for kt in range(p):
            digit = [(a * place, inv_fact[a] * inv_fact[p - 1 - kt - a] * inv_fact[kt] % p)
                     for a in range(p - kt)]
            yield from levels(place // p, k + kt * place,
                              [(i + a, m * f % p) for i, m in fits for a, f in digit])

    return levels(q // p, 0, [(0, K.from_int((-1) ** K.e))])


class DetectorPoly(BiPoly):
    """A detector's g = const + sum of w (alpha X + beta Y + gamma)^(q-1),
    built from the constant and the list of (w, alpha, beta, gamma) powers.

    Nothing is expanded.  The powers are normalised once, when g is built,
    into _const and _forms: g = _const + the sum of w (a X + b Y + s)^(q-1)
    over the (w, s) of _forms[(a, b)], where (a, b) = (1, beta/alpha), or
    (0, 1) when alpha = 0, and s is gamma over the same lead: as
    lambda^(q-1) = 1, scaling a power's form changes nothing.  alpha =
    beta = 0 adds w to _const when gamma != 0, else nothing.  Every reader
    reads that one form: rows(), total_degree (in closed form, from the
    weight sums), and `terms`, which runs _coefficients to the end the
    first time it is read and keeps the map.  It equals, term for term,
    the BiPoly of the same polynomial.
    """

    __slots__ = ("_terms", "_const", "_forms")

    def __init__(self, field, const, powers):
        # the parts come from valid input: not re-checked
        self.field, self._terms = field, None
        mul, forms = field.umul, {}
        for w, alpha, beta, gamma in powers:
            lead = alpha or beta
            if lead:
                inv = field.uinv(lead)
                forms.setdefault((1, mul(beta, inv)) if alpha else (0, 1), []).append(
                    (w, mul(gamma, inv)))
            elif gamma:
                const = field.uadd(const, w)
        self._const, self._forms = const, forms

    def _coefficients(self):
        """((i, j), g's X^i Y^j coefficient) at each (k, i) of _multinomials,
        in its order: w (a X + b Y + s)^(q-1) adds m a^i b^j w s^k, so it is m
        times the sum over the forms of a^i b^j (the power sum of w s^k),
        0^0 = 1, plus const at k = q - 1, where m = 1."""
        K = self.field
        n = K.q - 1
        add, mul = K.uadd, K.umul
        const, forms = self._const, self._forms
        parts = [(K.upowsums([(1, a)], n), K.upowsums([(1, b)], n), K.upowsums(pairs, n))
                 for (a, b), pairs in forms.items()]
        for k, fits in _multinomials(K):
            for i, m in fits:
                j = n - k - i
                c = const if k == n else 0
                for A, B, S in parts:
                    c = add(c, mul(mul(A[i], B[j]), S[k]))
                yield (i, j), mul(m, c)

    @property
    def terms(self):
        if self._terms is None:
            self._terms = {ij: c for ij, c in self._coefficients() if c}
        return self._terms

    @property
    def total_degree(self):
        """The largest i + j of a nonzero term, -1 for g = 0.

        It is q - 1 unless every point (a : b) of PG(1, q) carries the same
        weight sum W_(a:b), the sum of the w of its form (0 where there is
        no such form).  The top level of g is the sum of W_(a:b) (a X +
        b Y)^(q-1), and as binom(q-1, j) = (-1)^j mod p its X^(q-1-j) Y^j
        coefficient is (-1)^j times the sum over r of W_(1:r) r^j, plus
        W_(0:1) at j = q - 1.  The rows j < q - 1 are q - 1 rows of the
        Vandermonde matrix of all q elements, of rank q - 1, whose rows
        each sum to 0: they all vanish exactly when every W_(1:r) is one
        value c.  Row q - 1 then reads (q - 1) c + W_(0:1) = W_(0:1) - c.
        When the top level cancels, deg g is the level of the first
        nonzero coefficient of _coefficients: O(q) per form, no term map.
        """
        K = self.field
        sums = {K.upowsums(pairs, 0)[0] for pairs in self._forms.values()}
        if len(self._forms) <= K.q:   # a point of PG(1, q) with no form
            sums.add(0)
        if len(sums) > 1:
            return K.q - 1
        return next((i + j for (i, j), c in self._coefficients() if c), -1)

    def rows(self):
        """Each row g(X, y) from the forms.  As binom(q-1, k) = (-1)^k
        mod p, (X - u)^(q-1) is the sum of u^k X^(q-1-k): a form (1, b)
        gives u = -(b y + s), which moves with y when b != 0 and is the
        fixed root -s when b = 0.  A form (0, 1) gives (y + s)^(q-1), the
        constant w on every row but y = -s, so one constant and one
        correction per power, both folded before the rows.  Per row that
        costs (distinct u) * q operations, in one power-sum kernel call:
        the q * q * support part of detector_work.
        """
        K = self.field
        n = K.q - 1
        add, mul, neg = K.uadd, K.umul, K.uneg
        const = self._const
        fixed, at_y, moving = {}, {}, []   # moving: (w, -b, -s), u = -b y - s
        for (a, b), pairs in self._forms.items():
            for w, s in pairs:
                t = neg(s)
                if not a:
                    const = add(const, w)
                    at_y[t] = add(at_y.get(t, 0), neg(w))
                elif b:
                    moving.append((w, neg(b), t))
                else:
                    fixed[t] = add(fixed.get(t, 0), w)
        for y in K.elements():
            weight = dict(fixed)
            for w, nb, t in moving:
                u = add(mul(nb, y), t)
                weight[u] = add(weight.get(u, 0), w)
            row = K.upowsums([(w, u) for u, w in weight.items()], n)[::-1]
            row[0] = add(row[0], add(const, at_y.get(y, 0)))
            yield UniPoly._trusted(K, row)


def _detector_g(K, T, reports, matrix):
    """g = -|T| + sum of m_d (1 - L_d^(q-1)) over the reports + sum of
    w L_v^(q-1) over the support points v with weight w = mult mod p != 0.

    Every power comes from one rule.  A point P, a covered direction d
    or a support point v = (a : b : 1), has the image (x : y : z) =
    matrix . P, and L_P = z X + x Y - y vanishes at (X, Y) exactly when
    the image lies on the line [Y : -1 : X], of slope Y and intercept X.
    As lambda^(q-1) = 1 for lambda != 0, every multiple of the image
    gives the same power, so no point is scaled to canonical form.  A
    report with m_d != 0 adds the constant m_d and the power
    -m_d L_d^(q-1): 1 - L_d^(q-1) is 1 where L_d vanishes, 0 elsewhere.
    """
    neg = K.uneg
    const, powers = neg(K.from_int(T.size)), []

    def power(w, P):
        x, y, z = _mat_vec(K, matrix, P)
        powers.append((w, z, x, neg(y)))

    for r in reports:
        m = K.from_int(r.m_d)
        if m:
            const = K.uadd(const, m)
            power(neg(m), r.direction.coords)
    for (a, b), mult in T.items():
        w = K.from_int(mult)
        if w:
            power(w, (a, b, 1))
    return DetectorPoly(K, const, powers)


_IDENTITY = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def build_slope_detector(T, reports):
    """The pair whose gcd profile counts renitent lines per slope.

    g(x, y) = m_y - |line of slope y, intercept x meets T| mod p holds
    at every covered slope y, so the common roots of f(X,y) = X^q - X
    and g(X,y) are the typical intercepts: k_y = q - lambda_y there.
    _detector_g with the identity writes (X + aY - b)^(q-1) for each
    point (a, b) of T, and a multiple of Y - s, a bump in Y, for the
    direction of slope s.
    """
    _check_detector_reports(T, reports)
    K = T.field
    f = BiPoly._trusted(K, {(K.q, 0): 1, (1, 0): K.uneg(1)})
    return SlopeDetector(f, _detector_g(K, T, reports, _IDENTITY))


class LowerBoundReport(Record):
    __slots__ = ("lam", "n_directions",
                 "count",      # renitent lines summed from the reports
                 "gcd_count",  # the same total re-derived from the gcd profile
                 "bound")      # lam * (n_directions + 1 - lam)

    @property
    def counts_agree(self):
        return self.count == self.gcd_count

    @property
    def ok(self):
        return self.counts_agree and self.count >= self.bound

    def to_json(self):
        return {"lambda": self.lam, "directions": self.n_directions,
                "count": self.count, "gcd_count": self.gcd_count,
                "bound": self.bound, "counts_agree": self.counts_agree,
                "pass": self.ok}


def renitent_lower_bound_check(T, reports):
    """At least lam(|E| + 1 - lam) renitent lines live on |E| uniform
    slope directions once one of them is sharp.  Counts both ways and
    requires agreement; a mismatch means the algebra and the geometry
    disagree, which is a bug, not a property of the input.  Building the
    detector first validates the reports."""
    det = build_slope_detector(T, reports)
    bounds = {r.bound for r in reports}
    if len(bounds) != 1:
        raise InputError(f"reports were classified at different bounds: {sorted(bounds)}")
    lam = bounds.pop()
    if not any(r.lambda_d == lam for r in reports):
        raise HypothesisRejected("the bound needs a direction with lambda_d = lam")
    count = sum(r.lambda_d for r in reports)
    profile = gcd_profile(det.f, det.g)
    q = T.field.q
    gcd_count = sum(q - profile.k[slope_of(r.direction)] for r in reports)
    bound = lam * (len(reports) + 1 - lam)
    return LowerBoundReport(lam, len(reports), count, gcd_count, bound)


class IndexReport(Record):
    __slots__ = ("point", "count",
                 "lines")  # the renitent lines through the point

    def to_json(self):
        return {"point": format_point(self.point), "index": self.count,
                "lines": [format_line(l) for l in self.lines]}


def index_of_point(reports, point):
    """How many renitent lines of the given reports pass through the
    point, by direct incidence.  An affine point meets at most one line
    per parallel class; a direction meets every renitent line of its
    own class and no others."""
    hits = tuple(entry.line
                 for r in reports for entry in r.renitent
                 if incident(point, entry.line))
    return IndexReport(point, len(hits), hits)


class DichotomyReport(Record):
    __slots__ = ("lam", "n_uniform", "n_lines",
                 "low",          # indices <= low are allowed
                 "high",         # indices >= high are allowed
                 "high_points",  # (point, index) for every point at or above high
                 "offenders")    # (point, index) strictly between, must be empty

    @property
    def ok(self):
        return not self.offenders

    def to_json(self):
        return {"lambda": self.lam, "uniform_directions": self.n_uniform,
                "renitent_lines": self.n_lines,
                "low": self.low, "high": self.high,
                "high_points": [{"point": format_point(P), "index": i}
                                for P, i in self.high_points],
                "offenders": [{"point": format_point(P), "index": i}
                              for P, i in self.offenders],
                "pass": self.ok}


def dichotomy_check(T, lam):
    """Every point of the plane meets at most lam renitent lines or at
    least |F| + 1 - lam of them, where F is the set of all uniform
    directions.  Needs |F| > lam^2 + lam; counts indices by parallel
    class in O(q) memory (see _split_indices) and reports any middle
    index, ordered nearest the middle first (there must be none)."""
    reports = uniform_directions(T, lam)
    if len(reports) <= lam * lam + lam:
        raise HypothesisRejected(
            f"need more than lam^2 + lam = {lam * lam + lam} uniform "
            f"directions, found {len(reports)}")
    low = lam
    high = len(reports) + 1 - lam
    high_points, offenders = _split_indices(T.field, reports, low, high)
    return DichotomyReport(lam, len(reports), sum(r.lambda_d for r in reports),
                           low, high, high_points, offenders)


def _split_indices(K, reports, low, high):
    """(high_points, offenders): the (point, index) pairs with index >= high,
    and those with low < index < high ordered nearest the middle first.

    Indices are counted by parallel class.  A direction lies on the
    lambda_d renitent lines of its own class and on no others.  The
    affine points are swept column by column, in one count list of
    length q: on the column x = x0 the slope-s line of intercept t meets
    y = s x0 + t, and a vertical renitent line x = x0 fills the column.
    That is O(q) memory and q (lines + q) operations.  Points come out
    in (x, y) order, then the slopes ascending, then the vertical
    direction.  Points on no renitent line (index 0 <= low) are in
    neither list.
    """
    add, mul = K.uadd, K.umul
    slopes, vertical, directions = [], set(), []
    for r in reports:
        s = slope_of(r.direction)
        intercepts = [entry.alpha for entry in r.renitent]
        if s is None:
            vertical.update(intercepts)
        elif intercepts:
            slopes.append((s, intercepts))
        directions.append((K.q if s is None else s, r.direction, r.lambda_d))
    high_points = []
    offenders = []

    def split(point, ind):
        if ind >= high:
            high_points.append((point, ind))
        elif ind > low:
            offenders.append((point, ind))

    for x in K.elements():
        column = [int(x in vertical)] * K.q
        for s, intercepts in slopes:
            sx = mul(s, x)
            for t in intercepts:
                column[add(sx, t)] += 1
        for y, ind in enumerate(column):
            if ind > low:
                split(ProjPoint.affine(K, x, y), ind)
    for _, direction, ind in sorted(directions, key=lambda d: d[0]):
        split(direction, ind)
    mid = (low + high) / 2
    offenders.sort(key=lambda pair: (abs(pair[1] - mid), pair[1]))
    return tuple(high_points), tuple(offenders)


class PointDetector(FrozenRecord):
    __slots__ = ("f",  # product of (X - c_k) over the moved directions
                 "g",  # vanishes at (c_k, y) exactly when the line from
                       # the moved direction c_k to (1:y:0) is typical
                 "collineation")


def build_point_detector(T, reports, R):
    """Detector in a frame where R sits at infinity as (1:y0:0).

    frame_collineation sends the line at infinity to the Y-axis, R to a
    point (1:y0:0), and each covered direction to an affine Y-axis
    point (0:c_k:1).  In that frame g is built so that for every y the
    common roots of f(X, y) and g(X, y) mark the typical lines from the
    moved directions through (1:y:0); hence

        k_y = |E| - (number of renitent lines through (1:y:0)),

    which feeds the degree inequality anchored at y0.  f is the product
    of X - c_k over the moved directions.  _detector_g with the frame's
    matrix writes a multiple of X - c_k, a bump in X, for each moved
    direction and a multiple of X + (x/z) Y - y/z for each point of T
    with image (x:y:z).  The multiset may cross the moved line at
    infinity: those members turn into (1:z_j:0) and contribute
    (Y - z_j)^(q-1) terms.
    """
    _check_detector_reports(T, reports, allow_vertical=True)
    K = T.field
    coll = frame_collineation(K, [r.direction for r in reports], R)
    # by frame_collineation's proof each direction lands on (0 : y : z) with
    # z != 0, and the matrix is invertible: the roots c_k = y/z are distinct
    f = [1]
    for r in reports:
        _, y, z = _mat_vec(K, coll.matrix, r.direction.coords)
        f = K.uconv(f, [K.uneg(K.udiv(y, z)), 1])
    f = BiPoly._trusted(K, {(i, 0): c for i, c in enumerate(f) if c})
    return PointDetector(f, _detector_g(K, T, reports, coll.matrix), coll)
