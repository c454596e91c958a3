"""Point multisets in AG(2,q) and the uniformity classification.

A direction is (q-lam)-uniform when at least q-lam of the q lines of its
parallel class meet the multiset in the same number of points mod p;
that shared residue is the typical count m_d, and the exceptional lines
are the renitent lines of the direction.  For lam <= (q-1)/2 the typical
residue is unique (two residues on q-lam lines each would need more than
q lines), so the classification is well defined.

Each renitent line is recorded with its intercept alpha: for slope d the
line [d:-1:alpha] meets the Y-axis at (0:alpha:1); for the vertical
class alpha is the x-coordinate of [1:0:-alpha].

A uniform direction's DirectionReport holds the direction, the lam it
was classified at, m_d and the renitent lines with their counts t mod p,
read from the intercept profile; it keeps no count for the typical
lines, so classification costs O(support size) per direction.

A class with n nonempty lines is thin, and refused before its residues
are counted, when n < q - lam and p n - |T| > lam (p - 1): m_d != 0
would make the q - n empty lines renitent, and with m_d = 0 the lines of
count 1..p-1, at least (p n - |T|)/(p - 1) of them, are renitent.  Since
every multiplicity is at least 1, n is also the number of distinct
intercepts of the support points, so after a thin class the next one is
first refused from a set of its intercepts, about a third of the cost
of a count, and counted only if it survives; after a kept class the next
one is counted at once.  Sparse random sets refuse nearly every class
this way, and conics and planted sets none.

A class that survives with n < q - lam has more than lam empty lines,
each of residue 0, so only m_d = 0 can be typical: it is uniform exactly
when at most lam of its n residues are nonzero, and its renitent lines
are the nonempty lines of nonzero residue, read with one compress pass
and no residue histogram.  Only a class with n >= q - lam builds one.
On sparse sets all q + 1 directions take about half the time they took
with a count and a histogram per class (BENCH_33.json).
"""

from collections import _count_elements
from itertools import compress, repeat
from operator import mod

from .errors import InputError
from .plane import (
    _class_line,
    all_directions,
    format_line,
    format_point,
    incident,
    line_meet,
    slope_of,
)
from .records import FrozenRecord, Record


class PointMultiset:
    """Affine points with positive integer multiplicities.

    Immutable once built, so the form `intercept_profile` prepares from
    the support is kept in a private slot and reused for every direction.
    """

    __slots__ = ("field", "_mults", "_intercepts")

    def __init__(self, field, entries=()):
        mults = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for entry in items:
            try:
                (a, b), m = entry
            except (TypeError, ValueError):
                raise InputError(
                    f"a multiset entry must be ((a, b), multiplicity), got {entry!r}") from None
            field.check(a), field.check(b)
            if type(m) is not int or m < 1:   # refuses bool, which dump_points would write
                raise InputError(f"multiplicity of ({a},{b}) must be a positive integer")
            mults[(a, b)] = mults.get((a, b), 0) + m
        self.field = field
        self._mults = mults
        self._intercepts = None

    @property
    def size(self):
        return sum(self._mults.values())

    @property
    def support_size(self):
        return len(self._mults)

    def multiplicity(self, a, b):
        return self._mults.get((a, b), 0)

    def items(self):
        """(point, multiplicity) pairs sorted by coordinates."""
        return sorted(self._mults.items())

    def __eq__(self, other):
        return (isinstance(other, PointMultiset)
                and self.field == other.field and self._mults == other._mults)

    def __repr__(self):
        return f"PointMultiset({self.field!r}, size={self.size})"

    def __reduce__(self):
        # the prepared intercept form holds closures, which pickle cannot carry
        return PointMultiset, (self.field, self._mults)


def parse_points(field, text):
    """Parse the "a b m" line format (m optional, '#' starts a comment)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise InputError(f"line {lineno}: expected 'a b' or 'a b m', got {raw!r}")
        try:
            nums = [int(x) for x in parts]
        except ValueError:
            nums = None
        # int() also reads '1_0' and non-ASCII digits, which are refused too
        if nums is None or not line.isascii() or "_" in line:
            raise InputError(f"line {lineno}: non-integer field in {raw!r}")
        a, b = nums[0], nums[1]
        m = nums[2] if len(nums) == 3 else 1
        if not (0 <= a < field.q and 0 <= b < field.q):
            raise InputError(f"line {lineno}: coordinates out of range for {field!r}")
        if m < 1:
            raise InputError(f"line {lineno}: multiplicity must be positive")
        entries.append(((a, b), m))
    return PointMultiset(field, entries)


def dump_points(T):
    """Serialize a multiset to the 'a b m' format, sorted, byte-stable."""
    return "".join(f"{a} {b} {m}\n" for (a, b), m in T.items())


class RenitentLine(FrozenRecord):
    __slots__ = ("line",
                 "alpha",  # intercept: Y-axis intercept for slopes, x-coordinate for vertical
                 "t")      # line count mod p

    def to_json(self):
        return {"line": format_line(self.line), "alpha": self.alpha, "t": self.t}


class DirectionReport(Record):
    __slots__ = ("direction",
                 "bound",     # the lam used to classify
                 "m_d",       # typical count mod p
                 "renitent")  # RenitentLine entries, ascending intercept

    @property
    def lambda_d(self):
        return len(self.renitent)

    @property
    def sharp(self):
        return self.lambda_d == self.bound

    def to_json(self):
        return {
            "direction": format_point(self.direction),
            "uniform": True,
            "m_d": self.m_d,
            "lambda_d": self.lambda_d,
            "sharp": self.sharp,
            "renitent": [r.to_json() for r in self.renitent],
        }


def check_lam(K, lam):
    """Refuse a lam outside 0 < lam <= (q-1)/2, the range of the
    uniformity bound (a uniform direction has one typical residue)."""
    if type(lam) is not int or not 0 < lam <= (K.q - 1) // 2:   # refuses bool, as check does
        raise InputError(f"need 0 < lam <= (q-1)/2 = {(K.q - 1) // 2}, got {lam!r}")


def check_reports(field, reports):
    """The checks every construction runs on its reports: there is at
    least one, each is over `field`, and no direction comes twice."""
    if not reports:
        raise InputError("need at least one direction report")
    seen = set()
    for r in reports:
        if r.direction.field != field:
            raise InputError("report uses a different context")
        if r.direction in seen:
            raise InputError(f"duplicate direction {format_point(r.direction)}")
        seen.add(r.direction)


def line_count(T, line):
    """Number of multiset points on an affine line, with multiplicity."""
    if T.field != line.field:
        raise InputError("multiset and line use different contexts")
    if line.is_line_at_infinity():
        raise InputError("the multiset is affine; [0:0:1] carries no points")
    K = T.field
    add, mul = K.uadd, K.umul
    a, b, c = line.coords
    total = 0
    for (x, y), m in T._mults.items():
        if add(add(mul(a, x), mul(b, y)), c) == 0:
            total += m
    return total


def _intercept_form(T):
    """(x-coordinates, slope -> intercepts, weights) of T's support, in the
    order the field's intercept kernel lists the points; weights is None
    when every multiplicity is 1."""
    if T._intercepts is None:
        points, keys = T.field.uintercepts(T._mults)
        mults = T._mults
        weights = (None if all(m == 1 for m in mults.values())
                   else [mults[pt] for pt in points])
        T._intercepts = ([a for a, _ in points], keys, weights)
    return T._intercepts


def _tally(line_keys, weights):
    """Nonzero line counts keyed by intercept, from the intercepts of the
    support points and their weights (None when every weight is 1)."""
    profile = {}
    if weights is None:
        _count_elements(profile, line_keys)
    else:
        for key, m in zip(line_keys, weights):
            profile[key] = profile.get(key, 0) + m
    return profile


def intercept_profile(T, direction):
    """Nonzero line counts of a parallel class, keyed by intercept."""
    if direction.field != T.field:
        raise InputError("multiset and direction use different contexts")
    s = slope_of(direction)   # refuses a non-direction
    xs, keys, weights = _intercept_form(T)
    return _tally(xs if s is None else keys(s), weights)


def _thin(K, n, size, lam):
    """True when a class with n nonempty lines cannot be (q-lam)-uniform
    by the nonempty-line count alone; size is |T|.

    If m_d != 0 the q - n empty lines are all renitent, so n >= q - lam.
    If m_d = 0 the a lines with count 1..p-1 are renitent and the other
    n - a nonempty lines carry p or more each: a + p(n - a) <= |T|, so
    a >= (p n - |T|)/(p - 1), and uniformity needs a <= lam.
    """
    p = K.p
    return n < K.q - lam and p * n - size > lam * (p - 1)


def _report(K, direction, s, profile, lam):
    """DirectionReport of the direction of slope s from its profile, or None
    when it is not (q-lam)-uniform."""
    p, q, n = K.p, K.q, len(profile)
    res = map(mod, profile.values(), repeat(p))
    if n < q - lam:
        # More than lam lines are empty, and each has residue 0, so only
        # m_d = 0 can be typical: uniform when at most lam of the nonempty
        # lines have a nonzero residue.
        res = list(res)
        if n - res.count(0) > lam:
            return None
        m_d = 0
    else:
        # Residue frequencies over all q lines: the q - n lines the profile
        # leaves out are empty, so they add to residue 0.
        freq = {}
        _count_elements(freq, res)
        freq[0] = freq.get(0, 0) + q - n
        typical = [r for r, lines in freq.items() if lines >= q - lam]
        if not typical:
            return None
        m_d = typical[0]  # unique: two residues on q-lam lines each would exceed q
        res = map(mod, profile.values(), repeat(p))   # the histogram used up the first pass
    if m_d == 0:
        # every renitent line is in the profile (an empty line has residue 0)
        renitent = [RenitentLine(_class_line(K, s, t), t, profile[t] % p)
                    for t in sorted(compress(profile, res))]
    else:
        # every empty line is renitent, so the profile holds all q - lam or
        # more typical lines, and a scan of all q intercepts is at most lam
        # steps longer than the profile
        count = profile.get
        renitent = [RenitentLine(_class_line(K, s, t), t, r)
                    for t in K.elements() if (r := count(t, 0) % p) != m_d]
    return DirectionReport(direction, lam, m_d, tuple(renitent))


def classify_direction(T, direction, lam):
    """DirectionReport when the direction is (q-lam)-uniform, else None."""
    K = T.field
    check_lam(K, lam)
    profile = intercept_profile(T, direction)   # refuses a non-direction
    if _thin(K, len(profile), T.size, lam):
        return None
    return _report(K, direction, slope_of(direction), profile, lam)


def _classify_all(T, lam):
    """[(direction, report or None)] for all q + 1 directions, in
    direction-index order: classify_direction on each, with lam checked
    once, the intercept form read once and the slopes walked as field
    elements beside all_directions (slopes 0..q-1, then vertical).  After
    a thin class the next one is first tested from its distinct intercepts
    and counted only if it survives."""
    K, size = T.field, T.size
    check_lam(K, lam)
    xs, keys, weights = _intercept_form(T)
    out, thin = [], False
    for d, s in zip(all_directions(K), (*K.elements(), None)):
        line_keys = xs if s is None else keys(s)
        if thin and _thin(K, len(set(line_keys)), size, lam):
            out.append((d, None))
            continue
        profile = _tally(line_keys, weights)
        thin = _thin(K, len(profile), size, lam)
        out.append((d, None if thin else _report(K, d, s, profile, lam)))
    return out


def uniform_directions(T, lam):
    """Reports for every uniform direction, in direction-index order."""
    return [r for _, r in _classify_all(T, lam) if r is not None]


def concurrency_point(lines):
    """The common point of the given lines, or None."""
    distinct = []
    for line in lines:
        if line not in distinct:
            distinct.append(line)
    if len(distinct) < 2:
        raise InputError("need at least two distinct lines")
    candidate = line_meet(distinct[0], distinct[1])
    for line in distinct[2:]:
        if not incident(candidate, line):
            return None
    return candidate
