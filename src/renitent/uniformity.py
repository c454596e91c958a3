"""Point multisets in AG(2,q) and the uniformity classification.

parse_points reads ASCII text in one bulk pass: each line split once for
its shape, one int() over all tokens, min/max for the coordinate range
and the multiplicity floor, and one dict in file order that sums
repeated points.  Text that is not ASCII (a comment may hold any text),
and a file the bulk checks refuse, is read one line at a time, which
raises the first error with its line number; the tests hold the bulk
pass to that loop.  Either reader checks each point once and builds the
multiset through PointMultiset._trusted; the checked constructor serves
API callers.

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

The field's intercept kernel, the thin refusals and the set pre-test
belong to the loop behind uniform_directions and analyze, which prepares
the support's intercepts once per call; a multiset keeps nothing
prepared.  classify_direction, the per-class reference the tests hold
that loop to, counts its one class with the scalar kernels and reads it
with _report alone: a thin class has more than lam lines of nonzero
residue, so _report refuses it too.
"""

from collections import _count_elements
from itertools import chain, compress, repeat
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
    """Affine points with positive integer multiplicities, immutable once
    built; it holds the points alone, nothing prepared from them."""

    __slots__ = ("field", "_mults")

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

    @classmethod
    def _trusted(cls, field, mults):
        """The multiset of a {(a, b): m} dict whose points are already
        checked elements of field and whose m are positive ints: neither
        checked nor copied, so the caller hands the dict over."""
        self = cls.__new__(cls)
        self.field = field
        self._mults = mults
        return self

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


def parse_points(field, text):
    """Parse the "a b m" line format (m optional, '#' starts a comment).

    ASCII text is read in one bulk pass (_read_bulk); text that is not
    ASCII, and a file the bulk checks refuse, is read line by line
    (_read_lines), which raises the first error.  Either way each point
    is checked once, by the reader, and the multiset is built unchecked.
    """
    mults = _read_bulk(field.q, text) if text.isascii() else None
    if mults is None:
        mults = _read_lines(field, text)
    return PointMultiset._trusted(field, mults)


def _read_bulk(q, text):
    """{(a, b): m} of ASCII text in file order, repeated points summed, or
    None when some line is malformed: every line split once for its shape,
    one int() over all tokens, and min/max for the coordinate range and
    the multiplicity floor."""
    lines = text.splitlines()
    if "#" in text:
        lines = [line.partition("#")[0] for line in lines]
    if "_" in text and any("_" in line for line in lines):
        return None   # int() reads "0_3" as 3, which _read_lines refuses
    rows = [row for row in map(str.split, lines) if row]
    shapes = set(map(len, rows))
    if not shapes <= {2, 3}:
        return None
    if 2 in shapes:
        rows = [row if len(row) == 3 else [*row, "1"] for row in rows]
    try:
        nums = list(map(int, chain.from_iterable(rows)))
    except ValueError:
        return None
    xs, ys, ms = nums[0::3], nums[1::3], nums[2::3]
    coords = xs + ys
    if nums and not (0 <= min(coords) and max(coords) < q and min(ms) >= 1):
        return None
    points = list(zip(xs, ys))
    mults = dict(zip(points, ms))   # a repeated point keeps its first place
    if len(mults) < len(points):
        mults = dict.fromkeys(mults, 0)
        for pt, m in zip(points, ms):
            mults[pt] += m
    return mults


def _read_lines(field, text):
    """{(a, b): m} of the text, one line at a time, repeated points summed;
    raises InputError at the first bad line, checking its token count,
    its integers, its coordinate range and its multiplicity in that order.
    The reference the tests hold _read_bulk to."""
    mults = {}
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
        mults[(a, b)] = mults.get((a, b), 0) + m
    return mults


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


def intercept_profile(T, direction):
    """Nonzero line counts of a parallel class, keyed by intercept: b - a*s
    for slope s, the x-coordinate for the vertical class."""
    if direction.field != T.field:
        raise InputError("multiset and direction use different contexts")
    s = slope_of(direction)   # refuses a non-direction
    sub, mul = T.field.usub, T.field.umul
    profile = {}
    for (a, b), m in T._mults.items():
        key = a if s is None else sub(b, mul(a, s))
        profile[key] = profile.get(key, 0) + m
    return profile


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
    check_lam(T.field, lam)
    profile = intercept_profile(T, direction)   # refuses a non-direction
    return _report(T.field, direction, slope_of(direction), profile, lam)


def _classify_all(T, lam):
    """[(direction, report or None)] for all q + 1 directions, in
    direction-index order: classify_direction on each, with lam checked
    once, the support's intercepts prepared once by the field's kernel and
    the slopes walked as field elements beside all_directions (slopes
    0..q-1, then vertical).  A thin class is refused before _report, and
    after one the next class is first tested from its distinct intercepts
    and counted only if it survives."""
    K, mults, size = T.field, T._mults, T.size
    check_lam(K, lam)
    points, keys = K.uintercepts(mults)   # the kernel may regroup the points
    xs = [a for a, _ in points]
    weights = None if all(m == 1 for m in mults.values()) else [mults[pt] for pt in points]
    out, thin = [], False
    for d, s in zip(all_directions(K), (*K.elements(), None)):
        line_keys = xs if s is None else keys(s)
        if thin and _thin(K, len(set(line_keys)), size, lam):
            out.append((d, None))
            continue
        profile = {}   # nonzero line counts keyed by intercept
        if weights is None:
            _count_elements(profile, line_keys)
        else:
            for key, m in zip(line_keys, weights):
                profile[key] = profile.get(key, 0) + m
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
