"""Deterministic factories for instances with known ground truth.

The planted factory places a few multiplicity-weighted points and hands
back the exact envelope their dual lines must form, so the curve
constructions can be tested against a closed-form oracle.  The conic
factory builds the even-characteristic unit-norm arc whose tangents
concur at a nucleus.  The random factory flips one coin per affine
point with a fixed, documented generator so instances are bit-stable
across runs and platforms.
"""

from functools import cache
from itertools import combinations, compress, product, repeat

from .errors import InputError
from .plane import (ProjPoint, all_directions, format_point, line_at_infinity, line_meet,
                    line_through)
from .poly import TriHomPoly
from .records import Record
from .uniformity import PointMultiset

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 1024  # draws per block; its constants live as long as the process

# gen_random draws one coin per affine point, _LANES at a time, about
# 0.1 us each, and each kept point costs about 1 us more (its check and
# its dict entry): 2^20 points (q <= 1024) take about 0.1 s at low
# density and 1.3 s at density 1, while q = 2^15 would take 2 to 20
# minutes and keep up to 2^30 points.
RANDOM_MAX_POINTS = 1 << 20


class SplitMix64:
    """splitmix64, bit-exact.

    state += 0x9E3779B97F4A7C15 (mod 2^64); then the output mix
    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31.
    """

    def __init__(self, seed):
        if type(seed) is not int or seed < 0:
            raise InputError(f"seed must be a non-negative integer, got {seed!r}")
        self.state = seed & _MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)


@cache
def _lane_constants():
    """(ones, steps, mask) over _LANES 128-bit slots, built on first use.

    Slot i of ones holds 1, of steps (i + 1) * gamma mod 2^64, and of mask
    2^64 - 1.
    """
    ones = int.from_bytes((b"\x01" + bytes(15)) * _LANES, "little")
    steps = int.from_bytes(b"".join((((i + 1) * _GAMMA) & _MASK).to_bytes(16, "little")
                                    for i in range(_LANES)), "little")
    return ones, steps, ones * _MASK


def _keep_flags(state, threshold, count):
    """Byte i is 1 when the i-th splitmix64 draw after state is below threshold, else 0.

    The draws of one block sit in the 128-bit slots of one int, draw i
    at state + (i + 1) * gamma, so the whole-int shifts, multiplies by a
    64-bit constant and masks run the output mix on every slot at once:
    a slot of 64 bits times a 64-bit constant stays inside its 128, and
    the mask clears what a shift brings down from the next slot.  A slot
    of 2^64 - 1 + threshold less the draw is at least 2^64, bit 64 set,
    exactly when the draw is below threshold (threshold <= 2^64), and
    bit 64 of slot i is the low bit of byte 16 i + 8.
    """
    ones, steps, mask = _lane_constants()
    below = (threshold + _MASK) * ones
    flags = []
    for start in range(0, count, _LANES):
        n = min(_LANES, count - start)
        if n < _LANES:  # the last block: drop the slots it does not draw
            low = (1 << 128 * n) - 1
            ones, steps, mask, below = ones & low, steps & low, mask & low, below & low
        z = (state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z = below - ((z ^ (z >> 31)) & mask)
        flags.append(z.to_bytes(16 * n, "little")[8::16])
        state = (state + n * _GAMMA) & _MASK
    return b"".join(flags)


class PlantedInstance(Record):
    __slots__ = ("multiset",
                 "oracle",  # product of dual lines, weight as exponent
                 # the directions that see all planted points on separate lines
                 "generic_directions",
                 "expected_class",  # sum of the weights
                 "points", "weights", "c")

    def to_json(self):
        return {
            "kind": "planted",
            "points": [list(pt) for pt in self.points],
            "weights": list(self.weights),
            "c": self.c,
            "expected_class": self.expected_class,
            "generic_directions": [format_point(d) for d in self.generic_directions],
            "oracle": [{"i": i, "j": j, "k": k, "coeff": co}
                       for i, j, k, co in self.oracle.monomials()],
        }


def gen_planted(field, points, weights, c=1):
    """Multiset with the i-th point carrying multiplicity c * w_i.

    At a generic direction (one seeing the planted points on separate
    lines) each planted point contributes one renitent line with count
    c * w_i mod p while the remaining lines stay empty, so m_d = 0 and
    the weights recovered at offset c are exactly the w_i.  The oracle
    curve is the product of the points' dual lines (U + aV - bW) raised
    to their weights; its class is the weight sum.
    """
    K = field
    lam = len(points)
    if lam == 0:
        raise InputError("need at least one point")
    if lam >= K.p:
        raise InputError(f"need fewer points than p = {K.p}, got {lam}")
    try:
        pts = [(a, b) for a, b in points]
    except (TypeError, ValueError):
        raise InputError(f"points must be pairs (a, b), got {points!r}") from None
    pts = [(K.check(a), K.check(b)) for a, b in pts]
    if len(set(pts)) != lam:
        raise InputError("planted points must be distinct")
    if len(weights) != lam:
        raise InputError(f"need one weight per point, got {len(weights)}")
    for w in weights:
        if type(w) is not int or w < 1:   # refuses bool, which to_json would write
            raise InputError(f"weights must be positive integers, got {w!r}")
        if w % K.p == 0:
            raise InputError(
                f"weight {w} vanishes mod p = {K.p}; its lines would be typical")
        if w >= K.p:
            raise InputError(f"weights must lie in 1..p-1 = {K.p - 1}, got {w}")
    if type(c) is not int or not 0 < c < K.p:
        raise InputError(f"multiplier must lie in 1..p-1, got {c!r}")
    T = PointMultiset(K, [((a, b), c * w) for (a, b), w in zip(pts, weights)])
    oracle = None
    for (a, b), w in zip(pts, weights):
        factor = TriHomPoly.linear(K, 1, a, K.uneg(b)) ** w
        oracle = factor if oracle is None else oracle * factor
    at_infinity = line_at_infinity(K)
    spanned = {line_meet(line_through(P, Q), at_infinity)
               for P, Q in combinations([ProjPoint.affine(K, a, b) for a, b in pts], 2)}
    generic = tuple(d for d in all_directions(K) if d not in spanned)
    return PlantedInstance(T, oracle, generic, sum(weights),
                           tuple(pts), tuple(weights), c)


class ConicInstance(Record):
    __slots__ = ("multiset", "nucleus",
                 "delta")  # the trace-one element defining the norm form

    def to_json(self):
        return {"kind": "norm_conic",
                "delta": self.delta,
                "nucleus": format_point(self.nucleus),
                "size": self.multiset.size}


def gen_norm_conic(field):
    """The q+1 affine points of x^2 + xy + delta y^2 = 1, q even, in
    (x, y) order, found with O(q) field operations.

    delta is the smallest-index element of absolute trace 1, which
    makes the form irreducible: no points at infinity, so the curve is
    an arc of q+1 affine points whose q+1 tangents all pass through the
    nucleus (0, 0).
    """
    K = field
    if K.p != 2 or K.e < 2:
        raise InputError("needs q = 2^e with e >= 2")
    delta = next(g for g in K.elements() if K.trace(g) == 1)
    add, mul = K.uadd, K.umul
    # y = 0 gives x^2 = 1.  Otherwise x = y z turns the form into
    # z^2 + z = delta + 1/y^2, whose roots z and z + 1 (or none) are read
    # from one table of z^2 + z.
    roots = {add(mul(z, z), z): z for z in K.elements()}
    pts = [(1, 0)]
    for y in range(1, K.q):
        z = roots.get(add(delta, K.uinv(mul(y, y))))
        if z is not None:
            pts += [(mul(y, z), y), (mul(y, add(z, 1)), y)]
    pts.sort()
    assert len(pts) == K.q + 1, "the unit-norm set must be an oval"
    T = PointMultiset(K, [((a, b), 1) for a, b in pts])
    return ConicInstance(T, ProjPoint.affine(K, 0, 0), delta)


def gen_random(field, seed, density):
    """One independent coin per affine point, multiplicity 1.

    Points are visited in (a, b) index order, a outermost; the point is
    kept when the next 64-bit SplitMix64 draw falls below density * 2^64.
    Equal seeds give equal multisets, bit for bit.  Fields with more than
    RANDOM_MAX_POINTS affine points are refused before any draw.  The
    draws are made _LANES at a time (_keep_flags).
    """
    K = field
    if type(density) not in (int, float) or not 0 < density <= 1:
        raise InputError(f"density must lie in (0, 1], got {density!r}")
    if K.q * K.q > RANDOM_MAX_POINTS:
        raise InputError(
            f"a random instance draws one coin per point: q^2 = {K.q * K.q} is "
            f"over the budget of {RANDOM_MAX_POINTS} points")
    state = SplitMix64(seed).state
    flags = _keep_flags(state, int(density * (1 << 64)), K.q * K.q)
    els = K.elements()
    return PointMultiset(K, zip(compress(product(els, els), flags), repeat(1)))
