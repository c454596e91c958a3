"""Exact arithmetic in GF(p^e).

Elements are canonical integer indices 0..q-1.  The index encodes the
residue polynomial's coefficient vector constant-first in base p:
index = sum(coeffs[i] * p**i), so 0 and 1 are the field's zero and one
for every p, e.  A `GF` context carries the modulus and all operations;
structured types built on top (polynomials, plane objects) enforce that
their operands share one context.

The modulus is a monic irreducible polynomial of degree e over GF(p),
stored constant-first.  When none is given, the default is the first
irreducible monic polynomial of degree e in ascending index order
(same base-p encoding as elements), e.g. x^3 + x + 1 for GF(8).  One
enumerator, _monic, lists the monic polynomials of a degree in that
order, for this search and for the trial divisors of the irreducibility
test; one trial division, _prime_factors, tests p for primality and
factors q - 1 for the primitive element below.

Prime fields (e = 1) compute on the indices with native integer
arithmetic.  Extension fields compute through a primitive element g:
the smallest index whose powers run through all q - 1 nonzero elements
(the root of the modulus need not be one; under the default t^2 + 1 of
GF(9), t has order 4).  One padded table set is built once, from the
powers of g walked as packed coefficient vectors (see
_build_log_tables), and every kernel reads it, so no operation tests
for a zero.  With LZ = 4(q - 1), past every nonzero logarithm:

* lg[a] is the logarithm of a != 0, and lg[0] = LZ;
* ex[i] = g^i (stored twice over), then zeros, so ex[lg[a] + lg[b]] is
  a*b for every a and b, and a quotient or a negative lands on a zero
  of ex when its operand is zero;
* zz is Zech's logarithm zech[d] = log(1 + g^d), so that g^i + g^j =
  g^(i + zech[j - i]) (K. Huber, IEEE Trans. Inf. Theory 36, 1990),
  stored twice over and extended over the zero cases:
  ex[lg[x] + zz[lt - lg[x]]] is x + t for every element x and every
  exponent lt of a term t (lg[t], or lg[b] + half for t = -b), so add,
  sub and the list kernels' sums are one lookup each.

zech reads LZ at half, the logarithm of -1: (q - 1)/2 for odd p, and 0
in characteristic 2, where every element is its own negative.  The
tables take O(q) memory; element indices stay the base-p encoding.

Each operation is bound once, when the field is built, to one of two
kernel sets: prime field or extension field (Zech addition).  In
characteristic 2 add and sub are XOR, and the remainder step of ugcd
and (above q = 256) the intercept kernel are XOR kernels of their own,
each measured faster than its Zech form.
The kernels are the attributes uadd, usub, uneg, umul, uinv, udiv and
upow.  They do not check their operands: an out-of-range index gives a
wrong answer or an IndexError, and uinv/udiv need a nonzero divisor.
The methods add, sub, neg, mul, inv, div and pow are the checked entry
points: each runs `check` on every operand (and refuses a zero divisor
or a bad exponent), then calls its kernel.

One bulk kernel is bound per field too: uintercepts(points) takes
affine points (a, b) once and returns (order, keys), where keys(s) is
the sequence of intercepts b - a*s of all the points, in the order of
the list `order` (the same points, possibly regrouped).  It is what
classifying a point set needs for every slope of a parallel class.
Every field with q <= ROW_MAX_ORDER = 256 binds the row kernel, built
from umul and usub alone, so it is the same for every family: the
field keeps mulrow[a] = bytes(a*s for s = 0..q-1) and subtab[b] =
bytes(b - x for x = 0..q-1), padded to 256 bytes, each built the first
time a point needs it.  Point (a, b)'s intercepts at all q slopes are
mulrow[a].translate(subtab[b]), one C pass; the rows of the points are
joined into one bytes of n*q bytes, and keys(s) is its slice of stride
q from s, a bytes.  The bound is that of bytes.translate's one-byte
table.  Above it the kernel is the family's own, and keys(s) a list:
the prime kernel is one (b - a*s) % p comprehension, and the log
kernels take each point's logarithms once and split off the points with
a zero coordinate, so that the loop run for each slope has no branch
and no call: b ^ g^(log a + log s) for p = 2, and one Zech lookup per
point for odd p (points with b = 0 give -a*s directly, and those with
a = 0 give b at every slope).  Slope 0 takes the same loop: its
logarithm is LZ, where ex and zz are zero for q - 1 entries, so its
window of either table reads b, and 0 on the b = 0 points.  Like the
scalar kernels it does not check its operands.

Four list kernels, bound the same way, run the coefficient loops of the
polynomial layer on lists of elements (constant term first):

* ugcd(a, b): the last nonzero remainder of the Euclid on a and b,
  trimmed and not made monic (a gcd up to a unit; empty when both are
  zero);
* uconv(a, b): the product of a and b (untrimmed, length
  len(a) + len(b) - 1, or empty);
* uhorner(a, x): the running values of Horner's rule at x, highest
  first: the last is a(x), the others the quotient of a by X - x;
* upowsums(pairs, k): [sum of w u^j over the (w, u) pairs, j = 0..k]
  (0^0 is 1).

The prime kernels add plain integers and reduce each output entry mod p
once.  The prime ugcd runs the whole remainder sequence on one pair of
integers of 64-bit slots, one coefficient a slot, so a quotient term is
one integer multiply-add.  The slots stay unreduced from step to step:
each operand carries a bound on its slots, and is reduced (unpacked,
taken mod p and packed again) only before a step that could take that
bound to 2^63, or when its leading slot reads 0 mod p, where the degree
fell by more than one or the remainder is zero.  The extension fields'
ugcd runs their remainder step in a loop: at p = 2 it packs one
coefficient a slot too, where a sum is one XOR and c times the divisor
is the XOR of the divisor's packed multiples by t^i over the bits i of
c.  The other log kernels are comprehensions over lg, ex and zz with no
branch per entry.  They return new lists and leave their operands as
they were.

Validation therefore happens where elements enter: these checked methods,
the constructors of the polynomial, plane and multiset types, the parsers
and the generators, and a `check` on each raw scalar a public function
takes.  Every integer read from text goes through one reader, _decimal,
which refuses what int() would also read ('1_0', '３') or raise on ('',
4,301 digits).  Inner loops run on operands that one of those already
validated, so they call the kernels.  Only this module reads the tables;
everything else goes through the kernels.  Orders above MAX_ORDER are
refused before the modulus search or any table build, so an oversized
field fails at once instead of building tables of that size.
"""

import functools
import re
import struct
from itertools import product, repeat
from operator import add as _add, mod as _mod, mul as _mul, xor as _xor

from .errors import DivisionByZero, InputError

MAX_ORDER = 2 ** 15  # largest field order q accepted; its table build takes under a second


def _prime_factors(n):
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# -- digit-vector helpers over GF(p), constant-first, trailing zeros trimmed


def _trim(v):
    while v and v[-1] == 0:
        v.pop()
    return v


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a, b, p):
    """a mod b in GF(p)[x], for a monic b."""
    a, db = list(a), len(b) - 1
    while len(a) > db:
        c = a.pop()   # the leading term cancels exactly
        if c:
            s = len(a) - db
            for j in range(db):
                a[s + j] = (a[s + j] - c * b[j]) % p
    return _trim(a)


def _monic(p, d):
    """The monic polynomials of degree d over GF(p), constant-first, in
    ascending index order (the constant term varies fastest)."""
    return ([*reversed(low), 1] for low in product(range(p), repeat=d))


def _irreducible(mod, p):
    """Trial division by every monic polynomial of degree 1..e//2."""
    e = len(mod) - 1
    return mod[-1] == 1 and all(
        _pmod(mod, div, p) for d in range(1, e // 2 + 1) for div in _monic(p, d))


# -- the kernels: one function per operation, no operand checks


def _packer(code):
    """(bits, pack, unpack): lists of small integers to and from one integer
    that holds them in slots of bits bits (those of the struct format
    code), the first in the lowest bits."""
    size = struct.calcsize("<" + code)

    def pack(v):
        return int.from_bytes(struct.pack(f"<{len(v)}{code}", *v), "little")

    def unpack(x, n):
        return list(struct.unpack(f"<{n}{code}", x.to_bytes(n * size, "little")))

    return 8 * size, pack, unpack


def _euclid(rem):
    """The gcd kernel of a remainder step rem(a, b) (a mod b, trimmed, for
    b with a nonzero last entry): the Euclid's last nonzero remainder."""

    def gcd(a, b):
        a, b = _trim(list(a)), _trim(list(b))
        while b:
            a, b = b, rem(a, b)
        return a

    return gcd


def _by_zero_coordinate(points):
    """(runs, order, still) of the points (a, b): the runs a, b != 0, b = 0
    and a = 0; order, the three runs in a row; and still, the b of the a = 0
    run (its intercept at every slope).  Slope 0 needs no case: its log LZ
    starts the zero stretch of ex and zz, so its window reads b, or 0."""
    runs = ([], [], [])
    for a, b in points:
        runs[2 if not a else 0 if b else 1].append((a, b))
    return runs, [pt for run in runs for pt in run], [b for _, b in runs[2]]


def _prime_kernels(p):
    """add, sub, neg, mul, inv, div, pow, intercepts and the list kernels
    gcd, conv, horner and powsums of GF(p), on the integers mod p."""

    def add(a, b):
        return (a + b) % p

    def sub(a, b):
        return (a - b) % p

    def neg(a):
        return -a % p

    def mul(a, b):
        return a * b % p

    def inv(a):
        return pow(a, p - 2, p)

    def div(a, b):
        return a * pow(b, p - 2, p) % p

    def power(a, k):
        return pow(a, k, p)

    def intercepts(points):
        points = list(points)

        def keys(s):
            return [(b - a * s) % p for a, b in points]

        return points, keys

    # The list kernels add plain integers and reduce each output entry mod
    # p once (horner's running value is an output entry at every step).
    # gcd runs the whole Euclid on two integers of 64-bit slots, x the
    # dividend and y the divisor, which hold their coefficients unreduced:
    # every slot of x is at most bx and every slot of y at most by, and the
    # top slot of each is nonzero mod p.  A quotient term c t^j takes
    # c t^j y off x by adding (-c mod p) t^j y, so no slot borrows and
    # each slot grows by at most (p - 1) by.  A step whose bound would
    # reach 2^63 first reduces both operands; from there its len(x) terms
    # add less than len(x) p^2, so no slot carries.  The slots the step
    # cleared are masked off, and a remainder whose top slot reads 0 mod p
    # (its degree fell by more than one, or it is zero) is reduced and
    # trimmed.  Apart from the leading ones, no slot is read mod p before
    # the last remainder is unpacked.
    bits, pack, unpack = _packer("Q")
    slot = (1 << bits) - 1
    ceiling = 1 << (bits - 1)

    def reduced(x, n):
        """The packed x of n slots with every slot mod p, and its length
        once trimmed: a reduced slot is zero only when it reads zero."""
        x = pack([r % p for r in unpack(x, n)])
        return x, -(-x.bit_length() // bits)

    def gcd(a, b):
        a, b = _trim(list(a)), _trim(list(b))
        if len(a) < len(b):
            a, b = b, a
        x, y, la, lb = pack(a), pack(b), len(a), len(b)
        bx = by = p - 1
        while lb:
            db = lb - 1
            grow = (la - db) * (p - 1)   # la - db quotient terms, (p - 1) y each
            if bx + grow * by >= ceiling:
                (x, la), (y, lb) = reduced(x, la), reduced(y, lb)
                bx = by = p - 1
            inv = pow((y >> bits * db) % p, p - 2, p)
            for k in range(la - 1, db - 1, -1):
                c = ((x >> bits * k) & slot) % p   # slot k: the leading term
                if c:
                    x += -c * inv % p * y << bits * (k - db)
            x, y, la, lb = y, x & ((1 << bits * db) - 1), lb, db
            bx, by = by, bx + grow * by
            if lb and not (y >> bits * (lb - 1)) % p:
                (y, lb), by = reduced(y, lb), p - 1
        v = unpack(x, la)
        return v if bx < p else [r % p for r in v]

    def conv(a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return []
        la = len(a)
        out = [0] * (la + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                out[i:i + la] = map(_add, out[i:i + la], map(_mul, repeat(y), a))
        return [x % p for x in out]

    def horner(a, x):
        acc, out = 0, []
        for c in reversed(a):
            acc = (acc * x + c) % p
            out.append(acc)
        return out

    def powsums(pairs, k):
        sums, terms = [0] * (k + 1), 0
        for w, u in pairs:
            if w:
                col = [w]
                for _ in range(k):
                    w = w * u % p
                    col.append(w)
                sums = list(map(_add, sums, col)) if terms else col
                terms += 1
        return [s % p for s in sums] if terms > 1 else sums

    return (add, sub, neg, mul, inv, div, power, intercepts,
            gcd, conv, horner, powsums)


def _log_kernels(modulus, lg, ex, zz):
    """The same twelve for an extension field, on its padded tables lg, ex
    and zz as _build_log_tables writes them.

    half, the logarithm of -1, is the first d where zz reads LZ: 0 in
    characteristic 2, where add and sub are XOR and the intercept and
    remainder kernels are XOR kernels of their own.  The gcd kernel of
    either family runs its remainder step in _euclid's loop.
    """
    n = len(lg) - 1   # q - 1
    zero = 4 * n   # LZ
    half = zz.index(zero)   # g^half = -1

    # x + t = ex[lg[x] + zz[d]], d = lt - lg[x], for an element x and a
    # term t of exponent lt: lt < 2n for t != 0, in [LZ, LZ + n) for a
    # zero product, and 2 LZ for 0 * 0.  add, sub, conv, rem, powsums and
    # horner read d in (-n, 2n) for x, t != 0 (zech; a negative d wraps
    # onto the last n entries), (3n, 5n) for t = 0 (zz is 0: x stays),
    # [-LZ, -2n) for x = 0 (zz[d] = d: the sum is t), and [0, n) or LZ
    # for x = t = 0 (ex is 0 from LZ on); horner at x = 0 also reads
    # (7n, 8n], where zz is 0.  The intercept kernel reads zz[ls:ls + n].

    def add(a, b):
        # g^i + g^j = g^i (1 + g^(j - i)); zz reads j - i without a
        # reduction mod q - 1, and its zero cases give a or b
        la = lg[a]
        return ex[la + zz[lg[b] - la]]

    def sub(a, b):
        la = lg[a]
        return ex[la + zz[lg[b] + half - la]]   # -g^j = g^(j + half)

    def neg(a):
        return ex[lg[a] + half]

    def mul(a, b):
        return ex[lg[a] + lg[b]]

    def inv(a):
        return ex[n - lg[a]]

    def div(a, b):
        return ex[lg[a] - lg[b] + n]

    def power(a, k):
        if not a:
            return 0 if k else 1
        return ex[lg[a] * k % n]

    def conv(a, b):
        if len(a) < len(b):
            a, b = b, a
        if not b:
            return []
        la = len(a)
        logs = [lg[x] for x in a]
        out = [0] * (la + len(b) - 1)
        for i, y in enumerate(b):
            if y:
                ly = lg[y]
                out[i:i + la] = [ex[(lo := lg[o]) + zz[ly + lx - lo]]
                                 for o, lx in zip(out[i:i + la], logs)]
        return out

    def horner(a, x):
        lx, acc, out = lg[x], 0, []
        for c in reversed(a):
            lc = lg[c]
            acc = ex[lc + zz[lg[acc] + lx - lc]]
            out.append(acc)
        return out

    def powsums(pairs, k):
        sums, fresh = [0] * (k + 1), True
        for w, u in pairs:
            if w and u:
                lw, lu = lg[w], lg[u]   # the exponents of w u^0, ..., w u^k
                exps = (repeat(lw, k + 1) if not lu
                        else map(_mod, range(lw, lw + lu * k + 1, lu), repeat(n)))
                if fresh:
                    sums = list(map(ex.__getitem__, exps))
                else:
                    sums = [ex[(ls := lg[s]) + zz[lt - ls]] for s, lt in zip(sums, exps)]
                fresh = False
            elif w:   # w u^0 = w, and 0^j = 0 for j > 0
                sums[0] = add(sums[0], w)
                fresh = False
        return sums

    if not half:   # characteristic 2
        def intercepts(points):
            # b - a*s = b ^ g^(log a + log s); a = 0 gives b at every slope
            (both, b_zero, _), order, still = _by_zero_coordinate(points)
            moving = [(lg[a], b) for a, b in both + b_zero]

            def keys(s):
                exp_s = ex[lg[s]:lg[s] + n]   # exp_s[i] = g^(i + log s)
                return [b ^ exp_s[la] for la, b in moving] + still

            return order, keys

        # rem packs its lists into one integer of slots wider than e bits,
        # where a sum is one XOR.  Multiplication by c is GF(2)-linear in
        # the bits of c, so c * b is the XOR of the packed t^i * b over
        # the bits i of c, and t * (a packed list) is a shift with the
        # modulus XORed into the slots that overflowed.
        e = len(modulus) - 1
        width, pack, unpack = _packer("B" if e < 8 else "H")
        slot = (1 << width) - 1
        reduce_by = sum(c << i for i, c in enumerate(modulus[:-1]))

        def rem(a, b):
            db = len(b) - 1
            if len(a) <= db:
                return _trim(list(a))
            li = n - lg[b[-1]]   # b / lead is monic
            low = pack([ex[lg[y] + li] for y in b[:-1]])
            ones = ((1 << width * db) - 1) // slot   # 1 in every slot
            basis = [low]
            for _ in range(e - 1):
                low <<= 1
                over = low >> e & ones
                low ^= (over << e) ^ over * reduce_by
                basis.append(low)
            x = pack(a)
            for k in range(len(a) - 1, db - 1, -1):
                c = (x >> width * k) & slot   # slot k: the leading term
                if c:
                    term = 0
                    for part in basis:
                        if c & 1:
                            term ^= part
                        c >>= 1
                    x ^= term << width * (k - db)
            return _trim(unpack(x & ((1 << width * db) - 1), db))

        return (_xor, _xor, neg, mul, inv, div, power, intercepts,
                _euclid(rem), conv, horner, powsums)

    def intercepts(points):
        # b - a*s = g^(log b) (1 + g^(log a + log s + half - log b)), with
        # the slope-free part of that exponent reduced once per point; a
        # zero coordinate leaves -a*s = g^(log a + half + log s), or b
        (both, b_zero, _), order, still = _by_zero_coordinate(points)
        general = [(lg[b], (lg[a] + half - lg[b]) % n) for a, b in both]
        edge = [(lg[a] + half) % n for a, _ in b_zero]

        def keys(s):
            ls = lg[s]
            zech_s, exp_s = zz[ls:ls + n], ex[ls:ls + n]
            return ([ex[lb + zech_s[d]] for lb, d in general]
                    + [exp_s[c] for c in edge] + still)

        return order, keys

    def rem(a, b):
        db = len(b) - 1
        a = list(a)
        if len(a) > db:
            li = n - lg[b[-1]] + half   # -b[i] / lead = g^(log b[i] + li)
            low = [(lg[y] + li) % n if y else zero for y in b[:-1]]
            while len(a) > db:
                c = a.pop()   # the leading term cancels exactly
                if c:
                    lc, s = lg[c], len(a) - db
                    a[s:] = [ex[(lx := lg[x]) + zz[lc + ly - lx]]
                             for x, ly in zip(a[s:], low)]
        return _trim(a)

    return (add, sub, neg, mul, inv, div, power, intercepts,
            _euclid(rem), conv, horner, powsums)


ROW_MAX_ORDER = 256   # largest q of the row intercept kernel: bytes.translate's 1-byte table


def _row_intercepts(q, mul, sub, mulrow, subtab):
    """The intercept kernel of a field with q <= ROW_MAX_ORDER, from its
    umul and usub.

    mulrow[a] is the byte row a*s over the slopes s = 0..q-1, and subtab[b]
    the byte table x -> b - x, padded to the 256 bytes bytes.translate
    reads; both lists are the field's, and each entry is built when a
    point first needs it.  Point (a, b)'s intercepts at every slope are
    then mulrow[a].translate(subtab[b]), one row of q bytes; the rows are
    joined in the order of the points, so keys(s) is the slice of stride
    q from s.
    """
    els = range(q)
    pad = bytes(256 - q)

    def intercepts(points):
        points = list(points)
        xs = [a for a, _ in points]
        ys = [b for _, b in points]
        for a in set(xs):
            if mulrow[a] is None:
                mulrow[a] = bytes(map(mul, repeat(a), els))
        for b in set(ys):
            if subtab[b] is None:
                subtab[b] = bytes(map(sub, repeat(b), els)) + pad
        joined = b"".join(map(bytes.translate, map(mulrow.__getitem__, xs),
                              map(subtab.__getitem__, ys)))

        def keys(s):
            return joined[s::q]

        return points, keys

    return intercepts


class GF:
    """Context for GF(p^e); all element operations live here."""

    __slots__ = ("p", "e", "q", "modulus", "_lg", "_ex", "_zz", "_mulrow", "_subtab",
                 "uadd", "usub", "uneg", "umul", "uinv", "udiv", "upow", "uintercepts",
                 "ugcd", "uconv", "uhorner", "upowsums")

    def __init__(self, p, e=1, modulus=None):
        if type(p) is not int or p < 2:   # bool is an int subclass
            raise InputError(f"{p!r} is not prime")
        if type(e) is not int or e < 1:
            raise InputError(f"extension degree must be a positive integer, got {e!r}")
        # e >= 16 gives p**e > 2^15 at once, so no power above 2^225 is formed
        if p > MAX_ORDER or e >= MAX_ORDER.bit_length() or p ** e > MAX_ORDER:
            name = f"GF({p})" if e == 1 else f"GF({p}^{e})"
            raise InputError(
                f"{name} is too large: field orders above {MAX_ORDER} are not supported")
        if _prime_factors(p) != [p]:
            raise InputError(f"{p!r} is not prime")
        self.p = p
        self.e = e
        self.q = p ** e
        if modulus is None:
            self.modulus = self._default_modulus()
        else:
            modulus = tuple(modulus)
            if len(modulus) != e + 1:
                raise InputError(f"modulus has degree {len(modulus) - 1}, expected {e}")
            if any(type(c) is not int or not 0 <= c < p for c in modulus):
                raise InputError("modulus coefficients must lie in 0..p-1")
            if modulus[-1] != 1:
                raise InputError("modulus must be monic")
            if not _irreducible(list(modulus), p):
                raise InputError(f"modulus {list(modulus)} is reducible over GF({p})")
            self.modulus = modulus
        self._lg = self._ex = self._zz = None
        if e == 1:
            kernels = _prime_kernels(p)
        else:
            self._build_log_tables()
            kernels = _log_kernels(self.modulus, self._lg, self._ex, self._zz)
        (self.uadd, self.usub, self.uneg, self.umul, self.uinv, self.udiv, self.upow,
         self.uintercepts, self.ugcd, self.uconv, self.uhorner, self.upowsums) = kernels
        self._mulrow = self._subtab = None
        if self.q <= ROW_MAX_ORDER:
            self._mulrow, self._subtab = [None] * self.q, [None] * self.q
            self.uintercepts = _row_intercepts(self.q, self.umul, self.usub,
                                               self._mulrow, self._subtab)

    def _default_modulus(self):
        # every degree has an irreducible monic polynomial, so next() finds one
        return tuple(next(mod for mod in _monic(self.p, self.e) if _irreducible(mod, self.p)))

    def _primitive_element(self):
        """Smallest index of multiplicative order q - 1 (GF(q)* is cyclic)."""
        n = self.q - 1
        cofactors = [n // r for r in _prime_factors(n)]
        return next(g for g in range(2, self.q)
                    if all(self._pow_raw(g, k) != 1 for k in cofactors))

    def _build_log_tables(self):
        """lg, ex and zz (see the module doc), written directly from the
        powers of the primitive element g.

        The powers are walked as packed coefficient vectors: digit i of an
        element sits in bits [w i, w (i + 1)) of one int, with w one bit
        wider than p needs, so a digit-wise sum of two vectors carries into
        no neighbour and its digits >= p show in bit w - 1 of their slot
        once 2^(w-1) - p is added to each.  Multiplying by g is linear over
        GF(p), so g * v is the digit-wise sum mod p of the products of v's
        low k digits and of its high e - k digits with g, each read from a
        table of p^k or p^(e-k) entries built by the digit-vector _mul_raw.
        """
        p, e, n = self.p, self.e, self.q - 1
        g = self._primitive_element()
        w, k = p.bit_length() + 1, e // 2
        low = p ** k
        ones = sum(1 << w * i for i in range(e))
        flags, bias = ones << (w - 1), ones * ((1 << (w - 1)) - p)

        def pack(x):
            packed = 0
            for i in range(e):
                x, d = divmod(x, p)
                packed |= d << w * i
            return packed

        # packed part of v -> (its index, its product with g, packed)
        lows = {pack(x): (x, pack(self._mul_raw(x, g))) for x in range(low)}
        highs = {pack(x) >> (w * k): (x, pack(self._mul_raw(x, g)))
                 for x in range(0, self.q, low)}
        mask = (1 << w * k) - 1
        lz = 4 * n
        lg, ex = [lz] * self.q, [0] * (9 * n)
        v = 1
        for i in range(n):
            (xl, gl), (xh, gh) = lows[v & mask], highs[v >> (w * k)]
            ex[i] = ex[i + n] = xl + xh
            lg[xl + xh] = i
            v = gl + gh
            v -= (((v + bias) & flags) >> (w - 1)) * p
        # 1 + x changes only digit 0 of the index x, with no carry
        zech = [lg[x - x % p + (x + 1) % p] for x in ex[:n]]
        # zech twice, 0 on [2n, 5n), zz[d] = d for d in [-LZ, -2n) (indices
        # [5n, 7n)), 0 on [7n, 8n], and zech[d] for the negative d > -n
        self._lg, self._ex = lg, ex
        self._zz = [*zech, *zech, *repeat(0, 3 * n), *range(-lz, -2 * n),
                    *repeat(0, n + 1), *zech[1:]]

    # -- element <-> coefficient vector ---------------------------------

    def check(self, a):
        if type(a) is not int or not 0 <= a < self.q:   # bool is an int subclass
            raise InputError(f"{a!r} is not an element index of {self!r}")
        return a

    def coeffs(self, a):
        """Length-e coefficient vector of element a, constant term first."""
        self.check(a)
        out = []
        for _ in range(self.e):
            out.append(a % self.p)
            a //= self.p
        return out

    def from_coeffs(self, v):
        """Element index of a coefficient vector, constant term first;
        each integer coefficient is reduced mod p."""
        v = list(v)
        for c in v:
            if type(c) is not int:   # bool is an int subclass
                raise InputError(f"coefficient {c!r} is not an integer")
        if len(v) > self.e:
            if any(v[self.e:]):
                raise InputError(f"coefficient vector longer than e={self.e}")
            v = v[: self.e]
        idx = 0
        for c in reversed(v):
            idx = idx * self.p + c % self.p
        return idx

    def elements(self):
        """All elements in ascending index order (0 first, then 1)."""
        return range(self.q)

    # -- arithmetic: check every operand, then run the kernel -----------

    def add(self, a, b):
        self.check(a), self.check(b)
        return self.uadd(a, b)

    def sub(self, a, b):
        self.check(a), self.check(b)
        return self.usub(a, b)

    def neg(self, a):
        return self.uneg(self.check(a))

    def mul(self, a, b):
        self.check(a), self.check(b)
        return self.umul(a, b)

    def inv(self, a):
        self.check(a)
        if a == 0:
            raise DivisionByZero(f"inverse of zero in {self!r}")
        return self.uinv(a)

    def div(self, a, b):
        self.check(a), self.check(b)
        if b == 0:
            raise DivisionByZero(f"division by zero in {self!r}")
        return self.udiv(a, b)

    def pow(self, a, k):
        """a**k for a non-negative integer k (0**0 is 1)."""
        self.check(a)
        if type(k) is not int or k < 0:   # bool is an int subclass
            raise InputError(f"exponent must be a non-negative integer, got {k!r}")
        return self.upow(a, k)

    # -- digit-vector arithmetic: builds the tables, and is the tests' oracle

    def _add_raw(self, a, b):
        p = self.p
        return self.from_coeffs([(x + y) % p
                                 for x, y in zip(self.coeffs(a), self.coeffs(b))])

    def _mul_raw(self, a, b):
        prod = _pmul(_trim(self.coeffs(a)), _trim(self.coeffs(b)), self.p)
        return self.from_coeffs(_pmod(prod, self.modulus, self.p))

    def _inv_raw(self, a):
        return self._pow_raw(a, self.q - 2)

    def _pow_raw(self, a, k):
        result = 1
        while k:
            if k & 1:
                result = self._mul_raw(result, a)
            a = self._mul_raw(a, a)
            k >>= 1
        return result

    def from_int(self, n):
        """The prime-subfield element n mod p (image of the integer n)."""
        return n % self.p

    def trace(self, a):
        """Absolute trace to GF(p): a + a^p + ... + a^(p^(e-1))."""
        acc, x = 0, self.check(a)
        for _ in range(self.e):
            acc = self.uadd(acc, x)
            x = self.upow(x, self.p)
        return acc

    # -- identity --------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, GF)
                and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus))

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __reduce__(self):
        # the kernels are closures, which pickle cannot carry: rebuild
        return field_create, (self.p, self.e, self.modulus)

    def __repr__(self):
        return f"GF({self.p})" if self.e == 1 else f"GF({self.p}^{self.e})"


@functools.lru_cache(maxsize=None)
def _cached_field(p, e, modulus):
    return GF(p, e, modulus)


def field_create(p, e=1, modulus=None):
    """Build (or fetch the cached) GF(p^e) with the given or default modulus."""
    if modulus is not None:
        modulus = tuple(modulus)
    if type(p) is not int or type(e) is not int or (modulus and {*map(type, modulus)} != {int}):
        return GF(p, e, modulus)   # refuses it: the cache takes True, 1 and 1.0 as one key
    return _cached_field(p, e, modulus)


_SPEC_RE = re.compile(r"^(\d+)(?:\^(\d+))?(?::m=([\d,]+))?$", re.ASCII)


def _decimal(text):
    """int(text), or None when text is not a decimal integer in ASCII:
    int() also reads '1_0' and non-ASCII digits, which no input format of
    the package allows."""
    if text.isascii() and "_" not in text:
        try:
            return int(text)
        except ValueError:
            pass
    return None


def parse_field_spec(spec):
    """Parse "p", "p^e" or "p^e:m=c0,c1,...,ce" into a field context."""
    m = _SPEC_RE.match(spec.strip(" \t\n\r\f\v"))   # strip() also drops non-ASCII spaces
    if m:
        p, e = _decimal(m[1]), _decimal(m[2] or "1")
        modulus = m[3] and tuple(map(_decimal, m[3].split(",")))
    if not m or None in (p, e, *(modulus or ())):
        raise InputError(f"bad field spec {spec!r} (want p, p^e or p^e:m=c0,c1,...)")
    return field_create(p, e, modulus)
