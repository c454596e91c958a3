"""The field's list kernels against the scalar-kernel loops they replaced.

K.ugcd, K.uconv, K.uhorner and K.upowsums run the Euclid, polynomial
products, Horner passes and power sums.  Each is compared here with the
loop `poly` or `counting` ran before, one scalar kernel call per
coefficient, on random lists in every kernel set: GF(31) (prime field),
GF(2^6) (p = 2), GF(3^4) and GF(7^2) (odd-p extension fields).  The
lists have zero coefficients often, and the corpus holds a degree-0
divisor, a dividend shorter than its divisor, and empty lists.  A kernel
set built on a Zech table with one wrong entry must fail the same
comparison, in characteristic 2 as for odd p.

The prime ugcd keeps its slots unreduced across steps, so it is also run
on the inputs that reach each of its cases: a common factor planted in
both operands, sparse operands whose degree falls by more than one, a
zero operand, and remainder sequences long enough to take the slots past
the 2^63 that forces a reduction, at p = 2 and p = 32749; and the gcd
profiles of both detectors are compared with the scalar Euclid's.
"""

import random
from itertools import accumulate, repeat
from types import SimpleNamespace

import pytest

from renitent import (
    ProjPoint,
    TriHomPoly,
    UniPoly,
    build_point_detector,
    build_slope_detector,
    field_create,
    gcd_profile,
    gen_planted,
    slope_of,
    uniform_directions,
)
from renitent.gf import _log_kernels

from conftest import SMALL_FIELDS

KERNEL_SETS = [(31, 1), (2, 6), (3, 4), (7, 2)]
FIELDS = KERNEL_SETS + SMALL_FIELDS + [(2, 9), (3, 5), (17, 2), (251, 1)]


def _field_id(pe):
    return f"q{pe[0] ** pe[1]}"


# -- the loops the kernels replaced ------------------------------------------------


def rem_by_scalar_kernels(K, a, b):
    """poly._rem_monic on the divisor made monic by poly._monic_list."""
    a = list(a)
    if b[-1] != 1:
        b = list(map(K.umul, repeat(K.uinv(b[-1])), b))
    sub, mul = K.usub, K.umul
    db = len(b) - 1
    low = b[:-1]
    while len(a) > db:
        c = a.pop()
        s = len(a) - db
        a[s:] = map(sub, a[s:], map(mul, repeat(c), low))
        while a and not a[-1]:
            a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def gcd_by_scalar_kernels(K, a, b):
    """The Euclid of poly.uni_gcd on rem_by_scalar_kernels: its last nonzero
    remainder, not made monic."""
    a, b = list(a), list(b)
    while b and not b[-1]:
        b.pop()
    while b:
        a, b = b, rem_by_scalar_kernels(K, a, b)
    while a and not a[-1]:
        a.pop()
    return a


def conv_by_scalar_kernels(K, a, b):
    """The term loop of UniPoly.__mul__."""
    if not a or not b:
        return []
    add, mul = K.uadd, K.umul
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = add(out[i + j], mul(x, y))
    return out


def horner_by_scalar_kernels(K, a, x):
    """The synthetic division of poly._root_multiplicity."""
    add, mul = K.uadd, K.umul
    return list(accumulate(reversed(a), lambda acc, c: add(mul(acc, x), c)))


def powsums_by_scalar_kernels(K, pairs, k):
    """The power sums of DetectorPoly.rows."""
    add, mul = K.uadd, K.umul
    sums = [0] * (k + 1)
    for w, u in pairs:
        if w:
            sums = list(map(add, sums, accumulate(repeat(u, k), mul, initial=w)))
    return sums


def at_vw_by_terms(H, v, w):
    """The term loop of TriHomPoly.at_vw."""
    K = H.field
    add, mul, power = K.uadd, K.umul, K.upow
    out = [0] * (max((i for i, _, _ in H.terms), default=-1) + 1)
    for (i, j, k), c in H.terms.items():
        out[i] = add(out[i], mul(c, mul(power(v, j), power(w, k))))
    return UniPoly(K, out)


# -- the corpus --------------------------------------------------------------------


def random_list(rng, K, n, lead=False):
    """n coefficients, a third of them zero; a nonzero last one if lead."""
    out = [rng.randrange(K.q) if rng.random() < 0.67 else 0 for _ in range(n)]
    if lead and out:
        out[-1] = rng.randrange(1, K.q)
    return out


def corpus(K, seed=0):
    """(a, b, x, pairs, k) cases: random ones, and the edge cases."""
    rng = random.Random(seed * 1000 + K.q)
    top = min(2 * K.q + 3, 70)
    cases = []
    for _ in range(60):
        a = random_list(rng, K, rng.randrange(0, top), lead=rng.random() < 0.8)
        b = random_list(rng, K, rng.randrange(1, top), lead=True)
        x = rng.randrange(K.q) if rng.random() < 0.8 else 0
        pairs = [(random_list(rng, K, 1)[0], rng.choice([0, 1, rng.randrange(K.q)]))
                 for _ in range(rng.randrange(0, 5))]
        cases.append((a, b, x, pairs, rng.randrange(0, top)))
    nonzero = rng.randrange(1, K.q)
    cases += [
        (random_list(rng, K, 9, lead=True), [nonzero], 1, [], 0),    # degree-0 divisor
        (random_list(rng, K, 3, lead=True), random_list(rng, K, 7, lead=True),
         nonzero, [(nonzero, 0), (0, nonzero)], 1),                   # len(a) < len(b)
        ([], random_list(rng, K, 4, lead=True), 0, [(1, 1)], 3),       # empty dividend
        ([0, 0, 0], [1], 0, [], 0),                                   # all zero
    ]
    return cases


def mismatches(K, kernels, cases):
    """The (kernel, case) pairs where kernels disagree with the loops over K."""
    out = []
    for case in cases:
        a, b, x, pairs, k = case
        for u, v in ((a, b), (b, a)):
            if kernels.ugcd(u, v) != gcd_by_scalar_kernels(K, u, v):
                out.append(("ugcd", case))
        for u, v in ((a, b), (b, a), (a, []), ([], b)):
            if kernels.uconv(u, v) != conv_by_scalar_kernels(K, u, v):
                out.append(("uconv", case))
        if kernels.uhorner(a, x) != horner_by_scalar_kernels(K, a, x):
            out.append(("uhorner", case))
        if kernels.upowsums(pairs, k) != powsums_by_scalar_kernels(K, pairs, k):
            out.append(("upowsums", case))
    return out


# -- the comparisons ---------------------------------------------------------------


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
def test_list_kernels_match_the_scalar_loops(pe):
    K = field_create(*pe)
    assert mismatches(K, K, corpus(K)) == []


@pytest.mark.parametrize("pe", KERNEL_SETS, ids=_field_id)
def test_kernels_take_tuples_and_leave_their_operands(pe):
    K = field_create(*pe)
    rng = random.Random(K.q)
    a = random_list(rng, K, 2 * K.q, lead=True)
    b = random_list(rng, K, K.q // 2 + 1, lead=True)
    copies = (list(a), list(b))
    assert K.ugcd(tuple(a), tuple(b)) == K.ugcd(a, b)
    assert K.ugcd(tuple(b), tuple(a)) == K.ugcd(b, a)
    assert K.uconv(tuple(a), tuple(b)) == K.uconv(a, b)
    assert K.uhorner(tuple(a), 1) == K.uhorner(a, 1)
    assert K.uhorner(tuple(a), 0) == K.uhorner(a, 0) == list(reversed(a))
    # at x = 0 a 1 after a 0 adds the term 0 * 0, whose exponent is 2 lg[0]
    assert K.uhorner([1, 0, 1, 1, 0], 0) == [0, 1, 1, 0, 1]
    assert (a, b) == copies


@pytest.mark.parametrize("pe", KERNEL_SETS, ids=_field_id)
def test_remainders_of_large_dividends(pe):
    """Long runs of steps: slots of the packed remainders see many additions."""
    K = field_create(*pe)
    rng = random.Random(7 * K.q)
    for la, lb in ((8 * K.q, 2), (6 * K.q, K.q), (5 * K.q, 4 * K.q)):
        a = random_list(rng, K, la, lead=True)
        b = random_list(rng, K, lb, lead=True)
        assert K.ugcd(a, b) == gcd_by_scalar_kernels(K, a, b)


def _wrong_zech(K):
    """K's kernel set built on a Zech table with one entry off by one: zech[d]
    for one d in [(q - 1)/3, q - 1), at d and at its negative d - (q - 1)."""
    zz = list(K._zz)
    n = K.q - 1
    d = next(d for d in range(n // 3, n) if zz[d] != 4 * n)
    zz[d] = zz[d - n] = (zz[d] + 1) % n
    names = ("uadd", "usub", "uneg", "umul", "uinv", "udiv", "upow", "uintercepts",
             "ugcd", "uconv", "uhorner", "upowsums")
    return SimpleNamespace(**dict(zip(names, _log_kernels(K.modulus, K._lg, K._ex, zz))))


@pytest.mark.parametrize("pe", [(3, 4), (7, 2), (2, 6), (2, 9)], ids=_field_id)
def test_a_wrong_zech_entry_fails_the_comparison(pe):
    K = field_create(*pe)
    found = {kernel for kernel, _ in mismatches(K, _wrong_zech(K), corpus(K))}
    # in characteristic 2 ugcd packs its lists and adds by XOR: it reads no zz
    assert found == {"uconv", "uhorner", "upowsums"} | ({"ugcd"} if K.p != 2 else set())


# -- the Euclid ---------------------------------------------------------------------

# every kernel family: prime fields from p = 2 to the largest p below 2^15,
# p = 2 extensions (e = 6 in 8-bit slots, e = 9 in 16-bit ones) and odd p
GCD_FIELDS = [(2, 1), (3, 1), (31, 1), (127, 1), (1021, 1), (32749, 1),
              (2, 6), (2, 9), (3, 4), (7, 2)]


def sparse_list(rng, K, n):
    """n coefficients, nine in ten of them zero, the last nonzero."""
    out = [rng.randrange(1, K.q) if rng.random() < 0.1 else 0 for _ in range(n)]
    out[-1] = rng.randrange(1, K.q)
    return out


def continuant(K, rng, n, tail=(1,)):
    """(F_n+1, F_n) for F_0 = tail, F_1 = (X + r) tail and F_k+1 = (X + r_k) F_k
    + s_k F_k-1 with s_k != 0: the Euclid on them takes n steps, each a
    quotient X + r_k that leaves a remainder of degree one less."""
    prev = list(tail)
    cur = K.uconv([rng.randrange(K.q), 1], prev)
    for _ in range(n - 1):
        nxt = K.uconv([rng.randrange(K.q), 1], cur)
        s = rng.randrange(1, K.q)
        nxt[:len(prev)] = map(K.uadd, nxt[:len(prev)], map(K.umul, repeat(s), prev))
        prev, cur = cur, nxt
    return cur, prev


@pytest.mark.parametrize("pe", GCD_FIELDS, ids=_field_id)
def test_ugcd_matches_the_scalar_euclid(pe):
    K = field_create(*pe)
    rng = random.Random(11 * K.q)
    cases = []
    for _ in range(40):
        g = random_list(rng, K, rng.randrange(1, 8), lead=True)   # the common factor
        u = random_list(rng, K, rng.randrange(0, 25), lead=True)
        v = random_list(rng, K, rng.randrange(0, 25), lead=True)
        cases.append((K.uconv(u, g), K.uconv(v, g)))
        cases.append((sparse_list(rng, K, rng.randrange(1, 40)),
                      sparse_list(rng, K, rng.randrange(1, 40))))
    b = random_list(rng, K, 6, lead=True)
    cases += [(b, []), (b, [0, 0]), ([], []), (b, b), (b, [rng.randrange(1, K.q)])]
    for a, b in cases:
        for u, v in ((a, b), (b, a)):   # either one the shorter
            frozen = (tuple(u), tuple(v))
            want = gcd_by_scalar_kernels(K, u, v)
            assert K.ugcd(u, v) == K.ugcd(*frozen) == want, (u, v)
            assert (tuple(u), tuple(v)) == frozen


@pytest.mark.parametrize("p", [2, 32749])
def test_ugcd_of_long_remainder_sequences(p):
    """150 steps with a degree-one quotient each: at p = 2 a slot's bound
    grows about threefold a step and at p = 32749 about 2^16-fold, so both
    sequences pass the 2^63 at which the slots are reduced, several times."""
    K = field_create(p)
    rng = random.Random(p)
    # a common factor with a nonzero constant term: a slot that carried
    # into the next would change the gcd of the low slots too
    factor = random_list(rng, K, 5, lead=True)
    factor[0] = rng.randrange(1, p)
    for tail in ([1], factor):
        a, b = continuant(K, rng, 150, tail)
        want = gcd_by_scalar_kernels(K, a, b)
        assert len(want) == len(tail)
        assert K.ugcd(a, b) == K.ugcd(b, a) == want


# q -> (p, e): ladder rungs, and q = 8, whose point detector has rows g(X, y) = 0
LADDER_FIELDS = {8: (2, 3), 31: (31, 1), 49: (7, 2), 64: (2, 6), 81: (3, 4), 127: (127, 1)}


@pytest.mark.parametrize("q", LADDER_FIELDS)
def test_gcd_profiles_match_the_scalar_euclid(q):
    """Both detectors of bench/ladder.py's planted set: lambda = min(2, p - 1)
    points drawn from random.Random(q), the slope detector of its uniform
    slope directions and the point detector of the first q // 2 of them,
    with R = (0, 0)."""
    K = field_create(*LADDER_FIELDS[q])
    lam = min(2, K.p - 1)
    rng = random.Random(q)
    points = []
    while len(points) < lam:
        pt = (rng.randrange(1, q), rng.randrange(1, q))
        if pt not in points:
            points.append(pt)
    T = gen_planted(K, points, [1] * lam).multiset
    reports = [r for r in uniform_directions(T, lam) if slope_of(r.direction) is not None]
    zero_rows = 0
    for det in (build_slope_detector(T, reports),
                build_point_detector(T, reports[:q // 2], ProjPoint.affine(K, 0, 0))):
        want = {}
        for y, f_y, g_y in zip(K.elements(), det.f.rows(), det.g.rows()):
            want[y] = len(gcd_by_scalar_kernels(K, f_y.coeffs, g_y.coeffs)) - 1
            zero_rows += not g_y.coeffs
        assert gcd_profile(det.f, det.g).k == want
    assert zero_rows or q != 8


# -- the polynomials built on them -------------------------------------------------


@pytest.mark.parametrize("pe", KERNEL_SETS, ids=_field_id)
def test_trusted_polynomials_equal_checked_ones(pe):
    K = field_create(*pe)
    rng = random.Random(K.q)
    for n in range(12):
        coeffs = random_list(rng, K, n) + [0] * rng.randrange(3)
        trusted, checked = UniPoly._trusted(K, coeffs), UniPoly(K, coeffs)
        assert type(trusted) is UniPoly
        assert trusted == checked and trusted.coeffs == checked.coeffs
        assert hash(trusted) == hash(checked)
        assert trusted.degree == checked.degree


@pytest.mark.parametrize("pe", KERNEL_SETS, ids=_field_id)
def test_products_and_sections_match_the_term_loops(pe):
    K = field_create(*pe)
    rng = random.Random(3 * K.q)
    for _ in range(20):
        f = UniPoly(K, random_list(rng, K, rng.randrange(0, 9)))
        g = UniPoly(K, random_list(rng, K, rng.randrange(0, 9)))
        assert (f * g).coeffs == tuple(UniPoly(K, conv_by_scalar_kernels(
            K, list(f.coeffs), list(g.coeffs))).coeffs)
        degree = rng.randrange(0, 7)
        H = TriHomPoly(K, degree, {(i, j, degree - i - j): rng.randrange(K.q)
                                   for i in range(degree + 1)
                                   for j in range(degree - i + 1) if rng.random() < 0.6})
        for v, w in ((rng.randrange(K.q), rng.randrange(K.q)), (rng.randrange(K.q), 0),
                     (0, rng.randrange(K.q)), (0, 0), (1, 0)):
            assert H.at_vw(v, w) == at_vw_by_terms(H, v, w), (v, w)
