"""The field's list kernels against the scalar-kernel loops they replaced.

K.urem, K.uconv, K.uhorner and K.upowsums run the Euclid's remainders,
polynomial products, Horner passes and power sums.  Each is compared
here with the loop `poly` or `counting` ran before, one scalar kernel
call per coefficient, on random lists in every kernel set: GF(31) (prime
field), GF(2^6) (p = 2), GF(3^4) and GF(7^2) (odd-p extension fields).
The lists have zero coefficients often, and the corpus holds a degree-0
divisor, a dividend shorter than its divisor, and empty lists.  A kernel
set built on a Zech table with one wrong entry must fail the same
comparison, in characteristic 2 as for odd p.
"""

import random
from itertools import accumulate, repeat
from types import SimpleNamespace

import pytest

from renitent import TriHomPoly, UniPoly, field_create
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
        if kernels.urem(a, b) != rem_by_scalar_kernels(K, a, b):
            out.append(("urem", case))
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
    assert K.urem(tuple(a), tuple(b)) == K.urem(a, b)
    assert K.uconv(tuple(a), tuple(b)) == K.uconv(a, b)
    assert K.uhorner(tuple(a), 1) == K.uhorner(a, 1)
    assert K.uhorner(tuple(a), 0) == K.uhorner(a, 0) == list(reversed(a))
    assert (a, b) == copies


@pytest.mark.parametrize("pe", KERNEL_SETS, ids=_field_id)
def test_remainders_of_large_dividends(pe):
    """Long runs of steps: slots of the packed remainders see many additions."""
    K = field_create(*pe)
    rng = random.Random(7 * K.q)
    for la, lb in ((8 * K.q, 2), (6 * K.q, K.q), (5 * K.q, 4 * K.q)):
        a = random_list(rng, K, la, lead=True)
        b = random_list(rng, K, lb, lead=True)
        assert K.urem(a, b) == rem_by_scalar_kernels(K, a, b)


def _wrong_zech(K):
    """K's kernel set built on a Zech table with one entry off by one."""
    zech = list(K._zech)
    n = K.q - 1
    d = next(d for d in range(n // 3, n) if zech[d] is not None)
    zech[d] = (zech[d] + 1) % n
    names = ("uadd", "usub", "uneg", "umul", "uinv", "udiv", "upow", "uintercepts",
             "urem", "uconv", "uhorner", "upowsums")
    return SimpleNamespace(**dict(zip(names, _log_kernels(K.modulus, K._exp, K._log, zech))))


@pytest.mark.parametrize("pe", [(3, 4), (7, 2), (2, 6), (2, 9)], ids=_field_id)
def test_a_wrong_zech_entry_fails_the_comparison(pe):
    K = field_create(*pe)
    found = {kernel for kernel, _ in mismatches(K, _wrong_zech(K), corpus(K))}
    # in characteristic 2 urem packs its lists and adds by XOR: it reads no zz
    assert found == {"uconv", "uhorner", "upowsums"} | ({"urem"} if K.p != 2 else set())


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
