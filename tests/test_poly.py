"""Polynomial algebra: dense univariate, sparse bivariate, homogeneous
trivariate, and determinants of polynomial matrices."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from renitent import (
    BiPoly,
    PolyMatrix,
    SplitMix64,
    TriHomPoly,
    UniPoly,
    field_create,
    homogenize,
    uni_gcd,
)
from renitent.errors import InputError
from renitent.poly import _root_multiplicity, maximal_minors

from conftest import cofactor_det

K5 = field_create(5)
K7 = field_create(7)


def P(field, *coeffs):
    return UniPoly(field, coeffs)


# -- univariate ------------------------------------------------------------


def test_square_of_linear_over_gf2():
    K = field_create(2)
    f = P(K, 1, 1)
    assert (f * f).coeffs == (1, 0, 1)


def test_add_zero_is_identity():
    f = P(K5, 3, 0, 2)
    assert f + UniPoly.zero(K5) == f


def test_product_of_two_linears():
    f = P(K5, K5.neg(2), 1) * P(K5, K5.neg(3), 1)
    assert f.coeffs == (1, 0, 1)  # x^2 + 1 over GF(5)


def test_trailing_zeros_trimmed():
    assert UniPoly(K5, (1, 2, 0, 0)).coeffs == (1, 2)
    assert UniPoly(K5, (0, 0)).is_zero()
    assert UniPoly.zero(K5).degree == -1


@given(st.lists(st.integers(0, 6), max_size=6),
       st.lists(st.integers(0, 6), max_size=6))
def test_mul_degree_adds(fc, gc):
    f, g = UniPoly(K7, fc), UniPoly(K7, gc)
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree == f.degree + g.degree


def test_eval_known_values():
    assert P(K5, 1, 0, 1)(2) == 0       # 4 + 1
    assert UniPoly.zero(K5)(3) == 0
    assert P(K5, 4)(0) == 4


@given(st.lists(st.integers(0, 6), max_size=6), st.integers(0, 6))
def test_eval_matches_monomial_sum(coeffs, x):
    f = UniPoly(K7, coeffs)
    naive = 0
    for i, c in enumerate(coeffs):
        naive = K7.add(naive, K7.mul(c, K7.pow(x, i)))
    assert f(x) == naive


@given(st.lists(st.integers(0, 4), min_size=1, max_size=6),
       st.lists(st.integers(0, 4), min_size=2, max_size=4))
def test_divmod_reconstructs(fc, gc):
    f, g = UniPoly(K5, fc), UniPoly(K5, gc)
    if g.is_zero():
        return
    quot, rem = divmod(f, g)
    assert quot * g + rem == f
    assert rem.degree < g.degree


# -- gcd -------------------------------------------------------------------


def test_gcd_common_linear_factor():
    f = P(K7, 6, 0, 1)  # x^2 - 1
    g = P(K7, 6, 1)     # x - 1
    assert uni_gcd(f, g) == g


def test_gcd_with_zero_is_monic_other():
    f = P(K5, 0, 2)
    monic_f = P(K5, 0, 1)
    assert uni_gcd(f, UniPoly.zero(K5)) == monic_f
    assert uni_gcd(UniPoly.zero(K5), f) == monic_f


def test_gcd_self():
    f = P(K5, 1, 2, 3)
    assert uni_gcd(f, f) == f.monic()


def test_gcd_of_two_zeros_rejected():
    with pytest.raises(InputError, match=r"^gcd of two zero polynomials is undefined$"):
        uni_gcd(UniPoly.zero(K5), UniPoly.zero(K5))


@given(st.lists(st.integers(0, 4), max_size=6),
       st.lists(st.integers(0, 4), max_size=6))
def test_gcd_divides_both(fc, gc):
    f, g = UniPoly(K5, fc), UniPoly(K5, gc)
    if f.is_zero() and g.is_zero():
        return
    d = uni_gcd(f, g)
    for h in (f, g):
        if not h.is_zero():
            assert (h % d).is_zero()


@given(st.lists(st.integers(0, 12), min_size=1, max_size=8))
def test_gcd_with_span_polynomial_counts_roots(gc):
    K = field_create(13)
    g = UniPoly(K, gc)
    if g.is_zero():
        return
    span = UniPoly(K, [0, K.neg(1)] + [0] * (K.q - 2) + [1])  # x^q - x
    nroots = sum(1 for x in K.elements() if g(x) == 0)
    assert uni_gcd(span, g).degree == nroots


def uni_gcd_by_remainders(f, g):
    """The loop uni_gcd ran before it moved to lists: f % g until g = 0."""
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


GCD_FIELDS = [field_create(2), field_create(5), field_create(2, 3), field_create(3, 2),
              field_create(13)]


@st.composite
def gcd_pairs(draw):
    """(f, g), not both zero: arbitrary, with a common factor, equal, or
    with one side zero; either degree may be the larger."""
    K = draw(st.sampled_from(GCD_FIELDS))
    coeffs = st.lists(st.integers(0, K.q - 1), max_size=8)
    f, g = UniPoly(K, draw(coeffs)), UniPoly(K, draw(coeffs))
    shape = draw(st.sampled_from(["any", "common factor", "equal", "f zero", "g zero"]))
    if shape == "common factor":
        h = UniPoly(K, draw(coeffs))
        f, g = f * h, g * h
    elif shape == "equal":
        g = f
    elif shape == "f zero":
        f = UniPoly.zero(K)
    elif shape == "g zero":
        g = UniPoly.zero(K)
    assume(not (f.is_zero() and g.is_zero()))
    return f, g


@settings(max_examples=300)
@given(gcd_pairs())
def test_gcd_matches_the_remainder_loop(pair):
    f, g = pair
    assert uni_gcd(f, g) == uni_gcd_by_remainders(f, g)
    assert uni_gcd(g, f) == uni_gcd_by_remainders(g, f)


def test_gcd_divides_nothing_by_divmod(monkeypatch):
    def forbidden(*args):
        raise AssertionError("UniPoly.__divmod__ ran")

    monkeypatch.setattr(UniPoly, "__divmod__", forbidden)
    K = field_create(13)
    span = UniPoly(K, [0, K.neg(1)] + [0] * (K.q - 2) + [1])
    assert uni_gcd(span, P(K, 3, 4, 1)).degree == 2    # (x + 1)(x + 3)
    assert uni_gcd(P(K, 1, 2), span) == P(K, 7, 1)


# -- root multiplicities (what verify_envelope reads) ------------------------


def test_span_polynomial_splits_completely(small_field):
    # X^q - X is the product of X - g over every element g
    K = small_field
    span = UniPoly(K, [0, K.neg(1)] + [0] * (K.q - 2) + [1])
    assert all(_root_multiplicity(span, g) == 1 for g in K.elements())


@given(st.lists(st.integers(0, 4), min_size=2, max_size=7))
def test_roots_factor_out_exactly(coeffs):
    # dividing out (X - g)^m at every root g leaves no root, and the
    # factors times what is left rebuild f
    f = UniPoly(K5, coeffs)
    if f.is_zero():
        return
    factors = [P(K5, K5.neg(g), 1) ** m for g in K5.elements()
               if (m := _root_multiplicity(f, g))]
    cofactor = f
    for factor in factors:
        cofactor = cofactor // factor
    assert all(cofactor(x) != 0 for x in K5.elements())
    for factor in factors:
        cofactor = cofactor * factor
    assert cofactor == f


# -- bivariate -------------------------------------------------------------


def test_eval_v_substitutes():
    f = BiPoly(K5, {(1, 0): 1, (0, 1): K5.neg(1)})  # U - V
    assert f.eval_v(3) == P(K5, 2, 1)                # U - 3 = U + 2


def test_eval_v_on_v_free_input():
    f = BiPoly(K5, {(2, 0): 1, (0, 0): 4})
    assert f.eval_v(3) == P(K5, 4, 0, 1)


def test_bipoly_zero():
    z = BiPoly(K5)
    assert z.is_zero() and z == BiPoly(K5, {}) and z.eval_v(3) == UniPoly.zero(K5)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(0, 4), max_size=8),
       st.integers(0, 4), st.integers(0, 4))
def test_bipoly_eval_matches_monomial_sum(terms, u, v):
    f = BiPoly(K5, terms)
    naive = 0
    for (i, j), c in terms.items():
        naive = K5.add(naive, K5.mul(c, K5.mul(K5.pow(u, i), K5.pow(v, j))))
    assert f.eval(u, v) == naive


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(0, 4), max_size=8),
       st.integers(0, 4), st.integers(0, 4))
def test_eval_v_consistent_with_full_eval(terms, u, v):
    f = BiPoly(K5, terms)
    assert f.eval_v(v)(u) == f.eval(u, v)


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.integers(0, 4), max_size=8),
       st.booleans())
def test_rows_are_the_eval_v_rows(terms, v_free):
    if v_free:
        terms = {(i, 0): c for (i, _), c in terms.items()}
    f = BiPoly(K5, terms)
    assert list(f.rows()) == [f.eval_v(y) for y in K5.elements()]


# -- homogenization --------------------------------------------------------


def test_homogenize_linear():
    f = BiPoly(K5, {(1, 0): 1, (0, 0): 2})  # U - 3
    g = homogenize(f, 1)
    assert g.terms == {(1, 0, 0): 1, (0, 0, 1): 2}


def test_homogenize_pads_with_w():
    f = BiPoly(K5, {(2, 0): 1, (0, 1): 1})  # U^2 + V
    g = homogenize(f, 2)
    assert g.terms == {(2, 0, 0): 1, (0, 1, 1): 1}


def test_homogenize_degree_too_small():
    f = BiPoly(K5, {(2, 1): 1})
    with pytest.raises(InputError, match=r"^cannot homogenize degree 3 into degree 2$"):
        homogenize(f, 2)


@given(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                       st.integers(0, 4), max_size=6))
def test_homogenize_round_trip(terms):
    f = BiPoly(K5, terms)
    n = max(f.total_degree, 0) + 1
    assert homogenize(f, n).dehomogenize() == f


def test_at_vw_sections():
    # U^2 + 3*U*W + 2*W^2 at (v, w) = (anything, 1) and (1, 0)
    g = TriHomPoly(K5, 2, {(2, 0, 0): 1, (1, 0, 1): 3, (0, 0, 2): 2})
    assert g.at_vw(0, 1) == P(K5, 2, 3, 1)
    assert g.at_vw(1, 0) == P(K5, 0, 0, 1)


def test_proportional_to():
    g = TriHomPoly.linear(K5, 1, 2, 3)
    assert g.proportional_to(g.scale(4))
    assert not g.proportional_to(TriHomPoly.linear(K5, 1, 2, 4))
    assert not g.proportional_to(g.scale(4) + TriHomPoly.linear(K5, 0, 1, 0))
    zero = g + g.scale(4)
    assert zero.is_zero() and zero.proportional_to(zero)
    assert not g.proportional_to(zero) and not zero.proportional_to(g)   # one side zero
    assert not g.proportional_to(TriHomPoly.linear(K5, 1, 2, 0))   # no W term


def test_curves_hash_by_value():
    g = TriHomPoly.linear(K5, 1, 2, 3)
    assert hash(g.scale(1)) == hash(g)
    assert len({g, g.scale(1), g.scale(2)}) == 2


def test_adding_curves_of_different_degrees_rejected():
    line = TriHomPoly.linear(K5, 1, 2, 3)
    conic = TriHomPoly(K5, 2, {(2, 0, 0): 1, (0, 0, 2): 2})
    with pytest.raises(InputError,
                       match=r"^cannot add homogeneous parts of different degrees$"):
        line + conic


def test_render_formats():
    assert P(K5, 2, 3, 1).render("U") == "U^2 + 3*U + 2"
    g = TriHomPoly(K5, 2, {(2, 0, 0): 1, (1, 0, 1): 3, (0, 0, 2): 2})
    assert g.render() == "U^2 + 3*U*W + 2*W^2"
    assert UniPoly.zero(K5).render() == "0"


# -- the shared sparse routines against pointwise evaluation -----------------

SPARSE_FIELDS = [(5, 1), (2, 3), (3, 2)]


def _random_terms(rng, K, keys):
    return {key: rng.randrange(K.q) for key in keys if rng.random() < 0.6}


def _canonical(poly):
    """No zero coefficient is stored, so equal polynomials have equal maps."""
    return all(poly.terms.values())


@pytest.mark.parametrize("pe", SPARSE_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_bipoly_operations_agree_pointwise(pe):
    """Sums, differences, products, powers and scales of BiPoly, read at
    every point of the plane through eval_v and Horner (code the sparse
    routines do not share), and through eval."""
    K = field_create(*pe)
    rng = random.Random(K.q)
    keys = [(i, j) for i in range(4) for j in range(4)]
    minus_one = K.neg(1)
    for _ in range(4):
        f = BiPoly(K, _random_terms(rng, K, keys))
        g = BiPoly(K, _random_terms(rng, K, keys))
        c, k = rng.randrange(K.q), rng.randrange(4)
        ops = {"sum": (f + g, K.add), "diff": (f - g, K.sub), "product": (f * g, K.mul),
               "power": (f ** k, lambda a, _: K.pow(a, k)),
               "scale": (f.scale(c), lambda a, _: K.mul(c, a)),
               "cancel": (f + g.scale(minus_one) - f + g, lambda a, b: 0)}
        assert all(_canonical(r) for r, _ in ops.values())
        assert ops["cancel"][0].is_zero() and (f - f).is_zero()
        for v in K.elements():
            rows = {name: r.eval_v(v) for name, (r, _) in ops.items()}
            fv, gv = f.eval_v(v), g.eval_v(v)
            for u in K.elements():
                a, b = fv.eval(u), gv.eval(u)
                assert f.eval(u, v) == a
                for name, (r, op) in ops.items():
                    assert rows[name].eval(u) == op(a, b), (name, u, v)
                    assert r.eval(u, v) == op(a, b), (name, u, v)


@pytest.mark.parametrize("pe", SPARSE_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_trihompoly_operations_agree_pointwise(pe):
    """The same for forms, read at every (u, v, w) through at_vw."""
    K = field_create(*pe)
    rng = random.Random(2 * K.q)

    def form(d):
        keys = [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]
        return TriHomPoly(K, d, _random_terms(rng, K, keys))

    for _ in range(3):
        d, e = rng.randrange(4), rng.randrange(3)
        f, f2, g = form(d), form(d), form(e)
        c, k = rng.randrange(K.q), rng.randrange(3)
        ops = {"sum": (f + f2, lambda a, a2, _: K.add(a, a2)),
               "product": (f * g, lambda a, _, b: K.mul(a, b)),
               "power": (g ** k, lambda a, a2, b: K.pow(b, k)),
               "scale": (f.scale(c), lambda a, a2, b: K.mul(c, a))}
        assert all(_canonical(r) for r, _ in ops.values())
        assert (f + f.scale(K.neg(1))).is_zero()
        assert (f * g).degree == d + e and (g ** k).degree == e * k
        for v, w in itertools.product(K.elements(), repeat=2):
            rows = {name: r.at_vw(v, w) for name, (r, _) in ops.items()}
            fs, f2s, gs = f.at_vw(v, w), f2.at_vw(v, w), g.at_vw(v, w)
            for u in K.elements():
                a, a2, b = fs.eval(u), f2s.eval(u), gs.eval(u)
                assert f.eval(u, v, w) == a
                for name, (r, op) in ops.items():
                    assert rows[name].eval(u) == op(a, a2, b), (name, u, v, w)
                    assert r.eval(u, v, w) == op(a, a2, b), (name, u, v, w)


@pytest.mark.parametrize("pe", SPARSE_FIELDS + [(2, 1)], ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_products_drop_the_terms_that_cancel(pe):
    """(U + V)(U - V) = U^2 - V^2: the two UV terms cancel in every
    characteristic, and no zero coefficient is left behind."""
    K = field_create(*pe)
    m = K.neg(1)
    f = BiPoly(K, {(1, 0): 1, (0, 1): 1}) * BiPoly(K, {(1, 0): 1, (0, 1): m})
    assert f.terms == {(2, 0): 1, (0, 2): m}
    H = TriHomPoly(K, 1, {(1, 0, 0): 1, (0, 1, 0): 1}) * TriHomPoly(K, 1, {(1, 0, 0): 1,
                                                                           (0, 1, 0): m})
    assert H.terms == {(2, 0, 0): 1, (0, 2, 0): m}
    assert (f + BiPoly(K, {(0, 2): 1})).terms == {(2, 0): 1}


# -- determinants ----------------------------------------------------------


def test_det_identity():
    one, zero = UniPoly.one(K5), UniPoly.zero(K5)
    assert PolyMatrix(K5, [[one, zero], [zero, one]]).det() == one


def test_det_upper_triangular():
    V = P(K5, 0, 1)
    M = PolyMatrix(K5, [[V, UniPoly.one(K5)], [UniPoly.zero(K5), V]])
    assert M.det() == P(K5, 0, 0, 1)
    assert repr(M) == "PolyMatrix([x, 1]; [0, x])"


@given(st.lists(st.lists(st.lists(st.integers(0, 4), max_size=3),
                         min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40)
def test_det_3x3_matches_cofactor(grid):
    rows = [[UniPoly(K5, cs) for cs in row] for row in grid]
    assert PolyMatrix(K5, rows).det() == cofactor_det(K5, rows)


def _random_rows(field, n, m, rng):
    return [[UniPoly(field, [rng.next_u64() % field.p for _ in range(2)])
             for _ in range(m)] for _ in range(n)]


DET_SHAPES = ["random", "dependent row", "zero pivot", "zero first column", "zero row"]


@pytest.mark.parametrize("shape", DET_SHAPES)
@pytest.mark.parametrize("n", range(1, 7))
@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=8, deadline=None)
def test_det_matches_cofactor(n, shape, seed):
    rng = SplitMix64(seed)
    rows = _random_rows(K7, n, n, rng)
    zero = UniPoly.zero(K7)
    if shape == "dependent row":  # a polynomial multiple of row 0
        f = UniPoly(K7, [rng.next_u64() % 7 for _ in range(2)])
        rows[-1] = [f * e for e in rows[0]]
    elif shape == "zero pivot":
        rows[0][0] = zero
    elif shape == "zero first column":
        for r in rows:
            r[0] = zero
    elif shape == "zero row":
        rows[rng.next_u64() % n] = [zero] * n
    det = PolyMatrix(K7, rows).det()
    assert det == cofactor_det(K7, rows)
    if shape in ("zero first column", "zero row") or (shape == "dependent row" and n > 1):
        assert det.is_zero()


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 5), st.integers(0, 2))
@settings(max_examples=30, deadline=None)
def test_maximal_minors_match_cofactor(seed, n, extra):
    m = n + extra
    rows = _random_rows(K7, n, m, SplitMix64(seed))
    minors = maximal_minors(K7, rows)
    chosen = list(itertools.combinations(range(m), n))
    assert len(minors) == len(chosen)
    for cols in chosen:
        oracle = cofactor_det(K7, [[r[j] for j in cols] for r in rows])
        assert minors[sum(1 << j for j in cols)] == oracle


def test_maximal_minors_of_no_rows():
    assert maximal_minors(K5, []) == {0: UniPoly.one(K5)}
    assert PolyMatrix(K5, []).det() == UniPoly.one(K5)
