"""Field contexts: construction, arithmetic, trace, spec-string parsing."""

import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from renitent import field_create, parse_field_spec
from renitent.errors import DivisionByZero, InputError

from renitent.gf import GF, MAX_ORDER

from conftest import SMALL_FIELDS

# also the larger fields the constructions run over
ALL_FIELDS = SMALL_FIELDS + [(11, 1), (13, 1), (2, 4), (3, 4), (2, 7)]


def test_prime_field_modulus_is_x():
    K = field_create(5)
    assert (K.p, K.e, K.q) == (5, 1, 5)
    assert K.modulus == (0, 1)


def test_default_modulus_is_first_irreducible():
    # enumerated by ascending element index of the non-leading coefficients
    assert field_create(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert field_create(2, 2).modulus == (1, 1, 1)
    assert field_create(3, 2).modulus == (1, 0, 1)     # t^2 + 1
    assert field_create(2, 4).modulus == (1, 1, 0, 0, 1)


def test_composite_characteristic_rejected():
    with pytest.raises(InputError, match=r"^4 is not prime$"):
        field_create(4)
    with pytest.raises(InputError, match=r"^1 is not prime$"):
        field_create(1)


def test_explicit_modulus_checked():
    with pytest.raises(InputError, match=r"^modulus \[1, 0, 1\] is reducible over GF\(2\)$"):
        field_create(2, 2, (1, 0, 1))  # t^2 + 1 = (t+1)^2 over GF(2)
    with pytest.raises(InputError, match=r"^modulus has degree 2, expected 3$"):
        field_create(2, 3, (1, 1, 1))
    with pytest.raises(InputError):
        field_create(3, 2, (1, 0, 2))  # not monic


def test_explicit_modulus_changes_identity():
    K_a = field_create(3, 2)                 # t^2 + 1
    K_b = field_create(3, 2, (2, 1, 1))      # t^2 + t + 2
    assert K_a != K_b
    assert K_a == field_create(3, 2, (1, 0, 1))


def test_product_in_prime_field():
    assert field_create(5).mul(2, 3) == 1


def test_cube_of_residue_class_gf8():
    K = field_create(2, 3)
    t = 2  # index of the residue class of the variable
    assert K.mul(K.mul(t, t), t) == 3  # t^3 = t + 1 under t^3 + t + 1


def test_element_enumeration_order():
    assert list(field_create(3).elements()) == [0, 1, 2]
    assert list(field_create(2, 2).elements()) == [0, 1, 2, 3]
    K9 = field_create(3, 2)
    elems = list(K9.elements())
    assert len(elems) == 9
    assert elems[:3] == [0, 1, 2]  # prime subfield first


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_power_sums_vanish_below_q_minus_one(p, e):
    K = field_create(p, e)
    for k in range(K.q - 1):
        total = 0
        for g in K.elements():
            total = K.add(total, K.pow(g, k))
        assert total == 0, f"k={k}"


@pytest.mark.parametrize("p,e", ALL_FIELDS)
def test_power_sum_at_q_minus_one_is_minus_one(p, e):
    K = field_create(p, e)
    total = 0
    for g in K.elements():
        total = K.add(total, K.pow(g, K.q - 1))
    assert total == K.neg(1)


@st.composite
def field_elements(draw, n):
    p, e = draw(st.sampled_from(SMALL_FIELDS))
    K = field_create(p, e)
    return (K, *(draw(st.integers(0, K.q - 1)) for _ in range(n)))


@given(field_elements(2))
def test_frobenius_is_additive(fx):
    K, a, b = fx
    assert K.pow(K.add(a, b), K.p) == K.add(K.pow(a, K.p), K.pow(b, K.p))


@given(field_elements(1))
def test_qth_power_fixes_every_element(fx):
    K, a = fx
    assert K.pow(a, K.q) == a


@given(field_elements(1))
def test_inverse(fx):
    K, a = fx
    if a == 0:
        with pytest.raises(DivisionByZero):
            K.inv(a)
    else:
        assert K.mul(K.inv(a), a) == 1
        assert K.div(1, a) == K.inv(a)


@given(field_elements(3))
def test_ring_axioms(fx):
    K, a, b, c = fx
    assert K.add(a, K.neg(a)) == 0
    assert K.add(a, b) == K.add(b, a)
    assert K.mul(a, b) == K.mul(b, a)
    assert K.mul(a, K.add(b, c)) == K.add(K.mul(a, b), K.mul(a, c))
    assert K.mul(K.mul(a, b), c) == K.mul(a, K.mul(b, c))
    assert K.sub(a, b) == K.add(a, K.neg(b))


@given(field_elements(1))
def test_coefficient_vector_round_trip(fx):
    K, a = fx
    v = K.coeffs(a)
    assert len(v) == K.e
    assert all(0 <= c < K.p for c in v)
    assert K.from_coeffs(v) == a
    assert sum(c * K.p ** i for i, c in enumerate(v)) == a


def test_pow_rejects_negative_exponent():
    with pytest.raises(InputError):
        field_create(5).pow(2, -1)


def test_out_of_range_index_rejected():
    K = field_create(3)
    with pytest.raises(InputError, match=r"^5 is not an element index of GF\(3\)$"):
        K.add(1, 5)
    with pytest.raises(InputError, match=r"^-1 is not an element index of GF\(3\)$"):
        K.check(-1)


def test_trace_lands_in_prime_field():
    for p, e in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        K = field_create(p, e)
        for a in K.elements():
            tr = K.trace(a)
            assert 0 <= tr < K.p
            assert K.trace(K.pow(a, K.p)) == tr  # Frobenius-invariant
            assert K.trace(K.add(a, 1)) == K.add(tr, K.trace(1))


def test_trace_kernel_size():
    # the trace is onto GF(p); its kernel has q/p elements
    for p, e in [(2, 2), (2, 3), (3, 2), (2, 4)]:
        K = field_create(p, e)
        kernel = [a for a in K.elements() if K.trace(a) == 0]
        assert len(kernel) == K.q // K.p


def test_trace_of_one():
    # trace(1) = e mod p
    assert field_create(2, 3).trace(1) == 1
    assert field_create(2, 2).trace(1) == 0
    assert field_create(3, 2).trace(1) == 2


def test_parse_field_spec_forms():
    assert parse_field_spec("7") is field_create(7)
    assert parse_field_spec("3^2") is field_create(3, 2)
    assert parse_field_spec("2^3") is field_create(2, 3)
    K = parse_field_spec("3^2:m=2,1,1")
    assert K.modulus == (2, 1, 1)


def test_parse_field_spec_rejects_garbage():
    for bad in ("banana", "3^", "^2", "3^2:m=", ""):
        with pytest.raises(InputError,
                           match=r"^bad field spec .* \(want p, p\^e or p\^e:m="):
            parse_field_spec(bad)
    with pytest.raises(InputError, match=r"^4 is not prime$"):
        parse_field_spec("4")
    with pytest.raises(InputError, match=r"^modulus \[1, 0, 1\] is reducible over GF\(2\)$"):
        parse_field_spec("2^2:m=1,0,1")


# -- the kernels and the checked methods against digit-vector arithmetic

# every prime field listed and every extension field with q <= 81 (all
# pairs), then larger extension fields (sampled)
EXHAUSTIVE_SPECS = ["2", "3", "5", "7", "13", "31",
                    "2^2", "2^3", "3^2", "2^4", "5^2", "3^3", "2^5", "7^2",
                    "2^6", "3^4", "3^2:m=2,1,1"]
SAMPLED_SPECS = ["5^3", "2^7", "3^5", "2^8"]


def _neg_oracle(K, a):
    return K.from_coeffs([-c % K.p for c in K.coeffs(a)])


def _assert_kernel_matches_oracle(K, pairs):
    """Each kernel (K.uadd, ...) and its checked method (K.add, ...) give
    the digit-vector answer; sub and div are compared as operations of
    their own, not through add/neg and mul/inv."""
    for a, b in pairs:
        want = {"add": K._add_raw(a, b),
                "sub": K._add_raw(a, _neg_oracle(K, b)),
                "mul": K._mul_raw(a, b)}
        if b:
            want["div"] = K._mul_raw(a, K._inv_raw(b))
        for op, value in want.items():
            assert getattr(K, "u" + op)(a, b) == value, (op, a, b)
            assert getattr(K, op)(a, b) == value, (op, a, b)
    for a in {0} | {a for pair in pairs for a in pair}:
        assert K.uneg(a) == K.neg(a) == _neg_oracle(K, a), a
        if a:
            assert K.uinv(a) == K.inv(a) == K._inv_raw(a), a
        for k in (0, 1, 2, K.p, K.q - 2, K.q - 1, K.q, 3 * K.q + 5):
            assert K.upow(a, k) == K.pow(a, k) == K._pow_raw(a, k), (a, k)


@pytest.mark.parametrize("spec", EXHAUSTIVE_SPECS)
def test_kernel_matches_oracle_on_all_pairs(spec):
    K = parse_field_spec(spec)
    _assert_kernel_matches_oracle(K, [(a, b) for a in K.elements() for b in K.elements()])


@pytest.mark.parametrize("spec", SAMPLED_SPECS)
def test_kernel_matches_oracle_on_sampled_pairs(spec):
    K = parse_field_spec(spec)
    rng = random.Random(spec)
    pairs = [(rng.randrange(K.q), rng.randrange(K.q)) for _ in range(1500)]
    pairs += [(0, b) for b in range(4)] + [(a, K.neg(a)) for a in range(1, 9)]
    _assert_kernel_matches_oracle(K, pairs)


@pytest.mark.parametrize("spec", ["7", "2^3", "3^2:m=2,1,1"])
def test_field_survives_pickling(spec):
    K = parse_field_spec(spec)
    K2 = pickle.loads(pickle.dumps(K))
    assert K2 == K
    assert [K2.mul(a, 3) for a in K.elements()] == [K.mul(a, 3) for a in K.elements()]


@pytest.mark.parametrize("p,e", [pe for pe in ALL_FIELDS if pe[1] > 1])
def test_zech_is_the_log_of_one_plus_each_power(p, e):
    # built from the closed form of 1 + x; checked on the digit-vector sum
    K = field_create(p, e)
    n = K.q - 1
    lz = 4 * n   # lg[0], read where 1 + g^d = 0
    assert len(K._zz) == len(K._ex) == 9 * n
    for d in range(1 - n, 2 * n):   # the d of two nonzero operands
        assert K._zz[d] == K._lg[K._add_raw(1, K._ex[d % n])], d
    assert K._zz.index(lz) == (0 if p == 2 else n // 2)   # g^half = -1
    # the zero cases: 0 where t = 0, d itself where x = 0, and 0 at
    # d = -(q - 1), which only horner's 0 * 0 reads
    assert K._zz[2 * n:5 * n] == [0] * (3 * n)
    assert K._zz[5 * n:7 * n] == list(range(-lz, -2 * n))
    assert K._zz[7 * n:8 * n + 1] == [0] * (n + 1)


# every extension field of the q ladders, moduli whose root is no
# primitive element, and the largest odd-p extension degree
TABLE_SPECS = ["2^2", "2^3", "3^2", "3^3", "7^2", "2^6", "3^4", "11^2", "5^3", "2^7",
               "3^5", "2^8", "17^2", "7^3", "2^9", "3^9", "3^2:m=1,0,1", "5^2:m=2,0,1",
               "2^4:m=1,0,0,1,1"]


@pytest.mark.parametrize("spec", TABLE_SPECS)
def test_log_tables_equal_the_digit_vector_powers(spec):
    """lg, ex and zz as the packed walk builds them, against the powers
    of g taken one _mul_raw at a time."""
    K = parse_field_spec(spec)
    n, g = K.q - 1, K._ex[1]
    ex, lg, x = [0] * (9 * n), [4 * n] * K.q, 1
    for i in range(n):
        ex[i] = ex[i + n] = x
        lg[x] = i
        x = K._mul_raw(x, g)
    assert x == 1 and g == K._primitive_element()
    assert K._ex == ex and K._lg == lg
    assert K._zz[:2 * n] == [lg[K._add_raw(1, y)] for y in ex[:2 * n]]   # lg[0] is LZ


def test_generator_is_smallest_primitive_element_not_modulus_root():
    K = field_create(3, 2)         # t^2 + 1, with t at index 3
    assert K._pow_raw(3, 4) == 1   # t has order 4, not 8
    assert K._ex[1] == 4           # 1 + t, the smallest index of order 8


def test_field_order_ceiling():
    assert MAX_ORDER == 2 ** 15
    assert GF(2, 15).q == MAX_ORDER
    assert GF(181, 2).q == 32761
    for p, e in ((2, 16), (3, 10)):
        with pytest.raises(InputError, match=rf"^GF\({p}\^{e}\) is too large"):
            GF(p, e)
    assert field_create(32749).q == 32749           # largest prime below it
    with pytest.raises(InputError,
                       match=r"^GF\(32771\) is too large: field orders above 32768"):
        field_create(32771)


@pytest.mark.parametrize("make", [
    lambda: field_create(2, 30),
    lambda: parse_field_spec("2^30"),
    lambda: field_create(2, 10 ** 18),
    lambda: field_create(10 ** 30 + 57),
    lambda: parse_field_spec("3^20:m=1,2"),
], ids=["2^30", "spec-2^30", "2^10^18", "huge-p", "spec-with-modulus"])
def test_oversized_field_rejected_at_once(make):
    start = time.perf_counter()
    with pytest.raises(InputError,
                       match=r"is too large: field orders above 32768 are not supported"):
        make()
    assert time.perf_counter() - start < 1.0
