"""The list-level intercept kernel and the intercept profiles built on it,
against the per-point profile they replace, across the q ladder.

Fields with q <= 256 run the row kernel (one byte row of intercepts per
point); the rungs above it run the three family kernels (prime, p = 2 and
odd-p extension fields), so the ladder keeps both paths under test.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    PointMultiset,
    all_directions,
    classify_direction,
    field_create,
    intercept_profile,
    parse_field_spec,
    slope_direction,
    uniform_directions,
)
from renitent.errors import InputError
from renitent.generators import gen_random
from renitent.gf import GF, ROW_MAX_ORDER
from renitent.plane import slope_of
from renitent.uniformity import _classify_all

from conftest import SMALL_FIELDS

LADDER = SMALL_FIELDS + [(3, 3), (7, 2), (2, 6), (3, 4), (5, 3), (2, 7), (3, 5), (2, 8),
                         (257, 1), (17, 2), (7, 3), (2, 9)]


def _ladder_id(pe):
    return f"q{pe[0] ** pe[1]}"


def _oracle_profile(T, direction):
    """intercept_profile written out: two scalar kernel calls and one dict
    update per support point."""
    K = T.field
    sub, mul = K.usub, K.umul
    s = slope_of(direction)
    profile = {}
    for (a, b), m in T._mults.items():
        key = a if s is None else sub(b, mul(a, s))
        profile[key] = profile.get(key, 0) + m
    return profile


def _assert_kernel_matches(K, points):
    order, keys = K.uintercepts(points)
    assert sorted(order) == sorted(points)
    for s in K.elements():
        # bytes from the row kernel, a list from a family kernel
        assert list(keys(s)) == [K.sub(b, K.mul(a, s)) for a, b in order]


def _assert_profiles_match(T):
    for d in all_directions(T.field):
        assert intercept_profile(T, d) == _oracle_profile(T, d)


@st.composite
def multisets(draw, K):
    p = K.p
    # zero coordinates often, so every run of the kernel's split is filled
    coord = st.one_of(st.just(0), st.integers(0, K.q - 1))
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=24, unique=True))
    if draw(st.booleans()):
        weights = [1] * len(points)
    else:   # above 1, p and 2p among them, so a count and its residue mod p differ
        weights = draw(st.lists(st.integers(1, 2 * p + 1),
                                min_size=len(points), max_size=len(points)))
    return K, points, weights


@pytest.mark.parametrize("pe", LADDER, ids=_ladder_id)
def test_kernel_and_profile_agree_with_the_oracle(pe):
    K = field_create(*pe)

    @given(multisets(K))
    @settings(max_examples=30, deadline=None)
    def check(instance):
        K, points, weights = instance
        _assert_kernel_matches(K, points)
        _assert_profiles_match(PointMultiset(K, list(zip(points, weights))))

    check()


@pytest.mark.parametrize("pe", LADDER, ids=_ladder_id)
def test_one_point_sets(pe):
    K = field_create(*pe)
    g = K.q - 1
    for point in [(0, 0), (0, g), (g, 0), (1, g), (g, 1)]:
        _assert_kernel_matches(K, [point])
        for m in (1, K.p, K.p + 1, 2 * K.p):   # p and 2p count 0 mod p
            _assert_profiles_match(PointMultiset(K, [(point, m)]))


@pytest.mark.parametrize("pe", [pe for pe in LADDER if pe[0] ** pe[1] <= 49], ids=_ladder_id)
def test_full_plane_against_the_oracle(pe):
    K = field_create(*pe)
    plane = [(a, b) for a in K.elements() for b in K.elements()]
    _assert_kernel_matches(K, plane)
    _assert_profiles_match(PointMultiset(K, [(pt, 1) for pt in plane]))
    _assert_profiles_match(PointMultiset(K, [((a, b), 1 + (a + 2 * b) % (K.p + 2))
                                             for a, b in plane]))


@pytest.mark.parametrize("pe", LADDER, ids=_ladder_id)
def test_full_plane_puts_q_points_on_every_line(pe):
    K = field_create(*pe)
    T = PointMultiset(K, [((a, b), 1) for a in K.elements() for b in K.elements()])
    full = dict.fromkeys(K.elements(), K.q)
    directions = all_directions(K)
    if K.q > 81:   # every direction costs q^2 keys; a spread of them suffices
        directions = directions[:3] + directions[K.q // 2:K.q // 2 + 2] + directions[-3:]
    for d in directions:
        assert intercept_profile(T, d) == full


@pytest.mark.parametrize("specs", [
    ("2^3:m=1,1,0,1", "2^3:m=1,0,1,1"),
    ("3^2:m=1,0,1", "3^2:m=2,1,1"),
    ("5^2:m=2,0,1", "5^2:m=2,1,1"),
], ids=["q8", "q9", "q25"])
def test_equal_q_with_other_moduli_never_share_a_prepared_form(specs):
    K1, K2 = (parse_field_spec(spec) for spec in specs)
    assert K1.q == K2.q and K1 != K2
    entries = [((a, b), 1 + (a + b) % 2) for a in range(K1.q) for b in range(0, K1.q, 3)]
    T1, T2 = PointMultiset(K1, entries), PointMultiset(K2, entries)
    for T in (T1, T2, T1, T2):   # both fields' row tables built, then each read again
        _assert_kernel_matches(T.field, list(T._mults))
        _assert_loop_matches(T, 1)
    # the moduli make the profiles differ, so a shared table would show
    assert any(intercept_profile(T1, d1) != intercept_profile(T2, d2)
               for d1, d2 in zip(all_directions(K1), all_directions(K2)))


def test_a_classified_multiset_still_pickles():
    K = field_create(3, 2)
    T = PointMultiset(K, [((1, 2), 1), ((0, 5), 4), ((3, 0), 2)])
    before = uniform_directions(T, 2)
    T2 = pickle.loads(pickle.dumps(T))
    assert T2 == T
    assert intercept_profile(T2, slope_direction(K, 4)) == intercept_profile(
        T, slope_direction(K, 4))
    assert [r.to_json() for r in uniform_directions(T2, 2)] == [
        r.to_json() for r in before]


def test_the_row_kernel_runs_exactly_up_to_its_bound():
    for pe in LADDER:
        K = field_create(*pe)
        _, keys = K.uintercepts([(1, 1)])
        assert isinstance(keys(0), bytes) == (K.q <= ROW_MAX_ORDER), K


def test_row_tables_are_built_per_value_on_first_use():
    K = GF(2, 7)   # not the cached field, so its tables start empty
    built = lambda: (sum(r is not None for r in K._mulrow),
                     sum(r is not None for r in K._subtab))
    assert built() == (0, 0)
    K.uintercepts([(3, 5), (3, 6), (9, 5)])
    assert built() == (2, 2)
    row = K._mulrow[3]
    K.uintercepts([(3, 7)])
    assert built() == (2, 3) and K._mulrow[3] is row
    assert all(len(t) == 256 for t in K._subtab if t is not None)


# -- the shared classification loop against classify_direction -------------------

CLASSIFIED = [pe for pe in LADDER if pe[0] ** pe[1] > 2]   # q = 2 has no lambda


def _assert_loop_matches(T, lam):
    """_classify_all and uniform_directions against classify_direction on
    every direction; returns the reports with m_d != 0."""
    pairs = _classify_all(T, lam)
    assert [d for d, _ in pairs] == list(all_directions(T.field))
    for d, report in pairs:
        one = classify_direction(T, d, lam)
        assert report == one
        if report is not None:
            assert report.to_json() == one.to_json()
            assert report.lambda_d == one.lambda_d
    reports = [r for _, r in pairs if r is not None]
    assert uniform_directions(T, lam) == reports
    return [r for r in reports if r.m_d != 0]


@pytest.mark.parametrize("pe", CLASSIFIED, ids=_ladder_id)
def test_shared_loop_agrees_with_classify_direction(pe):
    K = field_create(*pe)
    T = gen_random(K, 0, min(0.3, 40 / K.q ** 2))
    # weights above 1, p and 2p among them
    weighted = PointMultiset(K, [(pt, 1 + i % (2 * K.p)) for i, (pt, _) in enumerate(T.items())])
    top = (K.q - 1) // 2
    for lam in sorted({1, min(2, top), top}):
        _assert_loop_matches(T, lam)
        _assert_loop_matches(weighted, lam)


# prime, p = 2 and odd-p fields, below and above ROW_MAX_ORDER
REFERENCE_FIELDS = [(31, 1), (2, 6), (3, 4), (257, 1), (2, 9), (17, 2)]


@pytest.mark.parametrize("pe", REFERENCE_FIELDS, ids=_ladder_id)
def test_the_reference_never_calls_the_intercept_kernel(pe, monkeypatch):
    """classify_direction and intercept_profile stay independent of the
    kernel the shared loop runs, so comparing the two checks the kernel."""
    K = field_create(*pe)
    T = gen_random(K, 1, min(0.3, 40 / K.q ** 2))
    weighted = PointMultiset(K, [(pt, 1 + i % (2 * K.p)) for i, (pt, _) in enumerate(T.items())])
    want = [(S, lam, _classify_all(S, lam)) for S in (T, weighted) for lam in (1, 2)]

    def refuse(points):
        raise AssertionError("K.uintercepts called")

    monkeypatch.setattr(K, "uintercepts", refuse)
    with pytest.raises(AssertionError, match="uintercepts"):
        _classify_all(T, 1)   # the patch is the one the loop reads
    for S, lam, pairs in want:
        for d, report in pairs:
            assert intercept_profile(S, d) == _oracle_profile(S, d)
            assert classify_direction(S, d, lam) == report


def test_shared_loop_agrees_where_m_d_is_not_zero():
    """GF(27) at lambda = 13: typical residue m_d != 0, so every empty line
    is renitent and the report scans all q intercepts."""
    K = field_create(3, 3)
    assert _assert_loop_matches(gen_random(K, 0, 0.1), 13)


def test_shared_loop_checks_lambda_first():
    T = PointMultiset(field_create(7), [((1, 2), 1)])
    for bad in (0, 4, 3.0):
        with pytest.raises(InputError):
            _classify_all(T, bad)
