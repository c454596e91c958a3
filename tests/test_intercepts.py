"""The list-level intercept kernel and the intercept profiles built on it,
against the per-point profile they replace, across the q ladder."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    PointMultiset,
    all_directions,
    field_create,
    intercept_profile,
    parse_field_spec,
    slope_direction,
    uniform_directions,
)
from renitent.plane import slope_of

from conftest import SMALL_FIELDS

LADDER = SMALL_FIELDS + [(3, 3), (7, 2), (2, 6), (3, 4), (5, 3), (2, 7), (3, 5), (2, 8)]


def _ladder_id(pe):
    return f"q{pe[0] ** pe[1]}"


def _oracle_profile(T, direction):
    """intercept_profile as it was before the kernel: two scalar kernel
    calls and one dict update per support point."""
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
        assert keys(s) == [K.sub(b, K.mul(a, s)) for a, b in order]


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
    else:   # above 1 and above p, so a count and its residue mod p differ
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
        for m in (1, K.p + 1):
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
    differ = False
    for d1, d2 in zip(all_directions(K1), all_directions(K2)):
        # both multisets prepared, then each read again
        p1, p2 = intercept_profile(T1, d1), intercept_profile(T2, d2)
        assert p1 == _oracle_profile(T1, d1)
        assert p2 == _oracle_profile(T2, d2)
        differ = differ or p1 != p2
    assert differ   # the moduli make the profiles differ, so a shared form would show


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
