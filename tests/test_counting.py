"""Gcd-degree counting: profiles, the degree inequality, both detector
pairs, the renitent-line lower bound, and the index dichotomy."""

import random

import pytest

from renitent import (
    BiPoly,
    GcdProfile,
    PointMultiset,
    ProjPoint,
    build_point_detector,
    build_slope_detector,
    classify_direction,
    dichotomy_check,
    field_create,
    gcd_degree_bound,
    gcd_profile,
    gen_norm_conic,
    gen_planted,
    index_of_point,
    intercept_profile,
    renitent_lower_bound_check,
    slope_direction,
    slope_of,
    uniform_directions,
    vertical_direction,
)
from renitent.counting import gcd_degree_bounds
from renitent.errors import HypothesisRejected, InputError
from renitent.gf import GF

K5 = field_create(5)
K7 = field_create(7)


def slope_reports(T, lam):
    return [r for r in uniform_directions(T, lam)
            if slope_of(r.direction) is not None and r.lambda_d > 0]


# -- gcd profiles ------------------------------------------------------------


def test_profile_constant_common_factor():
    # f = (X - 1)(X - Y), g = X - 1: the gcd is X - 1 in every row
    f = BiPoly(K5, {(2, 0): 1, (1, 1): K5.neg(1), (1, 0): K5.neg(1), (0, 1): 1})
    g = BiPoly(K5, {(1, 0): 1, (0, 0): K5.neg(1)})
    profile = gcd_profile(f, g)
    assert profile.deg_f == 2 and profile.deg_g == 1
    assert profile.k == {y: 1 for y in K5.elements()}


def test_profile_zero_row_counts_full_degree():
    # g(X, y) = (y - 2) X vanishes identically in the row y = 2
    f = BiPoly(K5, {(5, 0): 1, (1, 0): K5.neg(1)})  # X^5 - X
    g = BiPoly(K5, {(1, 1): 1, (1, 0): K5.neg(2)})
    profile = gcd_profile(f, g)
    assert profile.k[2] == 5
    assert all(profile.k[y] == 1 for y in K5.elements() if y != 2)


def test_profile_rejects_variable_leading_coefficient():
    f = BiPoly(K5, {(1, 1): 1})  # X Y
    g = BiPoly(K5, {(1, 0): 1})
    message = r"^the X-leading coefficient of f must be a nonzero constant$"
    with pytest.raises(InputError, match=message):
        gcd_profile(f, g)
    with pytest.raises(InputError, match=message):
        gcd_profile(BiPoly.constant(K5, 0), g)


def test_profile_rejects_mixed_fields():
    f = BiPoly(K5, {(1, 0): 1})
    g = BiPoly(K7, {(1, 0): 1})
    with pytest.raises(InputError, match=r"^mixed contexts$"):
        gcd_profile(f, g)


def test_degree_bound_on_a_skewed_profile():
    # k_0 = 1 (gcd X), every other row 0
    f = BiPoly(K5, {(2, 0): 1})           # X^2
    g = BiPoly(K5, {(1, 0): 1, (0, 1): K5.neg(1)})  # X - Y
    profile = gcd_profile(f, g)
    check = gcd_degree_bound(profile, 1)
    assert (check.k_y0, check.lhs, check.rhs) == (0, 1, 2)
    assert check.ok and check.slack == 1
    anchored = gcd_degree_bound(profile, 0)
    assert (anchored.k_y0, anchored.lhs, anchored.rhs) == (1, 0, 0)
    assert anchored.ok
    js = anchored.to_json()
    assert js["pass"] is True and js["slack"] == 0


def _per_anchor_sum(profile, y0):
    """Both sides at y0, the left one summed over every row."""
    k0 = profile.k[y0]
    return (y0, k0, sum(max(0, ky - k0) for ky in profile.k.values()),
            (profile.deg_f - k0) * (profile.deg_g - k0))


def _sides(check):
    return (check.y0, check.k_y0, check.lhs, check.rhs)


@pytest.mark.parametrize("pe", [(7, 1), (2, 4), (3, 3), (31, 1)],
                         ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_one_pass_bounds_equal_the_per_anchor_sums(pe):
    """gcd_degree_bounds reads every left side off one histogram pass;
    each must equal the sum over all rows at its anchor, on slope-detector
    profiles and on a made-up profile with gaps between its k values."""
    K = field_create(*pe)
    rng = random.Random(K.q)
    profiles = [GcdProfile(K, {y: rng.choice((0, 1, 4, 9)) for y in K.elements()}, 12, 10)]
    for npts in (2, 3, 5, 8):
        T = PointMultiset(K, {(rng.randrange(K.q), rng.randrange(K.q)): rng.randrange(1, 4)
                              for _ in range(npts)})
        reports = [r for r in uniform_directions(T, (K.q - 1) // 2)
                   if slope_of(r.direction) is not None]
        if reports:
            det = build_slope_detector(T, reports)
            profiles.append(gcd_profile(det.f, det.g))
    assert len(profiles) >= 4
    for profile in profiles:
        want = [_per_anchor_sum(profile, y) for y in K.elements()]
        assert [_sides(c) for c in gcd_degree_bounds(profile, K.elements())] == want
        assert [_sides(gcd_degree_bound(profile, y)) for y in K.elements()] == want


def test_degree_bound_rejects_bad_anchor():
    f = BiPoly(K5, {(1, 0): 1})
    profile = gcd_profile(f, f)
    with pytest.raises(InputError):
        gcd_degree_bound(profile, 5)
    with pytest.raises(InputError):
        gcd_degree_bound(profile, "0")


# -- slope detector ---------------------------------------------------------


def test_slope_detector_semantics():
    # the full line y = 0 plus a doubled point: generic slopes see every
    # typical line once, so m_d = 1 there, while slope 0 has m_d = 0
    T = PointMultiset(K7, [((x, 0), 1) for x in K7.elements()] + [((1, 1), 2)])
    reports = slope_reports(T, 1)
    assert {slope_of(r.direction) for r in reports} == set(K7.elements())
    assert {r.m_d for r in reports} == {0, 1}
    det = build_slope_detector(T, reports)
    for r in reports:
        d = slope_of(r.direction)
        profile = intercept_profile(T, r.direction)
        for x in K7.elements():
            count = K7.from_int(profile.get(x, 0))
            assert det.g.eval(x, d) == K7.sub(K7.from_int(r.m_d), count)


def test_slope_detector_uncovered_slope():
    T = PointMultiset(K7, [((x, 0), 1) for x in K7.elements()] + [((1, 1), 2)])
    partial = [r for r in slope_reports(T, 1) if slope_of(r.direction) not in (1, 2)]
    det = build_slope_detector(T, partial)
    m = {slope_of(r.direction): r.m_d for r in partial}
    assert m[3] == 1  # still covered
    for d in (1, 2, 3):
        profile = intercept_profile(T, slope_direction(K7, d))
        for x in K7.elements():
            # an uncovered slope has no bump: g is minus the count there
            expected = K7.from_int(m.get(d, 0) - profile.get(x, 0))
            assert det.g.eval(x, d) == expected, (d, x)


def test_slope_detector_profile_counts_renitent_lines():
    T = PointMultiset(K7, [((0, 0), 1), ((1, 1), 1)])
    reports = slope_reports(T, 2)
    det = build_slope_detector(T, reports)
    profile = gcd_profile(det.f, det.g)
    for r in reports:
        assert profile.k[slope_of(r.direction)] == K7.q - r.lambda_d


def test_detector_input_checks():
    T = PointMultiset(K7, [((0, 0), 1)])
    reports = uniform_directions(T, 1)
    with pytest.raises(InputError):
        build_slope_detector(T, [])
    with pytest.raises(HypothesisRejected, match=r"^at most q = 7 directions, got 8$"):
        build_slope_detector(T, reports)  # q + 1 of them
    slopes = [r for r in reports if slope_of(r.direction) is not None]
    with pytest.raises(InputError):
        build_slope_detector(T, slopes[:1] * 2)  # duplicate direction
    with pytest.raises(HypothesisRejected,
                       match=r"^slope directions only; re-coordinatize the vertical away$"):
        build_slope_detector(T, reports[-1:])
    other = PointMultiset(K5, [((0, 0), 1)])
    with pytest.raises(InputError, match=r"^report uses a different context$"):
        build_slope_detector(other, slopes[:1])


# -- lower bound ------------------------------------------------------------


def test_lower_bound_single_point_is_tight():
    T = PointMultiset(K5, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    rep = renitent_lower_bound_check(T, reports)
    assert rep.count == rep.gcd_count == 5
    assert rep.bound == 5
    assert rep.counts_agree and rep.ok
    js = rep.to_json()
    assert js["pass"] is True and js["counts_agree"] is True


def test_lower_bound_two_points_with_merged_direction():
    T = PointMultiset(K7, [((0, 0), 1), ((1, 1), 1)])
    reports = slope_reports(T, 2)
    rep = renitent_lower_bound_check(T, reports)
    assert rep.n_directions == 7   # slope 1 is uniform too, with lambda_d = 1
    assert rep.count == rep.gcd_count == 6 * 2 + 1
    assert rep.bound == 2 * (7 + 1 - 2)
    assert rep.ok


def test_lower_bound_needs_a_sharp_direction():
    K11 = field_create(11)
    T = PointMultiset(K11, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)])
    merged = [r for r in slope_reports(T, 3) if r.lambda_d == 1]
    assert len(merged) == 1
    with pytest.raises(HypothesisRejected,
                       match=r"^the bound needs a direction with lambda_d = lam$"):
        renitent_lower_bound_check(T, merged)


def test_lower_bound_rejects_mixed_bounds():
    T = PointMultiset(K7, [((0, 0), 1)])
    r1 = classify_direction(T, slope_direction(K7, 0), 1)
    r2 = classify_direction(T, slope_direction(K7, 2), 2)
    with pytest.raises(InputError):
        renitent_lower_bound_check(T, [r1, r2])


# -- point indices ----------------------------------------------------------


def test_index_of_member_point():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    rep = index_of_point(reports, ProjPoint.affine(K7, 2, 3))
    assert rep.count == 7
    assert len(rep.lines) == 7
    assert rep.to_json()["index"] == 7


def test_index_of_other_points():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    # same column as the member: only the (uncovered) vertical joins them
    assert index_of_point(reports, ProjPoint.affine(K7, 2, 5)).count == 0
    # generic affine point: exactly the joining line
    assert index_of_point(reports, ProjPoint.affine(K7, 3, 3)).count == 1
    # a direction meets the one renitent line of its own class
    assert index_of_point(reports, slope_direction(K7, 4)).count == 1
    assert index_of_point(reports, vertical_direction(K7)).count == 0


# -- dichotomy --------------------------------------------------------------


def test_dichotomy_single_point():
    T = PointMultiset(K5, [((2, 3), 1)])
    rep = dichotomy_check(T, 1)
    assert rep.ok
    assert rep.n_uniform == 6 and rep.n_lines == 6
    assert (rep.low, rep.high) == (1, 6)
    assert rep.high_points == ((ProjPoint.affine(K5, 2, 3), 6),)
    assert rep.offenders == ()
    assert rep.to_json()["pass"] is True


def test_dichotomy_norm_conic_nucleus():
    K4 = field_create(2, 2)
    inst = gen_norm_conic(K4)
    rep = dichotomy_check(inst.multiset, 1)
    assert rep.ok
    high = dict(rep.high_points)
    assert high[inst.nucleus] == rep.n_uniform


def test_dichotomy_hypothesis_checks():
    K2 = field_create(2)
    # no lam is legal at q = 2, so that is bad input, not a failed hypothesis
    with pytest.raises(InputError, match=r"^need 0 < lam <= \(q-1\)/2 = 0, got 1$"):
        dichotomy_check(PointMultiset(K2, [((0, 0), 1)]), 1)
    # lam = 2 over GF(5) can never clear lam^2 + lam = 6 = q + 1 directions
    T = PointMultiset(K5, [((0, 0), 1), ((1, 1), 1)])
    with pytest.raises(HypothesisRejected,
                       match=r"^need more than lam\^2 \+ lam = 6 uniform directions"):
        dichotomy_check(T, 2)


# -- point detector ---------------------------------------------------------


def test_point_detector_counts_lines_through_the_pencil():
    T = PointMultiset(K5, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    R = ProjPoint.affine(K5, 0, 0)
    det = build_point_detector(T, reports, R)
    profile = gcd_profile(det.f, det.g)
    inv = det.collineation.inverse()
    for y in K5.elements():
        pre = inv.apply_point(ProjPoint(K5, 1, y, 0))
        idx = index_of_point(reports, pre).count
        assert profile.k[y] == len(reports) - idx
    # R itself is one of the pencil's points
    imgs = {y: inv.apply_point(ProjPoint(K5, 1, y, 0)) for y in K5.elements()}
    assert R in imgs.values()


def test_point_detector_bound_holds_at_every_anchor():
    T = PointMultiset(K7, [((0, 0), 1), ((1, 1), 1)])
    reports = slope_reports(T, 2)
    det = build_point_detector(T, reports, ProjPoint.affine(K7, 3, 0))
    profile = gcd_profile(det.f, det.g)
    assert profile.deg_f == len(reports)
    for y in K7.elements():
        assert gcd_degree_bound(profile, y).ok


def test_point_detector_accepts_vertical_reports():
    T = PointMultiset(K5, [((2, 3), 1)])
    # q reports including the vertical class; slope 0 left out as the spare
    reports = [r for r in uniform_directions(T, 1) if slope_of(r.direction) != 0]
    assert len(reports) == K5.q
    assert any(slope_of(r.direction) is None for r in reports)
    det = build_point_detector(T, reports, ProjPoint.affine(K5, 0, 1))
    profile = gcd_profile(det.f, det.g)
    inv = det.collineation.inverse()
    for y in K5.elements():
        pre = inv.apply_point(ProjPoint(K5, 1, y, 0))
        assert profile.k[y] == len(reports) - index_of_point(reports, pre).count


# -- cost guard: operands are checked where they enter, not per operation


def _count_checks(monkeypatch, run):
    """How many GF.check calls run() makes (a count, not a timing)."""
    calls = [0]
    check = GF.check

    def counted(self, a):
        calls[0] += 1
        return check(self, a)

    monkeypatch.setattr(GF, "check", counted)
    result = run()
    return calls[0], result


def _planted_q31():
    K = field_create(31)
    return gen_planted(K, [(1, 2), (3, 5), (7, 11)], [1, 1, 1], 1).multiset


def test_lower_bound_checks_elements_at_the_edges(monkeypatch):
    # a check per field operation made 118,046 calls here
    T = _planted_q31()
    reports = [r for r in uniform_directions(T, 3) if slope_of(r.direction) is not None]
    calls, report = _count_checks(
        monkeypatch, lambda: renitent_lower_bound_check(T, reports))
    assert report.ok and report.count == 91
    assert calls < 10_000


def test_dichotomy_checks_elements_at_the_edges(monkeypatch):
    # a check per field operation made 13,877 calls here
    T = _planted_q31()
    calls, report = _count_checks(monkeypatch, lambda: dichotomy_check(T, 3))
    assert report.ok
    assert calls < 2_000
