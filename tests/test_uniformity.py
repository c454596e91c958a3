"""Multiset intersection profiles, uniform directions, renitent lines."""

import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    PointMultiset,
    ProjLine,
    ProjPoint,
    all_directions,
    classify_direction,
    concurrency_point,
    dump_points,
    field_create,
    incident,
    intercept_profile,
    line_at_infinity,
    line_count,
    parallel_class,
    parse_points,
    slope_direction,
    uniform_directions,
    vertical_direction,
)
from renitent.errors import InputError
from renitent.generators import gen_random
from renitent.plane import slope_of
from renitent.uniformity import DirectionReport, RenitentLine, _class_line, _classify_all

from conftest import SMALL_FIELDS

K5 = field_create(5)


# -- multiset plumbing -------------------------------------------------------


def test_multiset_merges_repeated_entries():
    T = PointMultiset(K5, [((0, 0), 1), ((0, 0), 2), ((1, 1), 1)])
    assert T.multiplicity(0, 0) == 3
    assert T.size == 4
    assert T.support_size == 2
    assert T.items() == [((0, 0), 3), ((1, 1), 1)]


def test_multiset_rejects_bad_multiplicity():
    with pytest.raises(InputError):
        PointMultiset(K5, [((0, 0), 0)])
    with pytest.raises(InputError):
        PointMultiset(K5, [((0, 0), -1)])


def test_parse_points_format():
    text = "# header\n0 0 2\n1 1\n\n2 3 1 # trailing comment\n"
    T = parse_points(K5, text)
    assert T.items() == [((0, 0), 2), ((1, 1), 1), ((2, 3), 1)]


def test_parse_points_rejects_bad_lines():
    for bad, message in [("0", r"^line 1: expected 'a b' or 'a b m', got '0'$"),
                         ("0 0 0", r"^line 1: multiplicity must be positive$"),
                         ("0 9", r"^line 1: coordinates out of range for GF\(5\)$"),
                         ("x y", r"^line 1: non-integer field in 'x y'$"),
                         ("0 0 1 1", r"^line 1: expected 'a b' or 'a b m', got '0 0 1 1'$")]:
        with pytest.raises(InputError, match=message):
            parse_points(K5, bad)


def test_dump_parse_round_trip():
    T = PointMultiset(K5, [((4, 2), 3), ((0, 1), 1)])
    assert parse_points(K5, dump_points(T)) == T
    assert dump_points(T) == "0 1 1\n4 2 3\n"


# -- line counts --------------------------------------------------------------


def test_single_point_on_y_axis():
    T = PointMultiset(K5, [((0, 0), 1)])
    assert line_count(T, ProjLine(K5, 1, 0, 0)) == 1


def test_empty_multiset_counts_zero():
    T = PointMultiset(K5, [])
    for d in all_directions(K5):
        for line in parallel_class(K5, d):
            assert line_count(T, line) == 0


def test_line_at_infinity_rejected():
    T = PointMultiset(K5, [((0, 0), 1)])
    with pytest.raises(InputError,
                       match=r"^the multiset is affine; \[0:0:1\] carries no points$"):
        line_count(T, line_at_infinity(K5))


points5 = st.lists(
    st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)),
              st.integers(1, 3)),
    max_size=8)


@given(points5)
def test_line_count_matches_incidence_sum(entries):
    T = PointMultiset(K5, entries)
    for d in all_directions(K5):
        for line in parallel_class(K5, d):
            brute = sum(m for (a, b), m in T.items()
                        if incident(ProjPoint.affine(K5, a, b), line))
            assert line_count(T, line) == brute


@given(points5)
def test_class_counts_sum_to_size(entries):
    T = PointMultiset(K5, entries)
    for d in all_directions(K5):
        total = sum(line_count(T, line) for line in parallel_class(K5, d))
        assert total == T.size


# -- intercept profiles ---------------------------------------------------------


def test_profile_collinear_pair():
    T = PointMultiset(K5, [((1, 2), 1), ((0, 2), 1)])
    assert intercept_profile(T, slope_direction(K5, 0)) == {2: 2}
    assert intercept_profile(T, slope_direction(K5, 1)) == {1: 1, 2: 1}


def test_vertical_profile_uses_x_coordinate():
    T = PointMultiset(K5, [((1, 2), 1), ((1, 3), 2), ((0, 0), 1)])
    assert intercept_profile(T, vertical_direction(K5)) == {1: 3, 0: 1}


@given(points5)
def test_profile_agrees_with_line_count(entries):
    T = PointMultiset(K5, entries)
    for d in all_directions(K5):
        profile = intercept_profile(T, d)
        for t, line in zip(K5.elements(), parallel_class(K5, d)):
            assert profile.get(t, 0) == line_count(T, line)


# -- classification ----------------------------------------------------------


def test_single_point_slope_one():
    T = PointMultiset(K5, [((0, 0), 1)])
    r = classify_direction(T, slope_direction(K5, 1), 1)
    assert r.m_d == 0
    assert r.lambda_d == 1
    assert r.sharp
    entry = r.renitent[0]
    assert entry.line == ProjLine(K5, 1, K5.neg(1), 0)
    assert entry.alpha == 0
    assert entry.t == 1


def test_empty_multiset_is_uniform_everywhere():
    T = PointMultiset(K5, [])
    for d in all_directions(K5):
        r = classify_direction(T, d, 1)
        assert r.m_d == 0
        assert r.lambda_d == 0
        assert not r.sharp


def test_three_points_with_distinct_intercepts():
    # slope 0 sees counts 1,1,1,0,0: residue 1 on three lines is typical
    # for lam=2 and the two empty lines are the renitent ones
    T = PointMultiset(K5, [((0, 0), 1), ((1, 1), 1), ((2, 4), 1)])
    r = classify_direction(T, slope_direction(K5, 0), 2)
    assert r is not None
    assert r.m_d == 1
    assert sorted(entry.alpha for entry in r.renitent) == [2, 3]
    assert all(entry.t == 0 for entry in r.renitent)
    assert r.sharp


def test_not_uniform_is_a_value():
    # two points per line on two lines, zero elsewhere: max residue
    # frequency is 3 < q - 1, so lam=1 yields no classification
    T = PointMultiset(K5, [((0, 0), 1), ((1, 1), 1)])
    assert classify_direction(T, slope_direction(K5, 0), 1) is None


def test_lambda_range_enforced():
    T = PointMultiset(K5, [((0, 0), 1)])
    d = slope_direction(K5, 1)
    for bad in (0, 3, -1, "2"):
        with pytest.raises(InputError,
                           match=rf"^need 0 < lam <= \(q-1\)/2 = 2, got {bad!r}$"):
            classify_direction(T, d, bad)


@given(points5, st.integers(1, 2))
def test_renitent_lines_recheck_brute_force(entries, lam):
    T = PointMultiset(K5, entries)
    for d in all_directions(K5):
        r = classify_direction(T, d, lam)
        lines = parallel_class(K5, d)
        counts = {line: line_count(T, line) % K5.p for line in lines}
        if r is None:
            assert all(sum(1 for c in counts.values() if c == m) < K5.q - lam
                       for m in range(K5.p))
            continue
        expected = {line for line, c in counts.items() if c != r.m_d}
        assert {entry.line for entry in r.renitent} == expected
        assert len(expected) <= lam
        for entry in r.renitent:
            assert counts[entry.line] == entry.t


# -- direction scans ------------------------------------------------------------


def test_single_point_scan():
    T = PointMultiset(K5, [((2, 3), 1)])
    reports = uniform_directions(T, 1)
    assert len(reports) == K5.q + 1
    P = ProjPoint.affine(K5, 2, 3)
    for r in reports:
        assert r.lambda_d == 1
        assert incident(P, r.renitent[0].line)


def test_full_plane_has_no_renitent_lines():
    K3 = field_create(3)
    T = PointMultiset(K3, [((a, b), 1) for a in K3.elements() for b in K3.elements()])
    reports = uniform_directions(T, 1)
    assert len(reports) == K3.q + 1
    for r in reports:
        assert r.m_d == 0  # each line holds q points, q = 0 mod p
        assert r.lambda_d == 0


def test_two_point_multiset_scan_at_lambda_two():
    T = PointMultiset(K5, [((0, 0), 1), ((1, 1), 1)])
    reports = uniform_directions(T, 2)
    assert len(reports) == K5.q + 1
    by_dir = {r.direction: r for r in reports}
    assert by_dir[slope_direction(K5, 1)].lambda_d == 1  # collinear slope
    total = sum(r.lambda_d for r in reports)
    assert total == 2 * K5.q + 1


def test_report_json_shape():
    T = PointMultiset(K5, [((0, 0), 1)])
    r = classify_direction(T, slope_direction(K5, 1), 1)
    js = r.to_json()
    assert js["direction"] == "inf:1"
    assert js["uniform"] is True
    assert js["m_d"] == 0 and js["lambda_d"] == 1 and js["sharp"] is True
    # [1:-1:0] canonicalizes by scaling the last nonzero coordinate to 1
    assert js["renitent"] == [{"line": "[4:1:0]", "alpha": 0, "t": 1}]


# -- sparse classification against the dense oracle ---------------------------------


def _dense_classify_direction(T, direction, lam):
    """classify_direction as it was before it ran at support size: counts
    every one of the q lines, then scans every intercept for renitent ones."""
    K = T.field
    s = slope_of(direction)
    profile = intercept_profile(T, direction)
    counts = {t: profile.get(t, 0) for t in K.elements()}
    freq = Counter(c % K.p for c in counts.values())
    typical = [r for r, n in freq.items() if n >= K.q - lam]
    if not typical:
        return None
    m_d = typical[0]
    renitent = tuple(
        RenitentLine(_class_line(K, s, t), t, counts[t] % K.p)
        for t in K.elements() if counts[t] % K.p != m_d)
    return DirectionReport(direction=direction, bound=lam, m_d=m_d, renitent=renitent)


def _assert_matches_dense(T, lam):
    """Compare every direction with the oracle; return how many reports
    have m_d != 0 and an empty renitent line (the full-scan branch)."""
    empty_renitent = 0
    for d in all_directions(T.field):
        fast = classify_direction(T, d, lam)
        slow = _dense_classify_direction(T, d, lam)
        assert fast == slow
        if fast is None:
            continue
        assert fast.to_json() == slow.to_json()
        profile = intercept_profile(T, d)
        if fast.m_d != 0 and any(r.alpha not in profile for r in fast.renitent):
            empty_renitent += 1
    return empty_renitent


# q = 2 has no lambda with 0 < lambda <= (q - 1)/2, so it cannot be classified.
SPARSE_LADDER = [pe for pe in SMALL_FIELDS if pe[0] ** pe[1] > 2] + [
    (3, 3), (7, 2), (2, 6), (3, 4), (2, 7)]


@pytest.mark.parametrize("pe", SPARSE_LADDER, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_sparse_classification_matches_dense_oracle(pe):
    K = field_create(*pe)
    # the dense end of the range runs below q = 64; above, it would cost
    # seconds per field
    densities = (0.02, 0.1, 0.3, 0.6, 1.0) if K.q < 64 else (0.02, 0.1, 0.3)
    for density in densities:
        T = gen_random(K, 0, density)
        for lam in sorted({1, (K.q - 1) // 2}):
            _assert_matches_dense(T, lam)


def test_sparse_classification_with_an_empty_renitent_line():
    """m_d != 0 makes every empty line renitent, and those lines are not in
    the profile: the branch that still scans all q intercepts."""
    K = field_create(3, 3)
    T = gen_random(K, 0, 0.1)
    assert _assert_matches_dense(T, (K.q - 1) // 2) > 0


def test_classification_memory_stays_at_support_size_on_a_large_field():
    """Two points at q = 2^10: a report keeps only its renitent lines, so
    classifying all q + 1 directions holds O(q) state, not one count per
    intercept per direction (about 60 MB here)."""
    K = field_create(2, 10)
    T = PointMultiset(K, {(1, 2): 1, (3, 5): 1})
    tracemalloc.start()
    try:
        reports = uniform_directions(T, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == K.q + 1
    assert sum(r.lambda_d for r in reports) == 2 * K.q
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# -- the nonempty-line refusal against brute force ----------------------------------

# _report refuses a class with n nonempty lines when n < q - lam and
# p n - |T| > lam (p - 1), before it counts residues.  The oracle below
# counts every line of every class with line_count, so it shares nothing
# with the profile or the refusal.
REFUSAL_FIELDS = [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1),
                  (2, 4), (5, 2), (3, 3), (2, 5)]


def _brute_force_reports(T, lam_values):
    """{lam: [report or None per direction]} from line_count over parallel_class."""
    K = T.field
    counts = [[line_count(T, line) % K.p for line in parallel_class(K, d)]
              for d in all_directions(K)]
    out = {}
    for lam in lam_values:
        reports = []
        for d, residues in zip(all_directions(K), counts):
            typical = [m for m in range(K.p) if residues.count(m) >= K.q - lam]
            if not typical:
                reports.append(None)
                continue
            s = slope_of(d)
            renitent = tuple(RenitentLine(_class_line(K, s, t), t, c)
                             for t, c in zip(K.elements(), residues) if c != typical[0])
            reports.append(DirectionReport(direction=d, bound=lam, m_d=typical[0],
                                           renitent=renitent))
        out[lam] = reports
    return out


@st.composite
def refusal_multisets(draw):
    K = field_create(*draw(st.sampled_from(REFUSAL_FIELDS)))
    p = K.p
    support = draw(st.sets(st.tuples(st.integers(0, K.q - 1), st.integers(0, K.q - 1)),
                           min_size=1, max_size=3 * K.q))
    # 1 most of the time (the sparse sets the refusal fires on), else a
    # multiplicity of p or more, often a multiple of p
    mult = st.one_of(st.just(1), st.just(1), st.integers(p, 3 * p),
                     st.sampled_from([p, 2 * p]))
    return PointMultiset(K, {pt: draw(mult) for pt in sorted(support)})


@settings(max_examples=60, deadline=None)
@given(refusal_multisets())
def test_refusal_agrees_with_brute_force(T):
    K = T.field
    lam_values = range(1, (K.q - 1) // 2 + 1)
    want = _brute_force_reports(T, lam_values)
    directions = all_directions(K)
    for lam in lam_values:
        got = [r for _, r in _classify_all(T, lam)]
        assert got == want[lam], lam
        assert [r and r.to_json() for r in got] == [r and r.to_json() for r in want[lam]]
        assert [classify_direction(T, d, lam) for d in directions] == want[lam]


@pytest.mark.parametrize("pe, entries", [
    # p n - |T| = 3 - 1 = lam (p - 1): on the bound, so uniform (> not >=)
    ((3, 1), {(1, 2): 1}),
    # m_d = 1 with n = q - lam = 2 nonempty lines (< not <=)
    ((3, 1), {(0, 1): 1, (2, 0): 1}),
    # |T| = 3 but support 2: p n - |T| = 1 = lam (p - 1), p n - support = 2
    ((2, 2), {(0, 0): 2, (2, 1): 1}),
], ids=["strict-bound", "strict-lines", "size-not-support"])
def test_refusal_keeps_uniform_witnesses_on_its_boundary(pe, entries):
    K = field_create(*pe)
    T = PointMultiset(K, entries)
    d = slope_direction(K, 0)
    want = _brute_force_reports(T, [1])[1][all_directions(K).index(d)]
    assert want is not None and want.lambda_d == 1
    assert classify_direction(T, d, 1) == want
    assert dict(_classify_all(T, 1))[d] == want


# -- renitent lines in closed form -------------------------------------------------


@pytest.mark.parametrize("pe", [(7, 1), (2, 3), (2, 4), (3, 2), (5, 2)],
                         ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_class_lines_match_the_checked_constructor(pe):
    """_class_line writes the canonical coordinates of [s : -1 : t] and
    [1 : 0 : -t] directly; ProjLine scales them through _canonical."""
    K = field_create(*pe)
    minus_one = K.neg(1)
    for t in K.elements():
        line = _class_line(K, None, t)
        assert line == ProjLine(K, 1, 0, K.neg(t))
        assert line.coords == ProjLine(K, 1, 0, K.neg(t)).coords
        assert hash(line) == hash(ProjLine(K, 1, 0, K.neg(t)))
        for s in K.elements():
            line = _class_line(K, s, t)
            assert line.coords == ProjLine(K, s, minus_one, t).coords, (s, t)
            assert line == ProjLine(K, s, minus_one, t)
            assert type(line) is ProjLine and line.field is K


# -- concurrency ------------------------------------------------------------------


def test_single_point_renitent_lines_concur_at_the_point():
    T = PointMultiset(K5, [((2, 3), 1)])
    lines = [r.renitent[0].line for r in uniform_directions(T, 1)]
    assert concurrency_point(lines) == ProjPoint.affine(K5, 2, 3)


def test_triangle_sides_do_not_concur():
    sides = [ProjLine(K5, 0, 1, 0),          # y = 0
             ProjLine(K5, 1, 0, 0),          # x = 0
             ProjLine(K5, 1, 1, K5.neg(1))]  # x + y = 1
    assert concurrency_point(sides) is None


def test_concurrency_needs_two_distinct_lines():
    line = ProjLine(K5, 1, 0, 0)
    with pytest.raises(InputError, match=r"^need at least two distinct lines$"):
        concurrency_point([line])
    with pytest.raises(InputError, match=r"^need at least two distinct lines$"):
        concurrency_point([line, line])
