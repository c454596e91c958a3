"""Projective plane geometry: canonical coordinates, incidence, parallel
classes, collineations, text formats."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    Collineation,
    ProjLine,
    ProjPoint,
    all_directions,
    field_create,
    format_line,
    format_point,
    frame_collineation,
    gen_planted,
    incident,
    line_at_infinity,
    line_meet,
    line_through,
    parallel_class,
    parse_point,
    slope_direction,
    slope_of,
    uniform_directions,
    vertical_direction,
)
from renitent.errors import HypothesisRejected, InputError, RenitentError
from renitent.gf import GF
from renitent.uniformity import check_reports

K3 = field_create(3)
K5 = field_create(5)


def all_points(K):
    pts = [ProjPoint.affine(K, a, b) for a in K.elements() for b in K.elements()]
    return pts + list(all_directions(K))


def all_lines(K):
    seen = []
    for a in K.elements():
        for b in K.elements():
            for c in K.elements():
                if a == b == c == 0:
                    continue
                line = ProjLine(K, a, b, c)
                if line not in seen:
                    seen.append(line)
    return seen


# -- canonical form ---------------------------------------------------------


def test_canonical_scales_last_nonzero_to_one():
    P = ProjPoint(K5, 2, 4, 3)
    x, y, z = P.coords
    assert z == 1
    # same projective point, any nonzero scalar
    assert P == ProjPoint(K5, 4, 3, 1)


def test_equal_projective_objects_compare_equal():
    assert ProjPoint(K5, 2, 4, 0) == ProjPoint(K5, 3, 1, 0)
    assert len({ProjPoint(K5, 2, 4, 0), ProjPoint(K5, 3, 1, 0)}) == 1
    assert ProjLine(K5, 2, 0, 0) == ProjLine(K5, 1, 0, 0)


def test_direction_canonical_form():
    # (1:d:0) with d != 0 scales its last nonzero coordinate (y) to 1
    d = slope_direction(K5, 3)
    assert d.coords == (K5.inv(3), 1, 0)
    assert slope_of(d) == 3
    assert slope_of(vertical_direction(K5)) is None


def test_slope_of_rejects_affine_points():
    with pytest.raises(InputError, match=r" is not at infinity$"):
        slope_of(ProjPoint.affine(K5, 1, 2))


def test_direction_order():
    dirs = all_directions(K5)
    assert len(dirs) == K5.q + 1
    assert [slope_of(d) for d in dirs] == list(K5.elements()) + [None]


@pytest.mark.parametrize("p, e", [
    (2, 1), (3, 1), (2, 2), (3, 2), (2, 3),
    # the classification ladder: 31, 49, 64, 81, 121, 125, 128, 243, 256, 289
    (31, 1), (7, 2), (2, 6), (3, 4), (11, 2), (5, 3), (2, 7), (3, 5), (2, 8), (17, 2)])
def test_all_directions_is_one_cached_tuple(p, e):
    K = field_create(p, e)
    dirs = all_directions(K)
    assert type(dirs) is tuple
    assert all_directions(K) is dirs
    fresh = [ProjPoint(K, 1, d, 0) for d in K.elements()] + [ProjPoint(K, 0, 1, 0)]
    assert list(dirs) == fresh
    assert [slope_of(d) for d in dirs] == list(K.elements()) + [None]


# -- incidence ---------------------------------------------------------------


def test_origin_on_y_axis():
    assert incident(ProjPoint(K5, 0, 0, 1), ProjLine(K5, 1, 0, 0))


def test_directions_on_line_at_infinity():
    for d in all_directions(K5):
        assert incident(d, line_at_infinity(K5))


def test_affine_point_on_its_slope_line():
    for a in K5.elements():
        for b in K5.elements():
            for d in K5.elements():
                t = K5.sub(b, K5.mul(a, d))
                assert incident(ProjPoint.affine(K5, a, b),
                                ProjLine(K5, d, K5.neg(1), t))


# -- joining and meeting ------------------------------------------------------


def test_line_through_direction_and_affine_point():
    d, a, b = 2, 3, 1
    t = K5.sub(b, K5.mul(a, d))
    line = line_through(slope_direction(K5, d), ProjPoint.affine(K5, a, b))
    assert line == ProjLine(K5, d, K5.neg(1), t)


def test_line_through_origin_and_unit_x():
    line = line_through(ProjPoint(K5, 0, 0, 1), ProjPoint(K5, 1, 0, 1))
    assert line == ProjLine(K5, 0, 1, 0)


def test_line_through_equal_points_rejected():
    P = ProjPoint.affine(K5, 1, 2)
    with pytest.raises(InputError, match=r"^no unique line through .* twice$"):
        line_through(P, ProjPoint(K5, 2, 4, 2))


@given(st.integers(0, 5 ** 2 + 5), st.integers(0, 5 ** 2 + 5))
def test_line_through_incident_with_both(i, j):
    pts = all_points(K5)
    P, Q = pts[i], pts[j]
    if P == Q:
        return
    line = line_through(P, Q)
    assert incident(P, line) and incident(Q, line)


def test_line_meet_of_parallel_lines_is_their_direction():
    l1 = ProjLine(K5, 2, K5.neg(1), 0)
    l2 = ProjLine(K5, 2, K5.neg(1), 3)
    assert line_meet(l1, l2) == slope_direction(K5, 2)


# -- parallel classes ---------------------------------------------------------


def test_horizontal_class_gf3():
    lines = parallel_class(K3, slope_direction(K3, 0))
    assert len(lines) == 3
    assert lines == [ProjLine(K3, 0, K3.neg(1), t) for t in K3.elements()]


def test_vertical_class():
    lines = parallel_class(K3, vertical_direction(K3))
    assert lines == [ProjLine(K3, 1, 0, K3.neg(t)) for t in K3.elements()]


@pytest.mark.parametrize("pe", [(2, 1), (7, 1), (2, 3), (3, 2), (5, 2)],
                         ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_parallel_class_matches_the_checked_constructor(pe):
    """parallel_class writes canonical coordinates directly; the checked
    ProjLine of [s : -1 : t] or [1 : 0 : -t] scales them itself."""
    K = field_create(*pe)
    for d in all_directions(K):
        s = slope_of(d)
        if s is None:
            want = [ProjLine(K, 1, 0, K.neg(t)) for t in K.elements()]
        else:
            want = [ProjLine(K, s, K.neg(1), t) for t in K.elements()]
        got = parallel_class(K, d)
        assert got == want, d
        assert [line.coords for line in got] == [line.coords for line in want]
        assert all(type(line) is ProjLine and line.field is K for line in got)


def test_class_lines_meet_only_at_their_direction(small_field):
    K = small_field
    for d in all_directions(K):
        lines = parallel_class(K, d)
        assert len(lines) == K.q
        for i in range(len(lines)):
            assert incident(d, lines[i])
            for j in range(i + 1, len(lines)):
                assert line_meet(lines[i], lines[j]) == d


def test_class_partitions_affine_points(small_field):
    K = small_field
    for d in all_directions(K):
        lines = parallel_class(K, d)
        for a in K.elements():
            for b in K.elements():
                P = ProjPoint.affine(K, a, b)
                assert sum(1 for l in lines if incident(P, l)) == 1


# -- global counts ------------------------------------------------------------


def test_plane_counts(small_field):
    K = small_field
    q = K.q
    points = all_points(K)
    lines = all_lines(K)
    assert len(points) == q * q + q + 1
    assert len(lines) == q * q + q + 1
    for line in lines:
        assert sum(1 for P in points if incident(P, line)) == q + 1


def test_two_lines_meet_once(small_field):
    K = small_field
    lines = all_lines(K)
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            P = line_meet(lines[i], lines[j])
            assert incident(P, lines[i]) and incident(P, lines[j])


# -- collineations ------------------------------------------------------------


def test_identity_fixes_everything():
    T = Collineation(K3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for P in all_points(K3):
        assert T.apply_point(P) == P
    for line in all_lines(K3):
        assert T.apply_line(line) == line


def test_coordinate_swap_moves_line_at_infinity():
    T = Collineation(K3, ((0, 0, 1), (0, 1, 0), (1, 0, 0)))  # x <-> z
    assert T.apply_line(line_at_infinity(K3)) == ProjLine(K3, 1, 0, 0)


def test_singular_matrix_rejected():
    with pytest.raises(InputError, match=r"^collineation matrix is singular$"):
        Collineation(K3, ((1, 0, 0), (2, 0, 0), (0, 0, 1)))


@given(st.integers(0, 3 ** 9 - 1))
@settings(max_examples=30, deadline=None)
def test_collineation_preserves_incidence(idx):
    entries = []
    for _ in range(9):
        entries.append(idx % 3)
        idx //= 3
    rows = (tuple(entries[0:3]), tuple(entries[3:6]), tuple(entries[6:9]))
    try:
        T = Collineation(K3, rows)
    except InputError as exc:
        assert str(exc) == "collineation matrix is singular"
        return
    for P in all_points(K3):
        for line in all_lines(K3):
            assert incident(P, line) == incident(T.apply_point(P), T.apply_line(line))


def test_inverse_round_trip():
    T = Collineation(K5, ((1, 2, 0), (0, 1, 3), (1, 0, 1)))
    U = T.inverse()
    for P in [ProjPoint.affine(K5, 2, 3), slope_direction(K5, 1)]:
        assert U.apply_point(T.apply_point(P)) == P


# -- frame for the point-index argument ---------------------------------------


def frame_postconditions(K, avoid, target):
    coll = frame_collineation(K, avoid, target)
    assert coll.apply_line(line_at_infinity(K)) == ProjLine(K, 1, 0, 0)
    img = coll.apply_point(target)
    assert img.is_at_infinity()
    assert img != vertical_direction(K)
    for d in avoid:
        assert coll.apply_point(d) != vertical_direction(K)
    return coll


def test_frame_moves_affine_target_to_infinity(small_field):
    K = small_field
    frame_postconditions(K, all_directions(K)[: K.q], ProjPoint.affine(K, 0, 0))
    frame_postconditions(K, [], ProjPoint.affine(K, 1 % K.q, 1 % K.q))


def test_frame_is_deterministic():
    avoid = all_directions(K5)[:3]
    target = ProjPoint.affine(K5, 2, 3)
    a = frame_collineation(K5, avoid, target)
    b = frame_collineation(K5, avoid, target)
    assert a.matrix == b.matrix


def test_frame_rejects_target_at_infinity():
    message = r"^no frame maps a point at infinity onto the new line at infinity$"
    with pytest.raises(HypothesisRejected, match=message):
        frame_collineation(K5, [], slope_direction(K5, 1))


def test_frame_needs_a_spare_direction():
    with pytest.raises(HypothesisRejected,
                       match=r"^every direction must stay off \(0:1:0\)$"):
        frame_collineation(K3, all_directions(K3), ProjPoint.affine(K3, 0, 0))


def test_frame_refuses_the_first_affine_point_it_is_given():
    avoid = [slope_direction(K5, 1), ProjPoint.affine(K5, 3, 4), ProjPoint.affine(K5, 1, 2)]
    with pytest.raises(InputError, match=r"^\(3:4:1\) is not a direction$"):
        frame_collineation(K5, avoid, ProjPoint.affine(K5, 0, 0))


def test_points_and_lines_hash_by_their_coordinates(monkeypatch):
    """A point's or a line's hash reads its coordinates and not its field,
    so check_reports' set of directions hashes no GF; equality still tells
    two fields, and a point from a line, apart."""
    K7 = field_create(7)
    reports = uniform_directions(gen_planted(K7, [(0, 0), (1, 3)], [1, 2]).multiset, 3)
    points, lines = all_points(K5), all_lines(K5)   # all_directions caches by field

    def refuse(self):
        raise AssertionError("a GF was hashed")

    monkeypatch.setattr(GF, "__hash__", refuse)
    check_reports(K7, reports)
    with pytest.raises(InputError, match=r"^duplicate direction"):
        check_reports(K7, reports + reports[:1])
    points = set(points)
    assert len(points) == 31 and ProjPoint.affine(K5, 1, 2) in points
    assert ProjPoint.affine(K3, 1, 2) not in points   # the same coordinates
    assert ProjLine(K5, 1, 2, 1) not in points
    assert len(set(lines)) == 31


def _det3(K, m):
    add, sub, mul = K.uadd, K.usub, K.umul
    t0 = mul(m[0][0], sub(mul(m[1][1], m[2][2]), mul(m[1][2], m[2][1])))
    t1 = mul(m[0][1], sub(mul(m[1][0], m[2][2]), mul(m[1][2], m[2][0])))
    t2 = mul(m[0][2], sub(mul(m[1][0], m[2][1]), mul(m[1][1], m[2][0])))
    return add(sub(t0, t1), t2)


def frame_by_search(K, avoid, target):
    """The frame found by search: the first middle row (r0 fastest, then
    r1, then r2) that makes the matrix invertible, sends the spare
    direction to (0:1:0) and sends no avoided direction there."""
    avoid = set(avoid)
    for d in avoid:
        if not d.is_at_infinity():
            raise InputError(f"{d!r} is not a direction")
    if target.field != K:
        raise InputError("target point uses a different context")
    if target.is_at_infinity():
        raise HypothesisRejected(
            "no frame maps a point at infinity onto the new line at infinity")
    spare = next((d for d in all_directions(K) if d not in avoid), None)
    if spare is None:
        raise HypothesisRejected("every direction must stay off (0:1:0)")
    row3 = line_through(spare, target).coords
    bad = vertical_direction(K)
    q = K.q
    for idx in range(q ** 3):
        matrix = ((0, 0, 1), (idx % q, idx // q % q, idx // (q * q)), row3)
        if _det3(K, matrix) == 0:
            continue
        coll = Collineation(K, matrix)
        if coll.apply_point(spare) == bad and all(coll.apply_point(d) != bad
                                                  for d in avoid):
            return coll
    raise HypothesisRejected("exhausted the search space")


def frame_outcome(frame, K, avoid, target):
    try:
        return frame(K, avoid, target).matrix
    except RenitentError as exc:
        return type(exc), str(exc)


def frame_cases(K, rng):
    """(avoid, target) pairs: avoid sets of size 0, 1, q/2, q (all slopes,
    leaving the vertical spare, and a random q) and q + 1; targets at the
    origin, on both axes, anywhere and at infinity; a point among the
    directions to avoid and a target over another field."""
    q = K.q
    dirs = all_directions(K)
    avoids = [[], [dirs[0]], rng.sample(dirs, 1), rng.sample(dirs, q // 2),
              dirs[:q], rng.sample(dirs, q), dirs]
    a, b = rng.randrange(1, q), rng.randrange(1, q)
    targets = [ProjPoint.affine(K, 0, 0), ProjPoint.affine(K, a, 0),
               ProjPoint.affine(K, 0, b),
               ProjPoint.affine(K, rng.randrange(q), rng.randrange(q)),
               slope_direction(K, rng.randrange(q))]
    cases = [(avoid, target) for avoid in avoids for target in targets]
    other = field_create(3 if K.p == 2 else 2)
    cases.append(([dirs[1], ProjPoint.affine(K, a, b)], targets[0]))
    cases.append(([dirs[0]], ProjPoint.affine(other, 1, 1)))
    return cases


@pytest.mark.parametrize("p, e", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2),
                                  (2, 4), (5, 2), (3, 3), (31, 1), (7, 2)])
def test_frame_matches_the_search(p, e):
    K = field_create(p, e)
    rng = random.Random(p ** e)
    vertical_spares = 0
    for avoid, target in frame_cases(K, rng):
        expected = frame_outcome(frame_by_search, K, avoid, target)
        assert frame_outcome(frame_collineation, K, avoid, target) == expected
        vertical_spares += expected[1] == (0, 1, 0)
    assert vertical_spares >= 4


# -- text formats --------------------------------------------------------------


def test_format_point_forms():
    assert format_point(ProjPoint.affine(K5, 2, 3)) == "2,3"
    assert format_point(slope_direction(K5, 4)) == "inf:4"
    assert format_point(vertical_direction(K5)) == "inf:vert"


def test_parse_point_round_trip():
    for P in all_points(K5):
        assert parse_point(K5, format_point(P)) == P


def test_parse_point_rejects_garbage():
    for bad, message in [("", r"^bad point '' \(want 'a,b' or 'inf:d'\)$"),
                         ("1", r"^bad point '1' \(want 'a,b' or 'inf:d'\)$"),
                         ("1,2,3", r"^bad point '1,2,3' \(want 'a,b' or 'inf:d'\)$"),
                         ("a,b", r"^bad point 'a,b'$"),
                         ("inf:9", r"^slope 9 out of range for GF\(5\)$"),
                         ("9,0", r"^point '9,0' out of range for GF\(5\)$"),
                         ("inf:x", r"^bad direction 'inf:x'$")]:
        with pytest.raises(InputError, match=message):
            parse_point(K5, bad)


def test_format_line():
    assert format_line(ProjLine(K5, 1, 0, 0)) == "[1:0:0]"
    assert format_line(ProjLine(K5, 2, 4, 0)) == format_line(ProjLine(K5, 3, 1, 0))
