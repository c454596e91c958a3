"""The classification, and the bounds built on it, under collineations
of AG(2, q).

An affine map, and the Frobenius map x -> x^p applied to each
coordinate, send lines to lines and parallel classes to parallel
classes, and keep how many points of a multiset T each line holds.  So
classifying the image T' of T must give the image of the classification
of T: the uniform directions mapped, with the same lambda_d and m_d, and
the renitent lines mapped (by apply_line for an affine map, coordinate by
coordinate for Frobenius) with the same counts t.

T' is built here with the field's digit-vector arithmetic (_add_raw,
_mul_raw, _pow_raw), not with its kernels, so the relation checks the
kernels, the intercepts and the renitent lines of uniform_directions
without repeating any of their code.  The deficiency bound and the index
dichotomy read only the classification and the incidences of its
renitent lines, so they must come out the same on T' with every
direction and point mapped, and reject T' exactly when they reject T.
The lower bound counts the renitent lines on a set E of uniform slope
directions twice, from the reports and from the gcd profile of the slope
detector, so both counts must come out the same on T' over the image of
E, for every E the map keeps off the vertical direction.  The envelope
constructions are rational over GF(p) in the coordinates of T, so under
Frobenius the curve of T' is the curve of T with x -> x^p applied to
every coefficient, and verify_envelope gives the same verdicts on the
mapped directions and lines.  Under an affine map that fixes the vertical
direction the curve of T' is the curve of T up to a scalar, once its
dual coordinates go through the linear substitution that sends the dual
point of each line to that of its image.

Every check reads the multiplicities mod p only, so p more copies of a
point, one of T or a new one, change no report, curve, verdict, count or
gcd profile.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from renitent import (
    Collineation,
    HypothesisRejected,
    PointMultiset,
    ProjLine,
    ProjPoint,
    TriHomPoly,
    all_directions,
    build_slope_detector,
    deficiency_bound_check,
    dichotomy_check,
    envelope_general,
    envelope_regular,
    envelope_weighted,
    field_create,
    gcd_profile,
    gen_planted,
    gen_random,
    renitent_lower_bound_check,
    scan_weight_classes,
    slope_of,
    uniform_directions,
    verify_envelope,
)
from renitent.cli import _pick_regular

FIELDS = [(7, 1), (3, 2), (13, 1), (2, 4), (5, 2), (3, 3), (31, 1), (7, 2), (2, 6)]


def _field_id(pe):
    return f"q{pe[0] ** pe[1]}"


@st.composite
def instances(draw, K, lams=None):
    """(T, lam): a planted or a gen_random set, and lam in lams, by default
    1 or (q - 1) // 2."""
    lam = draw(st.sampled_from(sorted(lams or {1, (K.q - 1) // 2})))
    if draw(st.booleans()):
        k = draw(st.integers(1, min(3, K.p - 1)))
        element = st.integers(0, K.q - 1)
        points = draw(st.lists(st.tuples(element, element), min_size=k, max_size=k,
                               unique=True))
        weights = draw(st.lists(st.integers(1, K.p - 1), min_size=k, max_size=k))
        return gen_planted(K, points, weights).multiset, lam
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return gen_random(K, seed, draw(st.sampled_from([0.05, 0.3]))), lam


@st.composite
def affine_maps(draw, K):
    """A Collineation with last row (0, 0, 1) and an invertible linear part."""
    a, b, c, d, e, f = draw(st.lists(st.integers(0, K.q - 1), min_size=6, max_size=6))
    assume(K._mul_raw(a, e) != K._mul_raw(b, d))
    return Collineation(K, ((a, b, c), (d, e, f), (0, 0, 1)))


def raw_affine(K, g):
    """The affine map g on affine points, in digit-vector arithmetic."""
    (a, b, c), (d, e, f), _ = g.matrix
    add, mul = K._add_raw, K._mul_raw

    def move(x, y):
        return (add(add(mul(a, x), mul(b, y)), c), add(add(mul(d, x), mul(e, y)), f))

    return move


def image(T, point_map):
    """The multiset of the images of T's points, with their multiplicities."""
    return PointMultiset(T.field, [(point_map(a, b), m) for (a, b), m in T.items()])


def classification(reports, direction_map, line_map):
    """{mapped direction: (lambda_d, m_d, {(mapped renitent line, t)})}."""
    return {direction_map(r.direction):
            (r.lambda_d, r.m_d, frozenset((line_map(e.line), e.t) for e in r.renitent))
            for r in reports}


def unchanged(x):
    return x


# The dichotomy needs more than lam^2 + lam uniform directions, so it
# rejects every set of these fields at lam = (q - 1) // 2.
BOUND_LAMS = (1, 2)


def _rejected_or(check, *args):
    try:
        return check(*args)
    except HypothesisRejected:
        return None


def bound_reports(T, lam, point_map):
    """The deficiency and dichotomy checks of T with every direction and
    point sent through point_map, each None when it rejects T:
    (total, bound, pass, {direction: lambda_d}) and (uniform directions,
    renitent lines, low, high, {high point: index}, {offender: index})."""
    reports = uniform_directions(T, lam)
    # with no uniform direction, check --bound deficiency rejects as well
    rep = _rejected_or(deficiency_bound_check, reports, lam) if reports else None
    deficiency = None if rep is None else (
        rep.total_deficit, rep.bound, rep.ok,
        {point_map(d): ld for d, ld in rep.per_direction})
    rep = _rejected_or(dichotomy_check, T, lam)
    dichotomy = None if rep is None else (
        rep.n_uniform, rep.n_lines, rep.low, rep.high,
        {point_map(P): i for P, i in rep.high_points},
        {point_map(P): i for P, i in rep.offenders})
    return deficiency, dichotomy


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_affine_image_of_the_classification(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K))
    g = data.draw(affine_maps(K))
    mapped = image(T, raw_affine(K, g))
    assert mapped.size == T.size and mapped.support_size == T.support_size
    want = classification(uniform_directions(T, lam), g.apply_point, g.apply_line)
    assert classification(uniform_directions(mapped, lam), unchanged, unchanged) == want


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_frobenius_image_of_the_classification(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K))

    def frob(x):
        return K._pow_raw(x, K.p)

    mapped = image(T, lambda x, y: (frob(x), frob(y)))
    want = classification(uniform_directions(T, lam),
                          lambda pt: ProjPoint(K, *map(frob, pt.coords)),
                          lambda line: ProjLine(K, *map(frob, line.coords)))
    assert classification(uniform_directions(mapped, lam), unchanged, unchanged) == want


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_affine_image_of_the_bounds(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))
    g = data.draw(affine_maps(K))
    mapped = image(T, raw_affine(K, g))
    assert bound_reports(mapped, lam, unchanged) == bound_reports(T, lam, g.apply_point)


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_frobenius_image_of_the_bounds(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))

    def frob(x):
        return K._pow_raw(x, K.p)

    mapped = image(T, lambda x, y: (frob(x), frob(y)))
    want = bound_reports(T, lam, lambda pt: ProjPoint(K, *map(frob, pt.coords)))
    assert bound_reports(mapped, lam, unchanged) == want


# The lower bound builds a gcd detector; these fields keep its examples fast.
LOWER_BOUND_FIELDS = [pe for pe in FIELDS if pe[0] ** pe[1] <= 27]


def lower_bound_report(T, lam, directions):
    """(count, gcd_count, bound, pass) of the lower bound on the uniform
    directions of T among `directions`, None when none is uniform or the
    check rejects them."""
    reports = [r for r in uniform_directions(T, lam) if r.direction in directions]
    rep = _rejected_or(renitent_lower_bound_check, T, reports) if reports else None
    return None if rep is None else (rep.count, rep.gcd_count, rep.bound, rep.ok)


@pytest.mark.parametrize("pe", LOWER_BOUND_FIELDS, ids=_field_id)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_affine_image_of_the_lower_bound(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))
    g = data.draw(affine_maps(K))
    mapped = image(T, raw_affine(K, g))
    # E: the slope directions whose images are slope directions too
    E = {d for d in all_directions(K)
         if slope_of(d) is not None and slope_of(g.apply_point(d)) is not None}
    want = lower_bound_report(T, lam, E)
    assert lower_bound_report(mapped, lam, {g.apply_point(d) for d in E}) == want


@pytest.mark.parametrize("pe", LOWER_BOUND_FIELDS, ids=_field_id)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_frobenius_image_of_the_lower_bound(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))

    def frob(x):
        return K._pow_raw(x, K.p)

    mapped = image(T, lambda x, y: (frob(x), frob(y)))
    # Frobenius fixes the vertical direction, so E is every slope direction
    E = {d for d in all_directions(K) if slope_of(d) is not None}
    assert lower_bound_report(mapped, lam, E) == lower_bound_report(T, lam, E)


# Frobenius is the identity on a prime field.
EXTENSION_FIELDS = [pe for pe in FIELDS if pe[1] > 1]


def envelope_reports(T, lam, coeff_map, point_map, line_map):
    """The regular, weighted and general envelopes of T, chosen as the CLI
    chooses their directions, each None when it rejects T: the curve's
    terms and the verify_envelope verdicts, with every coefficient,
    direction and renitent line sent through the maps, plus the scanned
    outcomes and the line weights of the weighted curve and the lead of
    the general one."""
    K = T.field
    candidates = [r for r in uniform_directions(T, lam) if r.lambda_d > 0]
    slopes = [r for r in candidates if slope_of(r.direction) is not None]

    def mapped(curve, reports, mults=None):
        verdicts = {point_map(d.direction): (d.pencil_contained, frozenset(
            (line_map(rc.line), rc.expected, rc.actual, rc.exact, rc.ok) for rc in d.roots))
            for d in verify_envelope(curve, reports, mults).directions}
        return {m: coeff_map(c) for m, c in curve.poly.terms.items()}, verdicts

    def regular():
        used = _pick_regular(K, candidates)[0]
        return mapped(envelope_regular(T, used), used)

    def weighted():
        used = candidates if len(candidates) == K.q + 1 else slopes
        outcomes, c = scan_weight_classes(used, K.p, min(K.q - 2, K.p - 1))
        if c is None:
            return outcomes
        curve, mults = envelope_weighted(T, used, c)
        return (outcomes, mapped(curve, used, mults),
                {line_map(line): w for line, w in mults.items()})

    def general():
        curve = envelope_general(T, slopes, lam)
        return mapped(curve, slopes), [coeff_map(c) for c in curve.lead.coeffs]

    return tuple(_rejected_or(build) if slopes else None
                 for build in (regular, weighted, general))


@pytest.mark.parametrize("pe", EXTENSION_FIELDS, ids=_field_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_frobenius_image_of_the_envelopes(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))   # lam <= 2 keeps the general curve small

    def frob(x):
        return K._pow_raw(x, K.p)

    mapped = image(T, lambda x, y: (frob(x), frob(y)))
    want = envelope_reports(T, lam, frob, lambda pt: ProjPoint(K, *map(frob, pt.coords)),
                            lambda line: ProjLine(K, *map(frob, line.coords)))
    assert envelope_reports(mapped, lam, unchanged, unchanged, unchanged) == want


def slope_profile(T, lam):
    """The gcd profile of T's slope detector on its uniform slope
    directions, None when there is none."""
    reports = [r for r in uniform_directions(T, lam) if slope_of(r.direction) is not None]
    if not reports:
        return None
    det = build_slope_detector(T, reports)
    return gcd_profile(det.f, det.g).to_json()


@pytest.mark.parametrize("pe", FIELDS, ids=_field_id)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_p_copies_of_a_point_change_nothing(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))
    support = [pt for pt, _ in T.items()]
    if support and data.draw(st.booleans(), label="onto the support"):
        point = data.draw(st.sampled_from(support))
    else:
        element = st.integers(0, K.q - 1)
        point = data.draw(st.tuples(element, element).filter(lambda pt: pt not in support))
    padded = PointMultiset(K, [*T.items(), (point, K.p)])
    assert padded.size == T.size + K.p
    for lam_ in {lam, 1, (K.q - 1) // 2}:
        assert ([r.to_json() for r in uniform_directions(padded, lam_)]
                == [r.to_json() for r in uniform_directions(T, lam_)])
    assert bound_reports(padded, lam, unchanged) == bound_reports(T, lam, unchanged)
    assert (envelope_reports(padded, lam, unchanged, unchanged, unchanged)
            == envelope_reports(T, lam, unchanged, unchanged, unchanged))
    if K.q <= 27:   # the detectors of LOWER_BOUND_FIELDS
        E = {d for d in all_directions(K) if slope_of(d) is not None}
        assert lower_bound_report(padded, lam, E) == lower_bound_report(T, lam, E)
        assert slope_profile(padded, lam) == slope_profile(T, lam)


def substitute(C, forms):
    """C(forms[0], forms[1], forms[2]) for three linear forms."""
    K = C.field
    powers = []
    for form in forms:
        pw = [TriHomPoly(K, 0, {(0, 0, 0): 1})]
        for _ in range(C.degree):
            pw.append(pw[-1] * form)
        powers.append(pw)
    out = TriHomPoly(K, C.degree)
    for (i, j, k), c in C.terms.items():
        out = out + (powers[0][i] * powers[1][j] * powers[2][k]).scale(c)
    return out


def envelope_builds(T, lam):
    """(build, reports) for the regular, weighted and general envelopes,
    on the directions the CLI chooses; build(T, reports) returns the curve."""
    K = T.field
    candidates = [r for r in uniform_directions(T, lam) if r.lambda_d > 0]
    slopes = [r for r in candidates if slope_of(r.direction) is not None]
    if not slopes:
        return []
    builds = [(lambda T, rs: envelope_general(T, rs, lam), slopes)]
    try:
        builds.append((envelope_regular, _pick_regular(K, candidates)[0]))
    except HypothesisRejected:
        pass
    used = candidates if len(candidates) == K.q + 1 else slopes
    c = scan_weight_classes(used, K.p, min(K.q - 2, K.p - 1))[1]
    if c is not None:
        builds.append((lambda T, rs: envelope_weighted(T, rs, c)[0], used))
    return builds


# The substituted curves have class up to p - 1; these fields keep it small.
AFFINE_ENVELOPE_FIELDS = [pe for pe in FIELDS if pe[0] ** pe[1] <= 27]


@pytest.mark.parametrize("pe", AFFINE_ENVELOPE_FIELDS, ids=_field_id)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_affine_image_of_the_envelopes(pe, data):
    K = field_create(*pe)
    T, lam = data.draw(instances(K, BOUND_LAMS))
    nonzero, element = st.integers(1, K.q - 1), st.integers(0, K.q - 1)
    a, d = data.draw(nonzero), data.draw(nonzero)
    c, e, f = data.draw(st.tuples(element, element, element))
    # phi(x, y) = (ax + e, cx + dy + f) fixes the vertical direction and
    # sends slope s to (c + ds)/a
    g = Collineation(K, ((a, 0, e), (c, d, f), (0, 0, 1)))
    mapped = image(T, raw_affine(K, g))
    image_reports = {r.direction: r for r in uniform_directions(mapped, lam)}
    # the line y = sx + alpha maps to slope (c + ds)/a and intercept
    # d alpha - (ed/a)s + f - ec/a, so these forms send each dual point
    # (alpha : s : 1) of T to the dual point of its image
    add, mul, minus = K._add_raw, K._mul_raw, K.from_int(-1)
    d_a, c_a = mul(d, K._inv_raw(a)), mul(c, K._inv_raw(a))
    forms = (TriHomPoly.linear(K, d, mul(minus, mul(e, d_a)), add(f, mul(minus, mul(e, c_a)))),
             TriHomPoly.linear(K, 0, d_a, c_a),
             TriHomPoly.linear(K, 0, 0, 1))
    for build, reports in envelope_builds(T, lam):
        want = _rejected_or(build, T, reports)
        got = _rejected_or(build, mapped,
                           [image_reports[g.apply_point(r.direction)] for r in reports])
        assert (want is None) == (got is None)
        if want is not None:
            assert substitute(got.poly, forms).proportional_to(want.poly)
