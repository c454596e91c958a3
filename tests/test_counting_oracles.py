"""The fast paths of `counting` against the slow computations they replaced.

A detector's g is a constant plus powers w (alpha X + beta Y +
gamma)^(q-1), and its term map writes each power down in closed form;
here it is compared with repeated squaring (`BiPoly.__pow__`,
`UniPoly.__pow__`), the bumps 1 - (X - c)^(q-1) included.  The
detectors' rows g(X, y) are written in closed form too; here they are
compared with `BiPoly.eval_v`, and the gcd profiles with the
eval_v-and-`%` loop.  The degree of g is q - 1 unless the weight sums
of the forms of g's powers cancel its top level, and only then walks g's
coefficients from the top level down; here it is compared with the
largest i + j of the term map.  The dichotomy counts indices by parallel
class, one column of the plane at a time; here it is compared with the
incidence scan of every point of the plane.
"""

import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    BiPoly,
    PointMultiset,
    ProjPoint,
    UniPoly,
    all_directions,
    build_point_detector,
    build_slope_detector,
    dichotomy_check,
    field_create,
    frame_collineation,
    gcd_profile,
    gen_norm_conic,
    gen_planted,
    gen_random,
    index_of_point,
    parallel_class,
    renitent_lower_bound_check,
    slope_direction,
    slope_of,
    uniform_directions,
)
from renitent import cli, counting
from renitent.uniformity import DirectionReport, RenitentLine
from renitent.counting import DetectorPoly, _split_indices

from conftest import SMALL_FIELDS

# the sampled rungs of the q ladder: p = 2, odd p, prime and extension
LADDER = [(2, 4), (5, 2), (3, 3), (31, 1), (7, 2), (2, 6), (3, 4), (5, 3), (2, 7)]


def linear_power(K, alpha, beta, gamma, w=1):
    return BiPoly(K, DetectorPoly(K, 0, [(w, alpha, beta, gamma)]).terms)


def linear_power_by_squaring(K, alpha, beta, gamma, w=1):
    lin = BiPoly(K, {(1, 0): alpha, (0, 1): beta, (0, 0): gamma})
    return (lin ** (K.q - 1)).scale(w)


# -- (alpha X + beta Y + gamma)^(q-1) -------------------------------------------


@pytest.mark.parametrize("pe", SMALL_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_linear_power_every_coefficient_triple(pe):
    K = field_create(*pe)
    for alpha in K.elements():
        for beta in K.elements():
            for gamma in K.elements():
                assert (linear_power(K, alpha, beta, gamma)
                        == linear_power_by_squaring(K, alpha, beta, gamma)), \
                    (alpha, beta, gamma)


@pytest.mark.parametrize("pe", LADDER, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_linear_power_sampled_on_the_ladder(pe):
    K = field_create(*pe)
    rng = random.Random(K.q)
    nonzero = range(1, K.q)
    triples = [
        (rng.choice(nonzero), rng.choice(nonzero), rng.choice(nonzero)),
        (1, rng.choice(nonzero), rng.choice(nonzero)),   # slope detector shape
        (0, 1, rng.choice(nonzero)),                     # a point sent to infinity
        (rng.choice(nonzero), rng.choice(nonzero), 0),
    ]
    for alpha, beta, gamma in triples:
        w = rng.choice(nonzero)
        assert (linear_power(K, alpha, beta, gamma, w)
                == linear_power_by_squaring(K, alpha, beta, gamma, w)), \
            (alpha, beta, gamma, w)


@pytest.mark.parametrize("pe", SMALL_FIELDS + LADDER, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_bump_sum_matches_repeated_squaring(pe):
    # the bumps m (1 - (var - c)^(q-1)) of _detector_g alone: one point of
    # weight p adds nothing, and the swap (x:y:z) -> (z:y:x) moves each
    # direction's power from Y (the identity) to X
    K = field_create(*pe)
    rng = random.Random(K.q)
    bumps = [(rng.randrange(3 * K.p), rng.randrange(K.q)) for _ in range(4)]
    bumps += [(1, 0), (0, rng.randrange(K.q))]
    reports = [DirectionReport(slope_direction(K, c), 1, m, ()) for m, c in bumps]
    expected = UniPoly.zero(K)
    for m, c in bumps:
        bump = UniPoly.one(K) - UniPoly(K, (K.neg(c), 1)) ** (K.q - 1)
        expected = expected + bump.scale(K.from_int(m))
    T = PointMultiset(K, [((0, 0), K.p)])
    swap = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    for matrix, var in ((counting._IDENTITY, 1), (swap, 0)):
        g = counting._detector_g(K, T, reports, matrix)
        want = BiPoly(K, {((i, 0) if var == 0 else (0, i)): c
                          for i, c in enumerate(expected.coeffs)})
        assert g == want and g.total_degree == want.total_degree


# -- both detectors, built by repeated squaring -----------------------------------


def slope_detector_by_squaring(T, reports):
    K = T.field
    q = K.q
    f = BiPoly(K, {(q, 0): 1, (1, 0): K.neg(1)})
    h = UniPoly.zero(K)
    for r in reports:
        bump = UniPoly.one(K) - UniPoly(K, (K.neg(slope_of(r.direction)), 1)) ** (q - 1)
        h = h + bump.scale(K.from_int(r.m_d))
    g = BiPoly.constant(K, K.neg(K.from_int(T.size))) + BiPoly(
        K, {(0, i): c for i, c in enumerate(h.coeffs)})
    for (a, b), mult in T.items():
        g = g + linear_power_by_squaring(K, 1, a, K.neg(b), K.from_int(mult))
    return f, g


def point_detector_by_squaring(T, reports, R):
    K = T.field
    q = K.q
    coll = frame_collineation(K, [r.direction for r in reports], R)
    f = BiPoly.constant(K, 1)
    h = UniPoly.zero(K)
    for r in reports:
        x, y, z = coll.apply_point(r.direction).coords
        c = K.div(y, z)
        f = f * BiPoly(K, {(1, 0): 1, (0, 0): K.neg(c)})
        bump = UniPoly.one(K) - UniPoly(K, (K.neg(c), 1)) ** (q - 1)
        h = h + bump.scale(K.from_int(r.m_d))
    g = BiPoly.constant(K, K.neg(K.from_int(T.size))) + BiPoly(
        K, {(i, 0): c for i, c in enumerate(h.coeffs)})
    for (a, b), mult in T.items():
        x, y, z = coll.apply_point(ProjPoint.affine(K, a, b)).coords
        w = K.from_int(mult)
        if z != 0:
            g = g + linear_power_by_squaring(K, 1, K.div(x, z), K.neg(K.div(y, z)), w)
        else:
            g = g + linear_power_by_squaring(K, 0, 1, K.neg(K.div(y, x)), w)
    return f, g


def detector_corpus():
    """(name, multiset, lam): planted, conic and random inputs, some with
    multiplicities and sizes divisible by p."""
    rng = random.Random(2021)
    out = []
    for p, e in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)]:
        K = field_create(p, e)
        lam = min(2, p - 1)
        pts = [(rng.randrange(K.q), rng.randrange(K.q)) for _ in range(lam)]
        if len(set(pts)) == lam:
            out.append((f"planted-q{K.q}", gen_planted(K, pts, [1] * lam).multiset, lam))
        heavy = PointMultiset(K, [((rng.randrange(K.q), rng.randrange(K.q)),
                                   rng.choice([1, 2, p, 2 * p, p + 1]))
                                  for _ in range(4)])
        out.append((f"heavy-q{K.q}", heavy, (K.q - 1) // 2))
        out.append((f"size-0-mod-p-q{K.q}", PointMultiset(K, [((0, 0), p), ((1, 2), p)]), 1))
    for e in (2, 3, 4):
        K = field_create(2, e)
        out.append((f"conic-q{K.q}", gen_norm_conic(K).multiset, 1))
    for p, e in [(7, 1), (2, 3), (3, 2), (11, 1)]:
        K = field_create(p, e)
        out.append((f"random-q{K.q}", gen_random(K, 7 * K.q, 0.3), (K.q - 1) // 2))
    return out


CORPUS = detector_corpus()


@pytest.mark.parametrize("name,T,lam", CORPUS, ids=[c[0] for c in CORPUS])
def test_detectors_match_repeated_squaring(name, T, lam):
    K = T.field
    reports = [r for r in uniform_directions(T, lam) if slope_of(r.direction) is not None]
    assert reports, "every corpus entry has a uniform slope direction"
    det = build_slope_detector(T, reports)
    assert (det.f, det.g) == slope_detector_by_squaring(T, reports)
    R = ProjPoint.affine(K, *T.items()[0][0])
    pdet = build_point_detector(T, reports, R)
    assert (pdet.f, pdet.g) == point_detector_by_squaring(T, reports, R)


# -- the dichotomy, by incidence at every point ----------------------------------


def split_by_scan(K, index, low, high):
    """(high_points, offenders) over all q^2 + q + 1 points in scan order:
    affine (a, b) ascending, then slopes 0..q-1, then the vertical."""
    points = [ProjPoint.affine(K, a, b) for a in K.elements() for b in K.elements()]
    high_points, offenders = [], []
    for P in points + list(all_directions(K)):
        ind = index(P)
        if ind >= high:
            high_points.append((P, ind))
        elif ind > low:
            offenders.append((P, ind))
    mid = (low + high) / 2
    offenders.sort(key=lambda pair: (abs(pair[1] - mid), pair[1]))
    return tuple(high_points), tuple(offenders)


def dichotomy_lam(T):
    """The smallest lam at which the dichotomy's hypotheses hold, or None."""
    q = T.field.q
    for lam in range(1, (q - 1) // 2 + 1):
        if q > 2 and len(uniform_directions(T, lam)) > lam * lam + lam:
            return lam
    return None


DICHOTOMY_CASES = [(name, T, lam) for name, T, _ in CORPUS
                   if (lam := dichotomy_lam(T)) is not None]


@pytest.mark.parametrize("name,T,lam", DICHOTOMY_CASES, ids=[c[0] for c in DICHOTOMY_CASES])
def test_dichotomy_matches_incidence_scan(name, T, lam):
    reports = uniform_directions(T, lam)
    rep = dichotomy_check(T, lam)
    expected = split_by_scan(T.field, lambda P: index_of_point(reports, P).count,
                             rep.low, rep.high)
    assert (rep.high_points, rep.offenders) == expected


def random_reports(K, rng):
    """Made-up reports on every direction, in random order: none on the
    slope-0 class, 1 to min(q, 6) renitent lines on every other, at
    random distinct intercepts (classification plays no part here)."""
    reports = []
    for d in all_directions(K):
        n = 0 if slope_of(d) == 0 else rng.randint(1, min(K.q, 6))
        lines = parallel_class(K, d)
        renitent = tuple(RenitentLine(lines[t], t, 1)
                         for t in sorted(rng.sample(range(K.q), n)))
        reports.append(DirectionReport(d, 1, 0, renitent))
    rng.shuffle(reports)
    return reports


@pytest.mark.parametrize("pe", [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1)],
                         ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_index_split_orders_offenders_like_the_scan(pe):
    K = field_create(*pe)
    rng = random.Random(K.q)
    reports = random_reports(K, rng)
    for low, high in [(1, 3), (1, 4), (2, 6), (0, 2)]:
        got = _split_indices(K, reports, low, high)
        expected = split_by_scan(K, lambda P: index_of_point(reports, P).count, low, high)
        assert got == expected, (low, high)
        assert got[1], "offenders exist, so their order is compared"


def test_dichotomy_memory_stays_linear_in_q():
    # keying every walked point peaked at 5.6 MB here; the column sweep at 0.2 MB
    K = field_create(2, 8)
    T = PointMultiset(K, [((1, 2), 1), ((3, 5), 1)])
    tracemalloc.start()
    try:
        rep = dichotomy_check(T, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok
    assert peak < 1 << 20, peak


# -- no slow path left -------------------------------------------------------------


def test_counting_runs_no_incidence_scan_or_polynomial_power(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a slow path ran")

    monkeypatch.setattr(counting, "incident", forbidden)
    monkeypatch.setattr(BiPoly, "__pow__", forbidden)
    monkeypatch.setattr(UniPoly, "__pow__", forbidden)
    K = field_create(13)
    T = gen_planted(K, [(1, 2), (3, 5)], [1, 1]).multiset
    reports = [r for r in uniform_directions(T, 2) if slope_of(r.direction) is not None]
    assert dichotomy_check(T, 2).ok
    assert renitent_lower_bound_check(T, reports).ok
    build_slope_detector(T, reports)
    build_point_detector(T, reports, ProjPoint.affine(K, 1, 2))


# -- the rows g(X, y), written in closed form ---------------------------------------


def rows_by_eval_v(g):
    """The loop gcd_profile ran before rows(): evaluate every term at each y."""
    return [g.eval_v(y) for y in g.field.elements()]


# every field of the oracles above with 2 < q <= 81 (no lam is valid at q = 2)
ROW_FIELDS = sorted({pe for pe in SMALL_FIELDS + LADDER + [(11, 1), (13, 1)]
                     if 2 < pe[0] ** pe[1] <= 81}, key=lambda pe: pe[0] ** pe[1])


def row_corpus(pe):
    """(name, multiset, lam) inputs for one field: planted, multiplicities
    divisible by p, the norm conic (q even), random at densities 0.02,
    0.1 and 0.3 up to q = 32 and 0.02 and 0.05 above (where hundreds of
    points take seconds to build into g), and a denser one (0.6) up to
    q = 16."""
    K = field_create(*pe)
    q, p = K.q, K.p
    rng = random.Random(q)
    lam = min(2, p - 1, (q - 1) // 2)
    out = [("planted", gen_planted(K, [(1, 2), (3 % q, 1)][:lam], [1] * lam).multiset, lam)]
    # R = (1, 2) goes to infinity below, so the points on x = 1 have alpha = 0
    heavy = [((1, 2), 1), ((1, 0), p), ((1, 3 % q), 2), ((0, 1), 2 * p), ((2 % q, 1), p + 1)]
    out.append(("heavy", PointMultiset(K, heavy), (q - 1) // 2))
    if p == 2:
        out.append(("conic", gen_norm_conic(K).multiset, 1))
    for density in (0.02, 0.1, 0.3) if q <= 32 else (0.02, 0.05):
        T = gen_random(K, rng.randrange(1000), density)
        if T.size:
            out.append((f"random{density}", T, (q - 1) // 2))
    if q <= 16:
        out.append(("dense", gen_random(K, 5, 0.6), (q - 1) // 2))
    return out


def row_detectors(T, lam, R=None):
    """Both detectors of one input; the point detector sends R, by
    default the first support point, to infinity.  The reports are the
    uniform slope directions, or, where there are none, made-up reports
    on half the slopes: the rows do not depend on uniformity."""
    K = T.field
    reports = [r for r in uniform_directions(T, lam) if slope_of(r.direction) is not None]
    if not reports:
        reports = [DirectionReport(slope_direction(K, s), lam, s % K.p, ())
                   for s in range(K.q // 2)]
    R = R or ProjPoint.affine(K, *T.items()[0][0])
    return [("slope", build_slope_detector(T, reports)),
            ("point", build_point_detector(T, reports, R))]


@functools.cache
def field_detectors(pe):
    """(input name, detector kind, multiset, g) over the row corpus of one field."""
    return [(name, kind, T, det.g) for name, T, lam in row_corpus(pe)
            for kind, det in row_detectors(T, lam)]


@pytest.mark.parametrize("pe", ROW_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_rows_match_eval_v(pe):
    for name, kind, _, g in field_detectors(pe):
        expected = rows_by_eval_v(g)
        assert list(g.rows()) == expected, (name, kind)
    # alpha = beta = 0: the constant w when gamma != 0, and nothing when gamma = 0
    K = field_create(*pe)
    g = DetectorPoly(K, 1, [(1, 0, 0, 1), (K.from_int(2), 0, 0, 0), (1, 1, 1, 0)])
    assert list(g.rows()) == rows_by_eval_v(g)


def stored_pairs(g):
    """The number of (w, s) pairs in g's stored normal form."""
    return sum(map(len, g._forms.values()))


def test_row_corpus_covers_the_edge_cases():
    """Dense input for both detectors (support size * q above the term
    count of g, where walking g's terms is the cheaper way to a row),
    alpha = 0 points, and multiplicities that vanish mod p."""
    dense, alpha_zero, weight_zero = set(), False, False
    for pe in ROW_FIELDS:
        for _, kind, T, g in field_detectors(pe):
            if stored_pairs(g) * T.field.q > len(g.terms):
                dense.add(kind)
            alpha_zero |= kind == "point" and (0, 1) in g._forms
            weight_zero |= any(m % T.field.p == 0 for _, m in T.items())
    assert dense == {"slope", "point"}
    assert alpha_zero and weight_zero


@pytest.mark.parametrize("pe", [(5, 3), (2, 7), (3, 5)], ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_rows_match_eval_v_sampled_at_large_q(pe):
    K = field_create(*pe)
    rng = random.Random(K.q)
    lam = min(2, K.p - 1)
    T = gen_planted(K, [(3, 7), (10, 1)][:lam], [1] * lam).multiset
    for kind, det in row_detectors(T, lam, ProjPoint.affine(K, 0, 0)):
        g = det.g
        rows = list(g.rows())
        assert len(rows) == K.q
        for y in [0, 1, K.q - 1] + rng.sample(range(2, K.q - 1), 5):
            assert rows[y] == g.eval_v(y), (kind, y)


# -- deg g, from the weight sums, or by the walk below a cancelled top level -----


def degree_by_terms(g):
    return max((i + j for i, j in g.terms), default=-1)


# prime, odd-p extension and p = 2 fields
DEGREE_FIELDS = [(5, 1), (7, 1), (13, 1), (3, 2), (5, 2), (3, 3), (2, 2), (2, 3), (2, 4), (2, 5)]


def edge_detectors(K):
    """Both detectors of three inputs, each with made-up reports on half
    the slopes: every multiplicity divisible by p, so g is the bumps alone,
    once with every m_d = 0, so g = 0, and once with nonzero m_d; and |T| = 0
    mod p with nonzero weights, so the X^(q-1) coefficient of the slope
    detector's g, the sum of the weights, cancels."""
    q, p = K.q, K.p
    zero_mod_p = PointMultiset(K, [((1, 2), p), ((3 % q, 1), 2 * p)])
    size_zero_mod_p = PointMultiset(K, [((1, 2), 1), ((3 % q, 1), p - 1)])
    out = []
    for name, T, m_d in [("g = 0", zero_mod_p, lambda s: 0),
                         ("bumps only", zero_mod_p, lambda s: 1 + s % (p - 1)),
                         ("|T| = 0", size_zero_mod_p, lambda s: s % p)]:
        reports = [DirectionReport(slope_direction(K, s), 1, m_d(s), ())
                   for s in range(max(1, q // 2))]
        R = ProjPoint.affine(K, 1, 2)
        out += [(name, "slope", build_slope_detector(T, reports).g),
                (name, "point", build_point_detector(T, reports, R).g)]
    return out


def random_parts(K, rng):
    """A g from random parts, drawn to cancel: a power w (alpha X + beta Y +
    gamma)^(q-1) may come with a partner -w (alpha X + beta Y + gamma')^(q-1)
    that cancels it on the top level, and a bump m (1 - (var - c)^(q-1)),
    the constant m and the power -m (var - c)^(q-1), with the power
    m (var - c)^(q-1) that cancels all of it but m.  The constant is
    sometimes minus the sum of the bumps, so g may be 0."""
    q = K.q
    var = rng.randrange(2)
    bumps = [(K.from_int(rng.randrange(1, K.p)), rng.randrange(q))
             for _ in range(rng.randrange(3))]
    powers = []
    for _ in range(rng.randrange(4)):
        w, alpha, beta, gamma = rng.randrange(1, q), *(rng.randrange(q) for _ in range(3))
        powers.append((w, alpha, beta, gamma))
        if rng.random() < 0.5:
            powers.append((K.uneg(w), alpha, beta, rng.randrange(q)))
    for m, c in bumps:
        powers.append((K.uneg(m), 1 - var, var, K.uneg(c)))
        if rng.random() < 0.7:
            powers.append((m, 1 - var, var, K.uneg(c)))
    bump_sum = functools.reduce(K.uadd, (m for m, _ in bumps), 0)
    const = rng.choice([0, rng.randrange(q), K.uneg(bump_sum)])
    rng.shuffle(powers)
    return DetectorPoly(K, K.uadd(const, bump_sum), powers)


def degree_corpus(pe):
    """(name, g): both detectors of the row corpus (q <= 81) and of the edge
    inputs, 150 g from random parts, and the GF(4) g below."""
    K = field_create(*pe)
    out = [(f"{name}/{kind}", g) for name, kind, _, g in field_detectors(pe)]
    out += [(f"{name}/{kind}", g) for name, kind, g in edge_detectors(K)]
    rng = random.Random(K.q)
    out += [(f"parts{t}", random_parts(K, rng)) for t in range(150)]
    if K.q == 4:
        out.append(("carry only", DetectorPoly(K, 0, CARRY_ONLY_POWERS_Q4)))
    return out


# A GF(4) g whose level 2 sums to nonzero only at the carrying term X Y,
# which Lucas's theorem drops: six powers (alpha X + Y + gamma)^3, two at
# each alpha in {1, a, a^2} (a = 2 and a^2 = 3 as element indices) with
# opposite top levels.  g is the constant 1, so deg g = 0.
CARRY_ONLY_POWERS_Q4 = [(1, 1, 1, 0), (1, 1, 1, 1), (1, 2, 1, 0), (1, 2, 1, 3),
                        (1, 3, 1, 0), (1, 3, 1, 2)]


@pytest.mark.parametrize("pe", DEGREE_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_total_degree_matches_the_term_map(pe):
    K = field_create(*pe)
    n = K.q - 1
    levels = set()
    for name, g in degree_corpus(pe):
        expected = degree_by_terms(g)
        assert g.total_degree == expected, name
        levels.add(expected if expected < n else "top")
    # below the top level: g = 0, the constants and at least one level between
    assert {"top", -1, 0} <= levels and len(levels) > 3, levels


def test_degree_corpus_covers_the_edge_cases():
    for pe in DEGREE_FIELDS:
        K = field_create(*pe)
        n = K.q - 1
        edges = {name + "/" + kind: g for name, kind, g in edge_detectors(K)}
        for kind in ("slope", "point"):
            assert not edges[f"g = 0/{kind}"].terms
        # every power is a bump's, in Y (alpha = 0, the form (0, 1)) or in
        # X (beta = 0, the form (1, 0))
        g = edges["bumps only/slope"]
        assert set(g._forms) == {(0, 1)} and g.terms
        g = edges["bumps only/point"]
        assert set(g._forms) == {(1, 0)} and g.terms
        g = edges["|T| = 0/slope"]   # the support points' powers have alpha = 1
        assert any(a for a, _ in g._forms) and (n, 0) not in g.terms
    g = DetectorPoly(field_create(2, 2), 0, CARRY_ONLY_POWERS_Q4)
    assert g.terms == {(0, 0): 1}


def test_cli_check_reports_deg_g_of_the_zero_detector(monkeypatch, tmp_path, capsys):
    # every weight sum is 0, so the top level cancels; the walk below it
    # finds no nonzero coefficient without building the term map
    def forbidden(*args):
        raise AssertionError("the term map was built")

    monkeypatch.setattr(DetectorPoly, "terms", property(forbidden))
    path = tmp_path / "pts.txt"
    path.write_text("1 2 7\n3 5 7\n")
    assert cli.main(["check", "--field", "7", "--in", str(path), "--lambda", "1",
                     "--bound", "gcd"]) == 0
    assert '"deg_g": -1' in capsys.readouterr().out


@pytest.mark.parametrize("pe", DEGREE_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_top_level_cancels_when_every_weight_sum_is_one_nonzero_value(pe):
    # all q + 1 forms (1, r) and (0, 1) carry the weight sum c != 0; the
    # gammas of the forms (1, r) are not all equal, so level q - 2 stays
    K = field_create(*pe)
    rng = random.Random(K.q)
    c = rng.randrange(1, K.q)
    gammas = [rng.randrange(K.q) for _ in K.elements()]
    gammas[0] = K.uadd(gammas[1], 1)
    powers = [(c, 1, r, gamma) for r, gamma in zip(K.elements(), gammas)]
    g = DetectorPoly(K, 0, powers + [(c, 0, 1, rng.randrange(K.q))])
    assert g.total_degree == degree_by_terms(g) == K.q - 2
    # the slope detector of the X-axis, every point of weight 1, and one
    # made-up report with m_d = -1 mod p, whose power (Y - 1)^(q-1) has
    # weight 1 too
    T = PointMultiset(K, [((a, 0), 1) for a in K.elements()])
    report = DirectionReport(slope_direction(K, 1), 1, K.p - 1, ())
    g = build_slope_detector(T, [report]).g
    assert g.total_degree == degree_by_terms(g) == K.q - 2


def test_the_usual_degree_walks_no_coefficient(monkeypatch):
    """Every corpus g of degree q - 1 has its degree from the weight sums
    alone, with no coefficient computed."""
    usual = []
    for pe in sorted(set(ROW_FIELDS) | set(DEGREE_FIELDS), key=lambda pe: pe[0] ** pe[1]):
        q = pe[0] ** pe[1]
        usual += [(name, q, g) for name, g in degree_corpus(pe) if degree_by_terms(g) == q - 1]

    def forbidden(*args):
        raise AssertionError("a coefficient was walked")

    monkeypatch.setattr(DetectorPoly, "_coefficients", forbidden)
    for name, q, g in usual:
        assert g.total_degree == q - 1, (q, name)
    kinds = {name.split("/")[-1] for name, _, _ in usual}
    assert {"slope", "point"} <= kinds and len(usual) > 1000, len(usual)


def test_cancelled_top_stays_linear_in_q_without_the_term_map(monkeypatch):
    # two points in one column, of weight 1 and -1: one form, whose weight
    # sum 0 cancels the top level; deg g is q - 2, found by the walk
    def forbidden(*args):
        raise AssertionError("the term map was built")

    monkeypatch.setattr(DetectorPoly, "terms", property(forbidden))
    K = field_create(257)
    T = PointMultiset(K, [((1, 2), 1), ((1, 5), 256)])
    reports = [r for r in uniform_directions(T, 2) if slope_of(r.direction) is not None]
    tracemalloc.start()
    try:
        det = build_slope_detector(T, reports)
        profile = gcd_profile(det.f, det.g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.deg_g == K.q - 2
    assert peak < 1 << 20, peak


# -- the term map is built only when it is read --------------------------------------


def test_profiles_and_cli_bounds_never_build_the_term_map(monkeypatch, tmp_path, capsys):
    def forbidden(*args):
        raise AssertionError("the term map was built")

    monkeypatch.setattr(DetectorPoly, "terms", property(forbidden))
    path = tmp_path / "pts.txt"
    path.write_text("1 2 1\n3 5 1\n")
    for bound in ("count", "gcd"):
        assert cli.main(["check", "--field", "13", "--in", str(path), "--lambda", "2",
                         "--bound", bound]) == 0
    capsys.readouterr()
    K = field_create(13)
    T = PointMultiset(K, [((1, 2), 1), ((3, 5), 1)])
    reports = [r for r in uniform_directions(T, 2) if slope_of(r.direction) is not None]
    R = ProjPoint.affine(K, 1, 2)
    det, pdet = build_slope_detector(T, reports), build_point_detector(T, reports, R)
    for d in (det, pdet):
        profile = gcd_profile(d.f, d.g)
        assert len(profile.k) == K.q and profile.deg_g == K.q - 1
    monkeypatch.undo()
    assert (det.f, det.g) == slope_detector_by_squaring(T, reports)
    assert (pdet.f, pdet.g) == point_detector_by_squaring(T, reports, R)


def test_slope_detector_profile_memory_stays_linear_in_q():
    # the term map of two points at q = 257 peaked at 5.4 MB here; the parts at 0.1 MB
    K = field_create(257)
    T = PointMultiset(K, [((1, 2), 1), ((3, 5), 1)])
    reports = [r for r in uniform_directions(T, 2) if slope_of(r.direction) is not None]
    tracemalloc.start()
    try:
        det = build_slope_detector(T, reports)
        profile = gcd_profile(det.f, det.g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.deg_g == K.q - 1
    assert peak < 1 << 20, peak


def gcd_profile_by_eval_v(f, g):
    """gcd_profile as it ran before rows() and the list Euclid."""
    k = {}
    for y in f.field.elements():
        f_y, g_y = f.eval_v(y), g.eval_v(y)
        if g_y.is_zero():
            k[y] = f_y.degree
        else:
            while not g_y.is_zero():
                f_y, g_y = g_y, f_y % g_y
            k[y] = f_y.degree
    return k


@pytest.mark.parametrize("name,T,lam", CORPUS, ids=[c[0] for c in CORPUS])
def test_detector_profiles_match_eval_v(name, T, lam):
    for kind, det in row_detectors(T, lam):
        assert gcd_profile(det.f, det.g).k == gcd_profile_by_eval_v(det.f, det.g), kind


@settings(max_examples=60)
@given(st.data())
def test_gcd_profile_on_arbitrary_bipolys_matches_eval_v(data):
    K = field_create(*data.draw(st.sampled_from([(5, 1), (2, 3), (3, 2), (7, 1)])))
    element = st.integers(0, K.q - 1)
    exps = st.tuples(st.integers(0, 5), st.integers(0, 4))
    du = data.draw(st.integers(1, 5))
    f_terms = {key: c for key, c in data.draw(st.dictionaries(exps, element)).items()
               if key[0] < du}
    f_terms[(du, 0)] = data.draw(st.integers(1, K.q - 1))
    f = BiPoly(K, f_terms)
    g = BiPoly(K, data.draw(st.dictionaries(exps, element, max_size=10)))
    assert gcd_profile(f, g).k == gcd_profile_by_eval_v(f, g)


# -- cost guards: which loops run, by call counts -----------------------------------


def _planted_lam2_q31():
    K = field_create(31)
    T = gen_planted(K, [(1, 2), (3, 5)], [1, 1]).multiset
    reports = [r for r in uniform_directions(T, 2) if slope_of(r.direction) is not None]
    return K, T, reports


def test_sparse_detectors_never_evaluate_g(monkeypatch):
    K, T, reports = _planted_lam2_q31()

    def forbidden(*args):
        raise AssertionError("BiPoly.eval_v ran")

    monkeypatch.setattr(BiPoly, "eval_v", forbidden)
    assert renitent_lower_bound_check(T, reports).ok
    det = build_point_detector(T, reports, ProjPoint.affine(K, 1, 2))
    assert len(gcd_profile(det.f, det.g).k) == K.q


def test_dense_detector_evaluates_g_once_per_row(monkeypatch):
    """On a GF(16) set dense enough that g has fewer terms than support
    size * q, gcd_profile still takes each row of g once, in closed form:
    one rows() pass of q rows per detector, and no eval_v call."""
    K = field_create(2, 4)
    T = gen_random(K, 3, 0.3)
    reports = [r for r in uniform_directions(T, 7) if slope_of(r.direction) is not None]
    dets = (build_slope_detector(T, reports),
            build_point_detector(T, reports, ProjPoint.affine(K, 0, 0)))
    expected = [rows_by_eval_v(det.g) for det in dets]
    rows, passes, rows_seen = DetectorPoly.rows, [0], [0]

    def counted(self):
        passes[0] += 1
        for row in rows(self):
            rows_seen[0] += 1
            yield row

    def forbidden(*args):
        raise AssertionError("BiPoly.eval_v ran")

    monkeypatch.setattr(DetectorPoly, "rows", counted)
    monkeypatch.setattr(BiPoly, "eval_v", forbidden)
    for det, exp in zip(dets, expected):
        assert stored_pairs(det.g) * K.q > len(det.g.terms)
        passes[0] = rows_seen[0] = 0
        assert len(gcd_profile(det.f, det.g).k) == K.q
        assert (passes[0], rows_seen[0]) == (1, K.q)
        assert list(rows(det.g)) == exp


@pytest.mark.parametrize("pe", [(7, 1), (2, 2), (3, 2)], ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_detector_normalises_its_powers_once(monkeypatch, pe):
    """g's powers go into their normal form once, when g is built: across
    rows(), total_degree and terms, K.uinv runs once per power with alpha
    or beta != 0, and never for a power with alpha = beta = 0."""
    K = field_create(*pe)
    rng = random.Random(K.q)
    inv, calls = K.uinv, [0]

    def counted(a):
        calls[0] += 1
        return inv(a)

    cases = [[(rng.randrange(1, K.q), *(rng.choice([0, rng.randrange(K.q)]) for _ in range(3)))
              for _ in range(rng.randrange(6))] for _ in range(30)]
    if K.q == 4:
        cases.append(CARRY_ONLY_POWERS_Q4)   # its top level cancels: deg g walks the terms
    monkeypatch.setattr(K, "uinv", counted)
    for powers in cases:
        calls[0] = 0
        g = DetectorPoly(K, rng.randrange(K.q), powers)
        list(g.rows()), g.total_degree, g.terms   # every reader of the stored form
        assert calls[0] == sum(1 for _, alpha, beta, _ in powers if alpha or beta), powers


def test_lower_bound_check_validates_its_reports_once(monkeypatch):
    K, T, reports = _planted_lam2_q31()
    check, calls = counting._check_detector_reports, []

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(counting, "_check_detector_reports", counted)
    assert renitent_lower_bound_check(T, reports).ok
    assert len(calls) == 1
