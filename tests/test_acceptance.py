"""Acceptance gate: eight criteria, one printed pass/fail line each.

Every comparison is exact (integer or polynomial equality); each
criterion carries a wall-clock budget checked with time.monotonic.
"""

import sys
import time
from contextlib import contextmanager

import pytest

from renitent import (
    PointMultiset,
    ProjPoint,
    SplitMix64,
    TriHomPoly,
    UniPoly,
    build_point_detector,
    build_slope_detector,
    classify_direction,
    concurrency_point,
    deficiency_bound_check,
    dichotomy_check,
    envelope_general,
    envelope_regular,
    envelope_weighted,
    field_create,
    gcd_degree_bound,
    gcd_profile,
    gen_norm_conic,
    gen_planted,
    gen_random,
    hankel_det_closed_form,
    hankel_matrix,
    index_of_point,
    lambda_weights,
    slope_direction,
    slope_of,
    uni_gcd,
    uniform_directions,
    verify_envelope,
    weighted_power_recursion_check,
)
from renitent.uniformity import DirectionReport, RenitentLine


@contextmanager
def gate(capsys, number, detail):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            sys.stdout.write(f"[criterion {number}] FAIL {detail}\n")
        raise
    with capsys.disabled():
        sys.stdout.write(f"[criterion {number}] PASS {detail}\n")


def synth_report(K, slope, m_d, ts):
    lines = [None] * len(ts)
    renitent = tuple(RenitentLine(line, alpha, t)
                     for alpha, (line, t) in enumerate(zip(lines, ts)))
    return DirectionReport(direction=slope_direction(K, slope), bound=len(ts),
                           m_d=m_d, renitent=renitent)


def classify_all(T, directions, lam):
    reports = [classify_direction(T, d, lam) for d in directions]
    assert all(r is not None for r in reports)
    return reports


def test_criterion_1_weight_arithmetic(capsys):
    with gate(capsys, 1, "per-line weight arithmetic matches the worked values"):
        t0 = time.monotonic()

        K7 = field_create(7)
        entry = lambda_weights(synth_report(K7, 0, 1, (3, 3, 5)), 2)
        assert entry.weights == (1, 1, 2)
        assert entry.total == 4

        K13 = field_create(13)
        r = synth_report(K13, 0, 1, (2, 8))
        assert lambda_weights(r, 1).total == 8
        assert lambda_weights(r, 7).total == 3

        K5 = field_create(5)
        r1 = synth_report(K5, 0, 0, (1, 1))
        r2 = synth_report(K5, 1, 0, (3, 4))
        assert lambda_weights(r1, 1).total == 2
        assert lambda_weights(r2, 1).total == 7
        assert lambda_weights(r1, 1).total != lambda_weights(r2, 1).total
        assert lambda_weights(r1, 3).total == lambda_weights(r2, 3).total == 4

        assert time.monotonic() - t0 < 1.0


CRIT2_FIELDS = [((7, 1), (1, 2, 3)), ((3, 2), (1, 2)),
                ((11, 1), (1, 2, 3)), ((13, 1), (1, 2, 3))]
CRIT2_POINTS = {1: [(2, 3)], 2: [(0, 0), (1, 2)], 3: [(0, 0), (1, 2), (3, 1)]}


def test_criterion_2_equal_count_envelopes(capsys):
    with gate(capsys, 2, "equal-count envelopes equal the dual-line oracle"):
        for (p, e), lams in CRIT2_FIELDS:
            t0 = time.monotonic()
            K = field_create(p, e)
            assert max(lams) <= min(K.q - 2, K.p - 1)
            for lam in lams:
                for c in (1, 2):
                    inst = gen_planted(K, CRIT2_POINTS[lam], [1] * lam, c=c)
                    T = inst.multiset
                    slopes = [d for d in inst.generic_directions
                              if slope_of(d) is not None]
                    used = classify_all(T, slopes, lam)
                    assert all(r.sharp for r in used)
                    curve = envelope_regular(T, used)
                    assert curve.poly.proportional_to(inst.oracle)
                    assert curve.poly == inst.oracle  # both monic
                    everywhere = classify_all(T, inst.generic_directions, lam)
                    assert verify_envelope(curve, everywhere).ok
            assert time.monotonic() - t0 < 5.0


CRIT3_WEIGHTS = {(7, 1): (1, 2), (3, 2): (1, 1), (11, 1): (1, 3), (13, 1): (1, 7)}


def test_criterion_3_weighted_envelopes(capsys):
    with gate(capsys, 3, "weighted envelopes have exact root multiplicities"):
        for (p, e), weights in CRIT3_WEIGHTS.items():
            t0 = time.monotonic()
            K = field_create(p, e)
            total = sum(weights)
            assert total <= min(K.q - 2, K.p - 1)
            inst = gen_planted(K, [(0, 0), (1, 1)], list(weights), c=1)
            T = inst.multiset
            full = uniform_directions(T, 2)
            assert len(full) == K.q + 1  # the full-scan case
            curve, mults = envelope_weighted(T, full, 1)
            assert curve.nominal_class == total == inst.expected_class
            assert curve.poly == inst.oracle
            report = verify_envelope(curve, full, mults)
            assert report.ok
            assert all(rc.exact for dc in report.directions for rc in dc.roots)
            # same curve from a slope-only cover
            slopes_only = [r for r in full if slope_of(r.direction) is not None]
            curve2, mults2 = envelope_weighted(T, slopes_only, 1)
            assert curve2.poly == curve.poly
            assert verify_envelope(curve2, slopes_only, mults2).ok
            assert time.monotonic() - t0 < 10.0


def test_criterion_4_general_envelopes_with_merged_direction(capsys):
    with gate(capsys, 4, "determinant envelopes swallow merged pencils"):
        t0 = time.monotonic()
        for q in (11, 13):
            K = field_create(q)
            T = PointMultiset(K, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)])
            lam = 3
            reports = [r for r in uniform_directions(T, lam)
                       if slope_of(r.direction) is not None]
            assert len(reports) == K.q
            merged = [r for r in reports if r.lambda_d < lam]
            assert len(merged) == 1 and merged[0].lambda_d == 1
            curve = envelope_general(T, reports, lam)
            assert curve.nominal_class == lam * lam
            for r in reports:
                section = curve.poly.at_vw(slope_of(r.direction), 1)
                for entry in r.renitent:
                    assert section(entry.alpha) == 0  # dual point on the curve
            pencil = curve.poly.at_vw(slope_of(merged[0].direction), 1)
            assert pencil.is_zero()
            deficiency = deficiency_bound_check(reports, lam)
            assert deficiency.total_deficit == 2
            assert deficiency.total_deficit <= lam * lam - lam
            assert deficiency.ok
            assert verify_envelope(curve, reports).ok
        assert time.monotonic() - t0 < 10.0


def test_criterion_5_power_sum_identities(capsys):
    with gate(capsys, 5, "recursion and determinant identities on random data"):
        t0 = time.monotonic()
        rng = SplitMix64(2024)
        recursion_runs = 0
        determinant_runs = 0
        for p, e in ((5, 1), (7, 1), (3, 2), (11, 1)):
            K = field_create(p, e)
            q = K.q
            for _ in range(150):
                lam = 1 + rng.next_u64() % 4
                cs = [rng.next_u64() % q for _ in range(lam)]
                xs = [rng.next_u64() % q for _ in range(lam)]
                j = rng.next_u64() % 7
                assert weighted_power_recursion_check(K, cs, xs, j)
                recursion_runs += 1
            for _ in range(150):
                lam = 1 + rng.next_u64() % 4
                cs = [rng.next_u64() % q for _ in range(lam)]
                xs = [rng.next_u64() % q for _ in range(lam)]

                def psum(k):
                    acc = 0
                    for ci, xi in zip(cs, xs):
                        acc = K.add(acc, K.mul(ci, K.pow(xi, k)))
                    return acc

                ps = [UniPoly(K, (psum(k),)) for k in range(2 * lam - 1)]
                det = hankel_matrix(ps, lam).det()
                closed = hankel_det_closed_form(K, cs, xs)
                assert det == UniPoly(K, (closed,))
                determinant_runs += 1
        assert recursion_runs >= 500 and determinant_runs >= 500
        assert time.monotonic() - t0 < 5.0


def _external_point(K, T):
    support = {pt for pt, _ in T.items()}
    for a in K.elements():
        for b in K.elements():
            if (a, b) not in support:
                return ProjPoint.affine(K, a, b)
    raise AssertionError("multiset covers the whole plane")


def _corpus():
    """(label, field, multiset, lambda, dichotomy_expected) instances."""
    out = []
    for p, e in ((3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        K = field_create(p, e)
        q = K.q
        out.append((f"single/q{q}", K, PointMultiset(K, [((1, 1), 1)]), 1, True))
        out.append((f"planted1/q{q}", K,
                    gen_planted(K, [(1, 0)], [1]).multiset, 1, True))
        if (q - 1) // 2 >= 2:
            if p > 2:
                T = gen_planted(K, [(0, 0), (1, 1)], [1, 1]).multiset
            else:
                # two unit points; the spanned direction merges them
                T = PointMultiset(K, [((0, 0), 1), ((1, 1), 1)])
            out.append((f"planted2/q{q}", K, T, 2, True))
        if p == 2 and e in (2, 3):
            out.append((f"conic/q{q}", K, gen_norm_conic(K).multiset, 1, True))
        out.append((f"random/q{q}", K, gen_random(K, 0, 0.15), (q - 1) // 2,
                    False))
    return out


def test_criterion_6_counting_suite(capsys):
    with gate(capsys, 6, "gcd bounds, count agreement, and the dichotomy"):
        t0 = time.monotonic()
        dichotomies = 0
        for label, K, T, lam, want_dichotomy in _corpus():
            q = K.q
            reports = uniform_directions(T, lam)
            slopes = [r for r in reports if slope_of(r.direction) is not None]
            assert slopes, label
            det = build_slope_detector(T, slopes)
            profile = gcd_profile(det.f, det.g)
            for y0 in K.elements():
                assert gcd_degree_bound(profile, y0).ok, label
            # algebraic count equals the combinatorial one at every
            # covered direction
            for r in slopes:
                assert profile.k[slope_of(r.direction)] == q - r.lambda_d, label
            pdet = build_point_detector(T, slopes, _external_point(K, T))
            pprofile = gcd_profile(pdet.f, pdet.g)
            for y0 in K.elements():
                assert gcd_degree_bound(pprofile, y0).ok, label
            inv = pdet.collineation.inverse()
            for y in K.elements():
                pre = inv.apply_point(ProjPoint(K, 1, y, 0))
                idx = index_of_point(slopes, pre).count
                assert pprofile.k[y] == len(slopes) - idx, label
            if want_dichotomy and q > 2 and len(reports) > lam * lam + lam:
                assert dichotomy_check(T, lam).ok, label
                dichotomies += 1
        # single-point and planted lambda=1 at all six q, planted lambda=2
        # where enough directions stay uniform, and both conics
        assert dichotomies == 6 + 6 + 3 + 2
        assert time.monotonic() - t0 < 30.0


def test_criterion_7_norm_conic_tangents(capsys):
    with gate(capsys, 7, "conic tangents concur and envelope to the nucleus"):
        t0 = time.monotonic()
        for e in (2, 3, 4):
            K = field_create(2, e)
            q = K.q
            inst = gen_norm_conic(K)
            T = inst.multiset
            reports = uniform_directions(T, 1)
            assert len(reports) == q + 1
            assert all(r.lambda_d == 1 and r.sharp for r in reports)
            tangents = [r.renitent[0].line for r in reports]
            assert len(set(tangents)) == q + 1
            assert all(entry.t == 1 for r in reports for entry in r.renitent)
            assert concurrency_point(tangents) == inst.nucleus
            slopes = [r for r in reports if slope_of(r.direction) is not None]
            curve = envelope_regular(T, slopes)
            assert curve.poly == TriHomPoly(K, 1, {(1, 0, 0): 1})
            assert verify_envelope(curve, reports).ok
        assert time.monotonic() - t0 < 5.0


CRIT8_FIELDS = ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1),
                (2, 3), (3, 2), (11, 1), (13, 1), (2, 4))


def test_criterion_8_substrate_properties(capsys):
    with gate(capsys, 8, "power sums vanish; gcd degree counts roots"):
        t0 = time.monotonic()
        for p, e in CRIT8_FIELDS:
            K = field_create(p, e)
            q = K.q
            for k in range(q - 1):
                acc = 0
                for g in K.elements():
                    acc = K.add(acc, K.pow(g, k))
                assert acc == 0
        rng = SplitMix64(99)
        for p, e in CRIT8_FIELDS:
            K = field_create(p, e)
            q = K.q
            span = UniPoly(K, tuple([0, K.neg(1)] + [0] * (q - 2) + [1]))
            for _ in range(200):
                degree = 1 + rng.next_u64() % 5
                coeffs = [rng.next_u64() % q for _ in range(degree)]
                coeffs.append(1 + rng.next_u64() % (q - 1))
                f = UniPoly(K, tuple(coeffs))
                root_count = sum(1 for g in K.elements() if f(g) == 0)
                assert uni_gcd(f, span).degree == root_count
        assert time.monotonic() - t0 < 5.0
