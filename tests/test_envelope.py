"""Dual-plane envelope constructions, their verification machinery, and
the Newton / Hankel identities they are built on."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from renitent import (
    BiPoly,
    EnvelopeCurve,
    PointMultiset,
    ProjLine,
    ProjPoint,
    SplitMix64,
    TriHomPoly,
    UniPoly,
    classify_direction,
    concurrency_point,
    deficiency_bound_check,
    envelope_general,
    envelope_regular,
    envelope_weighted,
    field_create,
    gen_planted,
    hankel_det_closed_form,
    hankel_matrix,
    homogenize,
    intercept_profile,
    lambda_weights,
    newton_sigma,
    power_sum_polys,
    scan_weight_classes,
    slope_direction,
    slope_of,
    uniform_directions,
    verify_envelope,
    vertical_direction,
    weighted_power_recursion_check,
)
from renitent.poly import _root_multiplicity
from renitent.uniformity import DirectionReport, RenitentLine
from renitent.errors import HypothesisRejected, HypothesisViolation, InputError
from renitent.gf import GF

from conftest import cofactor_det

K7 = field_create(7)

points7 = st.lists(
    st.tuples(st.tuples(st.integers(0, 6), st.integers(0, 6)),
              st.integers(1, 3)),
    min_size=1, max_size=6)


def synth_report(K, slope, m_d, ts):
    """Direction report with prescribed renitent counts; intercepts are
    0, 1, ... in order.  Only the fields the constructions read are
    meaningful."""
    if slope is None:
        d = vertical_direction(K)
        lines = [ProjLine(K, 1, 0, K.neg(alpha)) for alpha in range(len(ts))]
    else:
        d = slope_direction(K, slope)
        lines = [ProjLine(K, slope, K.neg(1), alpha) for alpha in range(len(ts))]
    renitent = tuple(RenitentLine(line, alpha, t)
                     for alpha, (line, t) in enumerate(zip(lines, ts)))
    return DirectionReport(direction=d, bound=len(ts), m_d=m_d, renitent=renitent)


def slope_reports(T, lam):
    return [r for r in uniform_directions(T, lam)
            if slope_of(r.direction) is not None and r.lambda_d > 0]


# -- power sums -------------------------------------------------------------


def test_power_sums_of_origin():
    T = PointMultiset(K7, [((0, 0), 1)])
    ps = power_sum_polys(T, 5)
    assert ps[0] == UniPoly.one(K7)
    assert all(ps[k].is_zero() for k in range(1, 6))


def test_power_sums_of_single_point_are_powers_of_its_intercept():
    T = PointMultiset(K7, [((1, 2), 1)])
    ps = power_sum_polys(T, 5)
    lin = UniPoly(K7, (2, K7.neg(1)))  # 2 - V
    for k in range(6):
        assert ps[k] == lin ** k


def test_power_sum_index_capped():
    T = PointMultiset(K7, [((0, 0), 1)])
    with pytest.raises(InputError, match=r"^k_max must stay below q-1 = 6$"):
        power_sum_polys(T, K7.q - 1)


@given(points7, st.integers(0, 5), st.integers(0, 6))
def test_power_sum_evaluation_oracle(entries, k, d):
    T = PointMultiset(K7, entries)
    ps = power_sum_polys(T, 5)
    profile = intercept_profile(T, slope_direction(K7, d))
    naive = 0
    for t, m in profile.items():
        naive = K7.add(naive, K7.mul(K7.from_int(m), K7.pow(t, k)))
    assert ps[k](d) == naive


def power_sums_by_products(T, k_max):
    """sum of m * (b - a V)^k for k = 0..k_max, each term expanded by
    repeated multiplication with the linear factor b - a V."""
    K = T.field
    sums = [UniPoly.zero(K) for _ in range(k_max + 1)]
    for (a, b), m in T.items():
        weight = K.from_int(m)
        lin = UniPoly(K, (b, K.neg(a)))
        cur = UniPoly.one(K)
        for k in range(k_max + 1):
            sums[k] = sums[k] + cur.scale(weight)
            cur = cur * lin
    return sums


POWER_SUM_FIELDS = [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (3, 3), (7, 1), (13, 1), (31, 1)]


@st.composite
def power_sum_instances(draw, K):
    """(T, k_max): up to 8 points, coordinates often zero, multiplicities
    up to 3p (so some vanish mod p), and k_max up to q - 2."""
    coord = st.one_of(st.just(0), st.integers(0, K.q - 1))
    entries = draw(st.lists(st.tuples(st.tuples(coord, coord), st.integers(1, 3 * K.p)),
                            max_size=8))
    return PointMultiset(K, entries), draw(st.integers(0, K.q - 2))


@pytest.mark.parametrize("pe", POWER_SUM_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_power_sums_in_closed_form_match_the_products(pe, data):
    K = field_create(*pe)
    T, k_max = data.draw(power_sum_instances(K))
    assert power_sum_polys(T, k_max) == power_sums_by_products(T, k_max)


@pytest.mark.parametrize("pe", POWER_SUM_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def test_power_sums_at_the_largest_index(pe):
    K = field_create(*pe)
    T = PointMultiset(K, [((0, 0), K.p), ((1, 0), 1), ((0, K.q - 1), K.p + 1),
                          ((K.q - 1, 1), 2 * K.p - 1)])
    assert power_sum_polys(T, K.q - 2) == power_sums_by_products(T, K.q - 2)
    assert power_sum_polys(PointMultiset(K), K.q - 2) == [UniPoly.zero(K)] * (K.q - 1)


# -- Newton's identities ------------------------------------------------------


def test_sigma_one_is_scaled_first_power_sum():
    T = PointMultiset(K7, [((1, 2), 1), ((3, 4), 2)])
    ps = power_sum_polys(T, 1)
    for c in range(1, 7):
        assert newton_sigma(ps, 1, c) == [ps[1].scale(K7.inv(c))]


def test_sigma_two_closed_form():
    T = PointMultiset(K7, [((1, 2), 1), ((3, 4), 2)])
    ps = power_sum_polys(T, 2)
    p1 = ps[1].scale(K7.inv(2))
    p2 = ps[2].scale(K7.inv(2))
    expected = (p1 * p1 - p2).scale(K7.inv(2))
    assert newton_sigma(ps, 2, 2)[1] == expected


def _partition_sigmas(scaled):
    # closed expansions of the elementary symmetric polynomials in the
    # scaled power sums, valid while 24 is invertible
    K = scaled[1].field
    p1, p2, p3, p4 = scaled[1], scaled[2], scaled[3], scaled[4]
    s1 = p1
    s2 = (p1 * p1 - p2).scale(K.inv(K.from_int(2)))
    s3 = (p1 * p1 * p1
          - (p1 * p2).scale(K.from_int(3))
          + p3.scale(K.from_int(2))).scale(K.inv(K.from_int(6)))
    s4 = (p1 * p1 * p1 * p1
          - (p1 * p1 * p2).scale(K.from_int(6))
          + (p2 * p2).scale(K.from_int(3))
          + (p1 * p3).scale(K.from_int(8))
          - p4.scale(K.from_int(6))).scale(K.inv(K.from_int(24)))
    return [s1, s2, s3, s4]


@st.composite
def multiset_and_offset(draw):
    p = draw(st.sampled_from([7, 11]))
    K = field_create(p)
    n = draw(st.integers(1, 6))
    entries = [((draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))),
                draw(st.integers(1, 3))) for _ in range(n)]
    return K, PointMultiset(K, entries), draw(st.integers(1, p - 1))


@given(multiset_and_offset())
@settings(max_examples=60, deadline=None)
def test_newton_recursion_matches_partition_formulas(inst):
    K, T, c = inst
    ps = power_sum_polys(T, 4)
    scaled = [f.scale(K.inv(c)) for f in ps]
    assert newton_sigma(ps, 4, c) == _partition_sigmas(scaled)


def test_newton_sigma_input_checks():
    T = PointMultiset(K7, [((0, 0), 1)])
    ps = power_sum_polys(T, 3)
    with pytest.raises(InputError, match=r"^need 0 < lam <= min\(q-2, p-1\) = 5, got 7$"):
        newton_sigma(power_sum_polys(T, 5), 7, 1)  # above min(q-2, p-1)
    with pytest.raises(InputError, match=r"^need power sums up to index 4, got 3$"):
        newton_sigma(ps, 4, 1)
    with pytest.raises(InputError,
                       match=r"^count offset must be a nonzero residue mod p, got 0$"):
        newton_sigma(ps, 2, 0)
    with pytest.raises(InputError,
                       match=r"^count offset must be a nonzero residue mod p, got 7$"):
        newton_sigma(ps, 2, 7)


# -- equal-count construction ---------------------------------------------------


def test_single_point_envelope_is_its_dual_line():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    assert len(reports) == K7.q
    curve = envelope_regular(T, reports)
    assert curve.nominal_class == 1
    assert curve.provenance == "regular"
    assert curve.poly == TriHomPoly.linear(K7, 1, 2, K7.neg(3))
    assert verify_envelope(curve, reports).ok
    # class 1: the envelope is the dual of the concurrency point
    lines = [r.renitent[0].line for r in reports]
    assert concurrency_point(lines) == ProjPoint.affine(K7, 2, 3)


def test_planted_triple_matches_dual_line_product():
    K = field_create(11)
    inst = gen_planted(K, [(0, 0), (1, 2), (2, 1)], [1, 1, 1], c=2)
    T = inst.multiset
    reports = [classify_direction(T, d, 3) for d in inst.generic_directions
               if slope_of(d) is not None]
    assert all(r is not None and r.sharp for r in reports)
    curve = envelope_regular(T, reports)
    assert curve.poly == inst.oracle   # both monic in U: exact equality
    assert verify_envelope(curve, reports).ok


def test_curve_json_shape():
    T = PointMultiset(K7, [((2, 3), 1)])
    curve = envelope_regular(T, slope_reports(T, 1))
    js = curve.to_json()
    assert js["class"] == 1
    assert js["affine_degree"] == 1
    assert js["provenance"] == "regular"
    assert js["monomials"] == [
        {"i": 1, "j": 0, "k": 0, "coeff": 1},
        {"i": 0, "j": 1, "k": 0, "coeff": 2},
        {"i": 0, "j": 0, "k": 1, "coeff": 4},
    ]


def test_unequal_counts_within_direction_rejected():
    T = PointMultiset(K7, [((0, 0), 1), ((1, 1), 2)])
    bad = synth_report(K7, 0, 0, (1, 2))
    with pytest.raises(HypothesisViolation) as exc:
        envelope_regular(T, [bad])
    assert exc.value.part == "ii"


def test_unequal_offsets_across_directions_rejected():
    T = PointMultiset(K7, [((0, 0), 1), ((1, 1), 2)])
    r1 = synth_report(K7, 0, 0, (1,))
    r2 = synth_report(K7, 1, 0, (2,))
    with pytest.raises(HypothesisViolation) as exc:
        envelope_regular(T, [r1, r2])
    assert exc.value.part == "iii"


def test_class_out_of_range_rejected():
    K5 = field_create(5)
    T = PointMultiset(K5, [((0, 0), 1)])
    bad = synth_report(K5, 0, 0, (1, 1, 1, 1))  # 4 > min(q-2, p-1) = 3
    with pytest.raises(HypothesisViolation) as exc:
        envelope_regular(T, [bad])
    assert exc.value.part == "i"


def test_vertical_direction_rejected():
    T = PointMultiset(K7, [((0, 0), 1)])
    with pytest.raises(HypothesisRejected,
                       match=r"^the regular construction works on slope directions only$"):
        envelope_regular(T, [synth_report(K7, None, 0, (1,))])


def test_mixed_renitent_counts_rejected():
    T = PointMultiset(K7, [((0, 0), 1)])
    r1 = synth_report(K7, 0, 0, (1,))
    r2 = synth_report(K7, 1, 0, (1, 1))
    with pytest.raises(HypothesisRejected,
                       match=r"^renitent counts differ across directions: \[1, 2\]$"):
        envelope_regular(T, [r1, r2])


# -- per-line weights ------------------------------------------------------------


def test_weights_for_offset_two():
    r = synth_report(K7, 0, 1, (3, 3, 5))
    entry = lambda_weights(r, 2)
    assert entry.weights == (1, 1, 2)
    assert entry.total == 4


def test_weight_total_depends_on_offset():
    K13 = field_create(13)
    r = synth_report(K13, 0, 1, (2, 8))
    assert lambda_weights(r, 1).weights == (1, 7)
    assert lambda_weights(r, 1).total == 8
    assert lambda_weights(r, 7).weights == (2, 1)
    assert lambda_weights(r, 7).total == 3


def test_offset_three_reconciles_two_directions():
    K5 = field_create(5)
    r1 = synth_report(K5, 0, 0, (1, 1))
    r2 = synth_report(K5, 1, 0, (3, 4))
    assert lambda_weights(r1, 1).total == 2
    assert lambda_weights(r2, 1).total == 7
    assert lambda_weights(r1, 3).total == 4
    assert lambda_weights(r2, 3).total == 4


def test_weight_input_checks():
    r = synth_report(K7, 0, 1, (1,))
    with pytest.raises(InputError, match=r"^line .* has the typical count$"):
        lambda_weights(r, 1)  # renitent count equals the typical count
    with pytest.raises(InputError,
                       match=r"^count offset must be a nonzero residue mod p, got 0$"):
        lambda_weights(synth_report(K7, 0, 0, (1,)), 0)


def test_scan_picks_smallest_feasible_total():
    K5 = field_create(5)
    rs = [synth_report(K5, 0, 0, (1, 1)), synth_report(K5, 1, 0, (3, 4))]
    outcomes, best = scan_weight_classes(rs, K5.p, cap=10)
    assert outcomes == {1: None, 2: 6, 3: 4, 4: None}
    assert best == 3
    outcomes, best = scan_weight_classes(rs, K5.p, cap=3)
    assert best is None
    assert all(total is None for total in outcomes.values())
    # a line whose count is the typical one rules out every offset at once
    outcomes, best = scan_weight_classes(rs + [synth_report(K5, 2, 1, (1,))], K5.p, cap=10)
    assert outcomes == {1: None, 2: None, 3: None, 4: None}
    assert best is None


def scan_by_direction(reports, p, cap):
    """scan_weight_classes as it ran before: one total per direction at every c."""
    diffs = [[(e.t - r.m_d) % r.direction.field.p for e in r.renitent] for r in reports]
    if any(0 in ds for ds in diffs):
        return dict.fromkeys(range(1, p)), None
    outcomes, best = {}, None
    for c in range(1, p):
        c_inv = pow(c, p - 2, p)
        totals = {sum(d * c_inv % p for d in ds) for ds in diffs}
        if len(totals) == 1 and (total := totals.pop()) <= cap:
            outcomes[c] = total
            if best is None or total < outcomes[best]:
                best = c
        else:
            outcomes[c] = None
    return outcomes, best


@pytest.mark.parametrize("q", [5, 7, 13, 31])
def test_scan_equals_the_per_direction_loop(q):
    """Random reports that repeat a few multisets of counts in shuffled
    orders (as the directions of one planted set do), or draw each anew."""
    K = field_create(q)
    rng = random.Random(q)

    def counts(m_d):   # now and then one equal to m_d, which rules out every c
        return [rng.randrange(q) if rng.random() < 0.03 else (m_d + rng.randrange(1, q)) % q
                for _ in range(rng.randrange(1, 5))]

    for _ in range(200):
        m_d = rng.randrange(q)
        shapes = [counts(m_d) for _ in range(rng.choice([1, 1, 2, 3]))]
        reports = []
        for slope in range(rng.randrange(0, q)):
            ts = list(rng.choice(shapes)) if rng.random() < 0.9 else counts(m_d)
            rng.shuffle(ts)
            reports.append(synth_report(K, slope, m_d, tuple(ts)))
        cap = rng.choice([q - 2, q * 4, rng.randrange(q)])
        assert scan_weight_classes(reports, K.p, cap) == scan_by_direction(reports, K.p, cap)


# -- weighted construction --------------------------------------------------------


def test_all_weights_one_reduces_to_equal_count_curve():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    reg = envelope_regular(T, reports)
    curve, mults = envelope_weighted(T, reports, 1)
    assert curve.poly == reg.poly
    assert curve.provenance == "weighted"
    assert set(mults.values()) == {1}


@pytest.mark.parametrize("pe", [(2, 3), (3, 2), (5, 2), (3, 3), (11, 1), (13, 1)],
                         ids=lambda pe: f"q{pe[0] ** pe[1]}")
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_weighted_with_unit_weights_is_the_regular_curve_on_planted_sets(pe, data):
    K = field_create(*pe)
    k = data.draw(st.integers(1, min(3, K.p - 1)))
    element = st.integers(0, K.q - 1)
    points = data.draw(st.lists(st.tuples(element, element), min_size=k, max_size=k,
                                unique=True))
    c = data.draw(st.integers(1, K.p - 1))
    inst = gen_planted(K, points, [1] * k, c=c)
    T = inst.multiset
    sharp = [r for r in slope_reports(T, k) if r.lambda_d == k]
    reg = envelope_regular(T, sharp)
    curve, mults = envelope_weighted(T, sharp, c)
    assert curve.poly == reg.poly == inst.oracle
    assert set(mults.values()) == {1}


def test_planted_weights_recovered_exactly():
    K = field_create(11)
    inst = gen_planted(K, [(0, 0), (1, 2)], [1, 3], c=2)
    T = inst.multiset
    reports = [classify_direction(T, d, 2) for d in inst.generic_directions
               if slope_of(d) is not None]
    curve, mults = envelope_weighted(T, reports, 2)
    assert curve.nominal_class == inst.expected_class == 4
    assert curve.poly == inst.oracle
    assert sorted(mults.values()) == [1] * len(reports) + [3] * len(reports)
    assert verify_envelope(curve, reports, mults).ok


def test_full_scan_covers_the_vertical_direction():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = uniform_directions(T, 1)
    assert len(reports) == K7.q + 1
    curve, mults = envelope_weighted(T, reports, 1)
    assert curve.poly == TriHomPoly.linear(K7, 1, 2, K7.neg(3))
    assert verify_envelope(curve, reports, mults).ok


def test_vertical_rejected_below_full_scan():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = uniform_directions(T, 1)
    with pytest.raises(HypothesisRejected,
                       match=r"^vertical direction allowed only when all q\+1 are covered$"):
        envelope_weighted(T, reports[1:], 1)  # keeps the vertical, drops slope 0


def test_size_divisible_by_p_rejected():
    T = PointMultiset(K7, [((0, 0), 3), ((1, 1), 4)])
    reports = slope_reports(T, 2)
    assert reports
    with pytest.raises(HypothesisRejected,
                       match=r"^\|T\| = 7 vanishes mod p; weights are undetermined$"):
        envelope_weighted(T, reports, 1)


def test_inconsistent_totals_rejected():
    T = PointMultiset(K7, [((0, 0), 1)])
    r1 = synth_report(K7, 0, 0, (1,))
    r2 = synth_report(K7, 1, 0, (2,))
    with pytest.raises(HypothesisRejected,
                       match=r"^weight totals differ across directions: \[1, 2\]$"):
        envelope_weighted(T, [r1, r2], 1)
    with pytest.raises(InputError, match=r"^no renitent lines to envelope$"):
        envelope_weighted(T, [synth_report(K7, 0, 0, ()), synth_report(K7, 1, 0, ())], 1)


def test_weight_cap_enforced():
    K5 = field_create(5)
    T = PointMultiset(K5, [((0, 0), 4)])
    r = synth_report(K5, 0, 0, (4,))
    with pytest.raises(HypothesisRejected, match=r"^direction inf:0 needs class 4 > 3$"):
        envelope_weighted(T, [r], 1)  # weight 4 > min(q-2, p-1) = 3


# -- weighted power-sum recursion ---------------------------------------------------


def test_recursion_single_node():
    for x in K7.elements():
        assert weighted_power_recursion_check(K7, [3], [x], 4)


def test_recursion_zero_coefficients():
    assert weighted_power_recursion_check(K7, [0, 0], [1, 2], 5)


@st.composite
def recursion_instance(draw):
    p, e = draw(st.sampled_from([(5, 1), (7, 1), (3, 2)]))
    K = field_create(p, e)
    lam = draw(st.integers(1, 4))
    cs = [draw(st.integers(0, K.q - 1)) for _ in range(lam)]
    xs = [draw(st.integers(0, K.q - 1)) for _ in range(lam)]
    return K, cs, xs, draw(st.integers(0, 6))


@given(recursion_instance())
@settings(max_examples=100, deadline=None)
def test_recursion_identity_always_holds(inst):
    K, cs, xs, j = inst
    assert weighted_power_recursion_check(K, cs, xs, j)


def test_recursion_input_checks():
    with pytest.raises(InputError):
        weighted_power_recursion_check(K7, [1], [1, 2], 0)
    with pytest.raises(InputError):
        weighted_power_recursion_check(K7, [], [], 0)
    with pytest.raises(InputError):
        weighted_power_recursion_check(K7, [1], [1], -1)


# -- Hankel system --------------------------------------------------------------


def test_hankel_layout():
    T = PointMultiset(K7, [((1, 2), 1), ((3, 4), 1)])
    ps = power_sum_polys(T, 2)
    assert hankel_matrix(ps, 1).det() == ps[0]
    assert hankel_matrix(ps, 2).det() == ps[1] * ps[1] - ps[0] * ps[2]


def test_hankel_needs_enough_power_sums():
    T = PointMultiset(K7, [((1, 2), 1)])
    with pytest.raises(InputError, match=r"^need power sums up to index 4, got 2$"):
        hankel_matrix(power_sum_polys(T, 2), 3)


def test_hankel_evaluation_matches_numeric_moments():
    T = PointMultiset(K7, [((1, 2), 1), ((3, 4), 2), ((0, 1), 1)])
    ps = power_sum_polys(T, 4)
    H = hankel_matrix(ps, 3)
    for d in K7.elements():
        profile = intercept_profile(T, slope_direction(K7, d))
        def moment(k):
            acc = 0
            for t, m in profile.items():
                acc = K7.add(acc, K7.mul(K7.from_int(m), K7.pow(t, k)))
            return acc
        numeric = [[e(d) for e in row] for row in H.rows]
        for r in range(3):
            for c in range(3):
                assert numeric[r][c] == moment(2 + r - c)


def test_closed_form_single_node():
    assert hankel_det_closed_form(K7, [5], [3]) == 5


def test_closed_form_vanishes_on_repeated_nodes():
    assert hankel_det_closed_form(K7, [1, 1], [4, 4]) == 0
    assert hankel_det_closed_form(K7, [2, 3, 4], [1, 5, 1]) == 0


def test_acceptance_helpers_check_once_then_run_on_kernels(monkeypatch):
    """Both helpers check each c_i and x_i once and compute on the field's
    unchecked kernels: with the checked add, sub, neg, mul and pow made to
    raise, they return what they returned before."""
    rng = random.Random(31)
    cases = []
    for pe in [(7, 1), (2, 3), (3, 2)]:
        K = field_create(*pe)
        for lam in range(1, 5):
            cs = [rng.randrange(K.q) for _ in range(lam)]
            xs = [rng.randrange(K.q) for _ in range(lam)]
            cases.append((K, cs, xs, rng.randrange(5)))
    before = [(weighted_power_recursion_check(*case), hankel_det_closed_form(*case[:3]))
              for case in cases]
    assert all(holds for holds, _ in before)

    def forbidden(*args):
        raise AssertionError("a checked field operation ran")

    for name in ("add", "sub", "neg", "mul", "pow"):
        monkeypatch.setattr(GF, name, forbidden)
    assert [(weighted_power_recursion_check(*case), hankel_det_closed_form(*case[:3]))
            for case in cases] == before


@st.composite
def moment_instance(draw):
    K = field_create(11)
    lam = draw(st.integers(1, 3))
    cs = [draw(st.integers(0, 10)) for _ in range(lam)]
    xs = [draw(st.integers(0, 10)) for _ in range(lam)]
    return K, cs, xs


@given(moment_instance())
@settings(max_examples=80, deadline=None)
def test_closed_form_matches_moment_determinant(inst):
    K, cs, xs = inst
    lam = len(xs)

    def psum(k):
        acc = 0
        for ci, xi in zip(cs, xs):
            acc = K.add(acc, K.mul(ci, K.pow(xi, k)))
        return acc

    ps = [UniPoly(K, (psum(k),)) for k in range(2 * lam - 1)]
    det = hankel_matrix(ps, lam).det()
    assert det == UniPoly(K, (hankel_det_closed_form(K, cs, xs),))


# -- determinant construction ------------------------------------------------------


def test_general_single_point_reduces_to_dual_line():
    T = PointMultiset(K7, [((2, 3), 4)])
    reports = slope_reports(T, 1)
    curve = envelope_general(T, reports, 1)
    assert curve.nominal_class == 1
    assert curve.provenance == "general"
    assert curve.lead == UniPoly(K7, (4,))  # pi_0 = multiplicity
    assert curve.poly.proportional_to(TriHomPoly.linear(K7, 1, 2, K7.neg(3)))
    assert verify_envelope(curve, reports).ok


def merged_instance(q):
    # three unit points on the line y = x: slope 1 merges them onto one
    # renitent line while every other slope keeps them apart
    K = field_create(q)
    T = PointMultiset(K, [((0, 0), 1), ((1, 1), 1), ((2, 2), 1)])
    return K, T, slope_reports(T, 3)


def test_merged_direction_contains_its_pencil():
    K, T, reports = merged_instance(11)
    assert len(reports) == K.q
    curve = envelope_general(T, reports, 3)
    assert curve.nominal_class == 9
    verification = verify_envelope(curve, reports)
    assert verification.ok
    merged = slope_direction(K, 1)
    for r in reports:
        d = slope_of(r.direction)
        section = curve.poly.at_vw(d, 1)
        if r.direction == merged:
            assert r.lambda_d == 1
            assert section.is_zero()  # whole pencil inside the curve
            continue
        assert r.lambda_d == 3
        lead_at_d = curve.lead(d)
        assert lead_at_d != 0
        expected = UniPoly(K, (lead_at_d,))
        for entry in r.renitent:
            expected = expected * UniPoly(K, (K.neg(entry.alpha), 1))
        assert section == expected


def replace_column_envelope(T, lam):
    """envelope_general's curve and lead read straight off its
    definition: M = det H, then each M_i = det H with column i replaced
    by v, all lam + 1 by separate cofactor expansions."""
    K = T.field
    sums = power_sum_polys(T, 2 * lam - 1)
    H = [list(row) for row in hankel_matrix(sums, lam).rows]
    lead = cofactor_det(K, H)
    terms = {(lam, j): c for j, c in enumerate(lead.coeffs)}
    for i in range(1, lam + 1):
        replaced = [row[:i - 1] + [sums[lam + r]] + row[i:] for r, row in enumerate(H)]
        minor = -cofactor_det(K, replaced)
        terms.update(((lam - i, j), c) for j, c in enumerate(minor.coeffs))
    return homogenize(BiPoly(K, terms), lam * lam), lead


@pytest.mark.parametrize("lam", range(1, 7))
@pytest.mark.parametrize("spec", [(13,), (31,), (37,), (7, 2)], ids=lambda s: f"q{s[0] ** len(s)}")
def test_general_matches_replace_column_construction(spec, lam):
    K = field_create(*spec)
    rng = SplitMix64(1000 * K.q + lam)
    points = set()
    while len(points) < lam:
        points.add((rng.next_u64() % K.q, rng.next_u64() % K.q))
    weights = [1 + rng.next_u64() % (K.p - 1) for _ in range(lam)]
    T = gen_planted(K, sorted(points), weights).multiset
    curve = envelope_general(T, slope_reports(T, lam), lam)
    assert (curve.poly, curve.lead) == replace_column_envelope(T, lam)


def test_general_input_checks():
    K, T, reports = merged_instance(11)
    with pytest.raises(InputError, match=r"^need 0 < lam <= \(q-1\)/2 = 5, got 6$"):
        envelope_general(T, reports, 6)  # above (q-1)/2
    with pytest.raises(InputError):
        envelope_general(T, reports, 2)  # a report shows 3 renitent lines
    with pytest.raises(HypothesisRejected,
                       match=r"^the general construction works on slope directions only$"):
        envelope_general(T, [synth_report(K, None, 0, (1,))], 1)
    everything = uniform_directions(T, 3)
    assert len(everything) == K.q + 1
    with pytest.raises(HypothesisRejected, match=r"^at most q = 11 directions, got 12$"):
        envelope_general(T, everything, 3)



def test_general_degenerate_curve_is_a_rejected_hypothesis():
    # the point's weight 7 vanishes mod 7, so no line is renitent and every
    # power sum is zero: each coefficient determinant of the curve is zero
    T = PointMultiset(K7, [((1, 2), 7)])
    reports = [r for r in uniform_directions(T, 1) if slope_of(r.direction) is not None]
    assert len(reports) == 7
    with pytest.raises(HypothesisRejected, match=r"^every coefficient determinant vanishes"):
        envelope_general(T, reports, 1)

# -- deficiency bound -----------------------------------------------------------


def test_deficiency_with_one_merged_direction():
    _, _, reports = merged_instance(11)
    rep = deficiency_bound_check(reports, 3)
    assert rep.total_deficit == 2  # one direction at 1 instead of 3
    assert rep.bound == 6
    assert rep.ok
    js = rep.to_json()
    assert js["pass"] is True
    assert sum(3 - row["lambda_d"] for row in js["per_direction"]) == 2


def test_deficiency_all_sharp_is_zero():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    rep = deficiency_bound_check(reports, 1)
    assert rep.total_deficit == 0
    assert rep.bound == 0
    assert rep.ok


def test_deficiency_needs_a_sharp_direction():
    K, _, reports = merged_instance(11)
    merged_only = [r for r in reports if r.direction == slope_direction(K, 1)]
    with pytest.raises(HypothesisRejected,
                       match=r"^the bound needs a direction with lambda_d = lam$"):
        deficiency_bound_check(merged_only, 3)


def test_deficiency_refuses_reports_that_are_not_one_classification():
    # each would pass the check at q = 7 otherwise: three copies of the 8
    # reports give a false violation, reports classified at lam = 3 a
    # deficit of -5, and reports over two fields would be summed together
    T = PointMultiset(K7, [((1, 2), 1), ((3, 5), 1)])
    reports = uniform_directions(T, 2)
    assert len(reports) == 8 and deficiency_bound_check(reports, 2).ok
    with pytest.raises(InputError, match=r"^duplicate direction "):
        deficiency_bound_check(reports * 3, 2)
    three = PointMultiset(K7, [((1, 2), 1), ((3, 5), 1), ((4, 4), 1)])
    with pytest.raises(InputError, match=r"shows 3 renitent lines, more than lam = 2$"):
        deficiency_bound_check(uniform_directions(three, 3), 2)
    T11 = PointMultiset(field_create(11), [((1, 2), 1), ((3, 5), 1)])
    with pytest.raises(InputError, match=r"^report uses a different context$"):
        deficiency_bound_check(reports + uniform_directions(T11, 2), 2)
    with pytest.raises(InputError, match=r"^need 0 < lam <= \(q-1\)/2 = 3, got '2'$"):
        deficiency_bound_check(reports, "2")


# -- verification -----------------------------------------------------------------


def test_wrong_curve_fails_everywhere():
    T = PointMultiset(K7, [((2, 3), 1)])
    reports = slope_reports(T, 1)
    wrong = EnvelopeCurve(TriHomPoly.linear(K7, 1, 2, K7.neg(4)), 1, "regular")
    rep = verify_envelope(wrong, reports)
    assert not rep.ok
    assert all(not c.ok for c in rep.directions)


def test_exact_multiplicities_enforced_by_weight_map():
    K = field_create(11)
    inst = gen_planted(K, [(0, 0)], [2], c=1)
    T = inst.multiset
    reports = [classify_direction(T, d, 1) for d in inst.generic_directions
               if slope_of(d) is not None]
    curve, mults = envelope_weighted(T, reports, 1)
    assert curve.nominal_class == 2
    assert verify_envelope(curve, reports, mults).ok
    assert verify_envelope(curve, reports).ok  # at-least-one default
    understated = {line: 1 for line in mults}
    assert not verify_envelope(curve, reports, understated).ok


# -- root multiplicities by Horner passes ------------------------------------------


def root_multiplicity_by_division(poly, root):
    """The loop _root_multiplicity ran before it moved to Horner passes."""
    K = poly.field
    m = 0
    while poly.degree >= 1 and poly(root) == 0:
        poly = poly // UniPoly(K, (K.neg(root), 1))
        m += 1
    return m


MULT_FIELDS = [field_create(2), field_create(3), field_create(2, 2), field_create(3, 2),
               field_create(7)]


@st.composite
def planted_roots(draw):
    """A cofactor times (x - r)^m for a few roots r, m up to 7 (so m >= p
    at p = 2 and 3); the cofactor may be zero or constant."""
    K = draw(st.sampled_from(MULT_FIELDS))
    poly = UniPoly(K, draw(st.lists(st.integers(0, K.q - 1), max_size=4)))
    roots = draw(st.lists(st.tuples(st.integers(0, K.q - 1), st.integers(0, 7)), max_size=3))
    for r, m in roots:
        for _ in range(m):
            poly = poly * UniPoly(K, (K.neg(r), 1))
    return poly


@settings(max_examples=200)
@given(planted_roots())
def test_root_multiplicity_matches_the_division_loop(poly):
    for root in poly.field.elements():
        assert _root_multiplicity(poly, root) == root_multiplicity_by_division(poly, root)


def test_root_multiplicity_edge_cases():
    K2, K3 = field_create(2), field_create(3)
    assert _root_multiplicity(UniPoly.zero(K3), 1) == 0
    assert _root_multiplicity(UniPoly(K3, (2,)), 0) == 0
    # x^4 + 1 = (x + 1)^4 over GF(2); x^3 - 1 = (x - 1)^3 over GF(3)
    assert _root_multiplicity(UniPoly(K2, (1, 0, 0, 0, 1)), 1) == 4
    assert _root_multiplicity(UniPoly(K3, (2, 0, 0, 1)), 1) == 3
    assert _root_multiplicity(UniPoly(K3, (2, 0, 0, 1)), 0) == 0


def test_verification_divides_nothing_by_divmod(monkeypatch):
    def forbidden(*args):
        raise AssertionError("UniPoly.__divmod__ ran")

    K = field_create(11)
    inst = gen_planted(K, [(0, 0), (1, 2)], [1, 3], c=2)
    reports = [classify_direction(inst.multiset, d, 2) for d in inst.generic_directions
               if slope_of(d) is not None]
    curve, mults = envelope_weighted(inst.multiset, reports, 2)
    _, T, merged = merged_instance(11)
    general = envelope_general(T, merged, 3)
    monkeypatch.setattr(UniPoly, "__divmod__", forbidden)
    assert verify_envelope(curve, reports, mults).ok
    assert verify_envelope(general, merged).ok
