"""Instance factories: bit-exact randomness, planted ground truth, and
the even-characteristic norm conic."""

import pytest

from renitent import (
    SplitMix64,
    TriHomPoly,
    field_create,
    gen_norm_conic,
    gen_planted,
    gen_random,
    slope_direction,
    vertical_direction,
)
from renitent import generators
from renitent.errors import InputError

K7 = field_create(7)


# -- splitmix64 --------------------------------------------------------------


def test_splitmix_reference_vector():
    # the widely published sequence for seed 0
    r = SplitMix64(0)
    assert [r.next_u64() for _ in range(5)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]


def test_splitmix_seed_wraps_mod_2_64():
    a = SplitMix64(0)
    b = SplitMix64(1 << 64)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


def test_splitmix_seed_validation():
    with pytest.raises(InputError):
        SplitMix64(-1)
    with pytest.raises(InputError):
        SplitMix64("0")


# -- the lane kernel ---------------------------------------------------------

LANES = generators._LANES
SEEDS = [0, (1 << 64) - 1, (1 << 64) + 5, 42]


def scalar_flags(seed, threshold, count):
    """Oracle: one SplitMix64 draw per coin, kept when below threshold."""
    rng = SplitMix64(seed)
    return bytes(rng.next_u64() < threshold for _ in range(count))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 7])
@pytest.mark.parametrize("threshold", [0, 1, 1 << 63, 1 << 64])
def test_keep_flags_equal_the_scalar_draws(seed, count, threshold):
    flags = generators._keep_flags(SplitMix64(seed).state, threshold, count)
    assert flags == scalar_flags(seed, threshold, count)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", [0, LANES - 1, LANES, 2 * LANES + 3])
def test_keep_flags_compare_strictly_below(seed, index):
    # a draw equal to the threshold is dropped, one below it is kept
    rng = SplitMix64(seed)
    draw = [rng.next_u64() for _ in range(index + 1)][-1]
    state = SplitMix64(seed).state
    for threshold, kept in ((draw, 0), (draw + 1, 1)):
        flags = generators._keep_flags(state, threshold, index + 2)
        assert flags[index] == kept
        assert flags == scalar_flags(seed, threshold, index + 2)


# -- random multisets --------------------------------------------------------


def test_random_is_bit_stable():
    T = gen_random(K7, 42, 0.5)
    assert T.size == 24
    assert T.items() == gen_random(K7, 42, 0.5).items()
    assert T.items()[:4] == [((0, 1), 1), ((0, 2), 1), ((0, 3), 1), ((0, 4), 1)]
    assert all(m == 1 for _, m in T.items())


def test_random_density_one_fills_the_plane():
    T = gen_random(K7, 3, 1.0)
    assert T.size == K7.q * K7.q


def test_random_density_validation():
    with pytest.raises(InputError):
        gen_random(K7, 0, 0)
    with pytest.raises(InputError):
        gen_random(K7, 0, 1.5)


def test_random_refuses_fields_over_its_budget_before_any_draw(monkeypatch):
    # the ladder's largest field, 2^9, stays inside the budget
    assert generators.RANDOM_MAX_POINTS >= 512 * 512

    def no_draws(*args):
        raise AssertionError("drew a coin")

    monkeypatch.setattr(generators, "SplitMix64", no_draws)
    monkeypatch.setattr(generators, "_keep_flags", no_draws)
    with pytest.raises(InputError, match=r"^a random instance draws one coin per point: "
                                         r"q\^2 = 1062961 is over the budget of 1048576 points$"):
        gen_random(field_create(1031), 0, 0.5)


def test_random_seeds_differ():
    assert gen_random(K7, 1, 0.5).items() != gen_random(K7, 2, 0.5).items()


def test_random_seed_refusals():
    with pytest.raises(InputError, match=r"^seed must be a non-negative integer, got -1$"):
        gen_random(K7, -1, 0.5)
    with pytest.raises(InputError, match=r"^seed must be a non-negative integer, got '0'$"):
        gen_random(K7, "0", 0.5)


def scalar_random(K, seed, density):
    """Oracle: the points one SplitMix64 draw at a time, in (a, b) order."""
    threshold = int(density * (1 << 64))
    rng = SplitMix64(seed)
    return [(a, b) for a in K.elements() for b in K.elements() if rng.next_u64() < threshold]


@pytest.mark.parametrize("p,e", [(7, 1), (37, 1), (2, 1), (2, 5), (2, 6), (3, 3), (5, 2)])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("density", [1, 0.999, 0.5, 0.05, 1e-300])
def test_random_equals_the_scalar_loop(p, e, seed, density):
    K = field_create(p, e)
    T = gen_random(K, seed, density)
    points = scalar_random(K, seed, density)
    assert list(T._mults) == points   # the same insertion order
    assert T.items() == [(pt, 1) for pt in sorted(points)]
    if density == 1:
        assert T.size == K.q * K.q
    if density == 1e-300:   # a threshold of 0 keeps nothing
        assert T.size == 0


# -- planted instances -------------------------------------------------------


def test_planted_multiset_and_oracle():
    inst = gen_planted(K7, [(0, 0), (1, 2)], [1, 3], c=2)
    assert dict(inst.multiset.items()) == {(0, 0): 2, (1, 2): 6}
    assert inst.expected_class == 4
    expected = (TriHomPoly.linear(K7, 1, 0, 0)
                * TriHomPoly.linear(K7, 1, 1, K7.neg(2)) ** 3)
    assert inst.oracle == expected
    assert inst.c == 2 and inst.weights == (1, 3)


def test_planted_generic_directions_exclude_spanned():
    inst = gen_planted(K7, [(0, 0), (1, 2), (0, 3)], [1, 1, 1])
    spanned = {slope_direction(K7, 2),       # (0,0)-(1,2)
               vertical_direction(K7),       # (0,0)-(0,3)
               slope_direction(K7, K7.neg(1))}  # (1,2)-(0,3): slope -1
    assert set(inst.generic_directions) == (
        {slope_direction(K7, s) for s in K7.elements()}
        | {vertical_direction(K7)}) - spanned
    assert len(inst.generic_directions) == K7.q + 1 - 3


def test_planted_validation():
    with pytest.raises(InputError):
        gen_planted(K7, [], [])
    with pytest.raises(InputError, match=r"^need fewer points than p = 7, got 7$"):
        gen_planted(K7, [(x, 0) for x in range(7)], [1] * 7)
    with pytest.raises(InputError, match=r"^planted points must be distinct$"):
        gen_planted(K7, [(0, 0), (0, 0)], [1, 1])
    with pytest.raises(InputError):
        gen_planted(K7, [(0, 0)], [1, 2])
    with pytest.raises(InputError):
        gen_planted(K7, [(0, 0)], [0])
    with pytest.raises(InputError):
        gen_planted(K7, [(0, 0)], [7])  # weight vanishes mod p
    with pytest.raises(InputError):
        gen_planted(K7, [(0, 0)], [1], c=0)
    with pytest.raises(InputError):
        gen_planted(K7, [(0, 0)], [1], c=7)


def test_planted_refuses_weights_of_p_or_more():
    # classification sees only c * w mod p, so a weight of 8 at p = 7
    # would record a class of 9 that the multiset shows as 2
    with pytest.raises(InputError, match=r"^weights must lie in 1\.\.p-1 = 6, got 8$"):
        gen_planted(K7, [(1, 2), (3, 4)], [8, 1])
    with pytest.raises(InputError, match=r"^weight 14 vanishes mod p = 7"):
        gen_planted(K7, [(1, 2)], [14])
    assert gen_planted(K7, [(1, 2), (3, 4)], [6, 1]).expected_class == 7


def test_planted_json_shape():
    js = gen_planted(K7, [(2, 3)], [2]).to_json()
    assert js["kind"] == "planted"
    assert js["points"] == [[2, 3]]
    assert js["weights"] == [2]
    assert js["expected_class"] == 2
    assert {"i": 2, "j": 0, "k": 0, "coeff": 1} in js["oracle"]


# -- norm conic --------------------------------------------------------------


def scan_conic(K, delta):
    """Oracle: every affine point of x^2 + xy + delta y^2 = 1, by a q^2 scan."""
    return [((x, y), 1) for x in K.elements() for y in K.elements()
            if K.add(K.mul(x, x), K.add(K.mul(x, y), K.mul(delta, K.mul(y, y)))) == 1]


@pytest.mark.parametrize("e", range(2, 9))
def test_conic_equals_the_scan(e):
    K = field_create(2, e)
    inst = gen_norm_conic(K)
    assert inst.multiset.items() == scan_conic(K, inst.delta)


def test_conic_costs_o_q_multiplications(monkeypatch):
    K = field_create(2, 8)
    calls, mul = [], K.umul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(K, "umul", counted)
    assert gen_norm_conic(K).multiset.size == K.q + 1
    assert len(calls) <= 4 * K.q   # the q^2 scan took 3 q^2


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (2, 12)])
def test_conic_is_an_arc_through_no_infinite_point(p, e):
    K = field_create(p, e)
    inst = gen_norm_conic(K)
    T = inst.multiset
    assert T.size == K.q + 1
    assert all(m == 1 for _, m in T.items())
    assert K.trace(inst.delta) == 1
    assert inst.nucleus.coords == (0, 0, 1)
    for (x, y), _ in T.items():
        lhs = K.add(K.mul(x, x), K.add(K.mul(x, y),
                                       K.mul(inst.delta, K.mul(y, y))))
        assert lhs == 1


def test_conic_delta_is_smallest_trace_one():
    assert gen_norm_conic(field_create(2, 2)).delta == 2
    assert gen_norm_conic(field_create(2, 3)).delta == 1


def test_conic_needs_even_characteristic():
    with pytest.raises(InputError, match=r"^needs q = 2\^e with e >= 2$"):
        gen_norm_conic(field_create(5))
    with pytest.raises(InputError, match=r"^needs q = 2\^e with e >= 2$"):
        gen_norm_conic(field_create(2))
