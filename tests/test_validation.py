"""Every public entry that takes a raw field element refuses a bad index.

Inner loops run on the field's unchecked kernels, so the check has to
happen where an element enters: the checked GF methods, the constructors
of the polynomial, plane and multiset types, the parsers, the generators
and the scalar arguments of the polynomial methods.  Each row below hands
one such entry an index outside GF(7) and expects a typed error, never a
silently wrong answer.
"""

import pytest

from renitent import dichotomy_check, field_create, gcd_degree_bound, gcd_profile
from renitent.envelope import (
    hankel_det_closed_form,
    hankel_matrix,
    lambda_weights,
    newton_sigma,
    power_sum_polys,
    weighted_power_recursion_check,
)
from renitent.cli import EXIT_INPUT, main
from renitent.errors import InputError
from renitent.generators import SplitMix64, gen_planted, gen_random
from renitent.gf import GF, parse_field_spec
from renitent.plane import Collineation, ProjLine, ProjPoint, parse_point, slope_direction
from renitent.poly import BiPoly, TriHomPoly, UniPoly
from renitent.uniformity import PointMultiset, classify_direction, dump_points, parse_points

K = field_create(7)
F = UniPoly(K, (3, 1, 2))
G = BiPoly(K, {(2, 0): 1, (1, 1): 3, (0, 2): 5})
H = TriHomPoly(K, 2, {(2, 0, 0): 1, (1, 1, 0): 3, (0, 1, 1): 5})

ENTRIES = {
    "GF.check": lambda x: K.check(x),
    "GF.add.left": lambda x: K.add(x, 1),
    "GF.add.right": lambda x: K.add(1, x),
    "GF.sub.left": lambda x: K.sub(x, 1),
    "GF.sub.right": lambda x: K.sub(1, x),
    "GF.neg": lambda x: K.neg(x),
    "GF.mul.left": lambda x: K.mul(x, 2),
    "GF.mul.right": lambda x: K.mul(2, x),
    "GF.inv": lambda x: K.inv(x),
    "GF.div.left": lambda x: K.div(x, 2),
    "GF.div.right": lambda x: K.div(2, x),
    "GF.pow": lambda x: K.pow(x, 3),
    "GF.coeffs": lambda x: K.coeffs(x),
    "GF.trace": lambda x: K.trace(x),
    "UniPoly": lambda x: UniPoly(K, (1, x)),
    "UniPoly.eval": lambda x: F.eval(x),
    "UniPoly.scale": lambda x: F.scale(x),
    "BiPoly": lambda x: BiPoly(K, {(1, 0): x}),
    "BiPoly.eval_v": lambda x: G.eval_v(x),
    "BiPoly.eval.u": lambda x: G.eval(x, 1),
    "BiPoly.eval.v": lambda x: G.eval(1, x),
    "BiPoly.scale": lambda x: G.scale(x),
    "TriHomPoly.linear": lambda x: TriHomPoly.linear(K, 1, x, 2),
    "TriHomPoly.eval": lambda x: H.eval(1, 2, x),
    "TriHomPoly.at_vw.v": lambda x: H.at_vw(x, 1),
    "TriHomPoly.at_vw.w": lambda x: H.at_vw(1, x),
    "TriHomPoly.scale": lambda x: H.scale(x),
    "ProjPoint": lambda x: ProjPoint(K, x, 1, 1),
    "ProjLine": lambda x: ProjLine(K, 1, x, 1),
    "slope_direction": lambda x: slope_direction(K, x),
    "Collineation": lambda x: Collineation(K, ((1, 0, 0), (0, 1, 0), (0, x, 1))),
    "PointMultiset": lambda x: PointMultiset(K, [((1, x), 1)]),
    "parse_points": lambda x: parse_points(K, f"1 2\n{x} 3\n"),
    "parse_point": lambda x: parse_point(K, f"1,{x}"),
    "gen_planted": lambda x: gen_planted(K, [(1, 2), (x, 3)], [1, 1]),
    "hankel_det_closed_form.c": lambda x: hankel_det_closed_form(K, [1, x], [2, 3]),
    "hankel_det_closed_form.x": lambda x: hankel_det_closed_form(K, [1, 1], [2, x]),
    "weighted_power_recursion_check.c":
        lambda x: weighted_power_recursion_check(K, [1, x], [2, 3], 1),
    "weighted_power_recursion_check.x":
        lambda x: weighted_power_recursion_check(K, [1, 1], [2, x], 1),
}

PARSER_MESSAGES = {
    "parse_points": r"^line 2: coordinates out of range for GF\(7\)$",
    "parse_point": r"^point '1,-?\d+' out of range for GF\(7\)$",
}


@pytest.mark.parametrize("bad", [9, 7, -1], ids=["9", "q", "-1"])
@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_out_of_range_element_is_refused(name, bad):
    message = PARSER_MESSAGES.get(name, rf"^{bad} is not an element index of GF\(7\)$")
    with pytest.raises(InputError, match=message):
        ENTRIES[name](bad)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_entries_accept_in_range_elements(name):
    # the same calls with a valid index succeed, so each row above fails
    # on the bad element and not on something else in its arguments
    ENTRIES[name](4)


# bool subclasses int, so an isinstance check would keep True as element 1;
# dump_points would then write "True" and parse_points refuse it.
@pytest.mark.parametrize("name", sorted(set(ENTRIES) - set(PARSER_MESSAGES)))
def test_bool_element_is_refused(name):
    with pytest.raises(InputError, match=r"^True is not an element index of GF\(7\)$"):
        ENTRIES[name](True)


BOOL_COUNTS = {
    "GF.check.False": (lambda: K.check(False), r"^False is not an element index of GF\(7\)$"),
    "PointMultiset.multiplicity": (lambda: PointMultiset(K, [((1, 2), True)]),
                                   r"^multiplicity of \(1,2\) must be a positive integer$"),
    "gen_planted.point": (lambda: gen_planted(K, [(True, 2)], [1]),
                          r"^True is not an element index of GF\(7\)$"),
    "gen_planted.weight": (lambda: gen_planted(K, [(1, 2)], [True]),
                           r"^weights must be positive integers, got True$"),
    "gen_planted.c": (lambda: gen_planted(K, [(1, 2)], [1], c=True),
                      r"^multiplier must lie in 1\.\.p-1, got True$"),
    # the reports of dichotomy_check and deficiency_bound_check write lam out
    "check_lam": (lambda: dichotomy_check(PointMultiset(K, [((1, 2), 1)]), True),
                  r"^need 0 < lam <= \(q-1\)/2 = 3, got True$"),
    "GF.p": (lambda: GF(True), r"^True is not prime$"),
    "GF.e": (lambda: GF(7, True), r"^extension degree must be a positive integer, got True$"),
    "GF.pow.exponent": (lambda: K.pow(2, True),
                        r"^exponent must be a non-negative integer, got True$"),
    "UniPoly.pow": (lambda: F ** True, r"^exponent must be a non-negative integer, got True$"),
    "BiPoly.exponent": (lambda: BiPoly(K, {(True, 0): 1}),
                        r"^exponents must be 2 non-negative integers, got \(True, 0\)$"),
    "TriHomPoly.degree": (lambda: TriHomPoly(K, True, {}),
                          r"^degree must be a non-negative integer, got True$"),
    "power_sum_polys.k_max": (lambda: power_sum_polys(PointMultiset(K), True),
                              r"^k_max must be a non-negative integer, got True$"),
    "newton_sigma.lam": (lambda: newton_sigma([F, F], True, 1),
                         r"^need 0 < lam <= min\(q-2, p-1\) = 5, got True$"),
    "newton_sigma.c": (lambda: newton_sigma([F, F], 1, True),
                       r"^count offset must be a nonzero residue mod p, got True$"),
    "lambda_weights.c": (lambda: lambda_weights(
        classify_direction(PointMultiset(K, [((1, 2), 1)]), slope_direction(K, 0), 1), True),
        r"^count offset must be a nonzero residue mod p, got True$"),
    "weighted_power_recursion_check.j": (lambda: weighted_power_recursion_check(K, [1], [2], True),
                                         r"^index shift must be a non-negative integer, got True$"),
    "hankel_matrix.lam": (lambda: hankel_matrix([F], True),
                          r"^lam must be a positive integer, got True$"),
    "SplitMix64.seed": (lambda: SplitMix64(True),
                        r"^seed must be a non-negative integer, got True$"),
    "gen_random.seed": (lambda: gen_random(K, True, 0.5),
                        r"^seed must be a non-negative integer, got True$"),
    "gen_random.density": (lambda: gen_random(K, 1, True),
                           r"^density must lie in \(0, 1\], got True$"),
}


@pytest.mark.parametrize("name", sorted(BOOL_COUNTS))
def test_bool_count_or_coordinate_is_refused(name):
    call, message = BOOL_COUNTS[name]
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("e", [True, 1.0], ids=["True", "1.0"])
def test_a_refused_degree_leaves_the_field_cache_as_it_was(e):
    # the cache would key True and 1.0 as 1: refusing after it would hand
    # back GF(7) for them, and caching first would store e as True
    with pytest.raises(InputError, match=rf"^extension degree must be a positive integer, got {e}$"):
        field_create(7, e)
    assert type(field_create(7).e) is int
    with pytest.raises(InputError, match=rf"^extension degree must be a positive integer, got {e}$"):
        field_create(7, e)


# the profile's keys would find True and 1.0 as row 1, and the check's
# to_json would write the anchor out as given
@pytest.mark.parametrize("y0", [True, 1.0], ids=["True", "1.0"])
def test_gcd_degree_bound_refuses_an_anchor_that_is_not_an_int(y0):
    f = BiPoly(K, {(1, 0): 1})
    with pytest.raises(InputError, match=rf"^anchor {y0!r} is not a field element$"):
        gcd_degree_bound(gcd_profile(f, f), y0)


# A modulus coefficient is an integer in 0..p-1: a float, a str or a bool is
# refused, not truncated or parsed into some other modulus.
BAD_MODULI = {
    "field_create.float": lambda: field_create(3, 2, (2.9, 2.2, 1.7)),
    "field_create.equal_float": lambda: field_create(3, 2, (2.0, 2, 1)),
    "field_create.bool": lambda: field_create(3, 2, (2, 2, True)),
    "GF.str": lambda: GF(3, 2, ["2", "2", "1"]),
    "GF.bool": lambda: GF(3, 2, [2, 2, True]),
    "GF.prime.bool": lambda: GF(7, 1, (False, True)),
}


@pytest.mark.parametrize("name", sorted(BAD_MODULI))
def test_a_modulus_coefficient_that_is_not_an_int_is_refused(name):
    field_create(3, 2, (2, 2, 1))   # cached, so an equal-valued key would find it
    with pytest.raises(InputError, match=r"^modulus coefficients must lie in 0\.\.p-1$"):
        BAD_MODULI[name]()


def test_an_int_modulus_is_kept_from_any_sequence():
    assert field_create(3, 2, [2, 2, 1]).modulus == (2, 2, 1)
    assert GF(3, 2, iter([2, 2, 1])).modulus == (2, 2, 1)
    assert field_create(7, 1, (3, 1)).modulus == (3, 1)   # every monic linear is irreducible


def test_kept_multisets_round_trip_through_the_text_format():
    T = PointMultiset(K, [((1, 2), 1), ((0, 6), 7), ((1, 2), 3)])
    planted = gen_planted(K, [(1, 2), (3, 4)], [1, 2], c=3)
    for M in (T, planted.multiset):
        text = dump_points(M)
        assert parse_points(K, text) == M
        assert dump_points(parse_points(K, text)) == text
    assert dump_points(T) == "0 6 7\n1 2 4\n"
    assert planted.to_json()["weights"] == [1, 2] and planted.to_json()["c"] == 3


# Exponents and degrees are counts: a float that passes the sign test, a
# str, or a key of the wrong length is refused with a typed error rather
# than truncated or let through to a TypeError.
BAD_SHAPES = {
    "BiPoly.float": lambda: BiPoly(K, {(1.5, 0): 1}),
    "BiPoly.str": lambda: BiPoly(K, {("1", 0): 1}),
    "BiPoly.negative": lambda: BiPoly(K, {(0, -1): 1}),
    "BiPoly.short": lambda: BiPoly(K, {(1,): 1}),
    "TriHomPoly.float": lambda: TriHomPoly(K, 1, {(0.5, 0.5, 0): 3}),
    "TriHomPoly.str": lambda: TriHomPoly(K, 1, {("1", 0, 0): 3}),
    "TriHomPoly.negative": lambda: TriHomPoly(K, 1, {(2, -1, 0): 3}),
    "TriHomPoly.long": lambda: TriHomPoly(K, 1, {(1, 0, 0, 0): 3}),
    "TriHomPoly.degree.float": lambda: TriHomPoly(K, 1.0, {(1, 0, 0): 3}),
    "TriHomPoly.degree.str": lambda: TriHomPoly(K, "1", {(1, 0, 0): 3}),
    "TriHomPoly.degree.negative": lambda: TriHomPoly(K, -1, {}),
}
SHAPE_MESSAGE = (r"^(exponents must be [23] non-negative integers"
                 r"|degree must be a non-negative integer), got ")


@pytest.mark.parametrize("name", sorted(BAD_SHAPES))
def test_non_integer_exponent_or_degree_is_refused(name):
    with pytest.raises(InputError, match=SHAPE_MESSAGE):
        BAD_SHAPES[name]()


def test_integer_exponents_are_kept_as_given():
    # zero coefficients drop out, a list key becomes a tuple, and a
    # zero monomial is still held to the degree
    assert BiPoly(K, {(1, 0): 1, (0, 2): 0}).terms == {(1, 0): 1}
    assert BiPoly(K, [([0, 2], 5)]).terms == {(0, 2): 5}
    assert TriHomPoly(K, 1, {(0, 1, 0): 3}).terms == {(0, 1, 0): 3}
    with pytest.raises(InputError, match=r"^monomial \(1, 1, 0\) is not homogeneous of degree 1$"):
        TriHomPoly(K, 1, {(1, 1, 0): 0})


# A point is a pair of elements and a density a number: any other shape is
# refused with a typed error, not a ValueError or TypeError from unpacking
# or comparing it.
BAD_POINT_SHAPES = {
    "PointMultiset.triple": (lambda: PointMultiset(K, [((1, 2, 3), 1)]),
                             r"^a multiset entry must be \(\(a, b\), multiplicity\), got "),
    "PointMultiset.scalar": (lambda: PointMultiset(K, [(5, 1)]),
                             r"^a multiset entry must be \(\(a, b\), multiplicity\), got "),
    "PointMultiset.bare": (lambda: PointMultiset(K, [5]),
                           r"^a multiset entry must be \(\(a, b\), multiplicity\), got "),
    "PointMultiset.dict": (lambda: PointMultiset(K, {5: 1}),
                           r"^a multiset entry must be \(\(a, b\), multiplicity\), got "),
    "gen_planted.triple": (lambda: gen_planted(K, [(1, 2, 3)], [1]),
                           r"^points must be pairs \(a, b\), got "),
    "gen_planted.scalar": (lambda: gen_planted(K, [5], [1]),
                           r"^points must be pairs \(a, b\), got "),
    "gen_random.str": (lambda: gen_random(K, 1, "0.5"),
                       r"^density must lie in \(0, 1\], got '0.5'$"),
    "gen_random.none": (lambda: gen_random(K, 1, None),
                        r"^density must lie in \(0, 1\], got None$"),
}


@pytest.mark.parametrize("name", sorted(BAD_POINT_SHAPES))
def test_bad_point_or_density_shape_is_refused(name):
    call, message = BAD_POINT_SHAPES[name]
    with pytest.raises(InputError, match=message):
        call()


def test_point_and_density_shapes_that_are_kept():
    assert PointMultiset(K, [([1, 2], 1)]).items() == [((1, 2), 1)]
    assert PointMultiset(K, {(1, 2): 3}).items() == [((1, 2), 3)]
    assert gen_planted(K, [[1, 2]], [1]).points == ((1, 2),)
    assert gen_random(K, 1, 1).size == 49


# int() also reads '0_3' as 3 and non-ASCII digits such as '３' (U+FF13);
# every site that reads an integer from text refuses both, with its own
# message.  Each of the first seven rows reads an in-range value, so
# without the refusal it would be kept.  The last six hold a field spec
# entry that int() raises ValueError on, not InputError: an empty one, or
# one of 5,000 digits (above int()'s limit of 4,300).
LONG = "1" * 5000
NON_DECIMAL = {
    "parse_points.underscore": (lambda: parse_points(K, "0_3 2\n"),
                                r"^line 1: non-integer field in '0_3 2'$"),
    "parse_points.fullwidth": (lambda: parse_points(K, "３ 1 # three\n"),
                               r"^line 1: non-integer field in '３ 1 # three'$"),
    "parse_point.point": (lambda: parse_point(K, "0_3,2"), r"^bad point '0_3,2'$"),
    "parse_point.direction": (lambda: parse_point(K, "inf:0_3"), r"^bad direction 'inf:0_3'$"),
    "parse_field_spec": (lambda: parse_field_spec("１３"),
                         r"^bad field spec '１３' \(want p, p\^e or"),
    "parse_field_spec.modulus": (lambda: parse_field_spec("3^2:m=2,2,１"),
                                 r"^bad field spec"),
    # the ideographic space U+3000 around "7": str.strip() would drop it,
    # and the report would echo it as the field
    "parse_field_spec.space": (lambda: parse_field_spec("\u30007"), r"^bad field spec"),
    "parse_field_spec.empty_entry": (lambda: parse_field_spec("7^2:m=1,,1"),
                                     r"^bad field spec '7\^2:m=1,,1' \(want p, p\^e or"),
    "parse_field_spec.empty_last": (lambda: parse_field_spec("7^2:m=1,0,1,"),
                                    r"^bad field spec '7\^2:m=1,0,1,' \(want p, p\^e or"),
    "parse_field_spec.empty_all": (lambda: parse_field_spec("7^2:m=,"),
                                   r"^bad field spec '7\^2:m=,' \(want p, p\^e or"),
    "parse_field_spec.long_p": (lambda: parse_field_spec(LONG), r"^bad field spec"),
    "parse_field_spec.long_e": (lambda: parse_field_spec(f"7^{LONG}"), r"^bad field spec"),
    "parse_field_spec.long_modulus": (lambda: parse_field_spec(f"7^2:m={LONG},0,1"),
                                      r"^bad field spec"),
}


@pytest.mark.parametrize("name", sorted(NON_DECIMAL))
def test_an_integer_that_is_not_ascii_decimal_is_refused(name):
    call, message = NON_DECIMAL[name]
    with pytest.raises(InputError, match=message):
        call()


@pytest.mark.parametrize("argv, message", [
    (["gen", "--field", "7", "--kind", "planted", "--points", "0,0;1,3",
      "--weights", "1,0_2"], "bad integer list '1,0_2'"),
    (["envelope", "--field", "7", "--lambda", "1", "--theorem", "weighted",
      "--c", "0_1"], "--c must be an integer or 'scan', got '0_1'"),
    (["analyze", "--field", "７", "--lambda", "1"], "bad field spec '７'"),
    (["analyze", "--field", "7^2:m=1,,1", "--lambda", "1"], "bad field spec '7^2:m=1,,1'"),
], ids=["gen.weights", "envelope.c", "analyze.field", "analyze.field.empty_entry"])
def test_the_cli_refuses_an_integer_that_is_not_ascii_decimal(tmp_path, capsys, argv, message):
    path = tmp_path / "pts.txt"
    path.write_text("0 0 1\n1 3 2\n", encoding="utf-8")
    if argv[0] != "gen":
        argv = [*argv, "--in", str(path)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err.startswith(f"error: {message}")


def test_signed_integers_still_reach_the_range_checks():
    with pytest.raises(InputError, match=r"^line 1: multiplicity must be positive$"):
        parse_points(K, "+1 2 -1\n")
    with pytest.raises(InputError, match=r"^line 1: coordinates out of range for GF\(7\)$"):
        parse_points(K, "-1 2\n")
    assert parse_points(K, "+1 2 +3\n").items() == [((1, 2), 3)]
    assert parse_point(K, "+1, 2") == ProjPoint.affine(K, 1, 2)
