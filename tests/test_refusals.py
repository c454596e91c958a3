"""Refusals that the other tests do not reach, one row each.

Every row hands a public entry an input it must refuse (a mixed field,
a wrong shape, an empty list, an operand of the wrong type) and names
the typed error and message it must give.  The arithmetic dunders of
the polynomial types return NotImplemented for a foreign operand, so
Python raises TypeError rather than computing with it.
"""

import operator

import pytest

from renitent import (
    classify_direction,
    deficiency_bound_check,
    envelope_regular,
    field_create,
    hankel_det_closed_form,
    hankel_matrix,
    intercept_profile,
    line_count,
    newton_sigma,
    parse_points,
    power_sum_polys,
    slope_direction,
    slope_of,
    uniform_directions,
    verify_envelope,
)
from renitent.cli import EXIT_INPUT, main
from renitent.errors import DivisionByZero, InputError
from renitent.gf import GF
from renitent.plane import (
    Collineation,
    ProjLine,
    ProjPoint,
    incident,
    line_meet,
    line_through,
)
from renitent.poly import (
    BiPoly,
    PolyMatrix,
    TriHomPoly,
    UniPoly,
    homogenize,
    roots_with_multiplicity,
    uni_gcd,
)

K, L = field_create(7), field_create(5)
F, F5 = UniPoly(K, (3, 1, 2)), UniPoly(L, (3, 1, 2))
ZERO = UniPoly(K, ())
G = BiPoly(K, {(2, 0): 1, (1, 1): 3, (0, 2): 5})
H = TriHomPoly(K, 2, {(2, 0, 0): 1, (1, 1, 0): 3, (0, 1, 1): 5})
P, P5 = ProjPoint.affine(K, 2, 3), ProjPoint.affine(L, 2, 3)
ROW, ROW5 = ProjLine(K, 1, 2, 3), ProjLine(L, 1, 2, 3)
IDENTITY = Collineation(K, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
T = parse_points(K, "2 3 1\n")
# slope 9 of GF(11) read against GF(7)'s intercept rows loses a point, and
# slope 10 would give a GF(11) report holding a GF(7) line
T2 = parse_points(K, "1 2 1\n3 4 2\n")
K11 = field_create(11)


def _curve_and_foreign_reports():
    reports = uniform_directions(T, 1)
    curve = envelope_regular(T, [r for r in reports if slope_of(r.direction) is not None])
    return curve, uniform_directions(parse_points(L, "2 3 1\n"), 1)


REFUSALS = {
    # gf
    "GF.extension_degree": (lambda: GF(7, 0), "extension degree must be"),
    "GF.modulus_range": (lambda: GF(7, 1, (0, 7)), r"modulus coefficients must lie in 0\.\.p-1"),
    "GF.from_coeffs.long": (lambda: field_create(3, 2).from_coeffs([1, 2, 1]),
                            "coefficient vector longer than e=2"),
    "GF.from_coeffs.float": (lambda: K.from_coeffs([0.5]), "coefficient 0.5 is not an integer"),
    "GF.from_coeffs.bool": (lambda: K.from_coeffs([True]), "coefficient True is not an integer"),
    "GF.from_coeffs.float_tail": (lambda: K.from_coeffs([1, 0.0]), "coefficient 0.0 is not"),
    "GF.div.left_not_element": (lambda: K.div(9, 0), "9 is not an element index"),
    "GF.div.right_false": (lambda: K.div(1, False), "False is not an element index"),
    "GF.div.right_float": (lambda: K.div(1, 0.0), "0.0 is not an element index"),
    "GF.inv.false": (lambda: K.inv(False), "False is not an element index"),
    "GF.inv.float": (lambda: K.inv(0.0), "0.0 is not an element index"),
    # plane
    "ProjPoint.all_zero": (lambda: ProjPoint(K, 0, 0, 0), "cannot all be zero"),
    "ProjPoint.affine_coords": (lambda: ProjPoint(K, 1, 0, 0).affine_coords(),
                                "is at infinity"),
    "incident.mixed": (lambda: incident(P, ROW5), "different contexts"),
    "line_through.mixed": (lambda: line_through(P, P5), "points use different contexts"),
    "line_meet.mixed": (lambda: line_meet(ROW, ROW5), "lines use different contexts"),
    "line_meet.equal": (lambda: line_meet(ROW, ProjLine(K, 2, 4, 6)), "are equal"),
    "Collineation.shape": (lambda: Collineation(K, ((1, 0), (0, 1))), "must be 3x3"),
    "Collineation.apply_point.mixed": (lambda: IDENTITY.apply_point(P5),
                                       "point uses a different context"),
    "Collineation.apply_line.mixed": (lambda: IDENTITY.apply_line(ROW5),
                                      "line uses a different context"),
    # poly
    "UniPoly.add.mixed": (lambda: F + F5, "mixed contexts"),
    "UniPoly.pow.negative": (lambda: F ** -1, "exponent must be a non-negative integer"),
    "UniPoly.leading.zero": (lambda: ZERO.leading(), "zero polynomial has no leading"),
    "UniPoly.divmod.zero": (lambda: divmod(F, ZERO), "division by the zero polynomial"),
    "UniPoly.monic.zero": (lambda: ZERO.monic(), "cannot normalize the zero polynomial"),
    "uni_gcd.type": (lambda: uni_gcd(F, 1), "uni_gcd expects two UniPoly operands"),
    "roots_with_multiplicity.type": (lambda: roots_with_multiplicity(G),
                                     "roots_with_multiplicity expects a UniPoly"),
    "TriHomPoly.proportional_to.type": (lambda: H.proportional_to(G),
                                        "proportional_to expects a TriHomPoly"),
    "homogenize.type": (lambda: homogenize(F, 2), "homogenize expects a BiPoly"),
    "PolyMatrix.square": (lambda: PolyMatrix(K, [[F, F]]), "matrix must be square"),
    "PolyMatrix.entry_type": (lambda: PolyMatrix(K, [[1]]), "entries must be UniPoly"),
    "PolyMatrix.mixed": (lambda: PolyMatrix(L, [[F]]), "entries use a different context"),
    # envelope
    "power_sum_polys.k_max": (lambda: power_sum_polys(T, -1), "k_max must be a non-negative"),
    "newton_sigma.empty": (lambda: newton_sigma([], 1, 1), "need the power sums"),
    "hankel_matrix.lam": (lambda: hankel_matrix([F], 0), "lam must be a positive integer"),
    "hankel_det_closed_form.empty": (lambda: hankel_det_closed_form(K, [], []),
                                     "need matching nonempty"),
    "hankel_det_closed_form.lengths": (lambda: hankel_det_closed_form(K, [1], [1, 2]),
                                       "need matching nonempty"),
    # one node: no difference of nodes is ever formed, so only its own check reads it
    "hankel_det_closed_form.single_node": (lambda: hankel_det_closed_form(K, [5], [99]),
                                           "99 is not an element index"),
    "deficiency_bound_check.empty": (lambda: deficiency_bound_check([], 1),
                                     "need at least one direction report"),
    "verify_envelope.mixed": (lambda: verify_envelope(*_curve_and_foreign_reports()),
                              "report uses a different context"),
    # uniformity
    "line_count.mixed": (lambda: line_count(T, ROW5),
                         "multiset and line use different contexts"),
    "intercept_profile.mixed": (lambda: intercept_profile(T2, slope_direction(K11, 9)),
                                "multiset and direction use different contexts"),
    "classify_direction.mixed": (lambda: classify_direction(T2, slope_direction(K11, 10), 1),
                                 "multiset and direction use different contexts"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_raises_input_error(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_div_by_zero_still_raises_its_own_error():
    with pytest.raises(DivisionByZero, match="division by zero"):
        K.div(1, 0)
    with pytest.raises(DivisionByZero, match="inverse of zero"):
        K.inv(0)


def test_from_coeffs_reduces_integers_and_drops_zero_tail():
    K9 = field_create(3, 2)
    assert K9.from_coeffs([1, 2, 0, 0]) == 7
    assert K9.from_coeffs([4, -1]) == 1 + 2 * 3
    assert K.from_coeffs([]) == 0


FOREIGN = {
    "UniPoly": (F, "+-*", divmod),
    "BiPoly": (G, "+-*", None),
    "TriHomPoly": (H, "+*", None),
}
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul}


@pytest.mark.parametrize("name", FOREIGN)
def test_poly_arithmetic_refuses_a_foreign_operand(name):
    poly, symbols, extra = FOREIGN[name]
    for symbol in symbols:
        for operand in (1, K):
            with pytest.raises(TypeError, match="unsupported operand"):
                OPS[symbol](poly, operand)
    if extra is not None:
        with pytest.raises(TypeError, match="unsupported operand"):
            extra(poly, 1)


def test_analyze_refuses_an_empty_input_path(capsys):
    assert main(["analyze", "--field", "7", "--in", "", "--lambda", "1"]) == EXIT_INPUT
    assert "--in is required" in capsys.readouterr().err


# argparse's int() and float() would read '_' and non-ASCII digits; each
# typed option refuses them, and argparse exits 2 with its usage line.
# Every row's value would read as an in-range one without the refusal.
TYPED_OPTIONS = {
    "analyze.lambda": (["analyze", "--field", "7", "--lambda", "２"],
                       "argument --lambda: invalid int value: '２'"),
    "gen.seed": (["gen", "--field", "7", "--kind", "random", "--seed", "1_0"],
                 "argument --seed: invalid int value: '1_0'"),
    "gen.c": (["gen", "--field", "7", "--kind", "planted", "--points", "0,0", "--c", "３"],
              "argument --c: invalid int value: '３'"),
    "gen.density": (["gen", "--field", "7", "--kind", "random", "--density", "０.５"],
                    "argument --density: invalid float value: '０.５'"),
}


@pytest.mark.parametrize("argv, message", TYPED_OPTIONS.values(), ids=TYPED_OPTIONS.keys())
def test_typed_option_refuses_text_that_is_not_ascii_decimal(tmp_path, capsys, argv, message):
    path = tmp_path / "pts.txt"
    path.write_text("2 3 1\n", encoding="utf-8")
    if argv[0] != "gen":
        argv = [*argv, "--in", str(path)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


def test_typed_options_keep_their_signs_and_range_messages(tmp_path, capsys):
    path = tmp_path / "pts.txt"
    path.write_text("2 3 1\n", encoding="utf-8")
    analyze = ["analyze", "--field", "7", "--in", str(path)]
    random = ["gen", "--field", "7", "--kind", "random"]
    assert main([*analyze, "--lambda", "+1"]) == 0
    assert main([*random, "--seed", "+3", "--density", " 1e-1 "]) == 0
    capsys.readouterr()
    for argv, message in [
            ([*analyze, "--lambda", "-1"], "need 0 < lam <= (q-1)/2 = 3, got -1"),
            ([*random, "--seed", "-3"], "seed must be a non-negative integer, got -3"),
            ([*random, "--density", "2"], "density must lie in (0, 1], got 2.0"),
            ([*random, "--density", "-0.5"], "density must lie in (0, 1], got -0.5"),
            (["gen", "--field", "7", "--kind", "planted", "--points", "0,0", "--c", "-1"],
             "multiplier must lie in 1..p-1, got -1")]:
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: {message}\n"
