"""Renitent lines of uniform directions in small desarguesian planes.

A direction of AG(2,q) is (q-lam)-uniform for a point multiset when at
least q-lam lines of its parallel class meet the multiset in the same
number of points mod p; the exceptional lines are renitent.  This
package classifies directions exactly, builds the dual-plane envelope
curves that the renitent lines must touch, and verifies the counting
bounds (deficiency, gcd-degree, lower-bound, index dichotomy) in exact
field arithmetic.
"""

from .counting import (
    DichotomyReport,
    GcdBoundCheck,
    GcdProfile,
    IndexReport,
    LowerBoundReport,
    PointDetector,
    SlopeDetector,
    build_point_detector,
    build_slope_detector,
    dichotomy_check,
    gcd_degree_bound,
    gcd_profile,
    index_of_point,
    renitent_lower_bound_check,
)
from .envelope import (
    DeficiencyReport,
    EnvelopeCurve,
    VerificationReport,
    WeightEntry,
    deficiency_bound_check,
    dual_coords,
    envelope_general,
    envelope_regular,
    envelope_weighted,
    hankel_det_closed_form,
    hankel_matrix,
    lambda_weights,
    newton_sigma,
    power_sum_polys,
    scan_weight_classes,
    verify_envelope,
    weighted_power_recursion_check,
)
from .errors import HypothesisRejected, InputError, RenitentError
from .generators import (
    ConicInstance,
    PlantedInstance,
    SplitMix64,
    gen_norm_conic,
    gen_planted,
    gen_random,
)
from .gf import GF, field_create, parse_field_spec
from .plane import (
    Collineation,
    ProjLine,
    ProjPoint,
    all_directions,
    format_line,
    format_point,
    frame_collineation,
    incident,
    line_at_infinity,
    line_meet,
    line_through,
    parallel_class,
    parse_point,
    slope_direction,
    slope_of,
    vertical_direction,
)
from .poly import (
    BiPoly,
    PolyMatrix,
    TriHomPoly,
    UniPoly,
    homogenize,
    roots_with_multiplicity,
    uni_gcd,
)
from .uniformity import (
    DirectionReport,
    PointMultiset,
    RenitentLine,
    classify_direction,
    concurrency_point,
    dump_points,
    intercept_profile,
    line_count,
    parse_points,
    uniform_directions,
)

__version__ = "0.1.0"
