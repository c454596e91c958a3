"""Renitent lines of uniform directions in small desarguesian planes.

A direction of AG(2,q) is (q-lam)-uniform for a point multiset when at
least q-lam lines of its parallel class meet the multiset in the same
number of points mod p; the exceptional lines are renitent.  This
package classifies directions exactly, builds the dual-plane envelope
curves that the renitent lines must touch, and verifies the counting
bounds (deficiency, gcd-degree, lower-bound, index dichotomy) in exact
field arithmetic.

The names below are loaded on first use (PEP 562): ``import renitent``
imports no submodule, and ``renitent.gcd_profile`` or
``from renitent import gcd_profile`` imports only ``renitent.counting``
and what it needs.
"""

import importlib

_EXPORTS = {
    "counting": (
        "DichotomyReport", "GcdBoundCheck", "GcdProfile", "IndexReport",
        "LowerBoundReport", "PointDetector", "SlopeDetector",
        "build_point_detector", "build_slope_detector", "dichotomy_check",
        "gcd_degree_bound", "gcd_profile", "index_of_point",
        "renitent_lower_bound_check",
    ),
    "envelope": (
        "DeficiencyReport", "EnvelopeCurve", "VerificationReport", "WeightEntry",
        "deficiency_bound_check", "envelope_general", "envelope_regular",
        "envelope_weighted", "hankel_det_closed_form", "hankel_matrix",
        "lambda_weights", "newton_sigma", "power_sum_polys", "scan_weight_classes",
        "verify_envelope", "weighted_power_recursion_check",
    ),
    "errors": ("HypothesisRejected", "InputError", "RenitentError"),
    "generators": (
        "ConicInstance", "PlantedInstance", "SplitMix64", "gen_norm_conic",
        "gen_planted", "gen_random",
    ),
    "gf": ("GF", "field_create", "parse_field_spec"),
    "plane": (
        "Collineation", "ProjLine", "ProjPoint", "all_directions", "format_line",
        "format_point", "frame_collineation", "incident", "line_at_infinity",
        "line_meet", "line_through", "parallel_class", "parse_point",
        "slope_direction", "slope_of", "vertical_direction",
    ),
    "poly": (
        "BiPoly", "PolyMatrix", "TriHomPoly", "UniPoly", "homogenize", "uni_gcd",
    ),
    "uniformity": (
        "DirectionReport", "PointMultiset", "RenitentLine", "classify_direction",
        "concurrency_point", "dump_points", "intercept_profile", "line_count",
        "parse_points", "uniform_directions",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
