"""The package's records against twins built by the standard library.

The report and instance classes are plain ``__slots__`` classes.  They
were ``@dataclass`` classes (and two ``typing.NamedTuple`` detectors),
and callers rely on what those gave them: ``==`` field by field, the
``Name(field=value, ...)`` repr, hashability exactly for the frozen
ones, keyword construction, and the ``to_json`` and properties read off
the fields.  Each record here is compared with a twin made by
``dataclasses.make_dataclass`` (or ``collections.namedtuple`` for the
detectors) from the same field list, on records taken from real
computations.
"""

import collections
import dataclasses

import pytest

from renitent import (
    ConicInstance,
    DeficiencyReport,
    DichotomyReport,
    DirectionReport,
    EnvelopeCurve,
    GcdBoundCheck,
    GcdProfile,
    IndexReport,
    LowerBoundReport,
    PlantedInstance,
    PointDetector,
    ProjPoint,
    RenitentLine,
    SlopeDetector,
    VerificationReport,
    WeightEntry,
    build_point_detector,
    build_slope_detector,
    deficiency_bound_check,
    dichotomy_check,
    envelope_general,
    envelope_regular,
    field_create,
    gcd_degree_bound,
    gcd_profile,
    gen_norm_conic,
    gen_planted,
    index_of_point,
    lambda_weights,
    parse_points,
    renitent_lower_bound_check,
    slope_of,
    uniform_directions,
    verify_envelope,
)
from renitent.envelope import DirectionCheck, RootCheck

# class -> (its fields in order, whether the former class was frozen)
FIELDS = {
    RenitentLine: (("line", "alpha", "t"), True),
    DirectionReport: (("direction", "bound", "m_d", "renitent"), False),
    GcdProfile: (("field", "k", "deg_f", "deg_g"), False),
    GcdBoundCheck: (("y0", "k_y0", "lhs", "rhs"), False),
    LowerBoundReport: (("lam", "n_directions", "count", "gcd_count", "bound"), False),
    IndexReport: (("point", "count", "lines"), False),
    DichotomyReport: (("lam", "n_uniform", "n_lines", "low", "high", "high_points",
                       "offenders"), False),
    EnvelopeCurve: (("poly", "nominal_class", "provenance", "lead"), False),
    WeightEntry: (("direction", "weights", "total"), True),
    DeficiencyReport: (("lam", "per_direction", "total_deficit", "bound", "ok"), False),
    RootCheck: (("line", "alpha", "expected", "actual", "exact", "ok"), False),
    DirectionCheck: (("direction", "pencil_contained", "roots"), False),
    VerificationReport: (("directions",), False),
    PlantedInstance: (("multiset", "oracle", "generic_directions", "expected_class",
                       "points", "weights", "c"), False),
    ConicInstance: (("multiset", "nucleus", "delta"), False),
}
DETECTORS = {
    SlopeDetector: ("f", "g"),
    PointDetector: ("f", "g", "collineation"),
}


@pytest.fixture(scope="module")
def records():
    """Records of every class, from small computations over GF(7) and GF(4)."""
    K = field_create(7)
    T = parse_points(K, "2 3 1\n")
    reports = uniform_directions(T, 1)
    slopes = [r for r in reports if slope_of(r.direction) is not None]
    regular = envelope_regular(T, slopes)
    verification = verify_envelope(regular, reports[:2])
    detector = build_slope_detector(T, slopes)
    profile = gcd_profile(detector.f, detector.g)
    planted = gen_planted(K, [(0, 0), (1, 2)], [1, 2])
    out = [*reports, *reports[0].renitent, regular, envelope_general(T, slopes, 1),
           lambda_weights(reports[0], 1), deficiency_bound_check(reports, 1),
           verification, *verification.directions, *verification.directions[0].roots,
           detector, profile, gcd_degree_bound(profile, 0),
           renitent_lower_bound_check(T, slopes),
           index_of_point(reports, ProjPoint.affine(K, 2, 3)), dichotomy_check(T, 1),
           build_point_detector(T, slopes, ProjPoint.affine(K, 3, 0)),
           planted, gen_norm_conic(field_create(2, 2))]
    return {cls: [r for r in out if type(r) is cls] for cls in [*FIELDS, *DETECTORS]}


def twin_of(cls):
    """The stdlib class the record stands in for, with its methods."""
    if cls in DETECTORS:
        return collections.namedtuple(cls.__name__, DETECTORS[cls])
    names, frozen = FIELDS[cls]
    spec = [(n, object, dataclasses.field(default=None)) if n == "lead" else (n, object)
            for n in names]
    methods = {k: v for k, v in vars(cls).items()
               if not k.startswith("__") and k not in cls.__slots__}
    return dataclasses.make_dataclass(cls.__name__, spec, eq=True, frozen=frozen,
                                      namespace=methods)


def fields_of(cls):
    return DETECTORS[cls] if cls in DETECTORS else FIELDS[cls][0]


@pytest.mark.parametrize("cls", [*FIELDS, *DETECTORS], ids=lambda c: c.__name__)
def test_record_matches_its_stdlib_twin(cls, records):
    assert records[cls], "no sample of this class"
    names = fields_of(cls)
    assert cls.__slots__ == names
    markers = tuple(object() for _ in names)
    built = cls(*markers)
    assert all(getattr(built, n) is m for n, m in zip(names, markers))
    Twin = twin_of(cls)
    for sample in records[cls]:
        args = tuple(getattr(sample, n) for n in names)
        rec, twin = cls(*args), Twin(*args)
        assert repr(rec) == repr(twin)
        assert cls(**dict(zip(names, args))) == rec
        assert (rec == cls(*args)) is (twin == Twin(*args)) is True
        assert (rec != cls(*args)) is (twin != Twin(*args)) is False
        assert rec.__eq__("not a record") is NotImplemented
        for i in range(len(names)):
            other = args[:i] + (object(),) + args[i + 1:]
            assert (rec == cls(*other)) is (twin == Twin(*other)) is False, names[i]
            assert (rec != cls(*other)) is (twin != Twin(*other)) is True, names[i]
        if cls in DETECTORS or FIELDS[cls][1]:
            assert hash(rec) == hash(twin)
        else:
            with pytest.raises(TypeError, match="unhashable"):
                hash(rec)
            with pytest.raises(TypeError, match="unhashable"):
                hash(twin)
        if hasattr(cls, "to_json"):
            assert rec.to_json() == twin.to_json()
        for name, attr in vars(cls).items():
            if isinstance(attr, property):
                assert getattr(rec, name) == getattr(twin, name), name


def test_envelope_curve_lead_defaults_to_none(records):
    curve = records[EnvelopeCurve][0]
    assert EnvelopeCurve(curve.poly, 1, "regular").lead is None
