"""Named error conditions shared across the package.

Two bases matter to callers: InputError covers malformed or out-of-range
inputs (the CLI maps these to exit code 2), HypothesisRejected covers
inputs that are well formed but violate a construction's hypotheses
(exit code 3).  Everything derives from RenitentError.
"""


class RenitentError(Exception):
    pass


class InputError(RenitentError, ValueError):
    pass


class HypothesisRejected(RenitentError):
    pass


# -- field construction and arithmetic ----------------------------------

class NotPrime(InputError):
    pass


class ReducibleModulus(InputError):
    pass


class DegreeMismatch(InputError):
    pass


class DivisionByZero(RenitentError, ZeroDivisionError):
    pass


class FieldMismatch(InputError):
    pass


class FieldTooLarge(InputError):
    pass


# -- polynomials ---------------------------------------------------------

class BothZero(InputError):
    pass


class ZeroPolynomial(InputError):
    pass


class DegreeTooSmall(InputError):
    pass


# -- plane ---------------------------------------------------------------

class EqualPoints(InputError):
    pass


class NotADirection(InputError):
    pass


class SingularMatrix(InputError):
    pass


class LineAtInfinity(InputError):
    pass


class CollineationFailure(HypothesisRejected):
    pass


# -- uniformity ----------------------------------------------------------

class LambdaOutOfRange(InputError):
    pass


class FewerThanTwoLines(InputError):
    pass


# -- envelope constructions ----------------------------------------------

class KMaxTooLarge(InputError):
    pass


class LambdaTooLarge(InputError):
    pass


class CZero(InputError):
    pass


class HypothesisViolation(HypothesisRejected):
    """A named hypothesis of an envelope construction failed.

    `part` is "i" (class range), "ii" (equal counts within a direction)
    or "iii" (common count offset across directions).
    """

    def __init__(self, part, message):
        super().__init__(f"hypothesis ({part}): {message}")
        self.part = part


class VerticalDirectionPresent(HypothesisRejected):
    pass


class ZeroDifference(InputError):
    pass


class LambdaCapExceeded(HypothesisRejected):
    pass


class TotalSizeDivisibleByP(HypothesisRejected):
    pass


class InconsistentLambda(HypothesisRejected):
    pass


class InsufficientPowerSums(InputError):
    pass


class TooManyDirections(HypothesisRejected):
    pass


class DegenerateCurve(RenitentError):
    pass


class NoSharpDirection(HypothesisRejected):
    pass


class HypothesisNotMet(HypothesisRejected):
    pass


class BadLeadingCoefficient(InputError):
    pass


# -- generators ----------------------------------------------------------

class LambdaGEp(InputError):
    pass


class DuplicatePoints(InputError):
    pass


class NotEvenCharacteristic(InputError):
    pass


# -- cli -----------------------------------------------------------------

class ParseError(InputError):
    pass
