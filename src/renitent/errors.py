"""The package's error classes, one per outcome a caller tells apart.

InputError covers malformed or out-of-range inputs (the CLI maps it to
exit code 2), HypothesisRejected covers inputs that are well formed but
violate a construction's hypotheses (exit code 3).  Everything derives
from RenitentError.  The other two refine a base: DivisionByZero is
also a ZeroDivisionError, and HypothesisViolation names the failed part.
"""


class RenitentError(Exception):
    pass


class InputError(RenitentError, ValueError):
    pass


class HypothesisRejected(RenitentError):
    pass


class DivisionByZero(RenitentError, ZeroDivisionError):
    pass


class HypothesisViolation(HypothesisRejected):
    """A named hypothesis of an envelope construction failed.

    `part` is "i" (class range), "ii" (equal counts within a direction)
    or "iii" (common count offset across directions).
    """

    def __init__(self, part, message):
        super().__init__(f"hypothesis ({part}): {message}")
        self.part = part
