import pytest
from hypothesis import settings

from renitent import UniPoly, field_create

# Fixed examples and no example database: a run does not depend on what an
# earlier run left in .hypothesis/, and every run tries the same inputs.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

# (p, e) pairs small enough for exhaustive sweeps over all elements,
# directions, or plane points.
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


@pytest.fixture(params=SMALL_FIELDS, ids=lambda pe: f"q{pe[0] ** pe[1]}")
def small_field(request):
    return field_create(*request.param)


def cofactor_det(field, rows):
    """Slow reference determinant of UniPoly rows: first-row expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = UniPoly.zero(field)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(field, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
