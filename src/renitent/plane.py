"""AG(2,q) inside PG(2,q): points, lines, directions, collineations.

Affine points embed as (a : b : 1); the line at infinity is [0:0:1] and
carries the directions (1 : d : 0) (slope d) and (0 : 1 : 0) (vertical).
Homogeneous triples are stored canonically with the last nonzero
coordinate scaled to 1, so equality is plain tuple equality.  Lines of
slope s through intercept t are [s : -1 : t]; vertical lines x = t are
[1 : 0 : -t]; collineations act on points by M.v and on lines by the
cofactor matrix of M, which is the inverse transpose up to a scalar.
"""

import functools

from .errors import HypothesisRejected, InputError


def _canonical(field, coords):
    coords = tuple(field.check(c) for c in coords)
    for i in (2, 1, 0):
        if coords[i]:
            inv, mul = field.uinv(coords[i]), field.umul
            return tuple(mul(c, inv) for c in coords)
    raise InputError("projective coordinates cannot all be zero")


class _Triple:
    """A canonical homogeneous triple over a field: the body of points and lines."""

    __slots__ = ("field", "coords")

    def __init__(self, field, x, y, z):
        self.field = field
        self.coords = _canonical(field, (x, y, z))

    @classmethod
    def _trusted(cls, field, coords):
        """The point or line of coordinates already valid and canonical: not checked."""
        self = cls.__new__(cls)
        self.field = field
        self.coords = coords
        return self

    def __eq__(self, other):
        return (other.__class__ is self.__class__
                and self.field == other.field and self.coords == other.coords)

    def __hash__(self):
        return hash((self.field, self.coords))


class ProjPoint(_Triple):
    __slots__ = ()

    @classmethod
    def affine(cls, field, a, b):
        return cls(field, a, b, 1)

    def is_at_infinity(self):
        return self.coords[2] == 0

    def affine_coords(self):
        if self.is_at_infinity():
            raise InputError(f"{self!r} is at infinity")
        return self.coords[0], self.coords[1]

    def __repr__(self):
        x, y, z = self.coords
        return f"({x}:{y}:{z})"


class ProjLine(_Triple):
    __slots__ = ()

    def is_line_at_infinity(self):
        return self.coords[0] == 0 and self.coords[1] == 0

    def __repr__(self):
        a, b, c = self.coords
        return f"[{a}:{b}:{c}]"


def incident(point, line):
    """True when the point lies on the line (dot product vanishes)."""
    if point.field != line.field:
        raise InputError("point and line use different contexts")
    K = point.field
    add, mul = K.uadd, K.umul
    (x, y, z), (a, b, c) = point.coords, line.coords
    return add(add(mul(x, a), mul(y, b)), mul(z, c)) == 0


def _cross(K, u, v):
    sub, mul = K.usub, K.umul
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def line_through(p, q):
    """The unique line joining two distinct points."""
    if p.field != q.field:
        raise InputError("points use different contexts")
    if p == q:
        raise InputError(f"no unique line through {p!r} twice")
    a, b, c = _cross(p.field, p.coords, q.coords)
    return ProjLine(p.field, a, b, c)


def line_meet(l1, l2):
    """The unique point common to two distinct lines."""
    if l1.field != l2.field:
        raise InputError("lines use different contexts")
    if l1 == l2:
        raise InputError(f"lines {l1!r} and {l2!r} are equal")
    x, y, z = _cross(l1.field, l1.coords, l2.coords)
    return ProjPoint(l1.field, x, y, z)


# -- directions ----------------------------------------------------------


def slope_direction(field, d):
    return ProjPoint(field, 1, d, 0)


def vertical_direction(field):
    return ProjPoint(field, 0, 1, 0)


def line_at_infinity(field):
    return ProjLine(field, 0, 0, 1)


def slope_of(direction):
    """Slope element of a direction, or None for the vertical direction."""
    if not direction.is_at_infinity():
        raise InputError(f"{direction!r} is not at infinity")
    x, y, _ = direction.coords
    if x == 0:
        return None
    return direction.field.udiv(y, x)


@functools.cache
def all_directions(field):
    """The q+1 directions, slopes 0..q-1 first, vertical last: one tuple
    per field, built on the first call and shared by every later one."""
    return (*(slope_direction(field, d) for d in field.elements()),
            vertical_direction(field))


def _class_line(K, slope, alpha):
    """The line of intercept alpha in a parallel class: [slope : -1 : alpha],
    or [1 : 0 : -alpha] for the vertical class (slope None), written in
    canonical coordinates directly: scaled by 1/alpha when alpha != 0,
    else by -1 ([s : -1 : 0]) or not at all."""
    if slope is None:
        coords = (K.uneg(K.uinv(alpha)), 0, 1) if alpha else (1, 0, 0)
    elif alpha:
        inv = K.uinv(alpha)
        coords = (K.umul(slope, inv), K.uneg(inv), 1)
    else:
        coords = (K.uneg(slope), 1, 0)
    return ProjLine._trusted(K, coords)


def parallel_class(field, direction):
    """The q affine lines through a direction, in intercept order.

    Slope s gives [s:-1:t] for t = 0..q-1 (y = sx + t); the vertical
    class gives [1:0:-t] (x = t).
    """
    s = slope_of(direction)
    return [_class_line(field, s, t) for t in field.elements()]


# -- collineations -------------------------------------------------------


def _mat_vec(K, m, v):
    add, mul = K.uadd, K.umul
    return tuple(
        add(add(mul(row[0], v[0]), mul(row[1], v[1])), mul(row[2], v[2]))
        for row in m)


class Collineation:
    """Projectivity of PG(2,q) given by an invertible 3x3 matrix.

    The cofactor matrix C is built once: its row i is the cross product
    of rows i + 1 and i + 2 of M (indices mod 3), so M C^T = det(M) I.
    C maps lines (the inverse transpose, up to the scalar det), its
    transpose (the adjugate) is the inverse, and row 0 of M dotted with
    row 0 of C is the determinant that rules out a singular matrix.
    """

    __slots__ = ("field", "matrix", "_cof")

    def __init__(self, field, matrix):
        matrix = tuple(tuple(field.check(c) for c in row) for row in matrix)
        if len(matrix) != 3 or any(len(r) != 3 for r in matrix):
            raise InputError("collineation matrix must be 3x3")
        cof = tuple(_cross(field, matrix[i - 2], matrix[i - 1]) for i in range(3))
        (det,) = _mat_vec(field, matrix[:1], cof[0])
        if det == 0:
            raise InputError("collineation matrix is singular")
        self.field = field
        self.matrix = matrix
        self._cof = cof

    def apply_point(self, point):
        if point.field != self.field:
            raise InputError("point uses a different context")
        x, y, z = _mat_vec(self.field, self.matrix, point.coords)
        return ProjPoint(self.field, x, y, z)

    def apply_line(self, line):
        """Lines map by the cofactor matrix (see the class docstring)."""
        if line.field != self.field:
            raise InputError("line uses a different context")
        a, b, c = _mat_vec(self.field, self._cof, line.coords)
        return ProjLine(self.field, a, b, c)

    def inverse(self):
        return Collineation(self.field, zip(*self._cof))

    def __repr__(self):
        return f"Collineation({self.matrix})"


def frame_collineation(field, avoid, target):
    """Frame change used by the point-index argument.

    Returns a collineation that maps the line at infinity onto the
    Y-axis [1:0:0], maps the affine point `target` to some (1:y0:0) on
    the new line at infinity, and keeps (0:1:0) out of the image of the
    `avoid` directions.  The spare direction (x:y:0) is the first one
    (slopes, then vertical) outside `avoid`.  The matrix has rows
    (0, 0, 1), r = (r0, r1, r2) and the line (a, b, c) through the spare
    and the target.  It sends the spare to (0 : r0 x + r1 y : 0), and as
    a x + b y = 0 with (a, b) != 0, its determinant r0 b - r1 a is a
    nonzero multiple of r0 x + r1 y.  So r is a frame exactly when
    r0 x + r1 y != 0, whatever r2, and the first such r by index (r0
    varying fastest, then r1, then r2) is (1, 0, 0) for a slope spare
    (1:d:0) and (0, 1, 0) for the vertical one.  Being invertible, the
    matrix sends no other direction to (0:1:0).

    The frame exists only for affine `target` (a point at infinity would
    have to land on both the new Y-axis and the new line at infinity,
    which pins it to (0:1:0)) and only when some direction is spare.
    """
    avoid = set(avoid)
    for d in avoid:
        if not d.is_at_infinity():
            raise InputError(f"{d!r} is not a direction")
    if target.field != field:
        raise InputError("target point uses a different context")
    if target.is_at_infinity():
        raise HypothesisRejected(
            "no frame maps a point at infinity onto the new line at infinity")
    spare = next((d for d in all_directions(field) if d not in avoid), None)
    if spare is None:
        raise HypothesisRejected("every direction must stay off (0:1:0)")
    row2 = (1, 0, 0) if spare.coords[0] else (0, 1, 0)
    return Collineation(field, ((0, 0, 1), row2, line_through(spare, target).coords))


# -- text formats --------------------------------------------------------


def format_point(point):
    """"a,b" for affine points, "inf:d" / "inf:vert" for directions."""
    if point.is_at_infinity():
        s = slope_of(point)
        return "inf:vert" if s is None else f"inf:{s}"
    a, b = point.affine_coords()
    return f"{a},{b}"


def parse_point(field, text):
    text = text.strip()
    if text == "inf:vert":
        return vertical_direction(field)
    if text.startswith("inf:"):
        try:
            d = int(text[4:])
        except ValueError:
            raise InputError(f"bad direction {text!r}") from None
        if not 0 <= d < field.q:
            raise InputError(f"slope {d} out of range for {field!r}")
        return slope_direction(field, d)
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"bad point {text!r} (want 'a,b' or 'inf:d')")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"bad point {text!r}") from None
    if not (0 <= a < field.q and 0 <= b < field.q):
        raise InputError(f"point {text!r} out of range for {field!r}")
    return ProjPoint.affine(field, a, b)


def format_line(line):
    a, b, c = line.coords
    return f"[{a}:{b}:{c}]"
