"""Polynomials over a GF context: univariate, bivariate, homogeneous trivariate.

UniPoly stores a dense low-degree-first coefficient vector with trailing
zeros trimmed; the zero polynomial is the empty vector and reports
degree -1 (a sentinel below every true degree).  BiPoly and TriHomPoly
store sparse {exponents: coefficient} maps with no zero entries, which
keeps representations canonical.  All binary operations require both
operands to share one field context.

The public constructors check every coefficient and exponent (the sparse
maps through one _checked_terms), and each method that takes a raw field
element checks it on entry.  A polynomial the library computes from
parts that are already valid (a sum, a product, a remainder, a row, a
section) is built by a private _trusted constructor, which checks
nothing.  The univariate loops run on the field's list kernels (see
gf): K.uconv for products and scaling, K.ugcd for the whole Euclid (the
last nonzero remainder, which uni_gcd makes monic), K.uhorner for
evaluation, synthetic division and the sections of TriHomPoly.at_vw,
and K.upowsums for power lists.  BiPoly and TriHomPoly share one sparse
sum, product, scale and evaluation on their term maps (_sparse_*,
through the scalar kernels; a form multiplies as its (U, V) part), all
three classes share one square-and-multiply power, and every render
goes through _render_sparse.
"""

from itertools import repeat

from .errors import InputError
from .gf import _trim


def _same_field(a, b):
    if a.field != b.field:
        raise InputError(f"mixed contexts {a.field!r} and {b.field!r}")


def power_list(K, a, n):
    """[a^0, a^1, ..., a^n] (0^0 is 1) for an already checked element a."""
    return K.upowsums(((1, a),), n)


def _checked_terms(field, terms, n, degree=None):
    """A {exponents: coefficient} map or pair list as a map with no zero
    entry, once each key holds n non-negative ints (summing to degree,
    when one is given) and each coefficient is an element."""
    clean = {}
    for key, c in (terms.items() if isinstance(terms, dict) else terms):
        key = tuple(key)
        if len(key) != n or not all(type(e) is int and e >= 0 for e in key):
            raise InputError(f"exponents must be {n} non-negative integers, got {key!r}")
        if degree is not None and sum(key) != degree:
            raise InputError(f"monomial {key} is not homogeneous of degree {degree}")
        if field.check(c):
            clean[key] = c
    return clean


def _power(base, k, one):
    """base ** k by square-and-multiply, from one, the identity of its class."""
    if type(k) is not int or k < 0:
        raise InputError(f"exponent must be a non-negative integer, got {k!r}")
    result = one
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


# -- sparse term maps {exponent tuple: nonzero coefficient}, for BiPoly and TriHomPoly


def _sparse_sum(K, a, b):
    """a + b, without the terms that cancel."""
    add = K.uadd
    out = dict(a)
    for key, c in b.items():
        s = add(out.get(key, 0), c)
        if s:
            out[key] = s
        else:
            del out[key]
    return out


def _sparse_product(K, a, b):
    """a * b for maps keyed by exponent pairs, without the terms that cancel."""
    add, mul = K.uadd, K.umul
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            key = (i1 + i2, j1 + j2)
            s = add(out.get(key, 0), mul(c1, c2))
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _sparse_scale(K, terms, c):
    """c * terms, for a checked element c."""
    mul = K.umul
    return {key: mul(c, x) for key, x in terms.items()} if c else {}


def _sparse_eval(K, terms, point):
    """The value at a point, one checked element per variable."""
    add, mul, pow_ = K.uadd, K.umul, K.upow
    acc = 0
    for key, c in terms.items():
        for x, e in zip(point, key):
            c = mul(c, pow_(x, e))
        acc = add(acc, c)
    return acc


class UniPoly:
    """Univariate polynomial; coeffs[i] is the coefficient of x^i."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs=()):
        self.field = field
        self.coeffs = tuple(_trim([field.check(c) for c in coeffs]))

    @classmethod
    def _trusted(cls, field, coeffs):
        """The polynomial of already valid coefficients: trimmed, not checked."""
        self = cls.__new__(cls)
        self.field = field
        self.coeffs = tuple(_trim(list(coeffs)))
        return self

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            raise InputError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        _same_field(self, other)
        K = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = K.uadd
        out[:len(b)] = map(add, a, b)
        return UniPoly._trusted(K, out)

    def __neg__(self):
        K = self.field
        return UniPoly._trusted(K, map(K.uneg, self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        _same_field(self, other)
        K = self.field
        return UniPoly._trusted(K, K.uconv(self.coeffs, other.coeffs))

    def scale(self, c):
        K = self.field
        K.check(c)
        return UniPoly._trusted(K, K.uconv(self.coeffs, (c,)))

    def __pow__(self, k):
        return _power(self, k, UniPoly.one(self.field))

    def __divmod__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        _same_field(self, other)
        if other.is_zero():
            raise InputError("division by the zero polynomial")
        K = self.field
        sub, mul = K.usub, K.umul
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = K.uinv(other.leading())
        quo = [0] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db:
            da = len(rem) - 1
            c = mul(rem[-1], inv_lead)
            quo[da - db] = c
            for j, bc in enumerate(other.coeffs):
                rem[da - db + j] = sub(rem[da - db + j], mul(c, bc))
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly._trusted(K, quo), UniPoly._trusted(K, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            raise InputError("cannot normalize the zero polynomial")
        lead = self.leading()
        return self if lead == 1 else self.scale(self.field.uinv(lead))

    def eval(self, x):
        """Horner evaluation at the element x."""
        K = self.field
        K.check(x)
        return K.uhorner(self.coeffs, x)[-1] if self.coeffs else 0

    __call__ = eval

    def __eq__(self, other):
        return (isinstance(other, UniPoly)
                and self.field == other.field and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def render(self, var="x"):
        return _render_sparse({(i,): c for i, c in enumerate(self.coeffs) if c}, (var,))

    def __repr__(self):
        return f"UniPoly({self.render()})"


def uni_gcd(f, g):
    """Monic gcd by the Euclidean algorithm; gcd(f, 0) is monic f.

    The field's gcd kernel runs the whole Euclid on the coefficient lists
    and returns the last nonzero remainder, so no quotient and no
    intermediate UniPoly is built.  Made monic, it is the same polynomial
    the plain f % g loop ends with.
    """
    if not isinstance(f, UniPoly) or not isinstance(g, UniPoly):
        raise InputError("uni_gcd expects two UniPoly operands")
    _same_field(f, g)
    if f.is_zero() and g.is_zero():
        raise InputError("gcd of two zero polynomials is undefined")
    K = f.field
    return UniPoly._trusted(K, K.ugcd(f.coeffs, g.coeffs)).monic()


def _root_multiplicity(poly, root):
    """How often X - root divides poly (0 for constants), by Horner passes."""
    horner = poly.field.uhorner
    coeffs = poly.coeffs
    m = 0
    while len(coeffs) > 1:
        # one synthetic division: the running values are the quotient's
        # coefficients, highest first, and the last one is the remainder
        quo = horner(coeffs, root)
        if quo.pop():
            break
        coeffs = quo[::-1]
        m += 1
    return m


class BiPoly:
    """Bivariate polynomial as a sparse {(i, j): coeff} map, U^i V^j."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=()):
        self.field = field
        self.terms = _checked_terms(field, terms, 2)

    @classmethod
    def _trusted(cls, field, terms):
        """The polynomial of a valid term map with no zero entry: not checked."""
        self = cls.__new__(cls)
        self.field = field
        self.terms = terms
        return self

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0, 0): c})

    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        return max((i + j for i, j in self.terms), default=-1)

    @property
    def deg_u(self):
        return max((i for i, _ in self.terms), default=-1)

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        _same_field(self, other)
        return BiPoly._trusted(self.field, _sparse_sum(self.field, self.terms, other.terms))

    def __neg__(self):
        return self.scale(self.field.uneg(1))

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        _same_field(self, other)
        return BiPoly._trusted(self.field, _sparse_product(self.field, self.terms, other.terms))

    def scale(self, c):
        K = self.field
        return BiPoly._trusted(K, _sparse_scale(K, self.terms, K.check(c)))

    def __pow__(self, k):
        """Repeated squaring; k must be a non-negative integer."""
        return _power(self, k, BiPoly.constant(self.field, 1))

    def eval_v(self, d):
        """Substitute the second variable, leaving a UniPoly in the first."""
        K = self.field
        K.check(d)
        if not self.terms:
            return UniPoly.zero(K)
        add, mul = K.uadd, K.umul
        us, vs = zip(*self.terms)
        powers = power_list(K, d, max(vs))
        out = [0] * (max(us) + 1)
        for (i, j), c in self.terms.items():
            out[i] = add(out[i], mul(c, powers[j]))
        return UniPoly._trusted(K, out)

    def rows(self):
        """The rows eval_v(y) for every field element y, in element order.

        A polynomial with no V term has one row, built once.  Subclasses
        that know more about their terms override this with a cheaper
        build of the same rows.
        """
        K = self.field
        if any(j for _, j in self.terms):
            return map(self.eval_v, K.elements())
        out = [0] * (self.deg_u + 1)
        for (i, _), c in self.terms.items():
            out[i] = c
        return repeat(UniPoly._trusted(K, out), K.q)

    def eval(self, u, v):
        K = self.field
        return _sparse_eval(K, self.terms, (K.check(u), K.check(v)))

    def __eq__(self, other):
        return (isinstance(other, BiPoly)
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def render(self, names=("U", "V")):
        return _render_sparse(self.terms, names)

    def __repr__(self):
        return f"BiPoly({self.render()})"


class TriHomPoly:
    """Homogeneous trivariate polynomial of a fixed degree, U^i V^j W^k."""

    __slots__ = ("field", "degree", "terms", "_slices")

    def __init__(self, field, degree, terms=()):
        if type(degree) is not int or degree < 0:
            raise InputError(f"degree must be a non-negative integer, got {degree!r}")
        self.field = field
        self.degree = degree
        self.terms = _checked_terms(field, terms, 3, degree)
        self._slices = None

    @classmethod
    def _trusted(cls, field, degree, terms):
        """The form of a valid term map of one degree, no zero entry: not checked."""
        self = cls.__new__(cls)
        self.field = field
        self.degree = degree
        self.terms = terms
        self._slices = None
        return self

    @classmethod
    def linear(cls, field, cu, cv, cw):
        return cls(field, 1, {(1, 0, 0): cu, (0, 1, 0): cv, (0, 0, 1): cw})

    def is_zero(self):
        return not self.terms

    @property
    def affine_degree(self):
        """Total degree of the W=1 dehomogenization."""
        return max((i + j for i, j, _ in self.terms), default=-1)

    def dehomogenize(self):
        return BiPoly._trusted(self.field, {(i, j): c for (i, j, _), c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, TriHomPoly):
            return NotImplemented
        _same_field(self, other)
        if self.degree != other.degree:
            raise InputError("cannot add homogeneous parts of different degrees")
        K = self.field
        return TriHomPoly._trusted(K, self.degree, _sparse_sum(K, self.terms, other.terms))

    def __mul__(self, other):
        if not isinstance(other, TriHomPoly):
            return NotImplemented
        _same_field(self, other)
        # the degree fixes the W power, so forms multiply as their (U, V) parts
        d = self.degree + other.degree
        uv = _sparse_product(self.field, self.dehomogenize().terms, other.dehomogenize().terms)
        return TriHomPoly._trusted(self.field, d,
                                   {(i, j, d - i - j): c for (i, j), c in uv.items()})

    def __pow__(self, k):
        return _power(self, k, TriHomPoly(self.field, 0, {(0, 0, 0): 1}))

    def scale(self, c):
        K = self.field
        return TriHomPoly._trusted(K, self.degree, _sparse_scale(K, self.terms, K.check(c)))

    def eval(self, u, v, w):
        K = self.field
        return _sparse_eval(K, self.terms, (K.check(u), K.check(v), K.check(w)))

    def at_vw(self, v, w):
        """Substitute the last two variables, leaving a UniPoly in the first.

        The U^i coefficient is a form of degree d = degree - i in V and W;
        for w != 0 it is w^d times its value at V = v/w, W = 1, one Horner
        pass, and for w = 0 only its V^d term is left.
        """
        K = self.field
        K.check(v), K.check(w)
        if self._slices is None:
            self._slices = self._by_u_power()
        d = self.degree
        mul = K.umul
        if w:
            horner, r, pw = K.uhorner, K.udiv(v, w), power_list(K, w, d)
            out = [mul(pw[d - i], horner(vs, r)[-1]) for i, vs in self._slices]
        else:
            pv = power_list(K, v, d)
            out = [mul(pv[d - i], vs[d - i]) for i, vs in self._slices]
        return UniPoly._trusted(K, out)

    def _by_u_power(self):
        """[(i, [c_i0, ..., c_id])] for every i up to the top U power, d =
        degree - i, with c_ij the coefficient of U^i V^j W^(d - j)."""
        top = max((i for i, _, _ in self.terms), default=-1)
        slices = [(i, [0] * (self.degree - i + 1)) for i in range(top + 1)]
        for (i, j, _), c in self.terms.items():
            slices[i][1][j] = c
        return slices

    def proportional_to(self, other):
        """True when the two curves agree up to a nonzero scalar."""
        if not isinstance(other, TriHomPoly):
            raise InputError("proportional_to expects a TriHomPoly")
        _same_field(self, other)
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        if set(self.terms) != set(other.terms):
            return False
        K = self.field
        key = next(iter(self.terms))
        ratio = K.udiv(other.terms[key], self.terms[key])
        mul = K.umul
        return all(mul(ratio, c) == other.terms[k] for k, c in self.terms.items())

    def monomials(self):
        """Sorted (i, j, k, coeff) rows, highest U then V power first."""
        return [(i, j, k, c) for (i, j, k), c in
                sorted(self.terms.items(), reverse=True)]

    def __eq__(self, other):
        return (isinstance(other, TriHomPoly) and self.field == other.field
                and self.degree == other.degree and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, self.degree, tuple(sorted(self.terms.items()))))

    def render(self, names=("U", "V", "W")):
        return _render_sparse(self.terms, names)

    def __repr__(self):
        return f"TriHomPoly({self.render()})"


def _render_sparse(terms, names):
    if not terms:
        return "0"
    parts = []
    for key in sorted(terms, reverse=True):
        c = terms[key]
        factors = []
        for n, exp in zip(names, key):
            if exp == 1:
                factors.append(n)
            elif exp > 1:
                factors.append(f"{n}^{exp}")
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([str(c)] + factors))
    return " + ".join(parts)


def homogenize(f, n):
    """Pad a BiPoly with powers of the third variable up to degree n."""
    if not isinstance(f, BiPoly):
        raise InputError("homogenize expects a BiPoly")
    if f.total_degree > n:
        raise InputError(f"cannot homogenize degree {f.total_degree} into degree {n}")
    return TriHomPoly._trusted(f.field, n,
                               {(i, j, n - i - j): c for (i, j), c in f.terms.items()})


class PolyMatrix:
    """Square matrix of UniPoly entries over one field context."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise InputError("matrix must be square")
            for entry in r:
                if not isinstance(entry, UniPoly):
                    raise InputError("entries must be UniPoly")
                if entry.field != field:
                    raise InputError("matrix entries use a different context")
        self.field = field
        self.rows = rows

    @property
    def size(self):
        return len(self.rows)

    def det(self):
        """Determinant: the one maximal minor, from maximal_minors."""
        return maximal_minors(self.field, self.rows)[(1 << self.size) - 1]

    def __repr__(self):
        body = "; ".join("[" + ", ".join(e.render() for e in row) + "]"
                         for row in self.rows)
        return f"PolyMatrix({body})"


def maximal_minors(field, rows):
    """Every maximal minor of n rows of m >= n UniPoly entries.

    Returns {mask: minor}, where bit j of mask marks column j, for every
    mask of n columns.  Laplace expansion along the rows, top down:
    after row k the table holds every (k+1)-row minor of rows 0..k, each
    the signed sum of row k's entries times the k-row minors on the
    remaining columns, which the table already holds.  A square matrix
    costs n * 2^(n-1) products and no division.  No rows leave the
    empty minor, 1.
    """
    if not rows:
        return {0: UniPoly.one(field)}
    minors = {1 << j: entry for j, entry in enumerate(rows[0])}
    for k, row in enumerate(rows[1:], start=1):
        nxt = {}
        for cols, minor in minors.items():
            for j, entry in enumerate(row):
                bit = 1 << j
                if cols & bit:
                    continue
                term = entry * minor
                if (k + (cols & (bit - 1)).bit_count()) % 2:
                    term = -term
                key = cols | bit
                nxt[key] = nxt[key] + term if key in nxt else term
        minors = nxt
    return minors
