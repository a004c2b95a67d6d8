"""Dense univariate polynomials with rational coefficients, stored as
integers over one denominator.

A UPoly holds ints, the integer coefficients lowest degree first with
trailing zeros stripped, and den > 0 with gcd(den, *ints) == 1: the
coefficients are ints[k] / den. That form is unique, so degree ==
len(ints) - 1 for nonzero polynomials, the zero polynomial is ((), 1), and
equality compares the stored integers. The coeffs view gives the
coefficients as Fractions, for the readers that want them (JSON output,
float drawing).

All arithmetic and every kernel run on integer coefficient lists (lowest
degree first), never on Fractions:

* There is one point evaluation, the homogeneous Horner _ihorner:
  sum of c_k p^k q^(n-k) at x = p / q. UPoly.__call__ divides it once (at a
  rational only), the Sturm sign test _sign_at takes its sign, and
  UPoly.eval_interval, the one interval evaluation, runs its interval form
  over the common denominator of the two endpoints.
* There is one polynomial division, the signed pseudo-division _pdivmod,
  and no division over Q. Its remainder is a positive multiple of a mod b;
  rescaling a polynomial by a positive rational never changes any sign
  pattern, which is the only fact the certified pipeline relies on. The
  remainder sequence, the sign and zero tests of algnum and the reduction
  at a root run on it; exact quotients are _iexact_div.
* There is one remainder sequence over Z[x], the primitive PRS _prs
  (Brown-Traub 1971), whose members carry Sturm's sign. A gcd is its last
  member (_igcd_poly), a Sturm chain is p, p' and its members
  (sturm_chain), and quotient_mod keeps a cofactor beside each member.
  Sturm counts are taken between finite rationals only: root isolation
  starts from the Cauchy bound, and no caller asks about +-infinity.
* There is one elimination, the subresultant chain _subresultants over
  Z[y][x] (Collins 1967; Brown-Traub 1971): full pseudo-remainders divided
  exactly by _iexact_div, and no gcd. It gives the resultants (resultant,
  bipoly.resultant_bivariate and each pair of polynomials in elimination)
  and the degree-1 member from which elimination completes a root.
  Resultants clear the denominators of their inputs first and divide
  the known power of them out of the integer result, so they stay exact.
* The one determinant is det_rational, for the 4x4 transforms: scalar
  fraction-free Bareiss on the rows cleared of their denominators.
* elimination's closed-form (e, f) polynomials are summed on the stored
  integers. Builders that finish in integers hand them over with
  UPoly.from_ints, which brings them to lowest terms.
* A polynomial at a triangular root (elimination.TriangularRoot.substitute)
  is Horner on integer lists with _pdivmod by the primitive defining
  polynomial, the denominator kept apart and the common content divided out
  at every step.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput
from .rationals import Interval, rat, sign


class UPoly:
    """A rational polynomial stored as integers over one denominator:
    self == sum(ints[k] x^k) / den with den > 0, gcd(den, *ints) == 1 and no
    trailing zero in ints. The form is unique, so equality compares it."""

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Sequence):
        self._store(*_cleared([rat(c) for c in coeffs]))

    def _store(self, ints: list[int], den: int) -> None:
        """Set self to ints / den (den nonzero) in the stored form."""
        ints, self.den = _lowest_terms(_inorm(ints), den)
        self.ints = tuple(ints)

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(ints: Sequence[int], den: int = 1) -> "UPoly":
        """The polynomial ints / den (den nonzero), brought to lowest terms."""
        p = object.__new__(UPoly)
        p._store(list(ints), den)
        return p

    @staticmethod
    def zero() -> "UPoly":
        return UPoly.from_ints(())

    @staticmethod
    def const(c) -> "UPoly":
        c = rat(c)
        return UPoly.from_ints((c.numerator,), c.denominator)

    @staticmethod
    def x() -> "UPoly":
        return UPoly.from_ints((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, lowest degree first."""
        return tuple(Fraction(v, self.den) for v in self.ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def lc(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.ints[-1], self.den)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.ints):
            return Fraction(self.ints[k], self.den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.ints, self.den))

    def __repr__(self) -> str:
        if self.is_zero:
            return "UPoly(0)"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{k}" if k else f"{c}")
        return "UPoly(" + " + ".join(terms) + ")"

    # -- arithmetic ---------------------------------------------------

    def _plus(self, other, sgn: int) -> "UPoly":
        """self + sgn * other, over the lcm of the two denominators."""
        other = _as_poly(other)
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, sgn * (den // other.den)
        a, b = self.ints, other.ints
        out = [sa * v for v in a] + [0] * (len(b) - len(a))
        for i, v in enumerate(b):
            out[i] += sb * v
        return UPoly.from_ints(out, den)

    def __add__(self, other) -> "UPoly":
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other) -> "UPoly":
        return self._plus(other, -1)

    def __rsub__(self, other) -> "UPoly":
        return _as_poly(other) - self

    def __neg__(self) -> "UPoly":
        return UPoly.from_ints([-v for v in self.ints], self.den)

    def __mul__(self, other) -> "UPoly":
        if isinstance(other, UPoly):
            return UPoly.from_ints(_imul(self.ints, other.ints), self.den * other.den)
        c = rat(other)
        return UPoly.from_ints([v * c.numerator for v in self.ints], self.den * c.denominator)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UPoly":
        if n < 0:
            raise InvalidInput("negative polynomial power")
        result = UPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: "UPoly") -> "UPoly":
        """self / other; InvalidInput unless other divides self. The quotient
        by the primitive part of other is integral (Gauss's lemma)."""
        b = other.ints
        g = math.gcd(*b)
        q = _iexact_div(self.ints, [v // g for v in b])
        return UPoly.from_ints([v * other.den for v in q], self.den * g)

    def derivative(self) -> "UPoly":
        return UPoly.from_ints(_ideriv(self.ints), self.den)

    # -- evaluation ---------------------------------------------------

    def __call__(self, x):
        """Horner evaluation at a rational."""
        x = rat(x)
        q = x.denominator
        value = _ihorner(self.ints, x.numerator, q)
        return Fraction(value, self.den * q ** max(self.degree, 0))

    def eval_interval(self, iv: Interval) -> Interval:
        """Interval Horner, on integers: with lo = L/Q and hi = H/Q over a
        common denominator, the step k from the top keeps acc * D * Q^k, so
        each min and max picks the same product as over Fractions, and the
        enclosure is the one Fraction interval arithmetic gives."""
        if not self.ints:
            return Interval.point(0)
        lo, hi = iv.lo, iv.hi
        Q = math.lcm(lo.denominator, hi.denominator)
        L = lo.numerator * (Q // lo.denominator)
        H = hi.numerator * (Q // hi.denominator)
        a = b = 0
        qk = 1
        for c in reversed(self.ints):
            products = (a * L, a * H, b * L, b * H)
            cq = c * qk
            a, b = min(products) + cq, max(products) + cq
            qk *= Q
        scale = self.den * qk // Q
        return Interval(Fraction(a, scale), Fraction(b, scale))

    # -- integer normal form -------------------------------------------

    def int_primitive(self) -> list[int]:
        """Integer coefficients of self scaled by a positive rational (primitive)."""
        return _iprim(list(self.ints))

    def primitive(self) -> "UPoly":
        return UPoly.from_ints(self.int_primitive())

    def cauchy_root_bound(self) -> Fraction:
        """B with every real root in (-B, B), strict."""
        if self.degree < 1:
            return Fraction(1)
        m = max(abs(v) for v in self.ints[:-1])
        return Fraction(1) + Fraction(m, abs(self.ints[-1])) + 1


def _as_poly(value) -> UPoly:
    if isinstance(value, UPoly):
        return value
    return UPoly.const(value)


# -- integer coefficient kernels --------------------------------------


def _lowest_terms(values: list[int], den: int) -> tuple[list[int], int]:
    """values / den (den nonzero) in lowest terms with a positive
    denominator; the denominator of no values is 1."""
    if not values:
        return values, 1
    if den != 1:
        g = math.gcd(den, *values)
        if den < 0:
            g = -g
        if g != 1:
            values = [v // g for v in values]
            den //= g
    return values, den


def _ideg(a: list[int]) -> int:
    return len(a) - 1


def _inorm(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _cleared(coeffs) -> tuple[list[int], int]:
    """(ints, D) with coeffs == ints / D, D > 0 the lcm of the denominators."""
    coeffs = list(coeffs)
    den = 1
    for c in coeffs:
        d = c.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        return [c.numerator for c in coeffs], 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _imul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials (normalized in, normalized out)."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _isub(a: list[int], b: list[int]) -> list[int]:
    """a - b, normalized."""
    if len(a) >= len(b):
        out = list(a)
        for i, y in enumerate(b):
            out[i] -= y
    else:
        out = [-y for y in b]
        for i, x in enumerate(a):
            out[i] += x
    return _inorm(out)


def _iexact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b over Z[x]; raises InvalidInput unless b divides a exactly."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return []
    db = len(b) - 1
    lead = b[-1]
    if db == 0:
        q = []
        for v in a:
            c, rem = divmod(v, lead)
            if rem:
                raise InvalidInput("inexact integer polynomial division")
            q.append(c)
        return q
    if len(a) - 1 < db:
        raise InvalidInput("inexact integer polynomial division")
    r = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + db], lead)
        if rem:
            raise InvalidInput("inexact integer polynomial division")
        if c:
            q[k] = c
            for i in range(db):
                r[k + i] -= c * b[i]
    if any(r[:db]):
        raise InvalidInput("inexact integer polynomial division")
    return q


def _iprim(a: list[int]) -> list[int]:
    g = 0
    for v in a:
        g = math.gcd(g, v)
    if g in (0, 1):
        return a
    return [v // g for v in a]


def _ineg(a: list[int]) -> list[int]:
    return [-v for v in a]


def _ideriv(a: Sequence[int]) -> list[int]:
    return [k * v for k, v in enumerate(a)][1:]


def _ihorner(a: Sequence[int], p: int, q: int) -> int:
    """sum of a_k p^k q^(n-k), n = deg a: q^n times a at p / q (q > 0), so
    its sign is the sign of a there. The one Horner evaluation at a point."""
    acc = 0
    qk = 1
    for c in reversed(a):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """Signed pseudo-division over Z[x] (Knuth's Algorithm R): (q, r) with
    m*a == q*b + r, deg r < deg b and m = |lc b|^(deg a - deg b + 1), or
    m = 1 when deg a < deg b. The package's one polynomial division; r is a
    positive multiple of a mod b, with the signs and zeros of a at b's roots.
    """
    db = _ideg(b)
    if db < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    n = _ideg(a) - db + 1
    if n <= 0:
        return [], list(a)
    l = b[-1]
    r = list(a)
    q = [0] * n
    for k in range(n - 1, -1, -1):
        top = r.pop()
        q[k] = top * l**k
        r = [l * v for v in r]
        if top:
            for i in range(db):
                r[k + i] -= top * b[i]
    if l < 0 and n % 2:
        return _ineg(q), _ineg(_inorm(r))
    return q, _inorm(r)


def _prs(a: list[int], b: list[int]):
    """The primitive pseudo-remainder sequence of a and b over Z (Brown-Traub
    1971): yields (q, c, r) for each member r after a and b, where
    m*a == q*b + c*r, m = |lc b|^(deg a - deg b + 1) as in _pdivmod, and
    c is minus the content of the pseudo-remainder. So r = -prim(prem), the
    member a Sturm chain takes; each member is fed back as the next divisor,
    and the sequence ends before a zero pseudo-remainder. b is nonzero.
    """
    while True:
        q, r = _pdivmod(a, b)
        if not r:
            return
        c = -math.gcd(*r)
        r = [v // c for v in r]
        yield q, c, r
        a, b = b, r


def _igcd_poly(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z: the last member of the primitive PRS."""
    a, b = _iprim(list(a)), _iprim(list(b))
    if not a:
        return _pos_lc(b)
    if not b:
        return _pos_lc(a)
    if _ideg(a) < _ideg(b):
        a, b = b, a
    for _q, _c, b in _prs(a, b):
        pass
    return _pos_lc(b)


def _pos_lc(a: list[int]) -> list[int]:
    if a and a[-1] < 0:
        return _ineg(a)
    return a


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """Primitive gcd with positive leading coefficient."""
    return UPoly.from_ints(_igcd_poly(p.int_primitive(), q.int_primitive()))


def gcd_of_minors(p: Sequence[UPoly], v: Sequence) -> UPoly | None:
    """gcd of the 2x2 minors p_i*v_j - p_j*v_i (i < j); None if all vanish.

    v holds polynomials or scalars. The gcd has a root exactly where the
    vectors p(t) and v(t) are proportional; the scan stops at a constant.
    """
    g = None
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            m = p[i] * v[j] - p[j] * v[i]
            if m.is_zero:
                continue
            g = m if g is None else poly_gcd(g, m)
            if g.degree == 0:
                return g
    return g


def proportional(a: Sequence, b: Sequence) -> bool:
    """Are the scalar vectors a and b proportional: do all 2x2 minors
    a_i*b_j - a_j*b_i vanish? The scalar twin of gcd_of_minors."""
    n = len(a)
    return all(
        a[i] * b[j] - a[j] * b[i] == 0 for i in range(n) for j in range(i + 1, n)
    )


def squarefree_part(p: UPoly) -> UPoly:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    if p.is_zero:
        raise InvalidInput("square-free part of the zero polynomial")
    if p.degree == 0:
        return UPoly.const(1)
    g = poly_gcd(p, p.derivative())
    q = p.exact_div(g)
    out = q.primitive()
    if out.lc < 0:
        out = -out
    return out


def is_squarefree(p: UPoly) -> bool:
    if p.is_zero:
        return False
    if p.degree == 0:
        return True
    return poly_gcd(p, p.derivative()).degree == 0


def quotient_mod(num: UPoly, den: UPoly, modulus: UPoly) -> UPoly:
    """num / den modulo `modulus`, of degree below it; InvalidInput unless
    den is invertible there.

    The primitive pseudo-remainder sequence _prs of (P, D) over Z, P the
    primitive modulus and D the cleared den, carries a cofactor s / k for
    each member r, with s*D == k*r (mod P) (Collins 1967; Brown-Traub 1971).
    At the last member, a constant b0 when den is invertible, 1 / D ==
    s / (k*b0), and N*s is reduced once by _pdivmod.
    """
    if den.is_zero:
        raise InvalidInput("not invertible modulo the given polynomial")
    p = modulus.int_primitive()
    b = list(den.ints)
    sa, ka = [], 1
    sb, kb = [1], 1
    for q, c, r in _prs(p, b):
        # r = (m*a - q*b) / c, m = |lc b|^len(q), has the cofactor
        # (m*kb*sa - q*ka*sb) / (ka*kb*c)
        m = abs(b[-1]) ** len(q)
        s = _isub([m * kb * v for v in sa], [ka * v for v in _imul(q, sb)])
        k = ka * kb * c
        g = math.gcd(k, *s)
        sa, ka = sb, kb
        b, sb, kb = r, [v // g for v in s], k // g
    if _ideg(b) != 0:
        raise InvalidInput("not invertible modulo the given polynomial")
    q, t = _pdivmod(_imul(num.ints, sb), p)
    m = abs(p[-1]) ** len(q)
    return UPoly.from_ints([v * den.den for v in t], m * kb * b[0] * num.den)


# -- determinants and resultants --------------------------------------


def det_rational(rows: Sequence[Sequence]) -> Fraction:
    """Determinant of a square matrix of rationals: fraction-free Bareiss
    elimination (Bareiss 1968) on the rows cleared of their denominators,
    divided by the product of those. Every division by the previous pivot is
    exact and is checked."""
    scale = 1
    m = []
    for row in rows:
        ints, den = _cleared(row)
        scale *= den
        m.append(ints)
    n = len(m)
    if n == 0:
        raise InvalidInput("empty matrix")
    sgn, prev = 1, 1
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sgn = -sgn
                    break
            else:
                return Fraction(0)
        pivot_row = m[k]
        pivot = pivot_row[k]
        for row in m[k + 1 :]:
            below = row[k]
            for j in range(k + 1, n):
                row[j], rem = divmod(row[j] * pivot - below * pivot_row[j], prev)
                if rem:
                    raise InvalidInput("inexact integer division")
        prev = pivot
    return Fraction(sgn * m[n - 1][n - 1], scale)


def _ipow(a: list[int], n: int) -> list[int]:
    out = [1]
    for _ in range(n):
        out = _imul(out, a)
    return out


def _subresultants(
    p: list[list[int]], q: list[list[int]]
) -> tuple[list[int], list[list[int]] | None]:
    """(Res(p, q), S1): the resultant and the degree-1 member of the
    subresultant PRS of p and q, polynomials in x over Z[y].

    p and q are coefficient lists in x (low first) whose entries are integer
    lists in y ([] for zero), as BiPoly.integer_rows gives them. The chain is
    Brown's subresultant PRS (Collins 1967; Brown-Traub 1971): each new member
    is the full pseudo-remainder of the two before it, lc(b)^(delta+1) * a
    mod b with delta = deg a - deg b, divided exactly (_iexact_div) by
    g*h^delta, where g is the leading coefficient of a and h follows
    h <- g^delta / h^(delta-1), both 1 at the first step. No gcd is taken.

    Res(p, q) has the Sylvester sign: it is lc(p)^deg q times the product of q
    over the roots of p, and an input constant in x gives its power. S1 is the
    first member of actual degree 1 after the larger-degree input (the other
    input included), proportional over Q(y) to the degree-1 subresultant, or
    None when the chain skips degree 1.
    """

    def xnorm(c: list[list[int]]) -> list[list[int]]:
        while c and not c[-1]:
            c.pop()
        return c

    a, b = xnorm(list(p)), xnorm(list(q))
    if not a or not b:
        raise InvalidInput("resultant of a zero polynomial")
    sgn = 1
    if len(a) < len(b):
        # Res(p, q) = (-1)^(deg p * deg q) Res(q, p)
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            sgn = -1
    s1 = b if len(b) == 2 else None
    g = h = [1]
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sgn = -sgn
        # r = lc(b)^(delta+1) * a mod b, one step per degree of the quotient
        lead = b[-1]
        r = list(a)
        for k in range(delta, -1, -1):
            top = r.pop()
            r = [_imul(lead, c) for c in r]
            if top:
                for i in range(db):
                    if b[i]:
                        r[k + i] = _isub(r[k + i], _imul(top, b[i]))
        if not xnorm(r):
            return [], s1
        div = _imul(g, _ipow(h, delta))
        a, b = b, [_iexact_div(c, div) for c in r]
        g = a[-1]
        if delta:
            h = _iexact_div(_ipow(g, delta), _ipow(h, delta - 1))
        if s1 is None and len(b) == 2:
            s1 = b
    # Res = lc(b)^deg a / h^(deg a - 1) at the constant member b
    d = len(a) - 1
    res = _ipow(b[0], d)
    if d > 1:
        res = _iexact_div(res, _ipow(h, d - 1))
    return (res if sgn == 1 else _ineg(res)), s1


def resultant(p: UPoly, q: UPoly) -> Fraction:
    """Res(p, q) with the Sylvester sign, from the subresultant chain of the
    cleared p and q."""
    res, _ = _subresultants(
        [[c] if c else [] for c in p.ints], [[c] if c else [] for c in q.ints]
    )
    # Res(dp*p, dq*q) = dp^deg(q) * dq^deg(p) * Res(p, q), dp and dq the dens
    return Fraction(res[0] if res else 0, p.den ** q.degree * q.den ** p.degree)


# -- Sturm machinery ---------------------------------------------------


def sturm_chain(p: UPoly) -> list[list[int]]:
    """Sturm chain of p as primitive integer polynomials (positive rescaling
    only): p, p' and the members of their primitive PRS."""
    if p.is_zero:
        raise InvalidInput("Sturm chain of the zero polynomial")
    chain = [p.int_primitive()]
    d = _iprim(_ideriv(chain[0]))
    if not d:
        return chain
    chain.append(d)
    chain.extend(r for _q, _c, r in _prs(chain[0], d))
    return chain


def _sign_at(coeffs: list[int], x: Fraction) -> int:
    return sign(_ihorner(coeffs, x.numerator, x.denominator))


def sturm_variations(chain: list[list[int]], x: Fraction) -> int:
    """Sign variations of the chain at the rational x, zeros skipped."""
    signs = [s for s in (_sign_at(member, x) for member in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: UPoly, lo, hi) -> int:
    """Number of distinct real roots of p in (lo, hi], lo and hi rationals."""
    chain = sturm_chain(p)
    return sturm_variations(chain, rat(lo)) - sturm_variations(chain, rat(hi))


def isolate_roots_intervals(p: UPoly) -> tuple[list[tuple[Fraction, Fraction, bool]], UPoly]:
    """Isolating data for the real roots of a square-free p, sorted ascending.

    Returns (triples, residual): each triple (lo, hi, exact) is either an
    exact rational root (lo == hi) or an open interval containing exactly one
    root of p and no other, which is a root *of residual*: the primitive p
    divided by x - r for every exact root r. No endpoint of an open interval
    is a root of residual, which is the invariant interval refinement relies
    on; an endpoint may be an exact root.

    One bisection pass of the Sturm chain of p over (-B, B), B the Cauchy
    bound. A node (a, b, va, vb) holds va = V(a+) and vb = V(b-), so
    va - vb counts the roots of p in the open (a, b). A node with one root
    is a leaf unless its midpoint m is that root; a midpoint root is
    recorded as exact and splits its node at m into (V(a+), V(m) + 1) and
    (V(m), V(b-)): at a simple root, V(m) = V(m+) = V(m-) - 1.
    """
    if p.is_zero:
        raise InvalidInput("cannot isolate roots of the zero polynomial")
    chain = sturm_chain(p)
    if len(chain[-1]) > 1:
        # the last member is gcd(p, p')
        raise InvalidInput("root isolation requires a square-free polynomial")
    work = chain[0]
    prim = UPoly.from_ints(work)
    bound = prim.cauchy_root_bound()
    out = []
    factors = UPoly.const(1)
    stack = [(-bound, bound, sturm_variations(chain, -bound), sturm_variations(chain, bound))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k == 0:
            continue
        m = (a + b) / 2
        hit = _sign_at(work, m) == 0
        if hit:
            out.append((m, m, True))
            factors = factors * UPoly((-m, 1))
        elif k == 1:
            out.append((a, b, False))
        if k > 1:
            vm = sturm_variations(chain, m)
            stack.append((a, m, va, vm + hit))
            stack.append((m, b, vm, vb))
    out.sort(key=lambda t: (t[0] + t[1]))
    return out, prim.exact_div(factors)
