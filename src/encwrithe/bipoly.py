"""Sparse bivariate polynomials over the rationals.

Used for the double-point systems: minors in the two preimage parameters
(s, t), polynomials in the symmetric coordinates (e, f) = (s + t, s*t)
(built in closed form by elimination.symmetric_quotient and
elimination.symmetric_sum), and resultant elimination down to univariate
polynomials. Exponent pairs map to Fraction coefficients; variable 0 is the
first parameter, variable 1 the second.

The resultant runs on the integer kernel of upoly: each input is cleared
to integer coefficient lists over Z[x] (integer_rows) and its Sylvester
matrix is reduced by fraction-free Bareiss elimination. Substitution is
not done here: elimination.TriangularRoot.substitute reduces a BiPoly at a
root, from the same integer_rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import InvalidInput
from .rationals import rat
from .upoly import UPoly, _cleared, _imul, det_bareiss, sylvester_matrix


class BiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], Fraction] | Iterable = ()):
        d: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            c = rat(c)
            if c:
                d[(i, j)] = d.get((i, j), Fraction(0)) + c
        self.terms = {k: v for k, v in d.items() if v}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def const(c) -> "BiPoly":
        c = rat(c)
        return BiPoly({(0, 0): c}) if c else BiPoly()

    @staticmethod
    def var(index: int) -> "BiPoly":
        if index == 0:
            return BiPoly({(1, 0): Fraction(1)})
        if index == 1:
            return BiPoly({(0, 1): Fraction(1)})
        raise InvalidInput("variable index must be 0 or 1")

    @staticmethod
    def from_upoly(p: UPoly, index: int) -> "BiPoly":
        if index == 0:
            return BiPoly({(k, 0): c for k, c in enumerate(p.coeffs)})
        return BiPoly({(0, k): c for k, c in enumerate(p.coeffs)})

    @staticmethod
    def outer(pairs: Iterable[tuple[UPoly, UPoly]]) -> "BiPoly":
        """Sum of the products A(s) * B(t) over the pairs (A, B)."""
        terms: dict[tuple[int, int], Fraction] = {}
        for a, b in pairs:
            for i, x in enumerate(a.coeffs):
                if x:
                    for j, y in enumerate(b.coeffs):
                        if y:
                            terms[(i, j)] = terms.get((i, j), 0) + x * y
        return BiPoly(terms)

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree_in(self, index: int) -> int:
        if not self.terms:
            return -1
        return max(k[index] for k in self.terms)

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "BiPoly(0)"
        parts = [
            f"{c}*s^{i}t^{j}"
            for (i, j), c in sorted(self.terms.items())
        ]
        return "BiPoly(" + " + ".join(parts) + ")"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = _as_bipoly(other)
        d = dict(self.terms)
        for k, c in other.terms.items():
            d[k] = d.get(k, Fraction(0)) + c
        return BiPoly(d)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        return self + (-_as_bipoly(other))

    def __rsub__(self, other) -> "BiPoly":
        return _as_bipoly(other) - self

    def __neg__(self) -> "BiPoly":
        return BiPoly({k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = rat(other)
            return BiPoly({k: c * other for k, c in self.terms.items()})
        other = _as_bipoly(other)
        d: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                d[k] = d.get(k, Fraction(0)) + c1 * c2
        return BiPoly(d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        result = BiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- views and conversions -----------------------------------------

    def to_upoly(self, index: int) -> UPoly:
        """Convert to univariate in `index`; the other variable must not occur."""
        other = 1 - index
        if self.degree_in(other) > 0:
            raise InvalidInput("polynomial genuinely depends on both variables")
        d = self.degree_in(index)
        coeffs = [Fraction(0)] * (d + 1)
        for (i, j), c in self.terms.items():
            coeffs[(i, j)[index]] = c
        return UPoly(coeffs)

    def swap_vars(self) -> "BiPoly":
        return BiPoly({(j, i): c for (i, j), c in self.terms.items()})

    def derivative(self, index: int) -> "BiPoly":
        d: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            k = (i, j)[index]
            if k:
                nk = (i - 1, j) if index == 0 else (i, j - 1)
                d[nk] = d.get(nk, Fraction(0)) + c * k
        return BiPoly(d)

    # -- the operations the double-point pipeline needs -----------------

    def integer_rows(self, index: int) -> tuple[list[list[int]], int]:
        """(rows, D): self * D as integer coefficient lists in the other
        variable, one per power of variable `index` (low first); D > 0 is the
        lcm of the denominators."""
        ints, den = _cleared(self.terms.values())
        buckets: dict[int, dict[int, int]] = {}
        for (i, j), v in zip(self.terms, ints):
            k, other = (i, j) if index == 0 else (j, i)
            buckets.setdefault(k, {})[other] = v
        rows = []
        for k in range(max(buckets) + 1 if buckets else 0):
            bucket = buckets.get(k, {})
            row = [0] * (max(bucket) + 1) if bucket else []
            for other, v in bucket.items():
                row[other] = v
            rows.append(row)
        return rows, den


def _as_bipoly(value) -> BiPoly:
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, UPoly):
        raise InvalidInput("ambiguous UPoly to BiPoly conversion; use from_upoly")
    return BiPoly.const(rat(value))


def resultant_bivariate(a: BiPoly, b: BiPoly, index: int) -> UPoly:
    """Resultant of a and b eliminating variable `index` (univariate in the other).

    With a = P / D_p and b = Q / D_q for integer P, Q, the Sylvester
    determinant R' of P and Q over Z[x] is taken by fraction-free Bareiss, and
    Res(a, b) = R' / (D_p^n * D_q^m), m and n the degrees of a and b in the
    eliminated variable.
    """
    p, dp = a.integer_rows(index)
    q, dq = b.integer_rows(index)
    if not p or not q:
        raise InvalidInput("resultant of a zero polynomial")
    m, n = len(p) - 1, len(q) - 1
    if m == 0 or n == 0:
        # one input is constant in the eliminated variable: its power
        base, power = (p[0], n) if m == 0 else (q[0], m)
        det = [1]
        for _ in range(power):
            det = _imul(det, base)
    else:
        det = det_bareiss(sylvester_matrix(p, q, []))
    scale = dp**n * dq**m
    return UPoly([Fraction(c, scale) for c in det])
