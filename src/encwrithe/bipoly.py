"""Sparse bivariate polynomials over the rationals.

Used for the double-point systems: minors in the two preimage parameters
(s, t), polynomials in the symmetric coordinates (e, f) = (s + t, s*t), and
resultant elimination down to univariate polynomials. Exponent pairs map to
Fraction coefficients; variable 0 is the first parameter, variable 1 the
second.

A BiPoly is built, never computed with: every one in the program is a sum
of products A(s)B(t) (BiPoly.outer), or the (e, f) closed form of such a
sum symmetrized or divided by s - t (elimination.symmetric_sum and
elimination.symmetric_quotient), formed on cleared integers. There is no
ring arithmetic on BiPolys.

The resultant runs on the integer kernel of upoly: each input is cleared
to integer coefficient lists over Z[x] (integer_rows) and its Sylvester
matrix is reduced by fraction-free Bareiss elimination. Substitution is
not done here: elimination.TriangularRoot.substitute reduces a BiPoly at a
root, from the same integer_rows.
"""

from __future__ import annotations

import math
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
    def from_upoly(p: UPoly, index: int) -> "BiPoly":
        if index == 0:
            return BiPoly({(k, 0): c for k, c in enumerate(p.coeffs)})
        return BiPoly({(0, k): c for k, c in enumerate(p.coeffs)})

    @staticmethod
    def outer(pairs: Iterable[tuple[UPoly, UPoly]]) -> "BiPoly":
        """Sum of the products A(s) * B(t) over the pairs (A, B), summed on
        the cleared integers of each pair and divided once by the lcm of the
        pair denominators."""
        cleared = [(a.cleared(), b.cleared()) for a, b in pairs]
        den = math.lcm(*(da * db for (_, da), (_, db) in cleared))
        terms: dict[tuple[int, int], int] = {}
        for (ia, da), (ib, db) in cleared:
            scale = den // (da * db)
            for i, x in enumerate(ia):
                if x:
                    for j, y in enumerate(ib):
                        if y:
                            terms[(i, j)] = terms.get((i, j), 0) + scale * x * y
        return BiPoly({key: Fraction(v, den) for key, v in terms.items() if v})

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
        det = det_bareiss(sylvester_matrix(p, q))
    scale = dp**n * dq**m
    return UPoly([Fraction(c, scale) for c in det])
