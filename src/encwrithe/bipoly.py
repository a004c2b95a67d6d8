"""Sparse bivariate polynomials with rational coefficients, stored as
integers over one denominator.

Used for the double-point systems: minors in the two preimage parameters
(s, t), polynomials in the symmetric coordinates (e, f) = (s + t, s*t), and
resultant elimination down to univariate polynomials. Exponent pairs map to
integer coefficients over one positive denominator, in lowest terms as in
upoly.UPoly; the terms view gives them as Fractions. Variable 0 is the
first parameter, variable 1 the second.

A BiPoly is built, never computed with: every one in the program is a sum
of products A(s)B(t) (BiPoly.outer), or the (e, f) closed form of such a
sum symmetrized or divided by s - t (elimination.symmetric_sum and
elimination.symmetric_quotient), formed on integers and handed over with
BiPoly.from_ints. There is no ring arithmetic on BiPolys.

The resultant is read from the subresultant chain of upoly
(_subresultants): each input is read as integer coefficient lists over Z[x]
(integer_rows), and the chain runs on them with exact divisions. Substitution
is not done here: elimination.TriangularRoot.substitute reduces a BiPoly at
a root, from the same integer_rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .rationals import rat, rat_str
from .upoly import UPoly, _cleared, _lowest_terms, _subresultants


class BiPoly:
    """A rational polynomial in two variables stored as integers over one
    denominator: ints maps (i, j) to the integer coefficient of s^i t^j, with
    no zero entry, den > 0 and gcd(den, *ints.values()) == 1."""

    __slots__ = ("ints", "den")

    def __init__(self, terms: dict[tuple[int, int], Fraction] | Iterable = ()):
        sums: dict[tuple[int, int], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (i, j), c in items:
            sums[(i, j)] = sums.get((i, j), 0) + rat(c)
        ints, den = _cleared(sums.values())
        self._store(dict(zip(sums, ints)), den)

    def _store(self, terms: dict[tuple[int, int], int], den: int) -> None:
        """Set self to terms / den (den nonzero) in the stored form."""
        keys = [k for k, v in terms.items() if v]
        values, self.den = _lowest_terms([terms[k] for k in keys], den)
        self.ints = dict(zip(keys, values))

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_ints(terms: dict[tuple[int, int], int], den: int = 1) -> "BiPoly":
        """The polynomial terms / den (den nonzero), brought to lowest terms."""
        p = object.__new__(BiPoly)
        p._store(terms, den)
        return p

    @staticmethod
    def from_upoly(p: UPoly, index: int) -> "BiPoly":
        if index == 0:
            return BiPoly.from_ints({(k, 0): v for k, v in enumerate(p.ints)}, p.den)
        return BiPoly.from_ints({(0, k): v for k, v in enumerate(p.ints)}, p.den)

    @staticmethod
    def outer(pairs: Iterable[tuple[UPoly, UPoly]]) -> "BiPoly":
        """Sum of the products A(s) * B(t) over the pairs (A, B), summed on
        the integers of each pair scaled to the lcm of the pair denominators."""
        pairs = list(pairs)
        den = math.lcm(*(a.den * b.den for a, b in pairs))
        terms: dict[tuple[int, int], int] = {}
        for a, b in pairs:
            scale = den // (a.den * b.den)
            for i, x in enumerate(a.ints):
                if x:
                    for j, y in enumerate(b.ints):
                        if y:
                            terms[(i, j)] = terms.get((i, j), 0) + scale * x * y
        return BiPoly.from_ints(terms, den)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        """The coefficients as Fractions, keyed by exponent pair."""
        return {k: Fraction(v, self.den) for k, v in self.ints.items()}

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def degree_in(self, index: int) -> int:
        if not self.ints:
            return -1
        return max(k[index] for k in self.ints)

    @property
    def is_constant(self) -> bool:
        return all(k == (0, 0) for k in self.ints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((frozenset(self.ints.items()), self.den))

    def __repr__(self) -> str:
        if not self.ints:
            return "BiPoly(0)"
        parts = [
            f"{rat_str(c)}*s^{i}t^{j}"
            for (i, j), c in sorted(self.terms.items())
        ]
        return "BiPoly(" + " + ".join(parts) + ")"

    # -- views and conversions -----------------------------------------

    def swap_vars(self) -> "BiPoly":
        return BiPoly.from_ints({(j, i): v for (i, j), v in self.ints.items()}, self.den)

    # -- the operations the double-point pipeline needs -----------------

    def integer_rows(self, index: int) -> tuple[list[list[int]], int]:
        """(rows, D): self * D as integer coefficient lists in the other
        variable, one per power of variable `index` (low first); D > 0 is the
        lcm of the denominators."""
        buckets: dict[int, dict[int, int]] = {}
        for (i, j), v in self.ints.items():
            k, other = (i, j) if index == 0 else (j, i)
            buckets.setdefault(k, {})[other] = v
        rows = []
        for k in range(max(buckets) + 1 if buckets else 0):
            bucket = buckets.get(k, {})
            row = [0] * (max(bucket) + 1) if bucket else []
            for other, v in bucket.items():
                row[other] = v
            rows.append(row)
        return rows, self.den


def resultant_bivariate(a: BiPoly, b: BiPoly, index: int) -> UPoly:
    """Resultant of a and b eliminating variable `index` (univariate in the other).

    With a = P / D_p and b = Q / D_q for integer P, Q, the resultant R' of P
    and Q over Z[x] is read from their subresultant chain, and
    Res(a, b) = R' / (D_p^n * D_q^m), m and n the degrees of a and b in the
    eliminated variable.
    """
    p, dp = a.integer_rows(index)
    q, dq = b.integer_rows(index)
    res, _ = _subresultants(p, q)
    return UPoly.from_ints(res, dp ** (len(q) - 1) * dq ** (len(p) - 1))
