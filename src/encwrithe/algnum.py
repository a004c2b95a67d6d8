"""Real algebraic numbers and certified sign determination.

An AlgebraicNumber is a square-free defining polynomial plus an isolating
rational interval. Sign queries follow a fixed protocol: reduce the
polynomial by the defining one (upoly._pdivmod), refine the interval while
interval arithmetic cannot separate the value from zero, and after
_QUICK_REFINE_ROUNDS bisections decide vanishing exactly (a gcd with the
defining polynomial and a Sturm count on the interval). The exact zero test
is what guarantees the refinement loop terminates.

"Which root is this?" is one Sturm count wherever it is asked: an isolating
interval holds at most one root of any divisor of the defining polynomial,
and none at an open interval's endpoint. So equals counts the roots of the
gcd of two defining polynomials where the two intervals meet, without
refining either, and algebraic_value decides the exact rational roots of
its eliminant exactly before it searches the open boxes by refinement; the
value lies strictly inside one of them, so that search ends. Its enclosure
of num/den is quotient_boxes, which also gives the projection's image boxes.

There is no extension tower. Every double point is a triangular root: a
real algebraic number plus a polynomial giving the other coordinate, and
every local-writhe quantity, solitary points included, is a polynomial in
those coordinates (see elimination.TriangularRoot.sign_of). So one sign
routine, sign_of_poly, decides every sign the pipeline takes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvalidInput
from .rationals import Interval, rat, sign
from .upoly import (
    UPoly,
    _pdivmod,
    count_real_roots,
    is_squarefree,
    isolate_roots_intervals,
    poly_gcd,
    squarefree_part,
)
from .bipoly import BiPoly, resultant_bivariate

_QUICK_REFINE_ROUNDS = 2


class AlgebraicNumber:
    """A real algebraic number: square-free defining polynomial + isolating interval.

    The represented number never changes after construction; the interval
    (and occasionally the defining polynomial, via square-free factor
    splits) only narrows toward it.
    """

    __slots__ = ("defining", "lo", "hi")

    def __init__(self, defining: UPoly, lo, hi, _checked: bool = False):
        lo, hi = rat(lo), rat(hi)
        self.defining = defining
        self.lo = lo
        self.hi = hi
        if not _checked:
            if defining.is_zero or defining.degree < 1:
                raise InvalidInput("defining polynomial must be nonconstant")
            if not is_squarefree(defining):
                raise InvalidInput("defining polynomial must be square-free")
            if lo == hi:
                if defining(lo) != 0:
                    raise InvalidInput("point interval must be a root")
            else:
                if defining(lo) == 0 or defining(hi) == 0:
                    raise InvalidInput("isolating interval endpoints must not be roots")
                if count_real_roots(defining, lo, hi) != 1:
                    raise InvalidInput("interval does not isolate exactly one root")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_rational(value) -> "AlgebraicNumber":
        value = rat(value)
        return AlgebraicNumber(UPoly((-value, 1)), value, value, _checked=True)

    # -- basic queries -----------------------------------------------------

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    @property
    def exact_value(self) -> Fraction:
        if not self.is_exact:
            raise InvalidInput("number has not collapsed to a rational")
        return self.lo

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"AlgebraicNumber({self.lo})"
        return f"AlgebraicNumber(deg {self.defining.degree} in [{self.lo}, {self.hi}])"

    # -- refinement --------------------------------------------------------

    def refine(self) -> None:
        """One bisection step; collapses to an exact rational if the midpoint is the root."""
        if self.is_exact:
            return
        mid = (self.lo + self.hi) / 2
        v = self.defining(mid)
        if v == 0:
            self.lo = self.hi = mid
            return
        if sign(self.defining(self.lo)) != sign(v):
            self.hi = mid
        else:
            self.lo = mid

    def refine_below(self, width) -> None:
        width = rat(width)
        while not self.is_exact and self.hi - self.lo > width:
            self.refine()

    def try_exact_collapse(self, rounds: int = 3) -> bool:
        """Probe for a rational value via the simplest fraction in the interval."""
        from .rationals import simplest_in_interval

        for _ in range(rounds):
            if self.is_exact:
                return True
            candidate = simplest_in_interval(self.lo, self.hi)
            if self.lo < candidate < self.hi and self.defining(candidate) == 0:
                self.lo = self.hi = candidate
                return True
            self.refine()
            self.refine()
        return self.is_exact

    # -- certified sign machinery -------------------------------------------

    def sign_of_poly(self, p: UPoly) -> int:
        """Exact sign of p at this number."""
        if self.is_exact:
            return sign(p(self.lo))
        p = self._remainder(p)
        if p.is_zero:
            return 0
        rounds = 0
        while True:
            s = p.eval_interval(self.interval()).definite_sign()
            if s:
                return s
            # past the one exact zero test p is nonzero here, and the
            # enclosure shrinks onto that nonzero value
            if rounds == _QUICK_REFINE_ROUNDS and self._vanishes_here(p):
                return 0
            self.refine()
            rounds += 1
            if self.is_exact:
                return sign(p(self.lo))

    def is_root_of(self, p: UPoly) -> bool:
        if self.is_exact:
            return p(self.lo) == 0
        p = self._remainder(p)
        if p.is_zero:
            return True
        return self._vanishes_here(p)

    def _remainder(self, p: UPoly) -> UPoly:
        # a positive multiple of p mod defining: same sign and same zeros here
        return UPoly.from_ints(_pdivmod(p.ints, self.defining.int_primitive())[1])

    def _vanishes_here(self, p: UPoly) -> bool:
        # p already reduced and nonzero; p vanishes at the root iff the root
        # also belongs to gcd(p, defining)
        g = poly_gcd(p, self.defining)
        if g.degree < 1:
            return False
        return count_real_roots(g, self.lo, self.hi) == 1

    def split_defining_coprime_to(self, u: UPoly) -> None:
        """Shrink the defining polynomial so it is coprime to u.

        Requires u nonzero at this number (caller certifies via sign_of_poly).
        """
        g = poly_gcd(u, self.defining)
        if g.degree >= 1:
            self.defining = self.defining.exact_div(g).primitive()

    # -- structural helpers -------------------------------------------------

    def equals(self, other: "AlgebraicNumber") -> bool:
        """Exact equality decision."""
        # g has at most one root in each isolating interval and none at an
        # open interval's endpoint, and an exact number is a root of its
        # defining polynomial, so the two are equal iff g has a root where
        # they meet; count_real_roots counts (lo, hi], and g(hi) != 0
        g = poly_gcd(self.defining, other.defining)
        if g.degree < 1:
            return False
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            return False
        if lo == hi:
            return g(lo) == 0
        return count_real_roots(g, lo, hi) == 1


def isolate_real_roots(p: UPoly) -> list[AlgebraicNumber]:
    """All real roots of a square-free p, ascending, as AlgebraicNumbers."""
    out = []
    triples, residual = isolate_roots_intervals(p)
    for lo, hi, exact in triples:
        if exact:
            out.append(AlgebraicNumber.from_rational(lo))
        else:
            num = AlgebraicNumber(residual, lo, hi, _checked=True)
            num.try_exact_collapse()
            out.append(num)
    return out


def quotient_boxes(
    nums: Sequence[UPoly], den: UPoly, iv: Interval
) -> tuple[Interval, ...] | None:
    """Rational boxes around num/den for each num in nums, both evaluated on
    iv by interval Horner; None while den's box contains zero."""
    den_box = den.eval_interval(iv)
    if den_box.contains_zero():
        return None
    inverse = Interval(1 / den_box.hi, 1 / den_box.lo)
    return tuple(num.eval_interval(iv) * inverse for num in nums)


def algebraic_value(base: AlgebraicNumber, num: UPoly, den: UPoly) -> AlgebraicNumber:
    """The number num(base)/den(base) as a standalone AlgebraicNumber.

    den must be nonzero at base. The defining polynomial is obtained by
    eliminating the base variable from {defining(f) = 0, num(f) - y*den(f) = 0}.
    """
    if base.sign_of_poly(den) == 0:
        raise InvalidInput("denominator vanishes at the base number")
    if base.is_exact:
        return AlgebraicNumber.from_rational(num(base.lo) / den(base.lo))
    target = BiPoly.outer([(num, UPoly.const(1)), (-den, UPoly.x())])
    h = resultant_bivariate(BiPoly.from_upoly(base.defining, 0), target, 0)
    if h.is_zero:
        # another root of the defining polynomial is a common root of num and
        # den; it is not this one, since den is nonzero here
        base.split_defining_coprime_to(poly_gcd(num, den))
        h = resultant_bivariate(BiPoly.from_upoly(base.defining, 0), target, 0)
    if h.is_zero:
        raise InvalidInput("degenerate elimination while forming an algebraic value")
    h = squarefree_part(h)
    boxes, residual = isolate_roots_intervals(h)
    for lo, _hi, exact in boxes:
        if exact and base.is_root_of(num - den * lo):
            return AlgebraicNumber.from_rational(lo)
    # the value is a root of residual, strictly inside one open box and
    # apart from the closures of the others, so the enclosure below ends up
    # meeting that box alone
    boxes = [(lo, hi) for lo, hi, exact in boxes if not exact]
    while True:
        enclosure = quotient_boxes((num,), den, base.interval())
        if enclosure is not None:
            hits = [box for box in boxes if not Interval(*box).disjoint(enclosure[0])]
            if len(hits) == 1:
                value = AlgebraicNumber(residual, *hits[0], _checked=True)
                value.try_exact_collapse()
                return value
        base.refine()
