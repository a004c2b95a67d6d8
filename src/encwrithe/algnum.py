"""Real algebraic numbers and certified sign determination.

An AlgebraicNumber is a square-free defining polynomial plus an isolating
rational interval. Sign queries follow a fixed protocol: reduce the
polynomial by the defining one (upoly._pdivmod), refine the interval while
its interval Horner enclosure contains zero, and after _QUICK_REFINE_ROUNDS
bisections decide vanishing exactly (a gcd with the defining polynomial and
a Sturm count on the interval). Each round reads its sign from the two
integer bounds upoly._ihorner_interval returns over a positive scale, so no
Fraction is formed for it: an enclosure that excludes zero certifies the
sign (the interval filter of Bronnimann, Burnikel and Pion 2001), and the
exact zero test behind it is what guarantees the loop terminates. A
bisection step evaluates the defining polynomial once, at upoly.split_point
(the midpoint, or a power of two for a wide interval far from zero): its
sign at lo is kept, since lo moves only to a split point of that sign.

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
from .rationals import Interval, rat, rat_str, simplest_in_interval
from .upoly import (
    UPoly,
    _ihorner_interval,
    _pdivmod,
    _sign_at,
    count_real_roots,
    is_squarefree,
    isolate_roots_intervals,
    poly_gcd,
    split_point,
    squarefree_part,
)
from .bipoly import BiPoly, resultant_bivariate

_QUICK_REFINE_ROUNDS = 2


class AlgebraicNumber:
    """A real algebraic number: square-free defining polynomial + isolating interval.

    The represented number never changes after construction; the interval
    (and occasionally the defining polynomial, via square-free factor
    splits) only narrows toward it. lo_sign is the sign of the defining
    polynomial at lo once refine has taken it, None before.
    """

    __slots__ = ("defining", "lo", "hi", "lo_sign")

    def __init__(self, defining: UPoly, lo, hi, _checked: bool = False):
        lo, hi = rat(lo), rat(hi)
        self.defining = defining
        self.lo = lo
        self.hi = hi
        self.lo_sign = None
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

    def interval(self) -> Interval:
        return Interval(self.lo, self.hi)

    def __float__(self) -> float:
        return float((self.lo + self.hi) / 2)

    def __repr__(self) -> str:
        if self.is_exact:
            return f"AlgebraicNumber({rat_str(self.lo)})"
        return f"AlgebraicNumber(deg {self.defining.degree} in {self.interval()!r})"

    # -- refinement --------------------------------------------------------

    def refine(self) -> None:
        """One bisection step at upoly.split_point; collapses to an exact
        rational if the split point is the root. The defining polynomial is
        evaluated at the split point only: its sign at lo is taken on the
        first step and kept in lo_sign, since lo moves only to a split point
        of that same sign."""
        if self.is_exact:
            return
        mid = split_point(self.lo, self.hi)
        s = _sign_at(self.defining.ints, mid)
        if s == 0:
            self.lo = self.hi = mid
            return
        if self.lo_sign is None:
            self.lo_sign = _sign_at(self.defining.ints, self.lo)
        if s == self.lo_sign:
            self.lo = mid
        else:
            self.hi = mid

    def refine_below(self, width) -> None:
        width = rat(width)
        while not self.is_exact and self.hi - self.lo > width:
            self.refine()

    def try_exact_collapse(self, rounds: int = 3) -> bool:
        """Probe for a rational value via the simplest fraction in the interval."""
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
            return _sign_at(p.ints, self.lo)
        p = self._remainder(p)
        if p.is_zero:
            return 0
        rounds = 0
        while True:
            # the enclosure is [lo_bound, hi_bound] over a positive scale
            lo_bound, hi_bound, _scale = _ihorner_interval(p.ints, self.lo, self.hi)
            if lo_bound > 0:
                return 1
            if hi_bound < 0:
                return -1
            # past the one exact zero test p is nonzero here, and the
            # enclosure shrinks onto that nonzero value
            if rounds == _QUICK_REFINE_ROUNDS and self._vanishes_here(p):
                return 0
            self.refine()
            rounds += 1
            if self.is_exact:
                return _sign_at(p.ints, self.lo)

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
        The removed factor may change the sign at lo, so lo_sign is dropped.
        """
        g = poly_gcd(u, self.defining)
        if g.degree >= 1:
            self.defining = self.defining.exact_div(g).primitive()
            self.lo_sign = None

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
    """Rational boxes around num/den for each num in nums, both enclosed on
    iv by upoly._ihorner_interval; None while den's box contains zero.

    With den's box of one sign, each bound of num/den is one bound of num's
    box divided by the bound of den's box that their signs pick: the box
    that num_box * [1/den_hi, 1/den_lo] gives, without its four products."""
    d_lo, d_hi, d_scale = _ihorner_interval(den.ints, iv.lo, iv.hi)
    if d_lo <= 0 <= d_hi:
        return None
    # num/den == (-num)/(-den): bring den's box above zero
    flip = d_hi < 0
    if flip:
        d_lo, d_hi = -d_hi, -d_lo
    d_scale *= den.den
    boxes = []
    for num in nums:
        n_lo, n_hi, n_scale = _ihorner_interval(num.ints, iv.lo, iv.hi)
        if flip:
            n_lo, n_hi = -n_hi, -n_lo
        n_scale *= num.den
        lo = Fraction(n_lo * d_scale, n_scale * (d_hi if n_lo >= 0 else d_lo))
        hi = Fraction(n_hi * d_scale, n_scale * (d_lo if n_hi >= 0 else d_hi))
        boxes.append(Interval(lo, hi))
    return tuple(boxes)


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
    h = resultant_bivariate(BiPoly.from_upoly(base.defining), target)
    if h.is_zero:
        # another root of the defining polynomial is a common root of num and
        # den; it is not this one, since den is nonzero here
        base.split_defining_coprime_to(poly_gcd(num, den))
        h = resultant_bivariate(BiPoly.from_upoly(base.defining), target)
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
