"""Exact rational scalars: parsing, serialization, interval arithmetic.

Scalars in the certified pipeline are fractions.Fraction; polynomials keep
integers over one denominator (upoly, bipoly) and build a Fraction only for
a value they hand out. Intervals carry rational endpoints and are used only
to *separate* exact quantities from zero, never to decide equality;
equality decisions are always made symbolically upstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidInput

Rat = Union[int, Fraction]


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Anything else, a malformed string or a zero denominator included,
    raises InvalidInput.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput(f"not an exact rational: {value!r}")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction losslessly ('p/q' or plain integer)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def sign(value: Fraction | int) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInput(f"empty interval [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x) -> "Interval":
        x = rat(x)
        return Interval(x, x)

    @staticmethod
    def of(lo, hi) -> "Interval":
        return Interval(rat(lo), rat(hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other: "Interval") -> "Interval":
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __mul__(self, other: "Interval") -> "Interval":
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def disjoint(self, other: "Interval") -> bool:
        return self.hi < other.lo or other.hi < self.lo

    def definite_sign(self) -> int:
        """Sign if the interval excludes zero, else 0 (undecided)."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def _as_interval(value) -> Interval:
    if isinstance(value, Interval):
        return value
    return Interval.point(rat(value))


def simplest_in_interval(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in the closed interval [lo, hi].

    Stern-Brocot walk; used to sniff out exact rational values hiding in
    isolating intervals (sound because any candidate is verified by exact
    evaluation before it is believed).
    """
    if lo > hi:
        raise InvalidInput("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_in_interval(-hi, -lo)
    # now 0 < lo <= hi
    n = lo.numerator // lo.denominator  # floor(lo)
    if n + 1 <= hi:
        return Fraction(n if n >= lo else n + 1)
    frac_lo = lo - n
    if frac_lo == 0:
        return Fraction(n)
    inner = simplest_in_interval(1 / (hi - n), 1 / frac_lo)
    return n + 1 / inner
