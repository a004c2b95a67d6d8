"""Exact rational scalars: parsing, serialization, interval arithmetic.

Scalars in the certified pipeline are fractions.Fraction; polynomials keep
integers over one denominator (upoly, bipoly) and build a Fraction only for
a value they hand out. Intervals carry rational endpoints and are used only
to *separate* exact quantities from zero, never to decide equality;
equality decisions are always made symbolically upstream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .errors import InputTooLarge, InvalidInput

# a power in an input whose value would need more bits than this is refused
# before it is formed: a power in a family coefficient expression, or the
# power of ten of a decimal exponent such as "1e5"
POWER_BIT_BUDGET = 4096

# the exponent of a decimal such as "-1.5e3"
_DECIMAL_EXPONENT = re.compile(r"[-+]?[0-9_.]+[eE][-+]?([0-9_]+)$")


def check_power(base_bits: int, exp: int, text: str) -> None:
    """Refuse `text` if a power `exp` of a base of `base_bits` bits is past
    the budget; that power has at least exp * (base_bits - 1) bits."""
    if exp * (base_bits - 1) > POWER_BIT_BUDGET:
        raise InputTooLarge(f"{text!r} exceeds the {POWER_BIT_BUDGET}-bit budget for a power")


def rat(value) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to Fraction.

    Anything else, a malformed string or a zero denominator included,
    raises InvalidInput; a decimal exponent past the power budget raises
    InputTooLarge.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        exponent = _DECIMAL_EXPONENT.match(text)
        if exponent:
            # the power of ten, a 4-bit base; an exponent with more digits
            # than the budget is past it and is not read
            digits = exponent[1].replace("_", "").lstrip("0")
            too_long = len(digits) > len(str(POWER_BIT_BUDGET))
            check_power(4, POWER_BIT_BUDGET if too_long else int(digits or 0), value)
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidInput(f"not an exact rational: {value!r}")


def int_str(n: int) -> str:
    """The decimal digits of n, also past the interpreter's limit on
    int-to-str conversion, which bounds only the reading of input."""
    try:
        return str(n)
    except ValueError:
        return format(Decimal(n), "f")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction losslessly ('p/q' or plain integer)."""
    value = Fraction(value)
    if value.denominator == 1:
        return int_str(value.numerator)
    return f"{int_str(value.numerator)}/{int_str(value.denominator)}"


def sign(value: Fraction | int) -> int:
    return (value > 0) - (value < 0)


@dataclass(frozen=True)
class Interval:
    """Closed rational interval [lo, hi]."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidInput(f"empty interval {self!r}")

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
        return f"[{rat_str(self.lo)}, {rat_str(self.hi)}]"


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
