"""Numeric oracle for the local writhe of a solitary double point.

Test-only and independent of the exact pipeline's sign algebra: it works in
mpmath at high precision, straight from the definition. The two conjugate
imaginary preimages of a solitary locus are the roots of x^2 - e x + f. At
a preimage t the fiber orientation is sign Im z(P(t)), which has the sign of
Im(Z(t) conj W(t)), and the branch frame is the 4x4 determinant with rows
u, i*u, e_x, e_y in coordinates (Re x, Im x, Re y, Im y), where
u = (x'(t), y'(t)) is the velocity of the projected branch. The local writhe
is the frame sign at the preimage with Im z > 0; at the other preimage both
signs flip, so their product is the local writhe at either one.
"""

from fractions import Fraction

import mpmath

_DIGITS = 50


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def _midpoint(number):
    number.refine_below(Fraction(1, 10**40))
    return _mp((number.lo + number.hi) / 2)


def _value_and_slope(poly, t):
    value = mpmath.mpf(0)
    slope = mpmath.mpf(0)
    for k, c in enumerate(poly.coeffs):
        value += _mp(c) * t**k
        if k:
            slope += k * _mp(c) * t ** (k - 1)
    return value, slope


def solitary_signs_at_both_preimages(curve, locus) -> list[int]:
    """sign Im z * sign det[u; i*u; e_x; e_y] at t and at conj(t)."""
    out = []
    with mpmath.workdps(_DIGITS):
        f = _midpoint(locus.root.survivor)
        e, _ = _value_and_slope(locus.root.eliminated_poly, f)
        half_gap = mpmath.sqrt(4 * f - e * e) / 2
        for t in (e / 2 + 1j * half_gap, e / 2 - 1j * half_gap):
            (x, dx), (y, dy), (z, _dz), (w, dw) = (
                _value_and_slope(p, t) for p in curve.coords
            )
            fiber = mpmath.sign(mpmath.im(z * mpmath.conj(w)))
            u1 = (dx * w - x * dw) / w**2
            u2 = (dy * w - y * dw) / w**2
            iu1, iu2 = 1j * u1, 1j * u2
            frame = mpmath.det(
                mpmath.matrix(
                    [
                        [mpmath.re(u1), mpmath.im(u1), mpmath.re(u2), mpmath.im(u2)],
                        [mpmath.re(iu1), mpmath.im(iu1), mpmath.re(iu2), mpmath.im(iu2)],
                        [1, 0, 0, 0],
                        [0, 0, 1, 0],
                    ]
                )
            )
            out.append(int(fiber * mpmath.sign(frame)))
    return out
