"""Local writhe signs, diagram assembly, and the encomplexed writhe.

Sign conventions are pinned once and validated by two absolute anchors
(the model cubic family at tau = -1 and tau = +1, both of which must come
out -1); everything else in the package is relative to these choices:

* Ambient orientation: the standard orientation of the affine chart W = 1
  with ordered basis along (x, y, z). Projection is along z.

* Crossing. Preimage parameters s0, t0 on the (normalized) curve(s), chart
  points a = P(s0), b = P(t0), chart velocities v at s0 and w at t0, chord
  l = b - a. The local writhe is sign det[v; l; w] (rows in that order).
  Computed on cleared numerators: with V = (X'W - XW', Y'W - YW', Z'W - ZW')
  the determinant scales by W(s0)^3 W(t0)^3, so the chart sign is
  sign det[V(s0); L; V(t0)] * sign(W(s0) W(t0)), where L is the chord
  numerator. For a same-component crossing the cleared determinant is
  symmetric under s <-> t, hence a polynomial in (e, f), and
  sign(W(s0) W(t0)) is the sign of the image denominator 2 W(s)W(t).

  At a double point the chord is vertical, l = (0, 0, c), so no
  determinant is built: det[v; l; w] = -c (v_x w_y - v_y w_x). On one
  component c = -(s - t) N / (W(s)W(t)) and v_x w_y - v_y w_x =
  (s - t) M / (W(s)W(t))^2 with N, M as for a solitary point below, so the
  cleared determinant is D = (e^2 - 4f) N M; on a pair it is D = N F, with
  N = Z_a(s)W_b(t) - Z_b(t)W_a(s), F = V_a,x(s) V_b,y(t) - V_a,y(s) V_b,x(t).
  Where every root of the survivor's defining polynomial is a double point
  (any component or pair that passes the count check), the product of the
  factors' reductions is the reduction of D.

* Solitary point. Of the two conjugate imaginary preimages choose t_a with
  Im z(P(t_a)) > 0, which orients the real fiber line along +z. With
  u = (x', y')(t_a) the complex velocity of the projected branch, the local
  writhe is the sign of the 4x4 determinant with rows u, i*u, e_x, e_y
  written in coordinates (Re x, Im x, Re y, Im y). Choosing the conjugate
  preimage instead flips both the fiber orientation and the determinant,
  leaving the writhe unchanged.

  No square root is needed. For real polynomials A, B let
  Q_AB(e, f) = (A(s)B(t) - A(t)B(s)) / (s - t) in (e, f) = (s + t, s*t);
  then A(t)B(conj t) - A(conj t)B(t) = (t - conj t) Q_AB. Hence
  sign Im z(P(t)) = sign Im t * sign N with N = Q_ZW, and the determinant,
  which is Im(conj x'(t) * y'(t)) up to a positive factor, has the sign
  -sign Im t * sign M with M = Q_{nx,ny} on the velocity numerators. The
  branch with Im z > 0 has sign Im t = sign N, so the local writhe is
  -sign N * sign M, whichever branch is taken.

Every sign is the certified sign of a polynomial in the coordinates of the
triangular root, taken by TriangularRoot.sign_of. The polynomials of one
component, or of one pair of components, are built once, by its LocusPolys
record, which every locus of that component or pair carries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Optional

from .bipoly import BiPoly
from .curves import Link, RationalSpaceCurve
from .elimination import (
    TriangularRoot,
    cross_double_point_system,
    symmetric_double_point_system,
    symmetric_quotient,
    symmetric_sum,
)
from .errors import MissingOrientation, ZeroDeterminant
from .projection import (
    ProjectionAnalysis,
    analyze_projection,
    projected_triple,
    sample_generic_center,
)
from .upoly import UPoly


# -- crossing determinant -------------------------------------------------------


def _triple_product_factors(
    curve: RationalSpaceCurve,
) -> tuple[list[UPoly], list[UPoly]]:
    """(W V_k, C_k) for k = x, y, z, with V the velocity numerators and
    C = (X, Y, Z) x V."""
    X, Y, Z, W = curve.coords
    vx, vy, vz = curve.derivative_numerators()
    wv = [W * vx, W * vy, W * vz]
    c = [Y * vz - Z * vy, Z * vx - X * vz, X * vy - Y * vx]
    return wv, c


def crossing_det_bipoly(
    curve_a: RationalSpaceCurve, curve_b: RationalSpaceCurve
) -> BiPoly:
    """Cleared chart determinant det[V_a(s); L; V_b(t)] in (s, t), variable 0
    on curve_a: with the chord numerator L = W_a(s) P_b(t) - W_b(t) P_a(s)
    and C = P x V, P = (X, Y, Z), the triple product u . (v x w) makes it
    sum_k (W_a V_a,k)(s) C_b,k(t) + C_a,k(s) (W_b V_b,k)(t)."""
    wv_a, c_a = _triple_product_factors(curve_a)
    wv_b, c_b = _triple_product_factors(curve_b)
    return BiPoly.outer(list(zip(wv_a, c_b)) + list(zip(c_a, wv_b)))


# -- the polynomials of a locus -------------------------------------------------


class LocusPolys:
    """Every polynomial the loci of one component (other None, in (e, f)) or
    of one pair of components (in (s, t): s on curve, t on other) are read
    through, each built on first use and then shared by those loci, so its
    reduction at a root is made once (TriangularRoot.reductions)."""

    # e^2 - 4f, the same for every component: positive at a crossing (two
    # real preimages), negative at a solitary point (conjugate imaginary ones)
    tangency = BiPoly.from_ints({(2, 0): 1, (0, 1): -4})

    def __init__(self, curve: RationalSpaceCurve, other: Optional[RationalSpaceCurve] = None):
        self.curve = curve
        self.other = other

    @cached_property
    def system(self) -> list[BiPoly]:
        """The double-point system of the canonical projection."""
        if self.other is None:
            return symmetric_double_point_system(projected_triple(self.curve))
        return cross_double_point_system(projected_triple(self.curve), projected_triple(self.other))

    @property
    def expected_count(self) -> int:
        """Complex double points of a generic projection: (d - 1)(d - 2)/2 of
        one component, the Bezout number d_i d_j of a pair."""
        d = self.curve.degree
        if self.other is None:
            return (d - 1) * (d - 2) // 2
        return d * self.other.degree

    @cached_property
    def image(self) -> tuple[BiPoly, BiPoly, BiPoly]:
        """(num_x, num_y, den) of the image point. One component: the image is
        (X(s)W(t) + X(t)W(s)) / (2 W(s)W(t)) in x and likewise in y, symmetric
        in (s, t) and so written in (e, f). A pair: X/W and Y/W of curve at s."""
        X, Y, W = projected_triple(self.curve)
        if self.other is None:
            return symmetric_sum([(X, W)]), symmetric_sum([(Y, W)]), symmetric_sum([(W, W)])
        return BiPoly.from_upoly(X), BiPoly.from_upoly(Y), BiPoly.from_upoly(W)

    @cached_property
    def chart(self) -> BiPoly:
        """A positive multiple of W(s)W(t), the chart factor of a crossing
        sign: on one component the image denominator 2W(s)W(t) itself, on a
        pair W(s) W_other(t)."""
        if self.other is None:
            return self.image[2]
        return BiPoly.outer([(self.curve.W, self.other.W)])

    @cached_property
    def crossing(self) -> tuple[BiPoly, ...]:
        """det[V(s); chord; V(t)] at a double point as the factors that
        TriangularRoot.substitute multiplies (module docstring): (tangency,
        depth, frame) on one component, (depth, frame) on a pair."""
        if self.other is None:
            return (self.tangency, self.depth, self.frame)
        return (self.depth, self.frame)

    @cached_property
    def depth(self) -> BiPoly:
        """The numerator of z(s) - z(t) over the chart factor W(s)W(t): on
        one component N = Q_ZW, with z(s) - z(t) = (s - t) N / (W(s)W(t)),
        on a pair Z(s)W_other(t) - Z_other(t)W(s). Its sign picks the
        preimage of a solitary point (module docstring) and, with the chart
        sign, the branch of a crossing that passes under."""
        if self.other is None:
            return symmetric_quotient(self.curve.Z, self.curve.W)
        return BiPoly.outer([(self.curve.Z, self.other.W), (-self.curve.W, self.other.Z)])

    @cached_property
    def frame(self) -> BiPoly:
        """The frame of the module docstring: M = Q_{nx,ny} on one component,
        F = nx(s) ny_other(t) - ny(s) nx_other(t) on a pair."""
        nx, ny, _nz = self.curve.derivative_numerators()
        if self.other is None:
            return symmetric_quotient(nx, ny)
        ox, oy, _oz = self.other.derivative_numerators()
        return BiPoly.outer([(nx, oy), (-ny, ox)])


# -- local signs ----------------------------------------------------------------


def crossing_sign_raw(root: TriangularRoot, polys: LocusPolys) -> int:
    """Local writhe of a crossing, before any orientation flags: the sign of
    the cleared determinant times the chart sign, at a root in (e, f) of one
    component or in (s, t) of a pair, read through the record of that
    component or pair."""
    det_sign = root.sign_of(polys.crossing)
    chart_sign = root.sign_of(polys.chart)
    if chart_sign == 0:
        raise ZeroDeterminant("crossing image lies outside the affine chart")
    if det_sign == 0:
        raise ZeroDeterminant("crossing frame is degenerate (non-transversal branches)")
    return det_sign * chart_sign


def solitary_sign_raw(root: TriangularRoot, polys: LocusPolys) -> int:
    """Local writhe of a solitary double point: -sign N * sign M at the (e, f)
    root (see the module docstring)."""
    fiber = root.sign_of(polys.depth)
    if fiber == 0:
        raise ZeroDeterminant("solitary fiber is degenerate (z-coordinate not imaginary)")
    frame = root.sign_of(polys.frame)
    if frame == 0:
        raise ZeroDeterminant("solitary branch frame is degenerate")
    return -fiber * frame


# -- diagrams and writhe ----------------------------------------------------------


def build_diagram(link: Link, center=None, seed: int = 0) -> ProjectionAnalysis:
    """Find, classify, and sign every double point of a generic projection.

    With center=None a deterministic generic center is sampled from `seed`,
    and the sampler's accepted analysis is the diagram: the center is
    analysed once. With a given center, raises the typed error of its
    gravest genericity failure.
    """
    if center is None:
        return sample_generic_center(link, seed)
    return analyze_projection(link, center)


def writhe_unoriented(diagram: ProjectionAnalysis) -> int:
    """Sum of local writhes over solitary points and same-component crossings."""
    return sum(l.raw_sign for l in diagram.loci if l.is_same_component)


def _orientations(diagram: ProjectionAnalysis) -> tuple[int, ...]:
    flags = diagram.link.orientations
    if flags is None:
        raise MissingOrientation("link carries no orientation flags")
    return flags


def writhe_oriented(diagram: ProjectionAnalysis) -> int:
    """Sum over all double points, inter-component crossings included, using
    the link's orientation flags."""
    flags = _orientations(diagram)
    total = writhe_unoriented(diagram)
    for locus in diagram.loci:
        if not locus.is_same_component:
            total += locus.raw_sign * flags[locus.comp_i] * flags[locus.comp_j]
    return total


def linking_matrix(diagram: ProjectionAnalysis) -> list[list[Fraction]]:
    """Half the sum of oriented inter-component crossing signs, per pair."""
    flags = _orientations(diagram)
    n = diagram.link.n_components
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for locus in diagram.loci:
        if locus.is_same_component:
            continue
        value = Fraction(locus.raw_sign * flags[locus.comp_i] * flags[locus.comp_j], 2)
        matrix[locus.comp_i][locus.comp_j] += value
        matrix[locus.comp_j][locus.comp_i] += value
    return matrix
