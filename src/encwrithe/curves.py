"""Real rational space curves and links in projective 3-space.

A curve is a quadruple (X, Y, Z, W) of univariate rational polynomials,
implicitly homogenized to the common degree d = max coordinate degree. The
projective curve, not any affine chart, is the object of interest: the
quadruple is normalized at construction by a common positive scalar to
primitive integer coefficients, which changes nothing projectively.

Validation certifies the structural invariants exactly: reduced
parametrization, immersion (including the point at parameter infinity),
birationality onto the image, and absence of real double points of the
space curve. The first failed check raises its ValidationError subclass;
imaginary double points are allowed and counted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .elimination import (
    cross_double_point_system,
    pairwise_eliminant,
    solve_system,
    symmetric_double_point_system,
)
from .errors import (
    ComponentsIntersect,
    CuspDetected,
    DegenerateElimination,
    InvalidInput,
    RealSingularityDetected,
    ReducibleParametrization,
    SamplingExhausted,
    SingularMatrix,
    ValidationError,
)
from .rationals import rat, sign
from .upoly import (
    UPoly,
    _cleared,
    _imul,
    _inorm,
    det_rational,
    gcd_all,
    gcd_of_minors,
    hits,
    proportional,
)


class RationalSpaceCurve:
    """One link component: (X, Y, Z, W) with rational coefficients."""

    __slots__ = ("X", "Y", "Z", "W", "degree")

    def __init__(self, X, Y, Z, W):
        coords = [p if isinstance(p, UPoly) else UPoly(p) for p in (X, Y, Z, W)]
        if all(p.is_zero for p in coords):
            raise InvalidInput("the zero quadruple is not a curve")
        degree = max(p.degree for p in coords)
        if degree < 1:
            raise InvalidInput("constant quadruple does not parametrize a curve")
        coords = _common_integer_scaling(coords)
        self.X, self.Y, self.Z, self.W = coords
        self.degree = degree

    @property
    def coords(self) -> tuple[UPoly, UPoly, UPoly, UPoly]:
        return (self.X, self.Y, self.Z, self.W)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSpaceCurve):
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"RationalSpaceCurve(degree={self.degree})"

    def coefficient_vector(self, k: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(p[k] for p in self.coords)

    def leading_vector(self) -> tuple[Fraction, ...]:
        """The point at parameter infinity of the degree-d homogenization."""
        return self.coefficient_vector(self.degree)

    def subleading_vector(self) -> tuple[Fraction, ...]:
        return self.coefficient_vector(self.degree - 1)

    def evaluate(self, t):
        """Exact projective point P(t) at a rational t; P(infinity) is
        leading_vector()."""
        t = rat(t)
        return tuple(p(t) for p in self.coords)

    def derivative_numerators(self) -> tuple[UPoly, UPoly, UPoly]:
        """Numerators of the affine-chart velocity: (X'W - XW', Y'W - YW', Z'W - ZW')."""
        dW = self.W.derivative()
        return tuple(
            p.derivative() * self.W - p * dW for p in (self.X, self.Y, self.Z)
        )

    def tangent(self, t):
        """Derivative of the affine-chart parametrization at t, as (vx, vy, vz, 0)."""
        nums = self.derivative_numerators()
        t = rat(t)
        w = self.W(t)
        if w == 0:
            raise InvalidInput("curve point lies outside the affine chart")
        w2 = w * w
        return tuple(n(t) / w2 for n in nums) + (Fraction(0),)


def _common_integer_scaling(coords: list[UPoly]) -> list[UPoly]:
    """coords times the one positive rational that makes them integer
    polynomials with no common content."""
    den = math.lcm(*(p.den for p in coords))
    scaled = [[v * (den // p.den) for v in p.ints] for p in coords]
    g = math.gcd(*(v for ints in scaled for v in ints)) or 1
    return [UPoly.from_ints([v // g for v in ints]) for ints in scaled]


def _integer_combination(weights: Sequence[int], polys: Sequence[Sequence[int]]) -> UPoly:
    """sum of w * p over the integers weights and the integer coefficient
    lists polys, paired in order."""
    out = [0] * max(map(len, polys))
    for w, p in zip(weights, polys):
        if w:
            for i, v in enumerate(p):
                out[i] += w * v
    return UPoly.from_ints(out)


@dataclass(frozen=True)
class MoebiusReparam:
    """Parameter change t -> (a*t + b) / (c*t + d), acting homogeneously."""

    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction

    @staticmethod
    def of(a, b, c, d) -> "MoebiusReparam":
        m = MoebiusReparam(rat(a), rat(b), rat(c), rat(d))
        if m.det == 0:
            raise SingularMatrix("Moebius matrix is singular")
        return m

    @property
    def det(self) -> Fraction:
        return self.a * self.d - self.b * self.c

    def apply(self, curve: RationalSpaceCurve) -> RationalSpaceCurve:
        """Substitute into the degree-d homogenization: the image point set in
        projective space is unchanged, only the parametrization moves.

        On integers: the entries times their positive common denominator m
        are the same parameter change, and each coordinate's substitution
        sum_k c_k (a t + b)^k (c t + d)^(n-k), n the curve's degree, over
        them is m^n times the one over the entries, so the quadruple
        normalizes to the same curve."""
        if self.det == 0:
            raise SingularMatrix("Moebius matrix is singular")
        n = curve.degree
        (a, b, c, d), _m = _cleared((self.a, self.b, self.c, self.d))
        num, den = _inorm([b, a]), _inorm([d, c])
        num_pows, den_pows = [[1]], [[1]]
        for _ in range(n):
            num_pows.append(_imul(num_pows[-1], num))
            den_pows.append(_imul(den_pows[-1], den))
        # basis[k] = num^k den^(n-k); the stored coordinates are integers
        basis = [_imul(num_pows[k], den_pows[n - k]) for k in range(n + 1)]
        return RationalSpaceCurve(*(_integer_combination(p.ints, basis) for p in curve.coords))


@dataclass(frozen=True)
class ProjectiveTransform:
    """Invertible 4x4 rational matrix acting on coordinate quadruples."""

    rows: tuple[tuple[Fraction, ...], ...]

    @staticmethod
    def of(rows) -> "ProjectiveTransform":
        mat = tuple(tuple(rat(v) for v in row) for row in rows)
        if len(mat) != 4 or any(len(r) != 4 for r in mat):
            raise InvalidInput("transform must be 4x4")
        t = ProjectiveTransform(mat)
        if t.det == 0:
            raise SingularMatrix("projective transform is singular")
        return t

    @property
    def det(self) -> Fraction:
        return det_rational(self.rows)

    @property
    def orientation_class(self) -> int:
        """+1 for orientation-preserving, -1 for mirrors; well defined because
        rescaling the matrix changes the determinant by a fourth power."""
        return sign(self.det)

    def apply(self, curve: RationalSpaceCurve) -> RationalSpaceCurve:
        """The rows applied to the quadruple, on integers: the entries times
        their positive common denominator give the same quadruple times that
        scale, which normalizes to the same curve."""
        entries, _m = _cleared(v for row in self.rows for v in row)
        coords = [p.ints for p in curve.coords]  # the stored coordinates are integers
        return RationalSpaceCurve(
            *(_integer_combination(entries[4 * i : 4 * i + 4], coords) for i in range(4))
        )

    def apply_point(self, point: Sequence) -> tuple:
        return tuple(
            sum((rat(e) * rat(x) for e, x in zip(row, point)), Fraction(0))
            for row in self.rows
        )


class Link:
    """A real algebraic link: components plus optional orientation flags.

    Orientation flag +1 means the component is traversed in the direction of
    increasing parameter, -1 the reverse.
    """

    def __init__(
        self,
        components: Sequence[RationalSpaceCurve],
        orientations: Optional[Sequence[int]] = None,
    ):
        if not components:
            raise InvalidInput("a link needs at least one component")
        self.components = tuple(components)
        if orientations is not None:
            orientations = tuple(int(o) for o in orientations)
            if len(orientations) != len(self.components):
                raise InvalidInput("one orientation flag per component required")
            if any(o not in (-1, 1) for o in orientations):
                raise InvalidInput("orientation flags must be +1 or -1")
        self.orientations = orientations
        self._validation: Optional[LinkValidationReport] = None

    @property
    def n_components(self) -> int:
        return len(self.components)

    def with_orientations(self, orientations: Sequence[int]) -> "Link":
        return Link(self.components, orientations)

    def transformed(self, transform: ProjectiveTransform) -> "Link":
        return Link(
            [transform.apply(c) for c in self.components], self.orientations
        )

    def validation(self) -> "LinkValidationReport":
        """validate_link of this link, memoized: the sampler analyzes one
        link at many centers."""
        if self._validation is None:
            self._validation = validate_link(self)
        return self._validation


# -- validation ---------------------------------------------------------------


def validate(curve: RationalSpaceCurve) -> int:
    """Exact validation of the curve invariants: the first failed check
    raises its ValidationError subclass; a valid curve returns the number of
    its imaginary singular candidates, the distinct complex (e, f) roots of
    its double-point system, none of which is real.

    The checks run in this order: reduced; an immersion at the finite
    parameters, then at parameter infinity; the (e, f) solve does not
    degenerate (birational onto the image); no double point through
    P(infinity); no real (e, f) root, completed or not.
    """
    g = gcd_all(curve.coords)
    if g.degree > 0:
        raise ReducibleParametrization(f"common factor in the coordinate quadruple: {g!r}")
    g = gcd_of_minors(curve.coords, [p.derivative() for p in curve.coords])
    if g is None or g.degree > 0:
        raise CuspDetected(
            f"parametrization is not an immersion: affine cusp parameters: roots of {g!r}"
        )
    # at parameter infinity the velocity direction is the subleading
    # coefficient vector of the homogenization
    if proportional(curve.leading_vector(), curve.subleading_vector()):
        raise CuspDetected("parametrization is not an immersion: cusp at parameter infinity")
    try:
        solution = solve_system(symmetric_double_point_system(list(curve.coords)))
    except DegenerateElimination:
        raise ReducibleParametrization(
            "parametrization traverses its image more than once"
        ) from None
    # a double point with one branch at parameter infinity sits at the real
    # point P(infinity), so any coincidence there is a real singularity
    if hits(curve.coords, curve.leading_vector()):
        raise RealSingularityDetected(
            "space curve has a real double point: "
            "double point through the point at parameter infinity"
        )
    if solution.roots:
        raise RealSingularityDetected(
            "space curve has a real double point: (e, f) solution with f in "
            f"{solution.roots[0].survivor.interval()!r}"
        )
    if solution.undecided is not None:
        raise RealSingularityDetected(
            "space curve may have a real double point: (e, f) eliminant root at f in "
            f"{solution.undecided.interval()!r} could not be completed"
        )
    return solution.distinct_count


@dataclass(frozen=True)
class LinkValidationReport:
    """The first failure validate_link found, or None and the imaginary
    singular candidates of all the components."""

    error: Optional[ValidationError]
    imaginary_singular_candidates: int = 0

    @property
    def valid(self) -> bool:
        return self.error is None

    def raise_for_failure(self) -> None:
        if self.error is not None:
            raise self.error


def validate_link(link: Link) -> LinkValidationReport:
    """Validate each component, then the disjointness of each pair; the
    first failure ends the validation and is the report's error."""
    n = link.n_components
    try:
        candidates = sum(validate(c) for c in link.components)
        for i in range(n):
            for j in range(i + 1, n):
                _check_disjoint(
                    link.components[i], link.components[j], f"components {i} and {j}"
                )
    except ValidationError as error:
        return LinkValidationReport(error)
    return LinkValidationReport(None, candidates)


def _check_disjoint(a: RationalSpaceCurve, b: RationalSpaceCurve, where: str) -> None:
    """Raise ComponentsIntersect, its note prefixed by where, unless the
    complexifications are certifiably disjoint (including the
    parameter-infinity points)."""
    system = [m for m in cross_double_point_system(list(a.coords), list(b.coords)) if not m.is_zero]
    if not system:
        raise ComponentsIntersect(f"{where}: coincidence system vanishes identically")
    if not any(m.is_constant for m in system):
        if len(system) < 2:
            raise ComponentsIntersect(f"{where}: coincidence system is not zero-dimensional")
        g = pairwise_eliminant(system)
        if g is None:
            raise ComponentsIntersect(f"{where}: all coincidence resultants vanish")
        if g.degree > 0:
            raise ComponentsIntersect(f"{where}: nonconstant coincidence eliminant {g!r}")
    # parameter infinity of a against b, and vice versa, and both at infinity
    for lead, other in ((a.leading_vector(), b), (b.leading_vector(), a)):
        if hits(other.coords, lead):
            raise ComponentsIntersect(f"{where}: coincidence at a parameter-infinity point")
    if proportional(a.leading_vector(), b.leading_vector()):
        raise ComponentsIntersect(f"{where}: both parameter-infinity points coincide")


# -- random sampling ------------------------------------------------------------

# coefficient draws sample_random_curve makes before it gives up
_SAMPLE_DRAWS = 400


def sample_random_curve(degree: int, seed: int, coefficient_bound: int = 5) -> RationalSpaceCurve:
    """Deterministic random validated curve of exact degree `degree`."""
    if degree < 1:
        raise InvalidInput("degree must be at least 1")
    rng = random.Random(seed)
    for _ in range(_SAMPLE_DRAWS):
        coords = [
            [rng.randint(-coefficient_bound, coefficient_bound) for _ in range(degree + 1)]
            for _ in range(4)
        ]
        # with some t^degree coefficient nonzero the quadruple is a curve of
        # exact degree `degree`
        if all(c[degree] == 0 for c in coords):
            continue
        curve = RationalSpaceCurve(*coords)
        if curve.W.is_zero:
            continue
        try:
            validate(curve)
        except ValidationError:
            continue
        return curve
    raise SamplingExhausted(
        f"no valid degree-{degree} curve found in {_SAMPLE_DRAWS} draws (seed {seed})"
    )
