"""Projection of a link from a rational center and exact double-point analysis.

The canonical frame: an orientation-preserving projective transform moves
the center to (0 : 0 : 1 : 0), after which projecting is coordinate
deletion, (X : Y : Z : W) -> (X : Y : W), with the fiber direction along z.

Same-component double points are solved in the symmetric coordinates
(e, f) = (s + t, s * t): real solutions with e^2 - 4f > 0 are crossings
(two real preimages), with e^2 - 4f < 0 solitary points (conjugate
imaginary preimages); e^2 - 4f = 0 is a genericity failure. Double points
between distinct components are solved directly in the parameter pair.

Every certificate flag is decided exactly. The certificate may be
conservative: it can reject a workable center, never accept a bad one.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .algnum import AlgebraicNumber, algebraic_value, quotient_boxes
from .bipoly import BiPoly
from .curves import (
    Link,
    MoebiusReparam,
    ProjectiveTransform,
    RationalSpaceCurve,
)
from .elimination import (
    SystemSolution,
    TriangularRoot,
    cross_double_point_system,
    solve_system,
    symmetric_double_point_system,
    symmetric_sum,
)
from .errors import (
    CenterOnCurve,
    CenterOnSingularLine,
    DegenerateElimination,
    InvalidInput,
    NonGenericProjection,
    SamplingExhausted,
    TangentialPair,
    TriplePoint,
    ZeroDeterminant,
)
from .rationals import Interval, rat
from .upoly import UPoly, gcd_of_minors, proportional

CANONICAL_CENTER = (Fraction(0), Fraction(0), Fraction(1), Fraction(0))

# deterministic parameter changes used to move double points away from the
# parameter value t = infinity; all have positive determinant
_INFINITY_MOEBIUS = (
    (0, -1, 1, 0),
    (1, -1, 1, 1),
    (1, 1, 1, 2),
    (2, -1, 1, 1),
    (1, -2, 1, 2),
    (3, 1, 1, 1),
    (1, 1, 2, 3),
    (2, 3, 1, 2),
)


@dataclass(frozen=True)
class ProjectionCenter:
    coords: tuple[Fraction, Fraction, Fraction, Fraction]

    @staticmethod
    def of(*coords) -> "ProjectionCenter":
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        vals = tuple(rat(c) for c in coords)
        if len(vals) != 4 or all(v == 0 for v in vals):
            raise InvalidInput("center must be a nonzero 4-tuple")
        return ProjectionCenter(vals)


def center_on_component(curve: RationalSpaceCurve, center) -> bool:
    """Exact test: does the projective point `center` lie on the curve?"""
    c = [rat(v) for v in center]
    if proportional(curve.leading_vector(), c):
        return True
    g = gcd_of_minors(curve.coords, c)
    # on a validated curve a nonconstant gcd always certifies a hit
    return g is None or g.degree > 0


def normalize_center(link: Link, center) -> tuple[Link, ProjectiveTransform]:
    """Move `center` to (0:0:1:0) by an orientation-preserving transform.

    Returns the transformed link and the transform used. Raises
    CenterOnCurve when the center lies on a component.
    """
    center = center.coords if isinstance(center, ProjectionCenter) else tuple(center)
    c = [rat(v) for v in center]
    for component in link.components:
        if center_on_component(component, c):
            raise CenterOnCurve(f"projection center {center} lies on the link")
    # the frame with columns (e_i, e_j, c, e_k), i < j < k the indices other
    # than the pivot p, takes (0 : 0 : 1 : 0) to c; its inverse, written out,
    # has row 2 = e_p / c_p and rows 0, 1, 3 = e_i - (c_i / c_p) e_p
    p = next(i for i in range(4) if c[i] != 0)
    rows = []
    for i in range(4):
        row = [int(i == j) for j in range(4)]
        row[p] = 1 / c[p] if i == p else -c[i] / c[p]
        rows.append(row)
    rows.insert(2, rows.pop(p))
    if (-1) ** p * c[p] < 0:
        # the determinant is (-1)^p / c_p; swapping the first two rows
        # restores orientation
        rows[0], rows[1] = rows[1], rows[0]
    transform = ProjectiveTransform.of(rows)
    return link.transformed(transform), transform


# -- loci -----------------------------------------------------------------------


class LocusKind(Enum):
    CROSSING = "crossing"
    SOLITARY = "solitary"
    INTER_COMPONENT = "inter-component"


@dataclass
class DoublePointLocus:
    """A classified double point of the projection.

    The triangular root is the only record of the point. Same-component
    loci are roots in the symmetric coordinates (e, f) of the preimage
    parameter pair, inter-component loci in the parameter pair (s on
    component i, t on component j): f or t is the survivor, and e or s is
    `root.eliminated_poly` at the survivor.

    The image point is kept as three polynomials (num_x, num_y, den) in the
    survivor coordinate, x = num_x/den and y = num_y/den at the survivor;
    they are None when the image leaves the affine chart. `image_x` and
    `image_y` are the exact coordinates, formed on first access by a
    resultant; only the exact triple-point fallback (and tests) read them.
    Everything else, the SVG markers included, works on the interval boxes
    of `_image_box`.
    """

    comp_i: int
    comp_j: int
    kind: LocusKind
    root: TriangularRoot
    image_fractions: Optional[tuple[UPoly, UPoly, UPoly]] = None
    raw_sign: Optional[int] = None

    @property
    def is_same_component(self) -> bool:
        return self.kind is not LocusKind.INTER_COMPONENT

    @cached_property
    def image_x(self) -> Optional[AlgebraicNumber]:
        return self._image_coordinate(0)

    @cached_property
    def image_y(self) -> Optional[AlgebraicNumber]:
        return self._image_coordinate(1)

    def _image_coordinate(self, axis: int) -> Optional[AlgebraicNumber]:
        if self.image_fractions is None:
            return None
        den = self.image_fractions[2]
        return algebraic_value(self.root.survivor, self.image_fractions[axis], den)

    def describe(self) -> str:
        eliminated = self.root.eliminated_interval()
        survivor = self.root.survivor.interval()
        if self.is_same_component:
            return (
                f"{self.kind.value} on component {self.comp_i}: "
                f"e in {eliminated!r}, f in {survivor!r}"
            )
        return (
            f"{self.kind.value} between components {self.comp_i} and {self.comp_j}: "
            f"s in {eliminated!r}, t in {survivor!r}"
        )


@dataclass
class GenericityCertificate:
    """Seven exact flags; the projection is usable iff all are true."""

    simple_roots: bool = True
    no_triple_points: bool = True
    no_tangential_pairs: bool = True
    transversal_crossings: bool = True
    no_infinity_parameters: bool = True
    center_off_curve: bool = True
    center_off_singular_lines: bool = True
    notes: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return (
            self.simple_roots
            and self.no_triple_points
            and self.no_tangential_pairs
            and self.transversal_crossings
            and self.no_infinity_parameters
            and self.center_off_curve
            and self.center_off_singular_lines
        )

    def first_failure_error(self) -> Exception:
        if not self.center_off_curve:
            return CenterOnCurve("; ".join(self.notes))
        if not self.center_off_singular_lines:
            return CenterOnSingularLine("; ".join(self.notes))
        if not self.no_tangential_pairs:
            return TangentialPair("; ".join(self.notes))
        if not self.no_triple_points:
            return TriplePoint("; ".join(self.notes))
        if not self.transversal_crossings:
            return ZeroDeterminant("; ".join(self.notes))
        return NonGenericProjection("; ".join(self.notes) or "non-generic projection")


@dataclass
class ProjectionAnalysis:
    """Everything the writhe needs about one projection, exactly computed."""

    link: Link  # normalized, possibly reparametrized componentwise
    transform: ProjectiveTransform
    center: tuple
    certificate: GenericityCertificate
    loci: list[DoublePointLocus]
    component_solutions: list[SystemSolution]

    @property
    def complex_double_point_counts(self) -> list[int]:
        """Complex double points (with multiplicity) per component, from the
        certified eliminant degree."""
        return [s.multiplicity_count for s in self.component_solutions]


def projected_triple(curve: RationalSpaceCurve) -> list[UPoly]:
    """Coordinates of the canonical projection: drop Z."""
    return [curve.X, curve.Y, curve.W]


def _projected_lead(curve: RationalSpaceCurve) -> list[Fraction]:
    lead = curve.leading_vector()
    return [lead[0], lead[1], lead[3]]


def _infinity_involved(curve: RationalSpaceCurve, other: RationalSpaceCurve | None = None) -> bool:
    """Does a double point of the (pair) projection involve parameter infinity?

    Checks whether any finite parameter of `other` (or of `curve` itself)
    maps to the image of curve's point at parameter infinity, or whether the
    two infinity images coincide.
    """
    target = other if other is not None else curve
    g = gcd_of_minors(projected_triple(target), _projected_lead(curve))
    if g is None or g.degree > 0:
        # some finite parameter (possibly complex) maps to the image of the
        # point at parameter infinity
        return True
    if other is not None and proportional(_projected_lead(curve), _projected_lead(other)):
        return True
    return False


def _resolve_infinity(link: Link) -> tuple[Link, list[str]]:
    """Reparametrize components until no double point involves t = infinity."""
    notes: list[str] = []
    components = list(link.components)
    for attempt in range(len(_INFINITY_MOEBIUS) + 1):
        offender = None
        n = len(components)
        for i in range(n):
            if _infinity_involved(components[i]):
                offender = i
                break
            for j in range(n):
                if j != i and _infinity_involved(components[i], components[j]):
                    offender = i
                    break
            if offender is not None:
                break
        if offender is None:
            return Link(components, link.orientations), notes
        if attempt == len(_INFINITY_MOEBIUS):
            break
        a, b, c, d = _INFINITY_MOEBIUS[attempt]
        moebius = MoebiusReparam.of(a, b, c, d)
        components[offender] = components[offender].reparametrized(moebius)
        notes.append(
            f"component {offender} reparametrized by t -> ({a}t+{b})/({c}t+{d})"
        )
    raise NonGenericProjection(
        "could not move double points away from parameter infinity"
    )


def _expected_count(degree: int) -> int:
    return (degree - 1) * (degree - 2) // 2


def analyze_projection(link: Link, center) -> ProjectionAnalysis:
    """Normalize, solve all double-point systems, classify, and certify."""
    report = link.validation()
    report.raise_for_failure()
    certificate = GenericityCertificate()

    nlink, transform = normalize_center(link, center)
    nlink, infinity_notes = _resolve_infinity(nlink)
    certificate.notes.extend(infinity_notes)

    loci: list[DoublePointLocus] = []
    component_solutions: list[SystemSolution] = []

    for idx, component in enumerate(nlink.components):
        triple = projected_triple(component)
        system = symmetric_double_point_system(triple)
        expected = _expected_count(component.degree)
        solution = solve_system(system, strict=True)
        component_solutions.append(solution)
        if solution.multiplicity_count != expected or not solution.is_simple:
            certificate.simple_roots = False
            certificate.notes.append(
                f"component {idx}: eliminant degree {solution.multiplicity_count} "
                f"(expected {expected}, square-free: {solution.is_simple})"
            )
        for root in solution.roots:
            locus = _classify_same_component(idx, component, root, certificate)
            loci.append(locus)

    n = nlink.n_components
    for i in range(n):
        for j in range(i + 1, n):
            pair_loci = _solve_inter_component(
                i, j, nlink.components[i], nlink.components[j], certificate
            )
            loci.extend(pair_loci)

    _fill_images(nlink, loci, certificate)
    _check_triple_points(loci, certificate)
    _check_transversality(nlink, loci, certificate)
    _singular_line_flag(link, loci, certificate)

    loci.sort(key=_locus_sort_key)
    center_tuple = (
        center.coords
        if isinstance(center, ProjectionCenter)
        else tuple(rat(v) for v in center)
    )
    return ProjectionAnalysis(
        link=nlink,
        transform=transform,
        center=center_tuple,
        certificate=certificate,
        loci=loci,
        component_solutions=component_solutions,
    )


def _classify_same_component(
    idx: int,
    component: RationalSpaceCurve,
    root: TriangularRoot,
    certificate: GenericityCertificate,
) -> DoublePointLocus:
    f0 = root.survivor
    e_poly = root.eliminated_poly
    disc = e_poly * e_poly - UPoly((0, 4))  # e^2 - 4f as a polynomial in f
    disc_sign = f0.sign_of_poly(disc)
    if disc_sign == 0:
        certificate.no_tangential_pairs = False
        certificate.notes.append(
            f"component {idx}: tangential pair (e^2 = 4f) at f in {f0.interval()!r}"
        )
        kind = LocusKind.CROSSING  # placeholder; certificate already failed
    else:
        kind = LocusKind.CROSSING if disc_sign > 0 else LocusKind.SOLITARY
    return DoublePointLocus(comp_i=idx, comp_j=idx, kind=kind, root=root)


def _solve_inter_component(
    i: int,
    j: int,
    comp_i: RationalSpaceCurve,
    comp_j: RationalSpaceCurve,
    certificate: GenericityCertificate,
) -> list[DoublePointLocus]:
    system = cross_double_point_system(projected_triple(comp_i), projected_triple(comp_j))
    solution = solve_system(system, strict=True)
    expected = comp_i.degree * comp_j.degree
    if solution.multiplicity_count != expected or not solution.is_simple:
        certificate.simple_roots = False
        certificate.notes.append(
            f"components {i},{j}: pair eliminant degree {solution.multiplicity_count} "
            f"(expected {expected}, square-free: {solution.is_simple})"
        )
    return [
        DoublePointLocus(comp_i=i, comp_j=j, kind=LocusKind.INTER_COMPONENT, root=root)
        for root in solution.roots
    ]


def _image_polys(
    component: RationalSpaceCurve, same_component: bool
) -> tuple[BiPoly, BiPoly, BiPoly]:
    """(num_x, num_y, den) of the image point in the root's two coordinates.

    Same component: the image is (X(s)W(t) + X(t)W(s)) / (2 W(s)W(t)) in x
    and likewise in y, symmetric in (s, t) and so written in (e, f).
    Inter-component: X/W and Y/W of the first curve at s.
    """
    X, Y, W = component.X, component.Y, component.W
    if not same_component:
        return tuple(BiPoly.from_upoly(p, 0) for p in (X, Y, W))
    return symmetric_sum([(X, W)]), symmetric_sum([(Y, W)]), symmetric_sum([(W, W)])


def _fill_images(
    link: Link, loci: list[DoublePointLocus], certificate: GenericityCertificate
) -> None:
    image_polys: dict[tuple[int, bool], tuple[BiPoly, BiPoly, BiPoly]] = {}
    for locus in loci:
        key = (locus.comp_i, locus.is_same_component)
        if key not in image_polys:
            image_polys[key] = _image_polys(link.components[locus.comp_i], key[1])
        fractions = tuple(locus.root.substitute(p) for p in image_polys[key])
        if locus.root.survivor.sign_of_poly(fractions[2]) == 0:
            certificate.transversal_crossings = False
            certificate.notes.append(
                f"{locus.describe()}: image lies outside the affine chart"
            )
            continue
        locus.image_fractions = fractions


# refinement rounds of the two survivors before two image boxes that still
# overlap are compared exactly
_BOX_ROUNDS = 40


def _image_box(locus: DoublePointLocus) -> Optional[tuple[Interval, Interval]]:
    """Rational boxes around the image point, num/den evaluated on the
    survivor's current interval; None while den's box contains zero."""
    num_x, num_y, den = locus.image_fractions
    return quotient_boxes((num_x, num_y), den, locus.root.survivor.interval())


def _images_coincide(a: DoublePointLocus, b: DoublePointLocus) -> bool:
    """Exact decision whether two loci share an image point."""
    fa, fb = a.root.survivor, b.root.survivor
    for _ in range(_BOX_ROUNDS):
        box_a, box_b = _image_box(a), _image_box(b)
        if box_a is not None and box_b is not None:
            if box_a[0].disjoint(box_b[0]) or box_a[1].disjoint(box_b[1]):
                return False
        fa.refine()
        fb.refine()
    return a.image_x.equals(b.image_x) and a.image_y.equals(b.image_y)


def _check_triple_points(
    loci: list[DoublePointLocus], certificate: GenericityCertificate
) -> None:
    """Flag two loci with the same image point.

    Each pair is told apart by interval boxes first: num/den of both images
    evaluated on the survivors' current intervals; the images are apart when
    their x boxes or their y boxes are disjoint. Otherwise both survivors are
    refined and the boxes tried again, for at most _BOX_ROUNDS rounds, after
    which the image coordinates are formed exactly and compared with
    AlgebraicNumber.equals.
    """
    usable = [l for l in loci if l.image_fractions is not None]
    for a_idx in range(len(usable)):
        for b_idx in range(a_idx + 1, len(usable)):
            a, b = usable[a_idx], usable[b_idx]
            if _images_coincide(a, b):
                certificate.no_triple_points = False
                certificate.notes.append(
                    f"coincident images: [{a.describe()}] and [{b.describe()}]"
                )


def _check_transversality(
    link: Link, loci: list[DoublePointLocus], certificate: GenericityCertificate
) -> None:
    # local imports: the writhe module owns the pinned frame conventions
    from .writhe import (
        crossing_sign_polys,
        crossing_sign_raw,
        solitary_sign_polys,
        solitary_sign_raw,
    )

    # sign polynomials depend only on the component (or pair): build each once
    sign_polys: dict[tuple, tuple[BiPoly, BiPoly]] = {}
    for locus in loci:
        curve = link.components[locus.comp_i]
        other = None if locus.is_same_component else link.components[locus.comp_j]
        key = (locus.kind, locus.comp_i, locus.comp_j)
        solitary = locus.kind is LocusKind.SOLITARY
        if key not in sign_polys:
            sign_polys[key] = (
                solitary_sign_polys(curve) if solitary else crossing_sign_polys(curve, other)
            )
        try:
            if solitary:
                locus.raw_sign = solitary_sign_raw(curve, locus.root, polys=sign_polys[key])
            else:
                locus.raw_sign = crossing_sign_raw(
                    curve, locus.root, other=other, polys=sign_polys[key]
                )
        except ZeroDeterminant as exc:
            certificate.transversal_crossings = False
            certificate.notes.append(f"{locus.describe()}: {exc}")


def _singular_line_flag(
    link: Link, loci: list[DoublePointLocus], certificate: GenericityCertificate
) -> None:
    """Exclusion of centers on real lines through conjugate imaginary singular
    points: with imaginary space singularities present, a bad center makes two
    solitary loci share an image, which the triple-point scan has already
    looked for. Without them the flag holds vacuously."""
    candidates = sum(
        r.imaginary_singular_candidates for r in link.validation().component_reports
    )
    if candidates == 0:
        certificate.center_off_singular_lines = True
        return
    certificate.center_off_singular_lines = certificate.no_triple_points
    if not certificate.no_triple_points:
        certificate.notes.append(
            "imaginary space singularities present and solitary images collide"
        )


def _locus_sort_key(locus: DoublePointLocus):
    # survivor intervals of one eliminant are disjoint, so they decide the order
    survivor = locus.root.survivor
    return (locus.comp_i, locus.comp_j, locus.kind.value, survivor.lo, survivor.hi)


def double_point_system(curve: RationalSpaceCurve) -> SystemSolution:
    """Solve the same-parametrization double-point system of the canonical
    projection of a single curve (already in the normalized frame)."""
    system = symmetric_double_point_system(projected_triple(curve))
    return solve_system(system, strict=True)


def classify_double_points(link: Link, center) -> list[DoublePointLocus]:
    """All classified double points of the projection from `center`."""
    return analyze_projection(link, center).loci


def genericity_check(link: Link, center) -> GenericityCertificate:
    """Run the full analysis and return the certificate (never raises for
    flag failures, only for broken preconditions)."""
    try:
        return analyze_projection(link, center).certificate
    except (CenterOnCurve,) as exc:
        cert = GenericityCertificate()
        cert.center_off_curve = False
        cert.notes.append(str(exc))
        return cert
    except NonGenericProjection as exc:
        cert = GenericityCertificate()
        cert.no_infinity_parameters = False
        cert.notes.append(str(exc))
        return cert
    except DegenerateElimination as exc:
        cert = GenericityCertificate()
        cert.simple_roots = False
        cert.notes.append(str(exc))
        return cert


def _rejection_label(error: type) -> str:
    """'TriplePoint' -> 'triple-point'."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", error.__name__).lower()


def sample_generic_center(link: Link, seed: int = 0, budget: int = 240) -> ProjectionAnalysis:
    """The analysis of the first drawn rational center that passes the full
    certificate; its `.center` is that center.

    The draws are a deterministic function of the seed and the number of
    components. The accepted analysis is returned as it is, so a caller
    never analyses the same center twice. After `budget` rejected draws,
    SamplingExhausted names how many draws each failure rejected: the error
    class a draw raised, or the one its first failing flag maps to.
    """
    rng = random.Random(f"center-{seed}-{link.n_components}")
    bound = 3
    tries_at_bound = 0
    rejected: Counter[str] = Counter()
    for _ in range(budget):
        coords = tuple(rng.randint(-bound, bound) for _ in range(4))
        tries_at_bound += 1
        if tries_at_bound >= 40:
            bound *= 2
            tries_at_bound = 0
        if all(v == 0 for v in coords):
            rejected["zero-vector"] += 1
            continue
        center = ProjectionCenter.of(coords)
        try:
            analysis = analyze_projection(link, center)
        except (NonGenericProjection, DegenerateElimination, CenterOnCurve) as exc:
            rejected[_rejection_label(type(exc))] += 1
            continue
        if analysis.certificate.all_ok:
            return analysis
        rejected[_rejection_label(type(analysis.certificate.first_failure_error()))] += 1
    counts = ", ".join(f"{n} {label}" for label, n in rejected.most_common())
    raise SamplingExhausted(
        f"no generic center found (seed {seed}); {budget} draws: {counts}"
    )
