"""Projection of a link from a rational center and exact double-point analysis.

The canonical frame: an orientation-preserving projective transform moves
the center to (0 : 0 : 1 : 0), after which projecting is coordinate
deletion, (X : Y : Z : W) -> (X : Y : W), with the fiber direction along z.

Same-component double points are solved in the symmetric coordinates
(e, f) = (s + t, s * t): real solutions with e^2 - 4f > 0 are crossings
(two real preimages), with e^2 - 4f < 0 solitary points (conjugate
imaginary preimages); e^2 - 4f = 0 is a genericity failure. Double points
between distinct components are solved directly in the parameter pair.

Every genericity condition is decided exactly. The checks may be
conservative: they can reject a workable center, never accept a bad one.
A center either yields a certified diagram or raises the ProjectionError
subclass of its gravest failure (_FAILURE_PRIORITY).
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .algnum import AlgebraicNumber, algebraic_value, quotient_boxes
from .curves import (
    Link,
    MoebiusReparam,
    ProjectiveTransform,
    RationalSpaceCurve,
)
from .elimination import TriangularRoot, solve_system
from .errors import (
    CenterOnCurve,
    CenterOnSingularLine,
    DegenerateElimination,
    InvalidInput,
    NonGenericProjection,
    ProjectionError,
    SamplingExhausted,
    TangentialPair,
    TriplePoint,
    ZeroDeterminant,
)
from .rationals import Interval, rat, rat_str
from .upoly import UPoly, hits, proportional

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

# the error raised for a failed center when several conditions fail, gravest first
_FAILURE_PRIORITY = (
    CenterOnSingularLine,
    TangentialPair,
    TriplePoint,
    ZeroDeterminant,
    NonGenericProjection,
)


def rational_center(center) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The projective point `center` as four Fractions, not all zero; any
    other argument raises InvalidInput."""
    vals = tuple(rat(c) for c in center)
    if len(vals) != 4 or all(v == 0 for v in vals):
        raise InvalidInput("center must be a nonzero 4-tuple")
    return vals


def center_on_component(curve: RationalSpaceCurve, center) -> bool:
    """Exact test: does the projective point `center` lie on the curve?"""
    c = [rat(v) for v in center]
    return proportional(curve.leading_vector(), c) or hits(curve.coords, c)


def normalize_center(link: Link, center) -> tuple[Link, ProjectiveTransform]:
    """Move `center` to (0:0:1:0) by an orientation-preserving transform.

    Returns the transformed link and the transform used. Raises
    CenterOnCurve when the center lies on a component.
    """
    c = rational_center(center)
    for component in link.components:
        if center_on_component(component, c):
            raise CenterOnCurve(
                f"projection center ({', '.join(map(rat_str, c))}) lies on the link"
            )
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

    `polys` is the writhe.LocusPolys record of the component or pair, shared
    by all its loci: every sign taken at the locus (tangency, image
    denominator, crossing or solitary sign, over/under) is
    `root.sign_of(polys.<name>)`.

    The image point is kept as three polynomials (num_x, num_y, den) in the
    survivor coordinate, `polys.image` reduced at the root: x = num_x/den
    and y = num_y/den at the survivor; they are None when the image leaves
    the affine chart. `image_x` and `image_y` are the exact coordinates,
    formed on first access by a resultant; only the exact triple-point
    fallback (and tests) read them. Everything else, the SVG markers
    included, works on the interval boxes of `_image_box`.
    """

    comp_i: int
    comp_j: int
    kind: LocusKind
    root: TriangularRoot
    polys: "LocusPolys"
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
class ProjectionAnalysis:
    """A certified diagram: every double point of one generic projection,
    classified and signed, all exactly computed."""

    link: Link  # normalized, possibly reparametrized componentwise
    center: tuple[Fraction, Fraction, Fraction, Fraction]
    loci: list[DoublePointLocus]
    # complex double points (with multiplicity) per component, from the
    # certified eliminant degree
    complex_double_point_counts: list[int]


def projected_triple(curve: RationalSpaceCurve) -> list[UPoly]:
    """Coordinates of the canonical projection: drop Z."""
    return [curve.X, curve.Y, curve.W]


def _projected_lead(curve: RationalSpaceCurve) -> list[Fraction]:
    lead = curve.leading_vector()
    return [lead[0], lead[1], lead[3]]


def _infinity_involved(curve: RationalSpaceCurve, others: list[RationalSpaceCurve]) -> bool:
    """Does a double point of the projection involve curve's parameter
    infinity: does a finite (possibly complex) parameter of curve or of the
    others, or another's parameter infinity, map to its image?"""
    lead = _projected_lead(curve)
    return hits(projected_triple(curve), lead) or any(
        hits(projected_triple(other), lead) or proportional(lead, _projected_lead(other))
        for other in others
    )


def _resolve_infinity(link: Link) -> tuple[Link, list[str]]:
    """Reparametrize components until no double point involves t = infinity."""
    notes: list[str] = []
    components = list(link.components)
    for attempt in range(len(_INFINITY_MOEBIUS) + 1):
        offender = next(
            (
                i
                for i, curve in enumerate(components)
                if _infinity_involved(curve, components[:i] + components[i + 1 :])
            ),
            None,
        )
        if offender is None:
            return Link(components, link.orientations), notes
        if attempt == len(_INFINITY_MOEBIUS):
            break
        a, b, c, d = _INFINITY_MOEBIUS[attempt]
        moebius = MoebiusReparam.of(a, b, c, d)
        components[offender] = moebius.apply(components[offender])
        notes.append(
            f"component {offender} reparametrized by t -> ({a}t+{b})/({c}t+{d})"
        )
    raise NonGenericProjection(
        "could not move double points away from parameter infinity"
    )


def analyze_projection(link: Link, center) -> ProjectionAnalysis:
    """Normalize, solve all double-point systems, classify, sign and certify.

    Every check runs and notes each failure. If any failed, the error class
    of the gravest (_FAILURE_PRIORITY) is raised with all notes, those of
    the reparametrizations away from infinity first, joined by "; ".
    A center on the link, double points stuck at parameter infinity and a
    degenerate elimination, named by its component or pair and the center,
    raise at once.
    """
    # the one local import of writhe, which owns the polynomials a locus is
    # read through and the pinned sign conventions
    from .writhe import LocusPolys, crossing_sign_raw, solitary_sign_raw

    center = rational_center(center)
    link.validation().raise_for_failure()
    nlink, _transform = normalize_center(link, center)
    nlink, notes = _resolve_infinity(nlink)
    failed: list[type] = []

    def fail(error: type, note: str) -> None:
        failed.append(error)
        notes.append(note)

    loci: list[DoublePointLocus] = []
    counts: list[int] = []

    # each component, then each pair: the order of the loci before sorting is
    # the order in which the triple-point scan refines them
    n = nlink.n_components
    keys = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in keys:
        same = i == j
        where = f"component {i}" if same else f"components {i},{j}"
        polys = LocusPolys(nlink.components[i], None if same else nlink.components[j])
        try:
            solution = solve_system(polys.system)
        except DegenerateElimination as exc:
            at = ", ".join(map(rat_str, center))
            note = f"projection from ({at}) degenerates on {where}: {exc}"
            raise DegenerateElimination(note) from None
        if solution.undecided is not None:
            raise DegenerateElimination("real eliminant root could not be completed and verified")
        expected = polys.expected_count
        if solution.multiplicity_count != expected or not solution.is_simple:
            fail(
                NonGenericProjection,
                f"{where}: {'' if same else 'pair '}eliminant degree {solution.multiplicity_count} "
                f"(expected {expected}, square-free: {solution.is_simple})",
            )
        if not same:
            loci.extend(
                DoublePointLocus(i, j, LocusKind.INTER_COMPONENT, root, polys)
                for root in solution.roots
            )
            continue
        counts.append(solution.multiplicity_count)
        for root in solution.roots:
            tangency = root.sign_of(polys.tangency)
            if tangency == 0:
                fail(
                    TangentialPair,
                    f"component {i}: tangential pair (e^2 = 4f) at f in "
                    f"{root.survivor.interval()!r}",
                )
            # a tangential pair is placed as a crossing; the center has failed
            kind = LocusKind.SOLITARY if tangency < 0 else LocusKind.CROSSING
            loci.append(DoublePointLocus(i, i, kind, root, polys))

    for note in _fill_images(loci):
        fail(ZeroDeterminant, note)
    coincident = _check_triple_points(loci)
    for note in coincident:
        fail(TriplePoint, note)
    for locus in loci:
        if locus.image_fractions is None:
            # _fill_images has failed the center here: the image denominator
            # vanishes (2W(s)W(t) on one component, W_i(s) on a pair), and so
            # does the sign's chart product, which it divides
            continue
        sign_raw = solitary_sign_raw if locus.kind is LocusKind.SOLITARY else crossing_sign_raw
        try:
            locus.raw_sign = sign_raw(locus.root, locus.polys)
        except ZeroDeterminant as exc:
            fail(ZeroDeterminant, f"{locus.describe()}: {exc}")
    # a center on a real line through conjugate imaginary singular points
    # makes two solitary loci share an image, which the triple-point scan
    # has already looked for
    if coincident and link.validation().imaginary_singular_candidates:
        fail(
            CenterOnSingularLine,
            "imaginary space singularities present and solitary images collide",
        )
    if failed:
        raise next(e for e in _FAILURE_PRIORITY if e in failed)("; ".join(notes))

    loci.sort(key=_locus_sort_key)
    return ProjectionAnalysis(nlink, center, loci, counts)


def _fill_images(loci: list[DoublePointLocus]) -> list[str]:
    """Set each locus's image polynomials; a note for each image outside the
    affine chart."""
    notes = []
    for locus in loci:
        num_x, num_y, den = locus.polys.image
        if locus.root.sign_of(den) == 0:
            notes.append(f"{locus.describe()}: image lies outside the affine chart")
            continue
        locus.image_fractions = tuple(locus.root.substitute(p) for p in (num_x, num_y, den))
    return notes


# refinement rounds of the two survivors before two image boxes that still
# overlap are compared exactly
_BOX_ROUNDS = 40


def _image_box(locus: DoublePointLocus) -> Optional[tuple[Interval, Interval]]:
    """Rational boxes around the image point, num/den evaluated on the
    survivor's current interval; None while den's box contains zero."""
    num_x, num_y, den = locus.image_fractions
    return quotient_boxes((num_x, num_y), den, locus.root.survivor.interval())


def _images_coincide(a: DoublePointLocus, b: DoublePointLocus, box) -> bool:
    """Exact decision whether two loci share an image point; box(locus) is
    the locus's image box on its survivor's current interval."""
    fa, fb = a.root.survivor, b.root.survivor
    for _ in range(_BOX_ROUNDS):
        box_a, box_b = box(a), box(b)
        if box_a is not None and box_b is not None:
            if box_a[0].disjoint(box_b[0]) or box_a[1].disjoint(box_b[1]):
                return False
        fa.refine()
        fb.refine()
    return a.image_x.equals(b.image_x) and a.image_y.equals(b.image_y)


def _check_triple_points(loci: list[DoublePointLocus]) -> list[str]:
    """A note for every two loci with the same image point.

    Each pair is told apart by interval boxes first: num/den of both images
    evaluated on the survivors' current intervals; the images are apart when
    their x boxes or their y boxes are disjoint. Otherwise both survivors are
    refined and the boxes tried again, for at most _BOX_ROUNDS rounds, after
    which the image coordinates are formed exactly and compared with
    AlgebraicNumber.equals. A locus's box is computed once per survivor
    interval and kept for the pairs that follow, until a refinement moves
    that interval.
    """
    usable = [l for l in loci if l.image_fractions is not None]
    # id of a usable locus -> (its survivor's interval, the image box on it)
    kept: dict[int, tuple] = {}

    def box(locus: DoublePointLocus) -> Optional[tuple[Interval, Interval]]:
        survivor = locus.root.survivor
        interval = (survivor.lo, survivor.hi)
        entry = kept.get(id(locus))
        if entry is None or entry[0] != interval:
            entry = kept[id(locus)] = (interval, _image_box(locus))
        return entry[1]

    notes = []
    for a_idx in range(len(usable)):
        for b_idx in range(a_idx + 1, len(usable)):
            a, b = usable[a_idx], usable[b_idx]
            if _images_coincide(a, b, box):
                notes.append(f"coincident images: [{a.describe()}] and [{b.describe()}]")
    return notes


def _locus_sort_key(locus: DoublePointLocus):
    # survivor intervals of one eliminant are disjoint, so they decide the order
    survivor = locus.root.survivor
    return (locus.comp_i, locus.comp_j, locus.kind.value, survivor.lo, survivor.hi)


def _rejection_label(error: type) -> str:
    """'TriplePoint' -> 'triple-point'."""
    return re.sub(r"(?<!^)(?=[A-Z])", "-", error.__name__).lower()


def sample_generic_center(link: Link, seed: int = 0, budget: int = 240) -> ProjectionAnalysis:
    """The analysis of the first drawn rational center that passes every
    genericity check; its `.center` is that center.

    The draws are a deterministic function of the seed and the number of
    components. The accepted analysis is returned as it is, so a caller
    never analyses the same center twice. After `budget` rejected draws,
    SamplingExhausted names how many draws each error class rejected.
    """
    rng = random.Random(f"center-{seed}-{link.n_components}")
    bound = 3
    tries_at_bound = 0
    rejected: Counter[str] = Counter()
    for _ in range(budget):
        center = tuple(rng.randint(-bound, bound) for _ in range(4))
        tries_at_bound += 1
        if tries_at_bound >= 40:
            bound *= 2
            tries_at_bound = 0
        if all(v == 0 for v in center):
            rejected["zero-vector"] += 1
            continue
        try:
            return analyze_projection(link, center)
        except ProjectionError as exc:
            rejected[_rejection_label(type(exc))] += 1
    counts = ", ".join(f"{n} {label}" for label, n in rejected.most_common())
    raise SamplingExhausted(
        f"no generic center found (seed {seed}); {budget} draws: {counts}"
    )
