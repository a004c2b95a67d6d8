"""Projection analysis: double-point systems, classification, genericity."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from encwrithe import projection
from encwrithe.algnum import AlgebraicNumber, algebraic_value
from encwrithe.curves import Link, RationalSpaceCurve, sample_random_curve, validate
from encwrithe.data import linked_circles, model_curve, model_link
from encwrithe.fileio import parse_curve_file
from encwrithe.errors import (
    CenterOnCurve,
    CenterOnSingularLine,
    DegenerateElimination,
    InvalidInput,
    SamplingExhausted,
    TangentialPair,
    TriplePoint,
)
from encwrithe.upoly import UPoly
from encwrithe.writhe import build_diagram, writhe_unoriented
from encwrithe.projection import (
    CANONICAL_CENTER,
    LocusKind,
    analyze_projection,
    normalize_center,
    sample_generic_center,
)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "corpus"


def trisecant_quartic() -> Link:
    """A quartic whose points at t = 1, 2, -3 lie on the z-axis, the fiber
    of the canonical center: X = (t - 1)(t - 2)(t + 3), Y = t X, Z = t,
    W = 1 + t^2. All three double points of its canonical projection, with
    f = 2, -3, -6, have the image (0, 0)."""
    x = [6, -7, 0, 1]
    y = [0, 6, -7, 0, 1]
    return Link([RationalSpaceCurve(x, y, [0, 1], [1, 0, 1])])


def irrational_trisecant_quartic() -> Link:
    """As trisecant_quartic, with the three points at t = sqrt 2, -sqrt 2, 3:
    X = (t^2 - 2)(t - 3). The double points have f = -2, 3 sqrt 2 and
    -3 sqrt 2, so two of the three coincident pairs have an irrational
    survivor and one has two."""
    x = [6, -2, -3, 1]
    y = [0, 6, -2, -3, 1]
    return Link([RationalSpaceCurve(x, y, [0, 1], [1, 0, 1])])


def scanned_loci(monkeypatch, link) -> list:
    """The loci of an analysis at the canonical center that raises
    TriplePoint, as the triple-point scan saw them."""
    seen = []
    real = projection._check_triple_points

    def spy(loci):
        seen.append(loci)
        return real(loci)

    monkeypatch.setattr(projection, "_check_triple_points", spy)
    with pytest.raises(TriplePoint):
        analyze_projection(link, CANONICAL_CENTER)
    return seen[0]


def exact_pair(locus) -> tuple[Fraction, Fraction]:
    """(e, f) of a locus whose root is rational, read through the root."""
    f = locus.root.survivor
    assert f.is_exact
    return locus.root.eliminated_poly(f.lo), f.lo


class TestModelSystem:
    def test_crossing_locus(self):
        analysis = analyze_projection(model_link(-1), CANONICAL_CENTER)
        assert len(analysis.loci) == 1
        locus = analysis.loci[0]
        assert locus.kind is LocusKind.CROSSING
        assert exact_pair(locus) == (0, -1)

    def test_solitary_locus(self):
        analysis = analyze_projection(model_link(1), CANONICAL_CENTER)
        assert len(analysis.loci) == 1
        locus = analysis.loci[0]
        assert locus.kind is LocusKind.SOLITARY
        assert exact_pair(locus) == (0, 1)

    def test_conic_empty(self):
        circle = RationalSpaceCurve([1, 0, -1], [0, 2], [0], [1, 0, 1])
        analysis = analyze_projection(Link([circle]), CANONICAL_CENTER)
        assert analysis.loci == []
        assert analysis.complex_double_point_counts == [0]

    def test_model_certificate_all_true(self):
        # an analysis that returns is certified: every locus is signed
        analysis = analyze_projection(model_link(-1), CANONICAL_CENTER)
        assert [l.raw_sign for l in analysis.loci] == [-1]
        assert analysis.center == CANONICAL_CENTER


class TestComplexCounts:
    @pytest.mark.parametrize(
        "degree,expected", [(3, 1), (4, 3), (5, 6), (7, 15), (8, 21)]
    )
    def test_count_with_multiplicity(self, degree, expected):
        curve = sample_random_curve(degree, seed=11)
        link = Link([curve])
        analysis = sample_generic_center(link, seed=2)
        assert analysis.complex_double_point_counts == [expected]

    def test_real_loci_partition(self):
        curve = sample_random_curve(4, seed=5)
        link = Link([curve])
        analysis = sample_generic_center(link, seed=1)
        for locus in analysis.loci:
            assert locus.kind in (LocusKind.CROSSING, LocusKind.SOLITARY)


class TestGenericityFailures:
    def test_tangent_line_center_fails_tangential_flag(self):
        # center on the tangent line at t = 1/2 projects along the tangent,
        # producing an image cusp: e^2 - 4f = 0 at the diagonal solution
        curve = model_curve(-1)
        t0 = Fraction(1, 2)
        point = curve.evaluate(t0)
        velocity = tuple(p.derivative()(t0) for p in curve.coords)
        center = tuple(p + v for p, v in zip(point, velocity))
        with pytest.raises(TangentialPair, match="tangential pair"):
            analyze_projection(Link([curve]), center)

    def test_chord_center_is_still_generic(self):
        # the chord through P(-1), P(1) of the model curve is the z-axis: any
        # center on it identifies the same pair the standard projection does,
        # and the projection stays perfectly generic
        assert len(analyze_projection(model_link(-1), (0, 0, 1, 2)).loci) == 1

    def test_doubly_covered_image_degenerates(self):
        # circle in the y = 0 plane projects 2:1 onto a segment along z
        circle = RationalSpaceCurve([2], [0], [0, 2], [1, 0, 1])
        with pytest.raises(DegenerateElimination):
            analyze_projection(Link([circle]), CANONICAL_CENTER)

    def test_trisecant_through_center_is_a_triple_point(self):
        # coincident images cannot be told apart by boxes: each pair takes the
        # exact comparison after the box rounds
        link = trisecant_quartic()
        assert link.validation().valid
        with pytest.raises(TriplePoint) as info:
            build_diagram(link, CANONICAL_CENTER)
        # coincident images are the only failure
        notes = str(info.value).split("; ")
        assert len(notes) == 3
        assert all(note.startswith("coincident images: ") for note in notes)

    def test_irrational_trisecant_reaches_the_exact_fallback(self, monkeypatch):
        link = irrational_trisecant_quartic()
        assert link.validation().valid
        compared = []
        real_equals = AlgebraicNumber.equals

        def counted(a, b):
            compared.append((a, b))
            return real_equals(a, b)

        monkeypatch.setattr(AlgebraicNumber, "equals", counted)
        loci = scanned_loci(monkeypatch, link)
        assert sorted(l.root.survivor.is_exact for l in loci) == [False, False, True]
        # every pair overlapped through all box rounds and was decided by
        # equals on the exact x and then the exact y coordinates
        assert len(compared) == 6
        with pytest.raises(TriplePoint) as info:
            build_diagram(link, CANONICAL_CENTER)
        assert str(info.value).count("coincident images") == 3

    def test_images_stay_exact_and_readable(self, monkeypatch):
        loci = scanned_loci(monkeypatch, trisecant_quartic())
        assert len(loci) == 3
        for locus in loci:
            assert locus.image_x.equals(AlgebraicNumber.from_rational(0))
            assert locus.image_y.equals(AlgebraicNumber.from_rational(0))

    def test_model_zero_standard_projection_cusped(self):
        # the cusp fails the tangency and the transversality checks; the
        # tangential pair is the graver failure, and both notes are kept
        with pytest.raises(TangentialPair) as info:
            analyze_projection(model_link(0), CANONICAL_CENTER)
        assert str(info.value) == (
            "component 0: tangential pair (e^2 = 4f) at f in [0, 0]; "
            "crossing on component 0: e in [0, 0], f in [0, 0]: "
            "crossing frame is degenerate (non-transversal branches)"
        )


class TestNormalizeCenter:
    def test_canonical_center_gives_identity(self):
        link = model_link(-1)
        nlink, transform = normalize_center(link, CANONICAL_CENTER)
        assert transform.det == 1
        assert nlink.components[0] == link.components[0]

    def test_transform_moves_center_and_preserves_orientation(self):
        link = model_link(-1)
        center = (1, -2, 3, 5)
        _nlink, transform = normalize_center(link, center)
        image = transform.apply_point(center)
        assert image[0] == 0 and image[1] == 0 and image[3] == 0
        assert image[2] != 0
        assert transform.det > 0

    def test_center_on_curve_rejected(self):
        curve = model_curve(-1)
        with pytest.raises(CenterOnCurve):
            normalize_center(Link([curve]), curve.evaluate(2))

    def test_center_on_curve_message_prints_rationals(self):
        with pytest.raises(CenterOnCurve) as info:
            analyze_projection(model_link(-1), (0, Fraction(2, 4), 0, 0))
        assert str(info.value) == "projection center (0, 1/2, 0, 0) lies on the link"

    @pytest.mark.parametrize("entry", [analyze_projection, normalize_center])
    @pytest.mark.parametrize("center", [(0, 0, 0, 0), (0, 0, 1), (0, 0, 1, 0, 0)])
    def test_bad_center_is_invalid_input(self, entry, center):
        with pytest.raises(InvalidInput, match="nonzero 4-tuple"):
            entry(model_link(-1), center)

    def test_writhe_agrees_after_normalizing_noncanonical_center(self):
        # downstream check that normalization itself does not move the answer
        from encwrithe.writhe import build_diagram, writhe_unoriented

        link = model_link(-1)
        with pytest.raises(CenterOnCurve):
            build_diagram(link, (0, 0, 1, 1))
        assert writhe_unoriented(build_diagram(link, (1, 1, 5, 2))) == -1


class TestInterComponent:
    def test_linked_circles_loci(self):
        link = linked_circles()
        analysis = sample_generic_center(link, seed=3)
        inter = [l for l in analysis.loci if l.kind is LocusKind.INTER_COMPONENT]
        assert inter, "linked circles must cross in any generic projection"
        for locus in inter:
            # t is the root's survivor, a real algebraic number; s formed from
            # it exactly lies in the interval the locus prints for s
            t = locus.root.survivor
            assert isinstance(t, AlgebraicNumber)
            s = algebraic_value(t, locus.root.eliminated_poly, UPoly.const(1))
            assert not s.interval().disjoint(locus.root.eliminated_interval())

    def test_pair_count_bezout(self):
        link = linked_circles()
        analysis = sample_generic_center(link, seed=3)
        # conic images meet in exactly 2*2 complex points
        # (the pair eliminant degree is certified during analysis; recompute)
        from encwrithe.elimination import cross_double_point_system, solve_system
        from encwrithe.projection import projected_triple

        nlink = analysis.link
        system = cross_double_point_system(
            projected_triple(nlink.components[0]),
            projected_triple(nlink.components[1]),
        )
        solution = solve_system(system)
        assert solution.multiplicity_count == 4


# the interval a locus prints for its eliminated coordinate, e or s
_ELIMINATED = re.compile(r"\b[es] in \[(\S+), (\S+)\]")


class TestRootIsTheOnlyRecord:
    @pytest.mark.parametrize(
        "name,center", [("quintic", (3, -1, 3, -2)), ("linked circles", (1, -3, 3, 3))]
    )
    def test_analysis_forms_no_algebraic_value(self, monkeypatch, name, center):
        # at these centers every pair of image boxes comes apart within the box
        # rounds, so the exact triple-point fallback is never reached, and
        # nothing else in the analysis forms a standalone algebraic number
        if name == "quintic":
            link = Link([sample_random_curve(5, seed=11)])
        else:
            link = linked_circles()
        calls = []
        real = projection.algebraic_value

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(projection, "algebraic_value", counted)
        analysis = analyze_projection(link, center)
        assert analysis.loci
        assert calls == []
        # the printed e (or s) interval encloses the exact eliminated coordinate
        for locus in analysis.loci:
            lo, hi = map(Fraction, _ELIMINATED.search(locus.describe()).groups())
            root = locus.root
            value = algebraic_value(root.survivor, root.eliminated_poly, UPoly.const(1))
            assert value.sign_of_poly(UPoly([-lo, 1])) >= 0
            assert value.sign_of_poly(UPoly([-hi, 1])) <= 0


class TestMoebiusCommutation:
    def test_reparametrization_commutes_with_double_points(self):
        # an orientation-preserving parameter change moves the (e, f) roots
        # but fixes the image points, the classification, and the writhe
        from encwrithe.curves import MoebiusReparam
        from encwrithe.writhe import build_diagram, writhe_unoriented

        curve = sample_random_curve(4, seed=5)
        moved = MoebiusReparam.of(1, -1, 1, 1).apply(curve)
        link_a, link_b = Link([curve]), Link([moved])
        da = sample_generic_center(link_a, seed=1)
        center = da.center
        db = analyze_projection(link_b, center)
        assert len(da.loci) == len(db.loci)
        for la, lb in zip(da.loci, db.loci):
            assert la.kind is lb.kind
        images_a = sorted(
            (float(l.image_x), float(l.image_y)) for l in da.loci
        )
        images_b = sorted(
            (float(l.image_x), float(l.image_y)) for l in db.loci
        )
        for (xa, ya), (xb, yb) in zip(images_a, images_b):
            assert abs(xa - xb) < 1e-6 and abs(ya - yb) < 1e-6
        wa = writhe_unoriented(build_diagram(link_a, center))
        wb = writhe_unoriented(build_diagram(link_b, center))
        assert wa == wb


class TestSpecOpWrappers:
    def test_double_point_system_counts(self):
        from encwrithe.elimination import solve_system
        from encwrithe.writhe import LocusPolys

        polys = LocusPolys(model_curve(-1))
        solution = solve_system(polys.system)
        assert solution.multiplicity_count == polys.expected_count == 1
        assert len(solution.roots) == 1

    def test_classify_double_points(self):
        loci = analyze_projection(model_link(1), CANONICAL_CENTER).loci
        assert [l.kind for l in loci] == [LocusKind.SOLITARY]


class TestCenterSampling:
    def test_deterministic(self):
        link = model_link(-1)
        a = sample_generic_center(link, seed=9)
        b = sample_generic_center(link, seed=9)
        assert a.center == b.center

    def test_certificate_passes(self):
        link = model_link(-1)
        center = sample_generic_center(link, seed=0).center
        assert analyze_projection(link, center).center == center

    def test_line_first_sample_trivially_generic(self):
        line = Link([RationalSpaceCurve([0, 1], [0], [0], [1])])
        analysis = sample_generic_center(line, seed=0)
        assert analysis.loci == []

    def test_returns_its_analysis(self):
        link = model_link(-1)
        analysis = sample_generic_center(link, seed=5)
        again = analyze_projection(link, analysis.center)
        assert [l.describe() for l in analysis.loci] == [l.describe() for l in again.loci]
        assert [l.raw_sign for l in analysis.loci] == [l.raw_sign for l in again.loci]

    def test_exhausted_names_the_rejections(self, monkeypatch):
        def always_triple(link, center):
            raise TriplePoint("coincident images")

        monkeypatch.setattr(projection, "analyze_projection", always_triple)
        with pytest.raises(SamplingExhausted) as info:
            sample_generic_center(model_link(-1), seed=0, budget=30)
        assert str(info.value).endswith("30 draws: 30 triple-point")

    def test_exhausted_counts_each_failure(self, monkeypatch):
        draws = []

        def alternate(link, center):
            draws.append(center)
            if len(draws) % 3 == 0:
                raise CenterOnCurve("on the curve")
            raise TangentialPair("tangential pair")

        monkeypatch.setattr(projection, "analyze_projection", alternate)
        with pytest.raises(SamplingExhausted) as info:
            sample_generic_center(model_link(-1), seed=0, budget=30)
        assert len(draws) == 30
        assert "30 draws: 20 tangential-pair, 10 center-on-curve" in str(info.value)

    def test_exhausted_counts_the_zero_vector(self, monkeypatch):
        # for one component at seed 220 the 7th draw is (0, 0, 0, 0), which
        # is refused before any analysis
        draws = []

        def always_triple(link, center):
            draws.append(center)
            raise TriplePoint("coincident images")

        monkeypatch.setattr(projection, "analyze_projection", always_triple)
        with pytest.raises(SamplingExhausted) as info:
            sample_generic_center(model_link(-1), seed=220, budget=7)
        assert len(draws) == 6
        assert str(info.value).endswith("7 draws: 6 triple-point, 1 zero-vector")


def test_center_on_the_line_through_conjugate_nodes():
    # conjugate space nodes P(i) = P(1 + 2i) and P(-i) = P(1 - 2i): the real
    # line through them passes through 6,4,6,1, where both project to one
    # real point, the image of the two solitary loci
    curve = RationalSpaceCurve(
        [-2, -126, -6, -6, -6, 0],
        [-1, -86, 80, 0, 0, 6],
        [-1, -120, 54, 6, -6, 6],
        [-1, -23, 83, 3, 3, 6],
    )
    link = Link([curve])
    assert validate(curve) == 2
    with pytest.raises(CenterOnSingularLine) as info:
        analyze_projection(link, (6, 4, 6, 1))
    assert str(info.value) == (
        "coincident images: [solitary on component 0: e in [0, 0], f in [1, 1]] "
        "and [solitary on component 0: e in [2, 2], f in [5, 5]]; "
        "imaginary space singularities present and solitary images collide"
    )
    assert writhe_unoriented(sample_generic_center(link, seed=0)) == 2


class TestImageBoxes:
    def test_one_image_box_per_survivor_interval(self, monkeypatch):
        # the triple-point scan keeps a locus's image box until a refinement
        # moves its survivor's interval, however many pairs the locus is in
        seen = []
        real = projection.quotient_boxes

        def spy(nums, den, iv):
            seen.append((den, iv.lo, iv.hi))
            return real(nums, den, iv)

        monkeypatch.setattr(projection, "quotient_boxes", spy)
        link = parse_curve_file(CORPUS / "links" / "circles_chain_base.jsonl")
        build_diagram(link, None, seed=6)
        assert len(seen) > 10
        assert len(set(seen)) == len(seen)
