"""Local writhe signs and the encomplexed writhe.

The two sign computations of the model family are the absolute anchors of
every convention in the package: tau = -1 must give one crossing of local
writhe -1 (the 3x3 frame determinant is -16 rho^4 < 0 there), tau = +1 one
solitary point of local writhe -1 (the 4x4 intersection determinant is
-4 rho^3 < 0 and the writhe is opposite to the standard intersection
value). Everything else is tested relative to these.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from encwrithe.algnum import algebraic_value
from encwrithe.curves import Link, ProjectiveTransform, RationalSpaceCurve, sample_random_curve
from encwrithe.data import linked_circles, model_curve, model_link, separated_circles
from encwrithe import projection, writhe
from encwrithe.errors import CenterOnCurve, InvalidInput, MissingOrientation, ProjectionError
from encwrithe.projection import (
    CANONICAL_CENTER,
    LocusKind,
    analyze_projection,
    sample_generic_center,
)
from encwrithe.upoly import UPoly
from encwrithe.writhe import (
    LocusPolys,
    build_diagram,
    crossing_det_bipoly,
    linking_matrix,
    solitary_sign_raw,
    writhe_oriented,
    writhe_unoriented,
)

from solitary_oracle import solitary_signs_at_both_preimages

MIRROR_Z = ProjectiveTransform.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
)


class TestGoldenAnchors:
    def test_crossing_sign_is_minus_one(self):
        diagram = build_diagram(model_link(-1), CANONICAL_CENTER)
        assert [l.kind for l in diagram.loci] == [LocusKind.CROSSING]
        assert [l.raw_sign for l in diagram.loci] == [-1]
        assert writhe_unoriented(diagram) == -1

    def test_solitary_sign_is_minus_one(self):
        diagram = build_diagram(model_link(1), CANONICAL_CENTER)
        assert [l.kind for l in diagram.loci] == [LocusKind.SOLITARY]
        assert [l.raw_sign for l in diagram.loci] == [-1]
        assert writhe_unoriented(diagram) == -1

    def test_first_move_preserves_writhe(self):
        values = {
            tau: writhe_unoriented(build_diagram(model_link(Fraction(tau)), CANONICAL_CENTER))
            for tau in ("-2", "-1", "-1/2", "1/2", "1", "2")
        }
        assert set(values.values()) == {-1}


def same_root(a, b) -> bool:
    """Exact equality of the (e, f) roots of two loci: f is the survivor, e is
    formed from it by algebraic_value."""

    def ef(locus):
        f = locus.root.survivor
        return algebraic_value(f, locus.root.eliminated_poly, UPoly.const(1)), f

    (ea, fa), (eb, fb) = ef(a), ef(b)
    return ea.equals(eb) and fa.equals(fb)


class TestMirror:
    @pytest.mark.parametrize("tau", [-1, 1])
    def test_mirror_negates_each_local_sign(self, tau):
        link = model_link(tau)
        mirrored = link.transformed(MIRROR_Z)
        base = analyze_projection(link, CANONICAL_CENTER)
        flipped = analyze_projection(mirrored, CANONICAL_CENTER)
        assert len(base.loci) == len(flipped.loci) == 1
        # the mirror fixes the projection geometry: matched loci, negated sign
        assert same_root(base.loci[0], flipped.loci[0])
        assert base.loci[0].raw_sign == -flipped.loci[0].raw_sign

    def test_mirror_negates_writhe_of_sample(self):
        curve = sample_random_curve(4, seed=11)
        link = Link([curve])
        base = writhe_unoriented(build_diagram(link, seed=0))
        mirrored = writhe_unoriented(build_diagram(link.transformed(MIRROR_Z), seed=1))
        assert mirrored == -base

    def test_mirror_matched_loci_negate(self):
        # projecting the mirrored link from the mirrored center reproduces the
        # same (e, f) loci with every sign negated, solitary points included
        curve = sample_random_curve(4, seed=11)
        link = Link([curve])
        base = sample_generic_center(link, seed=2)
        flipped = analyze_projection(
            link.transformed(MIRROR_Z), MIRROR_Z.apply_point(base.center)
        )
        assert len(base.loci) == len(flipped.loci) == 3
        assert any(l.kind is LocusKind.SOLITARY for l in base.loci)
        for la, lb in zip(base.loci, flipped.loci):
            assert la.kind is lb.kind
            assert same_root(la, lb)
            assert la.raw_sign == -lb.raw_sign


class TestChoiceIndependence:
    def test_preimage_order_swap_same_component(self):
        # swapping the roles of the two preimages transposes the determinant
        # construction; symbolically the cleared determinant is symmetric
        curve = model_curve(-1)
        det = crossing_det_bipoly(curve, curve)
        assert det.swap_vars() == det

    def test_preimage_order_swap_inter_component(self):
        link = linked_circles()
        a, b = link.components
        assert crossing_det_bipoly(a, b) == crossing_det_bipoly(b, a).swap_vars()

    def test_conjugate_branch_toggle(self):
        # the numeric oracle reads the sign at both conjugate preimages from
        # the definition; both must equal the exact -sign N * sign M
        analysis = analyze_projection(model_link(1), CANONICAL_CENTER)
        locus = analysis.loci[0]
        curve = analysis.link.components[0]
        exact = solitary_sign_raw(locus.root, LocusPolys(curve))
        assert solitary_signs_at_both_preimages(curve, locus) == [exact, exact]

    def test_single_component_orientation_flip(self):
        link = model_link(-1)
        up = writhe_oriented(build_diagram(link.with_orientations([1]), CANONICAL_CENTER))
        down = writhe_oriented(build_diagram(link.with_orientations([-1]), CANONICAL_CENTER))
        assert up == down == -1


S, T = sympy.symbols("s t")


def _sym(p, var) -> sympy.Poly:
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in p.coeffs]
    return sympy.Poly(sum((c * var**k for k, c in enumerate(coeffs)), sympy.Integer(0)), S, T, domain="QQ")


def _sym2(p) -> sympy.Poly:
    terms = {(i, j): sympy.Rational(c.numerator, c.denominator) for (i, j), c in p.terms.items()}
    return sympy.Poly.from_dict(terms or {(0, 0): 0}, S, T, domain="QQ")


def _through_ef(p) -> sympy.Poly:
    """A polynomial in (e, f) written in (s, t) through e = s + t, f = st."""
    expr = _sym2(p).as_expr().subs({S: S + T, T: S * T}, simultaneous=True)
    return sympy.Poly(expr, S, T, domain="QQ")


def _random_curve(rng) -> RationalSpaceCurve:
    def coords():
        return [
            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
            for _ in range(rng.randint(2, 4))
        ]

    while True:
        try:
            return RationalSpaceCurve(coords(), coords(), coords(), coords())
        except InvalidInput:
            continue


def _determinant_by_definition(curve_a, curve_b) -> sympy.Poly:
    """det[V_a(s); L; V_b(t)] by sympy's determinant over QQ[s, t], from the
    definition: V = P'W - PW' for P = X, Y, Z and L = P_b(t) W_a(s) - P_a(s) W_b(t)."""

    def rows(curve, var):
        X, Y, Z, W = (_sym(p, var) for p in curve.coords)
        return [p.diff(var) * W - p * W.diff(var) for p in (X, Y, Z)], (X, Y, Z), W

    u, pa, wa = rows(curve_a, S)
    w, pb, wb = rows(curve_b, T)
    l = [pb[k] * wa - pa[k] * wb for k in range(3)]
    ring = sympy.QQ[S, T]
    matrix = DomainMatrix([[ring.convert(p.as_expr()) for p in row] for row in (u, l, w)], (3, 3), ring)
    return sympy.Poly(ring.to_sympy(matrix.det()), S, T, domain="QQ")


class TestCrossingDeterminantOracle:
    """The six-product crossing determinant against sympy's 3x3 determinant
    of the definition, on seeded random curves (Fraction coefficients)."""

    def test_pairs_of_curves(self):
        rng = random.Random(7)
        for _ in range(30):
            a, b = _random_curve(rng), _random_curve(rng)
            assert _sym2(crossing_det_bipoly(a, b)) == _determinant_by_definition(a, b)

    def test_same_curve_in_ef(self):
        rng = random.Random(11)
        for _ in range(20):
            curve = _random_curve(rng)
            polys = LocusPolys(curve)
            assert _through_ef(polys.crossing) == _determinant_by_definition(curve, curve)
            assert _through_ef(polys.chart) == 2 * _sym(curve.W, S) * _sym(curve.W, T)


class TestOrientedWrithe:
    def test_single_component_oriented_equals_unoriented(self):
        link = model_link(-1).with_orientations([1])
        diagram = build_diagram(link, CANONICAL_CENTER)
        assert writhe_oriented(diagram) == writhe_unoriented(diagram)

    def test_missing_orientation_raises(self):
        diagram = build_diagram(model_link(-1), CANONICAL_CENTER)
        with pytest.raises(MissingOrientation):
            writhe_oriented(diagram)

    def test_linked_circles_identity_and_linking(self):
        link = linked_circles()
        diagram = build_diagram(link, seed=3)
        un = writhe_unoriented(diagram)
        orient = writhe_oriented(diagram)
        lk = linking_matrix(diagram)
        assert lk[0][0] == 0 and lk[1][1] == 0
        assert lk[0][1] == lk[1][0]
        assert abs(lk[0][1]) == 1  # linked once
        assert lk[0][1].denominator == 1  # integer linking number
        assert orient == un + 2 * lk[0][1]

    def test_separated_circles_unlinked(self):
        link = separated_circles()
        diagram = build_diagram(link, seed=2)
        lk = linking_matrix(diagram)
        assert lk[0][1] == 0
        assert writhe_oriented(diagram) == writhe_unoriented(diagram)

    def test_single_flip_negates_linking_fixes_unoriented(self):
        link = linked_circles()
        flipped = link.with_orientations([1, -1])
        d1 = build_diagram(link, seed=3)
        d2 = build_diagram(flipped, seed=3)
        assert writhe_unoriented(d1) == writhe_unoriented(d2)
        assert linking_matrix(d1)[0][1] == -linking_matrix(d2)[0][1]

    def test_global_flip_invariance(self):
        link = linked_circles()
        flipped = link.with_orientations([-1, -1])
        d1 = build_diagram(link, seed=3)
        d2 = build_diagram(flipped, seed=3)
        assert writhe_oriented(d1) == writhe_oriented(d2)
        assert linking_matrix(d1) == linking_matrix(d2)


class TestReport:
    """The certified diagram is the report: Cw, the oriented writhe and the
    linking matrix are read from it."""

    def test_report_fields(self):
        diagram = build_diagram(linked_circles(), seed=3)
        lk = linking_matrix(diagram)
        n = len(lk)
        total = sum(lk[i][j] for i in range(n) for j in range(i + 1, n))
        assert writhe_unoriented(diagram) == writhe_oriented(diagram) - 2 * total
        assert len(diagram.loci) >= 1
        assert diagram.complex_double_point_counts == [0, 0]

    def test_two_unlinked_conics_writhe_zero(self):
        diagram = build_diagram(separated_circles(), seed=1)
        assert writhe_unoriented(diagram) == 0
        assert writhe_oriented(diagram) == 0


class TestOneAnalysisPerDiagram:
    """A sampled center is analysed once: the sampler's accepted analysis is
    the diagram's."""

    @pytest.fixture
    def analyses(self, monkeypatch):
        """Every analysis made, as (center, passed); an analysis that raises
        is a refusal, and the first `reject` draws are refused before any
        analysis. The counter replaces the name in both modules that call it:
        the sampler's draws resolve it in projection, a diagram at a given
        center resolves it in writhe."""
        real = projection.analyze_projection
        record = SimpleNamespace(calls=[], reject=0)

        def counted(link, center):
            if len(record.calls) < record.reject:
                record.calls.append((center, False))
                raise CenterOnCurve("refused by the test")
            try:
                analysis = real(link, center)
            except ProjectionError:
                record.calls.append((center, False))
                raise
            record.calls.append((center, True))
            return analysis

        monkeypatch.setattr(projection, "analyze_projection", counted)
        monkeypatch.setattr(writhe, "analyze_projection", counted)
        return record

    def test_build_diagram_one_analysis_per_draw(self, analyses):
        analyses.reject = 2
        diagram = build_diagram(model_link(-1), seed=4)
        # every draw is analysed once: refused draws, then the accepted one,
        # which is not analysed again
        passed = [ok for _, ok in analyses.calls]
        assert len(passed) >= 3 and passed[-1] and not any(passed[:-1])
        assert diagram.center == analyses.calls[-1][0]
        assert writhe_unoriented(diagram) == -1

    def test_verify_runs_analyse_each_accepted_center_once(self, analyses):
        from encwrithe.verify import verify_center_independence, verify_isotopy_invariance

        verify_center_independence(model_link(-1), n=3, seed=1)
        assert sum(ok for _, ok in analyses.calls) == 3
        analyses.calls.clear()
        verify_isotopy_invariance(model_link(-1), n=1, seed=1)
        assert sum(ok for _, ok in analyses.calls) == 3  # base, det > 0, det < 0

    def test_diagram_command_analyses_once(self, analyses, capsys, tmp_path):
        from encwrithe.cli import main
        from encwrithe.data import MODEL_CROSSING_PATH

        out = tmp_path / "d.svg"
        assert main(["diagram", str(MODEL_CROSSING_PATH), "--seed", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert sum(ok for _, ok in analyses.calls) == 1
