"""Curve model: validation, evaluation, transforms, sampling."""

import random
from fractions import Fraction

import pytest
import sympy

from encwrithe.algnum import AlgebraicNumber, algebraic_value, isolate_real_roots
from encwrithe.curves import (
    Link,
    MoebiusReparam,
    ProjectiveTransform,
    RationalSpaceCurve,
    sample_random_curve,
    validate,
    validate_link,
)
from encwrithe.data import linked_circles, model_curve, separated_circles
from encwrithe.errors import (
    ComponentsIntersect,
    CuspDetected,
    InvalidInput,
    RealSingularityDetected,
    ReducibleParametrization,
    SingularMatrix,
)
from encwrithe.upoly import UPoly

MIRROR_Z = ProjectiveTransform.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]]
)
IDENTITY = ProjectiveTransform.of(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
)


def sympy_chart(curve):
    """The parameter symbol and the coordinates (X, Y, Z, W) of a curve as
    sympy polynomials, built from its coefficients."""
    t = sympy.Symbol("t")
    X, Y, Z, W = (
        sum(sympy.Rational(c) * t**k for k, c in enumerate(p.coeffs)) for p in curve.coords
    )
    return t, (X, Y, Z, W)


def proportional(a, b) -> bool:
    n = len(a)
    return all(
        a[i] * b[j] - a[j] * b[i] == 0 for i in range(n) for j in range(i + 1, n)
    )


class TestValidation:
    def test_model_minus_one_valid(self):
        assert validate(model_curve(-1)) == 0

    @pytest.mark.parametrize("tau", ["-2", "-1", "-1/2", "1/2", "1", "2"])
    def test_model_family_members_valid(self, tau):
        validate(model_curve(Fraction(tau)))

    def test_model_zero_is_a_nonsingular_space_curve(self):
        # the tau = 0 member is a twisted cubic: its *standard projection*
        # is cuspidal, but the space curve itself is an embedded immersion
        validate(model_curve(0))

    def test_line_valid_degree_one(self):
        line = RationalSpaceCurve([0, 1], [0], [0], [1])
        assert line.degree == 1
        validate(line)

    def test_nodal_quartic_rejected(self):
        # P(0) = P(1) = (0, 0, 0): a real double point
        curve = RationalSpaceCurve(
            [0, -1, 1, -1, 1], [0, -1, 0, -1, 2], [0, 1, 0, -2, 1], [1]
        )
        with pytest.raises(RealSingularityDetected):
            validate(curve)

    def test_cuspidal_parametrization_rejected(self):
        # velocity vanishes at t = 0
        curve = RationalSpaceCurve([0, 0, 1], [0, 0, 0, 1], [0, 0, 1, 1], [1])
        with pytest.raises(CuspDetected):
            validate(curve)

    def test_reducible_parametrization_rejected(self):
        # common factor t in all four coordinates
        curve = RationalSpaceCurve([0, 1, 1], [0, 1], [0, 2], [0, 1])
        with pytest.raises(ReducibleParametrization):
            validate(curve)

    def test_nonbirational_parametrization_rejected(self):
        # even parametrization traverses the image twice. By Lueroth's
        # theorem a parametrization that is not birational factors through
        # a cover of degree >= 2, here t -> t^2, and the cover's ramification
        # points are cusps of the curve: the immersion check, which runs
        # first, rejects it at t = 0. The birational check stays as a guard.
        curve = RationalSpaceCurve([0, 0, 1], [1, 0, 0, 0, 1], [0, 0, 3], [1])
        with pytest.raises(CuspDetected):
            validate(curve)

    def test_two_real_nodes_sharing_f_rejected(self):
        # P(1) = P(2) and P(-1) = P(-2): both nodes have f = st = 2, where no
        # completion member verifies, so the real eliminant root is undecided
        curve = RationalSpaceCurve(
            [10, -100, -15, 1, 3, 3], [-1, 114, 5, -3, -1, -3], [0, -21, 0, 3], [14, 62, -15, 0, 3, -2]
        )
        assert curve.evaluate(1) == curve.evaluate(2)
        assert curve.evaluate(-1) == curve.evaluate(-2)
        with pytest.raises(RealSingularityDetected, match="may have a real double point"):
            validate(curve)

    def test_zero_quadruple_rejected(self):
        with pytest.raises(InvalidInput):
            RationalSpaceCurve([0], [0], [0], [0])

    def test_link_disjointness_certified(self):
        assert validate_link(linked_circles()).valid
        assert validate_link(separated_circles()).valid

    def test_coplanar_circles_intersect_over_C(self):
        # disjoint over R, but two conics in one plane always meet over C
        a = RationalSpaceCurve([1, 0, -1], [0, 2], [0], [1, 0, 1])
        b = RationalSpaceCurve([4, 0, 2], [0, 2], [0], [1, 0, 1])
        report = validate_link(Link([a, b]))
        assert isinstance(report.error, ComponentsIntersect)
        with pytest.raises(ComponentsIntersect):
            report.raise_for_failure()

    @pytest.mark.parametrize(
        "b, message",
        [
            # a parallel line: disjoint in the affine chart, one point at infinity
            (([0, 1], [1], [0], [1]), "both parameter-infinity points coincide"),
            # the same line as t -> 2t + 1: a curve of coincidences
            (([1, 2], [0], [0], [1]), "coincidence system is not zero-dimensional"),
        ],
    )
    def test_lines_that_meet(self, b, message):
        a = RationalSpaceCurve([0, 1], [0], [0], [1])
        report = validate_link(Link([a, RationalSpaceCurve(*b)]))
        assert isinstance(report.error, ComponentsIntersect)
        assert str(report.error) == f"components 0 and 1: {message}"

    def test_a_circle_given_twice(self):
        circle = linked_circles().components[0]
        report = validate_link(Link([circle, circle]))
        assert isinstance(report.error, ComponentsIntersect)
        assert str(report.error) == "components 0 and 1: all coincidence resultants vanish"


class TestEvaluation:
    def test_model_point_at_minus_one(self):
        assert model_curve(-1).evaluate(-1) == (0, 0, 1, 1)

    def test_model_solitary_imaginary_point(self):
        # the solitary double point of the tau = 1 model is P(i) = P(-i);
        # checked in sympy, which evaluates at Gaussian rationals
        t, coords = sympy_chart(model_curve(1))
        p = [sympy.expand(c.subs(t, -sympy.I)) for c in coords]
        assert p == [0, 0, sympy.I, 1]

    def test_constant_term_at_zero(self):
        curve = model_curve(Fraction(3, 2))
        assert curve.evaluate(0) == tuple(p[0] for p in curve.coords)

    def test_point_at_infinity(self):
        assert model_curve(-1).leading_vector() == (0, -1, 0, 0)

    def test_evaluate_at_algebraic_number(self):
        # a coordinate at an algebraic parameter is formed by algebraic_value
        sqrt2 = isolate_real_roots(UPoly([-2, 0, 1]))[1]
        x = algebraic_value(sqrt2, model_curve(-1).X, UPoly.const(1))
        # X(sqrt2) = 1 - 2 = -1 exactly
        assert x.equals(AlgebraicNumber.from_rational(-1))

    def test_never_zero_quadruple(self):
        curve = model_curve(-1)
        for t in (-2, -1, 0, 1, 2, Fraction(1, 3)):
            assert any(v != 0 for v in curve.evaluate(t))


class TestTangent:
    def test_model_real_tangent(self):
        v = model_curve(-1).tangent(-1)
        assert v[:3] == (2, -2, -1)
        assert v[3] == 0

    def test_model_imaginary_tangent(self):
        # the velocity of the affine chart at t = -i, differentiated in sympy
        t, (X, Y, Z, W) = sympy_chart(model_curve(1))
        v = [sympy.simplify(sympy.diff(c / W, t).subs(t, -sympy.I)) for c in (X, Y, Z)]
        assert v == [2 * sympy.I, 2, -1]

    def test_line_tangent(self):
        line = RationalSpaceCurve([0, 1], [0], [0], [1])
        for t in (0, 5, Fraction(-7, 3)):
            assert line.tangent(t)[:3] == (1, 0, 0)

    def test_tangent_nonzero_on_validated_curve(self):
        curve = sample_random_curve(3, seed=3)
        import random

        rng = random.Random(0)
        checked = 0
        while checked < 100:
            t = Fraction(rng.randint(-60, 60), rng.randint(1, 11))
            if curve.W(t) == 0:
                continue
            assert any(v != 0 for v in curve.tangent(t)[:3])
            checked += 1


class TestTransforms:
    def test_identity(self):
        curve = model_curve(-1)
        assert IDENTITY.apply(curve) == curve

    def test_mirror_negates_z(self):
        curve = model_curve(-1)
        mirrored = MIRROR_Z.apply(curve)
        assert mirrored.Z == -curve.Z
        assert mirrored.X == curve.X
        assert MIRROR_Z.orientation_class == -1

    def test_roundtrip_inverse(self):
        # a unimodular matrix and its inverse, worked out by hand
        t = ProjectiveTransform.of(
            [[4, 2, -2, -1], [2, 0, 1, 0], [3, -1, 7, 3], [1, 0, 2, 1]]
        )
        t_inv = ProjectiveTransform.of(
            [[1, -2, 2, -5], [-2, 5, -5, 13], [-2, 5, -4, 10], [3, -8, 6, -14]]
        )
        link = Link([model_curve(-1)])
        back = link.transformed(t).transformed(t_inv)
        assert back.components[0] == link.components[0]

    def test_singular_matrix_rejected(self):
        with pytest.raises(SingularMatrix):
            ProjectiveTransform.of([[1, 0, 0, 0]] * 4)

    def test_orientation_class_positive(self):
        assert IDENTITY.orientation_class == 1


class TestReparametrization:
    def test_identity(self):
        curve = model_curve(-1)
        assert MoebiusReparam.of(1, 0, 0, 1).apply(curve) == curve

    def test_shift_matches_substitution(self):
        curve = model_curve(-1)
        shifted = MoebiusReparam.of(1, 1, 0, 1).apply(curve)  # t -> t + 1
        for t in (0, 1, 2):
            assert shifted.evaluate(t) == curve.evaluate(t + 1)

    def test_inversion_reverses_coefficients(self):
        curve = model_curve(-1)
        inverted = MoebiusReparam.of(0, 1, 1, 0).apply(curve)  # t -> 1/t
        d = curve.degree
        for original, new in zip(curve.coords, inverted.coords):
            assert new == UPoly([original[d - k] for k in range(d + 1)])

    def test_point_set_preserved_projectively(self):
        curve = model_curve(-1)
        moebius = MoebiusReparam.of(2, 1, 1, 3)
        reparam = moebius.apply(curve)
        for t in (0, 1, -2, Fraction(1, 2)):
            image = Fraction(2 * t + 1, t + 3)
            assert proportional(reparam.evaluate(t), curve.evaluate(image))

    def test_singular_moebius_rejected(self):
        with pytest.raises(SingularMatrix):
            MoebiusReparam.of(1, 2, 2, 4)


def seeded_quadruple(rng, degree: int) -> RationalSpaceCurve:
    """A quadruple of exact degree `degree` with signed coefficients up to
    2^64, some coordinates of lower degree; not validated."""
    coords = []
    for k in range(4):
        d = degree if k == 0 else rng.randint(0, degree)
        coords.append([rng.randint(-(2**64), 2**64) for _ in range(d + 1)])
    coords[0][-1] = coords[0][-1] or 1
    rng.shuffle(coords)
    return RationalSpaceCurve(*coords)


def seeded_entry(rng) -> Fraction:
    return Fraction(rng.randint(-(2**20), 2**20), rng.choice([1, 1, 3, -7, 2**33 + 1]))


def oracle_normalized(polys, t) -> list[list[int]]:
    """The sympy polynomials in t times the positive rational that makes them
    integer polynomials with no common content, as coefficient lists."""
    coeffs = [[sympy.Rational(c) for c in reversed(sympy.Poly(p, t).all_coeffs())] for p in polys]
    coeffs = [[] if cs == [0] else cs for cs in coeffs]
    scale = sympy.ilcm(*(c.q for cs in coeffs for c in cs))
    ints = [[int(c * scale) for c in cs] for cs in coeffs]
    g = sympy.igcd(*(v for cs in ints for v in cs))
    return [[v // g for v in cs] for cs in ints]


class TestIntegerReparametrizationOracle:
    # the integer substitution and transform against sympy: substitute into
    # the homogenization, or apply the matrix, over Q and normalize the way
    # RationalSpaceCurve does
    MOEBIUS = [
        (10**20, 0, 0, 1),
        (1, 0, 0, 7**20),
        (-3, Fraction(5, 2), Fraction(-7, 9), 4),
        (0, -1, 1, 0),
        (Fraction(-1, 3), -2, 1, Fraction(2, 2**40 + 3)),
    ]

    def test_moebius_matches_homogeneous_substitution(self):
        rng = random.Random(2417)
        t, u, v = sympy.symbols("t u v")
        checked = 0
        for degree in range(1, 8):
            for _ in range(2):
                curve = seeded_quadruple(rng, degree)
                entries = self.MOEBIUS + [tuple(seeded_entry(rng) for _ in range(4))]
                for a, b, c, d in entries:
                    moebius = MoebiusReparam.of(a, b, c, d)
                    ours = moebius.apply(curve)
                    homogeneous = [
                        sum(sympy.Integer(k) * u**i * v ** (degree - i) for i, k in enumerate(p.ints))
                        for p in curve.coords
                    ]
                    num = sympy.Rational(a) * t + sympy.Rational(b)
                    den = sympy.Rational(c) * t + sympy.Rational(d)
                    expected = oracle_normalized(
                        [sympy.expand(h.subs({u: num, v: den}, simultaneous=True)) for h in homogeneous], t
                    )
                    assert [list(p.ints) for p in ours.coords] == expected
                    assert all(p.den == 1 for p in ours.coords)
                    checked += 1
        assert checked == 7 * 2 * 6

    def test_transform_matches_matrix_product(self):
        rng = random.Random(8191)
        t = sympy.Symbol("t")
        checked = 0
        for degree in range(1, 8):
            for _ in range(3):
                curve = seeded_quadruple(rng, degree)
                while True:
                    rows = [[seeded_entry(rng) if rng.random() < 0.8 else 0 for _ in range(4)] for _ in range(4)]
                    if sympy.Matrix(rows).det() != 0:
                        break
                ours = ProjectiveTransform.of(rows).apply(curve)
                coords = [sum(sympy.Integer(k) * t**i for i, k in enumerate(p.ints)) for p in curve.coords]
                expected = oracle_normalized(
                    [sympy.expand(sum(sympy.Rational(e) * p for e, p in zip(row, coords))) for row in rows], t
                )
                assert [list(p.ints) for p in ours.coords] == expected
                checked += 1
        assert checked == 21


class TestSampling:
    def test_degree_one_is_a_line(self):
        curve = sample_random_curve(1, seed=0)
        assert curve.degree == 1
        validate(curve)

    def test_deterministic(self):
        a = sample_random_curve(3, seed=42)
        b = sample_random_curve(3, seed=42)
        assert a.coords == b.coords

    @pytest.mark.parametrize("degree", [3, 4])
    def test_samples_validate(self, degree):
        for seed in range(6):
            curve = sample_random_curve(degree, seed=seed)
            assert curve.degree == degree
            validate(curve)
