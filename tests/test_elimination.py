"""Triangular system solving: roots, counting certificate, degeneracies."""

import random
from fractions import Fraction

import pytest
import sympy

from encwrithe.algnum import AlgebraicNumber
from encwrithe.bipoly import BiPoly
from encwrithe.elimination import (
    TriangularRoot,
    cross_double_point_system,
    solve_system,
    symmetric_double_point_system,
)
from encwrithe.errors import DegenerateElimination
from encwrithe.upoly import UPoly


def bp(terms) -> BiPoly:
    return BiPoly(terms)


class TestSolveSystem:
    def test_simple_intersection(self):
        # e - f = 0, e + f - 2 = 0 -> (e, f) = (1, 1)
        system = [bp({(1, 0): 1, (0, 1): -1}), bp({(1, 0): 1, (0, 1): 1, (0, 0): -2})]
        solution = solve_system(system)
        assert len(solution.roots) == 1
        root = solution.roots[0]
        assert root.survivor.is_exact and root.survivor.exact_value == 1
        assert root.eliminated_poly(Fraction(1)) == 1

    def test_extraneous_roots_filtered_by_verification(self):
        # e^2 - f = 0 and e*f - 1 = 0 have one real solution (1, 1) when f = 1;
        # adding e - f keeps only points on the diagonal
        system = [
            bp({(2, 0): 1, (0, 1): -1}),
            bp({(1, 1): 1, (0, 0): -1}),
            bp({(1, 0): 1, (0, 1): -1}),
        ]
        solution = solve_system(system, strict=False)
        assert len(solution.roots) == 1
        assert solution.roots[0].survivor.exact_value == 1

    def test_pair_of_survivor_only_polys_uses_gcd(self):
        # (f - 2) and (f - 2)(f + 1) share the root 2; e pinned by the third
        system = [
            bp({(0, 1): 1, (0, 0): -2}),
            bp({(0, 2): 1, (0, 1): -1, (0, 0): -2}),
            bp({(1, 0): 1, (0, 0): -5}),
        ]
        solution = solve_system(system)
        assert len(solution.roots) == 1
        root = solution.roots[0]
        assert root.survivor.exact_value == 2
        assert root.eliminated_poly(Fraction(2)) == 5

    def test_inconsistent_constants_empty(self):
        system = [bp({(0, 1): 1, (0, 0): -2}), bp({(0, 1): 1, (0, 0): 2}), bp({(1, 0): 1})]
        solution = solve_system(system)
        assert solution.roots == []

    def test_positive_dimensional_rejected(self):
        with pytest.raises(DegenerateElimination):
            solve_system([bp({(1, 0): 1, (0, 1): -1})])

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateElimination):
            solve_system([BiPoly()])

    def test_proportional_pair_rejected(self):
        p = bp({(1, 0): 1, (0, 1): -1})
        with pytest.raises(DegenerateElimination):
            solve_system([p, bp({(1, 0): 2, (0, 1): -2})])


class TestSystemBuilders:
    def test_symmetric_system_is_in_ef(self):
        # twisted cubic triple (t, t^2, 1): double point system must be empty
        coords = [UPoly([0, 1]), UPoly([0, 0, 1]), UPoly([1])]
        system = symmetric_double_point_system(coords)
        solution = solve_system(system)
        assert solution.roots == []
        assert solution.multiplicity_count == 0

    def test_cross_system_detects_shared_point(self):
        # lines (t, 0, 1) and (0, t, 1) meet at the origin: s = 0, t = 0
        a = [UPoly([0, 1]), UPoly([0]), UPoly([1])]
        b = [UPoly([0]), UPoly([0, 1]), UPoly([1])]
        system = cross_double_point_system(a, b)
        solution = solve_system(system)
        assert len(solution.roots) == 1
        root = solution.roots[0]
        assert root.survivor.exact_value == 0
        assert root.eliminated_poly(Fraction(0)) == 0


# -- the reduction at a root, against sympy ------------------------------------

X = sympy.Symbol("x")


def _rational(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def _fraction(c: sympy.Rational) -> Fraction:
    return Fraction(int(c.p), int(c.q))


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))


def _random_bipoly(rng: random.Random) -> BiPoly:
    return BiPoly(
        {(i, j): _random_fraction(rng) for i in range(rng.randint(1, 4)) for j in range(4)}
    )


def _random_upoly(rng: random.Random, degree: int) -> UPoly:
    return UPoly([_random_fraction(rng) for _ in range(degree + 1)])


def _upoly_of(poly: sympy.Poly) -> UPoly:
    return UPoly([_fraction(c) for c in reversed(poly.all_coeffs())])


def _sympy_poly(p: UPoly) -> sympy.Poly:
    coeffs = [_rational(c) for c in reversed(p.coeffs)] or [0]
    return sympy.Poly(coeffs, X, domain="QQ")


def _irreducible(rng: random.Random, degree: int) -> sympy.Poly:
    """A primitive irreducible integer polynomial with a real root and a
    leading coefficient of -3, -2, 2 or 3."""
    while True:
        coeffs = [rng.choice((-3, -2, 2, 3))] + [rng.randint(-6, 6) for _ in range(degree)]
        poly = sympy.Poly(coeffs, X)
        if poly.content() == 1 and poly.is_irreducible and poly.count_roots() > 0:
            return poly


def _irrational_survivor(rng: random.Random) -> AlgebraicNumber:
    poly = _irreducible(rng, rng.randint(2, 4))
    (lo, hi), _ = rng.choice(poly.intervals())
    # the defining polynomial is stored with a rational scale of either sign
    scale = Fraction(rng.choice((-5, -1, 1, 3)), rng.choice((1, 4)))
    return AlgebraicNumber(_upoly_of(poly) * scale, _fraction(lo), _fraction(hi))


def _collapsed_survivor(rng: random.Random) -> AlgebraicNumber:
    """A rational root found by refinement: exact, while its defining
    polynomial keeps an irreducible factor."""
    root = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
    poly = sympy.Poly([root.denominator, -root.numerator], X) * _irreducible(rng, 2)
    delta = Fraction(1, 2)
    while (
        poly.count_roots(_rational(root - delta), _rational(root + delta)) > 1
        or poly.eval(_rational(root - delta)) == 0
        or poly.eval(_rational(root + delta)) == 0
    ):
        delta /= 3
    survivor = AlgebraicNumber(_upoly_of(poly), root - delta, root + delta)
    assert survivor.try_exact_collapse(rounds=40)
    assert survivor.exact_value == root and survivor.defining.degree > 1
    return survivor


def _composed(p: BiPoly, e_poly: UPoly) -> sympy.Expr:
    """p(e(x), x) as a sympy expression."""
    e = _sympy_poly(e_poly).as_expr()
    return sympy.expand(sum(_rational(c) * e**i * X**j for (i, j), c in p.terms.items()))


def _oracle_reduction(p: BiPoly, e_poly: UPoly, defining: UPoly) -> UPoly:
    """rem(p(e(x), x), defining) over Q."""
    composed = sympy.Poly(_composed(p, e_poly), X, domain="QQ")
    return _upoly_of(sympy.rem(composed, _sympy_poly(defining)))


def _oracle_value(p: BiPoly, e_poly: UPoly, value: Fraction) -> Fraction:
    """p(e(value), value)."""
    return _fraction(_composed(p, e_poly).subs(X, _rational(value)))


class TestSubstituteOracle:
    """TriangularRoot.substitute against sympy's rem(p(e(f), f), P) on seeded
    random triples: Fraction coefficients in p and in the eliminated
    polynomial, defining polynomials whose primitive part has a leading
    coefficient of -3, -2, 2 or 3, and exact survivors of both kinds."""

    @pytest.mark.parametrize("seed", range(40))
    def test_irrational_survivor_reduction_matches(self, seed):
        rng = random.Random(f"substitute-irrational-{seed}")
        survivor = _irrational_survivor(rng)
        p = _random_bipoly(rng)
        e_poly = _random_upoly(rng, rng.randint(0, survivor.defining.degree - 1))
        reduced = TriangularRoot(survivor, e_poly).substitute(p)
        assert reduced == _oracle_reduction(p, e_poly, survivor.defining)

    @pytest.mark.parametrize("seed", range(15))
    def test_rational_survivor_value_matches(self, seed):
        # a rational root found by isolation: its defining polynomial is x - a
        rng = random.Random(f"substitute-rational-{seed}")
        value = Fraction(rng.randint(-7, 7), rng.choice((1, 2, 3, 5)))
        survivor = AlgebraicNumber.from_rational(value)
        p = _random_bipoly(rng)
        e_poly = UPoly.const(_random_fraction(rng))
        reduced = TriangularRoot(survivor, e_poly).substitute(p)
        assert reduced.degree <= 0
        assert reduced(value) == _oracle_value(p, e_poly, value)

    @pytest.mark.parametrize("seed", range(15))
    def test_collapsed_survivor_value_matches(self, seed):
        rng = random.Random(f"substitute-collapsed-{seed}")
        survivor = _collapsed_survivor(rng)
        value = survivor.exact_value
        p = _random_bipoly(rng)
        e_poly = _random_upoly(rng, rng.randint(0, survivor.defining.degree - 1))
        reduced = TriangularRoot(survivor, e_poly).substitute(p)
        assert reduced(value) == _oracle_value(p, e_poly, value)
