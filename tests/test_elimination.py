"""Triangular system solving: roots, counting certificate, degeneracies."""

import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from encwrithe import elimination
from encwrithe.algnum import AlgebraicNumber
from encwrithe.bipoly import BiPoly
from encwrithe.cli import main
from encwrithe.curves import Link, RationalSpaceCurve
from encwrithe.elimination import (
    TriangularRoot,
    _completion_member,
    cross_double_point_system,
    solve_system,
    symmetric_double_point_system,
)
from encwrithe.errors import DegenerateElimination
from encwrithe.projection import analyze_projection
from encwrithe.upoly import UPoly, _subresultants


def bp(terms) -> BiPoly:
    return BiPoly(terms)


class TestSolveSystem:
    def test_simple_intersection(self):
        # e - f = 0, e + f - 2 = 0 -> (e, f) = (1, 1)
        system = [bp({(1, 0): 1, (0, 1): -1}), bp({(1, 0): 1, (0, 1): 1, (0, 0): -2})]
        solution = solve_system(system)
        assert len(solution.roots) == 1
        root = solution.roots[0]
        assert root.survivor.is_exact and root.survivor.lo == 1
        assert root.eliminated_poly(Fraction(1)) == 1

    def test_extraneous_roots_filtered_by_verification(self):
        # e^2 - f = 0 and e*f - 1 = 0 have one real solution (1, 1) when f = 1;
        # adding e - f keeps only points on the diagonal
        system = [
            bp({(2, 0): 1, (0, 1): -1}),
            bp({(1, 1): 1, (0, 0): -1}),
            bp({(1, 0): 1, (0, 1): -1}),
        ]
        solution = solve_system(system)
        assert len(solution.roots) == 1
        assert solution.roots[0].survivor.is_exact and solution.roots[0].survivor.lo == 1

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
        assert root.survivor.is_exact and root.survivor.lo == 2
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
        assert root.survivor.is_exact and root.survivor.lo == 0
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
    assert survivor.is_exact and survivor.lo == root and survivor.defining.degree > 1
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
        value = survivor.lo
        p = _random_bipoly(rng)
        e_poly = _random_upoly(rng, rng.randint(0, survivor.defining.degree - 1))
        reduced = TriangularRoot(survivor, e_poly).substitute(p)
        assert reduced(value) == _oracle_value(p, e_poly, value)


# -- the subresultant chain of a pair, against sympy ----------------------------

E, F = sympy.symbols("e f")


def _chain_of(a: sympy.Expr, b: sympy.Expr):
    """_subresultants of two integer polynomials in (e, f), eliminating e."""
    rows = [
        BiPoly({k: int(c) for k, c in sympy.Poly(p, E, F).terms()}).integer_rows()[0]
        for p in (a, b)
    ]
    return _subresultants(*rows)


def _in_f(ints: list[int]) -> sympy.Expr:
    return sum(c * F**k for k, c in enumerate(ints))


class TestSubresultantChainOracle:
    """The chain of a pair in e over Z[f] against sympy: the resultant exactly,
    with sympy's order-swap sign, and the completion member (u, v) as plus or
    minus the primitive part over Z[f] of the degree-1 member of
    sympy.subresultants (the chain after the larger-degree input)."""

    @staticmethod
    def check(a: sympy.Expr, b: sympy.Expr) -> sympy.Expr | None:
        """Assert both matches; the content over Z[f] of sympy's degree-1
        member, or None when the chain has none."""
        a, b = sympy.expand(a), sympy.expand(b)
        res, s1 = _chain_of(a, b)
        m, n = sympy.degree(a, E), sympy.degree(b, E)
        theirs = sympy.resultant(a, b, E)
        if m < n and (m * n) % 2:
            theirs = -theirs
        assert sympy.expand(_in_f(res) - theirs) == 0
        linear = [p for p in sympy.subresultants(a, b, E)[1:] if sympy.degree(p, E) == 1]
        if not linear:
            assert s1 is None
            return None
        content, primitive = sympy.Poly(linear[0], E, domain=sympy.ZZ[F]).primitive()
        u, v, d = _completion_member(s1)
        ours = _in_f(u.ints) * E + _in_f(v.ints)
        assert sympy.expand(ours - primitive.as_expr()) == 0 or sympy.expand(ours + primitive.as_expr()) == 0
        # the content divided out, times the member, is the undivided member
        assert sympy.expand(_in_f(d.ints) * ours - _in_f(s1[1]) * E - _in_f(s1[0])) == 0
        return content

    @staticmethod
    def degrees(a: sympy.Expr, b: sympy.Expr) -> list[int]:
        return [sympy.degree(p, E) for p in sympy.subresultants(sympy.expand(a), sympy.expand(b), E)]

    def test_seeded_pairs(self):
        rng = random.Random(4113)
        with_content = with_member = 0
        for _ in range(60):
            # a shared leading coefficient in e makes content over Z[f] likely
            lead = rng.choice((1, F, F - 2, 3 * F + 1))
            a, b = (
                lead * E**d + sum(rng.randint(-4, 4) * E**i * F**j for i in range(d) for j in range(3))
                for d in (rng.randint(2, 4), rng.randint(2, 4))
            )
            content = self.check(a, b)
            if content is not None:
                with_member += 1
                with_content += sympy.Poly(content, F).degree() > 0 or abs(content) != 1
        assert with_member >= 50
        # the completion member is the primitive part, not the raw member
        assert with_content >= 20

    def test_defective_chain(self):
        # a = e*b + (f + 1)e + 2 - f: the chain skips degree 2 (4, 3, 1, 0)
        b = E**3 + F * E**2 - 3
        a = E * b + (F + 1) * E + 2 - F
        assert self.degrees(a, b) == [4, 3, 1, 0]
        assert self.check(a, b) is not None
        assert self.check(b, a) is not None
        # and a first step of delta = 3, in either order
        assert self.check(E**5 + F * E - 1, (F + 2) * E**2 + 3) is not None
        assert self.check((F + 2) * E**2 + 3, E**5 + F * E - 1) is not None

    def test_leading_coefficient_vanishing_at_a_survivor_value(self):
        # the coefficient of e^2 in a is f - 1, zero at f = 1
        a = (F - 1) * E**2 + E + 2 * F
        b = 2 * E**2 - 5 * F * E + 7
        assert self.check(a, b) is not None
        assert self.check(b, a) is not None
        res, s1 = _chain_of(a, b)
        assert _in_f(res).subs(F, 1) != 0

    def test_pairs_without_a_degree_1_member(self):
        # a = e*b + f: the chain goes 3, 2, 0
        b = E**2 + F + 1
        a = E * b + F
        assert self.degrees(a, b) == [3, 2, 0]
        assert self.check(a, b) is None
        # a common factor of degree 2: the resultant vanishes, the chain stops at 2
        common = E**2 + F
        assert self.check(common * (E + 1), common * (E - F)) is None
        assert _chain_of(common * (E + 1), common * (E - F))[0] == []

    def test_member_with_content(self):
        # equal leading coefficients f: S1 = prem(a, b) = f*((f - 2)e - f - 2)
        a = F * E**2 + 3 * E + F
        b = F * E**2 + (F + 1) * E - 2
        assert self.check(a, b) == F
        u, v, d = _completion_member(_chain_of(a, b)[1])
        assert (u.ints, v.ints) in {((-2, 1), (-2, -1)), ((2, -1), (2, 1))}
        assert d.ints in {(0, 1), (0, -1)}


def _big(rng: random.Random) -> int:
    """A nonzero integer of 60 to 200 bits, either sign."""
    bits = rng.randint(60, 200)
    return rng.choice((-1, 1)) * rng.randint(2 ** (bits - 1), 2**bits)


class TestChainAtThePackingBound:
    """The packed chain against the same sympy oracle, on coefficients of
    2^60 to 2^200 and f-degrees up to 8: the packing width k then runs to
    thousands of bits, and every digit read back must be signed and whole."""

    check = staticmethod(TestSubresultantChainOracle.check)
    degrees = staticmethod(TestSubresultantChainOracle.degrees)

    @staticmethod
    def draw(rng: random.Random, e_degree: int) -> sympy.Expr:
        f_degree = rng.randint(0, 8)
        lead = sum(_big(rng) * F**j for j in range(f_degree + 1))
        rest = sum(
            _big(rng) * E**i * F**j
            for i in range(e_degree)
            for j in range(f_degree + 1)
            if rng.random() < 0.7
        )
        return lead * E**e_degree + rest

    def test_seeded_pairs(self):
        rng = random.Random(6020)
        with_member = 0
        for _ in range(24):
            a, b = self.draw(rng, rng.randint(1, 4)), self.draw(rng, rng.randint(1, 4))
            with_member += self.check(a, b) is not None
        assert with_member >= 12

    def test_zero_resultant(self):
        rng = random.Random(61)
        common = E + _big(rng) * F**3 + _big(rng)
        a, b = common * self.draw(rng, 2), common * self.draw(rng, 1)
        assert _chain_of(a, b)[0] == []
        self.check(a, b)
        self.check(b, a)

    def test_defective_chain(self):
        rng = random.Random(62)
        b = E**3 + _big(rng) * F * E**2 - _big(rng)
        a = E * b + (_big(rng) * F + _big(rng)) * E + _big(rng) - _big(rng) * F**8
        assert self.degrees(a, b) == [4, 3, 1, 0]
        assert self.check(a, b) is not None
        assert self.check(b, a) is not None

    def test_input_constant_in_e(self):
        rng = random.Random(63)
        a = sum(_big(rng) * F**j for j in range(9))
        b = self.draw(rng, 3)
        for first, second in ((a, b), (b, a)):
            self.check(first, second)
        res, s1 = _chain_of(a, b)
        assert s1 is None
        assert sympy.expand(_in_f(res) - sympy.expand(a) ** 3) == 0


class TestOneCompletionPerEliminant:
    """solve_system completes the roots of one defining polynomial once per
    chain member, and its roots share one record of reductions."""

    # a plane quintic whose eliminant has two real roots, both roots of one
    # sextic defining polynomial
    COORDS = (
        UPoly([-2, -5, 3, -5, -3, 2]),
        UPoly([-5, -5, 5, -3, 0, 2]),
        UPoly([-4, 0, 2, 0, -1, 4]),
    )

    def test_one_quotient_mod_per_member_and_defining_polynomial(self, monkeypatch):
        calls = []
        inverse = elimination.quotient_mod

        def counting(num, den, modulus):
            calls.append((id(den), id(modulus)))
            return inverse(num, den, modulus)

        monkeypatch.setattr(elimination, "quotient_mod", counting)
        system = symmetric_double_point_system(list(self.COORDS))
        roots = solve_system(system).roots
        assert len(roots) >= 2
        assert len({id(r.survivor.defining) for r in roots}) < len(roots)
        assert len(calls) == len(set(calls)) < len(roots)
        # the roots share one record, and each shared reduction is the one an
        # unshared root computes
        assert all(r.reductions is roots[0].reductions for r in roots)
        for root in roots:
            for p in system:
                alone = TriangularRoot(root.survivor, root.eliminated_poly).substitute(p)
                assert root.substitute(p) == alone
        # a second call computes afresh: the record is not kept between calls
        first = len(calls)
        again = solve_system(system).roots
        assert len(calls) == 2 * first
        assert again[0].reductions is not roots[0].reductions


class TestVerificationOffTheOwnPair:
    """A completion from the chain of (p_i, p_j) zeroes p_i and p_j, so
    verification reduces only the other inputs, unless the content the
    member was divided by vanishes at the survivor."""

    @staticmethod
    def spy(monkeypatch) -> list:
        """(own, reduced, n) per _complete_root call: the inputs the accepted
        member zeroes by itself (None when no member verified), the indices
        of the inputs reduced at that root (at any candidate when none
        verified) and the number of inputs."""
        seen = []
        real = elimination._complete_root

        def spying(f0, polys, members, completions, reductions):
            root = real(f0, polys, members, completions, reductions)
            own, entries = None, list(reductions.values())
            if root is not None:
                i = next(i for (i, _), (_, e) in completions.items() if e is root.eliminated_poly)
                own = members[i][3]
                entries = [x for x in entries if x[0] is root.survivor.defining and x[1] is root.eliminated_poly]
            reduced = {k for k, p in enumerate(polys) if any(x[2] is p for x in entries)}
            seen.append((own, reduced, len(polys)))
            return root

        monkeypatch.setattr(elimination, "_complete_root", spying)
        return seen

    def test_accepted_members_skip_their_own_pair(self, monkeypatch, capsys):
        seen = self.spy(monkeypatch)
        path = Path(__file__).resolve().parents[1] / "perfbench/corpus/knots/d5a_base.jsonl"
        assert main(["writhe", str(path), "--seed", "0"]) == 0
        capsys.readouterr()
        accepted = [(own, reduced, n) for own, reduced, n in seen if own is not None]
        assert len(accepted) >= 2
        for own, reduced, n in accepted:
            assert len(own) == 2
            assert reduced == set(range(n)) - set(own)

    def test_both_leading_coefficients_vanishing_zeroes_the_undivided_u(self):
        # why the content test is the only guard: where lc p_i and lc p_j
        # both vanish (here c (f - 1) at f = 1), so does the undivided u of
        # the chain's degree-1 member, so its content does too
        rng = random.Random(5)

        def row(c):
            # integer coefficients in f, trailing zeros dropped
            return c[: max((k + 1 for k, v in enumerate(c) if v), default=0)]

        def leading_vanishing_at_one(degree):
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            return [row([rng.randint(-3, 3) for _ in range(3)]) for _ in range(degree)] + [[-c, c]]

        checked = 0
        for _ in range(300):
            p, q = (leading_vanishing_at_one(rng.randint(1, 5)) for _ in range(2))
            s1 = _subresultants(p, q)[1]
            if s1 is not None:
                checked += 1
                assert sum(s1[1]) == 0
        assert checked >= 250

    def test_vanishing_content_verifies_the_own_pair(self, monkeypatch):
        # the trisecant of tests/golden/failures.json at 1,0,0,0: the member
        # of (p_0, p_1) is f^2 (f - 1) (f e + v), so its divided u = f is
        # nonzero at f0 = 1 while the undivided member vanishes there; p_0
        # does not vanish at the completion (6, 1), and no member verifies
        seen = self.spy(monkeypatch)
        curve = RationalSpaceCurve([6, -7, 0, 1], [0, 6, -7, 0, 1], [0, 1], [1, 0, 1])
        with pytest.raises(DegenerateElimination):
            analyze_projection(Link([curve]), (1, 0, 0, 0))
        # p_0 was reduced, and its nonzero value rejected the candidate
        assert seen == [(None, {0}, 3)]
