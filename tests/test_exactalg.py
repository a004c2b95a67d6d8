"""Exact-algebra kernel tests.

Frozen values were derived by hand (Sylvester determinants expanded on
paper) or come from independent oracles: sympy's resultant/real-root
machinery is used as the second route wherever our kernel is the first.
"""

import math
import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from encwrithe.algnum import (
    AlgebraicNumber,
    algebraic_value,
    isolate_real_roots,
)
from encwrithe.bipoly import BiPoly, resultant_bivariate
from encwrithe.elimination import (
    TriangularRoot,
    cross_double_point_system,
    symmetric_quotient,
    symmetric_sum,
)
from encwrithe.errors import InvalidInput
from encwrithe.rationals import Interval, sign
from encwrithe.upoly import (
    UPoly,
    _iexact_div,
    _pdivmod,
    _sign_at,
    count_real_roots,
    det_rational,
    gcd_of_minors,
    is_squarefree,
    isolate_roots_intervals,
    poly_gcd,
    quotient_mod,
    resultant,
    squarefree_part,
    sturm_chain,
)

x = sympy.Symbol("x")


def to_sympy(p: UPoly):
    return sum(sympy.Rational(c) * x**k for k, c in enumerate(p.coeffs))


small_coeffs = st.integers(min_value=-9, max_value=9)


def upolys(max_degree=6, nonzero=False):
    def build(coeffs):
        return UPoly(coeffs)

    base = st.lists(small_coeffs, min_size=1, max_size=max_degree + 1).map(build)
    if nonzero:
        return base.filter(lambda p: not p.is_zero)
    return base


def check_pdivmod(a: list[int], b: list[int]) -> None:
    # m*a == q*b + r, deg r < deg b, m = |lc b|^(deg a - deg b + 1) (1 below deg b)
    q, r = _pdivmod(a, b)
    m = abs(b[-1]) ** max(len(a) - len(b) + 1, 0)
    assert UPoly(a) * m == UPoly(q) * UPoly(b) + UPoly(r)
    assert len(r) < len(b) and (not r or r[-1] != 0)


class TestUPolyArithmetic:
    def test_divmod_identity(self):
        check_pdivmod([1, 2, 0, 3, 5], [7, 0, 2])
        check_pdivmod([1, 2, 0, 3, 5], [7, 0, -2])  # negative leading coefficient
        check_pdivmod([4, -3, 2], [7, 0, 2, 1])  # deg a < deg b: q = 0, r = a
        assert _pdivmod([4, -3, 2], [7, 0, 2, 1]) == ([], [4, -3, 2])
        assert _pdivmod([-2, 0, 1], [0, -1]) == ([0, -1], [-2])  # 1 * (x^2 - 2) = (-x)(-x) - 2

    @given(upolys(5), upolys(4, nonzero=True))
    @settings(max_examples=60)
    def test_divmod_random(self, p, q):
        check_pdivmod([int(c) for c in p.coeffs], [int(c) for c in q.coeffs])

    def test_interval_eval_contains_true_value(self):
        p = UPoly([-2, 0, 1])
        iv = p.eval_interval(Interval.of(1, 2))
        assert iv.lo <= Fraction(-1) and iv.hi >= Fraction(2)


class TestResultant:
    def test_sylvester_hand_value(self):
        # det of the 4x4 Sylvester matrix of (t^2+1, t^2-2), expanded by hand:
        # row-reduce rows 3,4 by rows 1,2 leaving diag(1,1,-3,-3) -> 9
        assert resultant(UPoly([1, 0, 1]), UPoly([-2, 0, 1])) == 9

    def test_linear_pair_convention(self):
        # Res_t(t-a, t-b) via the 2x2 determinant [[1,-a],[1,-b]] = a - b;
        # specialized at a=2, b=5 this is -3 (the convention fixes b-a up to sign)
        assert resultant(UPoly([-2, 1]), UPoly([-5, 1])) == -3
        # symbolic variant with the second variable kept: Res_s(s - t, s + t) = 2t
        p = BiPoly({(1, 0): 1, (0, 1): -1})
        q = BiPoly({(1, 0): 1, (0, 1): 1})
        assert resultant_bivariate(p, q, 0) == UPoly([0, 2])

    def test_integer_division_is_exact_or_raises(self):
        # the subresultant chain divides each pseudo-remainder by g*h^delta
        # over Z[x]; a remainder there means a broken invariant, never a
        # rounded result
        assert _iexact_div([-1, 0, 1], [1, 1]) == [-1, 1]  # (x^2 - 1) / (x + 1)
        assert _iexact_div([2, 4], [2]) == [1, 2]
        with pytest.raises(InvalidInput):
            _iexact_div([1, 0, 1], [1, 1])  # x^2 + 1 = (x + 1)(x - 1) + 2
        with pytest.raises(InvalidInput):
            _iexact_div([3, 6], [2])  # not divisible over Z
        with pytest.raises(InvalidInput):
            _iexact_div([1, 1], [0, 0, 1])

    def test_self_resultant_zero(self):
        p = UPoly([1, 2, 3, 4])
        assert resultant(p, p) == 0

    @given(upolys(6, nonzero=True), upolys(6, nonzero=True))
    @settings(max_examples=40, deadline=None)
    def test_resultant_matches_sylvester_det_oracle(self, p, q):
        # independent oracle: textbook Sylvester matrix evaluated by sympy's det
        ours = resultant(p, q)
        m, n = p.degree, q.degree
        if m == 0:
            assert ours == p.lc**n
            return
        if n == 0:
            assert ours == q.lc**m
            return
        ph = [sympy.Rational(c) for c in reversed(p.coeffs)]
        qh = [sympy.Rational(c) for c in reversed(q.coeffs)]
        rows = []
        for i in range(n):
            rows.append([0] * i + ph + [0] * (n - 1 - i))
        for i in range(m):
            rows.append([0] * i + qh + [0] * (m - 1 - i))
        det = sympy.Matrix(rows).det()
        assert sympy.Rational(ours) == det
        # sympy's resultant agrees up to the documented order-swap sign
        assert abs(sympy.resultant(to_sympy(p), to_sympy(q), x)) == abs(det)

    @given(upolys(6, nonzero=True), upolys(6, nonzero=True))
    @settings(max_examples=40, deadline=None)
    def test_resultant_zero_iff_common_factor(self, p, q):
        if p.degree < 1 or q.degree < 1:
            return
        assert (resultant(p, q) == 0) == (poly_gcd(p, q).degree > 0)


class TestSquarefree:
    def test_double_root_removed(self):
        p = UPoly([-1, 1]) ** 2 * UPoly([2, 1])  # (t-1)^2 (t+2)
        expected = UPoly([-1, 1]) * UPoly([2, 1])
        got = squarefree_part(p)
        # equal up to a positive constant
        assert got * expected.lc == expected * got.lc

    def test_already_squarefree(self):
        p = UPoly([-2, 0, 1])
        assert squarefree_part(p) == p

    def test_cubed_irreducible(self):
        p = UPoly([1, 0, 1]) ** 3
        assert squarefree_part(p) == UPoly([1, 0, 1])

    def test_zero_rejected(self):
        with pytest.raises(InvalidInput):
            squarefree_part(UPoly.zero())

    @given(upolys(4, nonzero=True))
    @settings(max_examples=60, deadline=None)
    def test_matches_gcd_derivative_oracle(self, p):
        if p.degree < 1:
            return
        ours = to_sympy(squarefree_part(p))
        g = sympy.gcd(to_sympy(p), sympy.diff(to_sympy(p), x))
        oracle = sympy.simplify(sympy.quo(to_sympy(p), g, x))
        quotient = sympy.simplify(ours / oracle)
        assert quotient.is_constant(x)


class TestRootIsolation:
    def test_exact_rational_roots(self):
        roots = isolate_real_roots(UPoly([0, -1, 0, 1]))  # t^3 - t
        assert [r.exact_value for r in roots] == [-1, 0, 1]

    def test_no_real_roots(self):
        assert isolate_real_roots(UPoly([1, 0, 1])) == []

    def test_sqrt2_intervals(self):
        roots = isolate_real_roots(UPoly([-2, 0, 1]))
        assert len(roots) == 2
        neg, pos = roots
        assert -2 <= neg.lo <= neg.hi <= 0
        assert 0 <= pos.lo <= pos.hi <= 2
        # Sturm count certifies each interval
        assert count_real_roots(UPoly([-2, 0, 1]), pos.lo, pos.hi) == 1

    def test_non_squarefree_rejected(self):
        with pytest.raises(InvalidInput):
            isolate_real_roots(UPoly([1, 2, 1]))

    @given(upolys(6, nonzero=True))
    @settings(max_examples=50, deadline=None)
    def test_count_matches_sympy(self, p):
        if p.degree < 1 or not is_squarefree(p):
            return
        ours = len(isolate_real_roots(p))
        theirs = sympy.polys.polytools.count_roots(to_sympy(p))
        assert ours == theirs

    @given(upolys(6, nonzero=True))
    @settings(max_examples=30, deadline=None)
    def test_intervals_disjoint_and_sorted(self, p):
        if p.degree < 1 or not is_squarefree(p):
            return
        roots = isolate_real_roots(p)
        for a, b in zip(roots, roots[1:]):
            # isolating intervals are open (or a single exact root), so
            # neighbours meet at most in an endpoint
            assert a.hi <= b.lo

    def test_planted_rational_roots_match_sympy(self):
        # seeded polynomials with planted rational roots, dyadic ones among
        # them, so that bisection midpoints land on roots: an exact triple
        # must be a root, an open one must hold exactly one root, possibly
        # next to an exact root at its endpoint, and the residual times the
        # exact linear factors must give back the primitive p
        rng = random.Random(20261019)
        midpoint_hits = exact_endpoints = checked = 0
        while checked < 200:
            p = UPoly.const(rng.choice([1, -1, 2, Fraction(-1, 3)]))
            if checked % 2:
                # (x - r)(x^m - K) has Cauchy bound 2 + rK, and r = 2k/(2^j - Kk)
                # is k/2^j of it, a midpoint whenever bisection gets there; a
                # factor x keeps the bound and puts a root on the first midpoint
                m, j = rng.randint(2, 4), rng.randint(3, 6)
                big_k = rng.choice([2, 3, 5, 6, 7])
                k = rng.randint(1, 2**j // big_k)
                if 2**j == big_k * k:
                    continue
                p = p * UPoly((Fraction(-2 * k, 2**j - big_k * k), 1))
                p = p * UPoly([-big_k] + [0] * (m - 1) + [1])
                if rng.random() < 0.5:
                    p = p * UPoly.x()
            else:
                p = p * UPoly([rng.randint(-3, 3), 0, 1])
                for _ in range(rng.randint(1, 3)):
                    p = p * UPoly((-Fraction(rng.randint(-8, 8), 2 ** rng.randint(0, 3)), 1))
            if not is_squarefree(p):
                continue
            checked += 1
            triples, residual = isolate_roots_intervals(p)
            poly = sympy.Poly(to_sympy(p), x)
            assert len(triples) == poly.count_roots()
            exact = [lo for lo, hi, is_exact in triples if is_exact]
            for lo, hi, is_exact in triples:
                if is_exact:
                    assert lo == hi and poly.eval(lo) == 0
                    continue
                assert lo < hi
                at_ends = (poly.eval(lo) == 0) + (poly.eval(hi) == 0)
                assert poly.count_roots(lo, hi) - at_ends == 1
                exact_endpoints += at_ends
            assert [t[0] + t[1] for t in triples] == sorted(t[0] + t[1] for t in triples)
            primitive = poly.clear_denoms()[1].primitive()[1]
            product = to_sympy(residual) * sympy.prod([x - r for r in exact])
            assert sympy.expand(product - primitive.as_expr()) == 0
            midpoint_hits += sum(1 for r in exact if r != 0)
        # the branch that splits a node at a nonzero midpoint root, and an
        # open interval ending at an exact root, are both reached
        assert midpoint_hits >= 30
        assert exact_endpoints >= 50


def point_root(e, f) -> TriangularRoot:
    """The triangular root at the rational point (e, f)."""
    return TriangularRoot(AlgebraicNumber.from_rational(f), UPoly.const(e))


class TestCertifiedSign:
    def test_discriminant_crossing_case(self):
        expr = BiPoly({(2, 0): 1, (0, 1): -4})  # e^2 - 4f
        assert point_root(0, -1).sign_of(expr) == 1

    def test_discriminant_solitary_case(self):
        expr = BiPoly({(2, 0): 1, (0, 1): -4})
        assert point_root(0, 1).sign_of(expr) == -1

    def test_defining_poly_vanishes(self):
        p = UPoly([-2, 0, 1])
        alpha = isolate_real_roots(p)[1]
        assert alpha.sign_of_poly(p) == 0

    def test_mixed_rational_and_algebraic_coordinates(self):
        # e^2 - 4f at (sqrt2, 1/2): 2 - 2 = 0 exactly; at (1/2, sqrt2) negative.
        # The survivor of a triangular root is variable 1, so the first point
        # takes the variables swapped: e survives and f = 1/2 is eliminated.
        expr = BiPoly({(2, 0): 1, (0, 1): -4})
        sqrt2 = isolate_real_roots(UPoly([-2, 0, 1]))[1]
        assert TriangularRoot(sqrt2, UPoly.const(Fraction(1, 2))).sign_of(expr.swap_vars()) == 0
        sqrt2b = isolate_real_roots(UPoly([-2, 0, 1]))[1]
        assert TriangularRoot(sqrt2b, UPoly.const(Fraction(1, 2))).sign_of(expr) == -1

    def test_sqrt2_signs(self):
        alpha = isolate_real_roots(UPoly([-2, 0, 1]))[1]  # sqrt(2)
        assert alpha.sign_of_poly(UPoly([-1, 1])) == 1  # sqrt2 - 1 > 0
        assert alpha.sign_of_poly(UPoly([Fraction(-3, 2), 1])) == -1  # sqrt2 < 3/2
        assert alpha.sign_of_poly(UPoly([0, -1, 0, 1])) == 1  # t^3 - t > 0

    def test_shared_factor_zero_detection(self):
        # defining (t^2-2)(t^2-3) is square-free; the number is sqrt(2);
        # t^2 - 2 vanishes there even though reduction mod defining is nonzero
        defining = (UPoly([-2, 0, 1]) * UPoly([-3, 0, 1])).primitive()
        alpha = AlgebraicNumber(defining, Fraction(14, 10), Fraction(145, 100))
        assert alpha.sign_of_poly(UPoly([-2, 0, 1])) == 0
        assert alpha.sign_of_poly(UPoly([-3, 0, 1])) == -1

    @given(upolys(5, nonzero=True), st.fractions(min_value=-5, max_value=5))
    @settings(max_examples=60)
    def test_rational_point_matches_eval(self, p, r):
        got = AlgebraicNumber.from_rational(r).sign_of_poly(p)
        v = p(Fraction(r))
        assert got == (v > 0) - (v < 0)

    @given(upolys(6, nonzero=True), upolys(4))
    @settings(max_examples=40, deadline=None)
    def test_never_contradicts_interval_enclosure(self, p, q):
        if p.degree < 1 or not is_squarefree(p):
            return
        for alpha in isolate_real_roots(p):
            s = alpha.sign_of_poly(q)
            iv = q.eval_interval(alpha.interval())
            definite = iv.definite_sign()
            if definite:
                assert s == definite
            else:
                assert iv.lo <= 0 <= iv.hi


S, T = sympy.symbols("s t")


def bipoly_to_sympy(p: BiPoly, u=S, v=T):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * u**i * v**j for (i, j), c in p.terms.items()),
        sympy.Integer(0),
    )


def upoly_to_sympy(p: UPoly, var):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * var**k for k, c in enumerate(p.coeffs)),
        sympy.Integer(0),
    )


def sympy_to_bipoly(expr, u=S, v=T) -> BiPoly:
    """A sympy polynomial in (u, v) as a BiPoly."""
    poly = sympy.Poly(sympy.expand(expr), u, v)
    return BiPoly({(i, j): Fraction(int(c.p), int(c.q)) for (i, j), c in poly.terms()})


def ef_to_st(p: BiPoly) -> BiPoly:
    """A polynomial in (e, f) written back in (s, t) through e = s + t, f = st."""
    return sympy_to_bipoly(bipoly_to_sympy(p).subs({S: S + T, T: S * T}, simultaneous=True))


def st_pair(a: UPoly, b: UPoly) -> tuple[BiPoly, BiPoly]:
    """(A(s)B(t) + A(t)B(s), A(s)B(t) - A(t)B(s)) built by outer."""
    return BiPoly.outer([(a, b), (b, a)]), BiPoly.outer([(a, b), (-b, a)])


class TestBiPoly:
    def test_symmetric_rewrite_examples(self):
        # s^2 t + s t^2 = A(s)B(t) + A(t)B(s) with A = x^2, B = x: e * f
        assert symmetric_sum([(UPoly([0, 0, 1]), UPoly([0, 1]))]) == BiPoly({(1, 1): 1})
        # s^2 + t^2 with A = x^2, B = 1: e^2 - 2f
        assert symmetric_sum([(UPoly([0, 0, 1]), UPoly([1]))]) == BiPoly({(2, 0): 1, (0, 1): -2})

    @given(upolys(4), upolys(4))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_roundtrip(self, a, b):
        total, _difference = st_pair(a, b)
        assert ef_to_st(symmetric_sum([(a, b)])) == total

    def test_diagonal_division(self):
        # (s^3 - t^3) / (s - t) = s^2 + s t + t^2 = e^2 - f, with A = x^3, B = 1
        quotient = symmetric_quotient(UPoly([0, 0, 0, 1]), UPoly([1]))
        assert quotient == BiPoly({(2, 0): 1, (0, 1): -1})
        assert ef_to_st(quotient) == BiPoly({(2, 0): 1, (1, 1): 1, (0, 2): 1})

    @given(upolys(4), upolys(4))
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_division_roundtrip(self, a, b):
        _total, difference = st_pair(a, b)
        back = bipoly_to_sympy(ef_to_st(symmetric_quotient(a, b)))
        assert sympy_to_bipoly(back * (S - T)) == difference

    def test_bivariate_resultant_matches_sympy(self):
        s, t = sympy.symbols("s t")
        ours = resultant_bivariate(
            BiPoly({(2, 0): 1, (0, 1): -1}),  # s^2 - t
            BiPoly({(1, 1): 1, (0, 0): -2}),  # s*t - 2
            0,
        )
        theirs = sympy.Poly(sympy.resultant(s**2 - t, s * t - 2, s), t)
        coeffs = list(reversed([sympy.Rational(c) for c in ours.coeffs]))
        assert coeffs == theirs.all_coeffs()


def random_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice([1, 1, 1, 2, 3, 7, 10**12]))


def random_bipoly(rng, max_terms=7, max_degree=3) -> BiPoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[(rng.randint(0, max_degree), rng.randint(0, max_degree))] = random_fraction(rng)
    return BiPoly(terms)


def random_upoly(rng, max_degree=5) -> UPoly:
    return UPoly([random_fraction(rng) for _ in range(rng.randint(1, max_degree + 1))])


class TestResultantOracle:
    """resultant_bivariate against sympy.resultant, an independent route
    (subresultant PRS over sympy's own domains).

    sympy puts the polynomial of larger degree first, so when deg a < deg b
    in the eliminated variable its value is Res(b, a) = (-1)^(mn) Res(a, b).
    """

    @staticmethod
    def assert_matches(a: BiPoly, b: BiPoly, index: int):
        var, keep = (S, T) if index == 0 else (T, S)
        m, n = a.degree_in(index), b.degree_in(index)
        theirs = sympy.resultant(bipoly_to_sympy(a), bipoly_to_sympy(b), var)
        if m < n and (m * n) % 2:
            theirs = -theirs
        ours = upoly_to_sympy(resultant_bivariate(a, b, index), keep)
        assert sympy.expand(ours - theirs) == 0

    def test_seeded_pairs_with_fraction_coefficients(self):
        rng = random.Random(5162)
        checked = with_fractions = 0
        while checked < 60:
            a, b = random_bipoly(rng), random_bipoly(rng)
            if a.is_zero or b.is_zero:
                continue
            for index in (0, 1):
                self.assert_matches(a, b, index)
            checked += 1
            coeffs = list(a.terms.values()) + list(b.terms.values())
            with_fractions += any(c.denominator > 1 for c in coeffs)
        assert with_fractions >= 30

    def test_leading_coefficient_vanishing_at_a_survivor_value(self):
        # the coefficient of s^2 in a is (t - 1)/3, zero at t = 1
        a = BiPoly({(2, 1): Fraction(1, 3), (2, 0): Fraction(-1, 3), (1, 0): 1, (0, 1): 2})
        b = BiPoly({(2, 0): 1, (1, 1): Fraction(-5, 2), (0, 0): 7})
        self.assert_matches(a, b, 0)
        self.assert_matches(b, a, 0)
        # at t = 1 the degree of a drops; the resultant still is the determinant
        r = resultant_bivariate(a, b, 0)
        assert not r.is_zero

    def test_input_constant_in_the_eliminated_variable(self):
        a = BiPoly({(0, 2): Fraction(3, 7), (0, 0): -2})  # 3/7 t^2 - 2
        b = BiPoly({(3, 0): 1, (1, 1): Fraction(1, 2), (0, 0): 1})  # s^3 + t s / 2 + 1
        for first, second in ((a, b), (b, a)):
            self.assert_matches(first, second, 0)
        # a^3 exactly, whichever order
        assert resultant_bivariate(a, b, 0) == UPoly([-2, 0, Fraction(3, 7)]) ** 3

    def test_identically_vanishing_resultant(self):
        common = S - T * sympy.Rational(2, 3)
        a = sympy_to_bipoly(common * (S * S + T))
        b = sympy_to_bipoly(common * (S + 1))
        assert resultant_bivariate(a, b, 0).is_zero
        self.assert_matches(a, b, 0)
        self.assert_matches(a, b, 1)


class TestSymmetricFormsOracle:
    """symmetric_quotient and symmetric_sum against sympy: expand the result
    through e = s + t, f = st and compare with the (s, t) definition."""

    @staticmethod
    def through_ef(p: BiPoly):
        return sympy.expand(bipoly_to_sympy(p).subs({S: S + T, T: S * T}, simultaneous=True))

    def test_seeded_pairs(self):
        rng = random.Random(2000)
        for _ in range(40):
            a, b = random_upoly(rng), random_upoly(rng)
            a_s, a_t = upoly_to_sympy(a, S), upoly_to_sympy(a, T)
            b_s, b_t = upoly_to_sympy(b, S), upoly_to_sympy(b, T)
            quotient = sympy.cancel((a_s * b_t - a_t * b_s) / (S - T))
            assert sympy.expand(self.through_ef(symmetric_quotient(a, b)) - quotient) == 0
            total = a_s * b_t + a_t * b_s
            assert sympy.expand(self.through_ef(symmetric_sum([(a, b)])) - total) == 0
        # lists of pairs: the sum over the pairs, each with its own denominators
        for _ in range(20):
            pairs = [(random_upoly(rng), random_upoly(rng)) for _ in range(rng.randint(1, 3))]
            total = sum(
                upoly_to_sympy(a, S) * upoly_to_sympy(b, T) + upoly_to_sympy(a, T) * upoly_to_sympy(b, S)
                for a, b in pairs
            )
            assert sympy.expand(self.through_ef(symmetric_sum(pairs)) - total) == 0


class TestCrossSystemOracle:
    """cross_double_point_system against sympy: each minor of the coordinate
    lists A, B is A_i(s)B_j(t) - A_j(s)B_i(t), for i < j in lexicographic order."""

    def test_seeded_coordinate_lists(self):
        rng = random.Random(5162)
        for _ in range(30):
            coords_a = [random_upoly(rng, 4) for _ in range(4)]
            coords_b = [random_upoly(rng, 4) for _ in range(4)]
            minors = cross_double_point_system(coords_a, coords_b)
            expected = [
                upoly_to_sympy(coords_a[i], S) * upoly_to_sympy(coords_b[j], T)
                - upoly_to_sympy(coords_a[j], S) * upoly_to_sympy(coords_b[i], T)
                for i in range(4)
                for j in range(i + 1, 4)
            ]
            assert len(minors) == 6
            for minor, value in zip(minors, expected):
                assert sympy.expand(bipoly_to_sympy(minor) - value) == 0


class TestAlgebraicValue:
    def test_identity_map(self):
        alpha = isolate_real_roots(UPoly([-2, 0, 1]))[1]
        beta = algebraic_value(alpha, UPoly.x(), UPoly.const(1))
        assert beta.equals(alpha)

    def test_square_collapses_to_rational(self):
        alpha = isolate_real_roots(UPoly([-2, 0, 1]))[1]
        beta = algebraic_value(alpha, UPoly.x() ** 2, UPoly.const(1))
        assert beta.equals(AlgebraicNumber.from_rational(2))

    def test_reciprocal(self):
        alpha = isolate_real_roots(UPoly([-2, 0, 1]))[1]  # sqrt 2
        beta = algebraic_value(alpha, UPoly.const(1), UPoly.x())  # 1/sqrt2
        gamma = algebraic_value(alpha, UPoly([0, Fraction(1, 2)]), UPoly.const(1))
        assert beta.equals(gamma)  # 1/sqrt2 == sqrt2/2

    def test_equality_decision_negative(self):
        roots = isolate_real_roots(UPoly([-2, 0, 1]))
        assert not roots[0].equals(roots[1])

    def test_common_root_of_num_and_den_at_another_root(self):
        # base sqrt 2 defined by (f^2 - 2)(f - 3): num and den share the root
        # f = 3 of the defining polynomial, so the first resultant vanishes
        # identically; the value is 1/(sqrt2 + 1) = sqrt2 - 1
        base = AlgebraicNumber(UPoly([-2, 0, 1]) * UPoly([-3, 1]), 1, 2)
        value = algebraic_value(base, UPoly([-3, 1]), UPoly([-3, 1]) * UPoly([1, 1]))
        assert value.sign_of_poly(UPoly([-1, 2, 1])) == 0  # y^2 + 2y - 1
        assert value.sign_of_poly(UPoly([Fraction(-41, 100), 1])) == 1
        assert value.sign_of_poly(UPoly([Fraction(-42, 100), 1])) == -1


@contextmanager
def time_limit(seconds: int):
    """Fail instead of hanging: raise TimeoutError after `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestRootAtAnIsolationEndpoint:
    # g = x(x^2 - 2) has the exact root 0; isolating it, a neighbouring open
    # interval ends at 0, which used to keep "which root of g is this?"
    # refining forever

    def test_equal_numbers_sharing_a_rational_root(self):
        X = UPoly.x()
        g = X * (X * X - 2)
        with time_limit(20):
            a = AlgebraicNumber(g * (X - 7), Fraction(-1, 2), 1)
            b = AlgebraicNumber(g * (X + 9), -1, Fraction(1, 2))
            assert a.equals(b)
            assert b.equals(a)

    def test_equality_decided_where_the_intervals_meet(self):
        X = UPoly.x()
        sqrt2 = AlgebraicNumber(X * X - 2, 1, Fraction(3, 2))
        # apart: the intervals meet in one point, or not at all
        assert not sqrt2.equals(AlgebraicNumber((X * X - 2) * (X - 3), Fraction(3, 2), 4))
        assert not sqrt2.equals(AlgebraicNumber((X * X - 2) * (X - 3), 2, 4))
        # a common factor, overlapping intervals, different roots
        wide = AlgebraicNumber(X * X - 2, 1, 2)
        assert not wide.equals(AlgebraicNumber((X * X - 2) * (X * X - 3), Fraction(3, 2), 2))
        assert sqrt2.equals(AlgebraicNumber((X * X - 2) * (X + 5), 0, 2))

    def test_value_on_an_exact_root_of_the_eliminant(self):
        # sqrt2^3 - 2 sqrt2 = 0, an exact root of the eliminant that an open
        # box of its isolation ends at
        X = UPoly.x()
        base = AlgebraicNumber((X * X - 2) * (X - 3) * (X + 3), 1, 2)
        with time_limit(20):
            value = algebraic_value(base, X**3 - 2 * X, UPoly.const(1))
        assert value.is_exact and value.exact_value == 0


def _collapsed_by_refine() -> AlgebraicNumber:
    # (2x - 1)(x^2 - 2) isolated on (0, 1): the first midpoint is the root
    number = AlgebraicNumber(UPoly([-2, 0, 1]) * UPoly([-1, 2]), 0, 1)
    number.refine()
    assert number.is_exact and number.defining.degree == 3
    return number


def _defined_by(root, *factors) -> AlgebraicNumber:
    # the exact number root, with a defining polynomial of higher degree
    p = UPoly([-root, 1])
    for f in factors:
        p = p * f
    return AlgebraicNumber(p, root, root)


SQRT2_IN_1_2 = lambda: AlgebraicNumber(UPoly([-2, 0, 1]), 1, 2)
HALF = lambda: AlgebraicNumber.from_rational(Fraction(1, 2))


@pytest.mark.parametrize(
    "make_a, make_b, expected",
    [
        pytest.param(HALF, lambda: AlgebraicNumber.from_rational(Fraction(2, 4)), True, id="exact-exact-equal"),
        pytest.param(HALF, lambda: AlgebraicNumber.from_rational(Fraction(-1, 2)), False, id="exact-exact-apart"),
        pytest.param(
            HALF,
            lambda: AlgebraicNumber(UPoly([-1, 2]) * UPoly([-2, 0, 1]), 0, 1),
            True,
            id="exact-inside-open",
        ),
        pytest.param(lambda: AlgebraicNumber.from_rational(Fraction(3, 2)), SQRT2_IN_1_2, False, id="exact-inside-other-root"),
        pytest.param(lambda: _defined_by(1, UPoly([-2, 0, 1])), SQRT2_IN_1_2, False, id="exact-at-low-end"),
        pytest.param(lambda: _defined_by(2, UPoly([-2, 0, 1])), SQRT2_IN_1_2, False, id="exact-at-high-end"),
        pytest.param(_collapsed_by_refine, HALF, True, id="refined-vs-rational-equal"),
        pytest.param(
            _collapsed_by_refine,
            lambda: AlgebraicNumber.from_rational(Fraction(1, 3)),
            False,
            id="refined-vs-rational-apart",
        ),
    ],
)
def test_equals_with_exact_numbers(make_a, make_b, expected):
    # one Sturm count where the intervals meet decides exact numbers too: an
    # exact number is a root of its defining polynomial, and an open
    # interval's endpoint is a root of no defining polynomial
    assert make_a().equals(make_b()) is expected
    assert make_b().equals(make_a()) is expected


class TestModularHelpers:
    def test_invert_mod(self):
        modulus = UPoly([-2, 0, 1])
        assert quotient_mod(UPoly.const(1), UPoly.x(), modulus) == UPoly([0, Fraction(1, 2)])
        assert quotient_mod(UPoly([3, 2]), UPoly([0, 0, 0, 1]), modulus) == UPoly([1, Fraction(3, 4)])
        with pytest.raises(InvalidInput):
            quotient_mod(UPoly.const(1), UPoly([2, 0, -1]), modulus)
        with pytest.raises(InvalidInput):
            quotient_mod(UPoly.const(1), UPoly.zero(), modulus)

    def test_quotient_mod_matches_sympy(self):
        # independent oracle: sympy's inverse modulo P and remainder over Q;
        # every fifth den shares a linear factor with P and must raise
        rng = random.Random(90)

        def draw(degree):
            lead = rng.choice([-1, 1]) * rng.randint(1, 9)
            return UPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree)] + [lead])

        shared = 0
        for case in range(40):
            modulus, num, den = draw(rng.randint(1, 6)), draw(rng.randint(0, 8)), draw(rng.randint(0, 8))
            if case % 5 == 0:
                factor = UPoly([rng.randint(-3, 3), 1])
                modulus, den = modulus * factor, den * factor
            P, D = to_sympy(modulus), to_sympy(den)
            if sympy.degree(sympy.gcd(P, D), x) > 0:
                shared += 1
                with pytest.raises(InvalidInput):
                    quotient_mod(num, den, modulus)
                continue
            ours = quotient_mod(num, den, modulus)
            assert ours.degree < modulus.degree
            expected = sympy.rem(sympy.expand(to_sympy(num) * sympy.invert(D, P)), P, x)
            assert sympy.expand(to_sympy(ours) - expected) == 0
        assert shared >= 8

    def test_gcd_of_minors(self):
        t = UPoly.x()
        # (t, t^2) is proportional to (1, t) everywhere: every minor vanishes
        assert gcd_of_minors([t, t * t], [UPoly.const(1), t]) is None
        # (t, 1) points along (2, 1) only at t = 2
        assert gcd_of_minors([t, UPoly.const(1)], [2, 1]) == UPoly([-2, 1])
        # (t, 1, 0) is never along (0, 0, 1): the scan ends at a constant
        one, zero = UPoly.const(1), UPoly.zero()
        assert gcd_of_minors([t, one, zero], [0, 0, 1]).degree == 0

    def test_det_rational_hand_value(self):
        # expansion along the third row gives 1 * det[[2,2,0],[0,0,2],[0,1,0]] = -4
        rows = [
            [Fraction(0), Fraction(2), Fraction(2), Fraction(0)],
            [Fraction(-2), Fraction(0), Fraction(0), Fraction(2)],
            [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
        ]
        assert det_rational(rows) == Fraction(-4)
        # a row scaled by 1/3 scales the determinant by 1/3
        rows[0] = [v / 3 for v in rows[0]]
        assert det_rational(rows) == Fraction(-4, 3)

    def test_sturm_chain_endpoints(self):
        chain = sturm_chain(UPoly([0, -1, 0, 1]))
        assert len(chain) >= 3


# -- the remainder sequence: gcds, Sturm chains, the modular inverse -----------


def ref_sturm_chain(p: UPoly) -> list[list[int]]:
    # the Sturm loop as it ran before the chain came from upoly._prs: each
    # member is minus the primitive part of the pseudo-remainder of the two
    # before it
    def prim(a):
        g = math.gcd(*a)
        return [v // g for v in a] if g > 1 else list(a)

    chain = [prim(list(p.ints))]
    d = prim([k * v for k, v in enumerate(chain[0])][1:])
    if not d:
        return chain
    chain.append(d)
    while True:
        r = prim(_pdivmod(chain[-2], chain[-1])[1])
        if not r:
            return chain
        chain.append([-v for v in r])


def _sympy_zz(p: UPoly):
    # p times its denominator, over ZZ: the same gcd up to a unit
    return sympy.Poly(list(reversed(p.ints)) or [0], x, domain=sympy.ZZ)


class TestRemainderSequenceOracle:
    @staticmethod
    def draw(rng, degree, bits=6):
        top = 2**bits
        coeffs = [rng.randint(-top, top) for _ in range(degree)]
        return UPoly(coeffs + [rng.choice([-1, 1]) * rng.randint(1, top)])

    def test_poly_gcd_matches_sympy(self):
        # sympy's gcd over ZZ, made primitive with a positive leading
        # coefficient, is the one gcd poly_gcd may return. Each pair runs in
        # both orders, so deg a < deg b is covered too
        rng = random.Random(1971)
        kinds = {"coprime": 0, "planted": 0, "huge": 0, "zero": 0, "constant": 0}
        planted_degrees = set()
        coprime = 0
        for case in range(240):
            kind = list(kinds)[case % len(kinds)]
            kinds[kind] += 1
            if kind == "coprime":
                a, b = self.draw(rng, rng.randint(1, 7)), self.draw(rng, rng.randint(1, 7))
            elif kind in ("planted", "huge"):
                k = rng.randint(1, 5)
                planted_degrees.add(k)
                bits = 70 if kind == "huge" else 6
                f = self.draw(rng, k, bits)
                a = f * self.draw(rng, rng.randint(0, 4), bits)
                b = f * self.draw(rng, rng.randint(0, 4), bits)
            elif kind == "zero":
                a, b = UPoly.zero(), self.draw(rng, rng.randint(0, 5)) * rng.randint(2, 9)
            else:
                a, b = UPoly.const(rng.randint(-9, 9) or 7), self.draw(rng, rng.randint(1, 5))
            if rng.random() < 0.3:
                a = a * Fraction(rng.randint(-20, 20) or 3, rng.randint(1, 12))
            for p, q in ((a, b), (b, a)):
                ours = poly_gcd(p, q)
                _content, expected = sympy.gcd(_sympy_zz(p), _sympy_zz(q)).primitive()
                if expected.LC() < 0:
                    expected = -expected
                assert ours == UPoly.from_ints([int(c) for c in reversed(expected.all_coeffs())])
                assert ours.lc > 0 and math.gcd(*ours.ints) == 1
            coprime += ours.degree == 0
        assert min(kinds.values()) >= 40 and coprime >= 40
        assert planted_degrees == {1, 2, 3, 4, 5}

    def test_poly_gcd_sees_huge_coefficients(self):
        # the planted factor's coefficients are beyond 2^64, and so is the gcd's
        rng = random.Random(64)
        f = self.draw(rng, 3, 90)
        g = poly_gcd(f * self.draw(rng, 4, 90), f * self.draw(rng, 2, 90))
        assert g == f.primitive() or g == -f.primitive()
        assert max(abs(v) for v in g.ints) > 2**64

    def test_sturm_chain_matches_the_loop_it_replaced(self):
        rng = random.Random(1829)
        repeated = 0
        for case in range(200):
            p = self.draw(rng, rng.randint(0, 6))
            if case % 3 == 0:
                # not square-free: a repeated factor, the chain ends at gcd(p, p')
                f = self.draw(rng, rng.randint(1, 2))
                p = p * f * f
                repeated += 1
            if case % 4 == 0:
                p = p * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            chain = sturm_chain(p)
            assert chain == ref_sturm_chain(p)
            if case % 3 == 0:
                assert len(chain[-1]) > 1
        assert repeated >= 60

    def test_quotient_mod_with_a_non_primitive_den(self):
        # den = 6(x + 1) and 4x^2/3: the integer content of den is not 1
        modulus = UPoly([-2, 0, 1])
        P = to_sympy(modulus)
        for den in (UPoly([6, 6]), UPoly([0, 0, Fraction(4, 3)]), UPoly([12, 0, 18, -6])):
            for num in (UPoly.const(1), UPoly([3, -5, 7])):
                ours = quotient_mod(num, den, modulus)
                assert ours.degree < modulus.degree
                expected = sympy.rem(sympy.expand(to_sympy(num) * sympy.invert(to_sympy(den), P)), P, x)
                assert sympy.expand(to_sympy(ours) - expected) == 0


# -- integer storage against the Fraction reference ----------------------------
#
# UPoly keeps integers over one denominator. The reference below is the
# Fraction arithmetic the class used to run, kept here as the oracle: every
# operation must give the same coefficients, and every Horner evaluation the
# same value, interval endpoints included.


def ref_norm(cs) -> tuple:
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b, sgn=1) -> tuple:
    n = max(len(a), len(b))
    pad = lambda cs, k: cs[k] if k < len(cs) else Fraction(0)
    return ref_norm(pad(a, k) + sgn * pad(b, k) for k in range(n))


def ref_mul(a, b) -> tuple:
    if not isinstance(b, tuple):
        return ref_norm(c * b for c in a)
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return ref_norm(out)


def ref_pow(a, n) -> tuple:
    out = (Fraction(1),)
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_derivative(a) -> tuple:
    return ref_norm(k * c for k, c in enumerate(a))[1:] if len(a) > 1 else ()


def ref_exact_div(a, b) -> tuple:
    # long division over Q; the remainder must vanish
    r, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k] = r[k + len(b) - 1] / b[-1]
        for i, v in enumerate(b):
            r[k + i] -= q[k] * v
    assert not any(r)
    return ref_norm(q)


def ref_horner(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_eval_interval(a, iv: Interval) -> Interval:
    acc = Interval.point(0)
    for c in reversed(a):
        acc = acc * iv + Interval.point(c)
    return acc


def mixed_fraction(rng) -> Fraction:
    # signed numerators over denominators of both signs, a zero now and then
    if rng.random() < 0.15:
        return Fraction(0)
    return Fraction(rng.randint(-40, 40), rng.choice([-12, -7, -4, -1, 1, 2, 3, 6, 9, 35]))


def mixed_upoly_coeffs(rng) -> list:
    shape = rng.random()
    if shape < 0.08:
        return []  # the zero polynomial
    if shape < 0.2:
        return [mixed_fraction(rng) or Fraction(5, -3)]  # a nonzero constant
    cs = [mixed_fraction(rng) for _ in range(rng.randint(2, 6))]
    if rng.random() < 0.2:
        cs += [Fraction(0)] * rng.randint(1, 2)  # trailing zeros are stripped
    return cs


def assert_canonical(p: UPoly) -> None:
    assert type(p.den) is int and p.den > 0
    assert all(type(v) is int for v in p.ints)
    assert math.gcd(p.den, *p.ints) == 1
    assert not p.ints or p.ints[-1] != 0


class TestIntegerUPolyOracle:
    def test_seeded_operations_match_fraction_arithmetic(self):
        rng = random.Random(20261019)
        scalars = [0, -1, 3, -7, Fraction(-2, 9), Fraction(5, -6), Fraction(14, 4)]
        checked = 0
        for _ in range(150):
            ca, cb = mixed_upoly_coeffs(rng), mixed_upoly_coeffs(rng)
            a, b = UPoly(ca), UPoly(cb)
            ra, rb = ref_norm(ca), ref_norm(cb)
            assert a.coeffs == ra and b.coeffs == rb
            results = [
                (a + b, ref_add(ra, rb)),
                (a - b, ref_add(ra, rb, -1)),
                (-a, ref_mul(ra, Fraction(-1))),
                (a * b, ref_mul(ra, rb)),
                (a ** 3, ref_pow(ra, 3)),
                (a.derivative(), ref_derivative(ra)),
            ]
            for c in scalars:
                results.append((a * c, ref_mul(ra, Fraction(c))))
                results.append((c * a, ref_mul(ra, Fraction(c))))
                results.append((a + c, ref_add(ra, (Fraction(c),))))
                results.append((c - a, ref_add((Fraction(c),), ra, -1)))
            if not b.is_zero:
                results.append(((a * b).exact_div(b), ra))
                results.append(((a * b).exact_div(b), ref_exact_div(ref_mul(ra, rb), rb)))
            for ours, expected in results:
                assert ours.coeffs == expected
                assert_canonical(ours)
                checked += 1
            for _ in range(4):
                x = mixed_fraction(rng)
                assert a(x) == ref_horner(ra, x)
                assert type(a(x)) is Fraction
        assert checked > 4000

    def test_integer_points_evaluate_like_fractions(self):
        rng = random.Random(7)
        for _ in range(60):
            cs = mixed_upoly_coeffs(rng)
            p = UPoly(cs)
            for x in (-3, 0, 1, 4):
                assert p(x) == ref_horner(ref_norm(cs), Fraction(x))

    def test_equal_polynomials_from_different_inputs(self):
        # one rational polynomial, reached six ways
        spellings = [
            UPoly([Fraction(1, 2), Fraction(-2, 3), 0, 1]),
            UPoly(["1/2", "-4/6", Fraction(0), Fraction(-3, -3), 0, 0]),
            UPoly.from_ints([3, -4, 0, 6], 6),
            UPoly.from_ints([-6, 8, 0, -12], -12),
            UPoly([1, Fraction(-4, 3), 0, 2]) * Fraction(1, 2),
            (UPoly([3, -4, 0, 6]) + UPoly([0, 0, 5, 1]) - UPoly([0, 0, 5, 1])) * Fraction(-1, -6),
        ]
        for p in spellings:
            assert_canonical(p)
            assert p == spellings[0] and hash(p) == hash(spellings[0])
        assert (p.ints, p.den) == ((3, -4, 0, 6), 6)
        zeros = [UPoly([]), UPoly([0, Fraction(0, 5)]), UPoly.from_ints([0, 0], -7), spellings[0] * 0]
        for z in zeros:
            assert z == UPoly.zero() and hash(z) == hash(UPoly.zero())
            assert (z.ints, z.den) == ((), 1)
        assert UPoly.const(Fraction(6, -4)) == UPoly.from_ints([9], -6)


def interval_cases(rng):
    yield Interval.point(Fraction(3, 7))  # point interval
    yield Interval.point(0)
    yield Interval(Fraction(-5, 3), Fraction(7, 4))  # straddles 0
    yield Interval(Fraction(-9, 2), Fraction(-1, 6))  # two negative endpoints
    yield Interval(Fraction(2, 9), Fraction(11, 10))  # different denominators
    yield Interval(Fraction(-1), Fraction(0))
    for _ in range(40):
        lo, hi = sorted((mixed_fraction(rng), mixed_fraction(rng)))
        yield Interval(lo, hi)


class TestIntervalIdentity:
    def test_eval_interval_endpoints_equal_fraction_horner(self):
        rng = random.Random(1019)
        for _ in range(80):
            cs = mixed_upoly_coeffs(rng)
            p, ref = UPoly(cs), ref_norm(cs)
            for iv in interval_cases(rng):
                ours, expected = p.eval_interval(iv), ref_eval_interval(ref, iv)
                assert (ours.lo, ours.hi) == (expected.lo, expected.hi)

    def test_sign_at_agrees_with_fraction_horner(self):
        rng = random.Random(2026)
        for _ in range(120):
            member = [rng.randint(-30, 30) for _ in range(rng.randint(1, 7))]
            for iv in interval_cases(rng):
                for x in (iv.lo, iv.hi, iv.mid):
                    assert _sign_at(member, x) == sign(ref_horner(member, x))
