"""Triangular solving of zero-dimensional bivariate polynomial systems.

Every system in the pipeline is a list of bivariate polynomials whose
common zeros are finite in number (double points of a projection, or of
the space curve itself). The strategy is fixed:

  1. eliminate variable 0 from each pair by one subresultant chain
     (upoly._subresultants), which gives the pair's resultant and its
     degree-1 member,
  2. intersect: the true eliminant divides the gcd of all nonzero pairwise
     resultants, the running upoly.gcd_all, which stops the chains once it
     is constant (pairwise_eliminant),
  3. isolate the real roots of its square-free part,
  4. recover the eliminated coordinate from a degree-1 member u*x + v of a
     pair's chain, divided by its content over Z[f], as -v/u in the
     surviving coordinate modulo its defining polynomial (x - a for a
     rational root found by isolation, so an exact survivor is no special
     case); inputs linear in the eliminated coordinate are tried first.
     The roots of one eliminant share their defining polynomial, so -v/u
     is formed once per (member, defining polynomial) and shared,
  5. verify every candidate against *all* the input polynomials exactly,
     each reduced at the candidate root by TriangularRoot.substitute. The
     roots one call returns share one record of reductions: a polynomial
     is reduced once per (defining polynomial, completion), and the sign
     tests that follow read the same record. A defining polynomial split
     at one root is a new object with entries of its own; sign tests,
     refinements and zero tests stay per root.

Extraneous resultant roots are killed by step 5. Counting certificate: the
gcd degree is always >= the true solution count with multiplicity, so a
caller that knows the expected count can certify the configuration is
simple by a single degree comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .algnum import AlgebraicNumber, isolate_real_roots
from .bipoly import BiPoly
from .errors import DegenerateElimination
from .upoly import (
    UPoly,
    _iexact_div,
    _igcd_poly,
    _imul,
    _isub,
    _pdivmod,
    _subresultants,
    gcd_all,
    poly_gcd,
    quotient_mod,
    squarefree_part,
)


@dataclass
class TriangularRoot:
    """One real solution: `survivor` is a root of the eliminant and the
    eliminated coordinate equals `eliminated_poly(survivor)` exactly.

    `reductions` is the record of substitute results that solve_system
    shares among the roots it returns: roots with the same defining
    polynomial and completion reduce each polynomial once. It maps the ids
    of (defining polynomial, completion, p) to those three objects and the
    result; holding the objects keeps their ids from being reused."""

    survivor: AlgebraicNumber
    eliminated_poly: UPoly
    reductions: dict = field(default_factory=dict, repr=False, compare=False)

    def eliminated_interval(self):
        return self.eliminated_poly.eval_interval(self.survivor.interval())

    def substitute(self, p: BiPoly) -> UPoly:
        """p at this root as a polynomial in the survivor, of degree below
        that of the survivor's defining polynomial P: the eliminated coordinate
        is replaced by its polynomial in the survivor. Variable 0 of p is the
        eliminated coordinate, variable 1 the survivor (e and f, or s and t).

        Horner in the eliminated coordinate on integer lists, the value kept
        as A/D with D > 0: each pseudo-division of A by the primitive P
        (upoly._pdivmod) multiplies it by
        |lc P|^(deg A - deg P + 1), and D by the same; then both are divided
        by their common content. The result depends on P, the completion and
        p only, so it is looked up in, and entered into, `reductions`.
        """
        defining, completion = self.survivor.defining, self.eliminated_poly
        key = (id(defining), id(completion), id(p))
        entry = self.reductions.get(key)
        if entry is not None:
            return entry[-1]
        rows, dp = p.integer_rows(0)
        e, de = completion.ints, completion.den
        modulus = defining.int_primitive()
        lead = abs(modulus[-1])
        acc, den = [], 1
        for row in reversed(rows):
            den *= de
            acc = _isub(_imul(acc, e), [-den * v for v in row])
            if len(acc) >= len(modulus):
                den *= lead ** (len(acc) - len(modulus) + 1)
                acc = _pdivmod(acc, modulus)[1]
            g = math.gcd(den, *acc)
            acc, den = [v // g for v in acc], den // g
        out = UPoly.from_ints(acc, den * dp)
        self.reductions[key] = (defining, completion, p, out)
        return out

    def sign_of(self, p: BiPoly) -> int:
        """Certified sign of p at this root (variables as in `substitute`)."""
        return self.survivor.sign_of_poly(self.substitute(p))


@dataclass
class SystemSolution:
    """Real solution set of a bivariate system plus counting data."""

    roots: list[TriangularRoot]
    gcd_eliminant: UPoly
    squarefree_eliminant: UPoly
    # the first real eliminant root that no member completed and verified;
    # the solve stops there, so roots holds only the roots before it
    undecided: AlgebraicNumber | None = None

    @property
    def multiplicity_count(self) -> int:
        """Degree of the gcd eliminant: an upper bound that equals the true
        solution count with multiplicity exactly when the configuration is
        simple (no extraneous roots, distinct survivor coordinates)."""
        return max(self.gcd_eliminant.degree, 0)

    @property
    def distinct_count(self) -> int:
        return max(self.squarefree_eliminant.degree, 0)

    @property
    def is_simple(self) -> bool:
        return self.gcd_eliminant.degree == self.squarefree_eliminant.degree


def _completion_member(s1: list[list[int]]) -> tuple[UPoly, UPoly]:
    """(u, v) of a degree-1 chain member u*x + v, divided by its content over
    Z[f]: the integer content of both times their primitive gcd."""
    v, u = s1
    k = math.gcd(*u, *v)
    d = [k * c for c in _igcd_poly(u, v)]
    return UPoly.from_ints(_iexact_div(u, d)), UPoly.from_ints(_iexact_div(v, d))


def _eliminate(
    rows: list[list[list[int]]],
) -> tuple[UPoly | None, list[list[list[int]]]]:
    """(g, linear): one subresultant chain per pair of polynomials, each given
    by its integer_rows in variable 0.

    g is the gcd of the nonzero pairwise resultants, primitive, or None when
    every one vanishes identically; linear holds the degree-1 member of each
    pair's chain that has one, in pair order. Any common zero's survivor
    coordinate is a root of every nonzero pairwise resultant, so the gcd of a
    subset is still a sound (possibly larger) eliminant, and the scan stops
    as soon as g is constant.
    """
    linear = []

    def resultants():
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if len(rows[i]) == 1 and len(rows[j]) == 1:
                    # two constants in variable 0 have resultant 1, but the
                    # elimination ideal of the pair is generated by their gcd
                    yield poly_gcd(UPoly.from_ints(rows[i][0]), UPoly.from_ints(rows[j][0]))
                    continue
                res, s1 = _subresultants(rows[i], rows[j])
                if s1 is not None:
                    linear.append(s1)
                yield UPoly.from_ints(res).primitive()

    return gcd_all(resultants()), linear


def pairwise_eliminant(polys: list[BiPoly]) -> UPoly | None:
    """gcd of the nonzero pairwise resultants of polys eliminating variable 0,
    primitive; None when every pairwise resultant vanishes identically."""
    return _eliminate([p.integer_rows(0)[0] for p in polys])[0]


def solve_system(polys: list[BiPoly]) -> SystemSolution:
    """Solve a zero-dimensional bivariate system for its real points.

    Variable 0 is eliminated by resultants; the survivor coordinate of each
    root is variable 1. The solve stops at the first real eliminant root
    that cannot be completed and verified and returns it as `undecided`:
    it is never dropped as extraneous, since a real point may sit there.
    """
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise DegenerateElimination("all system polynomials vanish identically")
    for p in nonzero:
        if p.is_constant:
            empty = UPoly.const(1)
            return SystemSolution([], empty, empty)
    if len(nonzero) == 1:
        raise DegenerateElimination("single bivariate equation is not zero-dimensional")

    rows = [p.integer_rows(0)[0] for p in nonzero]
    g, linear = _eliminate(rows)
    if g is None:
        raise DegenerateElimination("every pairwise resultant vanishes identically")
    if g.degree <= 0:
        one = UPoly.const(1)
        return SystemSolution([], one, one)

    sf = squarefree_part(g)
    # an input polynomial linear in the eliminated variable is already a
    # completion relation; try those before the members of the chains
    members = [(UPoly.from_ints(r[1]), UPoly.from_ints(r[0])) for r in rows if len(r) == 2]
    members += [_completion_member(s1) for s1 in linear]

    # one completion per (member, defining polynomial) and one reduction per
    # (defining polynomial, completion, polynomial), shared by these roots
    completions: dict = {}
    reductions: dict = {}
    roots: list[TriangularRoot] = []
    for f0 in isolate_real_roots(sf):
        root = _complete_root(f0, nonzero, members, completions, reductions)
        if root is None:
            return SystemSolution(roots, g, sf, f0)
        roots.append(root)
    return SystemSolution(roots, g, sf)


def _complete_root(
    f0: AlgebraicNumber,
    polys: list[BiPoly],
    members: list[tuple[UPoly, UPoly]],
    completions: dict,
    reductions: dict,
) -> TriangularRoot | None:
    """The first member whose completion verifies at f0. completions maps
    (member index, id of the defining polynomial) to that polynomial and
    the completion -v/u modulo it; a split defining polynomial is a new
    object, so it never meets the entries of the one it came from."""
    for i, (u, v) in enumerate(members):
        if f0.sign_of_poly(u) == 0:
            continue
        f0.split_defining_coprime_to(u)
        key = (i, id(f0.defining))
        if key not in completions:
            completions[key] = (f0.defining, quotient_mod(-v, u, f0.defining))
        root = TriangularRoot(f0, completions[key][1], reductions)
        if all(f0.is_root_of(root.substitute(p)) for p in polys):
            return root
        # verification failed: this member's candidate is extraneous; try others
    return None


# -- system construction helpers ---------------------------------------------


def _ef_sequence(n: int, x0: int) -> list[dict[tuple[int, int], int]]:
    """x_0, ..., x_{n-1} of x_k = e*x_{k-1} - f*x_{k-2} with x_1 = e, as
    {(degree in e, degree in f): integer}. x0 = 1 gives the complete
    homogeneous sums h_k, x0 = 2 the power sums p_k = s^k + t^k."""
    seq = [{(0, 0): x0}, {(1, 0): 1}]
    while len(seq) < n:
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in seq[-1].items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + c
        for (i, j), c in seq[-2].items():
            nxt[(i, j + 1)] = nxt.get((i, j + 1), 0) - c
        seq.append({k: c for k, c in nxt.items() if c})
    return seq[:n]


def _ef_combination(
    groups: dict[tuple[int, int], int], seq: list[dict[tuple[int, int], int]], den: int
) -> BiPoly:
    """(1/den) * sum of c * f^j * seq[k] over groups {(k, j): c}, in (e, f)."""
    terms: dict[tuple[int, int], int] = {}
    for (k, j), c in groups.items():
        for (pe, pf), sc in seq[k].items():
            key = (pe, pf + j)
            terms[key] = terms.get(key, 0) + c * sc
    return BiPoly.from_ints(terms, den)


def symmetric_quotient(a: UPoly, b: UPoly) -> BiPoly:
    """Q_AB = (A(s)B(t) - A(t)B(s)) / (s - t), rewritten in (e, f) = (s + t, s*t).

    In closed form, Q_AB = sum over i > j of (a_i b_j - a_j b_i) f^j h_{i-j-1}
    with h_0 = 1, h_1 = e and h_k = e h_{k-1} - f h_{k-2}, since
    s^i t^j - s^j t^i = (st)^j (s^(i-j) - t^(i-j)). Variable 0 of the result
    is e, variable 1 is f.
    """
    ia, da = list(a.ints), a.den
    ib, db = list(b.ints), b.den
    n = max(len(ia), len(ib))
    ia += [0] * (n - len(ia))
    ib += [0] * (n - len(ib))
    groups: dict[tuple[int, int], int] = {}
    for i in range(1, n):
        for j in range(i):
            c = ia[i] * ib[j] - ia[j] * ib[i]
            if c:
                groups[(i - j - 1, j)] = c
    return _ef_combination(groups, _ef_sequence(n - 1, 1), da * db)


def symmetric_sum(pairs: Iterable[tuple[UPoly, UPoly]]) -> BiPoly:
    """Sum of A(s)B(t) + A(t)B(s) over the pairs (A, B), rewritten in
    (e, f) = (s + t, s*t).

    In closed form, sum over i, j of a_i b_j f^min(i, j) p_|i-j| with the
    power sums p_0 = 2, p_1 = e and p_k = e p_{k-1} - f p_{k-2}. Each pair
    is scaled to the common denominator. Variable 0 of the result is e,
    variable 1 is f.
    """
    pairs = list(pairs)
    den = math.lcm(*(a.den * b.den for a, b in pairs))
    groups: dict[tuple[int, int], int] = {}
    n = 0
    for a, b in pairs:
        scale = den // (a.den * b.den)
        n = max(n, len(a.ints), len(b.ints))
        for i, x in enumerate(a.ints):
            if x:
                for j, y in enumerate(b.ints):
                    if y:
                        key = (abs(i - j), min(i, j))
                        groups[key] = groups.get(key, 0) + scale * x * y
    return _ef_combination(groups, _ef_sequence(n, 2), den)


def symmetric_double_point_system(coords: list[UPoly]) -> list[BiPoly]:
    """Same-parametrization double-point system in (e, f) = (s + t, s*t).

    One equation Q_AB per coordinate pair: the coincidence minors, which vanish
    iff the evaluation vectors at s and t are proportional, divided by (s - t).
    Variable 0 of the result is e, variable 1 is f.
    """
    n = len(coords)
    return [
        symmetric_quotient(coords[i], coords[j])
        for i in range(n)
        for j in range(i + 1, n)
    ]


def cross_double_point_system(
    coords_a: list[UPoly], coords_b: list[UPoly]
) -> list[BiPoly]:
    """Two-parametrization coincidence system: the minors
    A_i(s)B_j(t) - A_j(s)B_i(t) of the coordinate lists A = coords_a and
    B = coords_b; variable 0 is the parameter on the first curve, variable 1
    the parameter on the second."""
    n = len(coords_a)
    return [
        BiPoly.outer([(coords_a[i], coords_b[j]), (-coords_a[j], coords_b[i])])
        for i in range(n)
        for j in range(i + 1, n)
    ]
