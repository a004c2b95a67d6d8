"""Triangular solving of zero-dimensional bivariate polynomial systems.

Every system in the pipeline is a list of bivariate polynomials whose
common zeros are finite in number (double points of a projection, or of
the space curve itself). The strategy is fixed:

  1. eliminate one variable by pairwise resultants,
  2. intersect: the true eliminant divides the gcd of all nonzero pairwise
     resultants,
  3. isolate the real roots of its square-free part,
  4. recover the eliminated coordinate from a linear subresultant member,
     as a polynomial in the surviving coordinate modulo its defining data,
  5. verify every candidate against *all* the input polynomials exactly.

Extraneous resultant roots are killed by step 5. Counting certificate: the
gcd degree is always >= the true solution count with multiplicity, so a
caller that knows the expected count can certify the configuration is
simple by a single degree comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algnum import AlgebraicNumber, isolate_real_roots
from .bipoly import BiPoly, resultant_bivariate
from .errors import DegenerateElimination
from .upoly import UPoly, invert_mod, poly_gcd, squarefree_part


@dataclass
class TriangularRoot:
    """One real solution: `survivor` is a root of the eliminant and the
    eliminated coordinate equals `eliminated_poly(survivor)` exactly."""

    survivor: AlgebraicNumber
    eliminated_poly: UPoly

    def eliminated_interval(self):
        return self.eliminated_poly.eval_interval(self.survivor.interval())

    def substitute(self, p: BiPoly) -> UPoly:
        """p with the eliminated coordinate replaced by its polynomial in the
        survivor, reduced modulo the survivor's defining polynomial. Variable 0
        of p is the eliminated coordinate, variable 1 the survivor (e and f,
        or s and t)."""
        f0 = self.survivor
        modulus = None if f0.is_exact else f0.defining
        return p.substitute_upoly(0, self.eliminated_poly, mod=modulus)

    def sign_of(self, p: BiPoly) -> int:
        """Certified sign of p at this root (variables as in `substitute`)."""
        return self.survivor.sign_of_poly(self.substitute(p))


@dataclass
class SystemSolution:
    """Real solution set of a bivariate system plus counting data."""

    roots: list[TriangularRoot]
    gcd_eliminant: UPoly
    squarefree_eliminant: UPoly
    eliminated_var: int

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


def _linear_prs_member(p: list[UPoly], q: list[UPoly]) -> tuple[UPoly, UPoly] | None:
    """Degree-1 member (u, v) ~ u*x + v of the primitive PRS of p, q in x.

    p, q are coefficient lists (low first, in the eliminated variable) over
    Q[f]. Returns None when the sequence skips degree 1.
    """

    def norm(c: list[UPoly]) -> list[UPoly]:
        while c and c[-1].is_zero:
            c.pop()
        return c

    def primitive(c: list[UPoly]) -> list[UPoly]:
        g = None
        for entry in c:
            if entry.is_zero:
                continue
            g = entry if g is None else poly_gcd(g, entry)
            if g.degree == 0:
                g = None
                break
        if g is None or g.degree == 0:
            return c
        return [entry.exact_div(g) if not entry.is_zero else entry for entry in c]

    def prem(a: list[UPoly], b: list[UPoly]) -> list[UPoly]:
        da, db = len(a) - 1, len(b) - 1
        lead = b[-1]
        r = list(a)
        while r and len(r) - 1 >= db:
            k = len(r) - 1 - db
            top = r[-1]
            r = [lead * c for c in r]
            for i in range(db + 1):
                r[k + i] = r[k + i] - top * b[i]
            r = norm(r)
        return r

    a, b = norm(list(p)), norm(list(q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        if len(b) - 1 == 1:
            return b[1], b[0]
        if len(b) - 1 == 0:
            return None
        r = primitive(prem(a, b))
        a, b = b, r
    return None


def solve_system(
    polys: list[BiPoly], eliminate: int, strict: bool = True
) -> SystemSolution:
    """Solve a zero-dimensional bivariate system for its real points.

    `eliminate` is the variable removed by resultants (0 or 1); the
    survivor coordinate of each root is the other one. With strict=True a
    real eliminant root that cannot be completed and verified raises
    DegenerateElimination; otherwise such roots are discarded as extraneous.
    """
    survivor_var = 1 - eliminate
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        raise DegenerateElimination("all system polynomials vanish identically")
    for p in nonzero:
        if p.is_constant:
            empty = UPoly.const(1)
            return SystemSolution([], empty, empty, eliminate)
    if len(nonzero) == 1:
        raise DegenerateElimination("single bivariate equation is not zero-dimensional")

    # incremental gcd of pairwise resultants; any true solution divides every
    # nonzero pairwise resultant, so a subset gcd is still a sound (possibly
    # larger) eliminant and we may stop as soon as it collapses to a constant
    g: UPoly | None = None
    saw_nonzero = False
    for i in range(len(nonzero)):
        if g is not None and g.degree == 0:
            break
        for j in range(i + 1, len(nonzero)):
            pi, pj = nonzero[i], nonzero[j]
            if pi.degree_in(eliminate) == 0 and pj.degree_in(eliminate) == 0:
                # the Sylvester matrix of two constants is empty (resultant 1),
                # but the elimination ideal of the pair is generated by the gcd
                r = poly_gcd(pi.to_upoly(survivor_var), pj.to_upoly(survivor_var))
            else:
                r = resultant_bivariate(pi, pj, eliminate)
            if r.is_zero:
                continue
            saw_nonzero = True
            r = r.primitive()
            g = r if g is None else poly_gcd(g, r)
            if g.degree == 0:
                break
    if not saw_nonzero:
        raise DegenerateElimination("every pairwise resultant vanishes identically")
    if g.degree <= 0:
        one = UPoly.const(1)
        return SystemSolution([], one, one, eliminate)

    sf = squarefree_part(g)
    coeff_lists = [p.as_univar_in(eliminate) for p in nonzero]
    members = []
    # an input polynomial linear in the eliminated variable is already a
    # completion relation; prefer those before any PRS computation
    for coeffs in coeff_lists:
        if len(coeffs) - 1 == 1:
            members.append((coeffs[1], coeffs[0]))
    for i in range(len(nonzero)):
        for j in range(i + 1, len(nonzero)):
            member = _linear_prs_member(coeff_lists[i], coeff_lists[j])
            if member is not None:
                members.append(member)

    roots: list[TriangularRoot] = []
    for f0 in isolate_real_roots(sf):
        record = _complete_root(f0, nonzero, members, eliminate)
        if record is None:
            if strict:
                raise DegenerateElimination(
                    "real eliminant root could not be completed and verified"
                )
            continue
        roots.append(record)
    return SystemSolution(roots, g, sf, eliminate)


def _complete_root(
    f0: AlgebraicNumber,
    polys: list[BiPoly],
    members: list[tuple[UPoly, UPoly]],
    eliminate: int,
) -> TriangularRoot | None:
    for u, v in members:
        if f0.sign_of_poly(u) == 0:
            continue
        if f0.is_exact:
            e_poly = UPoly.const(-v(f0.exact_value) / u(f0.exact_value))
        else:
            f0.split_defining_coprime_to(u)
            e_poly = (-v * invert_mod(u, f0.defining)) % f0.defining
        if _verify_candidate(f0, e_poly, polys, eliminate):
            return TriangularRoot(f0, e_poly)
        # verification failed: this member's candidate is extraneous; try others
    return None


def _verify_candidate(
    f0: AlgebraicNumber, e_poly: UPoly, polys: list[BiPoly], eliminate: int
) -> bool:
    modulus = None if f0.is_exact else f0.defining
    for p in polys:
        reduced = p.substitute_upoly(eliminate, e_poly, mod=modulus)
        if not f0.is_root_of(reduced):
            return False
    return True


# -- system construction helpers ---------------------------------------------


def symmetric_quotient(a: UPoly, b: UPoly) -> BiPoly:
    """Q_AB = (A(s)B(t) - A(t)B(s)) / (s - t), rewritten in (e, f) = (s + t, s*t).

    The minor vanishes on the diagonal, so the quotient is exact, and it is
    symmetric in (s, t). Variable 0 of the result is e, variable 1 is f.
    """
    a_s, a_t = BiPoly.from_upoly(a, 0), BiPoly.from_upoly(a, 1)
    b_s, b_t = BiPoly.from_upoly(b, 0), BiPoly.from_upoly(b, 1)
    return (a_s * b_t - a_t * b_s).exact_div_s_minus_t().symmetric_in_ef()


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
    """Two-parametrization coincidence system; variable 0 is the parameter on
    the first curve, variable 1 the parameter on the second."""
    out = []
    n = len(coords_a)
    for i in range(n):
        for j in range(i + 1, n):
            a_s = BiPoly.from_upoly(coords_a[i], 0)
            b_s = BiPoly.from_upoly(coords_a[j], 0)
            a_t = BiPoly.from_upoly(coords_b[i], 1)
            b_t = BiPoly.from_upoly(coords_b[j], 1)
            out.append(a_s * b_t - a_t * b_s)
    return out
