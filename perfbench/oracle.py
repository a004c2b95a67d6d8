"""Independent oracle for the benchmark's expected answers.

    python3 perfbench/oracle.py

Computes the encomplexed writhe Cw, the oriented writhe and the linking
matrix of every base input of the corpus, and the Cw of the two bundled
families on either side of their wall, straight from the definitions, and
writes perfbench/oracle.json. It shares no code with encwrithe: exact
elimination is done with sympy resultants, roots are found with mpmath at
high precision, and each local sign is the sign of its defining determinant.

Cw does not depend on the center, so the oracle projects from centers of its
own, drawn from its own generator, and moves each to (0 : 0 : 1 : 0) by a
transform of positive determinant. Every answer is computed at two such
centers and must agree. Before it writes anything, the oracle reproduces the
golden anchors: the model cubic gives -1 at tau = -1 and at tau = +1, the
bundled linked circles give |lk| = 1 and the separated circles lk = 0.

Conventions, as in the program's documentation: in the affine chart W = 1
with basis along (x, y, z) and projection along z, a crossing with chart
points a, b and velocities v at a, w at b has sign det[v; b - a; w]. At a
solitary point, of the two conjugate preimages take t with Im z(t) > 0; with
u = (x'(t), y'(t)) the local writhe is the sign of the real 4x4 determinant
with rows u, i u, e_x, e_y in coordinates (Re x, Im x, Re y, Im y).
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import sympy as sp

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "corpus"
TABLE = HERE / "oracle.json"

ORACLE_SEED = 1729
CENTER_TRIES = 40
DIGITS = 60

s_, t_, e_, f_, tau_ = sp.symbols("s t e f tau")
mpmath.mp.dps = DIGITS
TINY = mpmath.mpf(10) ** (-DIGITS // 2)


class NotGeneric(Exception):
    """The oracle's own center is not generic for this link; draw another."""


# -- input ----------------------------------------------------------------------


def _coefficient(entry, tau_value):
    if isinstance(entry, int):
        return sp.Integer(entry)
    value = sp.sympify(entry, locals={"tau": tau_})
    if tau_value is not None:
        value = value.subs(tau_, tau_value)
    return sp.nsimplify(value, rational=True)


def read_link(relpath: str, tau_value=None) -> tuple[list[list[sp.Poly]], list[int] | None]:
    """Components as four sympy polynomials in t, and the orientation flags."""
    lines = [json.loads(x) for x in (CORPUS / relpath).read_text().splitlines() if x.strip()]
    header, records = lines[0], lines[1:]
    coefficient_lists = [[[_coefficient(c, tau_value) for c in record[key]] for key in "xyzw"] for record in records]
    return components_of(coefficient_lists), header.get("orientations")


def components_of(coefficient_lists) -> list[list[sp.Poly]]:
    """Components given as four coefficient lists each, lowest degree first."""
    return [
        [sp.Poly(sum(sp.Rational(c) * t_**k for k, c in enumerate(coeffs)), t_, domain="QQ") for coeffs in coords]
        for coords in coefficient_lists
    ]


# -- exact algebra ----------------------------------------------------------------


def frame(rng: random.Random, center: list[int]) -> sp.Matrix:
    """A rational transform of positive determinant taking center to (0:0:1:0)."""
    while True:
        cols = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)]
        m = sp.Matrix([cols[0], cols[1], center, cols[2]]).T
        det = m.det()
        if det == 0:
            continue
        if det < 0:
            m = sp.Matrix([cols[1], cols[0], center, cols[2]]).T
        return m.inv()


def transform(matrix: sp.Matrix, coords: list[sp.Poly]) -> list[sp.Poly]:
    return [sum((coords[j] * matrix[i, j] for j in range(4)), sp.Poly(0, t_, domain="QQ")) for i in range(4)]


def at(poly: sp.Poly, var) -> sp.Poly:
    return sp.Poly(poly.as_expr().subs(t_, var), var, domain="QQ")


def to_elementary(q: sp.Poly) -> sp.Poly:
    """A symmetric polynomial in (s, t) rewritten in e = s + t, f = s t."""
    out = sp.Poly(0, e_, f_, domain="QQ")
    e_st = sp.Poly(s_ + t_, s_, t_, domain="QQ")
    f_st = sp.Poly(s_ * t_, s_, t_, domain="QQ")
    while not q.is_zero:
        (a, b), c = q.terms()[0]  # lex leading term s^a t^b, a >= b by symmetry
        if a < b:
            raise ValueError("polynomial is not symmetric")
        out += sp.Poly(c * e_ ** (a - b) * f_**b, e_, f_, domain="QQ")
        q -= e_st ** (a - b) * f_st**b * c
    return out


def eliminant(system: list[sp.Poly], var, keep) -> sp.Poly:
    """gcd of the pairwise resultants eliminating `var`, as a polynomial in `keep`."""
    g = None
    for i in range(len(system)):
        for j in range(i + 1, len(system)):
            r = sp.Poly(sp.resultant(system[i].as_expr(), system[j].as_expr(), var), keep, domain="QQ")
            if r.is_zero:
                continue
            g = r if g is None else sp.gcd(g, r)
            if g.degree() == 0:
                return g
    if g is None:
        raise NotGeneric("every resultant vanishes")
    return g


# -- numerics ----------------------------------------------------------------------


def mp_of(c) -> mpmath.mpf:
    c = sp.Rational(c)
    return mpmath.mpf(int(c.p)) / int(c.q)


def real_roots(g: sp.Poly) -> list[mpmath.mpf]:
    coeffs = [mp_of(c) for c in g.all_coeffs()]
    roots = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=4 * DIGITS)
    out = []
    for r in roots:
        if abs(mpmath.im(r)) <= TINY * max(1, abs(r)):
            out.append(mpmath.re(r))
    return out


def evaluate(poly: sp.Poly, point: dict) -> mpmath.mpc:
    """Value of a polynomial at a numeric point {symbol: number}."""
    return terms_at(poly, point)[0]


def terms_at(poly: sp.Poly, point: dict) -> tuple[mpmath.mpc, mpmath.mpf]:
    """(value, sum of the absolute values of the terms) at a numeric point."""
    total, scale = mpmath.mpc(0), mpmath.mpf(0)
    for monom, c in poly.terms():
        term = mp_of(c)
        for g, k in zip(poly.gens, monom):
            term *= point[g] ** k
        total += term
        scale += abs(term)
    return total, scale


def relative_residual(system: list[sp.Poly], point: dict) -> mpmath.mpf:
    worst = mpmath.mpf(0)
    for p in system:
        value, scale = terms_at(p, point)
        if scale:
            worst = max(worst, abs(value) / scale)
    return worst


def partner(system: list[sp.Poly], var, keep, value) -> mpmath.mpf:
    """The unique real value of `var` completing `keep = value` in the system."""
    candidates = None
    for p in system:
        coeffs = [evaluate(sp.Poly(c, keep, domain="QQ"), {keep: value}) for c in sp.Poly(p.as_expr(), var).all_coeffs()]
        top = max(abs(c) for c in coeffs)
        while coeffs and abs(coeffs[0]) <= TINY * top:
            coeffs.pop(0)
        if len(coeffs) >= 2:
            candidates = mpmath.polyroots(coeffs, maxsteps=2000, extraprec=4 * DIGITS)
            break
    if candidates is None:
        raise NotGeneric("no equation determines the partner coordinate")
    scored = sorted(
        ((relative_residual(system, {var: c, keep: value}), c) for c in candidates),
        key=lambda pair: pair[0],
    )
    if scored[0][0] > TINY or (len(scored) > 1 and scored[1][0] <= TINY):
        raise NotGeneric("partner coordinate is not unique")
    found = scored[0][1]
    if abs(mpmath.im(found)) > TINY * max(1, abs(found)):
        raise NotGeneric("real survivor with an imaginary partner")
    return mpmath.re(found)


class Chart:
    """One component in the affine chart W = 1: position and velocity."""

    def __init__(self, coords: list[sp.Poly]):
        self.coords = coords
        self.derivs = [p.diff(t_) for p in coords]

    def point(self, u):
        X, Y, Z, W = (evaluate(p, {t_: u}) for p in self.coords)
        if abs(W) <= TINY * (abs(X) + abs(Y) + abs(Z) + abs(W)):
            raise NotGeneric("double point outside the affine chart")
        return [X / W, Y / W, Z / W]

    def velocity(self, u):
        vals = [evaluate(p, {t_: u}) for p in self.coords]
        ders = [evaluate(p, {t_: u}) for p in self.derivs]
        W, dW = vals[3], ders[3]
        return [(ders[k] * W - vals[k] * dW) / W**2 for k in range(3)]


def det_sign(rows) -> int:
    m = mpmath.matrix([[mpmath.re(x) for x in row] for row in rows])
    scale = 1
    for row in rows:
        scale *= max(1, max(abs(x) for x in row))
    d = mpmath.det(m)
    if abs(d) <= TINY * scale:
        raise NotGeneric("degenerate local frame")
    return 1 if d > 0 else -1


def crossing_sign(chart_a: Chart, a, chart_b: Chart, b) -> int:
    pa, pb = chart_a.point(a), chart_b.point(b)
    chord = [pb[k] - pa[k] for k in range(3)]
    return det_sign([chart_a.velocity(a), chord, chart_b.velocity(b)])


def solitary_sign(chart: Chart, e0, f0) -> int:
    root = mpmath.sqrt(4 * f0 - e0**2)
    for t0 in ((e0 + 1j * root) / 2, (e0 - 1j * root) / 2):
        z = chart.point(t0)[2]
        if abs(mpmath.im(z)) <= TINY:
            raise NotGeneric("solitary fiber with real z")
        if mpmath.im(z) > 0:
            u1, u2 = chart.velocity(t0)[:2]
            rows = [
                [mpmath.re(u1), mpmath.im(u1), mpmath.re(u2), mpmath.im(u2)],
                [-mpmath.im(u1), mpmath.re(u1), -mpmath.im(u2), mpmath.re(u2)],
                [1, 0, 0, 0],
                [0, 0, 1, 0],
            ]
            return det_sign(rows)
    raise AssertionError("one of two conjugate preimages has Im z > 0")


# -- double points --------------------------------------------------------------


def minors(first: list[sp.Poly], second: list[sp.Poly]) -> list[sp.Poly]:
    """2x2 minors of the projected triples (X, Y, W); zero iff the images agree."""
    out = []
    for i, j in ((0, 1), (0, 3), (1, 3)):
        out.append(first[i] * second[j] - first[j] * second[i])
    return out


def same_component(coords: list[sp.Poly]) -> list[tuple[int, tuple]]:
    """Signed real double points of one component: [(sign, image)]."""
    degree = max(p.degree() for p in coords)
    expected = (degree - 1) * (degree - 2) // 2
    cs = [sp.Poly(at(p, s_).as_expr(), s_, t_, domain="QQ") for p in coords]
    ct = [sp.Poly(at(p, t_).as_expr(), s_, t_, domain="QQ") for p in coords]
    diff = sp.Poly(s_ - t_, s_, t_, domain="QQ")
    system = []
    for m in minors(cs, ct):
        if m.is_zero:
            continue
        quotient, remainder = sp.div(m, diff)
        assert remainder.is_zero
        system.append(to_elementary(quotient))
    if expected == 0:
        return []
    g = eliminant(system, f_, e_)
    if g.degree() != expected or sp.gcd(g, g.diff(e_)).degree() != 0:
        raise NotGeneric(f"e-eliminant of degree {g.degree()}, expected {expected} simple roots")
    chart = Chart(coords)
    out = []
    for e0 in real_roots(g):
        f0 = partner(system, f_, e_, e0)
        disc = e0**2 - 4 * f0
        if abs(disc) <= TINY:
            raise NotGeneric("tangential pair")
        if disc > 0:
            a, b = (e0 - mpmath.sqrt(disc)) / 2, (e0 + mpmath.sqrt(disc)) / 2
            sign = crossing_sign(chart, a, chart, b)
            image = chart.point(a)[:2]
        else:
            sign = solitary_sign(chart, e0, f0)
            image = chart.point((e0 + 1j * mpmath.sqrt(-disc)) / 2)[:2]
        out.append((sign, tuple(mpmath.re(x) for x in image)))
    return out


def inter_component(ca: list[sp.Poly], cb: list[sp.Poly]) -> list[tuple[int, tuple]]:
    """Signed real crossings between two components: [(sign, image)]."""
    expected = max(p.degree() for p in ca) * max(p.degree() for p in cb)
    sa = [sp.Poly(at(p, s_).as_expr(), s_, t_, domain="QQ") for p in ca]
    tb = [sp.Poly(at(p, t_).as_expr(), s_, t_, domain="QQ") for p in cb]
    system = [m for m in minors(sa, tb) if not m.is_zero]
    g = eliminant(system, s_, t_)
    if g.degree() != expected or sp.gcd(g, g.diff(t_)).degree() != 0:
        raise NotGeneric(f"t-eliminant of degree {g.degree()}, expected {expected} simple roots")
    chart_a, chart_b = Chart(ca), Chart(cb)
    out = []
    for t0 in real_roots(g):
        s0 = partner(system, s_, t_, t0)
        out.append((crossing_sign(chart_a, s0, chart_b, t0), tuple(chart_a.point(s0)[:2])))
    return out


def invariants_at(components, orientations, rng: random.Random) -> dict:
    """Cw, oriented writhe and linking matrix from one generic center."""
    center = [rng.randint(-5, 5) for _ in range(4)]
    if not any(center):
        raise NotGeneric("zero center")
    matrix = frame(rng, center)
    moved = [transform(matrix, c) for c in components]
    n = len(moved)
    images = []
    counts = []  # real double points per component, then per pair
    cw = 0
    for c in moved:
        points = same_component(c)
        counts.append(len(points))
        for sign, image in points:
            cw += sign
            images.append(image)
    twice_lk = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            points = inter_component(moved[i], moved[j])
            counts.append(len(points))
            for sign, image in points:
                flag = orientations[i] * orientations[j] if orientations else 1
                twice_lk[i][j] += sign * flag
                twice_lk[j][i] += sign * flag
                images.append(image)
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            gap = max(abs(images[a][k] - images[b][k]) for k in range(2))
            if gap <= TINY * max(1, *(abs(x) for x in images[a] + images[b])):
                raise NotGeneric("two double points share an image")
    row = {"cw": cw, "center": center, "counts": counts}
    if orientations:
        lk = [[Fraction(v, 2) for v in r] for r in twice_lk]
        row["oriented"] = cw + sum(twice_lk[i][j] for i in range(n) for j in range(i + 1, n))
        row["linking"] = [[str(v) for v in r] for r in lk]
    return row


def invariants(components, orientations, label: str) -> dict:
    """The invariants, computed at two independent generic centers that must agree."""
    rng = random.Random(f"{ORACLE_SEED}:{label}")
    answers = []
    for _ in range(CENTER_TRIES):
        try:
            answers.append(invariants_at(components, orientations, rng))
        except NotGeneric:
            continue
        if len(answers) == 2:
            break
    if len(answers) < 2:
        raise NotGeneric(f"{label}: fewer than two generic centers in {CENTER_TRIES} draws")
    first, second = ({k: v for k, v in a.items() if k not in ("center", "counts")} for a in answers)
    if first != second:
        raise RuntimeError(f"{label}: answers differ between centers: {answers}")
    first["centers"] = [a["center"] for a in answers]
    return first


# -- table --------------------------------------------------------------------------


def golden_anchors() -> None:
    model = "scans/model_family.jsonl"
    for tau in (-1, 1):
        cw = invariants(*read_link(model, sp.Integer(tau)), f"anchor model {tau}")["cw"]
        if cw != -1:
            raise SystemExit(f"oracle: model cubic at tau = {tau} gives {cw}, not -1")
    linked = invariants(*read_link("links/circles_linked_base.jsonl"), "anchor linked")
    if abs(Fraction(linked["linking"][0][1])) != 1:
        raise SystemExit(f"oracle: linked circles give lk = {linked['linking'][0][1]}, not +-1")
    apart = invariants(*read_link("links/circles_apart_base.jsonl"), "anchor apart")
    if Fraction(apart["linking"][0][1]) != 0:
        raise SystemExit(f"oracle: separated circles give lk = {apart['linking'][0][1]}, not 0")
    print("golden anchors reproduced: model cubic -1, -1; linked circles |lk| = 1; separated lk = 0")


def main() -> int:
    golden_anchors()
    manifest = json.loads((CORPUS / "manifest.json").read_text())
    table: dict = {}
    unreachable = []
    for workload in ("knots", "links"):
        for entry in manifest[workload]:
            if entry["role"] != "base":
                continue
            try:
                table[entry["group"]] = invariants(*read_link(entry["file"]), entry["group"])
            except NotGeneric as exc:
                unreachable.append(f"{entry['group']}: {exc}")
                continue
            print(entry["group"], {k: v for k, v in table[entry["group"]].items() if k != "centers"}, flush=True)
    for entry in manifest["scans"]:
        group = entry["group"]
        if entry["kind"] == "rigid":
            # a rigid family keeps the Cw of its base curve, listed in the manifest
            if group not in table:
                table[group] = invariants(components_of([entry["base"]]), None, group)
                print(group, table[group]["cw"], flush=True)
            continue
        sides = {}
        for side, tau in (("below", -1), ("above", 1)):
            sides[side] = invariants(*read_link(entry["file"], sp.Integer(tau)), f"{group} {tau}")["cw"]
        table[group] = sides
        print(group, sides, flush=True)
    table["_unreachable"] = unreachable
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {TABLE.name}; unreachable: {unreachable or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
