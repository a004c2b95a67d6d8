"""Make the benchmark corpus: seeded curves, links, their images and families.

    python3 perfbench/corpus.py

rewrites every file under perfbench/corpus/ and its manifest.json (then
remake the oracle table with `python3 perfbench/oracle.py`). The curves, the
transforms and the shears come from this file's own seeded generator and its
own integer matrix arithmetic, never from the program's sampler, so a change
to `sample_random_curve` cannot change what the benchmark measures. The
program is used at generation time only to drop inputs it would reject
(validation) and to pick a fixed family center at which every grid member is
generic; the oracle is used to keep only inputs whose number of real double
points does not change with the center. The committed corpus is what runs.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = HERE / "corpus"
BUNDLED = ROOT / "src" / "encwrithe" / "data"

sys.path.insert(0, str(ROOT / "src"))
import encwrithe  # noqa: E402
import encwrithe.fileio  # noqa: E402
import oracle  # noqa: E402

CORPUS_SEED = 5162
TRANSFORM_BOUND = 2

# (degree, number of base curves, coefficient bound) for the knots workload
KNOT_PLAN = ((3, 5, 3), (4, 2, 3), (5, 1, 2))
# component degrees of the random links
LINK_PLAN = ((2, 3), (3, 3))
# knots base curves that carry a rigid-isotopy family for the scans workload,
# and the grid of each family; the quintic's grid is shorter so that a pass
# over the scans corpus stays short and a run holds several passes
FAMILY_BASES = {
    "d4a": ("-1", "-1/2", "0", "1/2", "1"),
    "d4b": ("-1", "-1/2", "0", "1/2", "1"),
    "d5a": ("-1/2", "0", "1/2"),
}
# degree 6 runs in scans only, at a fixed center: with a sampled center one
# degree-6 `writhe` costs 1 s to 9 s as the center changes the number of real
# double points, a swing no run of the time budget averages out. Its family
# has the one member tau = 0 (about 2.5 s), so that it stays the heaviest
# input without taking most of a pass.
SEXTIC = (6, 1, "d6a", ("0",))  # degree, coefficient bound, group, grid
# a random base or image is kept only if the oracle finds the same number of
# real double points (per component and per pair) from this many of its centers
STEADY_CENTERS = 16
DRAW_BUDGET = 400

Coords = list  # four integer coefficient lists, lowest degree first


# -- integer arithmetic ----------------------------------------------------------


def det_int(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in matrix]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def poly_add(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def trim(p: list[int]) -> list[int]:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def apply_matrix(matrix: list[list[int]], coords: Coords) -> Coords:
    """Image of a curve under a projective transform: each new coordinate is
    the row's combination of the old coordinate polynomials."""
    out = []
    for row in matrix:
        acc = [0]
        for entry, poly in zip(row, coords):
            acc = poly_add(acc, [entry * c for c in poly])
        out.append(trim(acc))
    return out


def degree(coords: Coords) -> int:
    return max(len(trim(p)) - 1 for p in coords)


def random_transform(rng: random.Random, want_sign: int) -> list[list[int]]:
    """Integer 4x4 matrix, entries in [-TRANSFORM_BOUND, TRANSFORM_BOUND],
    with a determinant of the requested sign."""
    while True:
        rows = [[rng.randint(-TRANSFORM_BOUND, TRANSFORM_BOUND) for _ in range(4)] for _ in range(4)]
        det = det_int(rows)
        if det != 0 and (det > 0) == (want_sign > 0):
            return rows


def random_curve(rng: random.Random, deg: int, bound: int) -> Coords:
    """Random integer quadruple of exact degree `deg` with w not zero."""
    while True:
        coords = [[rng.randint(-bound, bound) for _ in range(deg + 1)] for _ in range(4)]
        if degree(coords) == deg and any(coords[3]):
            return [trim(p) for p in coords]


def circle(center, u, v) -> Coords:
    """The circle center + cos(a) u + sin(a) v with cos, sin rational in t:
    X(t) = center (1 + t^2) + u (1 - t^2) + v (2 t), W(t) = 1 + t^2."""
    coords = [trim([c + a, 2 * b, c - a]) for c, a, b in zip(center, u, v)]
    return coords + [[1, 0, 1]]


# -- validity (program-side, generation time only) ----------------------------------


def is_valid_link(components: list[Coords], orientations=None) -> bool:
    try:
        link = encwrithe.Link([encwrithe.RationalSpaceCurve(*c) for c in components], orientations)
    except encwrithe.EncwritheError:
        return False
    return encwrithe.validate_link(link).valid


def is_steady(components: list[Coords], label: str) -> bool:
    """Does the number of real double points stay the same from every one of
    the oracle's STEADY_CENTERS centers?

    The cost of one `writhe` grows with the real double points of the
    projection the program samples. Keeping bases whose count the oracle sees
    unchanged removes the largest part of the swing in a run's work from one
    seed to the next, so the figures move with the program more than with
    the centers.
    """
    polys = oracle.components_of(components)
    rng = random.Random(f"{oracle.ORACLE_SEED}:{label}")
    counts, seen = None, 0
    for _ in range(oracle.CENTER_TRIES * STEADY_CENTERS):
        try:
            answer = oracle.invariants_at(polys, None, rng)
        except oracle.NotGeneric:
            continue
        if counts is not None and answer["counts"] != counts:
            return False
        counts, seen = answer["counts"], seen + 1
        if seen == STEADY_CENTERS:
            return True
    return False


def steady_link(rng: random.Random, degrees, bound: int, orientations, label: str) -> list[Coords]:
    for draw in range(DRAW_BUDGET):
        components = [random_curve(rng, d, bound) for d in degrees]
        if is_valid_link(components, orientations) and is_steady(components, f"{label}:{draw}"):
            print(f"{label}: draw {draw}", flush=True)
            return components
    raise RuntimeError(f"{label}: no valid steady link of degrees {degrees} in {DRAW_BUDGET} draws")


# -- files --------------------------------------------------------------------------


def link_lines(components: list[Coords], orientations=None) -> list[str]:
    header = {"kind": "link"}
    if orientations is not None:
        header["orientations"] = list(orientations)
    lines = [json.dumps(header)]
    for c in components:
        lines.append(json.dumps(dict(zip("xyzw", c))))
    return lines


def write_lines(relpath: str, lines: list[str]) -> None:
    path = CORPUS / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def add_group(entries, workload, group, components, orientations, rng, steady=True) -> None:
    """A base link plus its images under one det > 0 and one det < 0 transform.

    With `steady`, each transform is redrawn until its image passes the same
    steadiness test as the random bases (the fixed circle links skip it).
    """
    versions = [("base", components, None)]
    for role, want_sign in (("pos", +1), ("neg", -1)):
        for draw in range(DRAW_BUDGET):
            matrix = random_transform(rng, want_sign)
            image = [apply_matrix(matrix, c) for c in components]
            if not steady or is_steady(image, f"{group}_{role}:{draw}"):
                break
        else:
            raise RuntimeError(f"{group}: no steady {role} image in {DRAW_BUDGET} draws")
        versions.append((role, image, matrix))
    for role, comps, matrix in versions:
        relpath = f"{workload}/{group}_{role}.jsonl"
        write_lines(relpath, link_lines(comps, orientations))
        entries.append(
            {
                "file": relpath,
                "group": group,
                "role": role,
                "degrees": [degree(c) for c in comps],
                "orientations": list(orientations) if orientations else None,
                "transform": matrix,
            }
        )


# -- workloads ----------------------------------------------------------------------


def make_knots(rng: random.Random) -> tuple[list[dict], dict[str, Coords]]:
    entries, bases = [], {}
    for deg, count, bound in KNOT_PLAN:
        for k in range(count):
            group = f"d{deg}{'abcdefgh'[k]}"
            curve = steady_link(rng, [deg], bound, None, group)[0]
            bases[group] = curve
            add_group(entries, "knots", group, [curve], None, rng)
    return entries, bases


# three round circles: A in z = 0 links B in y = 0, B links C in x = 2, and
# A, C are unlinked; no two lie in parallel planes, so no two share a
# circular point at infinity and the link is disjoint over C
CIRCLE_A = circle((0, 0, 0), (1, 0, 0), (0, 1, 0))
CIRCLE_B = circle((1, 0, 0), (1, 0, 0), (0, 0, 1))
CIRCLE_C = circle((2, 0, 0), (0, 1, 0), (0, 0, 1))
CIRCLE_FAR = circle((10, 0, 0), (1, 0, 0), (0, 0, 1))


def make_links(rng: random.Random) -> list[dict]:
    entries: list[dict] = []
    add_group(entries, "links", "circles_linked", [CIRCLE_A, CIRCLE_B], (1, 1), rng, steady=False)
    add_group(entries, "links", "circles_apart", [CIRCLE_A, CIRCLE_FAR], (1, 1), rng, steady=False)
    add_group(entries, "links", "circles_chain", [CIRCLE_A, CIRCLE_B, CIRCLE_C], (1, -1, 1), rng, steady=False)
    for degs in LINK_PLAN:
        orientations = tuple(rng.choice((1, -1)) for _ in degs)
        group = "link" + "".join(map(str, degs))
        comps = steady_link(rng, degs, 2, orientations, group)
        add_group(entries, "links", group, comps, orientations, rng)
    return entries


def family_lines(coords: Coords, shear: tuple[int, int], center, grid) -> list[str]:
    """Family tau -> S(tau) coords with S(tau) the shear x_i += tau * x_j."""
    i, j = shear
    header = {
        "kind": "family",
        "parameter": "tau",
        "grid": list(grid),
        "center": [str(c) for c in center],
    }
    record = {}
    for r, key in enumerate("xyzw"):
        poly = coords[r]
        if r == i:
            other = coords[j]
            n = max(len(poly), len(other))
            poly = [
                _linear_entry(poly[k] if k < len(poly) else 0, other[k] if k < len(other) else 0)
                for k in range(n)
            ]
        record[key] = poly
    return [json.dumps(header), json.dumps(record)]


def _linear_entry(a: int, b: int):
    return a if b == 0 else f"{a} + ({b})*tau"


def _family_is_generic(relpath: str) -> bool:
    family = encwrithe.fileio.parse_curve_file(CORPUS / relpath)
    scan = encwrithe.scan_family(family.instantiate, family.grid, center=family.center)
    return all(m.status == "ok" for m in scan.members)


def make_scans(rng: random.Random, bases: dict[str, Coords]) -> list[dict]:
    entries = []
    for name, kind in (("model_family", "model"), ("wall_quartic_family", "quartic")):
        relpath = f"scans/{name}.jsonl"
        (CORPUS / "scans").mkdir(parents=True, exist_ok=True)
        shutil.copyfile(BUNDLED / f"{name}.jsonl", CORPUS / relpath)
        deg = 3 if kind == "model" else 4
        grid = json.loads((CORPUS / relpath).read_text().splitlines()[0])["grid"]
        entries.append({"file": relpath, "group": name, "kind": kind, "degrees": [deg], "grid": grid})
    degree6, bound6, group6, grid6 = SEXTIC
    bases[group6] = steady_link(rng, [degree6], bound6, None, group6)[0]
    families = list(FAMILY_BASES.items()) + [(group6, grid6)]
    for group, grid in families:
        moved = apply_matrix(random_transform(rng, +1), bases[group])
        i, j = rng.sample(range(4), 2)
        relpath = f"scans/{group}_shear.jsonl"
        for _ in range(100):
            center = [rng.randint(-3, 3) for _ in range(4)]
            if not any(center):
                continue
            write_lines(relpath, family_lines(moved, (i, j), center, grid))
            if _family_is_generic(relpath):
                break
        else:
            raise RuntimeError(f"no generic fixed center for the {group} family")
        entries.append(
            {
                "file": relpath,
                "group": group,
                "kind": "rigid",
                "degrees": [degree(bases[group])],
                "grid": list(grid),
                "shear": [i, j],
                "base": bases[group],
            }
        )
    return entries


def main() -> int:
    if CORPUS.exists():
        shutil.rmtree(CORPUS)
    rng = random.Random(CORPUS_SEED)
    knots, bases = make_knots(rng)
    links = make_links(rng)
    scans = make_scans(rng, bases)
    manifest = {"seed": CORPUS_SEED, "knots": knots, "links": links, "scans": scans}
    (CORPUS / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    for workload in ("knots", "links", "scans"):
        print(f"{workload}: {len(manifest[workload])} inputs")
    print("now remake the oracle table: python3 perfbench/oracle.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
