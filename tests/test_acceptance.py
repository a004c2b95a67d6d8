"""Acceptance suite.

Each test is one acceptance criterion, checked exactly (integer equality,
no tolerances) and reporting a single PASS line on success. Criteria with
stated runtime budgets assert them.
"""

import time
from fractions import Fraction

import pytest

from encwrithe.curves import Link, RationalSpaceCurve, sample_random_curve
from encwrithe.data import (
    linked_circles,
    model_family,
    model_link,
    separated_circles,
    wall_quartic_family,
)
from encwrithe.projection import (
    CANONICAL_CENTER,
    LocusKind,
    analyze_projection,
    sample_generic_center,
)
from encwrithe.verify import (
    random_transform,
    scan_family,
    verify_center_independence,
    verify_isotopy_invariance,
    verify_parity_bounds,
)
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


def report(line: str) -> None:
    print(f"ACCEPTANCE {line}")


def big_linked_pair() -> Link:
    # radius-2 circle in z = 0 linked with a unit circle in y = 0 around (2,0,0)
    a = RationalSpaceCurve([2, 0, -2], [0, 4], [0], [1, 0, 1])
    b = RationalSpaceCurve([3, 0, 1], [0], [0, 2], [1, 0, 1])
    return Link([a, b], orientations=[1, 1])


def test_criterion_1_golden_signs():
    """Model curve tau = -1: one crossing, sign -1; tau = +1: one solitary,
    sign -1. Runtime under a second each."""
    t0 = time.monotonic()
    crossing = build_diagram(model_link(-1), CANONICAL_CENTER)
    t_crossing = time.monotonic() - t0
    assert [l.kind for l in crossing.loci] == [LocusKind.CROSSING]
    assert [l.raw_sign for l in crossing.loci] == [-1]

    t0 = time.monotonic()
    solitary = build_diagram(model_link(1), CANONICAL_CENTER)
    t_solitary = time.monotonic() - t0
    assert [l.kind for l in solitary.loci] == [LocusKind.SOLITARY]
    assert [l.raw_sign for l in solitary.loci] == [-1]

    assert t_crossing < 1.0 and t_solitary < 1.0
    report(
        "1 PASS golden signs: crossing -1 "
        f"({t_crossing:.3f}s), solitary -1 ({t_solitary:.3f}s)"
    )


def test_criterion_2_first_move_invariance():
    """Cw = -1 across the whole model grid, under 10 seconds."""
    t0 = time.monotonic()
    values = {}
    for tau in ("-2", "-1", "-1/2", "1/2", "1", "2"):
        values[tau] = writhe_unoriented(
            build_diagram(model_link(Fraction(tau)), CANONICAL_CENTER)
        )
    elapsed = time.monotonic() - t0
    assert set(values.values()) == {-1}, values
    assert elapsed < 10.0
    report(f"2 PASS first-move invariance: Cw = -1 on all 6 members ({elapsed:.2f}s)")


def test_criterion_3_projection_independence():
    """Five curves of degrees 3..5, twenty generic centers each, one value."""
    t0 = time.monotonic()
    corpus = [(3, 11), (3, 23), (4, 11), (4, 37), (5, 11)]
    summaries = []
    for degree, seed in corpus:
        link = Link([sample_random_curve(degree, seed=seed)])
        run = verify_center_independence(link, n=20, seed=degree * 100 + seed)
        assert run.passed, run.detail
        values = {t["writhe"] for t in run.trials}
        assert len(values) == 1
        summaries.append(f"d{degree}/s{seed}:Cw={values.pop()}")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(f"3 PASS projection independence: {', '.join(summaries)} ({elapsed:.1f}s)")


def test_criterion_4_isotopy_and_mirror():
    """Twenty det>0 transforms preserve Cw, twenty det<0 negate it."""
    t0 = time.monotonic()
    run = verify_isotopy_invariance(model_link(-1), n=20, seed=0)
    elapsed = time.monotonic() - t0
    assert run.passed, run.detail
    positives = [t for t in run.trials if t.get("det_sign") == 1]
    negatives = [t for t in run.trials if t.get("det_sign") == -1]
    assert len(positives) == 20 and len(negatives) == 20
    assert {t["writhe"] for t in positives} == {-1}
    assert {t["writhe"] for t in negatives} == {1}
    assert elapsed < 300.0
    report(
        "4 PASS rigid isotopy + mirror: 20 preserving, 20 negating "
        f"({elapsed:.1f}s)"
    )


def test_criterion_5_double_point_count():
    """Complex double points with multiplicity equal (d-1)(d-2)/2."""
    got = {}
    for degree, expected in ((3, 1), (4, 3), (5, 6)):
        link = Link([sample_random_curve(degree, seed=11)])
        analysis = sample_generic_center(link, seed=2)
        got[degree] = analysis.complex_double_point_counts[0]
        assert got[degree] == expected
    report(f"5 PASS complex double-point counts: {got}")


def test_criterion_6_parity_and_bound():
    """Fifty random curves per degree stay inside the parity interval."""
    run4 = verify_parity_bounds(4, samples=50, seed=0)
    assert run4.passed, run4.detail
    attained4 = {t["writhe"] for t in run4.trials}
    assert attained4 <= {-3, -1, 1, 3}

    run3 = verify_parity_bounds(3, samples=50, seed=0)
    assert run3.passed, run3.detail
    attained3 = {t["writhe"] for t in run3.trials}
    assert attained3 <= {-1, 1}
    report(
        "6 PASS parity/bound: degree 4 attained "
        f"{sorted(attained4)}, degree 3 attained {sorted(attained3)}"
    )


def test_criterion_7_oriented_relation():
    """On five two-component links: oriented - unoriented = 2 * sum lk, each
    lk an integer, and the global orientation flip changes nothing."""
    tilt1 = random_transform(__import__("random").Random("tilt-1"), 1)
    tilt2 = random_transform(__import__("random").Random("tilt-2"), 1)
    corpus = [
        ("linked", linked_circles(), 3),
        ("separated", separated_circles(), 2),
        ("big-pair", big_linked_pair(), 1),
        ("tilted-1", linked_circles().transformed(tilt1), 5),
        ("tilted-2", linked_circles().transformed(tilt2), 7),
    ]
    rows = []
    for name, link, seed in corpus:
        diagram = build_diagram(link, seed=seed)
        un = writhe_unoriented(diagram)
        orient = writhe_oriented(diagram)
        lk = linking_matrix(diagram)[0][1]
        assert lk.denominator == 1, f"{name}: lk not an integer"
        assert orient == un + 2 * lk, f"{name}: diagram identity fails"
        flipped = build_diagram(link.with_orientations([-1, -1]), seed=seed)
        assert writhe_oriented(flipped) == orient, f"{name}: global flip moved Cw"
        rows.append(f"{name}: Cw={un}, oriented={orient}, lk={lk}")
    report("7 PASS oriented relation: " + "; ".join(rows))


def test_criterion_8_choice_independence():
    """Preimage-order swap, component-orientation flip, conjugate-branch
    toggle: none of them moves any local sign."""
    # order swap, same component: the cleared frame determinant is symmetric
    for tau in (-1, 1):
        curve = model_link(tau).components[0]
        det = crossing_det_bipoly(curve, curve)
        assert det.swap_vars() == det
    quartic = sample_random_curve(4, seed=11)
    det4 = crossing_det_bipoly(quartic, quartic)
    assert det4.swap_vars() == det4
    # order swap, inter-component: transposing the roles transposes the det
    a, b = linked_circles().components
    assert crossing_det_bipoly(a, b) == crossing_det_bipoly(b, a).swap_vars()

    # orientation flip of a single component leaves the oriented writhe fixed
    for link in (model_link(-1), Link([quartic])):
        up = writhe_oriented(build_diagram(link.with_orientations([1]), seed=4))
        down = writhe_oriented(build_diagram(link.with_orientations([-1]), seed=4))
        assert up == down

    # conjugate-branch toggle on every solitary locus in the corpus: the
    # numeric oracle reads the sign from the definition at both conjugate
    # preimages, and both readings must equal the exact sign. The canonical
    # projections of the model at tau = 1 and of the wall quartic at
    # tau = -1 are guaranteed to contain solitary points
    wall_curve = wall_quartic_family().instantiate(Fraction(-1))
    toggled = 0
    for link in (model_link(1), wall_curve):
        analysis = analyze_projection(link, CANONICAL_CENTER)
        for locus in analysis.loci:
            if locus.kind is LocusKind.SOLITARY:
                component = analysis.link.components[locus.comp_i]
                exact = solitary_sign_raw(locus.root, LocusPolys(component))
                assert solitary_signs_at_both_preimages(component, locus) == [exact, exact]
                toggled += 1
    assert toggled >= 2
    report(f"8 PASS choice independence (checked {toggled} conjugate toggles)")


def test_criterion_9_wall_crossing():
    """The quartic family jumps by exactly 2 across its flagged singular
    member; the model family's first-move wall has jump 0."""
    fam = wall_quartic_family()
    scan = scan_family(fam.instantiate, fam.grid, center=fam.center)
    flagged = [m for m in scan.members if m.singular]
    assert [m.tau for m in flagged] == [0]
    assert flagged[0].status == "singular-curve"
    assert scan.constant_between_walls()
    jumps = scan.wall_jumps()
    assert len(jumps) == 1 and abs(jumps[0][2]) == 2

    model = model_family()
    scan0 = scan_family(model.instantiate, model.grid, center=model.center)
    flagged0 = [m for m in scan0.members if m.singular]
    assert [m.tau for m in flagged0] == [0]
    assert scan0.constant_between_walls()
    assert scan0.wall_jumps() == [(Fraction(-1, 2), Fraction(1, 2), 0)]
    report(
        f"9 PASS wall crossing: quartic jump {jumps[0][2]:+d} at tau=0, "
        "model jump 0 at tau=0"
    )
