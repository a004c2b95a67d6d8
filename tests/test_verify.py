"""Verification harness: invariance runs, parity scans, family walls."""

from fractions import Fraction

from encwrithe.curves import Link, RationalSpaceCurve
from encwrithe.data import model_family, model_link, wall_quartic_family
from encwrithe.verify import (
    scan_family,
    verify_center_independence,
    verify_isotopy_invariance,
    verify_parity_bounds,
)


class TestCenterIndependence:
    def test_model_constant(self):
        run = verify_center_independence(model_link(-1), n=6, seed=0)
        assert run.passed
        assert {t["writhe"] for t in run.trials} == {-1}

    def test_conic_all_zero(self):
        circle = Link([RationalSpaceCurve([1, 0, -1], [0, 2], [0], [1, 0, 1])])
        run = verify_center_independence(circle, n=5, seed=0)
        assert run.passed
        assert {t["writhe"] for t in run.trials} == {0}

    def test_reproducible(self):
        a = verify_center_independence(model_link(-1), n=4, seed=3)
        b = verify_center_independence(model_link(-1), n=4, seed=3)
        assert a.to_json() == b.to_json()


class TestIsotopyInvariance:
    def test_model(self):
        run = verify_isotopy_invariance(model_link(-1), n=4, seed=0)
        assert run.passed
        positives = [t for t in run.trials if t.get("det_sign") == 1]
        negatives = [t for t in run.trials if t.get("det_sign") == -1]
        assert {t["writhe"] for t in positives} == {-1}
        assert {t["writhe"] for t in negatives} == {1}

    def test_line_trivial(self):
        line = Link([RationalSpaceCurve([0, 1], [0], [0], [1])])
        run = verify_isotopy_invariance(line, n=3, seed=1)
        assert run.passed
        assert {t["writhe"] for t in run.trials} == {0}

    def test_verifiers_agree_on_the_value(self):
        link = model_link(-1)
        centers = verify_center_independence(link, n=3, seed=5)
        isotopies = verify_isotopy_invariance(link, n=2, seed=5)
        value_c = centers.trials[0]["writhe"]
        value_i = next(
            t["writhe"] for t in isotopies.trials if t.get("transform") == "identity"
        )
        assert value_c == value_i


class TestParityBounds:
    def test_degree3_values(self):
        run = verify_parity_bounds(3, samples=12, seed=0)
        assert run.passed
        assert {t["writhe"] for t in run.trials} <= {-1, 1}

    def test_degree2_trivial(self):
        run = verify_parity_bounds(2, samples=5, seed=0)
        assert run.passed
        assert {t["writhe"] for t in run.trials} == {0}


class TestFamilyScans:
    def test_model_family_wall_is_flat(self):
        fam = model_family()
        scan = scan_family(fam.instantiate, fam.grid, center=fam.center)
        flagged = [m for m in scan.members if m.singular]
        assert [m.tau for m in flagged] == [0]
        assert flagged[0].status == "degenerate-projection"
        assert scan.constant_between_walls()
        assert scan.wall_jumps() == [(Fraction(-1, 2), Fraction(1, 2), 0)]
        values = {m.writhe for m in scan.members if not m.singular}
        assert values == {-1}

    def test_quartic_family_jumps_by_two(self):
        fam = wall_quartic_family()
        scan = scan_family(fam.instantiate, fam.grid, center=fam.center)
        flagged = [m for m in scan.members if m.singular]
        assert [m.tau for m in flagged] == [0]
        assert flagged[0].status == "singular-curve"
        assert scan.constant_between_walls()
        jumps = scan.wall_jumps()
        assert len(jumps) == 1
        assert abs(jumps[0][2]) == 2

    def test_constant_family(self):
        fam = model_family()

        def constant(_tau):
            return fam.instantiate(Fraction(-1))

        scan = scan_family(constant, [Fraction(-1), Fraction(0), Fraction(1)])
        assert {m.writhe for m in scan.members} == {-1}
        assert scan.constant_between_walls()

    def test_undecided_real_root_is_a_singular_member(self):
        # P(1) = P(2) and P(-1) = P(-2): validation cannot complete the real
        # eliminant root f = 2, so the member is singular, not a projection
        # failure at the fixed center
        two_nodes = RationalSpaceCurve(
            [10, -100, -15, 1, 3, 3], [-1, 114, 5, -3, -1, -3], [0, -21, 0, 3], [14, 62, -15, 0, 3, -2]
        )
        scan = scan_family(lambda _tau: Link([two_nodes]), [Fraction(0)])
        assert [m.status for m in scan.members] == ["singular-curve"]
