"""Property-based verification of the invariance claims on concrete links.

Each verifier runs n seeded trials and returns a VerificationRun whose
verdict is pass iff every trial satisfied the property. Runs are pure
functions of (subject, n, seed): trial centers and transforms are drawn
from per-trial derived seeds, never from global state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .curves import Link, ProjectiveTransform, sample_random_curve
from .errors import EncwritheError, InputTooLarge, ProjectionError
from .projection import CANONICAL_CENTER, rational_center
from .rationals import rat, rat_str
from .upoly import det_rational
from .writhe import build_diagram, writhe_unoriented


def _trial_seed(seed: int, k: int) -> int:
    return seed * 100003 + 7 * k + 1


@dataclass
class VerificationRun:
    subject: str
    property_name: str
    seed: int
    trials: list[dict] = field(default_factory=list)
    passed: bool = True
    detail: str = ""

    def record(self, **payload) -> None:
        self.trials.append(payload)

    def fail(self, message: str) -> None:
        self.passed = False
        if not self.detail:
            self.detail = message

    def to_json(self) -> dict:
        return {
            "subject": self.subject,
            "property": self.property_name,
            "seed": self.seed,
            "passed": self.passed,
            "detail": self.detail,
            "trials": self.trials,
        }


def verify_center_independence(link: Link, n: int, seed: int) -> VerificationRun:
    """All writhe values over n independently sampled generic centers agree."""
    run = VerificationRun("link", "center-independence", seed)
    values = []
    for k in range(n):
        diagram = build_diagram(link, seed=_trial_seed(seed, k))
        value = writhe_unoriented(diagram)
        run.record(center=[rat_str(c) for c in diagram.center], writhe=value)
        values.append(value)
    if len(set(values)) > 1:
        run.fail(f"writhe varies across centers: {sorted(set(values))}")
    return run


def random_transform(rng: random.Random, want_sign: int, bound: int = 5) -> ProjectiveTransform:
    """Integer matrix with entries in [-bound, bound] and determinant of the
    requested sign."""
    while True:
        rows = [[rng.randint(-bound, bound) for _ in range(4)] for _ in range(4)]
        det = det_rational(rows)
        if det != 0 and (det > 0) == (want_sign > 0):
            return ProjectiveTransform.of(rows)


def verify_isotopy_invariance(
    link: Link, n: int, seed: int, base: Optional[int] = None
) -> VerificationRun:
    """n orientation-preserving transforms fix the writhe; n mirrors negate it.

    `base` is the writhe of the link at the center of trial seed 0, the
    first trial of verify_center_independence with the same seed; when it
    is None it is computed here."""
    run = VerificationRun("link", "isotopy-invariance-and-mirror", seed)
    if base is None:
        base = writhe_unoriented(build_diagram(link, seed=_trial_seed(seed, 0)))
    run.record(transform="identity", writhe=base)
    rng = random.Random(f"isotopy-{seed}")
    for k in range(n):
        for want in (1, -1):
            transform = random_transform(rng, want)
            moved = link.transformed(transform)
            value = writhe_unoriented(
                build_diagram(moved, seed=_trial_seed(seed, 2 * k + (want < 0)))
            )
            expected = base if want > 0 else -base
            run.record(det_sign=want, writhe=value, expected=expected)
            if value != expected:
                run.fail(
                    f"transform with det sign {want}: writhe {value}, expected {expected}"
                )
    return run


def verify_parity_bounds(degree: int, samples: int, seed: int) -> VerificationRun:
    """Every sampled degree-d curve satisfies |Cw| <= K and Cw = K (mod 2)
    with K = (d-1)(d-2)/2; the attained value set is reported, not asserted."""
    bound = (degree - 1) * (degree - 2) // 2
    run = VerificationRun(f"random degree-{degree} curves", "parity-and-bound", seed)
    attained = set()
    for k in range(samples):
        curve = sample_random_curve(degree, seed=_trial_seed(seed, k))
        link = Link([curve])
        value = writhe_unoriented(build_diagram(link, seed=_trial_seed(seed, 10000 + k)))
        attained.add(value)
        ok = abs(value) <= bound and (value - bound) % 2 == 0
        run.record(sample=k, writhe=value, within_bound=ok)
        if not ok:
            run.fail(f"sample {k}: writhe {value} violates bound/parity for degree {degree}")
    run.detail = run.detail or f"attained values: {sorted(attained)}"
    return run


# -- parametric families ---------------------------------------------------------


@dataclass
class FamilyMember:
    tau: Fraction
    status: str  # "ok" | "singular-curve" | "degenerate-projection"
    writhe: Optional[int] = None
    note: str = ""

    @property
    def singular(self) -> bool:
        return self.status != "ok"


@dataclass
class FamilyScan:
    members: list[FamilyMember]

    def segments(self) -> list[tuple[FamilyMember, FamilyMember, int]]:
        """Consecutive nonsingular members paired with the number of flagged
        singular members lying between them on the grid."""
        out = []
        prev: Optional[FamilyMember] = None
        gap = 0
        for member in self.members:
            if member.singular:
                if prev is not None:
                    gap += 1
                continue
            if prev is not None:
                out.append((prev, member, gap))
            prev, gap = member, 0
        return out

    def wall_jumps(self) -> list[tuple[Fraction, Fraction, int]]:
        """Writhe differences across exactly one flagged singular member."""
        return [
            (a.tau, b.tau, b.writhe - a.writhe)
            for a, b, gap in self.segments()
            if gap == 1
        ]

    def constant_between_walls(self) -> bool:
        """Adjacent nonsingular members with no wall between them agree."""
        return all(
            a.writhe == b.writhe for a, b, gap in self.segments() if gap == 0
        )


def scan_family(
    instantiate: Callable[[Fraction], Link],
    grid: list,
    center=None,
) -> FamilyScan:
    """Evaluate the invariant along a one-parameter family at a fixed center.

    The center defaults to the canonical one so that the scan watches a
    single projection while the family moves, which is what makes diagram
    walls (not just discriminant walls) visible. A member is flagged
    singular when curve validation fails, or when the fixed projection is
    not generic for it.
    """
    center = rational_center(CANONICAL_CENTER if center is None else center)
    members = []
    for raw_tau in grid:
        tau = rat(raw_tau)
        try:
            link = instantiate(tau)
        except InputTooLarge:
            # a file beyond the parse budget is an input error, not a member
            raise
        except EncwritheError as exc:
            members.append(FamilyMember(tau, "singular-curve", note=str(exc)))
            continue
        if not link.validation().valid:
            members.append(
                FamilyMember(tau, "singular-curve", note="validation failed")
            )
            continue
        try:
            diagram = build_diagram(link, center)
        except ProjectionError as exc:
            members.append(
                FamilyMember(tau, "degenerate-projection", note=str(exc))
            )
            continue
        members.append(FamilyMember(tau, "ok", writhe=writhe_unoriented(diagram)))
    return FamilyScan(members)
