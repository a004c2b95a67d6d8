"""Command line interface.

Exit codes: 0 success / all verifications pass, 1 verification failure,
2 input or validation error, 3 genericity sampling exhausted, 141 closed stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .curves import Link, sample_random_curve
from .errors import EncwritheError, InvalidInput, SamplingExhausted
from .fileio import CurveFamily, parse_curve_file, write_link_file
from .projection import LocusKind, rational_center
from .rationals import rat_str
from .verify import (
    scan_family,
    verify_center_independence,
    verify_isotopy_invariance,
)
from .writhe import build_diagram, linking_matrix, writhe_oriented, writhe_unoriented

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INPUT = 2
EXIT_SAMPLING = 3
EXIT_BROKEN_PIPE = 141


def _parse_center(text: str) -> tuple[Fraction, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != 4:
        raise InvalidInput("center must be four rationals, e.g. '0,0,1,0'")
    return rational_center(parts)


def _load_link(path: str) -> Link:
    parsed = parse_curve_file(path)
    if isinstance(parsed, CurveFamily):
        raise InvalidInput(
            "family file given where a single link is required; use 'verify'"
        )
    parsed.validation().raise_for_failure()
    return parsed


def _member_entries(scan) -> list[dict]:
    """The per-member records of a family scan in the --json reports."""
    return [
        {"tau": rat_str(m.tau), "status": m.status, "writhe": m.writhe}
        for m in scan.members
    ]


def cmd_writhe(args) -> int:
    parsed = parse_curve_file(args.file)
    if isinstance(parsed, CurveFamily):
        center = _parse_center(args.center) if args.center else parsed.center
        scan = scan_family(parsed.instantiate, parsed.grid, center=center)
        print(f"family scan over {parsed.parameter} ({len(scan.members)} members):")
        for member in scan.members:
            tau = rat_str(member.tau)
            if member.singular:
                print(f"  {parsed.parameter} = {tau}: {member.status} ({member.note})")
            else:
                print(f"  {parsed.parameter} = {tau}: Cw = {member.writhe}")
        if args.json:
            payload = {"members": _member_entries(scan)}
            Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
        return EXIT_OK
    parsed.validation().raise_for_failure()
    center = _parse_center(args.center) if args.center else None
    diagram = build_diagram(parsed, center, seed=args.seed)
    unoriented = writhe_unoriented(diagram)
    oriented = linking = None
    print(f"Cw = {unoriented}")
    if parsed.orientations is not None:
        oriented = writhe_oriented(diagram)
        linking = linking_matrix(diagram)
        print(f"Cw (oriented) = {oriented}")
        for i, row in enumerate(linking):
            for j in range(i + 1, len(row)):
                print(f"lk[{i}][{j}] = {rat_str(row[j])}")
    print(f"center: ({', '.join(rat_str(c) for c in diagram.center)})")
    kinds = Counter(locus.kind for locus in diagram.loci)
    print(
        f"double points: {kinds[LocusKind.CROSSING]} crossing(s), "
        f"{kinds[LocusKind.SOLITARY]} solitary"
    )
    for locus in diagram.loci:
        print(f"  [{locus.raw_sign:+d}] {locus.describe()}")
    counts = diagram.complex_double_point_counts
    print(f"complex double points per component: {counts}")
    if args.json:
        payload = {
            "unoriented": unoriented,
            "oriented": oriented,
            "linking": [[rat_str(v) for v in row] for row in linking] if linking else None,
            "center": [rat_str(c) for c in diagram.center],
            "loci": [{"description": l.describe(), "sign": l.raw_sign} for l in diagram.loci],
            "complex_counts": counts,
        }
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    parsed = parse_curve_file(args.file)
    runs = []
    ok = True
    if isinstance(parsed, CurveFamily):
        scan = scan_family(parsed.instantiate, parsed.grid, center=parsed.center)
        print(f"family scan over {parsed.parameter}:")
        for member in scan.members:
            status = member.status if member.singular else f"Cw = {member.writhe}"
            print(f"  {parsed.parameter} = {rat_str(member.tau)}: {status}")
        constant = scan.constant_between_walls()
        print(f"constant between walls: {'pass' if constant else 'FAIL'}")
        for a, b, jump in scan.wall_jumps():
            print(f"wall between {rat_str(a)} and {rat_str(b)}: jump {jump:+d}")
        payload = {
            "members": _member_entries(scan),
            "constant_between_walls": constant,
            "wall_jumps": [
                {"from": rat_str(a), "to": rat_str(b), "jump": jump}
                for a, b, jump in scan.wall_jumps()
            ],
        }
        ok = constant
    else:
        parsed.validation().raise_for_failure()
        run_c = verify_center_independence(parsed, args.centers, args.seed)
        # both runs open with the diagram of the same trial seed: its writhe
        # is the isotopy run's base, when the center run has made it
        base = run_c.trials[0]["writhe"] if run_c.trials else None
        run_i = verify_isotopy_invariance(parsed, args.isotopies, args.seed, base)
        runs = [run_c, run_i]
        for run in runs:
            verdict = "pass" if run.passed else "FAIL"
            print(f"{run.property_name}: {verdict} ({len(run.trials)} trials) {run.detail}")
        ok = all(run.passed for run in runs)
        payload = {"runs": [run.to_json() for run in runs]}
    if args.json:
        payload["passed"] = ok
        Path(args.json).write_text(json.dumps(payload, indent=1) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_sample(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.count):
        curve = sample_random_curve(args.degree, seed=args.seed * 1000 + k)
        link = Link([curve])
        path = out_dir / f"curve_d{args.degree}_s{args.seed}_{k:03d}.jsonl"
        write_link_file(link, path)
        print(path)
    return EXIT_OK


def cmd_diagram(args) -> int:
    from .svg import render_diagram_svg

    link = _load_link(args.file)
    center = _parse_center(args.center) if args.center else None
    diagram = build_diagram(link, center, seed=args.seed)
    render_diagram_svg(diagram, out_path=args.out)
    print(args.out)
    return EXIT_OK


def _count(text: str) -> int:
    """A non-negative integer: the --centers, --isotopies and --count type."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="encwrithe",
        description="Exact encomplexed writhe of real rational space curves and links.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("writhe", help="compute the invariant of a link file")
    p.add_argument("file")
    p.add_argument("--center", help="projection center 'a,b,c,d' (default: sampled, or a family's)")
    p.add_argument("--seed", type=int, default=0, help="seed for center sampling")
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_writhe)

    p = sub.add_parser("verify", help="run invariance verifications")
    p.add_argument("file")
    p.add_argument("--centers", type=_count, default=20, metavar="N")
    p.add_argument("--isotopies", type=_count, default=20, metavar="M")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--json", help="also write a machine-readable report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="write random validated curve files")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("diagram", help="render the diagram of a link file as SVG")
    p.add_argument("file")
    p.add_argument("--out", required=True)
    p.add_argument("--center", help="projection center 'a,b,c,d'")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_diagram)
    return parser


# built once per process: parse_args only reads the parser and returns a fresh
# Namespace, so main may be called any number of times
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a buffered stdout meets a closed pipe here, not at exit
        return code
    except SamplingExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except BrokenPipeError:
        # stdout's reader has gone (`| head`): say nothing, and point the
        # descriptor at the null device so the final flush cannot raise again
        with contextlib.suppress(AttributeError, OSError, ValueError), open(os.devnull, "w") as dev:
            os.dup2(dev.fileno(), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (EncwritheError, OSError) as exc:
        # an OSError here is an output path that cannot be written; a file
        # that cannot be read is already a ParseError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
