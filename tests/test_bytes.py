"""Byte identity of the command line over a fixed list of commands.

Each command runs in process through `cli.main`, and one sha256 is kept per
command: of its stdout, its stderr, its exit code and the file it writes, with
the temporary directory masked. The list covers `writhe --json` on the bench
corpus at three seeds, `writhe`, `verify` and `diagram` on the bundled files,
`writhe` at fixed centers, `verify` on the scan families, a curve whose
imaginary space nodes collide in the image of one center, linked circles one
of which is stretched by 10^20 (their images are told apart only by exact
coordinates), the maximally writhed quintic and sextic and their mirrors
(several same-component crossings each), and `sample`, whose files are hashed
in name order.

The golden is `tests/golden/commands.json`. Regenerate it, only for an
intended output change, with

    PYTHONPATH=src python tests/test_bytes.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from encwrithe.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden" / "commands.json"

# conjugate space nodes at the parameter pairs (i, 1 + 2i) and (-i, 1 - 2i);
# the center 6,4,6,1 lies on the real line through both nodes
CONJUGATE_NODES = (
    '{"x": [-2, -126, -6, -6, -6, 0], "y": [-1, -86, 80, 0, 0, 6], '
    '"z": [-1, -120, 54, 6, -6, 6], "w": [-1, -23, 83, 3, 3, 6]}'
)

# linked_circles.jsonl with the second circle's y stretched by 10^20: the
# interval boxes of the two images at the sampled center never separate, so
# the images are told apart by exact algebraic coordinates
HUGE_CIRCLES = (
    '{"kind": "link", "orientations": [1, 1]}\n'
    '{"x": [1, 0, -1], "y": [0, 2], "z": [0], "w": [1, 0, 1]}\n'
    '{"x": [2], "y": [0, 100000000000000000000], "z": [0, 2], "w": [1, 0, 1]}\n'
)

# the maximally writhed quintic and sextic (a, b, t*a, t*b) of
# tests/test_writhe.py and their z -> -z mirrors: at the center sampled from
# seed 0 every double point is real, 6 and 10 same-component crossings, and
# the mirrors have 5 and 9 crossings and one solitary point
MAXIMAL = {
    "maximal5": '{"x": [0, -16, -4, 4, 1], "y": [9, 0, -10, 0, 1], '
    '"z": [0, 0, -16, -4, 4, 1], "w": [0, 9, 0, -10, 0, 1]}',
    "maximal5_mirror": '{"x": [0, -16, -4, 4, 1], "y": [9, 0, -10, 0, 1], '
    '"z": [0, 0, 16, 4, -4, -1], "w": [0, 9, 0, -10, 0, 1]}',
    "maximal6": '{"x": [45, 9, -50, -10, 5, 1], "y": [0, 64, 0, -20, 0, 1], '
    '"z": [0, 45, 9, -50, -10, 5, 1], "w": [0, 0, 64, 0, -20, 0, 1]}',
    "maximal6_mirror": '{"x": [45, 9, -50, -10, 5, 1], "y": [0, 64, 0, -20, 0, 1], '
    '"z": [0, -45, -9, 50, 10, -5, -1], "w": [0, 0, 64, 0, -20, 0, 1]}',
}

SEEDS = ("0", "3", "6")
CENTERS = ("0,0,1,0", "1,0,0,0", "1,2,3,5", "-2,-2,0,3", "-3,2,0,-3", "0,1,0,0")
DATA = "src/encwrithe/data"
FAMILIES = ("model_family.jsonl", "wall_quartic_family.jsonl")
CENTER_FILES = (
    f"{DATA}/linked_circles.jsonl",
    "perfbench/corpus/links/circles_apart_base.jsonl",
    f"{DATA}/model_crossing.jsonl",
)


def _commands() -> list[list[str]]:
    """Every command as an argv; `{out}` is the written file, `{tmp}` the
    temporary directory."""
    commands = []
    for kind in ("knots", "links"):
        for path in sorted((ROOT / "perfbench" / "corpus" / kind).glob("*.jsonl")):
            for seed in SEEDS:
                commands.append(
                    ["writhe", f"perfbench/corpus/{kind}/{path.name}", "--seed", seed,
                     "--json", "{out}"]
                )
    for path in sorted((ROOT / DATA).glob("*.jsonl")):
        name = f"{DATA}/{path.name}"
        for seed in SEEDS:
            commands.append(["writhe", name, "--seed", seed])
            commands.append(
                ["verify", name, "--centers", "2", "--isotopies", "2", "--seed", seed,
                 "--json", "{out}"]
            )
            if path.name not in FAMILIES:
                commands.append(["diagram", name, "--seed", seed, "--out", "{out}"])
    for name in CENTER_FILES:
        for center in CENTERS:
            commands.append(["writhe", name, f"--center={center}", "--json", "{out}"])
    for path in sorted((ROOT / "perfbench" / "corpus" / "scans").glob("*.jsonl")):
        commands.append(["verify", f"perfbench/corpus/scans/{path.name}", "--json", "{out}"])
    commands.append(["writhe", "{tmp}/conjugate_nodes.jsonl", "--center=6,4,6,1"])
    commands.append(["writhe", "{tmp}/conjugate_nodes.jsonl", "--seed", "0"])
    commands.append(["writhe", "{tmp}/huge_circles.jsonl", "--seed", "0", "--json", "{out}"])
    for name in MAXIMAL:
        commands.append(["writhe", f"{{tmp}}/{name}.jsonl", "--seed", "0", "--json", "{out}"])
    commands.append(
        ["sample", "--degree", "4", "--count", "2", "--seed", "1", "--out", "{tmp}/sample"]
    )
    return commands


COMMANDS = _commands()


def _run(argv: list[str], tmp: Path) -> tuple[str, str]:
    """Run one command in the repository root; return its masked output as
    JSON and that text's sha256."""
    out = tmp / "out"
    sample = tmp / "sample"
    with contextlib.suppress(FileNotFoundError):
        out.unlink()
    shutil.rmtree(sample, ignore_errors=True)
    (tmp / "conjugate_nodes.jsonl").write_text('{"kind": "link"}\n' + CONJUGATE_NODES + "\n")
    (tmp / "huge_circles.jsonl").write_text(HUGE_CIRCLES)
    for name, line in MAXIMAL.items():
        (tmp / f"{name}.jsonl").write_text('{"kind": "link"}\n' + line + "\n")
    args = [a.replace("{out}", str(out)).replace("{tmp}", str(tmp)) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(args)
    finally:
        os.chdir(cwd)
    written = out.read_text() if out.exists() else None
    record = {
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "exit": code,
        "file": written,
    }
    if sample.exists():
        record["files"] = {path.name: path.read_text() for path in sorted(sample.iterdir())}
    text = json.dumps(record, indent=1, sort_keys=True).replace(str(tmp), "{tmp}")
    return text, hashlib.sha256(text.encode()).hexdigest()


def test_command_list_is_complete():
    golden = json.loads(GOLDEN.read_text())
    assert len(COMMANDS) == 188
    assert sorted(golden) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_output_bytes_unchanged(argv, tmp_path):
    text, digest = _run(argv, tmp_path)
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert digest == expected, f"{' '.join(argv)} now gives\n{text}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = {" ".join(argv): _run(argv, Path(tmp))[1] for argv in COMMANDS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
