"""Tests of the benchmark's own checks and tracer.

    python3 -m pytest perfbench/test_checks.py

A stand-in for the command line writes crafted answers, so each test sees
exactly how the harness counts one operation.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402

MANIFEST = json.loads((HERE / "corpus" / "manifest.json").read_text())
ORACLE = json.loads((HERE / "oracle.json").read_text())


def entry(workload: str, group: str, role: str = "base") -> dict:
    return next(e for e in MANIFEST[workload] if e["group"] == group and e.get("role", "base") == role)


class StandIn:
    """Answers every call with one fixed payload and exit code."""

    def __init__(self, payload: dict, code: int = 0):
        self.payload, self.code = payload, code

    def main(self, argv):
        Path(argv[argv.index("--json") + 1]).write_text(json.dumps(self.payload))
        return self.code


def locus(component: int, sign: int, kind: str = "crossing") -> dict:
    return {"description": f"{kind} on component {component}: e in [0, 1], f in [0, 1]", "sign": sign}


def knot_answer(signs: list[int], degree: int) -> dict:
    return {
        "unoriented": sum(signs),
        "oriented": None,
        "linking": None,
        "center": ["0", "0", "1", "0"],
        "loci": [locus(0, s) for s in signs],
        "complex_counts": [(degree - 1) * (degree - 2) // 2],
    }


def link_answer(signs: list[list[int]], degrees: list[int], twice_lk: int) -> dict:
    """A two-component answer; signs[i] are the local writhes on component i."""
    lk = str(Fraction(twice_lk, 2))
    loci = [locus(i, s) for i, component in enumerate(signs) for s in component]
    loci.append({"description": "inter-component between components 0 and 1: s in [0, 1], t in [0, 1]", "sign": 1})
    return {
        "unoriented": sum(map(sum, signs)),
        "oriented": sum(map(sum, signs)) + twice_lk,
        "linking": [["0", lk], [lk, "0"]],
        "center": ["0", "0", "1", "0"],
        "loci": loci,
        "complex_counts": [(d - 1) * (d - 2) // 2 for d in degrees],
    }


def cubic_pair_signs(cw: int) -> list[list[int]]:
    """One local writhe per cubic (each has one double point) adding up to cw."""
    first = 1 if cw >= 0 else -1
    return [[first], [cw - first]]


def one_pass(tmp_path, workload: str, entries: list[dict], stand_in: StandIn) -> dict:
    ops = [run.Operation(workload, e) for e in entries]
    return run.drive(stand_in, ops, ORACLE, 0, str(tmp_path / "answer.json"))


def test_right_answers_pass(tmp_path):
    d3a = entry("knots", "d3a")
    result = one_pass(tmp_path, "knots", [d3a], StandIn(knot_answer([ORACLE["d3a"]["cw"]], 3)))
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 0, True)
    link = entry("links", "link33")
    cw, lk = ORACLE["link33"]["cw"], ORACLE["link33"]["linking"][0][1]
    twice = int(2 * Fraction(lk))
    result = one_pass(tmp_path, "links", [link], StandIn(link_answer(cubic_pair_signs(cw), [3, 3], twice)))
    assert (result["failed"], result["correct"]) == (0, True)


def test_flipped_sign_is_a_failed_operation(tmp_path):
    d3a = entry("knots", "d3a")
    flipped = knot_answer([-ORACLE["d3a"]["cw"]], 3)
    result = one_pass(tmp_path, "knots", [d3a], StandIn(flipped))
    assert (result["attempted"], result["failed"], result["correct"]) == (1, 1, False)


def test_flipped_sign_of_an_image_is_a_failed_operation(tmp_path):
    """The mirror image must negate the base's Cw; here it keeps it."""
    group = [entry("knots", "d3a", role) for role in ("base", "neg")]
    result = one_pass(tmp_path, "knots", group, StandIn(knot_answer([ORACLE["d3a"]["cw"]], 3)))
    assert (result["attempted"], result["failed"], result["correct"]) == (2, 1, False)


def test_wrong_parity_is_a_failed_operation(tmp_path):
    # degree 4: three complex double points, so Cw is odd; two signs sum to 0
    d4a = entry("knots", "d4a")
    answer = knot_answer([1, -1], 4)
    result = one_pass(tmp_path, "knots", [d4a], StandIn(answer))
    assert (result["failed"], result["correct"]) == (1, False)
    # caught by the parity check alone, without the oracle
    assert any("mod 2" in m for m in checks.check_writhe(d4a, answer, None, None))


def test_integer_lk_of_two_cubics_is_a_failed_operation(tmp_path):
    # two cubics: 2 lk = 9 (mod 2), so lk is a half-integer; lk = 1 is wrong
    link = entry("links", "link33")
    answer = link_answer(cubic_pair_signs(ORACLE["link33"]["cw"]), [3, 3], 2)
    result = one_pass(tmp_path, "links", [link], StandIn(answer))
    assert (result["failed"], result["correct"]) == (1, False)
    assert any("2 lk" in m for m in checks.check_writhe(link, answer, None, None))


def test_an_error_exit_is_failed_but_not_wrong(tmp_path):
    d3a = entry("knots", "d3a")
    result = one_pass(tmp_path, "knots", [d3a], StandIn(knot_answer([-1], 3), code=2))
    assert (result["failed"], result["correct"]) == (1, True)


def scan_answer(entry: dict, writhe_at, status_at=lambda tau: "ok") -> dict:
    """A `verify` answer over the entry's grid; jumps are read off the ok members."""
    members = []
    for text in entry["grid"]:
        tau = Fraction(text)
        status = status_at(tau)
        members.append({"tau": text, "status": status, "writhe": writhe_at(tau) if status == "ok" else None})
    ok = [m for m in members if m["status"] == "ok"]
    jumps = [
        {"from": a["tau"], "to": b["tau"], "jump": b["writhe"] - a["writhe"]}
        for a, b in zip(ok, ok[1:])
        if members.index(b) - members.index(a) > 1
    ]
    return {"members": members, "constant_between_walls": True, "wall_jumps": jumps, "passed": True}


def quartic_wall(tau):
    return "singular-curve" if tau == 0 else "ok"


def test_right_scan_answers_pass(tmp_path):
    quartic = entry("scans", "wall_quartic_family")
    row = ORACLE["wall_quartic_family"]
    answer = scan_answer(quartic, lambda tau: row["below"] if tau < 0 else row["above"], quartic_wall)
    rigid = entry("scans", "d4a")
    ops = [quartic, rigid]
    answers = [answer, scan_answer(rigid, lambda tau: ORACLE["d4a"]["cw"])]
    for e, a in zip(ops, answers):
        result = one_pass(tmp_path, "scans", [e], StandIn(a))
        assert (result["failed"], result["correct"]) == (0, True)


def test_scan_jump_must_match_the_family(tmp_path):
    quartic = entry("scans", "wall_quartic_family")
    answer = scan_answer(quartic, lambda tau: ORACLE["wall_quartic_family"]["below"], quartic_wall)
    result = one_pass(tmp_path, "scans", [quartic], StandIn(answer))
    assert (result["failed"], result["correct"]) == (1, False)
    assert any("wall jumps" in m for m in checks.check_scan(quartic, answer, None))


def test_degenerate_rigid_member_is_a_failed_operation(tmp_path):
    """A member skipped as degenerate would read as a speedup; it must fail."""
    rigid = entry("scans", "d4a")
    answer = scan_answer(rigid, lambda tau: ORACLE["d4a"]["cw"], lambda tau: "degenerate-projection" if tau == 0 else "ok")
    result = one_pass(tmp_path, "scans", [rigid], StandIn(answer))
    assert (result["failed"], result["correct"]) == (1, False)
    assert any("degenerate-projection" in m for m in checks.check_scan(rigid, answer, ORACLE["d4a"]))


def test_missing_family_member_is_a_failed_operation(tmp_path):
    rigid = entry("scans", "d4a")
    answer = scan_answer(rigid, lambda tau: ORACLE["d4a"]["cw"])
    del answer["members"][-1]
    result = one_pass(tmp_path, "scans", [rigid], StandIn(answer))
    assert (result["failed"], result["correct"]) == (1, False)


def test_bundled_member_off_the_wall_must_be_ok(tmp_path):
    quartic = entry("scans", "wall_quartic_family")
    row = ORACLE["wall_quartic_family"]
    answer = scan_answer(
        quartic, lambda tau: row["below"] if tau < 0 else row["above"], lambda tau: "singular-curve" if tau <= 0 else "ok"
    )
    assert any("status 'singular-curve'" in m for m in checks.check_scan(quartic, answer, row))


def test_tracer_reads_zero_for_a_missing_function(monkeypatch):
    import encwrithe.writhe

    monkeypatch.delattr(encwrithe.writhe, "solitary_sign_raw")
    tracer = Tracer()
    tracer.install()
    metrics = tracer.metrics(rounds=1)
    assert "writhe.solitary_sign_raw" in tracer.missing
    assert metrics["writhe.solitary_sign_raw.calls"] == (0, "count")
    assert metrics["writhe.solitary_sign_raw.self_s"] == (0, "s")


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["outer", 0.0, 10.0, -1, 0, True], ["inner", 2.0, 5.0, 0, 0, True], ["inner", 6.0, 7.0, 0, 0, True]]
    assert tracer.self_times() == [6.0, 3.0, 1.0]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_group_has_an_oracle_row(workload):
    reachable = {e["group"] for e in MANIFEST[workload]} - {u.split(":")[0] for u in ORACLE["_unreachable"]}
    assert reachable <= set(ORACLE)
