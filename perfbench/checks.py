"""Checks of the program's answers, from properties the method must have
and from the independent oracle table, never from a copy of past output.

Each check function returns a list of failure messages; an empty list means
the answer passed. A `writhe` answer is the `--json` payload of one call;
a scan answer is the `--json` payload of `verify` on a family file.
"""

from __future__ import annotations

import re
from fractions import Fraction

_SAME = re.compile(r"(crossing|solitary) on component (\d+)")
_INTER = re.compile(r"inter-component between components (\d+) and (\d+)")

ROLE_SIGN = {"base": 1, "pos": 1, "neg": -1}


def genus_bound(degree: int) -> int:
    """(d-1)(d-2)/2: the number of complex double points of a generic
    projection, the bound on |Cw| and its parity."""
    return (degree - 1) * (degree - 2) // 2


def _fraction(text) -> Fraction:
    return Fraction(str(text))


def parity_and_bound(value: int, degree: int) -> list[str]:
    k = genus_bound(degree)
    if abs(value) > k or (value - k) % 2:
        return [f"Cw = {value} breaks |Cw| <= {k}, Cw = {k} (mod 2) for degree {degree}"]
    return []


def component_writhes(payload: dict, n: int) -> tuple[list[int], list[str]]:
    """Per-component Cw summed from the signed loci of one diagram."""
    per = [0] * n
    failures = []
    for locus in payload["loci"]:
        desc, sign = locus["description"], locus["sign"]
        if sign not in (1, -1):
            failures.append(f"locus sign {sign!r} is not +-1")
        same = _SAME.match(desc)
        if same:
            per[int(same.group(2))] += sign
        elif not _INTER.match(desc):
            failures.append(f"unreadable locus {desc!r}")
    return per, failures


def linking(payload: dict) -> list[list[Fraction]]:
    return [[_fraction(v) for v in row] for row in payload["linking"]]


def check_writhe(entry: dict, payload: dict, expected: dict | None, base: dict | None) -> list[str]:
    """One `writhe` answer.

    `expected` is the oracle row of the entry's group (None when the oracle
    could not reach it); `base` is the same group's base answer of this pass
    (None for the base itself or when the base failed). Images under a
    det > 0 transform keep Cw and every lk, mirrors negate them.
    """
    degrees = entry["degrees"]
    sign = ROLE_SIGN[entry["role"]]
    failures = []
    cw = payload["unoriented"]
    if payload["complex_counts"] != [genus_bound(d) for d in degrees]:
        failures.append(f"complex_counts {payload['complex_counts']} for degrees {degrees}")
    per, bad = component_writhes(payload, len(degrees))
    failures += bad
    if sum(per) != cw:
        failures.append(f"Cw = {cw} but the same-component loci sum to {sum(per)}")
    for value, d in zip(per, degrees):
        failures += parity_and_bound(value, d)
    if expected is not None and cw != sign * expected["cw"]:
        failures.append(f"Cw = {cw}, oracle {sign * expected['cw']}")
    if base is not None and cw != sign * base["unoriented"]:
        failures.append(f"Cw = {cw}, base {base['unoriented']} (det sign {sign:+d})")
    if entry.get("orientations"):
        failures += _check_links(entry, payload, expected, base, sign)
    return failures


def _check_links(entry, payload, expected, base, sign) -> list[str]:
    degrees = entry["degrees"]
    n = len(degrees)
    failures = []
    if payload["oriented"] is None or payload["linking"] is None:
        return ["oriented link answered without oriented writhe or linking matrix"]
    lk = linking(payload)
    total = Fraction(0)
    for i in range(n):
        if lk[i][i] != 0:
            failures.append(f"lk[{i}][{i}] = {lk[i][i]}")
        for j in range(i + 1, n):
            total += lk[i][j]
            if lk[i][j] != lk[j][i]:
                failures.append(f"linking matrix not symmetric at ({i}, {j})")
            twice = 2 * lk[i][j]
            if twice.denominator != 1 or (twice - degrees[i] * degrees[j]) % 2:
                failures.append(
                    f"2 lk[{i}][{j}] = {twice} breaks 2 lk = d_i d_j (mod 2) for degrees {degrees[i]}, {degrees[j]}"
                )
    if payload["oriented"] - payload["unoriented"] != 2 * total:
        failures.append(
            f"oriented {payload['oriented']} - unoriented {payload['unoriented']} != 2 * sum lk = {2 * total}"
        )
    if expected is not None:
        want = [[sign * _fraction(v) for v in row] for row in expected["linking"]]
        if lk != want:
            failures.append(f"linking {payload['linking']}, oracle {want}")
    if base is not None:
        want = [[sign * v for v in row] for row in linking(base)]
        if lk != want:
            failures.append(f"linking {payload['linking']}, base {base['linking']} (det sign {sign:+d})")
    return failures


def check_scan(entry: dict, payload: dict, expected: dict | None) -> list[str]:
    """One `verify` answer on a family file.

    Every member of the grid is answered, in order. Every member of a
    rigid-isotopy family is ok (the fixed center was chosen so) and keeps
    its base curve's Cw; in the bundled families every member but the
    tau = 0 wall is ok. The bundled model family keeps Cw = -1 across its
    first-move wall (jump 0); the bundled quartic family jumps by +-2
    across its node.
    """
    degree = entry["degrees"][0]
    kind = entry["kind"]
    members = payload["members"]
    failures = []
    taus = [_fraction(m["tau"]) for m in members]
    if taus != [_fraction(t) for t in entry["grid"]]:
        failures.append(f"members at tau = {[m['tau'] for m in members]}, grid {entry['grid']}")
    for tau, m in zip(taus, members):
        if m["status"] != "ok" and (kind == "rigid" or tau != 0):
            failures.append(f"tau = {tau}: status {m['status']!r}, expected 'ok'")
    ok = [(tau, m["writhe"]) for tau, m in zip(taus, members) if m["status"] == "ok"]
    for tau, value in ok:
        failures += [f"tau = {tau}: {msg}" for msg in parity_and_bound(value, degree)]
    if not payload["constant_between_walls"]:
        failures.append("Cw changes between walls")
    jumps = [w["jump"] for w in payload["wall_jumps"]]
    if kind == "rigid":
        if expected is not None:
            failures += [
                f"tau = {tau}: Cw = {value}, base curve {expected['cw']}"
                for tau, value in ok
                if value != expected["cw"]
            ]
        return failures
    want_jump = {"model": {0}, "quartic": {2, -2}}[kind]
    if not jumps or any(j not in want_jump for j in jumps):
        failures.append(f"wall jumps {jumps}, expected each in {sorted(want_jump)}")
    if expected is not None:
        for tau, value in ok:
            want = expected["below"] if tau < 0 else expected["above"]
            if value != want:
                failures.append(f"tau = {tau}: Cw = {value}, oracle {want}")
    return failures
