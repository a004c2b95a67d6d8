"""Line-oriented JSON curve files.

Line 1 is a header object; every following line is one component:

    {"kind": "link", "orientations": [1, -1]}
    {"x": [1, 0, -1], "y": [0, 1, 0, -1], "z": [0, -1], "w": [1]}

Rationals are serialized as "p/q" strings so exactness survives any
consumer. A family file declares a parameter and a grid, and coefficient
entries may be arithmetic expressions in the parameter:

    {"kind": "family", "parameter": "tau", "grid": ["-1", "0", "1"]}
    {"x": ["-tau", 0, -1], "y": [0, "-tau", 0, -1], "z": [0, -1], "w": [1]}
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional, Union

from .curves import Link, RationalSpaceCurve
from .errors import InvalidInput, ParseError
from .rationals import check_power, rat, rat_str
from .upoly import UPoly

_COORD_KEYS = ("x", "y", "z", "w")


@dataclass
class CurveFamily:
    """One-parameter family of links with a rational evaluation grid."""

    parameter: str
    grid: list[Fraction]
    instantiate: Callable[[Fraction], Link]
    center: Optional[tuple] = None


# a coefficient as parsed: a rational, or the evaluator of an expression in
# the family parameter
Coefficient = Union[Fraction, Callable[[Fraction], Fraction]]


def _compile_coeff_expr(text: str, parameter: str, where: str) -> Coefficient:
    """Check a coefficient expression in one pass: its value, or its
    evaluator when it reads the parameter. Syntax, the operations, integer
    literals (no boolean), the nesting depth and the parameter as the only
    name are checked here, and each subexpression without the parameter is
    evaluated here, once, so its errors (a division by zero, an exponent that
    is not a natural number, a power past the bit budget) are ParseErrors of
    the file. Only what depends on the parameter value the evaluator raises.
    """
    too_deep = f"{where}: coefficient expression {text!r} nested too deeply"
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParseError(f"{where}: bad coefficient expression {text!r}: {exc}") from exc
    except (RecursionError, MemoryError):  # how the parser ends at deep nesting
        raise ParseError(too_deep) from None

    def apply(op: ast.operator, left: Fraction, right: Fraction) -> Fraction:
        if isinstance(op, ast.Add):
            return left + right
        if isinstance(op, ast.Sub):
            return left - right
        if isinstance(op, ast.Mult):
            return left * right
        if isinstance(op, ast.Div):
            if right == 0:
                raise ParseError(f"division by zero in {text!r}")
            return left / right
        if right.denominator != 1 or right < 0:
            raise ParseError(f"bad exponent in {text!r}")
        base_bits = max(abs(left.numerator).bit_length(), left.denominator.bit_length())
        check_power(base_bits, int(right), text)
        return left ** int(right)

    def build(node, depth: int) -> Coefficient:
        if depth > 200:  # as deep as Python's parser nests parentheses
            raise ParseError(too_deep)
        if isinstance(node, ast.Constant):
            if type(node.value) is not int:  # bool is an int subclass
                raise ParseError(f"{where}: non-integer literal in {text!r}")
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            if node.id != parameter:
                raise ParseError(f"{where}: unknown symbol {node.id!r} in {text!r}")
            return lambda value: value
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            # -x is 0 - x and +x is 0 + x
            op = ast.Sub() if isinstance(node.op, ast.USub) else ast.Add()
            node = ast.BinOp(ast.Constant(0), op, node.operand)
        if not isinstance(node, ast.BinOp) or not isinstance(
            node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
        ):
            raise ParseError(f"{where}: unsupported syntax in coefficient expression {text!r}")
        op, left, right = node.op, build(node.left, depth + 1), build(node.right, depth + 1)
        if callable(left) or callable(right):
            return lambda value: apply(op, *(x(value) if callable(x) else x for x in (left, right)))
        try:
            return apply(op, left, right)
        except ParseError as exc:  # InputTooLarge stays InputTooLarge
            raise type(exc)(f"{where}: {exc}") from None

    return build(tree.body, 0)


def _parse_coefficient(entry, parameter: Optional[str], where: str) -> Coefficient:
    if isinstance(entry, bool):
        raise ParseError(f"{where}: boolean is not a coefficient")
    if isinstance(entry, int):
        return Fraction(entry)
    if isinstance(entry, str):
        text = entry.strip()
        try:
            return rat(text)
        except InvalidInput:
            pass
        if parameter is None:
            raise ParseError(f"{where}: non-rational coefficient {entry!r} outside a family")
        return _compile_coeff_expr(text, parameter, where)
    if isinstance(entry, float):
        raise ParseError(f"{where}: floating point coefficient {entry!r}; use 'p/q' strings")
    raise ParseError(f"{where}: unreadable coefficient {entry!r}")


def _parse_record(
    record: dict, index: int, parameter: Optional[str] = None
) -> list[list[Coefficient]]:
    """The x, y, z, w coefficient lists of one component record."""
    if not isinstance(record, dict):
        raise ParseError(f"component {index}: must be a JSON object")
    coords = []
    for key in _COORD_KEYS:
        if key not in record:
            raise ParseError(f"component {index}: missing coordinate {key!r}")
        entries = record[key]
        if not isinstance(entries, list) or not entries:
            raise ParseError(f"component {index}: coordinate {key!r} must be a nonempty list")
        coords.append(
            [
                _parse_coefficient(entry, parameter, f"component {index}, {key}[{pos}]")
                for pos, entry in enumerate(entries)
            ]
        )
    return coords


def _component(coords: list[list[Fraction]], index: int) -> RationalSpaceCurve:
    x, y, z, w = (UPoly(c) for c in coords)
    if x.is_zero and y.is_zero and z.is_zero and w.is_zero:
        raise ParseError(f"component {index}: zero quadruple")
    if w.is_zero:
        raise ParseError(
            f"component {index}: w is identically zero (curve lies in the plane at infinity)"
        )
    try:
        return RationalSpaceCurve(x, y, z, w)
    except InvalidInput as exc:
        raise ParseError(f"component {index}: {exc}") from exc


def parse_curve_file(path) -> Link | CurveFamily:
    """Parse a link or family file; validation is left to the caller."""
    path = Path(path)
    try:  # JSON text is UTF-8, whatever the locale
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    records = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            records.append((lineno, json.loads(line)))
        except (ValueError, RecursionError) as exc:
            # a JSONDecodeError, an integer past the digit limit, or nesting
            # past the recursion limit
            raise ParseError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
    if not records:
        raise ParseError(f"{path}: empty file")
    _, header = records[0]
    if not isinstance(header, dict) or "kind" not in header:
        raise ParseError(f"{path}:1: first line must be a header object with 'kind'")
    body = records[1:]
    if not body:
        raise ParseError(f"{path}: no components")
    orientations = header.get("orientations")
    if orientations is not None:
        if not isinstance(orientations, list) or any(
            type(o) is not int or o not in (1, -1) for o in orientations  # no bool, no float
        ):
            raise ParseError(f"{path}: orientations must be a list of +1/-1")
        if len(orientations) != len(body):
            raise ParseError(f"{path}: one orientation flag per component required")
        orientations = tuple(orientations)

    if header["kind"] == "link":
        components = [
            _component(_parse_record(rec, idx), idx) for idx, (_, rec) in enumerate(body)
        ]
        return Link(components, orientations)

    if header["kind"] == "family":
        parameter = header.get("parameter")
        if not isinstance(parameter, str) or not parameter.isidentifier():
            raise ParseError(f"{path}: family needs a 'parameter' identifier")
        raw_grid = header.get("grid")
        if not isinstance(raw_grid, list) or not raw_grid:
            raise ParseError(f"{path}: family needs a nonempty 'grid'")
        try:
            grid = [rat(v) for v in raw_grid]
        except InvalidInput as exc:
            raise ParseError(f"{path}: bad grid entry: {exc}") from exc
        center = header.get("center")
        if center is not None:
            if not isinstance(center, list):
                raise ParseError(f"{path}: family 'center' must be a list")
            try:
                center = tuple(rat(v) for v in center)
            except InvalidInput as exc:
                raise ParseError(f"{path}: bad center entry: {exc}") from exc
        # every expression is checked here, once; only errors that depend on
        # the parameter value are left to the members
        parsed = [_parse_record(rec, idx, parameter) for idx, (_, rec) in enumerate(body)]

        def instantiate(tau: Fraction) -> Link:
            tau = rat(tau)
            components = [
                _component(
                    [[c(tau) if callable(c) else c for c in coeffs] for coeffs in coords],
                    idx,
                )
                for idx, coords in enumerate(parsed)
            ]
            return Link(components, orientations)

        return CurveFamily(
            parameter=parameter,
            grid=grid,
            instantiate=instantiate,
            center=center,
        )

    raise ParseError(f"{path}: unknown kind {header['kind']!r}")


def link_to_lines(link: Link) -> list[str]:
    header: dict = {"kind": "link"}
    if link.orientations is not None:
        header["orientations"] = list(link.orientations)
    lines = [json.dumps(header)]
    for component in link.components:
        record = {
            key: [_coeff_json(c) for c in poly.coeffs] or [0]
            for key, poly in zip(_COORD_KEYS, component.coords)
        }
        lines.append(json.dumps(record))
    return lines


def _coeff_json(c: Fraction):
    if c.denominator == 1:
        return int(c)
    return rat_str(c)


def write_link_file(link: Link, path) -> None:
    Path(path).write_text("\n".join(link_to_lines(link)) + "\n")
