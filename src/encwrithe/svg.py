"""Deterministic SVG rendering of a projection diagram.

Rendering is the one place floating point is permitted: it never feeds back
into any certified quantity. Over/under decisions at crossings are made by
the exact z-comparison of the two preimages before anything is drawn, and
the exact diagram data is embedded in a comment block for auditability.

Pictorial language: the under-strand is broken at a crossing; a solitary
double point is a dot with a short dashed cross (the classical marker for
conjugate imaginary branches); every double point carries its sign label.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from .projection import DoublePointLocus, LocusKind, ProjectionAnalysis, _image_box
from .rationals import rat_str
from .upoly import UPoly

_SAMPLES_PER_COMPONENT = 800
# the longer side of the drawing, in pixels
_SIZE = 480
# a crossing's preimages, and every marker's image point, are read as floats
# once they are known to within this width
_PREIMAGE_WIDTH = Fraction(1, 10**9)
_COLORS = ("#1f4e9c", "#b0343c", "#2c7a3f", "#8a5d00", "#5b3794")


def _under_strand_is_first(locus: DoublePointLocus) -> bool:
    """True when the branch with the *smaller* parameter is the under-strand.

    The viewer sits at z = +infinity, so the branch with smaller z passes
    under. Decided exactly from the sign of z(s0) - z(t0), which is that of
    the locus's depth polynomial times its chart product (times s0 - t0 on
    one component).
    """
    sign_diff = locus.root.sign_of(locus.polys.depth) * locus.root.sign_of(locus.polys.chart)
    if locus.is_same_component:
        # s0 < t0, so s0 - t0 < 0
        sign_diff = -sign_diff
    return sign_diff < 0


def _crossing_preimages_float(locus: DoublePointLocus) -> tuple:
    """(component, parameter) float pairs for the two branches, under first."""
    root = locus.root
    root.survivor.refine_below(_PREIMAGE_WIDTH)
    while root.eliminated_interval().width > _PREIMAGE_WIDTH:
        root.survivor.refine()
    eliminated = float(root.eliminated_interval().mid)
    survivor = float(root.survivor)
    if locus.is_same_component:
        # the preimages are the roots s0 < t0 of x^2 - e x + f
        e, f = eliminated, survivor
        gap = math.sqrt(max(e * e - 4.0 * f, 0.0))
        first = (locus.comp_i, (e - gap) / 2.0)
        second = (locus.comp_i, (e + gap) / 2.0)
    else:
        first = (locus.comp_i, eliminated)
        second = (locus.comp_j, survivor)
    if _under_strand_is_first(locus):
        return first, second
    return second, first


def _image_point_float(locus: DoublePointLocus) -> tuple[float, float]:
    """The image point as floats: midpoints of the num/den box of
    projection._image_box, the survivor refined until both sides of the box
    are narrower than _PREIMAGE_WIDTH."""
    while True:
        box = _image_box(locus)
        if box is not None and max(box[0].width, box[1].width) < _PREIMAGE_WIDTH:
            return float(box[0].mid), float(box[1].mid)
        locus.root.survivor.refine()


def _sample_component(curve, t_lo: float, t_hi: float) -> list[list[tuple]]:
    """(x, y, t) polyline segments of the projected real branch, split at
    chart poles."""
    segments: list[list[tuple]] = []
    current: list[tuple] = []
    n = _SAMPLES_PER_COMPONENT
    for k in range(n + 1):
        t = t_lo + (t_hi - t_lo) * k / n
        w = _feval(curve.W, t)
        if not abs(w) < 1e-9:
            x, y = _feval(curve.X, t) / w, _feval(curve.Y, t) / w
            if not (abs(x) > 1e4 or abs(y) > 1e4):
                current.append((x, y, t))
                continue
        # a chart pole, or a point far out, ends the segment
        if len(current) > 1:
            segments.append(current)
        current = []
    if len(current) > 1:
        segments.append(current)
    return segments


def _feval(p: UPoly, t: float) -> float:
    acc = 0.0
    for v in reversed(p.ints):
        acc = acc * t + v / p.den
    return acc


def render_diagram_svg(diagram: ProjectionAnalysis, out_path=None) -> str:
    link = diagram.link
    loci = diagram.loci
    crossings = [
        l
        for l in loci
        if l.kind in (LocusKind.CROSSING, LocusKind.INTER_COMPONENT)
    ]
    solitary = [l for l in loci if l.kind is LocusKind.SOLITARY]

    gaps: dict[int, list[float]] = {i: [] for i in range(link.n_components)}
    markers = []
    for locus in crossings:
        (under_comp, under_t), _over = _crossing_preimages_float(locus)
        gaps[under_comp].append(under_t)
        markers.append(("crossing", *_image_point_float(locus), locus.raw_sign))
    for locus in solitary:
        markers.append(("solitary", *_image_point_float(locus), locus.raw_sign))

    interesting = [abs(t) for ts in gaps.values() for t in ts] or [1.0]
    t_range = max(3.0, 2.0 * max(interesting))
    all_segments = []
    for idx, component in enumerate(link.components):
        segments = _sample_component(component, -t_range, t_range)
        all_segments.append(segments)

    xs, ys = [], []
    for segments in all_segments:
        for seg in segments:
            for x, y, _t in seg:
                xs.append(x)
                ys.append(y)
    for _kind, x, y, _s in markers:
        xs.append(x)
        ys.append(y)
    if not xs:
        xs, ys = [0.0], [0.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-6)
    pad = 0.08 * span
    x_lo, x_hi = x_lo - pad, x_hi + pad
    y_lo, y_hi = y_lo - pad, y_hi + pad
    span_x, span_y = x_hi - x_lo, y_hi - y_lo
    scale = _SIZE / max(span_x, span_y)
    gap_radius_t = 0.04 * (2 * t_range)

    def to_px(x: float, y: float) -> tuple[float, float]:
        # y axis points up in the chart, down in SVG
        return ((x - x_lo) * scale, (y_hi - y) * scale)

    parts = []
    width = span_x * scale
    height = span_y * scale
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.1f} {height:.1f}">'
    )
    audit = {
        "center": [rat_str(Fraction(c)) for c in diagram.center],
        "loci": [
            {
                "kind": l.kind.value,
                "components": [l.comp_i, l.comp_j],
                "sign": l.raw_sign,
                "data": l.describe(),
            }
            for l in loci
        ],
    }
    parts.append("<!-- exact diagram data\n" + json.dumps(audit, indent=1) + "\n-->")
    parts.append(f'<rect width="{width:.1f}" height="{height:.1f}" fill="white"/>')

    for idx, segments in enumerate(all_segments):
        color = _COLORS[idx % len(_COLORS)]
        component_gaps = gaps[idx]
        for seg in segments:
            run: list[tuple[float, float]] = []
            for x, y, t in seg:
                in_gap = any(abs(t - g) < gap_radius_t for g in component_gaps)
                if in_gap:
                    if len(run) > 1:
                        parts.append(_polyline(run, color, to_px))
                    run = []
                else:
                    run.append((x, y))
            if len(run) > 1:
                parts.append(_polyline(run, color, to_px))

    for kind, x, y, sgn in markers:
        px, py = to_px(x, y)
        label = "+1" if sgn > 0 else "-1"
        if kind == "solitary":
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3.2" fill="black"/>')
            d = 9.0
            parts.append(
                f'<path d="M {px-d:.1f} {py-d:.1f} L {px+d:.1f} {py+d:.1f} '
                f'M {px-d:.1f} {py+d:.1f} L {px+d:.1f} {py-d:.1f}" '
                'stroke="black" stroke-width="1" stroke-dasharray="3,2" fill="none"/>'
            )
        parts.append(
            f'<text x="{px+7:.1f}" y="{py-7:.1f}" font-size="13" '
            f'font-family="monospace">{label}</text>'
        )

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if out_path is not None:
        Path(out_path).write_text(text)
    return text


def _polyline(points: list[tuple[float, float]], color: str, to_px) -> str:
    coords = " ".join(f"{x:.1f},{y:.1f}" for x, y in (to_px(x, y) for x, y in points))
    return (
        f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.6"/>'
    )
