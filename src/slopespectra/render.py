"""Deterministic SVG figures: points, labels, parallel-class highlighting
with one dash pattern per class, forbidden-slope markers, and fitted conics.

The view box is the configuration's bounding box with a 10% margin; all
numbers are written with fixed four-decimal formatting so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import math

from .conics import Conic, conic_through_5
from .errors import BackendMismatch, ParseError, RenderTooLarge, SlopeSpectraError
from .geometry import Configuration, direction_from_vector, directions_parallel
from .pointfile import _parse_token
from .scalars import ordered_sum
from .slopes import forbidden_slopes_at, slope_spectrum

POINT_CAP = 1000  # documented limit for cmd_render
_CANVAS = 600.0
_SAMPLES = 256  # polyline samples of a parabola or hyperbola across the frame
_DASHES = ("none", "8,4", "2,3", "10,3,2,3", "5,5", "1,4", "12,2", "6,2,2,2")


def _fmt(v: float) -> str:
    s = f"{v:.4f}"
    return "0.0000" if s == "-0.0000" else s


class _Frame:
    """World-to-SVG transform with a 10% margin and flipped y axis."""

    def __init__(self, pts: list[tuple[float, float]]):
        xs, ys = zip(*pts)
        self.minx, self.maxx = min(xs), max(xs)
        self.miny, self.maxy = min(ys), max(ys)
        span = max(self.maxx - self.minx, self.maxy - self.miny, 1e-9)
        self.margin = 0.1 * span
        self.scale = _CANVAS / (span + 2 * self.margin)
        self.width = (self.maxx - self.minx + 2 * self.margin) * self.scale
        self.height = (self.maxy - self.miny + 2 * self.margin) * self.scale

    def to_svg(self, x: float, y: float) -> tuple[float, float]:
        sx = (x - self.minx + self.margin) * self.scale
        sy = (self.maxy + self.margin - y) * self.scale
        return sx, sy

    def inside(self, x: float, y: float) -> bool:
        return (self.minx - self.margin <= x <= self.maxx + self.margin
                and self.miny - self.margin <= y <= self.maxy + self.margin)


def _segment(frame: _Frame, p, q, stroke: str, dash: str, cls: str) -> str:
    x1, y1 = frame.to_svg(*p)
    x2, y2 = frame.to_svg(*q)
    dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
    return (f'<line class="{cls}" x1="{_fmt(x1)}" y1="{_fmt(y1)}" '
            f'x2="{_fmt(x2)}" y2="{_fmt(y2)}" stroke="{stroke}" '
            f'stroke-width="1.5"{dash_attr}/>')


def _conic_ellipse_params(conic: Conic):
    """Centre, semi-axes and major-axis angle of the ellipse
    (p - centre)^T M (p - centre) = k, M = [[a, b/2], [b/2, c]]; closed form.
    Raises SlopeSpectraError unless the conic is a real ellipse."""
    a, b, c, d, e, f = (float(v) for v in conic.coeffs)
    h = b / 2
    det2 = a * c - h * h
    if det2 <= 0:  # a parabola, a hyperbola or a degenerate conic
        raise SlopeSpectraError("not an ellipse")
    cx = (e * h - c * d) / (2 * det2)
    cy = (d * h - a * e) / (2 * det2)
    k = -(f + (d * cx + e * cy) / 2)
    hi = (a + c) / 2 + math.hypot((a - c) / 2, h)
    if k <= 0 or hi <= 0:
        raise SlopeSpectraError("not an ellipse")
    lo = det2 / hi  # the product of the eigenvalues is det2
    theta = math.atan2(-b, c - a) / 2
    return cx, cy, math.sqrt(k / lo), math.sqrt(k / hi), theta


def _conic_svg(conic: Conic, frame: _Frame) -> str:
    try:
        cx, cy, r1, r2, theta = _conic_ellipse_params(conic)
    except SlopeSpectraError:
        return _conic_path(conic, frame)
    sx, sy = frame.to_svg(cx, cy)
    # y flip negates the rotation angle
    deg = -math.degrees(theta)
    return (f'<ellipse id="conic" cx="{_fmt(sx)}" cy="{_fmt(sy)}" '
            f'rx="{_fmt(r1 * frame.scale)}" ry="{_fmt(r2 * frame.scale)}" '
            f'transform="rotate({_fmt(deg)} {_fmt(sx)} {_fmt(sy)})" '
            f'fill="none" stroke="#2060c0" stroke-width="1.0"/>')


def _conic_path(conic: Conic, frame: _Frame) -> str:
    """Sampled polyline branches for parabolas/hyperbolas inside the frame.
    A branch breaks at every sample where it has no real point in the frame."""
    a, b, c, d, e, f = (float(v) for v in conic.coeffs)
    branches: list[list[list[str]]] = [[[]], [[]]]  # each branch's runs of "x,y"
    x0 = frame.minx - frame.margin
    x1 = frame.maxx + frame.margin
    for i in range(_SAMPLES + 1):
        x = x0 + (x1 - x0) * i / _SAMPLES
        qa, qb, qc = c, b * x + e, a * x * x + d * x + f
        if abs(qa) > 1e-14:
            disc = qb * qb - 4 * qa * qc
            ys = [] if disc < 0 else [(-qb + s * math.sqrt(disc)) / (2 * qa) for s in (1.0, -1.0)]
        elif abs(qb) > 1e-14:
            ys = [-qc / qb]
        else:
            ys = []
        for bi, runs in enumerate(branches):
            if bi < len(ys) and frame.inside(x, ys[bi]):
                sx, sy = frame.to_svg(x, ys[bi])
                runs[-1].append(f"{_fmt(sx)},{_fmt(sy)}")
            elif runs[-1]:
                runs.append([])  # break the polyline
    parts = ["M" + "L".join(run) for runs in branches for run in runs if len(run) > 1]
    if not parts:
        return '<path id="conic" d="" fill="none"/>'
    return (f'<path id="conic" d="{" ".join(parts)}" fill="none" '
            f'stroke="#2060c0" stroke-width="1.0"/>')


def parse_highlight(text: str):
    """The (kind, argument) of a highlight: ("conic", None),
    ("forbidden", point index), ("parallel", "all") or ("parallel", (dx, dy))
    with dx, dy parsed like point-file coordinates; ValueError if malformed."""
    kind, _, arg = text.strip().partition(" ")
    arg = arg.strip()
    try:
        if kind == "conic":
            return kind, None
        if kind == "forbidden":
            return kind, int(arg)
        if kind == "parallel" and arg == "all":
            return kind, arg
        if kind == "parallel" and arg[:1] + arg[-1:] == "()":
            dx, dy = (_parse_token(t.strip(), 0)[0] for t in arg[1:-1].split(","))
            if dx != 0 or dy != 0:
                return kind, (dx, dy)
    except (ValueError, ParseError):
        pass
    raise ValueError("highlight must be 'conic', 'forbidden <i>', 'parallel (dx,dy)' "
                     f"or 'parallel all', got {text!r}")


def render_svg(config: Configuration, highlight: str | None = None) -> str:
    """An SVG document for the configuration.

    highlight: None, "conic", "forbidden <i>", "parallel (dx,dy)", or
    "parallel all" (one dash pattern per class, cycled).  Every exact value
    becomes a float here, the points once up front; one beyond the float
    range raises BackendMismatch.
    """
    if len(config) > POINT_CAP:
        raise RenderTooLarge(f"{len(config)} points exceed the cap of {POINT_CAP}")
    try:
        pts = [(float(p.x), float(p.y)) for p in config.points]
        frame = _Frame(pts)
        body: list[str] = []

        if highlight:
            kind, arg = parse_highlight(highlight)
            if kind == "conic":
                conic = conic_through_5(config.points[:5], config.backend)
                body.append(_conic_svg(conic, frame))
            elif kind == "parallel":
                selected = list(enumerate(slope_spectrum(config).classes))
                if arg != "all":
                    b = config.backend
                    want = direction_from_vector(b.coerce(arg[0]), b.coerce(arg[1]), b)
                    selected = [(ci, cls) for ci, cls in selected
                                if directions_parallel(cls.direction, want, b)]
                for ci, cls in selected:
                    for (i, j) in cls.pairs:
                        body.append(_segment(frame, pts[i], pts[j], "#303030",
                                             _DASHES[ci % len(_DASHES)], f"parallel-{ci}"))
            else:  # forbidden at point arg
                missing = forbidden_slopes_at(config, arg)
                px, py = pts[arg]
                half = 0.15 * max(frame.maxx - frame.minx, frame.maxy - frame.miny)
                for di, d in enumerate(missing):
                    dx, dy = float(d.dx), float(d.dy)
                    h = math.hypot(dx, dy)
                    dx, dy = dx / h * half, dy / h * half
                    body.append(_segment(frame, (px - dx, py - dy), (px + dx, py + dy),
                                         "#c03030", _DASHES[(di + 1) % len(_DASHES)],
                                         f"forbidden-{arg}"))
    except OverflowError:
        raise BackendMismatch("render cannot draw a value beyond the float range") from None

    for x, y in pts:
        x, y = frame.to_svg(x, y)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3.0" fill="#000000"/>')
    cx = ordered_sum(x for x, _ in pts) / len(pts)
    cy = ordered_sum(y for _, y in pts) / len(pts)
    for i, (px, py) in enumerate(pts):
        vx, vy = px - cx, py - cy
        h = math.hypot(vx, vy) or 1.0
        off = 0.05 * max(frame.maxx - frame.minx, frame.maxy - frame.miny, 1e-9)
        lx, ly = frame.to_svg(px + vx / h * off, py + vy / h * off)
        body.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
                    f'font-family="monospace" text-anchor="middle">{i}</text>')

    w, h = _fmt(frame.width), _fmt(frame.height)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">')
    return "\n".join([head] + body + ["</svg>"]) + "\n"
