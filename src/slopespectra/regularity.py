"""Affine-regularity certification via conic membership and the chord chain.

A polygon P_0 .. P_{n-1} on a non-degenerate conic is affinely regular iff
P_{j+1}P_{j+2} is parallel to P_j P_{j+3} for every cyclic j.  Certification
here uses only that parallelism/incidence characterization, never a floating
comparison against cos/sin targets; normalize_to_regular is a numeric
diagnostic on top, not the certifier.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from ._frozen import Frozen
from .conics import Conic, conic_through_5, is_on_conic
from .errors import (
    BackendMismatch,
    CollinearSource,
    CollinearTriple,
    NonInvertible,
    TooFewPoints,
)
from .geometry import (
    Configuration,
    Point,
    convex_position_order,
    is_general_position,
    segments_parallel,
    turn,
)
from .scalars import Backend


class AffineMap(Frozen):
    """An invertible affine map x -> L x + t."""

    linear: tuple[tuple, tuple]
    translation: tuple

    def __post_init__(self):
        if self.det == 0:
            raise NonInvertible("linear part has determinant zero")

    @property
    def det(self):
        (a, b), (c, d) = self.linear
        return a * d - b * c

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(((1, 0), (0, 1)), (0, 0))

    def image_coords(self, points: Sequence[Point], backend: Backend) -> list[tuple]:
        """The (x, y) images of the points, the six entries converted to the
        backend's scalars once; BackendMismatch for a float map entry beyond
        the float range."""
        num = Fraction if backend.exact else float
        (a, b), (c, d) = self.linear
        try:
            a, b, c, d, tx, ty = map(num, (a, b, c, d, *self.translation))
        except OverflowError:
            raise BackendMismatch(
                "float backend cannot take a map entry beyond the float range") from None
        return [(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty) for p in points]

    def apply(self, p: Point, backend: Backend) -> Point:
        """The image of p, as `image_coords` computes it."""
        [(x, y)] = self.image_coords([p], backend)
        return Point(x, y)


def _cyclic_chain_failures(points: Sequence[Point], backend: Backend) -> list[int]:
    """Every cyclic j, ascending, where P_{j+1}P_{j+2} is not parallel to P_j P_{j+3}."""
    n = len(points)
    return [
        j for j in range(n)
        if not segments_parallel(points[(j + 1) % n], points[(j + 2) % n],
                                 points[j], points[(j + 3) % n], backend)
    ]


def korchmaros_chain(points: Sequence[Point], backend: Backend) -> tuple[bool, Optional[int]]:
    """Whether P_{j+1}P_{j+2} || P_j P_{j+3} for every cyclic j.

    Returns (True, None) or (False, smallest failing j).
    """
    n = len(points)
    if n < 4:
        raise TooFewPoints(f"need at least 4 points, got {n}")
    fails = _cyclic_chain_failures(points, backend)
    return not fails, fails[0] if fails else None


class RegularityCertificate(Frozen):
    """Outcome of the affine-regularity test.

    granted is True iff all points lie on a common non-degenerate conic, are
    in convex position, and the cyclic chord chain holds everywhere.
    """

    granted: bool
    conic: Optional[Conic]
    order: tuple[int, ...]
    reason: Optional[str]


def convex_polygon(config: Configuration) -> tuple[tuple[int, ...], list[Point]]:
    """(hull order, the points in that order) of a configuration in general
    position (else CollinearTriple) and convex position (else
    NotConvexPosition)."""
    gp, witness = is_general_position(config)
    if not gp:
        raise CollinearTriple(witness)
    order = convex_position_order(config)
    return order, [config.points[i] for i in order]


def common_conic(pts: Sequence[Point], order: Sequence[int], backend: Backend
                 ) -> tuple[Conic, Optional[str], Optional[int]]:
    """(conic, None, None) when the points, in hull order, lie on the conic
    through the first five; else (that conic, the reason, the input index from
    `order` of the first point off it).  The points must be the hull of a
    configuration in general and convex position (`convex_polygon`), so the fit
    cannot fail: five of them keep general position, their slope classes
    refining the configuration's, and have incidence rank 5.  The conic is
    non-degenerate: the hull's turns are strict on the exact grid, so no three
    of its points are collinear, and a line pair through five points holds
    three of them on one line."""
    conic = conic_through_5(pts[:5], backend)
    for pos, p in enumerate(pts):
        if not is_on_conic(conic, p):
            return conic, f"point {order[pos]} is off the common conic", order[pos]
    return conic, None, None


def is_affinely_regular(config: Configuration) -> RegularityCertificate:
    """Certify that the configuration is an affinely regular polygon."""
    n = len(config)
    if n < 5:
        raise TooFewPoints(f"need at least 5 points, got {n}")
    order, pts = convex_polygon(config)
    conic, reason, _ = common_conic(pts, order, config.backend)
    if reason is not None:
        return RegularityCertificate(False, conic, order, reason)
    chain_ok, fail_j = korchmaros_chain(pts, config.backend)
    if not chain_ok:
        return RegularityCertificate(False, conic, order,
                                     f"chord chain fails at cyclic index {fail_j}")
    return RegularityCertificate(True, conic, order, None)


def solve_affine_map(src: Sequence[Point], dst: Sequence[Point],
                     backend: Backend) -> AffineMap:
    """The unique affine map sending three non-collinear source points to
    three destination points; exact on rationals.  Its linear part sends the
    edge vectors p1-p0, p2-p0 to q1-q0, q2-q0."""
    if len(src) != 3 or len(dst) != 3:
        raise CollinearSource("need exactly three source and destination points")
    (p0, p1, p2), (q0, q1, q2) = src, dst
    ux, uy, vx, vy = p1.x - p0.x, p1.y - p0.y, p2.x - p0.x, p2.y - p0.y
    sx, sy, tx, ty = q1.x - q0.x, q1.y - q0.y, q2.x - q0.x, q2.y - q0.y
    if turn(ux, uy, vx, vy, backend) == 0:
        raise CollinearSource("source triple is collinear")
    if turn(sx, sy, tx, ty, backend) == 0:
        raise NonInvertible("destination triple is collinear")
    den = ux * vy - vx * uy
    a, b = (sx * vy - tx * uy) / den, (tx * ux - sx * vx) / den
    c, d = (sy * vy - ty * uy) / den, (ty * ux - sy * vx) / den
    return AffineMap(((a, b), (c, d)), (q0.x - a * p0.x - b * p0.y, q0.y - c * p0.x - d * p0.y))


def regular_vertex(k: int, m: int) -> Point:
    """Vertex k of the canonical regular m-gon on the unit circumcircle."""
    ang = 2.0 * math.pi * k / m
    return Point(math.cos(ang), math.sin(ang))


def normalize_to_regular(points: Sequence[Point], m: int, backend: Backend,
                         targets: Optional[Sequence[int]] = None) -> tuple[AffineMap, float]:
    """Map the first three points onto their target vertices of the canonical
    regular m-gon and report the max displacement of the remaining points.

    targets gives the m-gon vertex index for each point (default 0,1,2,...);
    a configuration with deleted vertices passes the surviving indices.
    Float backend only: regular-polygon vertices are irrational.
    """
    if backend.exact:
        raise BackendMismatch("normalize_to_regular is defined for the float backend only")
    n = len(points)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    if n > m:
        raise TooFewPoints(f"cannot place {n} points on an {m}-gon")
    targets = list(range(n) if targets is None else targets)
    if len(targets) != n or len(set(targets)) != n or not all(0 <= t < m for t in targets):
        raise ValueError(f"targets must be {n} distinct vertex indices below {m}")
    goal = [regular_vertex(t, m) for t in targets]
    T = solve_affine_map(points[:3], goal[:3], backend)
    residual = 0.0
    for (x, y), q in zip(T.image_coords(points[3:], backend), goal[3:]):
        residual = max(residual, math.hypot(x - q.x, y - q.y))
    return T, residual
