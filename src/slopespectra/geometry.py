"""Points, directions, configurations and the base predicates.

Directions are canonical representatives of parallelism classes: on the
exact backend an integer-primitive pair (dx, dy) with dx > 0 (or dx = 0,
dy > 0); on the float backend a unit vector whose angle lies in [0, pi).
Every parallel, collinear and which-side decision is the sign of one cross
product, `turn`: exact on rationals, a sine bound of eps_rel on floats.

A configuration partitions its pairs into parallelism classes once
(`Configuration.direction_classes`): the exact backend hashes every pair by
its canonical integer direction, the float backend merges sorted pair
angles.  The collinearity test and the slope spectrum read that one table.

Indices are 0-based throughout the library.  Cyclic index arithmetic is
taken modulo n wherever an operation documents it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    CoincidentPoints,
    DuplicatePoints,
    NotConvexPosition,
    TooFewPoints,
)
from .scalars import EXACT, Backend


@dataclass(frozen=True)
class Point:
    """A planar point; both coordinates share one backend's scalar type."""

    x: object
    y: object

    def __iter__(self):
        yield self.x
        yield self.y

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)


@dataclass(frozen=True)
class Direction:
    """Canonical representative of a parallelism class of segments."""

    dx: object
    dy: object
    exact: bool
    angle: float = field(compare=False, default=0.0)

    def as_floats(self) -> tuple[float, float]:
        return float(self.dx), float(self.dy)

    def __str__(self):
        if self.exact:
            return f"({self.dx},{self.dy})"
        return f"angle={self.angle:.12g}"


def _primitive(ix: int, iy: int) -> tuple[int, int]:
    """The primitive integer vector parallel to the nonzero (ix, iy), with
    dx > 0, or dx = 0 and dy > 0."""
    g = math.gcd(ix, iy)
    ix //= g
    iy //= g
    if ix < 0 or (ix == 0 and iy < 0):
        return -ix, -iy
    return ix, iy


def direction_key(dx: Fraction, dy: Fraction) -> tuple[int, int]:
    """The canonical integer pair of the nonzero rational vector (dx, dy)."""
    den = math.lcm(dx.denominator, dy.denominator)
    return _primitive(dx.numerator * (den // dx.denominator),
                      dy.numerator * (den // dy.denominator))


def integer_direction(key: tuple[int, int]) -> Direction:
    """The exact Direction of a canonical integer pair."""
    ix, iy = key
    return Direction(ix, iy, True, math.atan2(iy, ix) % math.pi)


def integer_grid(points) -> tuple[int, list[tuple[int, int]]]:
    """The points on one integer grid: (Z, [(x Z, y Z), ...]), Z the lcm of
    all coordinate denominators.  Takes Fractions and floats alike (a float
    is an exact dyadic rational); scaling changes no direction or incidence.
    """
    ratios = [(p.x.as_integer_ratio(), p.y.as_integer_ratio()) for p in points]
    z = math.lcm(*(den for xy in ratios for _, den in xy))
    return z, [(nx * (z // dx), ny * (z // dy)) for (nx, dx), (ny, dy) in ratios]


def direction_from_vector(dx, dy, backend: Backend) -> Direction:
    """Canonical Direction of the (nonzero) vector (dx, dy)."""
    if backend.exact:
        fx, fy = Fraction(dx), Fraction(dy)
        if fx == 0 and fy == 0:
            raise CoincidentPoints("zero vector has no direction")
        return integer_direction(direction_key(fx, fy))
    fx, fy = float(dx), float(dy)
    if fx == 0.0 and fy == 0.0:
        raise CoincidentPoints("zero vector has no direction")
    ux, uy, ang = _unit_direction(fx, fy)
    return Direction(ux, uy, exact=False, angle=ang)


def _unit_direction(fx: float, fy: float) -> tuple[float, float, float]:
    """(ux, uy, angle) of the nonzero float vector (fx, fy): the unit vector
    flipped into the upper half-plane, and its angle in [0, pi)."""
    if fy < 0.0 or (fy == 0.0 and fx < 0.0):
        fx, fy = -fx, -fy
    h = math.hypot(fx, fy)
    fx, fy = fx / h, fy / h
    ang = math.atan2(fy, fx)
    if ang >= math.pi:
        ang -= math.pi
    if ang < 0.0:
        ang = 0.0
    return fx, fy, ang


def direction(p: Point, q: Point, backend: Backend) -> Direction:
    """Canonical Direction of segment PQ; symmetric in its arguments."""
    if points_equal(p, q, backend):
        raise CoincidentPoints(f"{p} and {q} coincide")
    return direction_from_vector(q.x - p.x, q.y - p.y, backend)


def turn(ux, uy, vx, vy, backend: Backend) -> int:
    """Sign of u x v: +1 ccw, -1 cw, 0 parallel; exact on rationals.  On floats
    0 iff |u x v| <= eps_rel |u| |v|, a sine bound that no scaling moves, with
    the eps, in radians, within which `direction_classes` merges pair angles."""
    cross = ux * vy - uy * vx
    if backend.exact or abs(cross) > backend.eps_rel * math.hypot(ux, uy) * math.hypot(vx, vy):
        return (cross > 0) - (cross < 0)
    return 0


def directions_parallel(d1: Direction, d2: Direction, backend: Backend) -> bool:
    """Direction equality: the two directions do not turn."""
    return turn(d1.dx, d1.dy, d2.dx, d2.dy, backend) == 0


def points_equal(p: Point, q: Point, backend: Backend) -> bool:
    return backend.eq(p.x, q.x) and backend.eq(p.y, q.y)


def orientation(p: Point, q: Point, r: Point, backend: Backend) -> int:
    """Turn of P -> Q -> R: +1 ccw, -1 cw, 0 collinear."""
    return turn(q.x - p.x, q.y - p.y, r.x - p.x, r.y - p.y, backend)


def segments_parallel(p: Point, q: Point, r: Point, s: Point, backend: Backend) -> bool:
    """Whether segment PQ is parallel to segment RS."""
    return turn(q.x - p.x, q.y - p.y, s.x - r.x, s.y - r.y, backend) == 0


@dataclass(frozen=True)
class Configuration:
    """An immutable indexed set of pairwise-distinct planar points."""

    points: tuple[Point, ...]
    backend: Backend

    def __post_init__(self):
        pts = self.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if points_equal(pts[i], pts[j], self.backend):
                    raise DuplicatePoints(i, j)

    @classmethod
    def from_coords(cls, coords: Iterable, backend: Backend) -> "Configuration":
        pts = tuple(Point(backend.coerce(x), backend.coerce(y)) for x, y in coords)
        return cls(pts, backend)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def reordered(self, order: Sequence[int]) -> "Configuration":
        """The points at the given indices, in that order (a subset too)."""
        return Configuration(tuple(self.points[i] for i in order), self.backend)

    @cached_property
    def direction_classes(self) -> tuple[tuple[Direction, tuple[tuple[int, int], ...]], ...]:
        """The parallelism classes of all pairs: (canonical direction, the
        pairs (i, j) with i < j whose segment has it, in lexicographic order).

        One O(n^2) pass, cached on the configuration.  Exact: the points are
        put on their `integer_grid`, so each pair costs one gcd; classes are
        sorted by direction.  Float: sorted pair angles in [0, pi) are merged
        when adjacent within eps_rel radians, the pi/0 wraparound included;
        a class is represented by its smallest (angle, i, j), and classes are
        sorted by angle.  Merging follows the sorted order and is not
        transitively closed, which keeps the output deterministic.
        """
        pts = self.points
        b = self.backend
        if b.exact:
            _, grid = integer_grid(pts)
            classes: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for i, (xi, yi) in enumerate(grid):
                for j in range(i + 1, len(grid)):
                    xj, yj = grid[j]
                    classes.setdefault(_primitive(xj - xi, yj - yi), []).append((i, j))
            return tuple((integer_direction(key), tuple(classes[key]))
                         for key in sorted(classes))

        items = [(_unit_direction(q.x - p.x, q.y - p.y)[2], i, j)
                 for i, p in enumerate(pts) for j, q in enumerate(pts[i + 1:], i + 1)]
        items.sort()
        groups: list[list] = []
        for item in items:
            if groups and item[0] - groups[-1][-1][0] <= b.eps_rel:
                groups[-1].append(item)
            else:
                groups.append([item])
        # the last group may continue into the first across pi/0; either
        # way each group starts with its smallest item, in ascending order
        if len(groups) > 1 and groups[0][0][0] + math.pi - groups[-1][-1][0] <= b.eps_rel:
            groups[0] += groups.pop()
        out = []
        for grp in groups:
            _, i, j = grp[0]
            d = direction_from_vector(pts[j].x - pts[i].x, pts[j].y - pts[i].y, b)
            out.append((d, tuple(sorted((i, j) for _, i, j in grp))))
        return tuple(out)


def is_general_position(config: Configuration) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether no three points are collinear.

    On failure, also returns the lexicographically first collinear triple.
    Reads `direction_classes`, one O(n^2) pass: (i, j, k) is collinear iff
    the pairs (i, j) and (i, k) share a class, and for the first triple they
    are adjacent in it.
    """
    n = len(config)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    first = min(((i, j, k) for _, pairs in config.direction_classes
                 for (i, j), (i2, k) in zip(pairs, pairs[1:]) if i == i2),
                default=None)
    return first is None, first


def convex_position_order(config: Configuration) -> tuple[int, ...]:
    """Counterclockwise convex-polygon order of the point indices.

    The order starts at the lexicographically smallest point (lowest x,
    then lowest y).  Requires general position; raises NotConvexPosition
    with the smallest offending index when some point is not a hull vertex.
    Turns are decided exactly, on both backends, on the points' `integer_grid`.
    """
    n = len(config)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    _, grid = integer_grid(config.points)
    order = sorted(range(n), key=grid.__getitem__)

    def build(indices):
        chain: list[int] = []
        for i in indices:
            rx, ry = grid[i]
            while len(chain) >= 2:
                (px, py), (qx, qy) = grid[chain[-2]], grid[chain[-1]]
                if turn(qx - px, qy - py, rx - px, ry - py, EXACT) > 0:
                    break
                chain.pop()
            chain.append(i)
        return chain

    lower = build(order)
    upper = build(reversed(order))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < n:
        missing = sorted(set(range(n)) - set(hull))
        raise NotConvexPosition(missing[0])
    return tuple(hull)
