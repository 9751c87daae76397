"""Points, directions, configurations and the base predicates.

Directions are canonical representatives of parallelism classes: on the
exact backend an integer-primitive pair (dx, dy) with dx > 0 (or dx = 0,
dy > 0) and no angle; on the float backend a unit vector whose angle lies
in [0, pi).
Every parallel, collinear and which-side decision is the sign of one cross
product, `turn`: exact on rationals, a sine bound of eps_rel on floats.

A configuration partitions its flat pair indices into parallelism classes
once (`Configuration.pair_partition`): the exact backend hashes every pair
by its correctly rounded slope on the integer `grid`, with no gcd per pair;
the float backend merges sorted pair angles.  That partition is one of two
class tables: verify, general position, slope counts and criticality read
it.  `direction_classes` names it in one loop, one `Direction` and one
`SlopeClass` of (i, j) pairs per class: the spectrum's classes, forbidden
slopes, the chord dichotomy and render read that.

Indices are 0-based throughout the library.  Cyclic index arithmetic is
taken modulo n wherever an operation documents it.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import chain, combinations, count, repeat
from typing import Iterable, Optional, Sequence

from ._frozen import Frozen, set_field
from .errors import (
    CoincidentPoints,
    DuplicatePoints,
    IndexOutOfRange,
    NotConvexPosition,
    TooFewPoints,
)
from .scalars import EXACT, Backend


class Point(Frozen):
    """A planar point; both coordinates share one backend's scalar type."""

    x: object
    y: object

    def __init__(self, x, y):  # built per input point and per group step
        set_field(self, "x", x)
        set_field(self, "y", y)

    def __iter__(self):
        yield self.x
        yield self.y

    def as_floats(self) -> tuple[float, float]:
        return float(self.x), float(self.y)


class Direction(Frozen, uncompared=("angle",)):
    """Canonical representative of a parallelism class of segments; only a
    float direction has an angle (an exact one keeps the default 0.0)."""

    dx: object
    dy: object
    exact: bool
    angle: float

    def __init__(self, dx, dy, exact, angle=0.0):  # built per class
        set_field(self, "dx", dx)
        set_field(self, "dy", dy)
        set_field(self, "exact", exact)
        set_field(self, "angle", angle)


class SlopeClass(Frozen):
    """One parallelism class: a canonical direction and its point pairs."""

    direction: Direction
    pairs: tuple[tuple[int, int], ...]

    def __init__(self, direction, pairs):  # built per class
        set_field(self, "direction", direction)
        set_field(self, "pairs", pairs)


def primitive_direction(ix: int, iy: int) -> tuple[int, int]:
    """The primitive integer vector parallel to the nonzero (ix, iy), with
    dx > 0, or dx = 0 and dy > 0."""
    g = math.gcd(ix, iy)
    ix //= g
    iy //= g
    if ix < 0 or (ix == 0 and iy < 0):
        return -ix, -iy
    return ix, iy


def common_denominator(values) -> tuple[int, list[int]]:
    """(Z, [v Z, ...]): Z the lcm of the denominators of the values, so each
    v Z is an integer.  Takes ints, Fractions and floats alike (a float is an
    exact dyadic rational)."""
    ratios = [v.as_integer_ratio() for v in values]
    z = math.lcm(*[den for _, den in ratios])
    return z, [num * (z // den) for num, den in ratios]


def integer_grid(points) -> tuple[int, list[tuple[int, int]]]:
    """The points on one integer grid: (Z, [(x Z, y Z), ...]), by
    `common_denominator` of all coordinates; scaling by Z changes no
    direction or incidence."""
    z, ints = common_denominator([p.x for p in points] + [p.y for p in points])
    return z, list(zip(ints[:len(points)], ints[len(points):]))


def _pair_ends(n: int) -> tuple[list[int], list[int]]:
    """(I, J): the k-th pair of `combinations(range(n), 2)` is (I[k], J[k])."""
    return (list(chain.from_iterable(map(repeat, range(n), range(n - 1, -1, -1)))),
            list(chain.from_iterable(map(range, range(1, n + 1), repeat(n)))))


def require_indices(indices: Iterable[int], n: int) -> None:
    """IndexOutOfRange for the first of the indices outside 0 .. n-1."""
    for i in indices:
        if not 0 <= i < n:
            raise IndexOutOfRange(f"vertex index {i} out of range")


def direction_from_vector(dx, dy, backend: Backend) -> Direction:
    """Canonical Direction of the (nonzero) vector (dx, dy)."""
    if backend.exact:
        _, (ix, iy) = common_denominator((dx, dy))
        if ix == 0 and iy == 0:
            raise CoincidentPoints("zero vector has no direction")
        return Direction(*primitive_direction(ix, iy), True)
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
    fy += 0.0  # -0.0 (a flipped or given zero) would give the angle -0.0
    h = math.hypot(fx, fy)
    if h < 2.0 ** -1022 or h > 1.7976931348623157e308:  # subnormal, or overflowed to inf
        s = 2.0 ** 60 if h < 1.0 else 0.5  # exact, and the direction is kept
        fx, fy = fx * s, fy * s
        h = math.hypot(fx, fy)
    fx, fy = fx / h, fy / h
    ang = math.atan2(fy, fx)
    if ang >= math.pi:
        ang -= math.pi
    return fx, fy, ang


def direction(p: Point, q: Point, backend: Backend) -> Direction:
    """Canonical Direction of segment PQ; symmetric in its arguments."""
    if points_equal(p, q, backend):
        raise CoincidentPoints(f"{p} and {q} coincide")
    return direction_from_vector(q.x - p.x, q.y - p.y, backend)


def turn(ux, uy, vx, vy, backend: Backend) -> int:
    """Sign of u x v: +1 ccw, -1 cw, 0 parallel; exact on rationals.  On floats
    0 iff |u x v| <= eps_rel |u| |v|, a sine bound that no scaling moves, with
    the eps, in radians, within which `pair_partition` merges pair angles."""
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


class Configuration(Frozen):
    """An immutable indexed set of pairwise-distinct planar points.

    `DuplicatePoints` names the lexicographically first pair i < j of equal
    points, found by one sweep along ascending x: exact input on its `grid`
    with `==`, float input with `Backend.eq`.  The sweep from x_i stops at
    the first x not equal to it, as no later x is (see `scalars`): O(n log n)
    plus the pairs of equal x.
    """

    points: tuple[Point, ...]
    backend: Backend

    def __post_init__(self):
        if self.backend.exact:
            xs, ys, eq = [x for x, _ in self.grid], [y for _, y in self.grid], operator.eq
        else:
            xs, ys, eq = [p.x for p in self.points], [p.y for p in self.points], self.backend.eq
        order = sorted(range(len(xs)), key=xs.__getitem__)
        equal = []
        for a, i in enumerate(order):
            for j in map(order.__getitem__, range(a + 1, len(order))):
                if not eq(xs[i], xs[j]):
                    break
                if eq(ys[i], ys[j]):
                    equal.append((min(i, j), max(i, j)))
        if equal:
            raise DuplicatePoints(*min(equal))

    @classmethod
    def from_coords(cls, coords: Iterable, backend: Backend) -> "Configuration":
        pts = tuple(Point(backend.coerce(x), backend.coerce(y)) for x, y in coords)
        return cls(pts, backend)

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> Point:
        return self.points[i]

    def reordered(self, order: Sequence[int]) -> "Configuration":
        """The points at the given indices, in that order (a subset too);
        IndexOutOfRange for an index outside 0 .. n-1.  Points at distinct
        indices are distinct, so only a repeated index runs the duplicate
        sweep, which names the first equal pair of the result."""
        pts = self.points
        require_indices(order, len(pts))
        points = tuple(pts[i] for i in order)
        if len(set(order)) < len(order):
            return Configuration(points, self.backend)
        config = object.__new__(Configuration)
        set_field(config, "points", points)
        set_field(config, "backend", self.backend)
        return config

    @cached_property
    def grid(self) -> list[tuple[int, int]]:
        """The points on their `integer_grid`, computed once: the exact
        duplicate sweep, pass and class names and the hull read it."""
        return integer_grid(self.points)[1]

    @cached_property
    def pair_partition(self) -> tuple[list[int], ...]:
        """The parallelism classes of all pairs, unnamed: per class a list of
        flat pair indices, representative first; k is the k-th pair of
        `combinations(range(n), 2)`.  The one O(n^2) pass, cached.

        Exact: each pair of the `grid` is hashed by its correctly rounded
        slope, dy / dx when |dx| >= |dy| and dx / dy in a second table
        otherwise, so parallel pairs always share a key and no pair costs a
        gcd.  A bucket whose pairs do not all `turn` 0 against its first (two
        slopes within a rounding of each other) is split by
        `primitive_direction`, so no input makes the pass worse than O(n^2).
        A class ascends from its representative; classes come in no promised
        order.  Float: sorted pair angles in [0, pi) are merged when adjacent
        within eps_rel radians, the pi/0 wraparound included; a class lists
        its pairs by (angle, k), and classes are sorted by angle.  Merging
        follows the sorted order and is not transitively closed, which keeps
        the output deterministic.
        """
        pts = self.points
        n, b = len(pts), self.backend
        if b.exact:
            xs, ys = zip(*self.grid) if n else ((), ())
            # parallel pairs have one |dy| / |dx|, so one regime, and int / int
            # is correctly rounded, so one key; a bucket is its first pair
            # and, in `more`, the pairs that met it
            flat: dict[float, int] = {}
            steep: dict[float, int] = {}
            more: dict[int, list[int]] = {}
            k = 0
            for i, xi, yi in zip(range(n), xs, ys):
                for xj, yj in zip(xs[i + 1:], ys[i + 1:]):
                    dx, dy = xj - xi, yj - yi
                    first = (flat.setdefault(dy / dx, k) if abs(dx) >= abs(dy)
                             else steep.setdefault(dx / dy, k))
                    if first != k:
                        more.setdefault(first, []).append(k)
                    k += 1
            classes = [[k] for k in chain(flat.values(), steep.values()) if k not in more]
            I, J = _pair_ends(n) if more else ((), ())
            for first, rest in more.items():
                ks = [first, *rest]
                (ux, uy), *vs = vecs = [(xs[J[k]] - xs[I[k]], ys[J[k]] - ys[I[k]]) for k in ks]
                if any(turn(ux, uy, vx, vy, EXACT) for vx, vy in vs):
                    split: dict[tuple[int, int], list[int]] = {}
                    for k, v in zip(ks, vecs):
                        split.setdefault(primitive_direction(*v), []).append(k)
                    classes += split.values()
                else:
                    classes.append(ks)
            return tuple(classes)

        eps, hypot, atan2, pi = b.eps_rel, math.hypot, math.atan2, math.pi
        xs, ys = [p.x for p in pts], [p.y for p in pts]
        angles = []
        for i, xi, yi in zip(range(n), xs, ys):
            for xj, yj in zip(xs[i + 1:], ys[i + 1:]):
                fx, fy = xj - xi, yj - yi  # `_unit_direction`'s angle, inlined
                if fy < 0.0 or (fy == 0.0 and fx < 0.0):
                    fx, fy = -fx, -fy
                h = hypot(fx, fy)  # `_unit_direction` rescales a subnormal or infinite h
                ang = (atan2((fy + 0.0) / h, fx / h) if 2.0 ** -1022 <= h <= 1.7976931348623157e308
                       else _unit_direction(fx, fy)[2])
                angles.append(ang - pi if ang >= pi else ang)
        # a stable sort on keys in pair order gives the (angle, k) order;
        # a NaN angle (an overflowed difference) is a class of its own
        order = sorted(range(len(angles)), key=angles.__getitem__)
        ordered = [angles[k] for k in order]
        cuts = [t for t, a, b in zip(count(1), ordered, ordered[1:]) if not b - a <= eps]
        groups = [order[s:e] for s, e in zip([0] + cuts, cuts + [len(order)]) if s < e]
        # the last group may continue into the first across pi/0; either
        # way each group starts with its smallest key, in ascending order
        if len(groups) > 1 and ordered[0] + pi - ordered[-1] <= eps:
            groups[0] += groups.pop()
        return tuple(groups)

    @cached_property
    def direction_classes(self) -> tuple[SlopeClass, ...]:
        """`pair_partition` named: a `SlopeClass` per class, the canonical
        direction of its representative pair and its sorted pairs.

        No second pass over the pairs: one `Direction` per class, on exact
        input from one gcd of the representative on the `grid`, and exact
        classes sorted by direction, as plain (dx, dy) tuples before any
        value object is built.  Float classes keep the angle order of
        `pair_partition`.
        """
        pts, b = self.points, self.backend
        grid = self.grid if b.exact else None
        pairs = list(combinations(range(len(pts)), 2))
        named = []
        for ks in self.pair_partition:  # an exact class ascends already
            i, j = pairs[ks[0]]
            named.append((primitive_direction(grid[j][0] - grid[i][0], grid[j][1] - grid[i][1])
                          if b.exact else
                          direction_from_vector(pts[j].x - pts[i].x, pts[j].y - pts[i].y, b), ks))
        if b.exact:  # (dx, dy) is unique per class: sort plain tuples, then build values
            named.sort(key=operator.itemgetter(0))
            named = [(Direction(dx, dy, True), ks) for (dx, dy), ks in named]
        return tuple(SlopeClass(d, (pairs[ks[0]],) if len(ks) == 1 else
                                tuple(map(pairs.__getitem__, sorted(ks)))) for d, ks in named)


def is_general_position(config: Configuration) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Whether no class of `pair_partition` holds two segments at one point:
    on exact input, whether no three points are collinear.

    Then each point meets n - 1 distinct classes, on either backend.  The
    rule reads only the class partition, which does not depend on how the
    points are numbered, so neither does the verdict.  One pass over its
    pair indices, O(n^2), decoding only a failing class.  On failure, also
    returns the lexicographically first triple i < j < k two of whose
    segments share a class (on exact input, the first collinear triple):
    the least, over such classes and their points v, of v with its first
    two partners in the class.
    """
    n = len(config)
    if n < 3:
        raise TooFewPoints(f"need at least 3 points, got {n}")
    shared = [ks for ks in config.pair_partition if len(ks) > 1]
    I, J = _pair_ends(n) if shared else ((), ())
    triples = []
    for ks in shared:
        # m pairs of which no two share a point touch 2m points
        if len({*map(I.__getitem__, ks), *map(J.__getitem__, ks)}) < 2 * len(ks):
            partners: dict[int, list[int]] = {}
            for k in sorted(ks):  # lexicographic pair order, so each partner list is sorted
                partners.setdefault(I[k], []).append(J[k])
                partners.setdefault(J[k], []).append(I[k])
            triples += (tuple(sorted((v, ps[0], ps[1])))
                        for v, ps in partners.items() if len(ps) > 1)
    first = min(triples, default=None)
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
    grid = config.grid
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
