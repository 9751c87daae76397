"""Affine-regularity certification via conic membership and the chord chain.

A polygon P_0 .. P_{n-1} on a non-degenerate conic is affinely regular iff
P_{j+1}P_{j+2} is parallel to P_j P_{j+3} for every cyclic j.  Certification
here uses only that parallelism/incidence characterization, never a floating
comparison against cos/sin targets; normalize_to_regular is a numeric
diagnostic on top, not the certifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

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
    orientation,
    segments_parallel,
)
from .scalars import Backend


@dataclass(frozen=True)
class AffineMap:
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

    def apply(self, p: Point, backend: Backend) -> Point:
        (a, b), (c, d) = self.linear
        tx, ty = self.translation
        if backend.exact:
            a, b, c, d = Fraction(a), Fraction(b), Fraction(c), Fraction(d)
            tx, ty = Fraction(tx), Fraction(ty)
        else:
            a, b, c, d = float(a), float(b), float(c), float(d)
            tx, ty = float(tx), float(ty)
        return Point(a * p.x + b * p.y + tx, c * p.x + d * p.y + ty)


def _cyclic_chain_failures(points: Sequence[Point], backend: Backend) -> list[int]:
    """Every cyclic j, ascending, where P_{j+1}P_{j+2} is not parallel to P_j P_{j+3}."""
    n = len(points)
    return [
        j for j in range(n)
        if not segments_parallel(points[(j + 1) % n], points[(j + 2) % n],
                                 points[j], points[(j + 3) % n], backend)
    ]


def korchmaros_chain(points: Sequence[Point], backend: Backend,
                     cyclic: bool = True) -> tuple[bool, Optional[int]]:
    """Whether P_{j+1}P_{j+2} || P_j P_{j+3} for every applicable j.

    Cyclic mode checks all j mod n; linear mode checks j = 0 .. n-4.
    Returns (True, None) or (False, smallest failing j).
    """
    n = len(points)
    if n < 4:
        raise TooFewPoints(f"need at least 4 points, got {n}")
    fails = _cyclic_chain_failures(points, backend)
    if not cyclic:
        fails = [j for j in fails if j < n - 3]
    return not fails, fails[0] if fails else None


@dataclass(frozen=True)
class RegularityCertificate:
    """Outcome of the affine-regularity test.

    granted is True iff all points lie on a common non-degenerate conic, are
    in convex position, and the cyclic chord chain holds everywhere.
    """

    granted: bool
    conic: Optional[Conic]
    chain_ok: bool
    order: tuple[int, ...]
    reason: Optional[str]


def is_affinely_regular(config: Configuration) -> RegularityCertificate:
    """Certify that the configuration is an affinely regular polygon."""
    n = len(config)
    if n < 5:
        raise TooFewPoints(f"need at least 5 points, got {n}")
    gp, witness = is_general_position(config)
    if not gp:
        raise CollinearTriple(witness)
    order = convex_position_order(config)
    pts = [config.points[i] for i in order]
    b = config.backend
    conic = conic_through_5(pts[:5], b)
    if conic.degenerate:
        return RegularityCertificate(False, conic, False, order, "conic through first five points is degenerate")
    for pos, p in enumerate(pts):
        if not is_on_conic(conic, p):
            return RegularityCertificate(
                False, conic, False, order,
                f"point {order[pos]} is off the conic through the first five hull points")
    chain_ok, fail_j = korchmaros_chain(pts, b, cyclic=True)
    if not chain_ok:
        return RegularityCertificate(False, conic, False, order,
                                     f"chord chain fails at cyclic index {fail_j}")
    return RegularityCertificate(True, conic, True, order, None)


def _solve3(m, rhs, backend: Backend):
    # Cramer's rule on a 3x3 system; exact on rationals
    def det3(mat):
        return (mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
                - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
                + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0]))

    d = det3(m)
    if backend.cmp(d, 0 * d) == 0:
        raise CollinearSource("source triple is collinear")
    out = []
    for col in range(3):
        mc = [list(row) for row in m]
        for r in range(3):
            mc[r][col] = rhs[r]
        out.append(det3(mc) / d)
    return out


def solve_affine_map(src: Sequence[Point], dst: Sequence[Point],
                     backend: Backend) -> AffineMap:
    """The unique affine map sending three non-collinear source points to
    three destination points; exact on rationals."""
    if len(src) != 3 or len(dst) != 3:
        raise CollinearSource("need exactly three source and destination points")
    if orientation(src[0], src[1], src[2], backend) == 0:
        raise CollinearSource("source triple is collinear")
    one = backend.coerce(1)
    m = [[p.x, p.y, one] for p in src]
    a, b, tx = _solve3(m, [q.x for q in dst], backend)
    c, d, ty = _solve3(m, [q.y for q in dst], backend)
    det = a * d - b * c
    if backend.cmp(det, 0 * det) == 0:
        raise NonInvertible("destination triple is collinear")
    return AffineMap(((a, b), (c, d)), (tx, ty))


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
    if targets is None:
        targets = list(range(n))
    targets = list(targets)
    if len(targets) != n or len(set(targets)) != n or not all(0 <= t < m for t in targets):
        raise ValueError(f"targets must be {n} distinct vertex indices below {m}")
    goal = [regular_vertex(t, m) for t in targets]
    T = solve_affine_map(points[:3], goal[:3], backend)
    residual = 0.0
    for p, q in zip(points[3:], goal[3:]):
        ip = T.apply(p, backend)
        residual = max(residual, math.hypot(ip.x - q.x, ip.y - q.y))
    return T, residual
