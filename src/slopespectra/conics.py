"""Conics, the chord-tangent group law, and the parallel-hexagon certificate.

A conic is the zero set of  a x^2 + b xy + c y^2 + d x + e y + f.  The
representation is affine on purpose: the constructions here never need
points at infinity, and a chord direction that meets the conic only once
surfaces as NoSecondIntersection instead of an ideal point.

For a non-degenerate conic with a base point O, defining P + Q as the
second intersection with the conic of the line through O parallel to the
chord PQ (tangent when P = Q) makes the conic an abelian group with
identity O.  Second intersections are computed by Vieta's formulas, so the
exact backend stays closed over the rationals: no square roots anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._frozen import Frozen
from .errors import (
    BackendMismatch,
    CollinearTriple,
    DegenerateConic,
    DegenerateInput,
    DuplicatePoints,
    NoSecondIntersection,
    OperandOffConic,
    RankDeficient,
    SingularPoint,
)
from .geometry import (
    Configuration,
    Direction,
    Point,
    common_denominator,
    direction_from_vector,
    integer_grid,
    is_general_position,
    points_equal,
    segments_parallel,
)
from .scalars import Backend, ordered_sum


def _normalize_coeffs(raw, backend: Backend):
    if backend.exact:
        _, ints = common_denominator(raw)
        g = math.gcd(*ints)
        if g == 0:
            raise DegenerateConic("all six coefficients are zero")
        if next(v for v in ints if v != 0) < 0:
            g = -g
        return tuple(v // g for v in ints)
    vals = [float(v) for v in raw]
    norm = math.sqrt(ordered_sum(v * v for v in vals))
    if norm == 0.0:
        raise DegenerateConic("all six coefficients are zero")
    vals = [v / norm for v in vals]
    if next((v for v in vals if abs(v) > backend.eps_rel), next(v for v in vals if v)) < 0:
        vals = [-v for v in vals]
    return tuple(vals)


def _singular(a, b, c, d, e, f) -> bool:
    """Whether the integer conic is degenerate: the doubled matrix
    [[2a, b, d], [b, 2c, e], [d, e, 2f]] is singular (its determinant is
    twice this sum).  Exact, and unchanged by scaling the coefficients."""
    return 4 * a * c * f - a * e * e - b * b * f + b * d * e - c * d * d == 0


class Conic(Frozen):
    """A normalized 6-coefficient conic and whether it is degenerate, decided
    exactly by `_singular` on the coefficients before normalization."""

    coeffs: tuple
    backend: Backend
    degenerate: bool

    @classmethod
    def from_coeffs(cls, raw, backend: Backend) -> "Conic":
        coeffs = _normalize_coeffs(raw, backend)
        # a float is an exact dyadic rational, so this is exact on both backends
        return cls(coeffs, backend, _singular(*common_denominator(raw)[1]))

    def terms_at(self, p: Point) -> list:
        a, b, c, d, e, f = self.coeffs
        x, y = p.x, p.y
        return [a * x * x, b * x * y, c * y * y, d * x, e * y, f]

    def gradient(self, p: Point) -> tuple:
        a, b, c, d, e, _ = self.coeffs
        x, y = p.x, p.y
        return (2 * a * x + b * y + d, b * x + 2 * c * y + e)


def is_on_conic(conic: Conic, p: Point) -> bool:
    """Whether the quadratic form is (tolerance-)zero at P."""
    return conic.backend.sum_is_zero(conic.terms_at(p))


def _check_general_position(points, backend: Backend) -> None:
    """Raise DuplicatePoints or CollinearTriple for the first witness."""
    gp, witness = is_general_position(Configuration(tuple(points), backend))
    if not gp:
        raise CollinearTriple(witness)


def _incidence_rows(points) -> tuple[int, list[list[int]]]:
    """(Z, the rows (X^2, XY, Y^2, XZ, YZ, Z^2)) of the points on their
    `integer_grid`: Z^2 times the rows (x^2, xy, y^2, x, y, 1), exactly."""
    z, grid = integer_grid(points)
    return z, [[x * x, x * y, y * y, x * z, y * z, z * z] for x, y in grid]


def _kernel(rows) -> list[int] | None:
    """The signed 5x5 minors (-1)^j M_j (M_j without column j) of five
    integer rows of six, or None when their rank is below 5.  They span the
    kernel (Cramer), and a sixth row dotted with them is minus the 6x6
    determinant it completes (Laplace, along that row).

    One fraction-free (Gauss-Jordan) elimination: after each pivot step
    every entry is a minor of the rows, so each division by the previous
    pivot is exact.  With the one free column f, the last pivot D = s M_f
    (s the sign of the row swaps) and the entries c_i of column f, the
    minors are s (-1)^f times D at f and -c_i at the i-th pivot column.
    """
    m = [list(r) for r in rows]
    r, free, prev, sign = 0, None, 1, 1  # r: the pivots found so far
    for c in range(6):
        pr = next((i for i in range(r, 5) if m[i][c]), None)
        if pr is None:
            if free is not None:
                return None
            free = c
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
            sign = -sign
        top, pk = m[r], m[r][c]
        cols = range(c + 1, 6) if free is None else (free, *range(c + 1, 6))
        for i, mi in enumerate(m):
            if i != r:
                mic = mi[c]
                for j in cols:
                    mi[j] = (mi[j] * pk - mic * top[j]) // prev
        r += 1
        prev = pk
    sign *= (-1) ** free
    vec = [-sign * row[free] for row in m]  # the pivot columns, ascending
    vec.insert(free, sign * prev)
    return vec


def conic_through_5(points, backend: Backend) -> Conic:
    """The unique conic through five points, no three collinear.

    Both backends fit exactly: the coefficients are the integer kernel of
    the five incidence rows, and `_singular` decides degeneracy on that
    kernel; the float backend rounds only the final coefficients.
    """
    points = list(points)
    if len(points) != 5:
        raise DegenerateInput(f"need exactly 5 points, got {len(points)}")
    _check_general_position(points, backend)
    coeffs = _kernel(_incidence_rows(points)[1])
    if coeffs is None:
        raise RankDeficient("incidence matrix has rank < 5")
    degenerate = _singular(*coeffs)
    if not backend.exact:
        # one representative per conic, its last nonzero coefficient positive:
        # the float normalization signs the zero coefficients too; int / int is
        # correctly rounded, so any integer multiple of the kernel gives these bits
        nonzero = [v for v in coeffs if v != 0]
        top = max(map(abs, nonzero))  # keeps the float images in range
        sign = 1 if nonzero[-1] > 0 else -1
        coeffs = [sign * v / top for v in coeffs]
    return Conic(_normalize_coeffs(coeffs, backend), backend, degenerate)


def coconic_determinant(points, backend: Backend):
    """The 6x6 determinant of incidence rows (x^2, xy, y^2, x, y, 1), exact
    (a float on the float backend): the sixth integer row expanded against
    the `_kernel` of the first five (Laplace), divided exactly by Z^12."""
    points = list(points)
    if len(points) != 6:
        raise DegenerateInput(f"need exactly 6 points, got {len(points)}")
    z, rows = _incidence_rows(points)
    minors = _kernel(rows[:5])
    det = 0 if minors is None else -sum(a * k for a, k in zip(rows[5], minors))
    return Fraction(det, z ** 12) if backend.exact else det / z ** 12


def coconic_6(points, backend: Backend) -> bool:
    """Whether six points lie on a common (possibly degenerate) conic."""
    points = list(points)
    det = coconic_determinant(points, backend)
    if backend.exact:
        return det == 0
    # relative zero test against the Hadamard bound by columns: under
    # x -> s x each column scales by one power of s, as the determinant does
    rows = [(p.x * p.x, p.x * p.y, p.y * p.y, p.x, p.y, 1.0) for p in points]
    return abs(det) <= backend.eps_rel * math.prod(math.hypot(*col) for col in zip(*rows))


def tangent_direction(conic: Conic, p: Point) -> Direction:
    """Direction of the tangent line at a point of the conic."""
    gx, gy = conic.gradient(p)
    b = conic.backend
    if b.sum_is_zero([gx]) and b.sum_is_zero([gy]):
        raise SingularPoint(f"conic gradient vanishes at {p}")
    return direction_from_vector(-gy, gx, b)


def second_intersection(conic: Conic, p: Point, d: Direction) -> Point:
    """The other point where the line through P with direction d meets the
    conic; P itself when that line is tangent at P.

    P is assumed on the conic, so the parameter quadratic has root 0 and the
    second root is read off by Vieta, keeping rational inputs rational.
    """
    a, b, c, dd, e, _ = conic.coeffs
    backend = conic.backend
    dx, dy = d.dx, d.dy
    if backend.exact and not d.exact:
        raise BackendMismatch("direction backend does not match conic backend")
    x0, y0 = p.x, p.y
    alpha_terms = [a * dx * dx, b * dx * dy, c * dy * dy]
    beta_terms = [2 * a * x0 * dx, b * (x0 * dy + y0 * dx), 2 * c * y0 * dy, dd * dx, e * dy]
    alpha = ordered_sum(alpha_terms)
    beta = ordered_sum(beta_terms)
    if backend.sum_is_zero(alpha_terms):
        if backend.sum_is_zero(beta_terms):
            raise NoSecondIntersection("line is contained in the conic")
        raise NoSecondIntersection("direction meets the conic only at the base point")
    if backend.sum_is_zero(beta_terms):
        return p  # tangent at P
    t = -beta / alpha
    return Point(x0 + t * dx, y0 + t * dy)


class ConicGroup(Frozen):
    """The abelian group of a non-degenerate conic with identity O."""

    conic: Conic
    base: Point

    def __post_init__(self):
        if self.conic.degenerate:
            raise DegenerateConic("group law is undefined on a degenerate conic")
        if not is_on_conic(self.conic, self.base):
            raise OperandOffConic(f"base point {self.base} is not on the conic")

    def _require_on_conic(self, p: Point):
        if not is_on_conic(self.conic, p):
            raise OperandOffConic(f"{p} is not on the conic")

    def add(self, p: Point, q: Point) -> Point:
        """P + Q: the point R on the conic with chord RO parallel to PQ."""
        self._require_on_conic(p)
        self._require_on_conic(q)
        return self._chord_sum(p, q)

    def _chord_sum(self, p: Point, q: Point) -> Point:
        """P + Q for two points the caller has already found on the conic."""
        b = self.conic.backend
        if points_equal(p, q, b):
            d = tangent_direction(self.conic, p)
        else:
            d = direction_from_vector(q.x - p.x, q.y - p.y, b)
        return second_intersection(self.conic, self.base, d)

    def neg(self, p: Point) -> Point:
        """The inverse of P: chord through P parallel to the tangent at O."""
        self._require_on_conic(p)
        d = tangent_direction(self.conic, self.base)
        return second_intersection(self.conic, p, d)

    def scalar_mul(self, k: int, p: Point) -> Point:
        """k-fold group sum of P by double-and-add; 0*P = O."""
        self._require_on_conic(p)
        if k < 0:
            return self.neg(self.scalar_mul(-k, p))
        result = self.base
        addend = p
        while k:
            if k & 1:
                result = self.add(result, addend)
            if k > 1:
                addend = self.add(addend, addend)
            k >>= 1
        return result


# the functional spelling of the group law: group_add(group, p, q) is group.add(p, q)
group_add = ConicGroup.add
group_neg = ConicGroup.neg
group_scalar_mul = ConicGroup.scalar_mul


class Applicable(Frozen):
    """All three chord parallelisms hold; coconic is the 6x6 verdict."""

    coconic: bool


class NotApplicable(Frozen):
    """Some required chord parallelism fails."""

    failed: str


_PASCAL_CONDITIONS = (
    ((0, 5), (1, 4), "P1P6 || P2P5"),
    ((1, 2), (0, 3), "P2P3 || P1P4"),
    ((3, 4), (2, 5), "P4P5 || P3P6"),
)


def pascal_parallel_coconic(points, backend: Backend):
    """Check the three-parallel-chord hexagon condition.

    When P1P6 || P2P5, P2P3 || P1P4 and P4P5 || P3P6 all hold, the six
    points must lie on a common conic; the returned Applicable carries the
    6x6 incidence verdict, and a False there indicates a tolerance or
    predicate bug rather than a property of valid input.
    """
    points = list(points)
    if len(points) != 6:
        raise DegenerateInput(f"need exactly 6 points, got {len(points)}")
    try:
        _check_general_position(points, backend)
    except (DuplicatePoints, CollinearTriple) as exc:
        raise DegenerateInput(str(exc)) from exc
    for (i1, j1), (i2, j2), label in _PASCAL_CONDITIONS:
        if not segments_parallel(points[i1], points[j1], points[i2], points[j2], backend):
            return NotApplicable(label)
    return Applicable(coconic_6(points, backend))
