"""Points, directions, orientation, hulls."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopespectra import (
    Configuration,
    EXACT,
    Point,
    convex_position_order,
    direction,
    float_backend,
    is_general_position,
    orientation,
)
from slopespectra.errors import (
    BackendMismatch,
    CoincidentPoints,
    DuplicatePoints,
    NotConvexPosition,
    TooFewPoints,
)

from conftest import exact_config, float_config, parabola_config

P = Point
F = Fraction


def ep(x, y):
    return Point(F(x), F(y))


class TestDirection:
    def test_gcd_reduction(self):
        d = direction(ep(0, 0), ep(2, 4), EXACT)
        assert (d.dx, d.dy) == (1, 2)

    def test_vertical_canonical(self):
        d = direction(ep(1, 1), ep(1, 5), EXACT)
        assert (d.dx, d.dy) == (0, 1)

    def test_sign_canonicalization(self):
        d = direction(ep(0, 0), ep(-3, -6), EXACT)
        assert (d.dx, d.dy) == (1, 2)

    def test_symmetric_in_arguments(self):
        p, q = ep(F(1, 3), F(2, 7)), ep(F(-5, 2), F(9, 4))
        assert direction(p, q, EXACT) == direction(q, p, EXACT)

    def test_coincident_points_rejected(self):
        with pytest.raises(CoincidentPoints):
            direction(ep(1, 2), ep(1, 2), EXACT)

    @given(
        x1=st.fractions(-100, 100), y1=st.fractions(-100, 100),
        x2=st.fractions(-100, 100), y2=st.fractions(-100, 100),
        num=st.integers(-50, 50).filter(lambda v: v != 0),
        den=st.integers(1, 50),
    )
    @settings(max_examples=200, derandomize=True)
    def test_scaling_invariance(self, x1, y1, x2, y2, num, den):
        if (x1, y1) == (x2, y2):
            return
        p, q = Point(x1, y1), Point(x2, y2)
        scale = Fraction(num, den)
        q2 = Point(x1 + (x2 - x1) * scale, y1 + (y2 - y1) * scale)
        assert direction(p, q, EXACT) == direction(p, q2, EXACT)

    def test_float_angle_range(self):
        b = float_backend()
        d = direction(Point(0.0, 0.0), Point(-1.0, 0.0), b)
        assert d.angle == 0.0
        d2 = direction(Point(0.0, 0.0), Point(-1.0, 1e-6), b)
        assert 0.0 <= d2.angle < 3.1415926535897932


class TestOrientation:
    def test_counterclockwise(self):
        assert orientation(ep(0, 0), ep(1, 0), ep(0, 1), EXACT) == 1

    def test_collinear(self):
        assert orientation(ep(0, 0), ep(1, 1), ep(2, 2), EXACT) == 0

    def test_clockwise(self):
        assert orientation(ep(0, 0), ep(0, 1), ep(1, 0), EXACT) == -1

    @given(st.permutations([0, 1, 2]))
    @settings(derandomize=True)
    def test_antisymmetry(self, perm):
        pts = [ep(0, 0), ep(3, 1), ep(1, 4)]
        base = orientation(*pts, EXACT)
        swaps = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        permuted = orientation(*(pts[i] for i in perm), EXACT)
        assert permuted == (base if swaps % 2 == 0 else -base)

    def test_exact_backend_consistency_random(self):
        # 10^4 random rational triples: the exact sign never disagrees with
        # an independent high-precision re-evaluation (Fractions ARE exact,
        # so re-evaluating the cross product differently must agree).
        from slopespectra import SplitMix64

        rng = SplitMix64(2024)
        for _ in range(10_000):
            vals = [Fraction(rng.randint(-999, 999), rng.randint(1, 50)) for _ in range(6)]
            p, q, r = Point(vals[0], vals[1]), Point(vals[2], vals[3]), Point(vals[4], vals[5])
            cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
            expect = 0 if cross == 0 else (1 if cross > 0 else -1)
            assert orientation(p, q, r, EXACT) == expect

    def test_float_tolerance_zero(self):
        b = float_backend(1e-9)
        assert orientation(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.0 + 1e-13), b) == 0
        assert orientation(Point(0.0, 0.0), Point(1.0, 1.0), Point(2.0, 2.1), b) == 1


class TestConfiguration:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicatePoints):
            exact_config([(0, 0), (1, 1), (0, 0)])

    def test_exact_backend_refuses_floats(self):
        with pytest.raises(BackendMismatch):
            Configuration.from_coords([(0.5, 1), (2, 3), (4, 5)], EXACT)

    def test_float_backend_accepts_everything(self):
        cfg = float_config([(F(1, 2), 1), (2.5, 3), (4, 5)])
        assert cfg.points[0].x == 0.5


class TestGeneralPosition:
    def test_square(self):
        ok, witness = is_general_position(exact_config([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert ok and witness is None

    def test_collinear_witness_lowest_lex(self):
        ok, witness = is_general_position(exact_config([(0, 0), (1, 1), (2, 2), (0, 1)]))
        assert not ok
        assert witness == (0, 1, 2)

    def test_parabola_points(self):
        # oracle: all four triples of (t, t^2) have nonzero cross product
        ok, _ = is_general_position(parabola_config([0, 1, 2, 3]))
        assert ok

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            is_general_position(exact_config([(0, 0), (1, 1)]))


class TestConvexPositionOrder:
    def test_square_relisted(self):
        cfg = exact_config([(1, 1), (0, 0), (0, 1), (1, 0)])
        order = convex_position_order(cfg)
        pts = [tuple(map(int, cfg.points[i])) for i in order]
        assert pts == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_interior_point_rejected(self):
        # triangle + centroid
        cfg = exact_config([(0, 0), (3, 0), (0, 3), (1, 1)])
        with pytest.raises(NotConvexPosition) as exc:
            convex_position_order(cfg)
        assert exc.value.index == 3

    def test_parabola_ascending(self):
        cfg = parabola_config([2, 0, 3, 1])
        order = convex_position_order(cfg)
        # hull computed by hand: ccw from (0,0) is ascending in t
        assert [int(cfg.points[i].x) for i in order] == [0, 1, 2, 3]

    def test_idempotent_relabeling(self):
        cfg = exact_config([(1, 1), (0, 0), (0, 1), (1, 0)])
        ordered = cfg.reordered(convex_position_order(cfg))
        assert convex_position_order(ordered) == tuple(range(4))

    def test_reordered_rejects_repeated_index(self):
        cfg = exact_config([(1, 1), (0, 0), (0, 1), (1, 0)])
        with pytest.raises(DuplicatePoints) as exc:
            cfg.reordered([2, 0, 1, 0, 2])
        assert exc.value.indices == (0, 4)

    def test_ccw_orientation(self):
        from slopespectra import random_convex_position

        for seed in range(5):
            cfg = random_convex_position(8, seed)
            order = convex_position_order(cfg)
            pts = [cfg.points[i] for i in order]
            n = len(pts)
            for i in range(n):
                assert orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n], EXACT) == 1
